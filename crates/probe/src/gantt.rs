//! Text Gantt rendering over the traced event stream.
//!
//! This is the terminal-friendly twin of the Chrome-trace exporter:
//! the same spans, rendered as fixed-width ASCII bars. The
//! `trace_overlap` bin feeds the timing DAG's [`TraceData`] through
//! [`from_trace`] + [`render`]; a flight-derived trace renders the
//! same way.

use crate::trace::{Span, TraceData};

/// One bar of the chart.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GanttRow {
    /// Left-column label.
    pub label: String,
    /// Fill character for the bar (e.g. `'D'` for the DMA lane).
    pub lane: char,
    /// Start cycle.
    pub start: u64,
    /// End cycle.
    pub end: u64,
}

/// Lane character for a span category: `"dma"` → `D`, `"compute"` →
/// `C`, anything else (sync latency, mesh) → `.`.
pub fn lane_for_cat(cat: &str) -> char {
    match cat {
        "dma" => 'D',
        "compute" => 'C',
        _ => '.',
    }
}

/// Converts traced spans (in emission order) into Gantt rows, one per
/// span, laned by [`lane_for_cat`].
pub fn from_trace(data: &TraceData) -> Vec<GanttRow> {
    data.spans.iter().map(row_from_span).collect()
}

fn row_from_span(s: &Span) -> GanttRow {
    GanttRow {
        label: s.name.to_string(),
        lane: lane_for_cat(s.cat),
        start: s.start,
        end: s.end,
    }
}

/// Renders the header plus one bar line per row, `width` cells across
/// the `[0, makespan)` interval. Output shape matches the historical
/// `trace_overlap` chart byte for byte.
pub fn render(rows: &[GanttRow], makespan: u64, width: usize) -> String {
    let span = makespan.max(1) as f64;
    let mut out = format!(
        "{:<12} {:>10} {:>10}  timeline ({} cycles)\n",
        "task", "start", "end", makespan
    );
    for r in rows {
        let s = (r.start as f64 / span * width as f64) as usize;
        let e = ((r.end as f64 / span * width as f64) as usize)
            .max(s + 1)
            .min(width);
        let mut bar = vec![' '; width];
        for cell in bar.iter_mut().take(e).skip(s) {
            *cell = r.lane;
        }
        out.push_str(&format!(
            "{:<12} {:>10} {:>10}  |{}|\n",
            r.label,
            r.start,
            r.end,
            bar.iter().collect::<String>()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_bars_proportionally() {
        let rows = vec![
            GanttRow {
                label: "load".into(),
                lane: 'D',
                start: 0,
                end: 50,
            },
            GanttRow {
                label: "compute".into(),
                lane: 'C',
                start: 50,
                end: 100,
            },
        ];
        let out = render(&rows, 100, 10);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("timeline (100 cycles)"));
        assert!(lines[1].contains("|DDDDD     |"));
        assert!(lines[2].contains("|     CCCCC|"));
    }

    #[test]
    fn zero_length_span_still_shows_one_cell() {
        let rows = vec![GanttRow {
            label: "sync".into(),
            lane: '.',
            start: 10,
            end: 10,
        }];
        let out = render(&rows, 100, 10);
        assert!(out.lines().nth(1).unwrap().contains("| .        |"));
    }

    #[test]
    fn from_trace_maps_categories_to_lanes() {
        let mut t = TraceData::default();
        let tr = t.track("timing-dag", "DMA");
        t.span(tr, "dma", "load A", 0, 10);
        t.span(tr, "compute", "block", 10, 20);
        t.span(tr, "sync", "mesh sync", 20, 25);
        let rows = from_trace(&t);
        let lanes: Vec<char> = rows.iter().map(|r| r.lane).collect();
        assert_eq!(lanes, vec!['D', 'C', '.']);
        assert_eq!(rows[0].label, "load A");
    }
}
