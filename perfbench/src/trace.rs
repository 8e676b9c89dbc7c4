//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own files around each call
//! into a layer; nothing inside the program is instrumented. A span
//! carries its name, host start and end, its parent and the op it
//! belongs to. A *derived* span is one whose duration the program
//! reports (such as `RunStats::wall`) rather than one the benchmark
//! timed; it is placed at its parent's start.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call this span covers.
    pub name: &'static str,
    /// Nanoseconds from the recorder's epoch.
    pub start_ns: u64,
    /// Nanoseconds from the recorder's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, `None` for an op's root.
    pub parent: Option<usize>,
    /// The op this span belongs to.
    pub op: u64,
    /// Duration reported by the program rather than timed here.
    pub derived: bool,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Self time of one layer, summed over all its spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTime {
    /// Spans recorded under this name.
    pub count: u64,
    /// Σ span durations.
    pub total_ns: u64,
    /// Σ (span duration − the part its children cover).
    pub self_ns: u64,
}

/// The span recorder. Single-threaded: the benchmark's generator
/// thread is the only producer.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }
}

impl Tracer {
    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Starts the next op; subsequent root spans belong to it.
    pub fn next_op(&mut self) -> u64 {
        self.op += 1;
        self.op
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> usize {
        let now = self.ns(Instant::now());
        self.push(name, now)
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn end(&mut self, id: usize) {
        let now = self.ns(Instant::now());
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end_ns = now;
    }

    /// Records a closed span with explicit bounds under `parent` (used
    /// where the interval is known only after the fact, such as a
    /// served request completing out of submission order).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            op: self.op,
            derived: false,
        });
        id
    }

    /// Records a derived child of `parent` lasting `dur`.
    pub fn derived(&mut self, name: &'static str, parent: usize, dur: Duration) {
        let start = self.spans[parent].start_ns;
        let end = start + dur.as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: start,
            end_ns: end,
            parent: Some(parent),
            op: self.spans[parent].op,
            derived: true,
        });
    }

    fn push(&mut self, name: &'static str, start_ns: u64) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op: self.op,
            derived: false,
        });
        self.open.push(id);
        id
    }

    /// Duration of a closed span.
    pub fn dur(&self, id: usize) -> Duration {
        Duration::from_nanos(self.spans[id].dur_ns())
    }

    /// Per-layer totals and self times. Children of one span never
    /// overlap (one producer thread), so a span's self time is its
    /// duration minus the sum of its children's.
    pub fn layers(&self) -> BTreeMap<&'static str, LayerTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let l = out.entry(s.name).or_default();
            l.count += 1;
            l.total_ns += s.dur_ns();
            l.self_ns += s.dur_ns().saturating_sub(child_ns[i]);
        }
        out
    }

    /// Root spans (one per op) and, for each, the sum of the self
    /// times of every span in its tree. The two agree exactly when
    /// the children tile inside their parents.
    pub fn op_roots(&self) -> Vec<(f64, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut root_of = vec![0usize; self.spans.len()];
        let mut self_sum: BTreeMap<usize, u64> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            // Parents precede children, so the root is already known.
            root_of[i] = s.parent.map_or(i, |p| root_of[p]);
            *self_sum.entry(root_of[i]).or_default() += s.dur_ns().saturating_sub(child_ns[i]);
        }
        self_sum
            .into_iter()
            .map(|(root, sum)| (self.spans[root].dur_ns() as f64 / 1e6, sum as f64 / 1e6))
            .collect()
    }

    /// The spans as a Chrome trace-event JSON document (complete
    /// events, microseconds), one track per op.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let _ = write!(
                out,
                "{}{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"parent\":{},\"derived\":{}}}}}",
                if i == 0 { "" } else { ",\n" },
                s.name,
                s.op,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.parent.map_or(-1, |p| p as i64),
                s.derived
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::default();
        t.next_op();
        let root = t.begin("root");
        let child = t.begin("child");
        std::thread::sleep(Duration::from_millis(2));
        t.end(child);
        t.derived("reported", child, Duration::from_micros(100));
        t.end(root);
        let layers = t.layers();
        let (r, c, d) = (layers["root"], layers["child"], layers["reported"]);
        assert_eq!(r.count, 1);
        assert_eq!(c.self_ns + d.total_ns, c.total_ns);
        assert_eq!(r.self_ns + c.total_ns, r.total_ns);
        let roots = t.op_roots();
        assert_eq!(roots.len(), 1);
        assert!((roots[0].0 - roots[0].1).abs() < 1e-9);
    }
}
