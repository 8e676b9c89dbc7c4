//! Simulated-time event timelines.
//!
//! A [`TraceData`] is plain data: *tracks* (one per CPE, or per
//! timing-DAG resource) plus *spans* — named intervals stamped in
//! simulated cycles — built by value through `&mut self` methods. It
//! has one producer per clock: `Dag::emit_trace` (in `sw-sim`) for the
//! timing model, and [`from_flight`] for functional runs, which reads
//! the flight recorder's rings back as one track per CPE plus the MPE.
//!
//! A [`TraceData`] exports to the Chrome trace-event JSON format
//! (`{"traceEvents": [...]}` with `B`/`E` duration pairs), which
//! Perfetto and `chrome://tracing` load directly. Timestamps are raw
//! simulated cycles written as integers — deterministic and byte-stable
//! — with one Perfetto "microsecond" standing in for one CPE cycle
//! (1.45 GHz; wall time is a simulator output, not an event clock).
//! Processes group tracks: each distinct process name becomes a `pid`,
//! each track a `tid` with a `thread_name` metadata record.

use std::collections::BTreeMap;

use crate::flight::{self, fault_code, mesh_outcome, EventKind, FlightRecorder, MPE_RING, N_RINGS};
use crate::metrics::escape_json;
use sw_arch::consts::MESH_TRANSIT_CYCLES;
use sw_arch::Coord;

/// Identifier of a track inside one [`TraceData`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrackId(u32);

impl TrackId {
    /// Position of the track in [`TraceData::tracks`].
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One timeline (a Perfetto "thread"): a process group plus a name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Track {
    /// Grouping name (Perfetto process), e.g. `"timing-dag"`, `"cpe"`.
    pub process: &'static str,
    /// Track name (Perfetto thread), e.g. `"CPE (3,5)"`.
    pub name: String,
}

/// One simulated-time interval on a track.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// The track this span lives on.
    pub track: TrackId,
    /// Event category (Chrome `cat`), e.g. `"dma"`, `"compute"`.
    pub cat: &'static str,
    /// Event name, e.g. `"load A"`, `"pe.get"`.
    pub name: &'static str,
    /// Simulated start cycle.
    pub start: u64,
    /// Simulated end cycle (`>= start`).
    pub end: u64,
    /// Extra key/value payload (Chrome `args`), e.g. `("bytes", n)`.
    pub args: Vec<(&'static str, u64)>,
}

/// Tracks and spans of one or more timelines.
#[derive(Debug, Clone, Default)]
pub struct TraceData {
    /// Registered tracks, indexed by [`TrackId`].
    pub tracks: Vec<Track>,
    /// Spans in emission order.
    pub spans: Vec<Span>,
}

impl TraceData {
    /// Registers a track.
    pub fn track(&mut self, process: &'static str, name: impl Into<String>) -> TrackId {
        self.tracks.push(Track {
            process,
            name: name.into(),
        });
        TrackId(self.tracks.len() as u32 - 1)
    }

    /// Adds a span with no payload.
    pub fn span(
        &mut self,
        track: TrackId,
        cat: &'static str,
        name: &'static str,
        start: u64,
        end: u64,
    ) {
        self.span_args(track, cat, name, start, end, &[]);
    }

    /// Adds a span with a key/value payload. A zero-length span
    /// exports as an instant.
    pub fn span_args(
        &mut self,
        track: TrackId,
        cat: &'static str,
        name: &'static str,
        start: u64,
        end: u64,
        args: &[(&'static str, u64)],
    ) {
        debug_assert!(end >= start, "span {name:?} ends before it starts");
        debug_assert!(
            (track.0 as usize) < self.tracks.len(),
            "span {name:?} on unregistered track"
        );
        self.spans.push(Span {
            track,
            cat,
            name,
            start,
            end,
            args: args.to_vec(),
        });
    }

    /// True when nothing was collected.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Largest span end cycle (0 when empty).
    pub fn max_cycle(&self) -> u64 {
        self.spans.iter().map(|s| s.end).max().unwrap_or(0)
    }

    /// Serializes to Chrome trace-event JSON.
    ///
    /// Deterministic and byte-stable for a given trace: metadata
    /// records first, then all duration events sorted by `(ts, phase,
    /// pid, tid)` with `E` before `B` at equal timestamps (so
    /// back-to-back spans on one track close before the next opens).
    /// Zero-length spans become instant (`i`) events. `ts` is in raw
    /// simulated cycles.
    pub fn to_chrome_json(&self) -> String {
        // Map each distinct process name (in track order) to a pid,
        // and each track to a tid within its process.
        let mut processes: Vec<&'static str> = Vec::new();
        let mut track_ids: Vec<(u32, u32)> = Vec::new(); // (pid, tid) per track
        for t in &self.tracks {
            let pid = match processes.iter().position(|&p| p == t.process) {
                Some(i) => i,
                None => {
                    processes.push(t.process);
                    processes.len() - 1
                }
            } as u32
                + 1;
            let tid = track_ids.iter().filter(|&&(p, _)| p == pid).count() as u32 + 1;
            track_ids.push((pid, tid));
        }

        let mut out = String::from("{\"traceEvents\": [\n");
        let mut first = true;
        let mut emit = |line: String, out: &mut String| {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str("  ");
            out.push_str(&line);
        };

        for (i, p) in processes.iter().enumerate() {
            emit(
                format!(
                    "{{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": {}, \"tid\": 0, \"args\": {{\"name\": \"{}\"}}}}",
                    i + 1,
                    escape_json(p)
                ),
                &mut out,
            );
        }
        for (t, &(pid, tid)) in self.tracks.iter().zip(&track_ids) {
            emit(
                format!(
                    "{{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": {pid}, \"tid\": {tid}, \"args\": {{\"name\": \"{}\"}}}}",
                    escape_json(&t.name)
                ),
                &mut out,
            );
        }

        // (ts, phase-rank, pid, tid, seq, text). Rank orders E < i < B
        // at equal timestamps.
        let mut events: Vec<(u64, u8, u32, u32, usize, String)> = Vec::new();
        for (seq, s) in self.spans.iter().enumerate() {
            let (pid, tid) = track_ids[s.track.0 as usize];
            let head = format!(
                "\"name\": \"{}\", \"cat\": \"{}\", \"pid\": {pid}, \"tid\": {tid}",
                escape_json(s.name),
                escape_json(s.cat)
            );
            let args = if s.args.is_empty() {
                String::new()
            } else {
                let kv: Vec<String> = s
                    .args
                    .iter()
                    .map(|(k, v)| format!("\"{}\": {v}", escape_json(k)))
                    .collect();
                format!(", \"args\": {{{}}}", kv.join(", "))
            };
            if s.start == s.end {
                events.push((
                    s.start,
                    1,
                    pid,
                    tid,
                    seq,
                    format!(
                        "{{{head}, \"ph\": \"i\", \"ts\": {}, \"s\": \"t\"{args}}}",
                        s.start
                    ),
                ));
            } else {
                events.push((
                    s.start,
                    2,
                    pid,
                    tid,
                    seq,
                    format!("{{{head}, \"ph\": \"B\", \"ts\": {}{args}}}", s.start),
                ));
                events.push((
                    s.end,
                    0,
                    pid,
                    tid,
                    seq,
                    format!("{{{head}, \"ph\": \"E\", \"ts\": {}}}", s.end),
                ));
            }
        }
        events.sort_by(|a, b| {
            a.0.cmp(&b.0)
                .then(a.1.cmp(&b.1))
                .then(a.2.cmp(&b.2))
                .then(a.3.cmp(&b.3))
                .then(a.4.cmp(&b.4))
        });
        for (_, _, _, _, _, text) in events {
            emit(text, &mut out);
        }
        out.push_str("\n], \"displayTimeUnit\": \"ns\", \"otherData\": {\"clock\": \"simulated cycles @ 1.45 GHz (1 us = 1 cycle)\"}}\n");
        out
    }
}

/// Appends the timeline of a functional run, read back from the
/// flight recorder's rings, to `out`: one track per CPE ring (process
/// `"cpe"`, named `"CPE (row,col)"`) plus one for the MPE ring
/// (process `"mpe"`). Each ring's retained events become
///
/// * `DmaIssue`→`DmaComplete`: a `dma` span named by
///   [`flight::dma_op_name`], carrying `bytes`;
/// * `KernelStart`→`KernelEnd`: a `compute` span `"kernel"`;
/// * `BarrierArrive`→`BarrierRelease`: a `sync` span;
/// * `MeshEpisode`: a `mesh` span of `words × MESH_TRANSIT_CYCLES`,
///   the time the `CpeCtx` wrapper charged right after the port
///   recorded it. An episode inside an open kernel (its time is part
///   of the kernel's cycles) or one that failed (the CPE aborted
///   before charging) is an instant;
/// * fault decisions and retry attempts: instants.
///
/// So per CPE of a fault-free run, span time per category equals the
/// ring's busy cycles per [`flight::Lane`] (dma, compute, mesh, and
/// sync ↔ barrier). A close whose open was overwritten by a wrapped
/// ring, or an open the run never closed, is dropped. Returns how many
/// events each ring overwrote (indexed by ring); a trace covers the
/// whole run only when every entry is 0.
pub fn from_flight(rec: &FlightRecorder, out: &mut TraceData) -> Vec<u64> {
    (0..N_RINGS)
        .map(|ring| {
            let track = if ring == MPE_RING {
                out.track("mpe", "MPE")
            } else {
                out.track("cpe", format!("CPE {}", Coord::from_id(ring)))
            };
            let mut dma = None;
            let mut kernel = None;
            let mut barrier = None;
            for e in rec.tail(ring) {
                match e.kind {
                    EventKind::DmaIssue => dma = Some((e.clock, e.arg)),
                    EventKind::DmaComplete => {
                        if let Some((t0, bytes)) = dma.take() {
                            let name = flight::dma_op_name(e.code);
                            out.span_args(track, "dma", name, t0, e.clock, &[("bytes", bytes)]);
                        }
                    }
                    EventKind::KernelStart => kernel = Some((e.clock, e.arg)),
                    EventKind::KernelEnd => {
                        if let Some((t0, ops)) = kernel.take() {
                            out.span_args(track, "compute", "kernel", t0, e.clock, &[("ops", ops)]);
                        }
                    }
                    EventKind::BarrierArrive => barrier = Some(e.clock),
                    EventKind::BarrierRelease => {
                        if let Some(t0) = barrier.take() {
                            let name = if e.code == 0 { "sync_all" } else { "sync_row" };
                            out.span(track, "sync", name, t0, e.clock);
                        }
                    }
                    EventKind::MeshEpisode => {
                        let outcome = e.code >> 8;
                        let charged = kernel.is_none()
                            && (outcome == mesh_outcome::OK || outcome == mesh_outcome::WEDGED);
                        let end = if charged {
                            e.clock + e.arg * MESH_TRANSIT_CYCLES
                        } else {
                            e.clock
                        };
                        let name = match e.code & 3 {
                            0 => "row-bcast",
                            1 => "col-bcast",
                            2 => "row-get",
                            _ => "col-get",
                        };
                        out.span_args(track, "mesh", name, e.clock, end, &[("words", e.arg)]);
                    }
                    EventKind::FaultDecision => {
                        let name = fault_code::name(e.code);
                        out.span_args(track, "fault", name, e.clock, e.clock, &[("site", e.arg)]);
                    }
                    EventKind::RetryAttempt => out.span_args(
                        track,
                        "retry",
                        "retry",
                        e.clock,
                        e.clock,
                        &[("attempt", e.code as u64), ("site", e.arg)],
                    ),
                }
            }
            rec.total(ring).saturating_sub(rec.capacity() as u64)
        })
        .collect()
}

/// Summary returned by a successful [`validate_chrome_trace`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChromeTraceSummary {
    /// Total events, metadata included.
    pub events: usize,
    /// Completed `B`/`E` pairs.
    pub pairs: usize,
}

/// Checks that `json` is structurally valid Chrome trace-event JSON:
/// a `traceEvents` array whose events carry the required keys
/// (`ph`, `pid`, `tid`, and `ts` + `name` on duration events), with
/// `ts` monotonically non-decreasing over the file and every `B`
/// matched by an `E` on the same `(pid, tid)` stack.
///
/// This is a schema check over the exporter's output shape (one event
/// object per `{...}` group), not a general JSON parser.
pub fn validate_chrome_trace(json: &str) -> Result<ChromeTraceSummary, String> {
    let start = json
        .find("\"traceEvents\"")
        .ok_or("missing \"traceEvents\" key")?;
    let open = json[start..].find('[').ok_or("missing traceEvents array")? + start;
    let body = &json[open + 1..];

    let mut events = 0usize;
    let mut pairs = 0usize;
    let mut last_ts: Option<u64> = None;
    // Open-span depth per (pid, tid).
    let mut open_spans: BTreeMap<(u64, u64), usize> = BTreeMap::new();

    let mut rest = body;
    while let Some(obj_start) = rest.find('{') {
        // The array closes before the next object starts.
        if rest[..obj_start].contains(']') {
            break;
        }
        let (obj_end, f) = match scan_event(&rest[obj_start..]) {
            Some((n, f)) => (obj_start + n, f),
            None => return Err("unterminated event object".into()),
        };
        let obj = &rest[obj_start..=obj_end];
        events += 1;

        let ph = f.ph.ok_or_else(|| format!("event missing \"ph\": {obj}"))?;
        let pid = f
            .pid
            .ok_or_else(|| format!("event missing \"pid\": {obj}"))?;
        let tid = f
            .tid
            .ok_or_else(|| format!("event missing \"tid\": {obj}"))?;
        if !f.name {
            return Err(format!("event missing \"name\": {obj}"));
        }
        if ph != "M" {
            let ts = f.ts.ok_or_else(|| format!("event missing \"ts\": {obj}"))?;
            if let Some(prev) = last_ts {
                if ts < prev {
                    return Err(format!("ts went backwards: {prev} -> {ts} at {obj}"));
                }
            }
            last_ts = Some(ts);
            let key = (pid, tid);
            match ph {
                "B" => *open_spans.entry(key).or_insert(0) += 1,
                "E" => {
                    let depth = open_spans
                        .get_mut(&key)
                        .filter(|depth| **depth > 0)
                        .ok_or_else(|| {
                            format!("\"E\" without open \"B\" on pid={pid} tid={tid}")
                        })?;
                    *depth -= 1;
                    pairs += 1;
                }
                "i" | "X" => {}
                other => return Err(format!("unsupported phase {other:?}")),
            }
        }
        rest = &rest[obj_end + 1..];
    }

    if let Some(((pid, tid), depth)) = open_spans.iter().find(|(_, d)| **d > 0) {
        return Err(format!(
            "{depth} unmatched \"B\" event(s) on pid={pid} tid={tid}"
        ));
    }
    Ok(ChromeTraceSummary { events, pairs })
}

/// The top-level fields of one event object that the check reads.
#[derive(Default)]
struct EventFields<'a> {
    /// `ph` as written, escapes left in place.
    ph: Option<&'a str>,
    /// Whether a string `name` is present.
    name: bool,
    pid: Option<u64>,
    tid: Option<u64>,
    ts: Option<u64>,
}

/// Reads the object that starts at `s[0]` (which must be `{`) in one
/// pass, respecting nesting and strings: returns the byte offset of its
/// closing `}` and its top-level fields.
fn scan_event(s: &str) -> Option<(usize, EventFields<'_>)> {
    let bytes = s.as_bytes();
    let mut fields = EventFields::default();
    let mut depth = 0usize;
    // Offset of the opening quote while inside a string.
    let mut string_at: Option<usize> = None;
    let mut escaped = false;
    for (i, &b) in bytes.iter().enumerate() {
        if let Some(open) = string_at {
            match b {
                _ if escaped => escaped = false,
                b'\\' => escaped = true,
                b'"' => {
                    string_at = None;
                    // A top-level string followed by `: ` is a key.
                    if let Some(value) = s[i + 1..].strip_prefix(": ").filter(|_| depth == 1) {
                        match &s[open + 1..i] {
                            "ph" => fields.ph = string_value(value),
                            "name" => fields.name = string_value(value).is_some(),
                            "pid" => fields.pid = number_value(value),
                            "tid" => fields.tid = number_value(value),
                            "ts" => fields.ts = number_value(value),
                            _ => {}
                        }
                    }
                }
                _ => {}
            }
            continue;
        }
        match b {
            b'"' => string_at = Some(i),
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return Some((i, fields));
                }
            }
            _ => {}
        }
    }
    None
}

/// The string at the start of `value`, escapes left in place.
fn string_value(value: &str) -> Option<&str> {
    let body = value.strip_prefix('"')?;
    let bytes = body.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'"' => return Some(&body[..i]),
            b'\\' => i += 2,
            _ => i += 1,
        }
    }
    None
}

/// The unsigned integer at the start of `value`.
fn number_value(value: &str) -> Option<u64> {
    let end = value
        .bytes()
        .position(|b| !b.is_ascii_digit())
        .unwrap_or(value.len());
    value[..end].parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flight::{dma_op_code, mesh_episode_code, Lane};

    #[test]
    fn spans_collect_by_value() {
        let mut t = TraceData::default();
        assert!(t.is_empty());
        let tr = t.track("proc", "track0");
        t.span_args(tr, "dma", "load", 0, 100, &[("bytes", 4096)]);
        t.span(tr, "dma", "store", 100, 150);
        assert_eq!(t.tracks.len(), 1);
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.max_cycle(), 150);
        assert_eq!(t.spans[0].args, vec![("bytes", 4096)]);
    }

    #[test]
    fn chrome_json_is_valid_and_ordered() {
        let mut t = TraceData::default();
        let a = t.track("timing-dag", "DMA");
        let b = t.track("timing-dag", "CPEs");
        let c = t.track("mesh", "row 0");
        // Emit out of order; back-to-back on one track; zero-length.
        t.span(b, "compute", "k0", 100, 400);
        t.span(a, "dma", "load0", 0, 100);
        t.span(a, "dma", "load1", 100, 200);
        t.span(c, "mesh", "bcast", 150, 150);
        let json = t.to_chrome_json();
        let summary = validate_chrome_trace(&json).expect("valid trace");
        // 2 process_name + 3 thread_name + 3 B/E pairs + 1 instant.
        assert_eq!(summary.events, 2 + 3 + 6 + 1);
        assert_eq!(summary.pairs, 3);
        assert!(json.contains("\"process_name\""));
        assert!(json.contains("\"thread_name\""));
        assert!(json.contains("\"ph\": \"i\""));
        // E of load0 at ts=100 must precede B of load1 at ts=100.
        let e = json
            .find("\"name\": \"load0\", \"cat\": \"dma\", \"pid\": 1, \"tid\": 1, \"ph\": \"E\"")
            .unwrap();
        let b1 = json.find("\"name\": \"load1\"").unwrap();
        assert!(e < b1, "close before reopen at a shared boundary");
    }

    #[test]
    fn determinism_same_trace_same_bytes() {
        let build = || {
            let mut t = TraceData::default();
            let a = t.track("p", "t1");
            let b = t.track("q", "t2");
            t.span_args(a, "c", "x", 5, 9, &[("bytes", 1), ("run", 2)]);
            t.span(b, "c", "y", 0, 5);
            t.to_chrome_json()
        };
        assert_eq!(build(), build());
    }

    /// Records what `CpeCtx` does for one DMA, one barrier, one strip
    /// mesh episode and one kernel with a mesh episode inside it.
    fn record_cpe_timeline(f: &FlightRecorder, ring: usize) {
        let code = dma_op_code("pe.get");
        f.record(ring, EventKind::DmaIssue, code, 512);
        let t1 = f.advance(ring, Lane::Dma, 40);
        f.record_at(ring, t1, EventKind::DmaComplete, code, 40);
        f.record(ring, EventKind::BarrierArrive, 0, 0);
        let waited = f.jump_to(ring, Lane::Barrier, 100);
        f.record(ring, EventKind::BarrierRelease, 0, waited);
        f.record(
            ring,
            EventKind::MeshEpisode,
            mesh_episode_code(false, false, 0),
            3,
        );
        f.advance(ring, Lane::Mesh, 3 * MESH_TRANSIT_CYCLES);
        f.record(ring, EventKind::KernelStart, 0, 7);
        f.record(
            ring,
            EventKind::MeshEpisode,
            mesh_episode_code(true, true, 0),
            2,
        );
        let t1 = f.advance(ring, Lane::Compute, 55);
        f.record_at(ring, t1, EventKind::KernelEnd, 0, 55);
    }

    #[test]
    fn flight_rings_become_tracks_whose_spans_sum_to_the_lanes() {
        let f = FlightRecorder::with_capacity(16);
        record_cpe_timeline(&f, 9);
        f.record(
            MPE_RING,
            EventKind::FaultDecision,
            fault_code::ABFT_DETECT,
            2,
        );
        let mut t = TraceData::default();
        let overwritten = from_flight(&f, &mut t);
        assert_eq!(overwritten, vec![0; N_RINGS]);
        assert_eq!(t.tracks.len(), N_RINGS);
        assert_eq!(t.tracks[9].name, "CPE (1,1)");
        assert_eq!(t.tracks[MPE_RING].process, "mpe");
        let busy = f.ring_attribution(9).busy;
        for (cat, lane) in [
            ("dma", Lane::Dma),
            ("sync", Lane::Barrier),
            ("mesh", Lane::Mesh),
            ("compute", Lane::Compute),
        ] {
            let cycles: u64 = t
                .spans
                .iter()
                .filter(|s| s.cat == cat)
                .map(|s| s.end - s.start)
                .sum();
            assert_eq!(cycles, busy[lane as usize], "{cat}");
        }
        assert_eq!(t.spans[0].args, vec![("bytes", 512)]);
        // The episode inside the kernel is an instant at kernel start.
        let inner = t.spans.iter().find(|s| s.name == "col-get").unwrap();
        assert_eq!((inner.start, inner.end), (130, 130));
        let json = t.to_chrome_json();
        validate_chrome_trace(&json).expect("flight trace validates");
    }

    #[test]
    fn wrapped_rings_drop_unpaired_events_and_report_overwrites() {
        let f = FlightRecorder::with_capacity(2);
        record_cpe_timeline(&f, 0);
        let mut t = TraceData::default();
        let overwritten = from_flight(&f, &mut t);
        // 8 events into 2 slots: the kernel's episode and its end stay,
        // and the end, whose start was overwritten, is dropped.
        assert_eq!(overwritten[0], 6);
        assert!(overwritten[1..].iter().all(|&n| n == 0));
        let cats: Vec<&str> = t.spans.iter().map(|s| s.cat).collect();
        assert_eq!(cats, ["mesh"]);
        validate_chrome_trace(&t.to_chrome_json()).expect("valid");
    }

    #[test]
    fn validator_rejects_backwards_ts() {
        let bad = r#"{"traceEvents": [
  {"name": "a", "cat": "c", "pid": 1, "tid": 1, "ph": "B", "ts": 10},
  {"name": "a", "cat": "c", "pid": 1, "tid": 1, "ph": "E", "ts": 5}
]}"#;
        assert!(validate_chrome_trace(bad)
            .unwrap_err()
            .contains("backwards"));
    }

    #[test]
    fn validator_rejects_unmatched_b() {
        let bad = r#"{"traceEvents": [
  {"name": "a", "cat": "c", "pid": 1, "tid": 1, "ph": "B", "ts": 10}
]}"#;
        assert!(validate_chrome_trace(bad)
            .unwrap_err()
            .contains("unmatched"));
    }

    #[test]
    fn validator_rejects_missing_keys() {
        let bad = r#"{"traceEvents": [
  {"name": "a", "cat": "c", "pid": 1, "ph": "B", "ts": 10}
]}"#;
        assert!(validate_chrome_trace(bad).unwrap_err().contains("tid"));
    }
}
