//! Failure diagnostics bundles: the post-mortem side of the flight
//! recorder.
//!
//! When a run dies with a structured [`DgemmError`] — a mesh deadlock,
//! an uncorrected ABFT mismatch, a spent retry budget, a lint denial —
//! the runner serializes everything the black box knows into **one
//! JSON file**: the per-CPE ring tails, the per-CPE busy-cycle
//! attribution, the fault-injection tallies, the global metrics
//! snapshot, the plan's critical path, and a suspected *first-cause*
//! event (the earliest fault decision, retry, or failed mesh episode
//! across all rings, in the globally-comparable simulated clock). The
//! `sw-diagnose` binary — or [`render_bundle_str`] directly — turns the
//! bundle back into a human incident report.
//!
//! Bundles are best-effort: emission failures never mask the run's own
//! error. The directory is `$SW_DIAG_DIR`, defaulting to
//! `diagnostics/` under the current directory (gitignored).

use crate::error::DgemmError;
use crate::plan::GemmPlan;
use crate::variants::Variant;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use sw_faults::FaultStats;
use sw_probe::flight::{self, EventKind, FlightRecorder, Lane};
use sw_probe::json::{self, Value};
use sw_probe::metrics::Registry;
use sw_sim::CoreGroup;

/// Schema tag written into every bundle; bump on breaking changes.
pub const BUNDLE_SCHEMA: &str = "sw-dgemm-diagnostics/1";

/// Environment variable overriding the bundle directory.
pub const DIAG_DIR_ENV: &str = "SW_DIAG_DIR";

/// Everything the dispatch path learned before it failed, handed to
/// the bundle writer alongside the error itself.
#[derive(Debug, Default)]
pub(crate) struct DiagInfo {
    /// Fault tallies, when an injector was installed.
    pub faults: Option<FaultStats>,
    /// The validated plan, once dispatch got that far.
    pub plan: Option<GemmPlan>,
    /// Caller-supplied discriminator (a request id in `sw-serve`),
    /// folded into the bundle filename so concurrent failures from
    /// different requests can never collide or be misattributed.
    pub tag: Option<String>,
}

/// Events of the last recorded tail serialized per ring; bounds the
/// bundle size to a few hundred KB at worst.
const TAIL_EVENTS: usize = 64;

/// Monotonic per-process bundle sequence: two failures in the same
/// millisecond (or the same request retried) still get distinct names.
static BUNDLE_SEQ: AtomicU64 = AtomicU64::new(0);

/// Per-process emission cap; once reached, further bundles are counted
/// as dropped instead of written (a failing service must not fill the
/// disk with thousands of near-identical bundles).
static BUNDLE_CAP: AtomicU64 = AtomicU64::new(DEFAULT_BUNDLE_CAP);

/// Bundles suppressed by the cap since process start.
static BUNDLES_DROPPED: AtomicU64 = AtomicU64::new(0);

/// Default per-process bundle cap (see [`set_bundle_cap`]).
pub const DEFAULT_BUNDLE_CAP: u64 = 256;

/// Overrides the per-process bundle cap. Services that expect fault
/// storms lower this; `u64::MAX` disables the cap.
pub fn set_bundle_cap(cap: u64) {
    BUNDLE_CAP.store(cap, Ordering::Relaxed);
}

/// How many bundles the cap has suppressed since process start.
pub fn bundles_dropped() -> u64 {
    BUNDLES_DROPPED.load(Ordering::Relaxed)
}

/// Whether the `seq`-th bundle (0-based) is admitted under `cap`.
fn admit(seq: u64, cap: u64) -> bool {
    seq < cap
}

/// Builds the collision-proof bundle filename: error class, wall-clock
/// stamp, pid, monotonic sequence, and (when present) the caller's
/// request discriminator. Uniqueness within a process is carried by
/// `seq` alone; pid + stamp keep names unique across processes sharing
/// one `$SW_DIAG_DIR`.
fn bundle_name(err: &DgemmError, stamp: u128, seq: u64, tag: Option<&str>) -> String {
    let base = format!(
        "diag-{}-{}-{}-{}",
        error_kind(err),
        stamp,
        std::process::id(),
        seq
    );
    match tag {
        Some(tag) => format!("{base}-{}.json", sanitize_tag(tag)),
        None => format!("{base}.json"),
    }
}

/// Filename-safe projection of a caller tag (alnum, `-`, `_` kept,
/// everything else mapped to `_`, capped at 48 chars).
fn sanitize_tag(tag: &str) -> String {
    tag.chars()
        .take(48)
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Emits a diagnostics bundle for a failed run, best-effort. Returns
/// the bundle path, or `None` when the error class carries no runtime
/// evidence (bad dims/params never started a run; a cancel is a policy
/// outcome, not an incident), the per-process cap is spent, or the
/// write failed.
pub(crate) fn emit_on_error(
    cg: &CoreGroup,
    err: &DgemmError,
    variant: Variant,
    dims: (usize, usize, usize),
    info: &DiagInfo,
) -> Option<PathBuf> {
    if matches!(
        err,
        DgemmError::BadDims(_) | DgemmError::BadParams(_) | DgemmError::Cancelled { .. }
    ) {
        return None;
    }
    let seq = BUNDLE_SEQ.fetch_add(1, Ordering::Relaxed);
    if !admit(seq, BUNDLE_CAP.load(Ordering::Relaxed)) {
        BUNDLES_DROPPED.fetch_add(1, Ordering::Relaxed);
        sw_probe::metrics::global()
            .counter("diag.bundles.dropped")
            .inc();
        return None;
    }
    let body = render_bundle_json(cg.flight(), err, variant, dims, info);
    let dir = std::env::var_os(DIAG_DIR_ENV)
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("diagnostics"));
    std::fs::create_dir_all(&dir).ok()?;
    let stamp = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis())
        .unwrap_or(0);
    let path = dir.join(bundle_name(err, stamp, seq, info.tag.as_deref()));
    std::fs::write(&path, body).ok()?;
    Some(path)
}

/// The short machine-readable class of a [`DgemmError`].
fn error_kind(err: &DgemmError) -> &'static str {
    match err {
        DgemmError::BadParams(_) => "bad-params",
        DgemmError::BadDims(_) => "bad-dims",
        DgemmError::Mem(_) => "mem",
        DgemmError::MeshDeadlock { .. } => "mesh-deadlock",
        DgemmError::AbftMismatch { .. } => "abft-mismatch",
        DgemmError::Cancelled { .. } => "cancelled",
    }
}

/// Human label for an event's `code`, dependent on the kind.
fn code_label(kind: EventKind, code: u32) -> String {
    match kind {
        EventKind::DmaIssue | EventKind::DmaComplete => flight::dma_op_name(code).to_string(),
        EventKind::MeshEpisode => flight::mesh_episode_name(code),
        EventKind::FaultDecision => flight::fault_code::name(code).to_string(),
        EventKind::BarrierArrive | EventKind::BarrierRelease => match code {
            0 => "all".to_string(),
            1 => "row".to_string(),
            s => format!("scope-{s}"),
        },
        EventKind::RetryAttempt => format!("attempt-{code}"),
        EventKind::KernelStart | EventKind::KernelEnd => String::new(),
    }
}

/// Cause rank of an event for the first-cause scan, `None` for pure
/// symptoms. Injected fault decisions are root causes by construction
/// and outrank everything; retries outrank failed mesh episodes,
/// because a starved/deadlocked episode is stamped at its *victim's*
/// frozen clock, which can precede the perpetrator's clock even though
/// the injected fault is causally first.
fn cause_rank(ev: &flight::FlightEvent) -> Option<u8> {
    match ev.kind {
        EventKind::FaultDecision => Some(0),
        EventKind::RetryAttempt => Some(1),
        EventKind::MeshEpisode if (ev.code >> 8) != flight::mesh_outcome::OK => Some(2),
        _ => None,
    }
}

/// Serializes the full bundle to a JSON string. Exposed for tests; the
/// runner calls it through [`emit_on_error`].
pub(crate) fn render_bundle_json(
    recorder: &FlightRecorder,
    err: &DgemmError,
    variant: Variant,
    dims: (usize, usize, usize),
    info: &DiagInfo,
) -> String {
    let (m, n, k) = dims;
    let mut out = String::with_capacity(64 * 1024);
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema\": \"{}\",", json::escape(BUNDLE_SCHEMA));

    // --- error ------------------------------------------------------
    let _ = write!(
        out,
        "  \"error\": {{\"kind\": \"{}\", \"message\": \"{}\"",
        error_kind(err),
        json::escape(&err.to_string())
    );
    match err {
        DgemmError::MeshDeadlock { coord, summary } => {
            let _ = write!(
                out,
                ", \"coord\": [{}, {}], \"rendezvous_summary\": \"{}\"",
                coord.0,
                coord.1,
                json::escape(summary)
            );
        }
        DgemmError::AbftMismatch {
            block,
            attempts,
            detail,
        } => {
            let _ = write!(
                out,
                ", \"block\": [{}, {}, {}], \"attempts\": {attempts}, \"detail\": \"{}\"",
                block.0,
                block.1,
                block.2,
                json::escape(detail)
            );
        }
        _ => {}
    }
    out.push_str("},\n");

    // --- run --------------------------------------------------------
    let _ = writeln!(
        out,
        "  \"run\": {{\"variant\": \"{}\", \"m\": {m}, \"n\": {n}, \"k\": {k}}},",
        variant.name()
    );

    // --- per-CPE attribution (clock == Σ busy by recorder invariant) -
    out.push_str("  \"attribution\": [\n");
    let attrs = recorder.attribution();
    for (idx, a) in attrs.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"cpe\": {}, \"clock\": {}, \"compute\": {}, \"dma\": {}, \"mesh\": {}, \
             \"barrier\": {}}}",
            a.ring,
            a.clock,
            a.busy[Lane::Compute as usize],
            a.busy[Lane::Dma as usize],
            a.busy[Lane::Mesh as usize],
            a.busy[Lane::Barrier as usize],
        );
        out.push_str(if idx + 1 < attrs.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ],\n");

    // --- ring tails + first-cause scan ------------------------------
    let mut first_cause: Option<(u8, usize, flight::FlightEvent)> = None;
    out.push_str("  \"rings\": [\n");
    let mut first_ring = true;
    for ring in 0..flight::N_RINGS {
        let total = recorder.total(ring);
        if total == 0 {
            continue;
        }
        let tail = recorder.tail(ring);
        let tail = &tail[tail.len().saturating_sub(TAIL_EVENTS)..];
        for ev in recorder.tail(ring) {
            if let Some(rank) = cause_rank(&ev) {
                if first_cause
                    .as_ref()
                    .is_none_or(|(fr, r, f)| (rank, ev.clock, ring) < (*fr, f.clock, *r))
                {
                    first_cause = Some((rank, ring, ev));
                }
            }
        }
        if !first_ring {
            out.push_str(",\n");
        }
        first_ring = false;
        let ring_name = if ring == flight::MPE_RING {
            "mpe".to_string()
        } else {
            format!("cpe-{ring}")
        };
        let _ = write!(
            out,
            "    {{\"ring\": {ring}, \"name\": \"{ring_name}\", \"total_events\": {total}, \
             \"events\": ["
        );
        for (i, ev) in tail.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "{{\"seq\": {}, \"clock\": {}, \"kind\": \"{}\", \"code\": {}, \"label\": \
                 \"{}\", \"arg\": {}}}",
                ev.seq,
                ev.clock,
                ev.kind.name(),
                ev.code,
                json::escape(&code_label(ev.kind, ev.code)),
                ev.arg
            );
        }
        out.push_str("]}");
    }
    out.push_str("\n  ],\n");

    // --- suspected first cause --------------------------------------
    match &first_cause {
        Some((_, ring, ev)) => {
            let _ = writeln!(
                out,
                "  \"first_cause\": {{\"ring\": {ring}, \"seq\": {}, \"clock\": {}, \"kind\": \
                 \"{}\", \"label\": \"{}\", \"arg\": {}}},",
                ev.seq,
                ev.clock,
                ev.kind.name(),
                json::escape(&code_label(ev.kind, ev.code)),
                ev.arg
            );
        }
        None => out.push_str("  \"first_cause\": null,\n"),
    }

    // --- plan critical path (the timing model's view of this run) ---
    match critical_path_value(variant, dims, info) {
        Some(cp) => {
            let _ = writeln!(out, "  \"critical_path\": {cp},");
        }
        None => out.push_str("  \"critical_path\": null,\n"),
    }

    // --- fault tallies ----------------------------------------------
    match &info.faults {
        Some(fs) => {
            // FaultStats has no serializer of its own; publish into a
            // throwaway registry and reuse the snapshot's JSON.
            let reg = Registry::new();
            fs.publish(&reg);
            let _ = writeln!(out, "  \"fault_stats\": {},", reg.snapshot().to_json());
        }
        None => out.push_str("  \"fault_stats\": null,\n"),
    }

    // --- global metrics snapshot ------------------------------------
    let _ = writeln!(
        out,
        "  \"metrics\": {}",
        sw_probe::metrics::global().snapshot().to_json()
    );
    out.push_str("}\n");
    out
}

/// The plan's critical path, rendered as a JSON object — top segments
/// of the timing DAG the run *would* follow. `None` for RAW (no shared
/// DAG) or when no plan was validated before the failure.
fn critical_path_value(
    variant: Variant,
    dims: (usize, usize, usize),
    info: &DiagInfo,
) -> Option<String> {
    let plan = info.plan.as_ref()?;
    if variant == Variant::Raw {
        return None;
    }
    let (m, n, k) = dims;
    let model = sw_mem::dma::BandwidthModel::calibrated();
    let (dag, _) = crate::timing::build_shared_dag(variant, m, n, k, plan.params, &model).ok()?;
    let cp = dag.critical_path();
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"makespan_cycles\": {}, \"segments\": [",
        cp.makespan_cycles
    );
    for (i, (label, resource, cycles, count)) in cp.top_segments(3).iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(
            s,
            "{{\"label\": \"{}\", \"resource\": \"{resource:?}\", \"cycles\": {cycles}, \
             \"count\": {count}, \"pct\": {:.2}}}",
            json::escape(label),
            if cp.makespan_cycles == 0 {
                0.0
            } else {
                100.0 * *cycles as f64 / cp.makespan_cycles as f64
            }
        );
    }
    s.push_str("]}");
    Some(s)
}

// ---------------------------------------------------------------------
// Rendering (the sw-diagnose side)
// ---------------------------------------------------------------------

/// Renders a serialized bundle as a human incident report: the error,
/// the suspected first cause, the busy-cycle attribution table, the
/// timeline tail of the most interesting rings, and the plan's
/// critical-path top segments.
pub fn render_bundle_str(src: &str) -> Result<String, String> {
    let v = Value::parse(src).map_err(|e| format!("bundle is not valid JSON: {e}"))?;
    let obj = v.as_obj().ok_or("bundle root is not an object")?;
    let schema = obj
        .get("schema")
        .and_then(Value::as_str)
        .ok_or("bundle has no schema tag")?;
    if schema != BUNDLE_SCHEMA {
        return Err(format!(
            "unsupported bundle schema {schema:?} (expected {BUNDLE_SCHEMA:?})"
        ));
    }
    let mut out = String::new();
    out.push_str("== sw-dgemm incident report ==\n");

    if let Some(run) = obj.get("run").and_then(Value::as_obj) {
        let g = |k: &str| run.get(k).and_then(Value::as_u64).unwrap_or(0);
        let _ = writeln!(
            out,
            "run        : {} {}x{}x{}",
            run.get("variant").and_then(Value::as_str).unwrap_or("?"),
            g("m"),
            g("n"),
            g("k")
        );
    }
    let err = obj.get("error").and_then(Value::as_obj).ok_or("no error")?;
    let _ = writeln!(
        out,
        "error      : [{}] {}",
        err.get("kind").and_then(Value::as_str).unwrap_or("?"),
        err.get("message")
            .and_then(Value::as_str)
            .unwrap_or("?")
            .lines()
            .next()
            .unwrap_or("")
    );
    match obj.get("first_cause") {
        Some(Value::Obj(fc)) => {
            let ring = fc.get("ring").and_then(Value::as_u64).unwrap_or(0);
            let who = if ring == flight::MPE_RING as u64 {
                "mpe".to_string()
            } else {
                format!("cpe-{ring}")
            };
            let _ = writeln!(
                out,
                "first cause: {} {} on {who} at clock {} (seq {}, arg {})",
                fc.get("kind").and_then(Value::as_str).unwrap_or("?"),
                fc.get("label").and_then(Value::as_str).unwrap_or(""),
                fc.get("clock").and_then(Value::as_u64).unwrap_or(0),
                fc.get("seq").and_then(Value::as_u64).unwrap_or(0),
                fc.get("arg").and_then(Value::as_u64).unwrap_or(0),
            );
        }
        _ => out.push_str("first cause: none recorded\n"),
    }

    // Attribution table: the rings that spent the most cycles.
    if let Some(attr) = obj.get("attribution").and_then(Value::as_arr) {
        let mut rows: Vec<(u64, u64, u64, u64, u64, u64)> = attr
            .iter()
            .filter_map(|a| {
                let o = a.as_obj()?;
                let g = |k: &str| o.get(k).and_then(Value::as_u64).unwrap_or(0);
                Some((
                    g("cpe"),
                    g("clock"),
                    g("compute"),
                    g("dma"),
                    g("mesh"),
                    g("barrier"),
                ))
            })
            .filter(|r| r.1 > 0)
            .collect();
        rows.sort_by_key(|r| std::cmp::Reverse(r.1));
        if !rows.is_empty() {
            out.push_str("\nattribution (busiest CPEs, cycles):\n");
            out.push_str("  cpe   clock      compute    dma        mesh       barrier\n");
            for (cpe, clock, compute, dma, mesh, barrier) in rows.iter().take(8) {
                let _ = writeln!(
                    out,
                    "  {cpe:<5} {clock:<10} {compute:<10} {dma:<10} {mesh:<10} {barrier}"
                );
            }
        }
    }

    if let Some(Value::Obj(cp)) = obj.get("critical_path") {
        let total = cp
            .get("makespan_cycles")
            .and_then(Value::as_u64)
            .unwrap_or(0);
        let _ = writeln!(out, "\nplanned critical path ({total} cycles makespan):");
        if let Some(segs) = cp.get("segments").and_then(Value::as_arr) {
            for s in segs {
                let Some(o) = s.as_obj() else { continue };
                let _ = writeln!(
                    out,
                    "  {:<24} {:<5} {:>12} cycles  {:>6.2}%  ({} segs)",
                    o.get("label").and_then(Value::as_str).unwrap_or("?"),
                    o.get("resource").and_then(Value::as_str).unwrap_or("?"),
                    o.get("cycles").and_then(Value::as_u64).unwrap_or(0),
                    o.get("pct").and_then(Value::as_f64).unwrap_or(0.0),
                    o.get("count").and_then(Value::as_u64).unwrap_or(0),
                );
            }
        }
    }

    if let Some(Value::Obj(fs)) = obj.get("fault_stats") {
        out.push_str("\nfault tallies (nonzero):\n");
        let mut any = false;
        for (name, val) in fs {
            if let Some(n) = val.as_u64() {
                if n > 0 {
                    let _ = writeln!(out, "  {name:<32} {n}");
                    any = true;
                }
            }
        }
        if !any {
            out.push_str("  (all zero)\n");
        }
    }

    // Timeline tails: rings holding cause events first, then the
    // busiest, capped to keep the report readable.
    if let Some(rings) = obj.get("rings").and_then(Value::as_arr) {
        let mut ordered: Vec<&Value> = rings.iter().collect();
        ordered.sort_by_key(|r| {
            let o = r.as_obj();
            let causes = o
                .and_then(|o| o.get("events"))
                .and_then(Value::as_arr)
                .map(|evs| {
                    evs.iter()
                        .filter(|e| {
                            matches!(
                                e.as_obj()
                                    .and_then(|o| o.get("kind"))
                                    .and_then(Value::as_str),
                                Some("fault-decision") | Some("retry-attempt")
                            )
                        })
                        .count()
                })
                .unwrap_or(0);
            let total = o
                .and_then(|o| o.get("total_events"))
                .and_then(Value::as_u64)
                .unwrap_or(0);
            (std::cmp::Reverse(causes), std::cmp::Reverse(total))
        });
        out.push_str("\ntimeline tails:\n");
        for r in ordered.iter().take(4) {
            let Some(o) = r.as_obj() else { continue };
            let name = o.get("name").and_then(Value::as_str).unwrap_or("?");
            let total = o.get("total_events").and_then(Value::as_u64).unwrap_or(0);
            let _ = writeln!(out, "  {name} ({total} events total):");
            if let Some(evs) = o.get("events").and_then(Value::as_arr) {
                let tail = &evs[evs.len().saturating_sub(8)..];
                for e in tail {
                    let Some(eo) = e.as_obj() else { continue };
                    let g = |k: &str| eo.get(k).and_then(Value::as_u64).unwrap_or(0);
                    let _ = writeln!(
                        out,
                        "    @{:<10} {:<16} {:<20} arg={}",
                        g("clock"),
                        eo.get("kind").and_then(Value::as_str).unwrap_or("?"),
                        eo.get("label").and_then(Value::as_str).unwrap_or(""),
                        g("arg"),
                    );
                }
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bundle_for_synthetic_error_round_trips() {
        let rec = FlightRecorder::new();
        rec.advance(3, Lane::Dma, 120);
        rec.record(
            3,
            EventKind::FaultDecision,
            flight::fault_code::DMA_TRANSIENT,
            7,
        );
        rec.advance(3, Lane::Compute, 80);
        let err = DgemmError::BadParams("tail: denied".to_string());
        let info = DiagInfo::default();
        let body = render_bundle_json(&rec, &err, Variant::Sched, (256, 256, 256), &info);
        let v = Value::parse(&body).expect("bundle is valid JSON");
        let obj = v.as_obj().unwrap();
        assert_eq!(
            obj.get("schema").and_then(Value::as_str),
            Some(BUNDLE_SCHEMA)
        );
        let fc = obj.get("first_cause").unwrap().as_obj().unwrap();
        assert_eq!(fc.get("ring").and_then(Value::as_u64), Some(3));
        assert_eq!(fc.get("clock").and_then(Value::as_u64), Some(120));
        let report = render_bundle_str(&body).expect("renders");
        assert!(report.contains("incident report"));
        assert!(report.contains("fault-decision"));
        assert!(report.contains("SCHED"));
    }

    #[test]
    fn renderer_rejects_garbage_and_wrong_schema() {
        assert!(render_bundle_str("not json").is_err());
        assert!(render_bundle_str("{\"schema\": \"other/9\"}").is_err());
    }

    #[test]
    fn bundle_names_are_collision_proof_and_tagged() {
        let err = DgemmError::BadDims("x".into());
        // Same wall-clock stamp, same error class: the monotonic
        // sequence alone must keep the names distinct.
        let a = bundle_name(&err, 1234, 7, None);
        let b = bundle_name(&err, 1234, 8, None);
        assert_ne!(a, b);
        assert!(a.starts_with("diag-bad-dims-1234-") && a.ends_with("-7.json"));
        // The request discriminator lands in the name, sanitized.
        let t = bundle_name(&err, 1234, 9, Some("req 42/tenant:a"));
        assert!(t.ends_with("-9-req_42_tenant_a.json"), "got {t}");
        // Pathological tags are length-capped and filename-safe.
        let long = "x".repeat(300) + "/../../etc";
        let c = bundle_name(&err, 1234, 10, Some(&long));
        assert!(c.len() < 100);
        assert!(!c.contains('/'));
    }

    #[test]
    fn cap_admits_below_and_drops_at_limit() {
        assert!(admit(0, 1));
        assert!(!admit(1, 1));
        assert!(admit(255, DEFAULT_BUNDLE_CAP));
        assert!(!admit(DEFAULT_BUNDLE_CAP, DEFAULT_BUNDLE_CAP));
        assert!(admit(u64::MAX - 1, u64::MAX));
    }

    #[test]
    fn cancelled_runs_never_emit_bundles() {
        // Policy outcomes carry no incident evidence; the skip happens
        // before the sequence is consumed or any file is touched.
        let cg = CoreGroup::new();
        let before = BUNDLE_SEQ.load(Ordering::Relaxed);
        let out = emit_on_error(
            &cg,
            &DgemmError::Cancelled { deadline: true },
            Variant::Sched,
            (128, 64, 128),
            &DiagInfo::default(),
        );
        assert!(out.is_none());
        assert_eq!(BUNDLE_SEQ.load(Ordering::Relaxed), before);
    }
}
