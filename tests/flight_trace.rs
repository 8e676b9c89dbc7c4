//! The functional-run trace comes from the flight recorder alone: a
//! core group whose recorder holds the whole run reads back as a valid
//! Chrome trace with one track per CPE, whose `dma` spans carry every
//! byte the run's statistics counted, and whose span time per category
//! equals each CPE's busy ledger per lane.

use sw_dgemm::gen::random_matrix;
use sw_dgemm::{AbftPolicy, BlockingParams, DgemmReport, DgemmRunner, FaultSpec, Variant};
use sw_probe::flight::{FlightRecorder, Lane, MPE_RING, N_LANES};
use sw_probe::trace::{from_flight, validate_chrome_trace, TraceData};
use sw_sim::CoreGroup;

/// Events each ring keeps: room for the faulted SCHED run below, whose
/// ABFT recomputes rerun blocks; `traced_run` asserts nothing wrapped.
const CAPACITY: usize = 8192;

/// Runs `runner` over a 1×1×2 grid of test-size CG blocks on a core
/// group whose recorder keeps the whole run, and reads the trace back.
fn traced_run(runner: DgemmRunner) -> (DgemmReport, CoreGroup, TraceData) {
    let p = BlockingParams::test_small();
    let (m, n, k) = (p.bm(), p.bn(), 2 * p.bk());
    let a = random_matrix(m, k, 11);
    let b = random_matrix(k, n, 12);
    let mut c = random_matrix(m, n, 13);
    let mut cg = CoreGroup::new();
    cg.set_flight_capacity(CAPACITY);
    let report = runner
        .params(p)
        .run_on(&mut cg, 1.5, &a, &b, 0.5, &mut c)
        .expect("run");
    let mut trace = TraceData::default();
    let overwritten = from_flight(cg.flight(), &mut trace);
    assert_eq!(overwritten, vec![0; overwritten.len()], "a ring wrapped");
    (report, cg, trace)
}

/// Validates the export and counts the CPE tracks.
fn check_shape(trace: &TraceData) {
    let summary = validate_chrome_trace(&trace.to_chrome_json()).expect("valid Chrome trace");
    assert!(summary.pairs > 0);
    let cpe_tracks = trace.tracks.iter().filter(|t| t.process == "cpe").count();
    assert_eq!(cpe_tracks, 64);
}

/// Span cycles per lane on each track: `dma`, `compute` and `mesh`
/// spans on their lanes, `sync` spans on the barrier lane.
fn span_cycles(trace: &TraceData) -> Vec<[u64; N_LANES]> {
    let mut out = vec![[0; N_LANES]; trace.tracks.len()];
    for s in &trace.spans {
        let lane = match s.cat {
            "dma" => Lane::Dma,
            "compute" => Lane::Compute,
            "mesh" => Lane::Mesh,
            "sync" => Lane::Barrier,
            _ => continue,
        };
        out[s.track.index()][lane as usize] += s.end - s.start;
    }
    out
}

/// Per CPE, span time per lane equals the ring's busy cycles, and
/// these sum to its clock.
fn assert_lanes(rec: &FlightRecorder, trace: &TraceData) {
    let first = trace
        .tracks
        .iter()
        .position(|t| t.process == "cpe")
        .unwrap();
    let spans = span_cycles(trace);
    for ring in 0..MPE_RING {
        let a = rec.ring_attribution(ring);
        let got = spans[first + ring];
        assert_eq!(got, a.busy, "ring {ring}: span cycles per lane");
        assert_eq!(got.iter().sum::<u64>(), a.clock, "ring {ring}");
    }
}

#[test]
fn clean_runs_trace_every_byte_and_every_lane_cycle() {
    for v in [Variant::Pe, Variant::Row, Variant::Db, Variant::Sched] {
        let (report, cg, trace) = traced_run(DgemmRunner::new(v));
        check_shape(&trace);
        let bytes: u64 = trace
            .spans
            .iter()
            .filter(|s| s.cat == "dma")
            .map(|s| s.args.iter().find(|(k, _)| *k == "bytes").unwrap().1)
            .sum();
        assert_eq!(bytes, report.stats.dma.total_bytes(), "{v}");
        assert_lanes(cg.flight(), &trace);
    }
}

#[test]
fn healed_faulted_run_yields_a_valid_trace() {
    let spec = FaultSpec {
        bitflip_every_epoch: true,
        dma_transient_per_myriad: 100,
        ..FaultSpec::seeded(0xFA57)
    };
    let runner = DgemmRunner::new(Variant::Sched)
        .faults(spec)
        .abft(AbftPolicy::Correct);
    let (report, cg, trace) = traced_run(runner);
    assert!(report.faults.unwrap().total_injected() > 0, "vacuous");
    check_shape(&trace);
    assert!(trace.spans.iter().any(|s| s.cat == "fault"));
    assert!(trace.spans.iter().any(|s| s.cat == "retry"));
    assert!(trace.spans.iter().any(|s| s.name == "backoff"));
    assert_lanes(cg.flight(), &trace);
}
