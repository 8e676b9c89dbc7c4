//! The mesh path against independent oracles: C is bitwise equal to
//! the chunked-FMA host reference, every broadcast copy is consumed
//! (the rendezvous balances), the bulk broadcasts drop exactly the
//! words the fault injector's decision function picks, and faulted runs
//! replay identically under the same seed — same C, same `FaultStats`,
//! same mesh counters, same `faults.*` deltas. The per-variant word
//! counts are checked against `sw-lint`'s static counts in
//! `sw_dgemm::lint`'s `static_comm_counts_match_dynamic_mesh_traffic`.

use std::sync::{Mutex, MutexGuard};
use std::time::Duration;
use sw_arch::{Coord, V256};
use sw_dgemm::gen::random_matrix;
use sw_dgemm::reference::dgemm_chunked_fma;
use sw_dgemm::{
    AbftPolicy, BlockingParams, DgemmError, DgemmReport, DgemmRunner, FaultSpec, Matrix, Variant,
    WedgeSpec,
};
use sw_faults::FaultInjector;
use sw_mesh::{Mesh, HOST_BUFFER_DEPTH};
use sw_probe::metrics::MetricValue;

/// Serializes the tests that install a `FaultSpec`. The fault-delta
/// assertions read process-global `faults.*` counters, which a sibling
/// test injecting faults at the same time would move.
static FAULTS: Mutex<()> = Mutex::new(());

fn faults_lock() -> MutexGuard<'static, ()> {
    // A failed sibling must not cascade: the guarded data is `()`.
    FAULTS.lock().unwrap_or_else(|e| e.into_inner())
}

const ALPHA: f64 = 1.5;
const BETA: f64 = 0.5;

fn operands(
    p: &BlockingParams,
    blocks: (usize, usize, usize),
    seed: u64,
) -> (Matrix, Matrix, Matrix) {
    let (m, n, k) = (p.bm() * blocks.0, p.bn() * blocks.1, p.bk() * blocks.2);
    (
        random_matrix(m, k, seed),
        random_matrix(k, n, seed + 1),
        random_matrix(m, n, seed + 2),
    )
}

/// `C = α·A·B + β·C` by the host reference that accumulates in chunks
/// of `pk`, the order the strip steps accumulate in.
fn reference(p: &BlockingParams, a: &Matrix, b: &Matrix, c0: &Matrix) -> Matrix {
    let mut c = c0.clone();
    dgemm_chunked_fma(ALPHA, a, b, BETA, &mut c, p.pk);
    c
}

fn run(
    v: Variant,
    p: BlockingParams,
    a: &Matrix,
    b: &Matrix,
    c0: &Matrix,
    faults: Option<(FaultSpec, AbftPolicy)>,
) -> (Matrix, Result<DgemmReport, DgemmError>) {
    let mut c = c0.clone();
    let mut runner = DgemmRunner::new(v).params(p);
    if let Some((spec, abft)) = faults {
        runner = runner
            .faults(spec)
            .abft(abft)
            .mesh_timeout(Duration::from_millis(200));
    }
    let report = runner.run(ALPHA, a, b, BETA, &mut c);
    (c, report)
}

/// Clean runs of every data-sharing variant over a 2×1×2 grid of CG
/// blocks: C is bitwise the chunked reference, and every word copy a
/// broadcast enqueued was received.
#[test]
fn clean_runs_match_chunked_reference_and_balance() {
    let p = BlockingParams::test_small();
    let (a, b, c0) = operands(&p, (2, 1, 2), 41);
    let expect = reference(&p, &a, &b, &c0);
    for v in [Variant::Pe, Variant::Row, Variant::Db, Variant::Sched] {
        let (c, r) = run(v, p, &a, &b, &c0, None);
        let mesh = r.unwrap_or_else(|e| panic!("{v} failed: {e}")).stats.mesh;
        assert_eq!(c, expect, "{v}: C differs from the chunked reference");
        assert!(mesh.row_words_sent > 0 && mesh.col_words_sent > 0, "{v}");
        assert_eq!(mesh.row_words_sent, mesh.row_words_received, "{v}: row");
        assert_eq!(mesh.col_words_sent, mesh.col_words_received, "{v}: col");
    }
}

/// At the paper's blocking a strip step's A and B windows (4·pK = 384
/// words) fit the host rings, so a clean run computes on every
/// received word where it sits and gathers none.
#[test]
fn clean_paper_blocking_run_gathers_no_words() {
    let p = Variant::Sched.paper_params();
    assert!(4 * p.pk <= HOST_BUFFER_DEPTH);
    let (a, b, c0) = operands(&p, (1, 1, 1), 61);
    let (c, r) = run(Variant::Sched, p, &a, &b, &c0, None);
    let mesh = r.expect("paper-blocking run failed").stats.mesh;
    assert_eq!(c, reference(&p, &a, &b, &c0));
    assert!(mesh.row_words_received > 0 && mesh.col_words_received > 0);
    assert_eq!(mesh.words_gathered, 0);
}

/// A pK whose windows outnumber the ring's slots (4·pK > the host
/// buffer depth): every window is gathered as its words arrive, and C
/// is still bitwise the chunked reference.
#[test]
fn windows_longer_than_the_rings_match_chunked_reference() {
    let p = BlockingParams {
        pk: 144,
        ..BlockingParams::test_small()
    };
    assert!(4 * p.pk > HOST_BUFFER_DEPTH);
    let (a, b, c0) = operands(&p, (1, 1, 1), 67);
    let (c, r) = run(Variant::Sched, p, &a, &b, &c0, None);
    let mesh = r.expect("deep-pK run failed").stats.mesh;
    assert_eq!(c, reference(&p, &a, &b, &c0));
    assert_eq!(
        mesh.words_gathered,
        mesh.row_words_received + mesh.col_words_received
    );
}

/// The bulk broadcasts make one drop decision per (word, mate), keyed
/// on the word's own send index: each mate receives exactly the words
/// the injector's decision function, evaluated word by word on a second
/// injector with the same plan, leaves it.
#[test]
fn bulk_broadcasts_drop_exactly_the_words_the_injector_picks() {
    let spec = FaultSpec {
        mesh_drop_per_myriad: 5_000,
        ..FaultSpec::seeded(0xD20F)
    };
    let mesh = Mesh::with_timeout(Duration::from_secs(5));
    let injector = FaultInjector::new(spec);
    mesh.set_fault_injector(&injector);
    let ports = mesh.ports();
    let sender = Coord::new(3, 2);
    let tx = &ports[sender.id()];
    // Three episodes of three shapes on the row, then one on the
    // column: 24 words in all, well inside the host buffer depth, so
    // the single-threaded send-then-drain below cannot block.
    let words: Vec<V256> = (0..24).map(|i| V256::splat(i as f64)).collect();
    let panel: Vec<f64> = words[4..12].iter().flat_map(|w| w.0).collect();
    tx.row_bcast_words(&words[..4]).unwrap();
    tx.row_bcast_panel(&panel).unwrap();
    tx.row_bcast(words[12]).unwrap();
    tx.col_bcast_words(&words[13..]).unwrap();

    let oracle = FaultInjector::new(spec);
    let nets: [(Vec<Coord>, _, _); 2] = [
        (sender.row_mates().collect(), 0..13, false),
        (sender.col_mates().collect(), 13..24, true),
    ];
    for (line, sends, col_net) in nets {
        let mates = line.into_iter().filter(|m| *m != sender);
        for (i, mate) in mates.enumerate() {
            let want: Vec<V256> = sends
                .clone()
                .filter(|&w| !oracle.mesh_drop(sender.id(), w as u64 * 8 + i as u64))
                .map(|w| words[w])
                .collect();
            let rx = &ports[mate.id()];
            let got: Vec<V256> = std::iter::from_fn(|| {
                if col_net {
                    rx.try_getc()
                } else {
                    rx.try_getr()
                }
            })
            .collect();
            assert_eq!(got, want, "mate {mate} (col_net={col_net})");
        }
    }
    let want = oracle.stats();
    assert!(want.injected_mesh_drop > 0, "vacuous: nothing dropped");
    assert_eq!(injector.stats(), want);
}

/// A healed DMA/LDM-fault SCHED run under `AbftPolicy::Correct` is
/// bitwise the chunked reference, and a second run with the same seed
/// reproduces its `FaultStats`, mesh counters and grid cells exactly.
#[test]
fn healed_faulted_run_matches_reference_and_replays() {
    let _faults = faults_lock();
    let p = BlockingParams::test_small();
    let (a, b, c0) = operands(&p, (2, 1, 2), 43);
    let expect = reference(&p, &a, &b, &c0);
    let spec = FaultSpec {
        bitflip_every_epoch: true,
        dma_transient_per_myriad: 100,
        ..FaultSpec::seeded(0xFA57)
    };
    let faults = Some((spec, AbftPolicy::Correct));
    let (c, first) = run(Variant::Sched, p, &a, &b, &c0, faults);
    let first = first.expect("first faulted run failed");
    let stats = first.faults.expect("fault plan installed");
    assert!(stats.total_injected() > 0, "vacuous: nothing injected");
    assert_eq!(c, expect, "healed C differs from the chunked reference");
    let (c2, second) = run(Variant::Sched, p, &a, &b, &c0, faults);
    let second = second.expect("second faulted run failed");
    assert_eq!(c2, expect, "replayed C differs from the chunked reference");
    assert_eq!(second.faults, first.faults, "FaultStats diverge");
    assert_eq!(second.stats.mesh, first.stats.mesh, "MeshStats diverge");
    assert_eq!(second.stats.grid, first.stats.grid, "grid cells diverge");
}

/// `faults.*` counters from a global-registry snapshot, in name order.
fn faults_counters() -> Vec<(String, u64)> {
    sw_probe::metrics::global()
        .snapshot()
        .entries
        .iter()
        .filter_map(|(name, v)| match v {
            MetricValue::Counter(c) if name.starts_with("faults.") => Some((name.clone(), *c)),
            _ => None,
        })
        .collect()
}

fn faults_delta(before: &[(String, u64)], after: &[(String, u64)]) -> Vec<(String, u64)> {
    after
        .iter()
        .map(|(name, v)| {
            let prev = before
                .iter()
                .find(|(n, _)| n == name)
                .map_or(0, |(_, p)| *p);
            (name.clone(), v - prev)
        })
        .collect()
}

/// Runs an unrecoverable mesh-fault plan twice with the same seed and
/// asserts the outcome class and the `faults.*` counter deltas
/// (published even on failure) are identical. Mesh damage of this kind
/// deterministically starves a receive on every attempt, so the runs
/// end in the structured `MeshDeadlock`; what must match exactly is
/// which words the injector damaged.
fn assert_mesh_faults_replay(spec: FaultSpec, must_inject: &str) {
    let _faults = faults_lock();
    let p = BlockingParams::test_small();
    let (a, b, c0) = operands(&p, (1, 1, 1), 47);
    let mut runs = Vec::new();
    for attempt in ["first", "second"] {
        let before = faults_counters();
        let (_, r) = run(
            Variant::Sched,
            p,
            &a,
            &b,
            &c0,
            Some((spec, AbftPolicy::Off)),
        );
        if let Err(e) = &r {
            assert!(
                matches!(e, DgemmError::MeshDeadlock { .. }),
                "{attempt} run: expected MeshDeadlock, got {e}"
            );
        }
        let delta = faults_delta(&before, &faults_counters());
        let injected = delta
            .iter()
            .find(|(n, _)| n == must_inject)
            .map_or(0, |(_, v)| *v);
        assert!(injected > 0, "{attempt} run: vacuous, no {must_inject}");
        runs.push((r.is_ok(), delta));
    }
    assert_eq!(runs[1].0, runs[0].0, "outcome class diverges");
    assert_eq!(runs[1].1, runs[0].1, "faults.* deltas diverge");
}

/// Seeded mesh word drops make the same decisions on every run.
#[test]
fn mesh_drop_decisions_replay_identically() {
    assert_mesh_faults_replay(
        FaultSpec {
            mesh_drop_per_myriad: 1,
            ..FaultSpec::seeded(0xD201)
        },
        "faults.injected.mesh_drop",
    );
}

/// A wedged CPE suppresses the same number of copies on every run.
#[test]
fn mesh_wedge_suppressions_replay_identically() {
    assert_mesh_faults_replay(
        FaultSpec {
            wedge: Some(WedgeSpec { cpe: 13, epoch: 0 }),
            ..FaultSpec::seeded(0x3E06)
        },
        "faults.injected.mesh_wedge",
    );
}
