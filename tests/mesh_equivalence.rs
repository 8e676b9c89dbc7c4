//! Transport- and path-equivalence properties of the mesh fast path:
//! the lock-free broadcast-ring transport and the bulk panel broadcasts
//! must be observationally identical to the Mutex-channel / per-word
//! baseline — bitwise-identical C, identical `MeshStats`, identical
//! per-CPE `MeshGridStats` cells, and identical `faults.*` counters
//! under an active `FaultInjector` with the same seed. The batched
//! paths consume exactly the per-word `send_idx` sequence the injector
//! keys on, so every drop/wedge decision lands on the same word.

use std::sync::{Mutex, MutexGuard};
use std::time::Duration;
use sw_dgemm::gen::random_matrix;
use sw_dgemm::{
    AbftPolicy, BlockingParams, DgemmError, DgemmReport, DgemmRunner, FaultSpec, Matrix, MeshPath,
    MeshTransport, Variant, WedgeSpec,
};
use sw_probe::metrics::MetricValue;

/// The four (transport, path) combinations, baseline first.
const COMBOS: [(MeshTransport, MeshPath, &str); 4] = [
    (MeshTransport::Fallback, MeshPath::Word, "fallback+word"),
    (MeshTransport::Fallback, MeshPath::Bulk, "fallback+bulk"),
    (MeshTransport::Ring, MeshPath::Word, "ring+word"),
    (MeshTransport::Ring, MeshPath::Bulk, "ring+bulk"),
];

/// Serializes the tests that install a `FaultSpec`. The fault-delta
/// assertions read process-global `faults.*` counters, which a sibling
/// test injecting faults at the same time would move.
static FAULTS: Mutex<()> = Mutex::new(());

fn faults_lock() -> MutexGuard<'static, ()> {
    // A failed sibling must not cascade: the guarded data is `()`.
    FAULTS.lock().unwrap_or_else(|e| e.into_inner())
}

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

#[allow(clippy::too_many_arguments)] // variant + blocking + three operands + mesh config
fn run_combo(
    v: Variant,
    p: BlockingParams,
    a: &Matrix,
    b: &Matrix,
    c0: &Matrix,
    transport: MeshTransport,
    path: MeshPath,
    faults: Option<(FaultSpec, AbftPolicy)>,
) -> (Matrix, Result<DgemmReport, DgemmError>) {
    let mut c = c0.clone();
    let mut runner = DgemmRunner::new(v)
        .params(p)
        .mesh_transport(transport)
        .mesh_path(path);
    if let Some((spec, abft)) = faults {
        runner = runner
            .faults(spec)
            .abft(abft)
            .mesh_timeout(Duration::from_millis(200));
    }
    let report = runner.run(1.5, a, b, 0.5, &mut c);
    (c, report)
}

/// Clean runs: all four combinations agree bitwise on C and exactly on
/// every mesh counter, for each data-sharing variant.
#[test]
fn transports_and_paths_agree_bitwise_on_clean_runs() {
    let p = BlockingParams::test_small();
    for v in [Variant::Pe, Variant::Row, Variant::Db, Variant::Sched] {
        let (a, b, c0) = operands(&p, (2, 1, 2), 41);
        let (c_base, r_base) = run_combo(v, p, &a, &b, &c0, COMBOS[0].0, COMBOS[0].1, None);
        let r_base = r_base.expect("baseline run failed");
        for &(t, path, name) in &COMBOS[1..] {
            let (c, r) = run_combo(v, p, &a, &b, &c0, t, path, None);
            let r = r.unwrap_or_else(|e| panic!("{v} {name} failed: {e}"));
            assert_eq!(c.max_abs_diff(&c_base), 0.0, "{v} {name}: C diverges");
            assert_eq!(r.stats.mesh, r_base.stats.mesh, "{v} {name}: MeshStats");
            assert_eq!(r.stats.grid, r_base.stats.grid, "{v} {name}: grid cells");
        }
    }
}

/// Healed faulted runs: with DMA/LDM faults under `AbftPolicy::Correct`
/// all combinations converge to the same bitwise C and report the same
/// `FaultStats` — the injector's (epoch, attempt, site) decisions do
/// not see the transport or the batching.
#[test]
fn faulted_runs_heal_identically_across_combos() {
    let _faults = faults_lock();
    let p = BlockingParams::test_small();
    let (a, b, c0) = operands(&p, (2, 1, 2), 43);
    let spec = FaultSpec {
        bitflip_every_epoch: true,
        dma_transient_per_myriad: 100,
        ..FaultSpec::seeded(0xFA57)
    };
    let faults = Some((spec, AbftPolicy::Correct));
    let (c_base, r_base) = run_combo(
        Variant::Sched,
        p,
        &a,
        &b,
        &c0,
        COMBOS[0].0,
        COMBOS[0].1,
        faults,
    );
    let r_base = r_base.expect("baseline faulted run failed");
    let f_base = r_base.faults.expect("fault plan installed");
    assert!(f_base.total_injected() > 0, "vacuous: nothing injected");
    for &(t, path, name) in &COMBOS[1..] {
        let (c, r) = run_combo(Variant::Sched, p, &a, &b, &c0, t, path, faults);
        let r = r.unwrap_or_else(|e| panic!("{name} failed: {e}"));
        assert_eq!(c.max_abs_diff(&c_base), 0.0, "{name}: healed C diverges");
        assert_eq!(r.faults, r_base.faults, "{name}: FaultStats diverge");
        assert_eq!(r.stats.mesh, r_base.stats.mesh, "{name}: MeshStats");
        assert_eq!(r.stats.grid, r_base.stats.grid, "{name}: grid cells");
    }
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

/// Runs an unrecoverable mesh-fault plan through every combination and
/// asserts the outcome class and the `faults.*` counter deltas
/// (published even on failure) are identical. Mesh damage of this kind
/// deterministically starves a receive on every attempt, so the runs
/// end in the structured `MeshDeadlock`; what must match exactly is
/// which words the injector damaged — the `send_idx` identity the bulk
/// paths preserve.
fn assert_mesh_fault_deltas_identical(spec: FaultSpec, must_inject: &str) {
    let _faults = faults_lock();
    let p = BlockingParams::test_small();
    let (a, b, c0) = operands(&p, (1, 1, 1), 47);
    let mut base: Option<(bool, Vec<(String, u64)>)> = None;
    for &(t, path, name) in &COMBOS {
        let before = faults_counters();
        let (_, r) = run_combo(
            Variant::Sched,
            p,
            &a,
            &b,
            &c0,
            t,
            path,
            Some((spec, AbftPolicy::Off)),
        );
        if let Err(e) = &r {
            assert!(
                matches!(e, DgemmError::MeshDeadlock { .. }),
                "{name}: expected MeshDeadlock, got {e}"
            );
        }
        let delta = faults_delta(&before, &faults_counters());
        let injected = delta
            .iter()
            .find(|(n, _)| n == must_inject)
            .map_or(0, |(_, v)| *v);
        assert!(injected > 0, "{name}: vacuous, no {must_inject} injected");
        match &base {
            None => base = Some((r.is_ok(), delta)),
            Some((base_ok, base_delta)) => {
                assert_eq!(r.is_ok(), *base_ok, "{name}: outcome class diverges");
                assert_eq!(&delta, base_delta, "{name}: faults.* deltas diverge");
            }
        }
    }
}

/// Seeded mesh word drops make bit-for-bit the same decisions on the
/// batched paths as on the per-word path.
#[test]
fn mesh_drop_decisions_identical_across_combos() {
    assert_mesh_fault_deltas_identical(
        FaultSpec {
            mesh_drop_per_myriad: 1,
            ..FaultSpec::seeded(0xD201)
        },
        "faults.injected.mesh_drop",
    );
}

/// A wedged CPE suppresses the same number of copies whether its sends
/// are counted one word at a time or as one batched
/// `note_wedge_suppressions(n)` per panel.
#[test]
fn mesh_wedge_suppressions_identical_across_combos() {
    assert_mesh_fault_deltas_identical(
        FaultSpec {
            wedge: Some(WedgeSpec { cpe: 13, epoch: 0 }),
            ..FaultSpec::seeded(0x3E06)
        },
        "faults.injected.mesh_wedge",
    );
}
