//! End-to-end fault-injection and recovery tests: the seeded fault
//! plans of `sw-faults` driven through `DgemmRunner`, asserting that
//! every injected failure mode is either healed (bitwise-identical
//! result) or surfaced as the documented structured error — never a
//! panic.

use std::time::Duration;
use sw26010_dgemm::sim::CoreGroup;
use sw_dgemm::gen::random_matrix;
use sw_dgemm::reference::{dgemm_naive, gemm_tolerance};
use sw_dgemm::{
    AbftPolicy, BlockingParams, DgemmError, DgemmRunner, FaultSpec, Matrix, StuckSpec, Variant,
    WedgeSpec,
};

/// Operands at test blocking: `blocks = (grid_m, grid_n, grid_k)`.
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

/// The fault-free result of the same runner configuration, for bitwise
/// comparison against healed runs.
fn clean_result(v: Variant, p: BlockingParams, a: &Matrix, b: &Matrix, c0: &Matrix) -> Matrix {
    let mut c = c0.clone();
    DgemmRunner::new(v)
        .params(p)
        .run(1.5, a, b, 0.5, &mut c)
        .expect("fault-free run failed");
    c
}

/// ABFT `Correct` heals a guaranteed DMA bit-flip in every CG block:
/// the result is bitwise identical to the fault-free run, and the
/// injection/detection/correction tallies line up.
#[test]
fn abft_correct_heals_per_block_bitflips() {
    let p = BlockingParams::test_small();
    let (a, b, c0) = operands(&p, (2, 1, 2), 11);
    let expect = clean_result(Variant::Pe, p, &a, &b, &c0);

    let mut c = c0.clone();
    let spec = FaultSpec {
        bitflip_every_epoch: true,
        ..FaultSpec::seeded(0xB17F11B)
    };
    let report = DgemmRunner::new(Variant::Pe)
        .params(p)
        .faults(spec)
        .abft(AbftPolicy::Correct)
        .run(1.5, &a, &b, 0.5, &mut c)
        .expect("ABFT Correct must heal the flips");
    assert_eq!(
        c.max_abs_diff(&expect),
        0.0,
        "healed result must be bitwise clean"
    );

    let f = report.faults.expect("fault plan installed");
    let blocks = 4;
    assert!(
        f.injected_dma_bitflip >= blocks,
        "one guaranteed flip per block: {f:?}"
    );
    assert!(f.detected_abft >= blocks, "every flip detected: {f:?}");
    assert_eq!(
        f.recovered_abft_blocks, f.detected_abft,
        "every detection healed by recompute: {f:?}"
    );
}

/// The acceptance-scale case: ABFT `Correct` at the paper's blocking
/// (§III-C.2), one guaranteed bit-flip in the CG block, stays within
/// the same forward-error tolerance as the fault-free variant ladder.
#[test]
fn abft_correct_at_paper_blocking_within_tolerance() {
    let p = BlockingParams::paper_single();
    let (a, b, c0) = operands(&p, (1, 1, 1), 23);
    let mut c = c0.clone();
    let spec = FaultSpec {
        bitflip_every_epoch: true,
        ..FaultSpec::seeded(0xAB1)
    };
    let report = DgemmRunner::new(Variant::Pe)
        .params(p)
        .faults(spec)
        .abft(AbftPolicy::Correct)
        .run(1.5, &a, &b, 0.5, &mut c)
        .expect("paper-blocking ABFT run failed");
    assert!(report.faults.unwrap().injected_dma_bitflip >= 1);

    let mut expect = c0.clone();
    dgemm_naive(1.5, &a, &b, 0.5, &mut expect);
    let tol = gemm_tolerance(&a, &b, 1.5) * 1.5;
    let err = c.max_abs_diff(&expect);
    assert!(
        err <= tol,
        "max error {err:.3e} exceeds tolerance {tol:.3e}"
    );
}

/// ABFT `Detect` refuses to silently return a corrupted C: the same
/// flip plan surfaces as a structured `AbftMismatch` after one attempt.
#[test]
fn abft_detect_surfaces_structured_mismatch() {
    let p = BlockingParams::test_small();
    let (a, b, c0) = operands(&p, (1, 1, 1), 31);
    let mut c = c0.clone();
    let spec = FaultSpec {
        bitflip_every_epoch: true,
        ..FaultSpec::seeded(7)
    };
    let err = DgemmRunner::new(Variant::Pe)
        .params(p)
        .faults(spec)
        .abft(AbftPolicy::Detect)
        .run(1.5, &a, &b, 0.5, &mut c)
        .expect_err("Detect must not heal");
    match err {
        DgemmError::AbftMismatch {
            block, attempts, ..
        } => {
            assert_eq!(block, (0, 0, 0));
            assert_eq!(attempts, 1);
        }
        other => panic!("expected AbftMismatch, got {other}"),
    }
}

/// An artificially wedged CPE converts the old mesh-deadlock panic into
/// a structured `MeshDeadlock` naming the starving rendezvous group —
/// and the *same* core group runs a subsequent clean DGEMM.
#[test]
fn wedged_mesh_returns_structured_deadlock_then_group_recovers() {
    let p = BlockingParams::test_small();
    let (a, b, c0) = operands(&p, (1, 1, 1), 47);
    let mut cg = CoreGroup::new();

    let mut c = c0.clone();
    let spec = FaultSpec {
        // CPE (2,2): both its row group and column group starve.
        wedge: Some(WedgeSpec { cpe: 18, epoch: 0 }),
        ..FaultSpec::seeded(5)
    };
    let err = DgemmRunner::new(Variant::Sched)
        .params(p)
        .faults(spec)
        .mesh_timeout(Duration::from_millis(200))
        .run_on(&mut cg, 1.5, &a, &b, 0.5, &mut c)
        .expect_err("a wedged sender must deadlock the mesh");
    match err {
        DgemmError::MeshDeadlock { coord, summary } => {
            // Starvation cascades (the wedged CPE's row mates are
            // themselves column senders), so the fuse can trip
            // anywhere — but the summary names the starving groups.
            assert!(coord.0 < 8 && coord.1 < 8, "fuse at {coord:?}");
            assert!(
                summary.contains("waits for"),
                "summary must name the starving groups: {summary}"
            );
            assert_ne!(summary, "all row/column rendezvous groups balanced");
        }
        other => panic!("expected MeshDeadlock, got {other}"),
    }

    // Recovery is a non-event: same group, clean run, exact result.
    let expect = clean_result(Variant::Sched, p, &a, &b, &c0);
    let mut c2 = c0.clone();
    DgemmRunner::new(Variant::Sched)
        .params(p)
        .run_on(&mut cg, 1.5, &a, &b, 0.5, &mut c2)
        .expect("the group must survive a deadlocked run");
    assert_eq!(c2.max_abs_diff(&expect), 0.0);
}

/// A stuck CPE (its DMA never completes) exhausts the retry budget,
/// gets mapped out, and the schedule degrades onto the 63 survivors —
/// with a bitwise-identical result.
#[test]
fn stuck_cpe_degrades_onto_survivors_bitwise_clean() {
    let p = BlockingParams::test_small();
    let (a, b, c0) = operands(&p, (2, 1, 1), 59);
    let expect = clean_result(Variant::Pe, p, &a, &b, &c0);

    let mut c = c0.clone();
    let spec = FaultSpec {
        stuck: Some(StuckSpec { cpe: 9, epoch: 0 }),
        ..FaultSpec::seeded(13)
    };
    let report = DgemmRunner::new(Variant::Pe)
        .params(p)
        .faults(spec)
        .run(1.5, &a, &b, 0.5, &mut c)
        .expect("degradation must heal a stuck CPE");
    assert_eq!(
        c.max_abs_diff(&expect),
        0.0,
        "degraded blocks must be bitwise identical"
    );

    let f = report.faults.unwrap();
    assert_eq!(f.recovered_failed_cpes, 1, "{f:?}");
    assert_eq!(
        f.recovered_degraded_blocks, 2,
        "both blocks degraded: {f:?}"
    );
    assert!(f.detected_retry_exhausted >= 1, "{f:?}");
    assert!(f.injected_stuck_dma >= 1, "{f:?}");
    assert!(
        report.stats.panicked_cpes.contains(&9),
        "the stuck CPE's abort is recorded: {:?}",
        report.stats.panicked_cpes
    );
}

/// Transient DMA failures below the retry budget are healed in place
/// by backoff-retry: exact result, `recovered_dma_retry` counted, no
/// CPE failures, no degradation.
#[test]
fn transient_dma_faults_healed_by_retry() {
    let p = BlockingParams::test_small();
    let (a, b, c0) = operands(&p, (2, 1, 1), 71);
    let expect = clean_result(Variant::Row, p, &a, &b, &c0);

    let mut c = c0.clone();
    let spec = FaultSpec {
        dma_transient_per_myriad: 500, // 5% of DMA ops fail once
        ..FaultSpec::seeded(0x7E4)
    };
    let report = DgemmRunner::new(Variant::Row)
        .params(p)
        .faults(spec)
        .run(1.5, &a, &b, 0.5, &mut c)
        .expect("transients within budget must be invisible");
    assert_eq!(c.max_abs_diff(&expect), 0.0);

    let f = report.faults.unwrap();
    assert!(f.injected_dma_transient > 0, "rate must have fired: {f:?}");
    assert!(f.recovered_dma_retry > 0, "{f:?}");
    assert!(f.recovered_dma_retry <= f.injected_dma_transient, "{f:?}");
    assert_eq!(f.recovered_failed_cpes, 0, "{f:?}");
    assert_eq!(f.detected_retry_exhausted, 0, "{f:?}");
    assert!(report.stats.panicked_cpes.is_empty());
}

/// An installed-but-empty fault plan is metabolically free: zero
/// counters, and the result is bitwise identical to the fast path.
#[test]
fn empty_fault_plan_counts_nothing() {
    let p = BlockingParams::test_small();
    let (a, b, c0) = operands(&p, (1, 1, 1), 83);
    let expect = clean_result(Variant::Pe, p, &a, &b, &c0);

    let mut c = c0.clone();
    let report = DgemmRunner::new(Variant::Pe)
        .params(p)
        .faults(FaultSpec::seeded(99))
        .run(1.5, &a, &b, 0.5, &mut c)
        .expect("empty plan must run clean");
    assert_eq!(c.max_abs_diff(&expect), 0.0);
    let f = report.faults.unwrap();
    assert_eq!(f.total_injected(), 0, "{f:?}");
    assert_eq!(f, Default::default(), "all counters zero: {f:?}");

    // And with no plan at all, the report carries no fault section.
    let mut c2 = c0.clone();
    let r2 = DgemmRunner::new(Variant::Pe)
        .params(p)
        .run(1.5, &a, &b, 0.5, &mut c2)
        .unwrap();
    assert!(r2.faults.is_none());
}

/// Fault injection and ABFT need the recovery machinery of the shared
/// variants; on RAW they are rejected up front as a parameter error.
#[test]
fn raw_variant_rejects_fault_plans() {
    let p = BlockingParams::test_small();
    let (a, b, c0) = operands(&p, (1, 1, 1), 89);
    let mut c = c0.clone();
    let err = DgemmRunner::new(Variant::Raw)
        .faults(FaultSpec::seeded(1))
        .run(1.5, &a, &b, 0.5, &mut c)
        .expect_err("RAW has no recovery machinery");
    assert!(matches!(err, DgemmError::BadParams(_)), "{err}");
}

/// LDM soft errors and mesh word drops under `Correct` are healed the
/// same way DMA payload faults are: detect, recompute, converge.
#[test]
fn ldm_and_mesh_faults_healed_under_correct() {
    let p = BlockingParams::test_small();
    let (a, b, c0) = operands(&p, (1, 1, 2), 97);
    let expect = clean_result(Variant::Pe, p, &a, &b, &c0);

    let mut c = c0.clone();
    let spec = FaultSpec {
        ldm_bitflip_per_myriad: 600,
        mesh_drop_per_myriad: 2,
        ..FaultSpec::seeded(0x1D31)
    };
    let report = DgemmRunner::new(Variant::Pe)
        .params(p)
        .faults(spec)
        .mesh_timeout(Duration::from_millis(200))
        .abft(AbftPolicy::Correct)
        .run(1.5, &a, &b, 0.5, &mut c);
    // A dropped mesh word can starve a receive into a (structured)
    // deadlock rather than a checksum miss; both are acceptable
    // outcomes — what is not acceptable is a panic or a silent wrong
    // answer.
    match report {
        Ok(r) => {
            assert_eq!(c.max_abs_diff(&expect), 0.0);
            let f = r.faults.unwrap();
            assert!(f.injected_ldm_bitflip > 0, "{f:?}");
            assert_eq!(f.recovered_abft_blocks, f.detected_abft, "{f:?}");
        }
        Err(DgemmError::MeshDeadlock { .. }) => {}
        Err(other) => panic!("unexpected failure: {other}"),
    }
}
