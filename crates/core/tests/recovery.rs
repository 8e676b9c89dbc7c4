//! Core-group reuse after a cancelled run: a structured failure tears
//! a run down through `CancellableBarrier::cancel` (every CPE unwinds
//! with `BarrierCancelled`), and the same caller-owned [`CoreGroup`]
//! must then run further DGEMMs as if nothing happened — the
//! barrier-level regression behind `DgemmRunner::run_on`'s recovery
//! promise.

use std::path::PathBuf;
use std::time::{Duration, Instant};
use sw_dgemm::diagnostics::DIAG_DIR_ENV;
use sw_dgemm::{
    gen, reference, BlockingParams, DgemmError, DgemmRunner, FaultSpec, Variant, WedgeSpec,
};
use sw_sim::{CancelToken, CoreGroup};

#[test]
fn core_group_reusable_after_cancelled_run() {
    // Keep the failure's diagnostics bundle out of the source tree.
    let dir: PathBuf =
        std::env::temp_dir().join(format!("sw-diag-test-recovery-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::env::set_var(DIAG_DIR_ENV, &dir);

    let p = BlockingParams::test_small();
    let a = gen::random_matrix(128, 128, 21);
    let b = gen::random_matrix(128, 128, 22);
    let c0 = gen::random_matrix(128, 128, 23);
    let mut cg = CoreGroup::new();

    // Run 1: a wedged CPE trips the deadlock fuse; the aborting CPE
    // cancels the run's barriers and all 63 peers unwind.
    let mut c = c0.clone();
    let err = DgemmRunner::new(Variant::Pe)
        .params(p)
        .faults(FaultSpec {
            wedge: Some(WedgeSpec { cpe: 18, epoch: 0 }),
            ..FaultSpec::seeded(0)
        })
        .mesh_timeout(Duration::from_millis(200))
        .run_on(&mut cg, 1.5, &a, &b, 0.5, &mut c)
        .expect_err("the wedge must trip the deadlock fuse");
    assert!(matches!(err, DgemmError::MeshDeadlock { .. }));

    // Runs 2 and 3: the same group, no faults. The persistent CPE pool
    // and fresh per-run barriers make both succeed with exact numerics.
    for seed in [31u64, 32] {
        let a = gen::random_matrix(128, 128, seed);
        let b = gen::random_matrix(128, 128, seed + 100);
        let c0 = gen::random_matrix(128, 128, seed + 200);
        let mut c = c0.clone();
        DgemmRunner::new(Variant::Pe)
            .params(p)
            .run_on(&mut cg, 1.5, &a, &b, 0.5, &mut c)
            .expect("clean run on the recovered group succeeds");
        let mut expect = c0.clone();
        reference::dgemm_naive(1.5, &a, &b, 0.5, &mut expect);
        let tol = reference::gemm_tolerance(&a, &b, 1.5);
        assert!(
            c.max_abs_diff(&expect) <= tol,
            "recovered group computes correctly (seed {seed})"
        );
    }

    std::env::remove_var(DIAG_DIR_ENV);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Checks one clean run on `cg` against the naive reference.
fn assert_clean_run(cg: &mut CoreGroup, seed: u64) {
    let p = BlockingParams::test_small();
    let a = gen::random_matrix(128, 128, seed);
    let b = gen::random_matrix(128, 128, seed + 100);
    let c0 = gen::random_matrix(128, 128, seed + 200);
    let mut c = c0.clone();
    DgemmRunner::new(Variant::Sched)
        .params(p)
        .run_on(cg, 1.5, &a, &b, 0.5, &mut c)
        .expect("clean run on the recovered group succeeds");
    let mut expect = c0.clone();
    reference::dgemm_naive(1.5, &a, &b, 0.5, &mut expect);
    let tol = reference::gemm_tolerance(&a, &b, 1.5);
    assert!(
        c.max_abs_diff(&expect) <= tol,
        "recovered group computes correctly (seed {seed})"
    );
}

#[test]
fn cancel_token_surfaces_cancelled_and_group_stays_reusable() {
    let p = BlockingParams::test_small();
    let a = gen::random_matrix(128, 128, 41);
    let b = gen::random_matrix(128, 128, 42);
    let c0 = gen::random_matrix(128, 128, 43);
    let mut cg = CoreGroup::new();

    // Run 1: a token fired *before* the run starts is fully
    // deterministic — every CPE unwinds at its first barrier and the
    // structured error carries the explicit-cancel reason, not a fault.
    let token = CancelToken::new();
    token.cancel();
    let mut c = c0.clone();
    let err = DgemmRunner::new(Variant::Sched)
        .params(p)
        .cancel(token)
        .run_on(&mut cg, 1.5, &a, &b, 0.5, &mut c)
        .expect_err("a pre-fired token must cancel the run");
    assert_eq!(err, DgemmError::Cancelled { deadline: false });

    // Run 2: same, but fired by the deadline path — the reason is
    // preserved so a service can tell shed-by-deadline from faults.
    let token = CancelToken::new();
    token.cancel_deadline();
    let mut c = c0.clone();
    let err = DgemmRunner::new(Variant::Sched)
        .params(p)
        .cancel(token)
        .run_on(&mut cg, 1.5, &a, &b, 0.5, &mut c)
        .expect_err("a pre-fired deadline token must cancel the run");
    assert_eq!(err, DgemmError::Cancelled { deadline: true });

    // Runs 3 and 4: the group is reusable with exact numerics — the
    // regression behind `run_on`'s recovery promise after a cancel.
    for seed in [51u64, 52] {
        assert_clean_run(&mut cg, seed);
    }
}

#[test]
fn mid_run_cancel_frees_the_group_promptly() {
    // Fire the token from another thread mid-run. The exact interleave
    // is timing-dependent — the run may finish first — but every
    // outcome must be one of {Ok, Cancelled}, and the group must be
    // clean afterwards either way.
    let p = BlockingParams::test_small();
    let a = gen::random_matrix(256, 128, 61);
    let b = gen::random_matrix(128, 256, 62);
    let c0 = gen::random_matrix(256, 256, 63);
    let mut cg = CoreGroup::new();
    let mut saw_cancel = false;
    for delay_us in [0u64, 50, 200, 1000, 5000] {
        let token = CancelToken::new();
        if delay_us == 0 {
            // Deterministic floor for the loop's assertion: fired
            // before the run starts, the cancel must win.
            token.cancel_deadline();
        }
        let firer = {
            let token = token.clone();
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_micros(delay_us));
                token.cancel_deadline();
            })
        };
        let mut c = c0.clone();
        match DgemmRunner::new(Variant::Sched)
            .params(p)
            .cancel(token)
            .run_on(&mut cg, 1.5, &a, &b, 0.5, &mut c)
        {
            Ok(_) => {}
            Err(DgemmError::Cancelled { deadline }) => {
                assert!(deadline, "the deadline reason must be preserved");
                saw_cancel = true;
            }
            Err(other) => panic!("unexpected error under cancel: {other}"),
        }
        firer.join().unwrap();
    }
    assert!(
        saw_cancel,
        "at least the delay-0 fire must cancel before the run completes"
    );
    assert_clean_run(&mut cg, 71);
}

#[test]
fn cancel_releases_mesh_blocked_cpes_before_the_fuse() {
    // A wedged CPE leaves its peers blocked on the mesh. With a 60 s
    // fuse, only the fired token can end the run in time: it must
    // release the ring and turn waits, not wait the fuse out.
    // A cancel emits no diagnostics bundle, so no bundle directory is
    // set up here.
    let p = BlockingParams::test_small();
    let a = gen::random_matrix(128, 128, 81);
    let b = gen::random_matrix(128, 128, 82);
    let mut c = gen::random_matrix(128, 128, 83);
    let token = CancelToken::new();
    let firer = {
        let token = token.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            token.cancel();
        })
    };
    let start = Instant::now();
    let err = DgemmRunner::new(Variant::Pe)
        .params(p)
        .faults(FaultSpec {
            wedge: Some(WedgeSpec { cpe: 18, epoch: 0 }),
            ..FaultSpec::seeded(0)
        })
        .mesh_timeout(Duration::from_secs(60))
        .cancel(token)
        .run(1.5, &a, &b, 0.5, &mut c)
        .expect_err("a wedged run cannot complete");
    let elapsed = start.elapsed();
    firer.join().unwrap();
    assert_eq!(err, DgemmError::Cancelled { deadline: false });
    assert!(
        elapsed < Duration::from_secs(30),
        "cancel took {elapsed:?}: mesh waits ran out the fuse"
    );
}
