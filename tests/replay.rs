//! Faulted runs replay exactly. The 64 CPEs run as fibers in a fixed
//! round-robin order on one thread, so a run's interleaving is a
//! function of the program and the fault seed alone: a wedged run and a
//! mesh-drop run, each done twice on fresh core groups, fail with the
//! same `RunError` (the same failures in the same order, the same mesh
//! grid) and leave the same tail on all 65 flight rings.

use std::time::{Duration, Instant};
use sw_dgemm::mapping::Mapping;
use sw_dgemm::sharing::step_role;
use sw_dgemm::streamed::strip_step;
use sw_dgemm::{BlockingParams, FaultSpec, WedgeSpec};
use sw_faults::FaultInjector;
use sw_probe::flight::{FlightEvent, N_RINGS};
use sw_sim::{CoreGroup, CpeAbort, CpeCtx, CpeError};

/// One CG block's eight collective strip steps (PE mapping, test
/// blocking) on operands each CPE derives from its id.
fn collective_block(ctx: &mut CpeCtx) {
    let p = BlockingParams::test_small();
    let (pm, pn, pk) = (p.pm, p.pn, p.pk);
    let a = ctx.ldm.alloc(pm * pk).unwrap();
    let b = ctx.ldm.alloc(pk * pn).unwrap();
    let c = ctx.ldm.alloc(pm * pn).unwrap();
    let id = ctx.coord.id() as f64;
    for (i, x) in ctx.ldm.slice_mut(a).iter_mut().enumerate() {
        *x = id + i as f64 / 64.0;
    }
    for (i, x) in ctx.ldm.slice_mut(b).iter_mut().enumerate() {
        *x = id - i as f64 / 32.0;
    }
    for s in 0..8 {
        let role = step_role(Mapping::Pe, s, ctx.coord);
        strip_step(ctx, role, a, b, c, pm, pn, pk, 1.0);
        ctx.mesh_end_step();
    }
    ctx.sync_all();
}

/// What a failed run leaves behind, minus its host wall time.
#[derive(Debug, PartialEq)]
struct Outcome {
    failures: Vec<CpeAbort>,
    grid: sw_mesh::MeshGridStats,
    tails: Vec<Vec<FlightEvent>>,
}

fn faulted_run(spec: FaultSpec) -> Outcome {
    let mut cg = CoreGroup::new();
    cg.set_fault_injector(Some(FaultInjector::new(spec)));
    let err = cg
        .try_run(collective_block)
        .expect_err("the faulted run must fail");
    Outcome {
        failures: err.failures,
        grid: err.grid,
        tails: (0..N_RINGS).map(|r| cg.flight().tail(r)).collect(),
    }
}

fn assert_replays(spec: FaultSpec) -> Outcome {
    let first = faulted_run(spec);
    let second = faulted_run(spec);
    assert_eq!(first, second, "the faulted run did not replay");
    assert!(
        first
            .failures
            .iter()
            .any(|f| matches!(f.error, CpeError::Mesh(_))),
        "the run must fail on the mesh: {:?}",
        first.failures
    );
    first
}

#[test]
fn a_wedged_run_replays_exactly() {
    let outcome = assert_replays(FaultSpec {
        wedge: Some(WedgeSpec { cpe: 18, epoch: 0 }),
        ..FaultSpec::seeded(3)
    });
    assert_eq!(outcome.failures.len(), 64);
}

#[test]
fn a_mesh_drop_run_replays_exactly() {
    assert_replays(FaultSpec {
        mesh_drop_per_myriad: 20,
        ..FaultSpec::seeded(11)
    });
}

#[test]
fn a_wedged_cpe_is_found_deadlocked_long_before_the_fuse() {
    // The default 10 s fuse: only exact deadlock detection can end the
    // run within a second.
    let mut cg = CoreGroup::new();
    cg.set_fault_injector(Some(FaultInjector::new(FaultSpec {
        wedge: Some(WedgeSpec { cpe: 27, epoch: 0 }),
        ..FaultSpec::seeded(1)
    })));
    let start = Instant::now();
    let err = cg.try_run(collective_block).expect_err("a wedge deadlocks");
    let elapsed = start.elapsed();
    assert!(
        elapsed < Duration::from_secs(1),
        "deadlock took {elapsed:?} to surface"
    );
    assert!(matches!(err.primary().error, CpeError::Mesh(_)));
}
