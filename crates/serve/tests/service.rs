//! End-to-end service behaviour: bitwise-correct completions, bounded
//! admission, deadline cancellation, the retry/backoff contract
//! (rotation, budget, last-error preservation), and the quarantine →
//! probe → readmission cycle. The CI fault-tolerance job runs the
//! chaos-relevant tests here alongside the fault sweep.

use std::sync::Arc;
use std::time::Duration;
use sw_dgemm::{
    gen, reference, BlockingParams, DgemmError, DgemmRunner, FaultSpec, Matrix, Variant, WedgeSpec,
};
use sw_probe::metrics;
use sw_serve::{
    BackoffPolicy, FaultPlan, GemmRequest, RejectReason, ServeConfig, ServeOutcome, Service,
    TenantCfg,
};

const P: fn() -> BlockingParams = BlockingParams::test_small;

fn shapes(seed: u64) -> (Arc<Matrix>, Arc<Matrix>, Arc<Matrix>) {
    (
        Arc::new(gen::random_matrix(128, 128, seed)),
        Arc::new(gen::random_matrix(128, 64, seed + 1)),
        Arc::new(gen::random_matrix(128, 64, seed + 2)),
    )
}

fn request(seed: u64) -> GemmRequest {
    let (a, b, c) = shapes(seed);
    GemmRequest {
        alpha: 1.5,
        beta: 0.5,
        params: Some(P()),
        ..GemmRequest::new(0, a, b, c)
    }
}

fn wedge() -> FaultSpec {
    FaultSpec {
        wedge: Some(WedgeSpec { cpe: 18, epoch: 0 }),
        ..FaultSpec::seeded(0)
    }
}

fn small_cfg() -> ServeConfig {
    ServeConfig {
        tenants: vec![TenantCfg::new("test")],
        workers: 1,
        core_groups: 1,
        backoff: BackoffPolicy {
            base: Duration::from_micros(50),
            cap: Duration::from_millis(1),
            max_attempts: 2,
            seed: 7,
        },
        quarantine_threshold: 100, // effectively off unless a test opts in
        mesh_timeout: Duration::from_millis(60),
        tune: sw_serve::TunePolicy::Off,
    }
}

/// Completions are bitwise identical to a direct `DgemmRunner` call on
/// the same operands — the service adds policy, never numerics.
#[test]
fn completion_is_bitwise_equal_to_direct_runner() {
    let svc = Service::start(small_cfg());
    let req = request(100);
    let (a, b, c0) = (req.a.clone(), req.b.clone(), req.c.clone());
    let ticket = svc.submit(req).expect("admitted");
    let outcome = ticket.wait();
    svc.shutdown();
    let ServeOutcome::Completed { c, attempts, .. } = outcome else {
        panic!("expected completion, got {outcome:?}");
    };
    assert_eq!(attempts, 1);
    let mut direct = (*c0).clone();
    DgemmRunner::new(Variant::Sched)
        .params(P())
        .run(1.5, &a, &b, 0.5, &mut direct)
        .expect("direct run succeeds");
    assert!(c == direct, "service result must be bitwise the runner's");
    // And both match the chunked host reference bitwise.
    let mut expect = (*c0).clone();
    reference::dgemm_chunked_fma(1.5, &a, &b, 0.5, &mut expect, P().pk);
    assert!(c == expect);
}

/// Bounded admission: once the tenant's queue is full, submit refuses
/// with the structured depth/cap reason instead of queueing unbounded.
#[test]
fn queue_full_sheds_with_structured_reason() {
    let mut cfg = small_cfg();
    cfg.tenants = vec![TenantCfg {
        name: "test".into(),
        weight: 1,
        queue_cap: 2,
    }];
    let svc = Service::start(cfg);
    // Occupy the single worker with a wedged request (one fuse wait
    // per attempt buys plenty of time to fill the queue behind it).
    let mut blocker = request(200);
    blocker.faults = Some(FaultPlan::EveryAttempt(wedge()));
    let blocker_ticket = svc.submit(blocker).expect("admitted");
    std::thread::sleep(Duration::from_millis(20)); // worker picks it up
    let mut outcomes = Vec::new();
    let mut rejected = 0;
    for seed in [201, 202, 203, 204] {
        match svc.submit(request(seed)) {
            Ok(t) => outcomes.push(t),
            Err(RejectReason::QueueFull { tenant, depth, cap }) => {
                assert_eq!((tenant, depth, cap), (0, 2, 2));
                rejected += 1;
            }
            Err(other) => panic!("unexpected rejection {other}"),
        }
    }
    assert!(rejected >= 2, "cap 2 must shed at least 2 of 4");
    // Everything admitted still completes; nothing is silently lost.
    for t in outcomes {
        assert!(matches!(t.wait(), ServeOutcome::Completed { .. }));
    }
    assert!(matches!(blocker_ticket.wait(), ServeOutcome::Failed { .. }));
    svc.shutdown();
}

/// A deadline that expires while queued resolves as a deadline
/// cancellation without ever touching a core group.
#[test]
fn expired_deadline_cancels_without_a_lease() {
    let svc = Service::start(small_cfg());
    let mut req = request(300);
    req.deadline = Some(Duration::ZERO);
    let outcome = svc.submit(req).expect("admitted").wait();
    let ServeOutcome::Cancelled { deadline, attempts } = outcome else {
        panic!("expected cancellation, got {outcome:?}");
    };
    assert!(deadline);
    assert_eq!(attempts, 0, "no core group was spent on it");
    // The service stays live.
    assert!(matches!(
        svc.submit(request(301)).unwrap().wait(),
        ServeOutcome::Completed { .. }
    ));
    svc.shutdown();
}

/// Infeasible deadlines are refused at admission once the service has
/// a latency estimate.
#[test]
fn hopeless_deadline_is_shed_at_admission() {
    let svc = Service::start(small_cfg());
    // Prime the EWMA with one completion.
    assert!(matches!(
        svc.submit(request(400)).unwrap().wait(),
        ServeOutcome::Completed { .. }
    ));
    assert!(!svc.latency_estimate().is_zero());
    let mut req = request(401);
    req.deadline = Some(Duration::from_nanos(1));
    match svc.submit(req) {
        Err(RejectReason::DeadlineInfeasible { deadline, estimate }) => {
            assert_eq!(deadline, Duration::from_nanos(1));
            assert!(!estimate.is_zero());
        }
        other => panic!("expected DeadlineInfeasible, got {other:?}"),
    }
    svc.shutdown();
}

/// Satellite contract: a transient first-attempt fault retries on a
/// *different* core group and completes bitwise-correct on attempt 2.
#[test]
fn transient_fault_retries_on_a_different_group_and_heals() {
    let mut cfg = small_cfg();
    cfg.core_groups = 2;
    let svc = Service::start(cfg);
    let mut req = request(500);
    req.faults = Some(FaultPlan::FirstAttemptOnly(wedge()));
    let c0 = req.c.clone();
    let (a, b) = (req.a.clone(), req.b.clone());
    let outcome = svc.submit(req).expect("admitted").wait();
    let ServeOutcome::Completed { c, attempts, .. } = outcome else {
        panic!("expected retry-healed completion, got {outcome:?}");
    };
    assert_eq!(attempts, 2, "first attempt wedges, second heals");
    let mut expect = (*c0).clone();
    reference::dgemm_chunked_fma(1.5, &a, &b, 0.5, &mut expect, P().pk);
    assert!(c == expect, "healed result is bitwise correct");
    svc.shutdown();
}

/// Satellite contract: a permanent fault plan exhausts the retry
/// budget and the *last* error is preserved in the outcome.
#[test]
fn permanent_fault_exhausts_budget_with_last_error_preserved() {
    let mut cfg = small_cfg();
    cfg.core_groups = 2;
    cfg.backoff.max_attempts = 3;
    let svc = Service::start(cfg);
    let mut req = request(600);
    req.faults = Some(FaultPlan::EveryAttempt(wedge()));
    let outcome = svc.submit(req).expect("admitted").wait();
    let ServeOutcome::Failed { error, attempts } = outcome else {
        panic!("expected budget exhaustion, got {outcome:?}");
    };
    assert_eq!(attempts, 3, "the full budget was spent");
    assert!(
        matches!(error, DgemmError::MeshDeadlock { .. }),
        "the final attempt's structured error survives: {error}"
    );
    svc.shutdown();
}

/// The quarantine state machine end to end: a group that fails
/// threshold leases in a row leaves the rotation, the healer probes it
/// with a bitwise GEMM, readmits it, and clean traffic then completes
/// on the recovered (sole) group.
#[test]
fn quarantine_probe_readmission_cycle() {
    let quarantined_before = metrics::global()
        .snapshot()
        .counter("serve.pool.quarantined")
        .unwrap_or(0);
    let mut cfg = small_cfg();
    cfg.quarantine_threshold = 2;
    cfg.backoff.max_attempts = 1; // each wedge burns exactly one lease
    let svc = Service::start(cfg);
    for seed in [700, 701] {
        let mut req = request(seed);
        req.faults = Some(FaultPlan::EveryAttempt(wedge()));
        assert!(matches!(
            svc.submit(req).unwrap().wait(),
            ServeOutcome::Failed { .. }
        ));
    }
    let quarantined_after = metrics::global()
        .snapshot()
        .counter("serve.pool.quarantined")
        .unwrap_or(0);
    assert!(
        quarantined_after > quarantined_before,
        "the second consecutive failure must quarantine the group"
    );
    // The pool's only group is (or was) quarantined; this completion
    // proves the healer probed and readmitted it.
    let req = request(702);
    let c0 = req.c.clone();
    let (a, b) = (req.a.clone(), req.b.clone());
    let outcome = svc.submit(req).unwrap().wait();
    let ServeOutcome::Completed { c, .. } = outcome else {
        panic!("expected completion on the readmitted group, got {outcome:?}");
    };
    let mut expect = (*c0).clone();
    reference::dgemm_chunked_fma(1.5, &a, &b, 0.5, &mut expect, P().pk);
    assert!(c == expect, "recovered group computes bitwise correctly");
    svc.shutdown();
}

/// Graceful shutdown drains admitted work: every ticket resolves.
#[test]
fn shutdown_drains_admitted_requests() {
    let svc = Service::start(small_cfg());
    let tickets: Vec<_> = (0..4)
        .map(|i| svc.submit(request(800 + i)).expect("admitted"))
        .collect();
    svc.shutdown();
    for t in tickets {
        assert!(
            matches!(t.wait(), ServeOutcome::Completed { .. }),
            "queued work drains before workers exit"
        );
    }
    assert!(matches!(
        svc.submit(request(900)),
        Err(RejectReason::ShuttingDown)
    ));
}

/// A pinned blocking that passes `validate` but that no executor runs
/// (pM = 32) fails as a structured error in bounded time: the worker
/// survives and the ticket resolves.
#[test]
fn a_blocking_no_executor_runs_fails_in_bounded_time() {
    let svc = Service::start(small_cfg());
    let p = BlockingParams {
        pm: 32,
        pn: 16,
        pk: 64,
        rm: 4,
        rn: 4,
    };
    let (m, n, k) = (p.bm(), p.bn(), 512);
    let req = GemmRequest {
        params: Some(p),
        deadline: Some(Duration::from_secs(2)),
        ..GemmRequest::new(
            0,
            Arc::new(gen::random_matrix(m, k, 31)),
            Arc::new(gen::random_matrix(k, n, 32)),
            Arc::new(gen::random_matrix(m, n, 33)),
        )
    };
    let ticket = svc.submit(req).expect("admitted");
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || tx.send(ticket.wait()));
    let outcome = rx
        .recv_timeout(Duration::from_secs(10))
        .expect("the ticket resolves within 10 s");
    assert!(
        matches!(
            &outcome,
            ServeOutcome::Failed {
                error: DgemmError::BadParams(_),
                ..
            }
        ),
        "{outcome:?}"
    );
    // The worker lives on.
    let ok = svc.submit(request(300)).expect("admitted").wait();
    assert!(matches!(ok, ServeOutcome::Completed { .. }), "{ok:?}");
    svc.shutdown();
}
