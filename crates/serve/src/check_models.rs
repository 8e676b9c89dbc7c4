//! Model-check suite for the tenant-queue handoff (compiled only under
//! `--cfg sw_check`, where [`crate::queue`] runs on the
//! checker-instrumented types).
//!
//! The correct models prove, across every explored interleaving: an
//! enqueued job is handed to a consumer without depending on a
//! timed-park rescue (no lost wakeups), shutdown wakes a parked
//! consumer, jobs queued before shutdown are drained before
//! `Pop::Shutdown`, and a tenant cancellation racing a pop delivers or
//! sweeps each job exactly once. The park-before-notify mutant
//! ([`TenantQueues::push_mutant_no_notify`]) is the seeded defect the
//! suite must catch.

use crate::queue::{Pop, TenantCfg, TenantQueues};
use crate::request::Priority;
use std::sync::Arc;
use sw_check::checked::thread;
use sw_check::models::{Expect, NamedModel};
use sw_check::{Config, ViolationKind};

/// Queue progress must never depend on a timed park expiring: any
/// forced condvar-timeout rescue is a lost wakeup.
fn forbid_rescue(cfg: &mut Config) {
    cfg.forbid_timeout_rescue = true;
}

fn one_tenant() -> Arc<TenantQueues<u32>> {
    Arc::new(TenantQueues::new(&[TenantCfg::new("t0")]))
}

/// Producer pushes one job, consumer pops it: the handoff must
/// complete in every interleaving without a timeout rescue.
fn queue_handoff() {
    let q = one_tenant();
    let consumer = {
        let q = q.clone();
        thread::spawn(move || {
            assert_eq!(q.pop(), Pop::Job { tenant: 0, job: 7 });
        })
    };
    q.push(0, Priority::Normal, 7).unwrap();
    consumer.join().unwrap();
}

/// Shutdown must wake a consumer parked on an empty queue.
fn queue_shutdown_wakes() {
    let q = one_tenant();
    let consumer = {
        let q = q.clone();
        thread::spawn(move || {
            assert_eq!(q.pop(), Pop::Shutdown);
        })
    };
    q.shutdown();
    consumer.join().unwrap();
}

/// A job queued before shutdown must be delivered before the consumer
/// sees `Pop::Shutdown` (drain-before-exit).
fn queue_drain_on_shutdown() {
    let q = one_tenant();
    let consumer = {
        let q = q.clone();
        thread::spawn(move || {
            assert_eq!(q.pop(), Pop::Job { tenant: 0, job: 3 });
            assert_eq!(q.pop(), Pop::Shutdown);
        })
    };
    q.push(0, Priority::Normal, 3).unwrap();
    q.shutdown();
    consumer.join().unwrap();
}

/// A tenant cancellation racing a pop: the queued job is delivered or
/// swept, exactly once, and nobody strands.
fn queue_cancel_vs_pop() {
    let q = one_tenant();
    q.push(0, Priority::Normal, 9).unwrap();
    // The checked spawn carries no return payload; hand the popped job
    // out through a checked cell instead.
    let popped = Arc::new(sw_check::sync::Mutex::new(None));
    let popper = {
        let q = q.clone();
        let popped = Arc::clone(&popped);
        thread::spawn(move || {
            *popped.lock().unwrap_or_else(|e| e.into_inner()) = q.try_pop().map(|(_, j)| j);
        })
    };
    let swept = q.cancel_tenant(0);
    popper.join().unwrap();
    let popped = popped.lock().unwrap_or_else(|e| e.into_inner()).take();
    let delivered = usize::from(popped.is_some()) + swept.len();
    assert_eq!(
        delivered, 1,
        "exactly-once: popped {popped:?}, swept {swept:?}"
    );
}

/// Mutant: push without ringing the doorbell — the parked consumer is
/// only ever rescued by its park timeout, which the config forbids.
fn queue_mutant_push_no_notify() {
    let q = one_tenant();
    let consumer = {
        let q = q.clone();
        thread::spawn(move || {
            assert_eq!(q.pop(), Pop::Job { tenant: 0, job: 1 });
        })
    };
    q.push_mutant_no_notify(0, Priority::Normal, 1).unwrap();
    consumer.join().unwrap();
}

/// The serve crate's registered models, consumed by the `sw-check`
/// binary and the crate's own `model_check` integration test.
pub fn models() -> Vec<NamedModel> {
    vec![
        NamedModel {
            name: "serve/queue-handoff",
            about: "one push hands off to one pop with no timeout rescue",
            expect: Expect::Pass,
            tune: forbid_rescue,
            body: queue_handoff,
        },
        NamedModel {
            name: "serve/queue-shutdown-wakes",
            about: "shutdown wakes a consumer parked on an empty queue",
            expect: Expect::Pass,
            tune: forbid_rescue,
            body: queue_shutdown_wakes,
        },
        NamedModel {
            name: "serve/queue-drain-on-shutdown",
            about: "jobs queued before shutdown are delivered before Shutdown",
            expect: Expect::Pass,
            tune: forbid_rescue,
            body: queue_drain_on_shutdown,
        },
        NamedModel {
            name: "serve/queue-cancel-vs-pop",
            about: "tenant cancel racing a pop delivers or sweeps exactly once",
            expect: Expect::Pass,
            tune: forbid_rescue,
            body: queue_cancel_vs_pop,
        },
        NamedModel {
            name: "serve/queue-mutant-push-no-notify",
            about: "SEEDED DEFECT: push without notify loses the parked consumer's wakeup",
            expect: Expect::Violation(ViolationKind::LostWakeup),
            tune: forbid_rescue,
            body: queue_mutant_push_no_notify,
        },
    ]
}
