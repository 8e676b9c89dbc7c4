//! Model-check suite for the cancellable barrier (compiled only under
//! `--cfg sw_check`, where [`crate::barrier`] runs on the
//! checker-instrumented types).
//!
//! The models prove, across every explored interleaving under the
//! simulated C11 memory model: a release frees every waiter,
//! `wait_clock` returns the generation maximum to every participant
//! (including a lagging one), cancel never strands a waiter — even
//! racing the last arrival — and the barrier is reusable across
//! generations. Waiters yield between checks, so a waiter that could
//! never be released shows up as the checker's deadlock or livelock.

use crate::barrier::{BarrierCancelled, CancellableBarrier};
use std::sync::Arc;
use sw_check::models::{Expect, NamedModel};
use sw_check::{thread, Config};

fn no_tune(_: &mut Config) {}

/// Two participants cross one generation; no interleaving may race or
/// deadlock.
fn barrier_release() {
    let b = Arc::new(CancellableBarrier::new(2));
    let w = b.clone();
    let t = thread::spawn(move || {
        w.wait().unwrap();
    });
    b.wait().unwrap();
    t.join().unwrap();
}

/// Every participant must be released with the generation's clock
/// maximum, even when the slowest clock arrives last.
fn barrier_wait_clock_max() {
    let b = Arc::new(CancellableBarrier::new(2));
    let w = b.clone();
    let t = thread::spawn(move || {
        assert_eq!(w.wait_clock(9).unwrap(), 9, "lagging participant");
    });
    assert_eq!(b.wait_clock(5).unwrap(), 9, "leading participant");
    t.join().unwrap();
}

/// Two back-to-back generations: the count reset and the parity slots
/// must not bleed between them.
fn barrier_reuse() {
    let b = Arc::new(CancellableBarrier::new(2));
    let w = b.clone();
    let t = thread::spawn(move || {
        assert_eq!(w.wait_clock(1).unwrap(), 2);
        assert_eq!(w.wait_clock(3).unwrap(), 4);
    });
    assert_eq!(b.wait_clock(2).unwrap(), 2);
    assert_eq!(b.wait_clock(4).unwrap(), 4);
    t.join().unwrap();
}

/// Cancel must release a blocked waiter (the barrier wants 2 arrivals
/// and only ever gets 1) and fail all later waits.
fn barrier_cancel_wakes() {
    let b = Arc::new(CancellableBarrier::new(2));
    let w = b.clone();
    let t = thread::spawn(move || {
        assert_eq!(w.wait(), Err(BarrierCancelled));
    });
    b.cancel();
    t.join().unwrap();
    assert_eq!(
        b.wait(),
        Err(BarrierCancelled),
        "late arrival must fail fast"
    );
}

/// Cancel racing the last arrival: either the generation completes
/// (both Ok) or the cancel wins for one or both waiters — but nobody
/// may strand or race.
fn barrier_cancel_vs_last_arrival() {
    let b = Arc::new(CancellableBarrier::new(2));
    let w = b.clone();
    let t = thread::spawn(move || {
        let _ = w.wait(); // Ok or Err depending on the race — both fine
    });
    let c = b.clone();
    let canceller = thread::spawn(move || {
        c.cancel();
    });
    let _ = b.wait();
    t.join().unwrap();
    canceller.join().unwrap();
}

/// The sim crate's registered models, consumed by the `sw-check`
/// binary and the crate's own `model_check` integration test.
pub fn models() -> Vec<NamedModel> {
    vec![
        NamedModel {
            name: "sim/barrier-release",
            about: "one generation releases both waiters",
            expect: Expect::Pass,
            tune: no_tune,
            body: barrier_release,
        },
        NamedModel {
            name: "sim/barrier-wait-clock-max",
            about: "wait_clock returns the generation maximum to every participant",
            expect: Expect::Pass,
            tune: no_tune,
            body: barrier_wait_clock_max,
        },
        NamedModel {
            name: "sim/barrier-reuse",
            about: "generations do not bleed: count reset and parity slots hold",
            expect: Expect::Pass,
            tune: no_tune,
            body: barrier_reuse,
        },
        NamedModel {
            name: "sim/barrier-cancel",
            about: "cancel releases a blocked waiter and fails later waits",
            expect: Expect::Pass,
            tune: no_tune,
            body: barrier_cancel_wakes,
        },
        NamedModel {
            name: "sim/barrier-cancel-vs-last-arrival",
            about: "cancel racing the last arrival strands nobody",
            expect: Expect::Pass,
            tune: no_tune,
            body: barrier_cancel_vs_last_arrival,
        },
    ]
}
