//! Model-check suite for the mesh's lock-free primitives (compiled
//! only under `--cfg sw_check`, where [`crate::ring`] and
//! [`crate::turn`] run on the checker-instrumented types).
//!
//! The correct models prove, across every explored interleaving under
//! the simulated C11 memory model: the broadcast ring is race-free and
//! FIFO for every consumer, full/empty detection is exact, the claim
//! serializes two senders that break the single-sender rule, a line's
//! strip-step turn keeps one step's words ahead of the next step's, and
//! the backoff fuse always trips. Each property is paired with a
//! seeded-defect mutant (the `*-mutant-*` models, see the
//! `cfg(sw_check)` blocks in `ring.rs` and `turn.rs`) that the checker
//! must catch — run them via the `sw-check` binary or the crate's
//! `model_check` test.

use crate::ring::{Backoff, BroadcastRing, Episode};
use crate::turn::{LineTurn, Steps};
use std::sync::Arc;
use sw_arch::V256;
use sw_check::models::{Expect, NamedModel};
use sw_check::sync::Mutex;
use sw_check::time::Duration;
use sw_check::{thread, Config, ViolationKind};

fn no_tune(_: &mut Config) {}

/// The fuse model sleeps through many no-progress quiescence cycles
/// (that is the point of a timed-park fuse), so raise the livelock
/// strike budget above `timeout / PARK_SLEEP`.
fn fuse_tune(cfg: &mut Config) {
    cfg.livelock_limit = 128;
}

fn w(i: u64) -> V256 {
    V256::splat(i as f64)
}

/// Member `pos` pops its next word, yielding while the ring is empty.
fn pop(r: &BroadcastRing, pos: usize) -> V256 {
    loop {
        match r.try_pop(pos) {
            Some(v) => break v,
            None => thread::yield_now(),
        }
    }
}

/// Member `pos` claims the ring, yielding while another member holds it.
fn claim(r: &BroadcastRing, pos: usize) -> Episode<'_> {
    loop {
        match r.try_claim(pos) {
            Some(ep) => break ep,
            None => thread::yield_now(),
        }
    }
}

/// Member 0 streams 2 words through a capacity-1 ring while members 1
/// and 2 drain it at their own pace: each consumer sees every word in
/// order, the producer never laps the slower one, and no slot access
/// races.
fn ring_bcast_fifo() {
    let r = Arc::new(BroadcastRing::new(3, 1));
    let p = r.clone();
    let producer = thread::spawn(move || {
        let mut ep = claim(&p, 0);
        for i in 0..2 {
            while !ep.try_push(w(i), 0) {
                thread::yield_now();
            }
        }
    });
    let c = r.clone();
    let consumer = thread::spawn(move || {
        for i in 0..2 {
            assert_eq!(pop(&c, 1), w(i), "FIFO order violated (member 1)");
        }
    });
    for i in 0..2 {
        assert_eq!(pop(&r, 2), w(i), "FIFO order violated (member 2)");
    }
    assert_eq!(r.try_pop(2), None, "ring should be drained");
    producer.join().unwrap();
    consumer.join().unwrap();
}

/// Full/empty detection on a capacity-1 ring, single-threaded: the
/// boundary arithmetic (free-running cursors, wrap mask, the cached
/// limit across episodes) is exact.
fn ring_full_empty() {
    let r = BroadcastRing::new(2, 1);
    assert_eq!(r.try_pop(1), None, "fresh ring must be empty");
    let mut ep = r.try_claim(0).unwrap();
    assert!(ep.try_push(w(1), 0));
    assert!(!ep.try_push(w(2), 0), "capacity-1 ring must report full");
    drop(ep);
    assert_eq!(r.try_pop(1), Some(w(1)));
    assert_eq!(r.try_pop(1), None);
    assert_eq!(r.try_pop(0), None, "the sender never reads its own word");
    // Wrap once more, in a new episode, to cross the index mask.
    let mut ep = r.try_claim(0).unwrap();
    assert!(ep.try_push(w(3), 0));
    drop(ep);
    assert_eq!(r.try_pop(1), Some(w(3)));
}

/// Two members broadcast at once on one line — the schedule the
/// collective scheme forbids. The claim serializes their episodes (an
/// unserialized pair would both write slot 0 and race): each sender
/// then reads the other's word, and the third member receives both, in
/// one order or the other.
fn ring_claim_serializes_senders() {
    let r = Arc::new(BroadcastRing::new(3, 2));
    let other = r.clone();
    let t = thread::spawn(move || {
        assert!(claim(&other, 1).try_push(w(20), 0), "two words fit");
    });
    assert!(claim(&r, 0).try_push(w(10), 0), "two words fit");
    t.join().unwrap();
    assert_eq!(r.try_pop(0), Some(w(20)));
    assert_eq!(r.try_pop(1), Some(w(10)));
    let got = (r.try_pop(2), r.try_pop(2));
    assert!(
        got == (Some(w(10)), Some(w(20))) || got == (Some(w(20)), Some(w(10))),
        "episodes interleaved or lost a word"
    );
}

/// Two strip steps on one line: member 0 broadcasts at step 0 in two
/// episodes, member 1 at step 1, and member 1's thread starts first.
/// The line is a locked FIFO — the fallback transport's shape. The lock
/// stands in for the ring's per-episode claim, which the ring models
/// cover: on the ring itself, the relaxed cursor and claim loads
/// multiply the interleavings past the exploration budget before the
/// mutant's schedule is reached. Once both senders are done, the
/// receiver must find every step-0 word ahead of the step-1 word.
/// `take` is [`Steps::try_take`] or its seeded mutant.
fn turn_model(take: fn(&Steps, bool) -> bool) {
    let line = Arc::new(Mutex::new(Vec::new()));
    let row = Arc::new(LineTurn::new());
    let steps = || Steps::new(row.clone(), Arc::new(LineTurn::new()));
    let broadcast = move |line: &Mutex<Vec<u64>>, s: &Steps, word: u64| {
        while !take(s, false) {
            thread::yield_now();
        }
        line.lock().unwrap().push(word);
    };
    let (l1, s1) = (line.clone(), steps());
    s1.end_step(); // step 0: member 1 only receives
    let late = thread::spawn(move || {
        broadcast(&l1, &s1, 2);
        s1.end_step();
    });
    let (l0, s0) = (line.clone(), steps());
    let early = thread::spawn(move || {
        broadcast(&l0, &s0, 0);
        broadcast(&l0, &s0, 1);
        s0.end_step();
    });
    late.join().unwrap();
    early.join().unwrap();
    assert_eq!(
        *line.lock().unwrap(),
        [0, 1, 2],
        "a step-1 word overtook a step-0 word"
    );
}

/// The line's turn orders two strip steps' episodes.
fn turn_orders_steps() {
    turn_model(|s, col_net| s.try_take(col_net));
}

/// Mutant: the step-0 sender passes the turn before its second
/// episode — the step-1 word can land between its two words.
fn turn_mutant_early_pass() {
    turn_model(|s, col_net| s.try_take_mutant_early_pass(col_net));
}

/// The deadlock fuse must trip in bounded (virtual) time when nothing
/// ever makes progress — the property that turns a wedged peer into a
/// structured `MeshError::Deadlock` instead of a hang.
fn backoff_fuse_trips() {
    let mut b = Backoff::new(Duration::from_micros(200));
    let mut rounds = 0u32;
    while b.snooze() {
        rounds += 1;
        assert!(rounds < 1_000, "fuse never tripped");
    }
}

/// A one-word producer/consumer pair driving `push` (a seeded
/// mutant of `try_push`) on a capacity-2 ring.
fn publish_one(push: fn(&mut Episode<'_>, V256, u8) -> bool) {
    let r = Arc::new(BroadcastRing::new(2, 2));
    let p = r.clone();
    let t = thread::spawn(move || {
        let mut ep = claim(&p, 0);
        assert!(push(&mut ep, w(7), 0));
    });
    assert_eq!(pop(&r, 1), w(7));
    t.join().unwrap();
}

/// Mutant: tail published with `Relaxed` — consumer slot read races.
fn ring_mutant_relaxed_tail() {
    publish_one(|ep, v, skip| ep.try_push_mutant_relaxed_tail(v, skip));
}

/// Mutant: slot written after the publish — consumer can pop junk.
fn ring_mutant_slot_after_publish() {
    publish_one(|ep, v, skip| ep.try_push_mutant_slot_after_publish(v, skip));
}

/// Mutant: the producer's fullness check ignores member 2's cursor, so
/// its second word overwrites the slot member 2 may still be reading.
fn ring_mutant_ignore_cursor() {
    let r = Arc::new(BroadcastRing::new(3, 1));
    let p = r.clone();
    let producer = thread::spawn(move || {
        let mut ep = claim(&p, 0);
        for i in 0..2 {
            while !ep.try_push_mutant_ignore_cursor(w(i), 0) {
                thread::yield_now();
            }
        }
    });
    let c = r.clone();
    let consumer = thread::spawn(move || {
        for i in 0..2 {
            assert_eq!(pop(&c, 1), w(i));
        }
    });
    // No value check here: the overwrite itself is the defect, and the
    // checker must report it as the race it is, not as a wrong word.
    for _ in 0..2 {
        pop(&r, 2);
    }
    producer.join().unwrap();
    consumer.join().unwrap();
}

/// Mutant: senders skip the claim — two concurrent episodes both
/// write slot 0.
fn ring_mutant_unclaimed() {
    let r = Arc::new(BroadcastRing::new(3, 2));
    let other = r.clone();
    let t = thread::spawn(move || {
        let mut ep = other.try_claim_mutant_unclaimed(1).unwrap();
        assert!(ep.try_push(w(20), 0));
    });
    let mut ep = r.try_claim_mutant_unclaimed(0).unwrap();
    assert!(ep.try_push(w(10), 0));
    drop(ep);
    t.join().unwrap();
}

/// Mutant: the fuse check is skipped — the waiter parks forever.
fn backoff_mutant_fuse_skip() {
    let mut b = Backoff::new(Duration::from_micros(200));
    let mut rounds = 0u32;
    loop {
        assert!(b.snooze_mutant_fuse_skip(), "mutant fuse cannot trip");
        rounds += 1;
        assert!(rounds < 10_000, "livelock detector should fire first");
    }
}

/// The mesh crate's registered models, consumed by the `sw-check`
/// binary and the crate's own `model_check` integration test.
pub fn models() -> Vec<NamedModel> {
    vec![
        NamedModel {
            name: "mesh/ring-bcast-fifo",
            about: "broadcast ring is race-free and FIFO per consumer under weak memory",
            expect: Expect::Pass,
            tune: no_tune,
            body: ring_bcast_fifo,
        },
        NamedModel {
            name: "mesh/ring-full-empty",
            about: "full/empty detection exact across the index wrap and episodes",
            expect: Expect::Pass,
            tune: no_tune,
            body: ring_full_empty,
        },
        NamedModel {
            name: "mesh/ring-claim-serializes",
            about: "the per-episode claim serializes two senders on one line",
            expect: Expect::Pass,
            tune: no_tune,
            body: ring_claim_serializes_senders,
        },
        NamedModel {
            name: "mesh/turn-orders-steps",
            about: "the line's strip-step turn keeps every step-0 word ahead of step 1",
            expect: Expect::Pass,
            tune: no_tune,
            body: turn_orders_steps,
        },
        NamedModel {
            name: "mesh/backoff-fuse",
            about: "deadlock fuse trips in bounded virtual time with no progress",
            expect: Expect::Pass,
            tune: fuse_tune,
            body: backoff_fuse_trips,
        },
        NamedModel {
            name: "mesh/ring-mutant-relaxed-tail",
            about: "SEEDED DEFECT: tail published Relaxed; slot access races",
            expect: Expect::Violation(ViolationKind::Race),
            tune: no_tune,
            body: ring_mutant_relaxed_tail,
        },
        NamedModel {
            name: "mesh/ring-mutant-slot-after-publish",
            about: "SEEDED DEFECT: slot written after publish; consumer races",
            expect: Expect::Violation(ViolationKind::Race),
            tune: no_tune,
            body: ring_mutant_slot_after_publish,
        },
        NamedModel {
            name: "mesh/ring-mutant-ignore-cursor",
            about: "SEEDED DEFECT: producer ignores one consumer's cursor; overwrite races",
            expect: Expect::Violation(ViolationKind::Race),
            tune: no_tune,
            body: ring_mutant_ignore_cursor,
        },
        NamedModel {
            name: "mesh/ring-mutant-unclaimed",
            about: "SEEDED DEFECT: senders skip the claim; concurrent episodes race on a slot",
            expect: Expect::Violation(ViolationKind::Race),
            tune: no_tune,
            body: ring_mutant_unclaimed,
        },
        NamedModel {
            name: "mesh/turn-mutant-early-pass",
            about: "SEEDED DEFECT: turn passed before the step's last episode; steps interleave",
            expect: Expect::Violation(ViolationKind::Assert),
            tune: no_tune,
            body: turn_mutant_early_pass,
        },
        NamedModel {
            name: "mesh/backoff-mutant-fuse-skip",
            about: "SEEDED DEFECT: fuse check skipped; waiter parks forever",
            expect: Expect::Violation(ViolationKind::Livelock),
            tune: no_tune,
            body: backoff_mutant_fuse_skip,
        },
    ]
}
