//! Cancellable barriers for the functional runtime.
//!
//! `std::sync::Barrier` has no way out: once a worker waits, it stays
//! until all its peers arrive. That is exactly wrong for a run in which
//! one CPE hits a structured failure (a DMA retry budget, a mesh
//! deadlock) — its 63 peers would hang on the next `sync` forever. A
//! [`CancellableBarrier`] adds a poisoned state: [`CancellableBarrier::
//! cancel`] fails every current and future waiter with
//! [`BarrierCancelled`], which the CPE context converts into an orderly
//! unwind, letting [`crate::CoreGroup::try_run`] collect the failure
//! and return.
//!
//! Every participant is a CPE fiber of one run on one thread (see
//! [`sw_check::fiber`]), so the barrier is plain cells: arrival bumps
//! a count, the last arrival bumps the generation. A waiter suspends to
//! the next fiber until its generation is released. It gives up when
//! the barrier is poisoned, when the run's cancel token has fired
//! ([`fiber::cancelled`]) or when the executor finds the run
//! deadlocked ([`fiber::deadlocked`]). Off a fiber no peer can ever
//! arrive, so a wait that is not the last arrival fails at once.

use std::cell::Cell;
use sw_arch::coord::{MESH_ROWS, N_CPES};
use sw_check::fiber;

/// The barrier was cancelled while (or before) waiting; the run is
/// being torn down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BarrierCancelled;

/// A reusable barrier whose waiters can be released early by
/// [`CancellableBarrier::cancel`].
pub(crate) struct CancellableBarrier {
    n: usize,
    /// Waiters that have arrived in the current generation.
    count: Cell<usize>,
    /// Bumped when a generation completes, releasing its waiters.
    generation: Cell<u64>,
    poisoned: Cell<bool>,
    /// The maximum simulated clock brought to the current generation.
    clock: Cell<u64>,
    /// The maximum of the last released generation. It stays valid
    /// until every waiter of that generation has read it: the next
    /// generation cannot complete while one of them is still inside.
    released: Cell<u64>,
}

impl CancellableBarrier {
    pub fn new(n: usize) -> Self {
        CancellableBarrier {
            n,
            count: Cell::new(0),
            generation: Cell::new(0),
            poisoned: Cell::new(false),
            clock: Cell::new(0),
            released: Cell::new(0),
        }
    }

    /// Blocks until all `n` participants arrive (Ok) or the wait is
    /// given up (Err). A cancelled barrier fails all future waits too.
    #[cfg(test)]
    pub fn wait(&self) -> Result<(), BarrierCancelled> {
        self.wait_clock(0).map(|_| ())
    }

    /// [`CancellableBarrier::wait`], exchanging simulated clocks: every
    /// participant brings its own clock and all are released with the
    /// **maximum** across the generation. The flight recorder jumps
    /// each CPE's clock to the returned value (charging the skipped
    /// cycles as barrier wait), which is exactly the semantics of a
    /// lockstep `sync_all` — after it, all 64 clocks agree, making
    /// cross-CPE event timestamps comparable.
    pub fn wait_clock(&self, clock: u64) -> Result<u64, BarrierCancelled> {
        if self.poisoned.get() || fiber::cancelled() {
            return Err(BarrierCancelled);
        }
        let gen = self.generation.get();
        self.clock.set(self.clock.get().max(clock));
        self.count.set(self.count.get() + 1);
        if self.count.get() == self.n {
            let max = self.clock.replace(0);
            self.released.set(max);
            self.count.set(0);
            self.generation.set(gen + 1);
            return Ok(max);
        }
        loop {
            // A completed generation wins over a later cancel.
            if self.generation.get() != gen {
                fiber::note_progress();
                return Ok(self.released.get());
            }
            if self.poisoned.get() || fiber::cancelled() || fiber::deadlocked() || !fiber::suspend()
            {
                return Err(BarrierCancelled);
            }
        }
    }

    /// Poisons the barrier: every waiter fails at its next check.
    pub fn cancel(&self) {
        self.poisoned.set(true);
    }
}

/// The barriers of one functional run: the 64-wide `sync_all` barrier
/// and the eight 8-wide row barriers.
pub(crate) struct RunSync {
    pub all: CancellableBarrier,
    pub rows: [CancellableBarrier; MESH_ROWS],
}

impl RunSync {
    pub fn new() -> Self {
        RunSync {
            all: CancellableBarrier::new(N_CPES),
            rows: std::array::from_fn(|_| CancellableBarrier::new(8)),
        }
    }

    /// Cancels every barrier of the run (a CPE is aborting).
    pub fn cancel_all(&self) {
        self.all.cancel();
        for r in &self.rows {
            r.cancel();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use sw_check::fiber::Fibers;

    #[test]
    fn barrier_releases_all_waiters() {
        let b = CancellableBarrier::new(4);
        let passed = Cell::new(0);
        let panics = Fibers::new(4).run(&|_| {
            for _ in 0..10 {
                b.wait().unwrap();
                passed.set(passed.get() + 1);
            }
        });
        assert!(panics.is_empty());
        assert_eq!(passed.get(), 40);
    }

    #[test]
    fn generations_do_not_bleed_into_each_other() {
        // Hammer the reuse path on fibers: a fast fiber must never slip
        // through a stale generation while a slow peer is still leaving
        // the previous one.
        let b = CancellableBarrier::new(8);
        let inside = Cell::new(0);
        let panics = Fibers::new(8).run(&|i| {
            for round in 0..500 {
                b.wait().unwrap();
                inside.set(inside.get() + 1);
                assert!(inside.get() <= 8, "more waiters inside than participants");
                if (round + i) % 3 == 0 {
                    // Stagger the leavers across passes.
                    fiber::suspend();
                }
                b.wait().unwrap();
                inside.set(inside.get() - 1);
            }
        });
        assert!(panics.is_empty());
        assert_eq!(inside.get(), 0);
    }

    #[test]
    fn wait_clock_releases_every_generation_maximum() {
        // 4 participants, 200 generations; participant p brings clock
        // g*10 + p, so every release must return g*10 + 3, also when
        // the fast participants already deposit into the next one.
        let b = CancellableBarrier::new(4);
        let panics = Fibers::new(4).run(&|p| {
            let p = p as u64;
            for g in 0..200u64 {
                let got = b.wait_clock(g * 10 + p).unwrap();
                assert_eq!(got, g * 10 + 3, "participant {p} generation {g}");
            }
        });
        assert!(panics.is_empty());
    }

    #[test]
    fn cancel_fails_current_and_future_waiters() {
        let b = CancellableBarrier::new(3);
        let got = RefCell::new(Vec::new());
        Fibers::new(2).run(&|i| {
            if i == 0 {
                let r = b.wait();
                got.borrow_mut().push(r);
            } else {
                // Fiber 0 is already waiting.
                b.cancel();
            }
        });
        assert_eq!(*got.borrow(), [Err(BarrierCancelled)]);
        // Late arrivals fail immediately instead of hanging.
        assert_eq!(b.wait(), Err(BarrierCancelled));
    }

    #[test]
    fn a_cancel_beside_the_last_arrival_strands_nobody() {
        // Two waiters and a canceller, in every order on the fibers: a
        // waiter passes (a completed generation wins over a later
        // cancel) or fails, but every fiber returns, and the poison is
        // permanent.
        for canceller in 0..3 {
            let b = CancellableBarrier::new(2);
            let got = RefCell::new(Vec::new());
            let panics = Fibers::new(3).run(&|i| {
                if i == canceller {
                    b.cancel();
                } else {
                    let r = b.wait();
                    got.borrow_mut().push(r);
                }
            });
            assert!(panics.is_empty());
            let got = got.into_inner();
            assert_eq!(got.len(), 2, "canceller {canceller}");
            assert!(got
                .iter()
                .all(|r| matches!(r, Ok(()) | Err(BarrierCancelled))));
            assert_eq!(b.wait(), Err(BarrierCancelled));
        }
    }

    #[test]
    fn a_fired_cancel_predicate_fails_the_waiters() {
        // Fiber 0 waits on a barrier nobody else joins; fiber 1 raises
        // the run's cancel flag and keeps the run live, so the wait must
        // end on the cancel (at the next pass), not on a deadlock
        // verdict. The barrier itself stays unpoisoned.
        let b = CancellableBarrier::new(2);
        let raised = Cell::new(false);
        let got = RefCell::new(Vec::new());
        let panics = Fibers::new(2).run_cancellable(
            &|i| {
                if i == 0 {
                    let r = b.wait();
                    got.borrow_mut().push(r);
                } else {
                    raised.set(true);
                    for _ in 0..10 {
                        fiber::note_progress();
                        fiber::suspend();
                    }
                    assert_eq!(*got.borrow(), [Err(BarrierCancelled)]);
                }
            },
            &|| raised.get(),
        );
        assert!(panics.is_empty());
        assert!(!b.poisoned.get());
    }

    #[test]
    fn wait_clock_maximum_arrives_with_the_laggard() {
        // Fast participants bring small clocks and wait; the lagging
        // fiber shows up last, several passes later, carrying the
        // generation maximum. Everyone must observe the laggard's clock.
        let b = CancellableBarrier::new(4);
        let got = RefCell::new(Vec::new());
        Fibers::new(4).run(&|p| {
            if p == 3 {
                for _ in 0..5 {
                    fiber::note_progress();
                    fiber::suspend();
                }
                let r = b.wait_clock(999);
                got.borrow_mut().push((p, r));
            } else {
                let r = b.wait_clock(p as u64 + 1);
                got.borrow_mut().push((p, r));
            }
        });
        let mut got = got.into_inner();
        got.sort_by_key(|(p, _)| *p);
        assert_eq!(got, (0..4).map(|p| (p, Ok(999))).collect::<Vec<_>>());
    }

    #[test]
    fn a_barrier_short_of_participants_fails_once_the_run_is_deadlocked() {
        // Three of four participants ever arrive: the fiber executor
        // finds the run stuck and every waiter fails instead of hanging.
        let b = CancellableBarrier::new(4);
        let got = RefCell::new(Vec::new());
        Fibers::new(3).run(&|p| {
            let r = b.wait();
            got.borrow_mut().push((p, r));
        });
        assert_eq!(
            *got.borrow(),
            (0..3)
                .map(|p| (p, Err(BarrierCancelled)))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn a_wait_off_a_fiber_fails_instead_of_spinning() {
        let b = CancellableBarrier::new(2);
        assert_eq!(b.wait(), Err(BarrierCancelled));
        let single = CancellableBarrier::new(1);
        assert_eq!(single.wait_clock(7), Ok(7));
    }
}
