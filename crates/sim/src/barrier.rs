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
//! The implementation is a sense-reversing barrier on atomics: arrival
//! is one `fetch_add`, the release is one generation-counter bump.
//! A waiter retries its check and, while the generation is unreleased,
//! yields — to the next CPE fiber when it runs on one (see
//! [`sw_check::fiber`]), to the OS scheduler otherwise. A run the
//! fiber executor finds deadlocked fails its barrier waits too.

// Concurrency vocabulary comes from the sw-check facade: plain `std`
// re-exports in a normal build (zero-cost, the hot path is unchanged),
// checker-instrumented types under `--cfg sw_check` so this exact
// source is model-checked by `check_models`.
use std::sync::Arc;
use sw_arch::coord::{MESH_ROWS, N_CPES};
use sw_check::fiber;
use sw_check::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

/// The barrier was cancelled while (or before) waiting; the run is
/// being torn down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BarrierCancelled;

/// A reusable barrier whose waiters can be released early by
/// [`CancellableBarrier::cancel`].
pub(crate) struct CancellableBarrier {
    n: usize,
    /// Waiters that have arrived in the current generation.
    count: AtomicUsize,
    /// Bumped when a generation completes, releasing its waiters.
    generation: AtomicU64,
    cancelled: AtomicBool,
    /// Simulated-clock maxima being gathered for the in-flight
    /// generation, indexed by generation parity. While generation `g`
    /// is collecting arrivals in slot `g & 1`, slot `(g+1) & 1` is
    /// untouched — a `g+1` arrival is only possible after `g` released
    /// and its last arrival zeroed the slot — so two slots suffice.
    clocks: [AtomicU64; 2],
    /// The released clock maximum per generation parity, published by
    /// the last arrival before it bumps `generation`.
    released: [AtomicU64; 2],
}

impl CancellableBarrier {
    pub fn new(n: usize) -> Self {
        CancellableBarrier {
            n,
            count: AtomicUsize::new(0),
            generation: AtomicU64::new(0),
            cancelled: AtomicBool::new(false),
            clocks: [AtomicU64::new(0), AtomicU64::new(0)],
            released: [AtomicU64::new(0), AtomicU64::new(0)],
        }
    }

    /// Blocks until all `n` participants arrive (Ok) or the barrier is
    /// cancelled (Err). A cancelled barrier fails all future waits too.
    #[cfg(any(test, sw_check))]
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
        if self.cancelled.load(Ordering::Acquire) {
            return Err(BarrierCancelled);
        }
        let gen = self.generation.load(Ordering::Acquire);
        let slot = (gen & 1) as usize;
        // Deposit this participant's clock before arriving: the
        // count RMW chain orders every deposit before the last
        // arrival's harvest below.
        self.clocks[slot].fetch_max(clock, Ordering::AcqRel);
        if self.count.fetch_add(1, Ordering::AcqRel) + 1 == self.n {
            // Last arrival: harvest the maximum and re-zero the slot
            // for generation gen+2 (which cannot start arriving until
            // this release is observed), then publish it where the
            // waiters of *this* generation will look.
            let max = self.clocks[slot].swap(0, Ordering::AcqRel);
            self.released[slot].store(max, Ordering::Release);
            // Reset the count for the next generation *before*
            // publishing the release — a peer can only re-enter `wait`
            // after observing the bump, so no new arrival can race the
            // reset.
            self.count.store(0, Ordering::Release);
            self.generation.fetch_add(1, Ordering::Release);
            return Ok(max);
        }
        loop {
            // A completed generation wins over a concurrent cancel,
            // matching the lock-based predecessor's semantics.
            if self.generation.load(Ordering::Acquire) != gen {
                fiber::note_progress();
                // The Acquire load above synchronizes with the
                // generation bump, which the releaser ordered after
                // the `released` publish.
                return Ok(self.released[slot].load(Ordering::Acquire));
            }
            if self.cancelled.load(Ordering::Acquire) || fiber::deadlocked() {
                return Err(BarrierCancelled);
            }
            sw_check::thread::yield_now();
        }
    }

    /// Poisons the barrier: every waiter fails at its next check.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Release);
    }
}

/// The barriers of one functional run: the 64-wide `sync_all` barrier
/// and the eight 8-wide row barriers, all sharing one cancellation.
pub(crate) struct RunSync {
    pub all: CancellableBarrier,
    pub rows: Vec<CancellableBarrier>,
    /// Raised only when the run's cancel token fires; the mesh polls it
    /// while blocked (`Mesh::set_cancel_flag`). A CPE's own abort does
    /// not raise it, so fault runs still stop at deterministic points.
    pub token_fired: Arc<std::sync::atomic::AtomicBool>,
}

impl RunSync {
    pub fn new() -> Self {
        RunSync {
            all: CancellableBarrier::new(N_CPES),
            rows: (0..MESH_ROWS).map(|_| CancellableBarrier::new(8)).collect(),
            token_fired: Arc::default(),
        }
    }

    /// Cancels the run on behalf of its cancel token: poisons every
    /// barrier and releases CPEs blocked in the mesh.
    pub fn cancel_by_token(&self) {
        // Relaxed: the flag publishes no data; a late read only delays
        // a blocked CPE's unwind by one backoff round.
        self.token_fired
            .store(true, std::sync::atomic::Ordering::Relaxed);
        self.cancel_all();
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
        let passed = AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..10 {
                        b.wait().unwrap();
                        passed.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });
        assert_eq!(passed.load(Ordering::Relaxed), 40);
    }

    #[test]
    fn generations_do_not_bleed_into_each_other() {
        // Hammer the reuse path on fibers: a fast fiber must never slip
        // through a stale generation while a slow peer is still leaving
        // the previous one.
        let b = CancellableBarrier::new(8);
        let inside = AtomicU64::new(0);
        let panics = Fibers::new(8).run(&|i| {
            for round in 0..500 {
                b.wait().unwrap();
                let seen = inside.fetch_add(1, Ordering::SeqCst);
                assert!(seen < 8, "more waiters inside than participants");
                if (round + i) % 3 == 0 {
                    // Stagger the leavers across passes.
                    sw_check::thread::yield_now();
                }
                b.wait().unwrap();
                inside.fetch_sub(1, Ordering::SeqCst);
            }
        });
        assert!(panics.is_empty());
        assert_eq!(inside.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn wait_clock_releases_every_generation_maximum() {
        // 4 participants, 200 generations; participant p brings clock
        // g*10 + p, so every release must return g*10 + 3 — including
        // across the parity flip between adjacent generations.
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
    fn cancel_racing_last_arrival_strands_nobody() {
        // The exhaustive interleaving version of this race is the
        // `sim/barrier-cancel-vs-last-arrival` model; this is the
        // tier-1 smoke test of the same property on OS threads. Two
        // waiters and a canceller race: a waiter may pass (completed
        // generation wins over cancel) or fail, but every thread must
        // return.
        for _ in 0..200 {
            let b = CancellableBarrier::new(2);
            std::thread::scope(|s| {
                let w1 = s.spawn(|| b.wait());
                let w2 = s.spawn(|| b.wait());
                s.spawn(|| b.cancel());
                for r in [w1.join().unwrap(), w2.join().unwrap()] {
                    assert!(matches!(r, Ok(()) | Err(BarrierCancelled)));
                }
            });
            // Whatever the race decided, the poison is now permanent.
            assert_eq!(b.wait(), Err(BarrierCancelled));
        }
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
                    sw_check::fiber::note_progress();
                    sw_check::thread::yield_now();
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
}
