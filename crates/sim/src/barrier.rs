//! Cancellable barriers for the 64-thread runtime.
//!
//! `std::sync::Barrier` has no way out: once a worker waits, it stays
//! until all its peers arrive. That is exactly wrong for a run in which
//! one CPE hits a structured failure (a DMA retry budget, a mesh
//! deadlock) — its 63 peers would hang on the next `sync` forever. A
//! [`CancellableBarrier`] adds a poisoned state: [`CancellableBarrier::
//! cancel`] wakes every current and future waiter with
//! [`BarrierCancelled`], which the CPE context converts into an orderly
//! unwind, letting [`crate::CoreGroup::try_run`] collect the failure
//! and return.
//!
//! The implementation is a sense-reversing barrier on atomics: arrival
//! is one `fetch_add`, the release is one generation-counter bump, and
//! waiters observe it with a spin → yield → park progression instead of
//! taking a mutex on every crossing. `sync_all` fires between every
//! strip step of every functional run, so the fast path (all 64 CPEs
//! arrive within a few microseconds of each other, the common case on a
//! many-core host) stays entirely in userspace; only stragglers fall
//! back to a condvar with a short timed park.

// Concurrency vocabulary comes from the sw-check facade: plain `std`
// re-exports in a normal build (zero-cost, the hot path is unchanged),
// checker-instrumented types under `--cfg sw_check` so this exact
// source is model-checked by `check_models`.
use std::sync::Arc;
use sw_arch::coord::{MESH_ROWS, N_CPES};
use sw_check::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use sw_check::sync::{Condvar, Mutex};
use sw_check::time::Duration;

/// The barrier was cancelled while (or before) waiting; the run is
/// being torn down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BarrierCancelled;

/// Busy-spin rounds (exponential, `2^k` spins each) before yielding.
/// Under the model checker the spin/yield phases shrink to one round
/// each so small models reach every phase (including the condvar park)
/// within a few scheduler steps.
#[cfg(not(sw_check))]
const SPIN_ROUNDS: u32 = 6;
#[cfg(sw_check)]
const SPIN_ROUNDS: u32 = 1;
/// `yield_now` rounds before parking on the condvar.
#[cfg(not(sw_check))]
const YIELD_ROUNDS: u32 = 10;
#[cfg(sw_check)]
const YIELD_ROUNDS: u32 = 1;
/// Timed-park quantum; bounds the cost of a missed wakeup without a
/// handshake on every release.
const PARK_TIMEOUT: Duration = Duration::from_millis(1);

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
    /// Parking lot for stragglers; the lock guards nothing but the
    /// condvar protocol.
    lock: Mutex<()>,
    cv: Condvar,
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
            lock: Mutex::new(()),
            cv: Condvar::new(),
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
            // spinning waiters of *this* generation will look.
            let max = self.clocks[slot].swap(0, Ordering::AcqRel);
            self.released[slot].store(max, Ordering::Release);
            // Reset the count for the next generation *before*
            // publishing the release — a peer can only re-enter `wait`
            // after observing the bump, so no new arrival can race the
            // reset.
            self.count.store(0, Ordering::Release);
            self.generation.fetch_add(1, Ordering::Release);
            // Pair with parked waiters: taking the lock orders this
            // notify after any park-side re-check in progress.
            drop(self.lock.lock().unwrap_or_else(|e| e.into_inner()));
            self.cv.notify_all();
            return Ok(max);
        }
        let mut round = 0u32;
        loop {
            // A completed generation wins over a concurrent cancel,
            // matching the lock-based predecessor's semantics.
            if self.generation.load(Ordering::Acquire) != gen {
                // The Acquire load above synchronizes with the
                // generation bump, which the releaser ordered after
                // the `released` publish.
                return Ok(self.released[slot].load(Ordering::Acquire));
            }
            if self.cancelled.load(Ordering::Acquire) {
                return Err(BarrierCancelled);
            }
            if round < SPIN_ROUNDS {
                for _ in 0..(1u32 << round) {
                    sw_check::hint::spin_loop();
                }
                round += 1;
            } else if round < SPIN_ROUNDS + YIELD_ROUNDS {
                sw_check::thread::yield_now();
                round += 1;
            } else {
                let guard = self.lock.lock().unwrap_or_else(|e| e.into_inner());
                // Re-check under the lock so a release that fired
                // between the atomic check and the park is not missed;
                // the timed wait is belt and braces on top.
                if self.generation.load(Ordering::Acquire) == gen
                    && !self.cancelled.load(Ordering::Acquire)
                {
                    let _ = self
                        .cv
                        .wait_timeout(guard, PARK_TIMEOUT)
                        .unwrap_or_else(|e| e.into_inner());
                }
            }
        }
    }

    /// Poisons the barrier, waking all waiters with an error.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Release);
        drop(self.lock.lock().unwrap_or_else(|e| e.into_inner()));
        self.cv.notify_all();
    }
}

/// Seeded defects for the model-check suite ([`crate::check_models`]):
/// mutated copies of the verified operations above, compiled only
/// under the checker cfg so production builds never contain them.
/// Every mutant must be *caught* by `sw-check` — a mutant that passes
/// means the suite lost its teeth.
#[cfg(sw_check)]
impl CancellableBarrier {
    /// `wait` with the under-lock re-check removed: a release or
    /// cancel firing between the lock-free check and the park is
    /// missed, and progress comes to depend on the timed park expiring
    /// — the checker's lost-wakeup signal.
    pub(crate) fn wait_mutant_park_unchecked(&self) -> Result<(), BarrierCancelled> {
        if self.cancelled.load(Ordering::Acquire) {
            return Err(BarrierCancelled);
        }
        let gen = self.generation.load(Ordering::Acquire);
        let slot = (gen & 1) as usize;
        self.clocks[slot].fetch_max(0, Ordering::AcqRel);
        if self.count.fetch_add(1, Ordering::AcqRel) + 1 == self.n {
            let max = self.clocks[slot].swap(0, Ordering::AcqRel);
            self.released[slot].store(max, Ordering::Release);
            self.count.store(0, Ordering::Release);
            self.generation.fetch_add(1, Ordering::Release);
            drop(self.lock.lock().unwrap_or_else(|e| e.into_inner()));
            self.cv.notify_all();
            return Ok(());
        }
        let mut round = 0u32;
        loop {
            if self.generation.load(Ordering::Acquire) != gen {
                return Ok(());
            }
            if self.cancelled.load(Ordering::Acquire) {
                return Err(BarrierCancelled);
            }
            if round < SPIN_ROUNDS {
                for _ in 0..(1u32 << round) {
                    sw_check::hint::spin_loop();
                }
                round += 1;
            } else if round < SPIN_ROUNDS + YIELD_ROUNDS {
                sw_check::thread::yield_now();
                round += 1;
            } else {
                let guard = self.lock.lock().unwrap_or_else(|e| e.into_inner());
                // MUTANT: the generation/cancel re-check belongs here.
                let _ = self
                    .cv
                    .wait_timeout(guard, PARK_TIMEOUT)
                    .unwrap_or_else(|e| e.into_inner());
            }
        }
    }

    /// `cancel` that poisons without notifying: a parked waiter is
    /// stranded until its timed park expires, which the checker
    /// reports as a lost wakeup.
    pub(crate) fn cancel_mutant_no_notify(&self) {
        self.cancelled.store(true, Ordering::Release);
        // MUTANT: the lock + notify_all belong here.
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
    use std::sync::atomic::{AtomicU64, Ordering};

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
        // Hammer the reuse path: a fast thread must never slip through
        // a stale generation while a slow peer is still leaving the
        // previous one.
        let b = CancellableBarrier::new(8);
        let inside = AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..500 {
                        b.wait().unwrap();
                        let seen = inside.fetch_add(1, Ordering::SeqCst);
                        assert!(seen < 8, "more waiters inside than participants");
                        b.wait().unwrap();
                        inside.fetch_sub(1, Ordering::SeqCst);
                    }
                });
            }
        });
        assert_eq!(inside.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn wait_clock_releases_every_generation_maximum() {
        // 4 participants, 200 generations; participant p brings clock
        // g*10 + p, so every release must return g*10 + 3 — including
        // across the parity flip between adjacent generations.
        let b = CancellableBarrier::new(4);
        std::thread::scope(|s| {
            for p in 0..4u64 {
                let b = &b;
                s.spawn(move || {
                    for g in 0..200u64 {
                        let got = b.wait_clock(g * 10 + p).unwrap();
                        assert_eq!(got, g * 10 + 3, "participant {p} generation {g}");
                    }
                });
            }
        });
    }

    #[test]
    fn cancel_wakes_current_and_future_waiters() {
        let b = CancellableBarrier::new(3);
        std::thread::scope(|s| {
            let h = s.spawn(|| b.wait());
            std::thread::sleep(std::time::Duration::from_millis(10));
            b.cancel();
            assert_eq!(h.join().unwrap(), Err(BarrierCancelled));
        });
        // Late arrivals fail immediately instead of hanging.
        assert_eq!(b.wait(), Err(BarrierCancelled));
    }

    #[test]
    fn cancel_racing_last_arrival_strands_nobody() {
        // The exhaustive interleaving version of this race is the
        // `sim/barrier-cancel-vs-last-arrival` model; this is the
        // tier-1 smoke test of the same property. Two waiters and a
        // canceller race: a waiter may pass (completed generation wins
        // over cancel) or fail, but every thread must return.
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
        // Fast participants bring small clocks and park; the lagging
        // CPE shows up last carrying the generation maximum. Everyone
        // — including the parked threads woken by the laggard's
        // release — must observe the laggard's clock.
        let b = CancellableBarrier::new(4);
        std::thread::scope(|s| {
            let mut fast = Vec::new();
            for p in 0..3u64 {
                let b = &b;
                fast.push(s.spawn(move || b.wait_clock(p + 1)));
            }
            // Long enough that the fast waiters exhaust their spin and
            // yield budgets and reach the condvar park.
            std::thread::sleep(std::time::Duration::from_millis(50));
            let got = b.wait_clock(999).unwrap();
            assert_eq!(got, 999, "laggard gets its own maximum back");
            for h in fast {
                assert_eq!(h.join().unwrap(), Ok(999), "parked waiter gets the max");
            }
        });
    }

    #[test]
    fn cancel_wakes_parked_waiters() {
        // Let the waiter reach the condvar-park phase before
        // cancelling, to cover the timed-park wakeup path.
        let b = CancellableBarrier::new(2);
        std::thread::scope(|s| {
            let h = s.spawn(|| b.wait());
            std::thread::sleep(std::time::Duration::from_millis(50));
            b.cancel();
            assert_eq!(h.join().unwrap(), Err(BarrierCancelled));
        });
    }
}
