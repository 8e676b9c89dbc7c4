//! Cooperative run cancellation.
//!
//! A [`CancelToken`] is the MPE-side handle a service layer (or a
//! deadline watchdog) uses to abandon an in-flight functional run:
//! firing it poisons the run's cancellable barriers, so every CPE
//! unwinds with [`crate::CpeError::Cancelled`] at its next sync point
//! instead of computing a result nobody is waiting for. CPEs blocked
//! inside a mesh episode are not parked on a barrier; firing also
//! raises the run's mesh cancel flag, which the ring transport polls
//! while waiting, so they unwind the same way. The fallback transport
//! waits in a condvar and stays bounded only by the mesh deadlock fuse,
//! which callers enforcing deadlines should shorten to their remaining
//! budget ([`crate::CoreGroup::set_mesh_timeout`]) — together these
//! make "cancelled request frees its core group promptly" a hard
//! property.
//!
//! The token is one-shot and sticky, like the barrier poison it rides
//! on: once fired it stays fired, and a run started with an
//! already-fired token unwinds at its first barrier. The *core group*
//! stays reusable — cancellation tears down one run's barriers, which
//! are per-run state; `run_on` recovery after a cancel is pinned by
//! `crates/core/tests/recovery.rs`.
//!
//! Firing records *why* (an explicit cancel or a deadline), so the
//! caller can tell a policy outcome ("you ran out of time") from a
//! real fault — `sw-dgemm` surfaces the distinction as
//! `DgemmError::Cancelled { deadline }`.

use crate::barrier::RunSync;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Mutex, Weak};

const LIVE: u8 = 0;
const EXPLICIT: u8 = 1;
const DEADLINE: u8 = 2;

/// A clonable, one-shot cancellation handle for functional runs.
///
/// Install it with [`crate::CoreGroup::set_cancel_token`] (or
/// `DgemmRunner::cancel` in `sw-dgemm`); any clone may fire it, from
/// any thread, before or during the run.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

#[derive(Debug, Default)]
struct Inner {
    /// `LIVE` until fired; then the reason, first cause wins.
    state: AtomicU8,
    /// The barriers of the run currently executing under this token
    /// (weak: the token must not keep a finished run's sync alive).
    active: Mutex<Weak<RunSync>>,
}

impl CancelToken {
    /// A fresh, unfired token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fires the token as an explicit caller cancellation.
    pub fn cancel(&self) {
        self.fire(EXPLICIT);
    }

    /// Fires the token as a deadline expiry (watchdog path); the run's
    /// error will carry `deadline = true`.
    pub fn cancel_deadline(&self) {
        self.fire(DEADLINE);
    }

    /// Whether the token has been fired (for any reason).
    pub fn is_cancelled(&self) -> bool {
        self.inner.state.load(Ordering::Acquire) != LIVE
    }

    /// Whether the token was fired by a deadline (false while live or
    /// after an explicit cancel).
    pub fn deadline_hit(&self) -> bool {
        self.inner.state.load(Ordering::Acquire) == DEADLINE
    }

    fn fire(&self, reason: u8) {
        // First cause wins; a second fire still (re-)cancels the
        // attached run — both operations are idempotent.
        let _ =
            self.inner
                .state
                .compare_exchange(LIVE, reason, Ordering::AcqRel, Ordering::Acquire);
        let sync = self
            .inner
            .active
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .upgrade();
        if let Some(sync) = sync {
            sync.cancel_by_token();
        }
    }

    /// Binds the token to a starting run's barriers. Called by
    /// `CoreGroup::try_run`; re-checks the state after publishing so a
    /// fire racing the attach can never be lost.
    pub(crate) fn attach(&self, sync: &Arc<RunSync>) {
        *self.inner.active.lock().unwrap_or_else(|e| e.into_inner()) = Arc::downgrade(sync);
        if self.is_cancelled() {
            sync.cancel_by_token();
        }
    }

    /// Unbinds the token when its run tears down.
    pub(crate) fn detach(&self) {
        *self.inner.active.lock().unwrap_or_else(|e| e.into_inner()) = Weak::new();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_reason_wins_and_is_sticky() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        t.cancel_deadline();
        assert!(t.is_cancelled() && t.deadline_hit());
        t.cancel(); // second fire does not rewrite the reason
        assert!(t.deadline_hit());
    }

    #[test]
    fn fire_before_attach_poisons_the_sync() {
        let t = CancelToken::new();
        t.cancel();
        let sync = Arc::new(RunSync::new());
        t.attach(&sync);
        // The barrier must already be poisoned for any waiter.
        assert!(sync.all.wait_clock(0).is_err());
        t.detach();
    }

    #[test]
    fn fire_after_attach_cancels_waiters() {
        let t = CancelToken::new();
        let sync = Arc::new(RunSync::new());
        t.attach(&sync);
        std::thread::scope(|s| {
            let h = s.spawn(|| sync.all.wait_clock(0));
            std::thread::sleep(std::time::Duration::from_millis(10));
            t.cancel();
            assert!(h.join().unwrap().is_err());
        });
    }

    #[test]
    fn detach_drops_the_run_reference() {
        let t = CancelToken::new();
        let sync = Arc::new(RunSync::new());
        t.attach(&sync);
        t.detach();
        t.cancel(); // fires into nothing; must not panic
        assert!(t.is_cancelled() && !t.deadline_hit());
    }
}
