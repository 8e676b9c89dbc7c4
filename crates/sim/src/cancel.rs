//! Cooperative run cancellation.
//!
//! A [`CancelToken`] is the MPE-side handle a service layer (or a
//! deadline watchdog) uses to abandon an in-flight functional run. It
//! is the one input of a run that another thread may write: a single
//! atomic state. The fiber executor polls it once per pass (see
//! [`sw_check::fiber::Fibers::run_cancellable`]); once it has fired,
//! every barrier wait and every blocked mesh wait of the run gives up,
//! so every CPE unwinds with [`crate::CpeError::Cancelled`] at its next
//! sync point instead of computing a result nobody is waiting for.
//! That makes "a cancelled request frees its core group promptly" a
//! hard property.
//!
//! The token is one-shot and sticky: once fired it stays fired, and a
//! run started with an already-fired token unwinds at its first
//! barrier. The *core group* stays reusable — the stop is per-run
//! state; `run_on` recovery after a cancel is pinned by
//! `crates/core/tests/recovery.rs`.
//!
//! Firing records *why* (an explicit cancel or a deadline), so the
//! caller can tell a policy outcome ("you ran out of time") from a
//! real fault — `sw-dgemm` surfaces the distinction as
//! `DgemmError::Cancelled { deadline }`.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;

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
    /// `LIVE` until fired; then the reason, first cause wins.
    state: Arc<AtomicU8>,
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
        self.state.load(Ordering::Acquire) != LIVE
    }

    /// Whether the token was fired by a deadline (false while live or
    /// after an explicit cancel).
    pub fn deadline_hit(&self) -> bool {
        self.state.load(Ordering::Acquire) == DEADLINE
    }

    fn fire(&self, reason: u8) {
        // First cause wins; a second fire changes nothing.
        let _ = self
            .state
            .compare_exchange(LIVE, reason, Ordering::AcqRel, Ordering::Acquire);
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
    fn clones_share_one_state() {
        let t = CancelToken::new();
        let other = t.clone();
        std::thread::spawn(move || other.cancel()).join().unwrap();
        assert!(t.is_cancelled() && !t.deadline_hit());
    }
}
