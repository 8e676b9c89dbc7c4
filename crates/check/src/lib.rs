//! `sw-check`: a deterministic-scheduler model checker (in the style
//! of loom/CDSChecker) plus a happens-before race detector for the
//! runtime's concurrency layer — the cancellable barrier, the flight
//! recorder and the service's tenant queues.
//!
//! # Two faces
//!
//! **The facade modules** ([`sync`], [`cell`], [`thread`], [`time`])
//! are what the production crates import in place of `std`.
//! In a normal build they are direct `std` re-exports (plus a
//! `#[repr(transparent)]` cell wrapper) — zero cost, nothing
//! instrumented — except [`thread::yield_now`], which yields to the
//! next [`fiber`] when called on one. Compiled with
//! `RUSTFLAGS='--cfg sw_check'` they switch to the instrumented
//! [`checked`] types, and the same primitive source code becomes
//! model-checkable.
//!
//! **The fiber executor** ([`fiber`]) runs the functional runtime's
//! 64 CPE bodies round-robin on one thread, and decides when such a
//! run is deadlocked.
//!
//! **The checker** ([`check`], [`Config`], [`models`]) explores every
//! interleaving of a small model (up to DPOR equivalence and the
//! configured budgets) under a simulated C11 memory model:
//! Relaxed/Acquire/Release are distinguished (a relaxed load really
//! can observe a stale value), release sequences follow the
//! post-C++17 rules, and plain-memory accesses are race-checked with
//! vector clocks. Violations come with the exact interleaving as a
//! schedule trace and a token that replays it deterministically.
//!
//! The checker itself is always compiled (its [`checked`] types fall
//! back to real `std` behaviour outside a model execution), so the
//! built-in model suite runs under plain `cargo test`; only the
//! *ported production primitives* need the `sw_check` cfg.

mod engine;
mod explore;
mod hb;

pub mod checked;
pub mod fiber;
pub mod models;
pub mod report;

pub use explore::{check, Config, Strategy};
pub use report::{CheckReport, ExploreStats, Outcome, Schedule, Violation, ViolationKind};

/// `std::sync` vocabulary for the instrumented primitives. Normal
/// builds re-export `std`; `--cfg sw_check` builds substitute the
/// checker-instrumented types with the same API.
#[cfg(not(sw_check))]
pub mod sync {
    pub use std::sync::{Condvar, Mutex, MutexGuard, WaitTimeoutResult};

    pub mod atomic {
        pub use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
    }
}

#[cfg(sw_check)]
pub mod sync {
    pub use crate::checked::{Condvar, Mutex, MutexGuard, WaitTimeoutResult};

    pub mod atomic {
        pub use crate::checked::{AtomicBool, AtomicU64, AtomicUsize};
        pub use std::sync::atomic::Ordering;
    }
}

/// Interior-mutability cell with the closure API the checker needs
/// (`with`/`with_mut`). The normal-build wrapper is
/// `#[repr(transparent)]` over `std::cell::UnsafeCell` and compiles to
/// the bare pointer accesses. Deliberately `!Sync` here, exactly like
/// `std`'s cell: containers assert their own sharing discipline;
/// under `sw_check` the checker verifies it.
pub mod cell {
    #[cfg(sw_check)]
    pub use crate::checked::UnsafeCell;

    #[cfg(not(sw_check))]
    #[derive(Debug, Default)]
    #[repr(transparent)]
    pub struct UnsafeCell<T>(std::cell::UnsafeCell<T>);

    #[cfg(not(sw_check))]
    impl<T> UnsafeCell<T> {
        #[inline(always)]
        pub fn new(v: T) -> Self {
            UnsafeCell(std::cell::UnsafeCell::new(v))
        }

        #[inline(always)]
        pub fn with<R>(&self, f: impl FnOnce(*const T) -> R) -> R {
            f(self.0.get())
        }

        #[inline(always)]
        pub fn with_mut<R>(&self, f: impl FnOnce(*mut T) -> R) -> R {
            f(self.0.get())
        }
    }
}

/// Thread yield/sleep/spawn for the instrumented primitives.
pub mod thread {
    #[cfg(not(sw_check))]
    pub use std::thread::{sleep, spawn, JoinHandle};

    #[cfg(sw_check)]
    pub use crate::checked::thread::{sleep, spawn, yield_now, JoinHandle};

    /// Yields the current [`crate::fiber`] to the next one when called
    /// on a fiber, and the OS thread's time slice otherwise.
    #[cfg(not(sw_check))]
    #[inline]
    pub fn yield_now() {
        if !crate::fiber::suspend() {
            std::thread::yield_now();
        }
    }
}

/// Time sources: virtual inside a model execution (`sw_check`), real
/// otherwise.
pub mod time {
    pub use std::time::Duration;

    #[cfg(not(sw_check))]
    pub use std::time::Instant;

    #[cfg(sw_check)]
    pub use crate::checked::time::Instant;
}
