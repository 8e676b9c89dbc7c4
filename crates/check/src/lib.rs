//! `sw-check`: the functional runtime's fiber executor, and a
//! deterministic-scheduler model checker (in the style of loom) for the
//! lock-and-condvar code that still runs across OS threads: the
//! service's tenant queues.
//!
//! # Three faces
//!
//! **The fiber executor** ([`fiber`]) runs a core group's 64 CPE bodies
//! round-robin on one thread, decides when such a run is deadlocked,
//! and polls the run's cancel predicate once per pass. Everything the
//! CPEs of a run share is plain single-thread memory, so nothing of it
//! needs a model checker.
//!
//! **The facade** ([`sync`]) is what the service's queues import in
//! place of `std`. In a normal build it re-exports `std` — zero cost,
//! nothing instrumented. Compiled with `RUSTFLAGS='--cfg sw_check'` it
//! switches to the instrumented [`checked`] types, and the same queue
//! source becomes model-checkable. Models spawn their threads with
//! [`checked::thread::spawn`].
//!
//! **The checker** ([`check`], [`Config`], [`models`]) explores every
//! interleaving of a small model's lock, condvar and thread operations
//! (up to DPOR equivalence and the configured budgets). It reports
//! deadlocks, lost wakeups (progress that needed a timed park to
//! expire), livelocks and failed assertions, each with the exact
//! interleaving as a schedule trace and a token that replays it
//! deterministically.
//!
//! The checker itself is always compiled (its [`checked`] types fall
//! back to real `std` behaviour outside a model execution), so the
//! built-in model suite runs under plain `cargo test`; only the
//! service's queue models need the `sw_check` cfg.

mod engine;
mod explore;

pub mod checked;
pub mod fiber;
pub mod models;
pub mod report;

pub use explore::{check, Config, Strategy};
pub use report::{CheckReport, ExploreStats, Outcome, Schedule, Violation, ViolationKind};

/// `std::sync` vocabulary for the instrumented queues. Normal builds
/// re-export `std`; `--cfg sw_check` builds substitute the
/// checker-instrumented types with the same API.
pub mod sync {
    #[cfg(not(sw_check))]
    pub use std::sync::{Condvar, Mutex};

    #[cfg(sw_check)]
    pub use crate::checked::{Condvar, Mutex};
}
