//! The exploration driver: runs a model body under the deterministic
//! scheduler over and over, steering each execution down a different
//! interleaving via the DPOR stack (or the bounded-preemption
//! fallback), until the space is exhausted, a budget trips, or a
//! violation is found.

use crate::engine::{Engine, EngineConfig};
use crate::report::{render_step, CheckReport, ExploreStats, Outcome, Schedule, Violation};
use std::sync::Arc;

/// How alternative schedules are generated.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Strategy {
    /// Dynamic partial-order reduction: backtrack only at steps that
    /// were dependent with a later step of another thread. Exhaustive
    /// up to equivalence (within the other budgets).
    Dpor,
    /// Try every runnable thread at every decision point, pruning
    /// schedules with more than this many preemptive context switches.
    /// Not exhaustive — a fallback for models whose DPOR closure is
    /// too large — and loud about what it pruned.
    BoundedPreemption(u32),
}

/// Exploration configuration. The defaults exhaust small models (2–4
/// threads, tens of visible ops); every budget that can truncate the
/// search is counted in [`ExploreStats`] and demotes a `Pass` to
/// `PassBounded`.
#[derive(Clone, Debug)]
pub struct Config {
    /// Seed for the default-policy tie-break (any value works; fixed
    /// default keeps runs reproducible).
    pub seed: u64,
    /// Max complete interleavings to explore.
    pub max_executions: u64,
    /// Max visible ops per interleaving (cuts runaway loops).
    pub max_steps_per_exec: usize,
    pub strategy: Strategy,
    /// Treat any forced condvar-timeout rescue as a lost-wakeup
    /// violation. Turn on for models whose progress must never depend
    /// on a timed park expiring.
    pub forbid_timeout_rescue: bool,
    /// Consecutive no-progress quiescence cycles before a livelock is
    /// reported. Models that legitimately wait out many timed parks
    /// (e.g. a backoff fuse) need this above `fuse_timeout / park`.
    pub livelock_limit: u32,
    /// Replay exactly one schedule (from [`Schedule::parse`]) instead
    /// of exploring.
    pub replay: Option<Schedule>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            seed: 0,
            max_executions: 20_000,
            max_steps_per_exec: 5_000,
            strategy: Strategy::Dpor,
            forbid_timeout_rescue: false,
            livelock_limit: 16,
            replay: None,
        }
    }
}

/// Model-checks `body`: runs it under the deterministic scheduler
/// across interleavings until exhaustion, a violation, or a budget.
/// The body runs once per explored interleaving and must construct
/// all shared state itself (typically in `Arc`s handed to
/// [`crate::checked::thread::spawn`]ed workers).
pub fn check(cfg: &Config, body: impl Fn() + Send + Sync + 'static) -> CheckReport {
    let engine_cfg = EngineConfig {
        seed: cfg.seed,
        max_steps: cfg.max_steps_per_exec,
        preemption_bound: match cfg.strategy {
            Strategy::Dpor => None,
            Strategy::BoundedPreemption(k) => Some(k),
        },
        forbid_timeout_rescue: cfg.forbid_timeout_rescue,
        livelock_limit: cfg.livelock_limit.max(1),
    };
    let engine = Engine::new(engine_cfg, Arc::new(body));
    let mut stats = ExploreStats::default();
    let mut forced = cfg.replay.clone().unwrap_or_default();
    let outcome = loop {
        engine.reset_execution(forced.clone());
        engine.start_root();
        engine.wait_and_reap();

        let mut st = engine.lock();
        stats.executions += 1;
        stats.steps += st.exec.trace.len() as u64;
        if st.step_budget_hit {
            stats.step_budget_hits += 1;
        }
        if let Some(err) = st.internal_error.take() {
            break Outcome::Internal(err);
        }
        if let Some(v) = st.violation.take() {
            let trace = v
                .trace
                .iter()
                .map(|s| render_step(s, &v.thread_names, &v.loc_kinds))
                .collect();
            break Outcome::Violation(Violation {
                kind: v.kind,
                message: v.message,
                trace,
                schedule: v.schedule.token(),
            });
        }
        if cfg.replay.is_some() {
            break Outcome::Pass;
        }
        if stats.executions >= cfg.max_executions {
            stats.truncated_branches = st.stack.iter().map(|f| f.pending.len() as u64).sum();
            break if stats.truncated() {
                Outcome::PassBounded
            } else {
                Outcome::Pass
            };
        }
        // Steer the next execution: pop the deepest pending choice,
        // truncating the stack above it; done when none remain.
        let advanced = loop {
            let Some(frame) = st.stack.last_mut() else {
                break false;
            };
            if let Some(c) = frame.pending.pop() {
                frame.tried.push(c);
                frame.choice = c;
                stats.branches += 1;
                break true;
            }
            st.stack.pop();
        };
        if !advanced {
            break if stats.truncated() {
                Outcome::PassBounded
            } else {
                Outcome::Pass
            };
        }
        st.forced = Schedule(st.stack.iter().map(|f| f.choice).collect());
        forced = st.forced.clone();
    };
    stats.preemption_pruned = engine.lock().preemption_pruned;
    if stats.preemption_pruned > 0 {
        // Pruning alone also demotes a clean pass.
        if matches!(outcome, Outcome::Pass) {
            return CheckReport {
                outcome: Outcome::PassBounded,
                stats,
            };
        }
    }
    CheckReport { outcome, stats }
}
