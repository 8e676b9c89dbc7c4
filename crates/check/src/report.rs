//! Check outcomes: violations with rendered interleavings, replayable
//! schedule tokens, and exploration statistics (loud about every
//! budget that truncated the search).

use crate::engine::{LocKind, OpKind, TraceStep};
use std::fmt;

/// A scheduling path: the thread chosen at each decision point.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Schedule(pub Vec<usize>);

impl Schedule {
    /// Compact replay token, e.g. `0.1.1.2` — thread ids separated by
    /// dots.
    pub fn token(&self) -> String {
        self.0
            .iter()
            .map(|t| t.to_string())
            .collect::<Vec<_>>()
            .join(".")
    }

    /// Parses a token produced by [`Schedule::token`].
    pub fn parse(token: &str) -> Result<Schedule, String> {
        token
            .split('.')
            .filter(|p| !p.is_empty())
            .map(|part| {
                part.parse::<usize>()
                    .map_err(|_| format!("bad thread id in `{part}`"))
            })
            .collect::<Result<_, _>>()
            .map(Schedule)
    }
}

/// What went wrong on a violating interleaving.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ViolationKind {
    /// A model assertion or panic fired.
    Assert,
    /// All threads blocked with no pending deadline.
    Deadlock,
    /// Quiescence cycles without progress (spinning forever).
    Livelock,
    /// Progress required a forced condvar timeout: a waiter parked
    /// after its wakeup had already been delivered.
    LostWakeup,
}

impl ViolationKind {
    pub fn name(self) -> &'static str {
        match self {
            ViolationKind::Assert => "assertion",
            ViolationKind::Deadlock => "deadlock",
            ViolationKind::Livelock => "livelock",
            ViolationKind::LostWakeup => "lost-wakeup",
        }
    }
}

/// A checker-found violation, with the exact interleaving rendered as
/// a schedule trace and a token that replays it deterministically.
#[derive(Clone, Debug)]
pub struct Violation {
    pub kind: ViolationKind,
    pub message: String,
    /// Human-readable interleaving, one visible op per line.
    pub trace: Vec<String>,
    /// Replay token for `--replay` / `Config::replay`.
    pub schedule: String,
}

/// Exploration statistics. Every cap that cut the search short is
/// counted here and surfaced in the outcome — bounded exploration is
/// loud, never silent.
#[derive(Clone, Copy, Debug, Default)]
pub struct ExploreStats {
    /// Complete interleavings explored.
    pub executions: u64,
    /// Total visible ops executed across all interleavings.
    pub steps: u64,
    /// DPOR backtrack points (or bounded-preemption branches) taken.
    pub branches: u64,
    /// Branch points still pending when the execution budget ran out.
    pub truncated_branches: u64,
    /// Schedules pruned by the preemption bound.
    pub preemption_pruned: u64,
    /// Executions cut short by the per-execution step budget.
    pub step_budget_hits: u64,
}

impl ExploreStats {
    /// True when any budget truncated the search: a passing result is
    /// then only `PassBounded`, never `Pass`.
    pub fn truncated(&self) -> bool {
        self.truncated_branches > 0 || self.preemption_pruned > 0 || self.step_budget_hits > 0
    }
}

/// Final verdict of a [`crate::check`] run.
#[derive(Clone, Debug)]
pub enum Outcome {
    /// Every reachable interleaving was explored (up to DPOR
    /// equivalence) and no property failed.
    Pass,
    /// No violation found, but a budget truncated the search; the
    /// counts say exactly what was dropped.
    PassBounded,
    /// A violation was found (exploration stops at the first one).
    Violation(Violation),
    /// The checker itself failed (e.g. a replay schedule diverged).
    Internal(String),
}

#[derive(Clone, Debug)]
pub struct CheckReport {
    pub outcome: Outcome,
    pub stats: ExploreStats,
}

impl CheckReport {
    pub fn passed(&self) -> bool {
        matches!(self.outcome, Outcome::Pass | Outcome::PassBounded)
    }

    pub fn violation(&self) -> Option<&Violation> {
        match &self.outcome {
            Outcome::Violation(v) => Some(v),
            _ => None,
        }
    }
}

impl fmt::Display for CheckReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.outcome {
            Outcome::Pass => writeln!(f, "PASS: exhaustive")?,
            Outcome::PassBounded => writeln!(
                f,
                "PASS (bounded): no violation found, but the search was truncated"
            )?,
            Outcome::Violation(v) => {
                writeln!(f, "VIOLATION [{}]: {}", v.kind.name(), v.message)?;
                writeln!(f, "interleaving:")?;
                for line in &v.trace {
                    writeln!(f, "  {line}")?;
                }
                writeln!(f, "replay: --replay {}", v.schedule)?;
            }
            Outcome::Internal(msg) => writeln!(f, "INTERNAL ERROR: {msg}")?,
        }
        let s = &self.stats;
        writeln!(
            f,
            "explored {} interleavings ({} steps, {} branch points)",
            s.executions, s.steps, s.branches
        )?;
        if s.truncated() {
            writeln!(
                f,
                "TRUNCATED: {} branch points unexplored, \
                 {} schedules preemption-pruned, {} step-budget hits",
                s.truncated_branches, s.preemption_pruned, s.step_budget_hits
            )?;
        }
        Ok(())
    }
}

/// Renders one trace step as `t1 mutex#2.lock`.
pub(crate) fn render_step(step: &TraceStep, names: &[String], loc_kinds: &[LocKind]) -> String {
    let who = names.get(step.tid).map(|s| s.as_str()).unwrap_or("?");
    let loc = |id: Option<usize>| -> String {
        match id {
            Some(i) => format!(
                "{}#{}",
                loc_kinds.get(i).map(|k| k.name()).unwrap_or("loc"),
                i
            ),
            None => String::new(),
        }
    };
    let body = match step.kind {
        OpKind::Begin => "begin".to_string(),
        OpKind::Lock => {
            if step.result != 0 {
                format!("{}.lock (cv reacquire, timed out)", loc(step.loc))
            } else {
                format!("{}.lock", loc(step.loc))
            }
        }
        OpKind::Unlock => format!("{}.unlock", loc(step.loc)),
        OpKind::CvWait { timeout, .. } => format!(
            "{}.wait(release {}{})",
            loc(step.loc),
            loc(step.loc2),
            if timeout.is_some() { ", timed" } else { "" }
        ),
        OpKind::CvNotifyAll => format!("{}.notify_all -> {} woken", loc(step.loc), step.result),
        OpKind::CvNotifyOne => format!("{}.notify_one -> {} woken", loc(step.loc), step.result),
        OpKind::Spawn => format!("spawn -> t{}", step.result),
        OpKind::Join { child } => format!("join(t{child})"),
        OpKind::Exit => "exit".to_string(),
    };
    format!("{who} {body}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_token_round_trips() {
        let s = Schedule(vec![0, 1, 1, 3]);
        let tok = s.token();
        assert_eq!(tok, "0.1.1.3");
        assert_eq!(Schedule::parse(&tok).unwrap(), s);
    }

    #[test]
    fn schedule_parse_rejects_garbage() {
        assert!(Schedule::parse("1.x.2").is_err());
        assert!(Schedule::parse("1r0").is_err());
        assert!(Schedule::parse("").unwrap().0.is_empty());
    }

    #[test]
    fn truncation_is_loud() {
        let mut stats = ExploreStats::default();
        assert!(!stats.truncated());
        stats.step_budget_hits = 1;
        assert!(stats.truncated());
        let report = CheckReport {
            outcome: Outcome::PassBounded,
            stats,
        };
        let text = format!("{report}");
        assert!(text.contains("TRUNCATED"), "{text}");
        assert!(text.contains("bounded"), "{text}");
    }
}
