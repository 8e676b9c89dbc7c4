//! Tier-1 tests of the checker itself: every built-in model (correct
//! primitives and seeded-defect mutants alike) must produce exactly
//! the verdict it declares, violations must replay deterministically
//! from their schedule tokens, and budget truncation must be loud.

use sw_check::models::{builtin, Expect};
use sw_check::{check, Config, Outcome, Schedule, Strategy};

#[test]
fn builtin_models_match_expectations() {
    for model in builtin() {
        let report = model.run(0);
        assert!(
            model.satisfied(&report),
            "model `{}` expected {:?}, got:\n{report}",
            model.name,
            model.expect,
        );
    }
}

#[test]
fn every_mutant_violation_carries_a_trace_and_schedule() {
    for model in builtin() {
        if !matches!(model.expect, Expect::Violation(_)) {
            continue;
        }
        let report = model.run(0);
        let v = report
            .violation()
            .unwrap_or_else(|| panic!("mutant `{}` produced no violation", model.name));
        assert!(
            !v.trace.is_empty(),
            "mutant `{}` violation has an empty trace",
            model.name
        );
        assert!(
            !v.schedule.is_empty(),
            "mutant `{}` violation has no replay schedule",
            model.name
        );
    }
}

#[test]
fn violations_replay_deterministically() {
    for model in builtin() {
        let Expect::Violation(kind) = model.expect else {
            continue;
        };
        let report = model.run(0);
        let v = report.violation().expect("mutant violates");
        let mut cfg = model.config();
        cfg.replay = Some(Schedule::parse(&v.schedule).expect("token parses"));
        let replayed = model.run_with(&cfg);
        let rv = replayed.violation().unwrap_or_else(|| {
            panic!("replay of `{}` found no violation:\n{replayed}", model.name)
        });
        assert_eq!(rv.kind, kind, "replay of `{}` changed verdict", model.name);
        assert_eq!(
            rv.trace, v.trace,
            "replay of `{}` produced a different interleaving",
            model.name
        );
    }
}

#[test]
fn seeds_change_nothing_about_verdicts() {
    for model in builtin() {
        for seed in [1, 42] {
            let report = model.run(seed);
            assert!(
                model.satisfied(&report),
                "model `{}` verdict changed under seed {seed}:\n{report}",
                model.name,
            );
        }
    }
}

#[test]
fn execution_budget_truncation_is_loud() {
    // mutex-counter has enough interleavings that a 2-execution budget
    // cannot exhaust them, so the pass must be demoted to PassBounded.
    let models = builtin();
    let idx = sw_check::models::find(&models, "mutex-counter").expect("model exists");
    let mut cfg = models[idx].config();
    cfg.max_executions = 2;
    let report = models[idx].run_with(&cfg);
    match report.outcome {
        Outcome::PassBounded => {
            assert!(
                report.stats.truncated(),
                "PassBounded but stats not truncated"
            );
            assert!(
                report.stats.truncated_branches > 0,
                "truncation did not count unexplored branches:\n{report}"
            );
            let text = format!("{report}");
            assert!(
                text.contains("TRUNCATED"),
                "report hides truncation:\n{text}"
            );
        }
        ref other => panic!("expected PassBounded, got {other:?}:\n{report}"),
    }
}

#[test]
fn bounded_preemption_strategy_finds_seeded_bugs_and_is_loud() {
    let models = builtin();
    let idx = sw_check::models::find(&models, "lock-order-deadlock").expect("model exists");
    let mut cfg = models[idx].config();
    cfg.strategy = Strategy::BoundedPreemption(2);
    let report = models[idx].run_with(&cfg);
    assert!(
        matches!(&report.outcome, Outcome::Violation(v) if v.kind == sw_check::ViolationKind::Deadlock),
        "bounded-preemption missed the AB/BA deadlock:\n{report}"
    );
}

#[test]
fn checked_types_fall_back_to_std_outside_models() {
    // The instrumented types must behave like std when no model
    // execution is active (this is what lets them compile into every
    // build unconditionally).
    let m = sw_check::checked::Mutex::new(1u64);
    *m.lock().unwrap() += 1;
    assert_eq!(*m.lock().unwrap(), 2);

    let cv = sw_check::checked::Condvar::new();
    let g = m.lock().unwrap();
    let (_g, res) = cv
        .wait_timeout(g, std::time::Duration::from_millis(1))
        .unwrap();
    assert!(res.timed_out());
}

#[test]
fn trivial_model_passes_exhaustively() {
    let report = check(&Config::default(), || {
        let x = sw_check::checked::Mutex::new(0u64);
        *x.lock().unwrap() = 1;
        assert_eq!(*x.lock().unwrap(), 1);
    });
    assert!(
        matches!(report.outcome, Outcome::Pass),
        "single-threaded model must pass exhaustively:\n{report}"
    );
    assert_eq!(report.stats.executions, 1);
}
