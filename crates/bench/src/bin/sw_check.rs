//! `sw-check` — the concurrency model checker, from the shell.
//!
//! Runs every registered model (the checker's built-in scenarios plus,
//! when the workspace is compiled with `RUSTFLAGS='--cfg sw_check'`,
//! the service's tenant queues) and checks each against its declared
//! expectation — correct models must pass exhaustively, seeded-defect
//! mutants must be caught with a replayable interleaving.
//!
//! ```text
//! RUSTFLAGS='--cfg sw_check' cargo run -p sw-bench --bin sw-check
//! sw-check --list
//! sw-check --model serve/queue-handoff --seed 7
//! sw-check --model serve/queue-mutant-push-no-notify --replay '0.0.1.1.1.0.0.1.1.1.0.0'
//! sw-check --json check.json
//! ```
//!
//! Exit codes: 0 all expectations met and exploration exhaustive;
//! 1 an expectation failed (missed mutant, unexpected violation, or
//! internal error); 3 expectations met but at least one exploration
//! was truncated by a budget (bounded, not exhaustive — loud by
//! design).

use sw_check::models::{builtin, Expect, NamedModel};
use sw_check::{Config, Outcome, Schedule};

/// A registered model plus the crate that contributed it.
struct Entry {
    origin: &'static str,
    model: NamedModel,
}

fn all_models() -> Vec<Entry> {
    #[cfg_attr(not(sw_check), allow(unused_mut))]
    let mut out: Vec<Entry> = builtin()
        .into_iter()
        .map(|model| Entry {
            origin: "check",
            model,
        })
        .collect();
    #[cfg(sw_check)]
    out.extend(
        sw_serve::check_models::models()
            .into_iter()
            .map(|model| Entry {
                origin: "serve",
                model,
            }),
    );
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let list = args.iter().any(|a| a == "--list");
    let only = flag_value(&args, "--model");
    let seed: u64 = flag_value(&args, "--seed")
        .map(|s| {
            s.parse()
                .unwrap_or_else(|_| die(&format!("bad --seed {s}")))
        })
        .unwrap_or(0);
    let replay = flag_value(&args, "--replay");
    let json_path = flag_value(&args, "--json");

    let entries = all_models();
    if cfg!(not(sw_check)) {
        eprintln!(
            "sw-check: built without --cfg sw_check; running the {} built-in models only \
             (rebuild with RUSTFLAGS='--cfg sw_check' to model-check the service's \
             tenant queues)",
            entries.len()
        );
    }

    if list {
        for e in &entries {
            println!(
                "{:<42} [{}] expect {:<22} {}",
                e.model.name,
                e.origin,
                expect_str(e.model.expect),
                e.model.about
            );
        }
        return;
    }

    let selected: Vec<&Entry> = match &only {
        Some(name) => {
            let e = entries
                .iter()
                .find(|e| e.model.name == *name)
                .unwrap_or_else(|| die(&format!("no model named {name} (try --list)")));
            vec![e]
        }
        None => entries.iter().collect(),
    };
    if replay.is_some() && selected.len() != 1 {
        die("--replay needs --model <name>");
    }

    let mut failed = 0usize;
    let mut truncated = 0usize;
    let mut json_entries: Vec<String> = Vec::new();
    for e in &selected {
        let mut cfg: Config = e.model.config();
        cfg.seed = seed;
        if let Some(tok) = &replay {
            cfg.replay = Some(
                Schedule::parse(tok).unwrap_or_else(|e| die(&format!("bad --replay {tok}: {e}"))),
            );
        }
        let report = e.model.run_with(&cfg);
        let ok = e.model.satisfied(&report);
        let verdict = match (&report.outcome, ok) {
            (_, false) => "FAIL",
            (Outcome::PassBounded, true) => "pass (BOUNDED)",
            (Outcome::Violation(_), true) => "caught",
            _ => "pass",
        };
        println!(
            "{:<42} [{:<5}] {:<14} {} interleavings, {} steps",
            e.model.name, e.origin, verdict, report.stats.executions, report.stats.steps
        );
        if !ok {
            failed += 1;
            // The full report names the missed expectation or shows
            // the unexpected violation's interleaving.
            println!("  expected {}", expect_str(e.model.expect));
            for line in format!("{report}").lines() {
                println!("  {line}");
            }
        } else if report.stats.truncated() {
            truncated += 1;
        }
        json_entries.push(json_entry(e, &report, ok));
    }

    if let Some(path) = json_path {
        let json = format!(
            "{{\"schema\":1,\"ported_primitives\":{},\"seed\":{},\"models\":[{}]}}\n",
            cfg!(sw_check),
            seed,
            json_entries.join(",")
        );
        std::fs::write(&path, json).unwrap_or_else(|e| die(&format!("write {path}: {e}")));
        println!("\nJSON report written to {path}");
    }

    if failed > 0 {
        eprintln!("\nsw-check: {failed} model(s) missed their expectation");
        std::process::exit(1);
    }
    if truncated > 0 {
        eprintln!(
            "\nsw-check: all expectations met, but {truncated} exploration(s) were budget-\
             truncated (bounded verification only)"
        );
        std::process::exit(3);
    }
    println!(
        "\nsw-check: all {} model(s) met their expectations",
        selected.len()
    );
}

fn expect_str(e: Expect) -> String {
    match e {
        Expect::Pass => "pass".into(),
        Expect::Violation(k) => format!("violation({})", k.name()),
    }
}

fn json_entry(e: &Entry, report: &sw_check::CheckReport, ok: bool) -> String {
    let outcome = match &report.outcome {
        Outcome::Pass => "pass".into(),
        Outcome::PassBounded => "pass-bounded".into(),
        Outcome::Violation(v) => format!("violation({})", v.kind.name()),
        Outcome::Internal(_) => "internal-error".into(),
    };
    let violation = match &report.outcome {
        Outcome::Violation(v) => format!(
            "{{\"kind\":{:?},\"message\":{:?},\"schedule\":{:?},\"trace\":[{}]}}",
            v.kind.name(),
            v.message,
            v.schedule,
            v.trace
                .iter()
                .map(|t| format!("{t:?}"))
                .collect::<Vec<_>>()
                .join(",")
        ),
        _ => "null".into(),
    };
    format!(
        "{{\"name\":{:?},\"origin\":{:?},\"expect\":{:?},\"outcome\":{:?},\"ok\":{},\
         \"executions\":{},\"steps\":{},\"truncated\":{},\"violation\":{}}}",
        e.model.name,
        e.origin,
        expect_str(e.model.expect),
        outcome,
        ok,
        report.stats.executions,
        report.stats.steps,
        report.stats.truncated(),
        violation
    )
}

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter().position(|a| a == flag).map(|i| {
        args.get(i + 1)
            .cloned()
            .unwrap_or_else(|| die(&format!("{flag} needs a value")))
    })
}

fn die(msg: &str) -> ! {
    eprintln!("sw-check: {msg}");
    std::process::exit(2);
}
