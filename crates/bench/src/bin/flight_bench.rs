//! Flight-recorder overhead benchmark: pins the cost of the always-on
//! black box (`sw_probe::flight::FlightRecorder`) on the fig6-size
//! functional run, and writes `BENCH_flight.json`.
//!
//! The recorder is *enabled by default* — every functional run pays
//! for it — so its cost is gated like a correctness property: the same
//! `SCHED` run at the paper's production blocking (default 1536³,
//! `--size` to override) is timed with the recorder on and off,
//! interleaved round by round so drift hits both arms equally. Each arm
//! is timed in the thread CPU time of the one thread the run executes
//! on ([`sw_bench::thread_cpu_time`]), so time the host gives to other
//! processes does not land in either arm. The per-round overhead is
//! the on/off CPU-time ratio; the reported
//! number is the median across rounds, and the gate (fatal under
//! `--assert`) requires
//!
//! ```text
//! overhead_pct <= TOLERANCE (2%) + noise_pct
//! ```
//!
//! where `noise_pct` is half the spread of the per-round ratios around
//! their median — a run whose noise swamps 2% cannot honestly pass or
//! fail, so the band widens by exactly what the machine showed. The
//! off arm still pays for clock/busy accounting (`advance` is the time
//! base, not a probe); what is gated is the marginal cost of event
//! recording, which is the only part `set_enabled(false)` turns off.

use std::time::Duration;
use sw_bench::thread_cpu_time;
use sw_dgemm::gen::random_matrix;
use sw_dgemm::{DgemmRunner, Matrix, Variant};
use sw_sim::CoreGroup;

/// Default functional size: the smallest Fig. 6 point.
const FIG6_SIZE: usize = 1536;

/// Interleaved on/off measurement rounds.
const DEFAULT_ROUNDS: usize = 5;

/// Probe-overhead budget on top of the measured noise floor.
const TOLERANCE_PCT: f64 = 2.0;

struct Cli {
    size: usize,
    rounds: usize,
    assert_gate: bool,
}

fn parse_cli() -> Cli {
    let mut cli = Cli {
        size: FIG6_SIZE,
        rounds: DEFAULT_ROUNDS,
        assert_gate: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--size" => {
                cli.size = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--size needs an integer");
            }
            "--rounds" => {
                cli.rounds = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--rounds needs an integer");
            }
            "--assert" => cli.assert_gate = true,
            other => {
                eprintln!(
                    "unknown flag {other}; usage: flight_bench [--size N] [--rounds N] [--assert]"
                );
                std::process::exit(2);
            }
        }
    }
    assert!(cli.rounds >= 3, "need >= 3 rounds for a median and spread");
    cli
}

/// One run's thread CPU time.
fn run_once(cg: &mut CoreGroup, a: &Matrix, b: &Matrix, c0: &Matrix) -> Duration {
    let mut c = c0.clone();
    let t = thread_cpu_time();
    DgemmRunner::new(Variant::Sched)
        .run_on(cg, 1.5, a, b, 0.5, &mut c)
        .expect("fig6-size run failed");
    let dt = thread_cpu_time() - t;
    std::hint::black_box(c);
    dt
}

fn main() {
    let cli = parse_cli();
    let n = cli.size;
    println!(
        "== flight-recorder overhead: SCHED {n}x{n}x{n}, {} interleaved rounds ==",
        cli.rounds
    );
    let a = random_matrix(n, n, 71);
    let b = random_matrix(n, n, 72);
    let c0 = random_matrix(n, n, 73);
    let mut cg = CoreGroup::new();

    // Warmup: pools, allocator, kernel caches — unmeasured.
    run_once(&mut cg, &a, &b, &c0);

    let mut ratios: Vec<f64> = Vec::with_capacity(cli.rounds);
    let mut best_on = Duration::MAX;
    let mut best_off = Duration::MAX;
    for round in 0..cli.rounds {
        cg.flight().set_enabled(true);
        let t_on = run_once(&mut cg, &a, &b, &c0);
        cg.flight().set_enabled(false);
        let t_off = run_once(&mut cg, &a, &b, &c0);
        cg.flight().set_enabled(true);
        best_on = best_on.min(t_on);
        best_off = best_off.min(t_off);
        let r = t_on.as_secs_f64() / t_off.as_secs_f64();
        println!(
            "round {round}: on {:>8.1} ms   off {:>8.1} ms   ratio {r:.3}",
            t_on.as_secs_f64() * 1e3,
            t_off.as_secs_f64() * 1e3
        );
        ratios.push(r);
    }
    ratios.sort_by(f64::total_cmp);
    let median = ratios[ratios.len() / 2];
    let overhead_pct = (median - 1.0) * 100.0;
    let noise_pct = 100.0 * (ratios[ratios.len() - 1] - ratios[0]) / 2.0;
    let allowed = TOLERANCE_PCT + noise_pct;
    println!();
    println!(
        "recorder on  (best): {:>8.1} ms",
        best_on.as_secs_f64() * 1e3
    );
    println!(
        "recorder off (best): {:>8.1} ms",
        best_off.as_secs_f64() * 1e3
    );
    println!(
        "overhead: {overhead_pct:+.2}% (median ratio {median:.3}); noise floor {noise_pct:.2}%; \
         allowed {allowed:.2}%"
    );

    let pass = overhead_pct <= allowed;
    if pass {
        println!("gate: PASS (always-on recording costs <= {TOLERANCE_PCT}% + noise)");
    } else {
        eprintln!(
            "GATE MISS: flight-recorder overhead {overhead_pct:+.2}% exceeds \
             {TOLERANCE_PCT}% + {noise_pct:.2}% noise"
        );
        if cli.assert_gate {
            std::process::exit(1);
        }
        eprintln!("(advisory run: rerun with --assert to make the gate fatal)");
    }

    if cli.size != FIG6_SIZE || cli.rounds != DEFAULT_ROUNDS {
        println!("\npartial run (--size/--rounds): BENCH_flight.json left untouched");
        return;
    }
    let json = format!(
        concat!(
            "{{\n",
            "  \"size\": {},\n",
            "  \"rounds\": {},\n",
            "  \"on_best_ms\": {:.2},\n",
            "  \"off_best_ms\": {:.2},\n",
            "  \"overhead_pct\": {:.2},\n",
            "  \"noise_pct\": {:.2},\n",
            "  \"tolerance_pct\": {:.1},\n",
            "  \"pass\": {}\n",
            "}}\n"
        ),
        n,
        cli.rounds,
        best_on.as_secs_f64() * 1e3,
        best_off.as_secs_f64() * 1e3,
        overhead_pct,
        noise_pct,
        TOLERANCE_PCT,
        pass
    );
    std::fs::write("BENCH_flight.json", &json).expect("failed to write BENCH_flight.json");
    println!("\nwrote BENCH_flight.json");
}
