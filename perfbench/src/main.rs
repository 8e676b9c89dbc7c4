//! End-to-end and per-layer benchmark of the SW26010 DGEMM workspace.
//!
//! ```text
//! perfbench --workload <model_sweep|gemm_functional|serve_abft>
//!           [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
//! ```
//!
//! With `--trace 0` it sets the workload up several times, runs it in
//! a closed loop for `--seconds`, checks every result, and prints the
//! end-to-end metrics. With `--trace 1` it alternates untraced and
//! traced rounds for `--seconds`, runs the layer probes, and prints
//! the per-layer metrics. The last line of stdout
//! is one JSON object; the exit code is non-zero when any result was
//! wrong. `perfbench/run.py` builds this binary and sets the
//! environment it requires (see `README.md`).

mod functional;
mod measure;
mod model_sweep;
mod probes;
mod serve;
mod trace;

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};
use std::time::Instant;

use measure::{calib_median_ms, median, peak_rss_mb, quantile, ProcSnap};
use trace::Tracer;

/// End-to-end metrics: name and unit. Kept in step with
/// `BENCHMARK.json`.
const E2E: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_p80", "ms"),
    ("peak_rss_mb", "MiB"),
    ("sim_gflops", "Gflop/s"),
    ("sim_err_pct", "%"),
];

/// Per-layer metrics: name and unit. Kept in step with
/// `BENCHMARK.json`; `README.md` maps each to the end-to-end metric
/// and workload it should move. A workload whose traced run does not
/// exercise a layer reports 0 for it.
const LAYERS: [(&str, &str); 41] = [
    ("isa.kernel_ms", "ms"),
    ("isa.minstr_per_s", "Minstr/s"),
    ("core.timing.dag_build_ms", "ms"),
    ("sim.timing.schedule_ms", "ms"),
    ("core.timing.dag_tasks", "count"),
    ("core.tuner.search_ms", "ms"),
    ("core.tuner.enumerated", "count"),
    ("core.tuner.feasible", "count"),
    ("core.tuner.timed", "count"),
    ("lint.stall_score_us", "us"),
    ("lint.lint_shared_ms", "ms"),
    ("core.tunecache.hit_us", "us"),
    ("core.plan_us", "us"),
    ("mem.install_ms", "ms"),
    ("mem.extract_ms", "ms"),
    ("core.dispatch_ms", "ms"),
    ("sim.run_ms", "ms"),
    ("sim.barrier_us", "us"),
    ("sim.pool_wake_us", "us"),
    ("sim.runs_per_op", "count"),
    ("sim.cycles_per_op", "cycles"),
    ("sim.lane.compute_frac", "fraction"),
    ("sim.lane.dma_frac", "fraction"),
    ("sim.lane.mesh_frac", "fraction"),
    ("sim.lane.barrier_frac", "fraction"),
    ("mesh.word_ns", "ns"),
    ("mesh.words_per_op", "count"),
    ("mem.dma_gbps", "GB/s"),
    ("mem.dma_bytes_per_op", "B"),
    ("mem.dma_descriptors_per_op", "count"),
    ("core.abft.verify_ms", "ms"),
    ("serve.submit_us", "us"),
    ("serve.overhead_ms", "ms"),
    ("serve.attempts_per_req", "count"),
    ("serve.retries", "count"),
    ("probe.flight_overhead_pct", "%"),
    ("proc.ctx_switches_per_op", "count"),
    ("proc.sys_frac", "fraction"),
    ("proc.cpu_s_per_op", "s"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.calib_ms", "ms"),
];

/// Set-ups measured per e2e run (this process plus child processes,
/// each a cold start); `setup_s` is their median.
const SETUP_SAMPLES: usize = 9;
/// `latency_ms_p50` bound in `BENCHMARK.json`: the traced run checks
/// that tracing moves the median op by less than this.
const P50_BOUND: f64 = 0.25;

/// Recorded simulated-statistics fingerprints: `<workload> <seed> <hex>`.
const FINGERPRINTS: &str = include_str!("../fingerprints.txt");

/// Named metric values.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, v: f64) {
        self.0.insert(name, v);
    }
}

/// Running sums for per-op means of per-layer values.
#[derive(Debug, Default)]
pub struct Acc(BTreeMap<&'static str, (f64, u64)>);

impl Acc {
    pub fn add(&mut self, name: &'static str, v: f64) {
        let e = self.0.entry(name).or_default();
        e.0 += v;
        e.1 += 1;
    }

    fn means(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.0.iter().map(|(k, (s, n))| (*k, s / *n as f64))
    }
}

/// What one phase of a workload did.
#[derive(Debug)]
pub struct Ledger {
    /// Host latency of each correct op, ms.
    pub lat_ms: Vec<f64>,
    /// When the phase started and when each op (correct or not)
    /// completed.
    pub start: Instant,
    pub done_at: Vec<Instant>,
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the report.
    pub errors: Vec<String>,
}

impl Default for Ledger {
    fn default() -> Self {
        Ledger {
            lat_ms: Vec::new(),
            start: Instant::now(),
            done_at: Vec::new(),
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
        }
    }
}

impl Ledger {
    pub fn ok(&mut self, lat_ms: f64) {
        self.attempted += 1;
        self.done_at.push(Instant::now());
        self.lat_ms.push(lat_ms);
    }

    pub fn fail(&mut self, e: String) {
        self.attempted += 1;
        self.done_at.push(Instant::now());
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(e);
        }
    }
}

impl Ledger {
    /// Throughput of each window of `per` consecutive completions (a
    /// round's worth of ops), in ops per second.
    fn window_rates(&self, per: usize) -> Vec<f64> {
        let mut prev = self.start;
        self.done_at
            .chunks_exact(per)
            .map(|w| {
                let end = w[per - 1];
                let rate = per as f64 / (end - prev).as_secs_f64();
                prev = end;
                rate
            })
            .collect()
    }
}

/// Simulated-clock summary of a workload: exact for a given seed.
#[derive(Debug, Clone, Copy)]
pub struct Sim {
    pub gflops: f64,
    pub err_pct: f64,
    /// Digest of every simulated statistic the run checked.
    pub fingerprint: u64,
}

/// A benchmark workload.
pub trait Workload: Sized {
    /// The one-time work a user pays; timed as `setup_s`.
    fn setup(seed: u64) -> Result<Self, String>;
    /// Untimed: generate references the checks compare against.
    fn prepare(&mut self) -> Result<(), String> {
        Ok(())
    }
    /// Ops in one round: every round does the same work.
    fn round_ops(&self) -> usize;
    /// Closed loop of whole rounds until `seconds` have passed.
    fn run_phase(&mut self, seconds: f64, led: &mut Ledger, tr: Option<&mut Tracer>);
    /// The simulated-clock summary of the ops run so far.
    fn sim(&self) -> Sim;
    /// Per-layer sums the traced phase accumulated.
    fn acc(&self) -> &Acc;
    /// Adds the per-op simulated counts to [`Self::acc`].
    fn finish_layers(&mut self) {}
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<String>,
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        out: None,
        setup_only: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--setup-only" {
            args.setup_only = true;
            continue;
        }
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {val}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = val,
            "--seed" => args.seed = val.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = val.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = val == "1",
            "--out" => args.out = Some(val),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|args| {
        // Hygiene: the program's tune cache and diagnostics bundles
        // must land in the run's scratch directory, never the tree.
        for var in ["SW_TUNE_CACHE", "SW_DIAG_DIR"] {
            if std::env::var_os(var).is_none() {
                return Err(format!("{var} is not set; run through perfbench/run.py"));
            }
        }
        match args.workload.as_str() {
            "model_sweep" => run::<model_sweep::ModelSweep>(&args),
            "gemm_functional" => run::<functional::GemmFunctional>(&args),
            "serve_abft" => run::<serve::ServeAbft>(&args),
            w => Err(format!("unknown workload {w:?}")),
        }
    });
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// Runs one invocation; `Ok(false)` when any result was wrong.
fn run<W: Workload>(args: &Args) -> Result<bool, String> {
    if args.setup_only {
        let t = Instant::now();
        let w = W::setup(args.seed)?;
        let secs = t.elapsed().as_secs_f64();
        drop(w);
        println!("setup_s {secs}");
        return Ok(true);
    }
    println!(
        "perfbench {} seed={} seconds={} trace={} cores={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    if args.trace {
        traced::<W>(args)
    } else {
        end_to_end::<W>(args)
    }
}

/// Cold set-ups in child processes, each with its own tune cache.
fn setup_children(args: &Args, n: usize) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let cache = std::path::PathBuf::from(std::env::var_os("SW_TUNE_CACHE").unwrap_or_default());
    let dir = cache.parent().unwrap_or(std::path::Path::new("."));
    (0..n)
        .map(|i| {
            let out = Command::new(&exe)
                .args([
                    "--workload",
                    &args.workload,
                    "--seed",
                    &args.seed.to_string(),
                ])
                .arg("--setup-only")
                .env(
                    "SW_TUNE_CACHE",
                    dir.join(format!("setup-{i}-tune_cache.json")),
                )
                .output()
                .map_err(|e| format!("spawn set-up child: {e}"))?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            let secs = stdout
                .lines()
                .last()
                .and_then(|l| l.strip_prefix("setup_s "))
                .and_then(|v| v.parse::<f64>().ok());
            match secs {
                Some(s) if out.status.success() => Ok(s),
                _ => Err(format!(
                    "set-up child failed ({}): {}",
                    out.status,
                    String::from_utf8_lossy(&out.stderr).trim()
                )),
            }
        })
        .collect()
}

fn report_failures(led: &Ledger) {
    for e in &led.errors {
        eprintln!("FAILED: {e}");
    }
}

/// Compares the run's fingerprint with the recorded one for this
/// workload and seed, if any.
fn fingerprint_line(workload: &str, seed: u64, sim: &Sim) -> String {
    let recorded = FINGERPRINTS.lines().find_map(|l| {
        let mut f = l.split_whitespace();
        (f.next() == Some(workload) && f.next() == Some(&seed.to_string()))
            .then(|| f.next().map(str::to_string))
            .flatten()
    });
    let verdict = match recorded {
        Some(r) if r == format!("{:016x}", sim.fingerprint) => "matches the recorded baseline",
        Some(_) => "DIFFERS from the recorded baseline: simulated statistics changed",
        None => "no recorded baseline for this seed",
    };
    format!("sim fingerprint {:016x} ({verdict})", sim.fingerprint)
}

fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{n}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn end_to_end<W: Workload>(args: &Args) -> Result<bool, String> {
    let calib0 = calib_median_ms();
    let mut setup = setup_children(args, SETUP_SAMPLES - 1)?;
    let t = Instant::now();
    let mut w = W::setup(args.seed)?;
    setup.push(t.elapsed().as_secs_f64());
    w.prepare()?;

    let mut led = Ledger::default();
    w.run_phase(args.seconds, &mut led, None);
    let elapsed = led.start.elapsed().as_secs_f64();
    let rates = led.window_rates(w.round_ops());
    let sim = w.sim();
    drop(w);
    let calib1 = calib_median_ms();
    report_failures(&led);

    let ok = led.lat_ms.len();
    if ok == 0 || rates.is_empty() {
        return Err("no round completed".into());
    }
    let values = [
        median(&setup),
        median(&rates),
        quantile(&led.lat_ms, 0.5),
        quantile(&led.lat_ms, 0.8),
        peak_rss_mb(),
        sim.gflops,
        sim.err_pct,
    ];
    let samples = [
        format!("{} set-ups", setup.len()),
        format!(
            "median of {} rounds; {ok} ops in {elapsed:.2} s",
            rates.len()
        ),
        format!("{ok} ops"),
        format!("{ok} ops, {} above", ok - (0.8 * ok as f64).ceil() as usize),
        "1 process".into(),
        "1 round, exact".into(),
        "1 round, exact".into(),
    ];
    println!("{:<16} {:>14} {:<9} samples", "metric", "value", "unit");
    for (((name, unit), v), s) in E2E.iter().zip(values).zip(&samples) {
        println!("{name:<16} {v:>14.4} {unit:<9} {s}");
    }
    let failed_frac = led.failed as f64 / led.attempted.max(1) as f64;
    println!(
        "{:<16} {failed_frac:>14.4} {:<9} {} attempted",
        "failed_frac", "fraction", led.attempted
    );
    println!("bench.calib_ms   start {calib0:.2} end {calib1:.2} (a fixed loop; drift here is the sandbox)");
    println!("{}", fingerprint_line(&args.workload, args.seed, &sim));
    let metrics: Vec<(&str, f64, &str)> = E2E
        .iter()
        .zip(values)
        .map(|((n, u), v)| (*n, v, *u))
        .collect();
    let correct = led.failed == 0;
    println!(
        "{}",
        json_line(correct, led.attempted, led.failed, &metrics)
    );
    Ok(correct)
}

fn traced<W: Workload>(args: &Args) -> Result<bool, String> {
    let calib0 = calib_median_ms();
    let t = Instant::now();
    let mut w = W::setup(args.seed)?;
    let setup_s = t.elapsed().as_secs_f64();
    w.prepare()?;

    // Untraced and traced rounds alternate, so sandbox drift falls on
    // both alike; the untraced rounds also give the process counters.
    let (mut plain, mut traced, mut tr) = (Ledger::default(), Ledger::default(), Tracer::default());
    let (mut cpu_user, mut cpu_sys, mut ctx_switches) = (0.0, 0.0, 0);
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < args.seconds {
        let p0 = ProcSnap::now();
        w.run_phase(0.0, &mut plain, None);
        let p1 = ProcSnap::now();
        cpu_user += p1.user_s - p0.user_s;
        cpu_sys += p1.sys_s - p0.sys_s;
        ctx_switches += p1.ctx_switches.saturating_sub(p0.ctx_switches);
        w.run_phase(0.0, &mut traced, Some(&mut tr));
    }
    w.finish_layers();

    let mut m = Metrics::default();
    for (name, _) in LAYERS {
        m.set(name, 0.0);
    }
    for (name, v) in w.acc().means() {
        m.set(name, v);
    }
    let sim = w.sim();
    drop(w);
    let probe = probes::run(&mut m);
    let calib1 = calib_median_ms();

    let ops = plain.lat_ms.len().max(1) as f64;
    let cpu = cpu_user + cpu_sys;
    m.set("proc.ctx_switches_per_op", ctx_switches as f64 / ops);
    m.set("proc.sys_frac", cpu_sys / cpu.max(f64::MIN_POSITIVE));
    m.set("proc.cpu_s_per_op", cpu / ops);
    m.set("bench.calib_ms", median(&[calib0, calib1]));

    // Every op's spans must tile its root, and the per-op sum of layer
    // self times must agree with the untraced median op.
    let roots = tr.op_roots();
    let untiled = roots
        .iter()
        .filter(|(root, sum)| (root - sum).abs() > 1e-6)
        .count();
    let span_sums: Vec<f64> = roots.iter().map(|r| r.1).collect();
    let mut checks_ok = untiled == 0 && probe.is_ok();
    let overhead = if span_sums.is_empty() || plain.lat_ms.is_empty() {
        checks_ok = false;
        0.0
    } else {
        100.0 * (median(&span_sums) / median(&plain.lat_ms) - 1.0)
    };
    m.set("bench.trace_overhead_pct", overhead);

    report_failures(&plain);
    report_failures(&traced);
    if let Err(e) = &probe {
        eprintln!("FAILED: layer probe: {e}");
    }
    if untiled > 0 {
        eprintln!("FAILED: {untiled} ops whose spans do not tile the op");
    }
    println!(
        "untraced: {} ops, p50 {:.3} ms; traced: {} ops (alternate rounds); set-up {setup_s:.3} s",
        plain.lat_ms.len(),
        if plain.lat_ms.is_empty() {
            0.0
        } else {
            median(&plain.lat_ms)
        },
        traced.lat_ms.len()
    );
    println!("{}", fingerprint_line(&args.workload, args.seed, &sim));
    println!(
        "per-op Σ layer self time vs untraced p50: {overhead:+.2}% ({} the ±{:.0}% p50 bound)",
        if overhead.abs() <= 100.0 * P50_BOUND {
            "within"
        } else {
            "OUTSIDE"
        },
        100.0 * P50_BOUND
    );
    println!(
        "\n{:<34} {:>8} {:>12} {:>12} {:>7}",
        "layer span", "count", "self ms/op", "total ms/op", "self %"
    );
    let layers = tr.layers();
    let n_ops = roots.len().max(1) as f64;
    let all_self: u64 = layers.values().map(|l| l.self_ns).sum();
    for (name, l) in &layers {
        println!(
            "{name:<34} {:>8} {:>12.4} {:>12.4} {:>6.1}%",
            l.count,
            l.self_ns as f64 / 1e6 / n_ops,
            l.total_ns as f64 / 1e6 / n_ops,
            100.0 * l.self_ns as f64 / all_self.max(1) as f64
        );
    }
    if let Some(dir) = &args.out {
        let path = std::path::Path::new(dir)
            .join(format!("trace-{}-seed{}.json", args.workload, args.seed));
        std::fs::create_dir_all(dir)
            .and_then(|_| std::fs::write(&path, tr.to_chrome_json()))
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        println!("spans written to {}", path.display());
    }
    println!("\n{:<30} {:>16} unit", "per-layer metric", "value");
    let metrics: Vec<(&str, f64, &str)> = LAYERS
        .iter()
        .map(|(n, u)| (*n, m.0.get(n).copied().unwrap_or(0.0), *u))
        .collect();
    for (n, v, u) in &metrics {
        println!("{n:<30} {v:>16.6} {u}");
    }
    let attempted = plain.attempted + traced.attempted + 1;
    let failed = plain.failed + traced.failed + u64::from(!checks_ok);
    let correct = failed == 0;
    println!("{}", json_line(correct, attempted, failed, &metrics));
    Ok(correct)
}
