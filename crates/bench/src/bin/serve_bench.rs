//! `serve_bench` — load generator and chaos gate for the `sw-serve`
//! DGEMM service, writing `BENCH_serve.json`.
//!
//! Four phases, each gating one of the service's promises:
//!
//! 1. **Overhead** — the same GEMM timed through a direct
//!    [`DgemmRunner::run_on`] and through a 1-tenant/1-worker/1-group
//!    service, in interleaved rounds. The service is policy, not
//!    numerics: its median wall-time overhead must stay within
//!    `OVERHEAD_TOL_PCT` plus the measured noise floor.
//! 2. **Mixed load** — two tenants (a weighted interactive tenant with
//!    high priority and deadlines, a batch tenant without) burst
//!    requests at a 2-worker/2-group service with small queue caps.
//!    Reported: p50/p99 latency, goodput, shed rate. Every completion
//!    is checked bitwise against the host reference; the p99 is pinned
//!    in `BENCH_serve.json` (initialized with 50% headroom on the
//!    first full run, a ceiling afterwards).
//! 3. **Chaos** — one in eight requests carries a fault plan:
//!    alternately a DMA bit-flip/transient storm on every attempt
//!    (ABFT `Correct` must heal it in place) and a first-attempt-only
//!    mesh wedge (the retry on a different core group must complete
//!    it). The gate is absolute: zero bitwise-incorrect results, every
//!    wedge request healed by retry, every outcome structured.
//! 4. **Quarantine** — a single-group service with threshold 2 takes
//!    two wedge failures; the group is quarantined, probed, and
//!    readmitted, and the time until the next clean request completes
//!    is the reported recovery time (liveness gate).
//!
//! ```text
//! serve_bench [--short] [--assert]
//! ```
//!
//! `--short` runs the CI profile (smaller shape and counts) and writes
//! `BENCH_serve_short.json`, leaving the committed full-profile pin
//! untouched. `--assert` makes every gate fatal (exit 1).

use std::sync::Arc;
use std::time::{Duration, Instant};
use sw_bench::json_number;
use sw_dgemm::gen::random_matrix;
use sw_dgemm::{
    reference, AbftPolicy, BlockingParams, DgemmRunner, FaultSpec, Matrix, Variant, WedgeSpec,
};
use sw_serve::{
    BackoffPolicy, FaultPlan, GemmRequest, Priority, ServeConfig, ServeOutcome, Service, TenantCfg,
};
use sw_sim::CoreGroup;

/// Service overhead budget on top of the measured noise floor.
const OVERHEAD_TOL_PCT: f64 = 5.0;

/// Headroom multiplier when initializing the p99 pin on a first run.
const P99_PIN_HEADROOM: f64 = 1.5;

const ALPHA: f64 = 1.5;
const BETA: f64 = 0.5;

struct Cli {
    short: bool,
    assert_gate: bool,
}

struct Profile {
    /// GEMM shape (m, n, k); multiples of the `test_small` CG block.
    m: usize,
    n: usize,
    k: usize,
    /// Interleaved rounds in the overhead phase.
    overhead_rounds: usize,
    /// Requests in the mixed-load phase.
    mixed_total: usize,
    /// Requests in the chaos phase (one in eight faulted).
    chaos_total: usize,
    /// Requests per offered-load level in the load-curve phase.
    load_requests: usize,
}

impl Profile {
    fn full() -> Self {
        Profile {
            m: 256,
            n: 128,
            k: 256,
            overhead_rounds: 9,
            mixed_total: 48,
            chaos_total: 32,
            load_requests: 16,
        }
    }

    fn short() -> Self {
        Profile {
            m: 128,
            n: 64,
            k: 128,
            overhead_rounds: 5,
            mixed_total: 16,
            chaos_total: 16,
            load_requests: 8,
        }
    }
}

fn parse_cli() -> Cli {
    let mut cli = Cli {
        short: false,
        assert_gate: false,
    };
    for a in std::env::args().skip(1) {
        match a.as_str() {
            "--short" => cli.short = true,
            "--assert" => cli.assert_gate = true,
            other => {
                eprintln!("unknown flag {other}; usage: serve_bench [--short] [--assert]");
                std::process::exit(2);
            }
        }
    }
    cli
}

/// One operand set plus its host-reference result (the bitwise oracle
/// for every completion that used it).
struct Problem {
    a: Arc<Matrix>,
    b: Arc<Matrix>,
    c0: Arc<Matrix>,
    expect: Matrix,
}

fn problems(p: &Profile, count: usize) -> Vec<Problem> {
    let pk = BlockingParams::test_small().pk;
    (0..count)
        .map(|i| {
            let seed = 1000 + 10 * i as u64;
            let a = random_matrix(p.m, p.k, seed);
            let b = random_matrix(p.k, p.n, seed + 1);
            let c0 = random_matrix(p.m, p.n, seed + 2);
            let mut expect = c0.clone();
            reference::dgemm_chunked_fma(ALPHA, &a, &b, BETA, &mut expect, pk);
            Problem {
                a: Arc::new(a),
                b: Arc::new(b),
                c0: Arc::new(c0),
                expect,
            }
        })
        .collect()
}

fn request(tenant: usize, prob: &Problem) -> GemmRequest {
    GemmRequest {
        alpha: ALPHA,
        beta: BETA,
        params: Some(BlockingParams::test_small()),
        ..GemmRequest::new(tenant, prob.a.clone(), prob.b.clone(), prob.c0.clone())
    }
}

fn wedge() -> FaultSpec {
    FaultSpec {
        wedge: Some(WedgeSpec { cpe: 18, epoch: 0 }),
        ..FaultSpec::seeded(0)
    }
}

/// The ABFT-healable chaos storm: guaranteed DMA bit-flips plus
/// transient DMA failures, drawn fresh per attempt.
fn storm(seed: u64) -> FaultSpec {
    FaultSpec {
        dma_transient_per_myriad: 200,
        bitflip_every_epoch: true,
        ..FaultSpec::seeded(seed)
    }
}

fn percentile(sorted_ms: &[f64], q: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ms.len() as f64 - 1.0) * q).round() as usize;
    sorted_ms[idx]
}

/// Phase 1: median service overhead vs a direct runner, interleaved.
struct Overhead {
    direct_ms: f64,
    served_ms: f64,
    overhead_pct: f64,
    noise_pct: f64,
}

fn phase_overhead(p: &Profile, prob: &Problem) -> Overhead {
    let svc = Service::start(ServeConfig {
        tenants: vec![TenantCfg::new("bench")],
        workers: 1,
        core_groups: 1,
        ..ServeConfig::default()
    });
    let mut cg = CoreGroup::new();
    let direct = |cg: &mut CoreGroup| {
        let mut c = (*prob.c0).clone();
        let t = Instant::now();
        DgemmRunner::new(Variant::Sched)
            .params(BlockingParams::test_small())
            .run_on(cg, ALPHA, &prob.a, &prob.b, BETA, &mut c)
            .expect("direct run");
        let dt = t.elapsed();
        std::hint::black_box(c);
        dt
    };
    let served = |svc: &Service| {
        let t = Instant::now();
        let outcome = svc.submit(request(0, prob)).expect("admitted").wait();
        let dt = t.elapsed();
        assert!(
            matches!(outcome, ServeOutcome::Completed { .. }),
            "overhead-arm request failed: {outcome:?}"
        );
        dt
    };
    // Warmup both arms (pools, allocator, worker spin-up) — unmeasured.
    direct(&mut cg);
    served(&svc);
    let mut ratios = Vec::with_capacity(p.overhead_rounds);
    let mut direct_best = Duration::MAX;
    let mut served_best = Duration::MAX;
    for _ in 0..p.overhead_rounds {
        let d = direct(&mut cg);
        let s = served(&svc);
        direct_best = direct_best.min(d);
        served_best = served_best.min(s);
        ratios.push(s.as_secs_f64() / d.as_secs_f64());
    }
    svc.shutdown();
    ratios.sort_by(f64::total_cmp);
    let median = ratios[ratios.len() / 2];
    Overhead {
        direct_ms: direct_best.as_secs_f64() * 1e3,
        served_ms: served_best.as_secs_f64() * 1e3,
        overhead_pct: (median - 1.0) * 100.0,
        noise_pct: 100.0 * (ratios[ratios.len() - 1] - ratios[0]) / 2.0,
    }
}

/// Aggregate outcome accounting shared by the load phases.
#[derive(Default)]
struct Tally {
    completed: usize,
    rejected: usize,
    failed: usize,
    cancelled: usize,
    incorrect: usize,
    retried_completions: usize,
    latencies_ms: Vec<f64>,
}

impl Tally {
    fn absorb(&mut self, outcome: ServeOutcome, expect: &Matrix) {
        match outcome {
            ServeOutcome::Completed {
                c,
                attempts,
                latency,
            } => {
                self.completed += 1;
                if attempts > 1 {
                    self.retried_completions += 1;
                }
                self.latencies_ms.push(latency.as_secs_f64() * 1e3);
                if c != *expect {
                    self.incorrect += 1;
                }
            }
            ServeOutcome::Failed { .. } => self.failed += 1,
            ServeOutcome::Cancelled { .. } => self.cancelled += 1,
        }
    }

    fn accounted(&self) -> usize {
        self.completed + self.rejected + self.failed + self.cancelled
    }
}

/// Phase 2: two-tenant mixed load with priorities and deadlines.
fn phase_mixed(p: &Profile, probs: &[Problem]) -> Tally {
    let svc = Service::start(ServeConfig {
        tenants: vec![
            TenantCfg {
                name: "interactive".into(),
                weight: 3,
                queue_cap: 8,
            },
            TenantCfg {
                name: "batch".into(),
                weight: 1,
                queue_cap: 8,
            },
        ],
        workers: 2,
        core_groups: 2,
        ..ServeConfig::default()
    });
    let mut tally = Tally::default();
    let mut pending = Vec::new();
    for i in 0..p.mixed_total {
        let tenant = i % 2;
        let prob = &probs[i % probs.len()];
        let mut req = request(tenant, prob);
        if tenant == 0 {
            req.priority = Priority::High;
            // Generous vs the per-request cost: exercises the deadline
            // machinery without making p99 a coin flip.
            req.deadline = Some(Duration::from_secs(30));
        }
        match svc.submit(req) {
            Ok(ticket) => pending.push((ticket, i % probs.len())),
            Err(_) => tally.rejected += 1,
        }
        // Paced burst: faster than 2 workers drain, slow enough that
        // shedding stays a tail event rather than the common case.
        std::thread::sleep(Duration::from_micros(500));
    }
    for (ticket, prob_idx) in pending {
        tally.absorb(ticket.wait(), &probs[prob_idx].expect);
    }
    svc.shutdown();
    tally
}

/// Phase 3: chaos — one in eight requests carries a fault plan.
struct Chaos {
    tally: Tally,
    faulted: usize,
    wedge_requests: usize,
    wedge_healed: usize,
}

fn phase_chaos(p: &Profile, probs: &[Problem]) -> Chaos {
    let svc = Service::start(ServeConfig {
        tenants: vec![TenantCfg::new("chaos")],
        workers: 2,
        core_groups: 2,
        backoff: BackoffPolicy {
            max_attempts: 3,
            ..BackoffPolicy::default()
        },
        mesh_timeout: Duration::from_millis(60),
        ..ServeConfig::default()
    });
    let mut chaos = Chaos {
        tally: Tally::default(),
        faulted: 0,
        wedge_requests: 0,
        wedge_healed: 0,
    };
    let mut pending = Vec::new();
    for i in 0..p.chaos_total {
        let prob_idx = i % probs.len();
        let mut req = request(0, &probs[prob_idx]);
        let mut is_wedge = false;
        if i % 8 == 0 {
            chaos.faulted += 1;
            if (i / 8) % 2 == 0 {
                // Storm on every attempt: only in-run ABFT correction
                // can complete this request.
                req.faults = Some(FaultPlan::EveryAttempt(storm(i as u64)));
                req.abft = AbftPolicy::Correct;
            } else {
                // Transiently sick group: the retry must rotate and
                // complete cleanly.
                req.faults = Some(FaultPlan::FirstAttemptOnly(wedge()));
                is_wedge = true;
                chaos.wedge_requests += 1;
            }
        }
        match svc.submit(req) {
            Ok(ticket) => pending.push((ticket, prob_idx, is_wedge)),
            Err(_) => chaos.tally.rejected += 1,
        }
    }
    for (ticket, prob_idx, is_wedge) in pending {
        let outcome = ticket.wait();
        if is_wedge {
            if let ServeOutcome::Completed { attempts, .. } = &outcome {
                if *attempts > 1 {
                    chaos.wedge_healed += 1;
                }
            }
        }
        chaos.tally.absorb(outcome, &probs[prob_idx].expect);
    }
    svc.shutdown();
    chaos
}

/// Phase 4: quarantine → probe → readmission recovery time.
struct Recovery {
    recovery_ms: f64,
    recovered: bool,
}

fn phase_quarantine(probs: &[Problem]) -> Recovery {
    let svc = Service::start(ServeConfig {
        tenants: vec![TenantCfg::new("victim")],
        workers: 1,
        core_groups: 1,
        backoff: BackoffPolicy {
            max_attempts: 1,
            ..BackoffPolicy::default()
        },
        quarantine_threshold: 2,
        mesh_timeout: Duration::from_millis(60),
        ..ServeConfig::default()
    });
    for _ in 0..2 {
        let mut req = request(0, &probs[0]);
        req.faults = Some(FaultPlan::EveryAttempt(wedge()));
        let outcome = svc.submit(req).expect("admitted").wait();
        assert!(
            matches!(outcome, ServeOutcome::Failed { .. }),
            "wedge request must fail, got {outcome:?}"
        );
    }
    // The pool's only group is now quarantined; the next clean request
    // can only complete once the healer probes and readmits it.
    let t = Instant::now();
    let outcome = svc.submit(request(0, &probs[0])).expect("admitted").wait();
    let recovery_ms = t.elapsed().as_secs_f64() * 1e3;
    let recovered = match outcome {
        ServeOutcome::Completed { c, .. } => c == probs[0].expect,
        _ => false,
    };
    svc.shutdown();
    Recovery {
        recovery_ms,
        recovered,
    }
}

/// One point on the Gflops-utilization-vs-offered-load curve.
struct LoadPoint {
    /// Offered rate as a percentage of the pool's measured capacity
    /// (`workers / direct_ms`); the last level is an unpaced burst.
    offered_pct: f64,
    offered_rps: f64,
    completed_rps: f64,
    /// Simulated-work throughput actually delivered.
    gflops: f64,
    /// Delivered throughput over pool capacity.
    utilization_pct: f64,
    shed_pct: f64,
    p99_ms: f64,
}

/// Phase 5 (data only, no gate — ROADMAP item 1's leftover curve):
/// paced open-loop load at increasing offered rates against a
/// 2-worker/2-group service. Capacity is the measured direct
/// per-request cost from phase 1, so the curve is machine-relative:
/// utilization climbs with offered load until the workers saturate,
/// then shedding takes over.
fn phase_load_curve(p: &Profile, probs: &[Problem], direct_ms: f64) -> Vec<LoadPoint> {
    let workers = 2usize;
    let flops_per_req = 2.0 * p.m as f64 * p.n as f64 * p.k as f64;
    let capacity_rps = workers as f64 / (direct_ms / 1e3);
    // Pacing gaps as fractions of service capacity: 50%, 100%, 200%,
    // 400% offered, then an unpaced burst.
    let levels: [Option<f64>; 5] = [Some(0.5), Some(1.0), Some(2.0), Some(4.0), None];
    let mut curve = Vec::with_capacity(levels.len());
    for load in levels {
        let svc = Service::start(ServeConfig {
            tenants: vec![TenantCfg {
                name: "load".into(),
                weight: 1,
                queue_cap: 8,
            }],
            workers,
            core_groups: workers,
            ..ServeConfig::default()
        });
        let gap = load.map(|f| Duration::from_secs_f64(1.0 / (capacity_rps * f)));
        let mut tally = Tally::default();
        let mut pending = Vec::new();
        let t0 = Instant::now();
        for i in 0..p.load_requests {
            let prob_idx = i % probs.len();
            match svc.submit(request(0, &probs[prob_idx])) {
                Ok(ticket) => pending.push((ticket, prob_idx)),
                Err(_) => tally.rejected += 1,
            }
            if let Some(gap) = gap {
                std::thread::sleep(gap);
            }
        }
        let submit_window = t0.elapsed().as_secs_f64().max(1e-9);
        for (ticket, prob_idx) in pending {
            tally.absorb(ticket.wait(), &probs[prob_idx].expect);
        }
        let wall = t0.elapsed().as_secs_f64().max(1e-9);
        svc.shutdown();
        let offered_rps = p.load_requests as f64 / submit_window;
        let completed_rps = tally.completed as f64 / wall;
        let mut sorted = tally.latencies_ms.clone();
        sorted.sort_by(f64::total_cmp);
        curve.push(LoadPoint {
            offered_pct: 100.0 * offered_rps / capacity_rps,
            offered_rps,
            completed_rps,
            gflops: completed_rps * flops_per_req / 1e9,
            utilization_pct: 100.0 * completed_rps / capacity_rps,
            shed_pct: 100.0 * tally.rejected as f64 / p.load_requests as f64,
            p99_ms: percentile(&sorted, 0.99),
        });
    }
    curve
}

fn main() {
    let cli = parse_cli();
    let profile = if cli.short {
        Profile::short()
    } else {
        Profile::full()
    };
    let label = if cli.short { "short" } else { "full" };
    println!(
        "== serve_bench ({label}): {}x{}x{} GEMMs ==",
        profile.m, profile.n, profile.k
    );
    let probs = problems(&profile, 4);
    let mut gate_misses: Vec<String> = Vec::new();

    // Phase 1: overhead.
    let ov = phase_overhead(&profile, &probs[0]);
    let allowed = OVERHEAD_TOL_PCT + ov.noise_pct;
    println!(
        "overhead : direct {:.2} ms, served {:.2} ms, {:+.2}% (noise {:.2}%, allowed {:.2}%)",
        ov.direct_ms, ov.served_ms, ov.overhead_pct, ov.noise_pct, allowed
    );
    if ov.overhead_pct > allowed {
        gate_misses.push(format!(
            "service overhead {:+.2}% exceeds {OVERHEAD_TOL_PCT}% + {:.2}% noise",
            ov.overhead_pct, ov.noise_pct
        ));
    }

    // Phase 2: mixed load.
    let mixed = phase_mixed(&profile, &probs);
    let mut sorted = mixed.latencies_ms.clone();
    sorted.sort_by(f64::total_cmp);
    let p50 = percentile(&sorted, 0.50);
    let p99 = percentile(&sorted, 0.99);
    let goodput_pct = 100.0 * mixed.completed as f64 / profile.mixed_total as f64;
    let shed_pct = 100.0 * mixed.rejected as f64 / profile.mixed_total as f64;
    println!(
        "mixed    : {} requests -> {} completed ({} after retry), {} shed, {} failed, \
         {} cancelled; p50 {:.2} ms, p99 {:.2} ms, goodput {:.1}%, shed {:.1}%",
        profile.mixed_total,
        mixed.completed,
        mixed.retried_completions,
        mixed.rejected,
        mixed.failed,
        mixed.cancelled,
        p50,
        p99,
        goodput_pct,
        shed_pct
    );
    if mixed.incorrect > 0 {
        gate_misses.push(format!(
            "{} mixed-load completion(s) were not bitwise the reference",
            mixed.incorrect
        ));
    }
    if mixed.accounted() != profile.mixed_total {
        gate_misses.push(format!(
            "mixed-load accounting leak: {} of {} requests resolved",
            mixed.accounted(),
            profile.mixed_total
        ));
    }

    // The p99 pin (full profile only — the short profile runs a
    // different shape, so its tail is not comparable).
    let baseline = std::fs::read_to_string("BENCH_serve.json").ok();
    let pinned = |key: &str| baseline.as_ref().and_then(|t| json_number(t, key));
    let p99_ceiling = if cli.short {
        None
    } else {
        match pinned("p99_ms_ceiling") {
            Some(ceiling) => {
                if p99 > ceiling {
                    gate_misses.push(format!(
                        "mixed-load p99 {p99:.2} ms exceeds the pinned ceiling {ceiling:.2} ms"
                    ));
                } else {
                    println!("p99 pin  : {p99:.2} ms <= pinned ceiling {ceiling:.2} ms");
                }
                Some(ceiling)
            }
            None => {
                let init = p99 * P99_PIN_HEADROOM;
                println!("p99 pin  : no pinned ceiling, initializing to {init:.2} ms (+50%)");
                Some(init)
            }
        }
    };

    // Phase 3: chaos.
    let chaos = phase_chaos(&profile, &probs);
    println!(
        "chaos    : {} requests ({} faulted) -> {} completed ({} after retry), {} failed, \
         {} cancelled; {} incorrect; wedge healed {}/{}",
        profile.chaos_total,
        chaos.faulted,
        chaos.tally.completed,
        chaos.tally.retried_completions,
        chaos.tally.failed,
        chaos.tally.cancelled,
        chaos.tally.incorrect,
        chaos.wedge_healed,
        chaos.wedge_requests
    );
    if chaos.tally.incorrect > 0 {
        gate_misses.push(format!(
            "{} chaos completion(s) were not bitwise the reference",
            chaos.tally.incorrect
        ));
    }
    if chaos.wedge_healed != chaos.wedge_requests {
        gate_misses.push(format!(
            "only {}/{} wedge requests healed via retry on another group",
            chaos.wedge_healed, chaos.wedge_requests
        ));
    }
    if chaos.tally.accounted() != profile.chaos_total {
        gate_misses.push(format!(
            "chaos accounting leak: {} of {} requests resolved",
            chaos.tally.accounted(),
            profile.chaos_total
        ));
    }

    // Phase 4: quarantine recovery.
    let rec = phase_quarantine(&probs);
    println!(
        "recovery : quarantine -> probe -> readmission in {:.1} ms ({})",
        rec.recovery_ms,
        if rec.recovered {
            "bitwise clean"
        } else {
            "FAILED"
        }
    );
    if !rec.recovered {
        gate_misses.push("post-quarantine request did not complete correctly".into());
    }

    // Phase 5: utilization-vs-offered-load curve (data only, no gate).
    let curve = phase_load_curve(&profile, &probs, ov.direct_ms);
    for pt in &curve {
        println!(
            "load     : offered {:>6.1}% ({:.2} rps) -> {:.2} rps completed, \
             {:.3} Gflops ({:.1}% util), shed {:.1}%, p99 {:.1} ms",
            pt.offered_pct,
            pt.offered_rps,
            pt.completed_rps,
            pt.gflops,
            pt.utilization_pct,
            pt.shed_pct,
            pt.p99_ms
        );
    }

    let pass = gate_misses.is_empty();
    println!();
    if pass {
        println!("gates: PASS (correctness, liveness, overhead, tail)");
    } else {
        for miss in &gate_misses {
            eprintln!("GATE MISS: {miss}");
        }
    }

    let path = if cli.short {
        "BENCH_serve_short.json"
    } else {
        "BENCH_serve.json"
    };
    let json = format!(
        concat!(
            "{{\n",
            "  \"schema\": 1,\n",
            "  \"profile\": \"{}\",\n",
            "  \"m\": {},\n",
            "  \"n\": {},\n",
            "  \"k\": {},\n",
            "  \"overhead_pct\": {:.2},\n",
            "  \"overhead_noise_pct\": {:.2},\n",
            "  \"direct_ms\": {:.3},\n",
            "  \"served_ms\": {:.3},\n",
            "  \"mixed_total\": {},\n",
            "  \"mixed_completed\": {},\n",
            "  \"mixed_shed\": {},\n",
            "  \"p50_ms\": {:.3},\n",
            "  \"p99_ms\": {:.3},\n",
            "  \"p99_ms_ceiling\": {},\n",
            "  \"goodput_pct\": {:.1},\n",
            "  \"shed_pct\": {:.1},\n",
            "  \"chaos_total\": {},\n",
            "  \"chaos_faulted\": {},\n",
            "  \"chaos_incorrect\": {},\n",
            "  \"chaos_wedge_healed\": {},\n",
            "  \"chaos_wedge_requests\": {},\n",
            "  \"recovery_ms\": {:.1},\n",
            "  \"load_curve\": [\n{}\n  ],\n",
            "  \"pass\": {}\n",
            "}}\n"
        ),
        label,
        profile.m,
        profile.n,
        profile.k,
        ov.overhead_pct,
        ov.noise_pct,
        ov.direct_ms,
        ov.served_ms,
        profile.mixed_total,
        mixed.completed,
        mixed.rejected,
        p50,
        p99,
        p99_ceiling.map_or("null".into(), |c| format!("{c:.3}")),
        goodput_pct,
        shed_pct,
        profile.chaos_total,
        chaos.faulted,
        chaos.tally.incorrect,
        chaos.wedge_healed,
        chaos.wedge_requests,
        rec.recovery_ms,
        curve
            .iter()
            .map(|pt| {
                format!(
                    "    {{\"offered_pct\": {:.1}, \"offered_rps\": {:.3}, \
                     \"completed_rps\": {:.3}, \"gflops\": {:.4}, \
                     \"utilization_pct\": {:.1}, \"shed_pct\": {:.1}, \"p99_ms\": {:.2}}}",
                    pt.offered_pct,
                    pt.offered_rps,
                    pt.completed_rps,
                    pt.gflops,
                    pt.utilization_pct,
                    pt.shed_pct,
                    pt.p99_ms
                )
            })
            .collect::<Vec<_>>()
            .join(",\n"),
        pass
    );
    std::fs::write(path, &json).unwrap_or_else(|e| panic!("failed to write {path}: {e}"));
    println!("wrote {path}");

    if !pass && cli.assert_gate {
        std::process::exit(1);
    }
    if !pass {
        eprintln!("(advisory run: rerun with --assert to make the gates fatal)");
    }
}
