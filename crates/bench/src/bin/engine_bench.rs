//! Execution-engine benchmark: measures what the engine overhaul
//! bought, and writes `BENCH_engine.json`.
//!
//! Two measurements:
//!
//! 1. **Interpreter throughput** (instructions/second) on the
//!    production kernel streams, for the *seed* engine (re-implemented
//!    here verbatim, with its per-instruction `Vec` source-register
//!    queries), the reference engine (`Machine::run_reference`,
//!    allocation-free source sets), and the predecoded engine
//!    (`run_decoded`).
//! 2. **Fig. 6 sweep wall time** (10 square sizes × 5 variants of
//!    timing-mode estimation), seed engine — `Vec`-allocating
//!    interpreter, `Vec`-dependence DAG, no kernel memoization —
//!    versus the current engine, cold (kernel-report cache reset
//!    before each cold sweep; each timed arm repeats its sweep for at
//!    least 250 ms) and warm.
//!
//! Every comparison first asserts the engines agree exactly (same
//! `ExecReport`, same LDM image, same makespan per estimate), so the
//! speedups reported are for interchangeable computations.
//!
//! Flags: `--filter <stream>` restricts the throughput rows to
//! matching kernel streams, and `--assert` (CI mode) makes pinned-floor
//! misses fatal. Partial runs (`--filter`) never rewrite
//! `BENCH_engine.json`.

use std::hint::black_box;
use std::time::{Duration, Instant};
use sw_bench::paper::PAPER_FIG6_SCHED;
use sw_bench::thread_cpu_time;
use sw_dgemm::timing::{estimate, kernel_cache_reset, kernel_cache_stats};
use sw_dgemm::Variant;
use sw_isa::kernels::{gen_block_kernel, BlockKernelCfg, KernelStyle, Operand};
use sw_isa::{DecodedProgram, Instr, Machine, SinkComm};

/// A faithful re-implementation of the seed revision's execution
/// engine, kept as the benchmark baseline: per-instruction `Vec`
/// source queries in the interpreter, `Vec`-backed task dependences in
/// the discrete-event DAG, and no kernel-report memoization.
mod seed {
    use sw_arch::consts::{MESH_TRANSIT_CYCLES, VREG_COUNT};
    use sw_arch::V256;
    use sw_dgemm::variants::raw::RawParams;
    use sw_dgemm::{GemmPlan, Variant};
    use sw_isa::kernels::{gen_block_kernel, BlockKernelCfg, KernelStyle, Operand};
    use sw_isa::{ExecReport, IReg, Instr, VReg};
    use sw_mem::dma::{BandwidthModel, DmaMode};

    const IREG_COUNT: usize = 8;
    const BRANCH_TAKEN_PENALTY: u64 = 2;
    const STEP_SYNC_CYCLES: u64 = MESH_TRANSIT_CYCLES + 40;

    fn vsrcs(i: &Instr) -> Vec<VReg> {
        match *i {
            Instr::Vmad { a, b, c, .. } => vec![a, b, c],
            Instr::Vstd { s, .. } => vec![s],
            _ => vec![],
        }
    }

    fn isrcs(i: &Instr) -> Vec<IReg> {
        match *i {
            Instr::Vldd { base, .. }
            | Instr::Vstd { base, .. }
            | Instr::Ldde { base, .. }
            | Instr::Vldr { base, .. }
            | Instr::Lddec { base, .. } => vec![base],
            Instr::Addl { s, .. } | Instr::Bne { s, .. } => vec![s],
            _ => vec![],
        }
    }

    /// The seed `Machine::run` loop, heap-allocating source sets per
    /// dynamic instruction. Broadcasts are sunk and receives return
    /// zero (`SinkComm` semantics).
    pub fn run(prog: &[Instr], ldm: &mut [f64]) -> ExecReport {
        let mut vregs = [V256::ZERO; VREG_COUNT];
        let mut iregs = [0i64; IREG_COUNT];
        let mut report = ExecReport::default();
        let mut vready = [0u64; VREG_COUNT];
        let mut iready = [0u64; IREG_COUNT];
        let mut cur: u64 = 0;
        let mut p0_used = false;
        let mut p1_used = false;
        let mut last_issue: u64 = 0;
        let mut pc = 0usize;

        let addr = |iregs: &[i64; IREG_COUNT], base: IReg, off: i64| -> usize {
            let a = iregs[base.idx()] + off;
            assert!(a >= 0);
            a as usize
        };

        while pc < prog.len() {
            let instr = prog[pc];
            report.instructions += 1;
            assert!(report.instructions <= 200_000_000, "runaway loop");

            let mut t = cur;
            for r in vsrcs(&instr) {
                t = t.max(vready[r.idx()]);
            }
            for r in isrcs(&instr) {
                t = t.max(iready[r.idx()]);
            }
            if let Some(d) = instr.vdst() {
                t = t.max(vready[d.idx()]);
            }
            if let Some(d) = instr.idst() {
                t = t.max(iready[d.idx()]);
            }
            loop {
                if t > cur {
                    cur = t;
                    p0_used = false;
                    p1_used = false;
                }
                let used = match instr.pipe() {
                    sw_isa::instr::Pipe::P0 => &mut p0_used,
                    sw_isa::instr::Pipe::P1 => &mut p1_used,
                };
                if !*used {
                    *used = true;
                    break;
                }
                t += 1;
            }
            if p0_used && p1_used {
                report.dual_issue_cycles += 1;
            }
            last_issue = last_issue.max(t);

            if let Some(d) = instr.vdst() {
                vready[d.idx()] = t + instr.latency();
            }
            if let Some(d) = instr.idst() {
                iready[d.idx()] = t + instr.latency();
            }
            let mut next_pc = pc + 1;
            match instr {
                Instr::Vmad { a, b, c, d } => {
                    report.vmads += 1;
                    vregs[d.idx()] = vregs[a.idx()].fma(vregs[b.idx()], vregs[c.idx()]);
                }
                Instr::Vldd { d, base, off } => {
                    let a = addr(&iregs, base, off);
                    vregs[d.idx()] = V256::load(&ldm[a..]);
                }
                Instr::Vstd { s, base, off } => {
                    let a = addr(&iregs, base, off);
                    vregs[s.idx()].store(&mut ldm[a..a + 4]);
                }
                Instr::Ldde { d, base, off } => {
                    let a = addr(&iregs, base, off);
                    vregs[d.idx()] = V256::splat(ldm[a]);
                }
                Instr::Vldr { d, base, off, .. } => {
                    let a = addr(&iregs, base, off);
                    vregs[d.idx()] = V256::load(&ldm[a..]);
                }
                Instr::Lddec { d, base, off, .. } => {
                    let a = addr(&iregs, base, off);
                    vregs[d.idx()] = V256::splat(ldm[a]);
                }
                Instr::Getr { d } | Instr::Getc { d } => {
                    vregs[d.idx()] = V256::ZERO;
                }
                Instr::Vclr { d } => {
                    vregs[d.idx()] = V256::ZERO;
                }
                Instr::Addl { d, s, imm } => {
                    iregs[d.idx()] = iregs[s.idx()] + imm;
                }
                Instr::Setl { d, imm } => {
                    iregs[d.idx()] = imm;
                }
                Instr::Bne { s, target } => {
                    if iregs[s.idx()] != 0 {
                        report.taken_branches += 1;
                        next_pc = target;
                        cur = t + 1 + BRANCH_TAKEN_PENALTY;
                        p0_used = false;
                        p1_used = false;
                    }
                }
                Instr::Nop => {}
            }
            pc = next_pc;
        }
        report.cycles = if report.instructions == 0 {
            0
        } else {
            last_issue + 1
        };
        report
    }

    /// The seed DAG: task dependences heap-allocated per task.
    #[derive(Default)]
    pub struct SeedDag {
        tasks: Vec<(u8, u64, Vec<usize>)>, // (resource, duration, deps)
    }

    const DMA: u8 = 0;
    const CPES: u8 = 1;

    impl SeedDag {
        fn task(&mut self, resource: u8, duration: u64, deps: &[usize]) -> usize {
            let id = self.tasks.len();
            self.tasks.push((resource, duration, deps.to_vec()));
            id
        }

        fn schedule(&self) -> u64 {
            let mut finish = vec![0u64; self.tasks.len()];
            let mut dma_free = 0u64;
            let mut cpes_free = 0u64;
            let mut makespan = 0u64;
            for (i, (res, dur, deps)) in self.tasks.iter().enumerate() {
                let ready = deps.iter().map(|&d| finish[d]).max().unwrap_or(0);
                let start = if *res == DMA {
                    ready.max(dma_free)
                } else {
                    ready.max(cpes_free)
                };
                let end = start + dur;
                if *res == DMA {
                    dma_free = end;
                } else {
                    cpes_free = end;
                }
                finish[i] = end;
                makespan = makespan.max(end);
            }
            makespan
        }
    }

    /// The seed `measure_kernel`: regenerates and re-executes the
    /// kernel stream on every call (no memoization), on the
    /// `Vec`-allocating interpreter.
    pub fn measure_kernel(pm: usize, pn: usize, pk: usize, style: KernelStyle) -> ExecReport {
        let a_base = 0;
        let b_base = (a_base + pm * pk).next_multiple_of(4);
        let c_base = (b_base + pk * pn).next_multiple_of(4);
        let alpha_addr = c_base + pm * pn;
        let cfg = BlockKernelCfg {
            pm,
            pn,
            pk,
            a_src: Operand::Ldm,
            b_src: Operand::Ldm,
            a_base,
            b_base,
            c_base,
            alpha_addr,
        };
        let mut ldm = vec![0.0f64; alpha_addr + 1];
        ldm[alpha_addr] = 1.0;
        run(&gen_block_kernel(&cfg, style), &mut ldm)
    }

    /// The seed shared-variant estimate: same schedule construction as
    /// `sw_dgemm::timing::build_shared_dag`, on the seed DAG and the
    /// seed interpreter. Returns the makespan in cycles.
    pub fn estimate_shared_makespan(variant: Variant, m: usize, n: usize, k: usize) -> u64 {
        let model = BandwidthModel::calibrated();
        let params = variant.paper_params();
        let plan = GemmPlan::new(m, n, k, params, variant.double_buffered()).unwrap();
        let mapping = variant.mapping();
        let p = plan.params;
        let kernel = measure_kernel(p.pm, p.pn, p.pk, variant.kernel_style());
        let block_compute = 8 * (kernel.cycles + STEP_SYNC_CYCLES);

        let (a_fp, b_fp, c_fp) = (m * k * 8, k * n * 8, m * n * 8);
        let (bm, bn, bk) = (p.bm(), p.bn(), p.bk());
        let b_cycles = model.transfer_cycles(DmaMode::Pe, 64, bk * bn * 8, p.pk * 8, b_fp);
        let (ac_mode, ac_desc, ac_run) = match mapping {
            sw_dgemm::mapping::Mapping::Pe => (DmaMode::Pe, 64, p.pm * 8),
            sw_dgemm::mapping::Mapping::Row => (DmaMode::Row, 8, bm * 8),
        };
        let a_cycles = model.transfer_cycles(ac_mode, ac_desc, bm * bk * 8, ac_run, a_fp);
        let c_cycles = model.transfer_cycles(ac_mode, ac_desc, bm * bn * 8, ac_run, c_fp);

        let mut dag = SeedDag::default();
        let mut prev_compute: Option<usize> = None;
        let dep = |t: Option<usize>| t.map(|x| vec![x]).unwrap_or_default();
        for _j in 0..plan.grid_n {
            for _l in 0..plan.grid_k {
                let b_task = dag.task(DMA, b_cycles, &dep(prev_compute));
                if plan.double_buffered {
                    let mut pref_a = dag.task(DMA, a_cycles, &dep(prev_compute));
                    let mut pref_c = dag.task(DMA, c_cycles, &dep(prev_compute));
                    for i in 0..plan.grid_m {
                        let (next_a, next_c) = if i + 1 < plan.grid_m {
                            let a = dag.task(DMA, a_cycles, &dep(prev_compute));
                            let c = dag.task(DMA, c_cycles, &dep(prev_compute));
                            (Some(a), Some(c))
                        } else {
                            (None, None)
                        };
                        let mut deps = vec![pref_a, pref_c, b_task];
                        if let Some(pc) = prev_compute {
                            deps.push(pc);
                        }
                        let compute = dag.task(CPES, block_compute, &deps);
                        dag.task(DMA, c_cycles, &[compute]);
                        prev_compute = Some(compute);
                        if let (Some(a), Some(c)) = (next_a, next_c) {
                            pref_a = a;
                            pref_c = c;
                        }
                    }
                } else {
                    for _i in 0..plan.grid_m {
                        let a = dag.task(DMA, a_cycles, &dep(prev_compute));
                        let c = dag.task(DMA, c_cycles, &dep(prev_compute));
                        let compute = dag.task(CPES, block_compute, &[a, c, b_task]);
                        dag.task(DMA, c_cycles, &[compute]);
                        prev_compute = Some(compute);
                    }
                }
            }
        }
        dag.schedule()
    }

    /// The seed RAW-baseline estimate (same construction as
    /// `sw_dgemm::timing::estimate_raw`), returning the makespan.
    pub fn estimate_raw_makespan(m: usize, n: usize, k: usize) -> u64 {
        let model = BandwidthModel::calibrated();
        let raw = RawParams::paper();
        let kernel = measure_kernel(raw.pm, raw.pn, raw.kc, KernelStyle::Naive);
        let chunks = k / raw.kc;
        let (a_fp, b_fp, c_fp) = (m * k * 8, k * n * 8, m * n * 8);
        let c_io =
            2 * model.transfer_cycles(DmaMode::Pe, 64, 64 * raw.pm * raw.pn * 8, raw.pm * 8, c_fp);
        let a_chunk =
            model.transfer_cycles(DmaMode::Pe, 64, 64 * raw.pm * raw.kc * 8, raw.pm * 8, a_fp);
        let b_chunk =
            model.transfer_cycles(DmaMode::Pe, 64, 64 * raw.kc * raw.pn * 8, raw.kc * 8, b_fp);
        let dma_per_wave = c_io + chunks as u64 * (a_chunk + b_chunk);
        let compute_per_wave = chunks as u64 * kernel.cycles;
        let waves = (m / 8 / raw.pm) * (n / 8 / raw.pn);

        let mut dag = SeedDag::default();
        let mut prev: Option<usize> = None;
        for _ in 0..waves {
            let deps = prev.map(|t| vec![t]).unwrap_or_default();
            let dma = dag.task(DMA, dma_per_wave, &deps);
            let compute = dag.task(CPES, compute_per_wave, &[dma]);
            prev = Some(compute);
        }
        dag.schedule()
    }

    pub fn estimate_makespan(variant: Variant, mnk: usize) -> u64 {
        match variant {
            Variant::Raw => estimate_raw_makespan(mnk, mnk, mnk),
            _ => estimate_shared_makespan(variant, mnk, mnk, mnk),
        }
    }
}

/// Hardware-normalized probe-overhead gate: the fig6-sweep speedup
/// over the in-process seed engine is a ratio of two same-machine
/// measurements, so if the observability hooks (registry counters,
/// flight recorder, `PROBE = false` interpreter) cost anything on the
/// hot path, the cold speedup drops. Two pins in the committed
/// `BENCH_engine.json` guard it: `speedup_cold_floor`, a conservative
/// absolute lower bound carried forward verbatim on regeneration, and
/// `speedup_cold` itself, the previous full run's measured median,
/// which the *symmetric* drift gate compares against — the measured
/// median must stay within 2% plus the run's own noise floor of the
/// reference, in either direction, so stale references surface as
/// failures instead of being silently banked as headroom.
fn json_number(text: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = text.find(&needle)? + needle.len();
    let rest = text[at..].trim_start();
    let end = rest
        .find(|c: char| c != '.' && c != '-' && !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Shortest wall time one arm of an interleaved sweep round runs.
const ARM_FLOOR: Duration = Duration::from_millis(250);

/// Calls `f` once and returns how many calls fill `floor`.
fn reps_for<F: FnMut()>(floor: Duration, mut f: F) -> u32 {
    let t = Instant::now();
    f();
    let once = t.elapsed().max(Duration::from_micros(1));
    floor.as_nanos().div_ceil(once.as_nanos()).max(1) as u32
}

/// Mean thread CPU time per call of `reps` calls of `f`: the probe
/// pairs' clock, blind to time the host gives other processes.
fn time_reps<F: FnMut()>(reps: u32, mut f: F) -> Duration {
    let t = thread_cpu_time();
    for _ in 0..reps {
        f();
    }
    (thread_cpu_time() - t) / reps
}

/// Times `f` over `rounds` calls, returning the fastest round.
fn best_of<F: FnMut()>(rounds: usize, mut f: F) -> Duration {
    let mut best = Duration::MAX;
    for _ in 0..rounds {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed());
    }
    best
}

/// Times `f` adaptively so the total measured window is ≥ `floor`,
/// returning seconds per call.
fn secs_per_call<F: FnMut()>(floor: Duration, mut f: F) -> f64 {
    let mut n = 1u32;
    loop {
        let t = Instant::now();
        for _ in 0..n {
            f();
        }
        let el = t.elapsed();
        if el >= floor {
            // The window size is settled; take the fastest of three
            // full windows so a frequency dip or background burst
            // during one window can't skew a throughput row.
            let mut best = el;
            for _ in 0..2 {
                let t = Instant::now();
                for _ in 0..n {
                    f();
                }
                best = best.min(t.elapsed());
            }
            return best.as_secs_f64() / n as f64;
        }
        n = n.saturating_mul(2);
    }
}

fn kernel_cfg(pn: usize) -> BlockKernelCfg {
    BlockKernelCfg {
        pm: 16,
        pn,
        pk: 96,
        a_src: Operand::Ldm,
        b_src: Operand::Ldm,
        a_base: 0,
        b_base: 2048,
        c_base: 6144,
        alpha_addr: 8000,
    }
}

/// Parsed command-line options.
#[derive(Default)]
struct Cli {
    /// `--filter`: restrict the throughput rows to streams whose name
    /// contains this substring.
    filter: Option<String>,
    /// `--assert`: exit non-zero when a pinned floor is missed.
    assert_floors: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: engine_bench [--filter <stream>] [--assert]\n\
         \n\
         --filter    bench only kernel streams whose name contains <stream>\n\
         --assert    exit non-zero when a pinned floor is missed (CI mode)\n\
         \n\
         Equivalence gates always run and are always fatal. Partial runs\n\
         (--filter) skip rewriting BENCH_engine.json."
    );
    std::process::exit(2);
}

fn parse_cli() -> Cli {
    let mut cli = Cli::default();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--assert" => cli.assert_floors = true,
            "--filter" => cli.filter = Some(args.next().unwrap_or_else(|| usage())),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag `{other}`");
                usage()
            }
        }
    }
    cli
}

struct InterpRow {
    stream: &'static str,
    instructions: u64,
    seed_mips: f64,
    reference_mips: f64,
    decoded_mips: f64,
}

fn bench_interpreters(style: KernelStyle, stream: &'static str) -> InterpRow {
    let cfg = kernel_cfg(32);
    let prog: Vec<Instr> = gen_block_kernel(&cfg, style);
    let decoded = DecodedProgram::new(&prog);
    let fresh_ldm = || {
        let mut l = vec![0.0f64; 8192];
        l[cfg.alpha_addr] = 1.0;
        l
    };

    // Equivalence gate: all three engines must agree exactly (report
    // and LDM image). Always runs, regardless of --filter.
    let mut l1 = fresh_ldm();
    let r_seed = seed::run(&prog, &mut l1);
    let mut l2 = fresh_ldm();
    let mut comm = SinkComm;
    let r_ref = Machine::new(&mut l2, &mut comm).run_reference(&prog);
    let mut l3 = fresh_ldm();
    let mut comm = SinkComm;
    let r_dec = Machine::new(&mut l3, &mut comm).run_decoded(&decoded);
    assert_eq!(
        r_seed, r_ref,
        "seed vs reference reports diverge on {stream}"
    );
    assert_eq!(
        r_ref, r_dec,
        "reference vs decoded reports diverge on {stream}"
    );
    assert_eq!(l1, l2, "seed vs reference LDM diverges on {stream}");
    assert_eq!(l2, l3, "reference vs decoded LDM diverges on {stream}");

    let floor = Duration::from_millis(300);
    let mut ldm = fresh_ldm();
    let seed_s = secs_per_call(floor, || {
        black_box(seed::run(&prog, &mut ldm));
    });
    let mut ldm = fresh_ldm();
    let mut comm = SinkComm;
    let ref_s = secs_per_call(floor, || {
        black_box(Machine::new(&mut ldm, &mut comm).run_reference(&prog));
    });
    let mut ldm = fresh_ldm();
    let mut comm = SinkComm;
    let dec_s = secs_per_call(floor, || {
        black_box(Machine::new(&mut ldm, &mut comm).run_decoded(&decoded));
    });

    let mips = |s: f64| r_seed.instructions as f64 / s / 1e6;
    InterpRow {
        stream,
        instructions: r_seed.instructions,
        seed_mips: mips(seed_s),
        reference_mips: mips(ref_s),
        decoded_mips: mips(dec_s),
    }
}

/// Key of the pinned cold-sweep floor: a deliberately conservative
/// lower bound, carried forward verbatim on regeneration.
const FLOOR_KEY: &str = "speedup_cold_floor";

/// Key of the pinned *reference* speedup (the previous full run's
/// measured median) the symmetric probe-overhead gate compares
/// against. Unlike the floor, the reference is rewritten to the fresh
/// median on every full regeneration, so drift is measured around zero
/// instead of against a value that is 10-15% low by construction.
const REFERENCE_KEY: &str = "speedup_cold";

/// Probe-overhead drift tolerated on top of the measured noise floor.
const PROBE_TOL_PCT: f64 = 2.0;

fn main() {
    let cli = parse_cli();
    let partial = cli.filter.is_some();
    let sizes: Vec<usize> = PAPER_FIG6_SCHED.iter().map(|&(s, _)| s).collect();

    // 1. Fig. 6 sweep, seed vs current engine, in *interleaved
    //    rounds*: each round times one seed arm then one cold arm
    //    (kernel-report cache reset before every cold sweep), and the
    //    reported speedup is the median of the per-round ratios of
    //    per-sweep times. Pairing cancels slow drift (CPU frequency
    //    scaling, background load) that separate seed-then-current
    //    phases would bake into the ratio — the floor gates below need
    //    that stability. A cold sweep takes tens of milliseconds, too
    //    short to time against scheduler noise, so each arm repeats its
    //    sweep until it has run for at least `ARM_FLOOR`, and each arm
    //    is timed in thread CPU time, so time the host gives to other
    //    processes lands in neither arm.
    assert_eq!(
        kernel_cache_stats().misses,
        0,
        "cache must be cold for the cold-sweep number"
    );
    let run_sweep = || {
        for &s in &sizes {
            for v in Variant::ALL {
                black_box(estimate(v, s, s, s).unwrap());
            }
        }
    };
    let cold_sweep = || {
        kernel_cache_reset();
        run_sweep();
    };
    let seed_sweep = || {
        for &s in &sizes {
            for v in Variant::ALL {
                black_box(seed::estimate_makespan(v, s));
            }
        }
    };
    // The first cold sweep sizes the cold arm and records the cache
    // traffic of one cold sweep.
    let cold_reps = reps_for(ARM_FLOOR, cold_sweep);
    let cache = kernel_cache_stats();
    let seed_reps = reps_for(ARM_FLOOR, seed_sweep);
    let mut pair_ratios: Vec<f64> = Vec::new();
    let mut cold_best = Duration::MAX;
    let mut seed_time = Duration::MAX;
    for _ in 0..5 {
        let s = time_reps(seed_reps, seed_sweep);
        seed_time = seed_time.min(s);
        let c = time_reps(cold_reps, cold_sweep);
        cold_best = cold_best.min(c);
        pair_ratios.push(s.as_secs_f64() / c.as_secs_f64());
    }
    pair_ratios.sort_by(f64::total_cmp);
    let speedup_cold = pair_ratios[pair_ratios.len() / 2];

    // Warm: the report cache now holds every kernel shape the sweep
    // needs.
    let warm = best_of(3, run_sweep);

    // 2. Per-estimate equivalence gate against the current engine.
    let mut checked = false;
    for &s in &sizes {
        for v in Variant::ALL {
            let seed_mk = seed::estimate_makespan(v, s);
            let new_mk = estimate(v, s, s, s).unwrap().makespan_cycles;
            assert_eq!(
                seed_mk, new_mk,
                "seed vs current makespan diverges for {v} at {s}"
            );
            checked = true;
        }
    }
    assert!(checked);

    // 3. Interpreter throughput on the production kernel streams.
    let streams = [
        (KernelStyle::Scheduled, "sched"),
        (KernelStyle::Naive, "naive"),
    ];
    let rows: Vec<InterpRow> = streams
        .iter()
        .filter(|(_, name)| cli.filter.as_deref().is_none_or(|f| name.contains(f)))
        .map(|&(style, name)| bench_interpreters(style, name))
        .collect();
    if rows.is_empty() {
        eprintln!(
            "--filter {:?} matches no kernel stream (have: sched, naive)",
            cli.filter.as_deref().unwrap_or("")
        );
        std::process::exit(2);
    }

    println!("== interpreter throughput (Minstr/s) ==");
    println!(
        "{:<8} {:>10} {:>8} {:>8} {:>8} {:>9}",
        "stream", "instrs", "seed", "ref", "decoded", "dec/seed"
    );
    for r in &rows {
        println!(
            "{:<8} {:>10} {:>8.1} {:>8.1} {:>8.1} {:>8.2}x",
            r.stream,
            r.instructions,
            r.seed_mips,
            r.reference_mips,
            r.decoded_mips,
            r.decoded_mips / r.seed_mips
        );
    }
    println!();
    println!("== fig6 sweep wall time (10 sizes x 5 variants) ==");
    println!(
        "seed engine        : {:>10.1} ms",
        seed_time.as_secs_f64() * 1e3
    );
    println!(
        "decoded  (cold)    : {:>10.1} ms   {speedup_cold:.2}x (median of 5 interleaved rounds, \
         {cold_reps} cold sweeps per round)",
        cold_best.as_secs_f64() * 1e3
    );
    println!(
        "decoded  (warm)    : {:>10.1} ms   {:.2}x",
        warm.as_secs_f64() * 1e3,
        seed_time.as_secs_f64() / warm.as_secs_f64()
    );
    println!(
        "kernel cache       : {} hits / {} misses (cold sweep)",
        cache.hits, cache.misses
    );
    println!();

    // 4. Floor gates. The pinned floor lives in the committed
    //    BENCH_engine.json and is carried forward *verbatim* on
    //    regeneration (never ratcheted down by a noisy run) — only a
    //    deliberate re-bless moves it. The measured value may sit
    //    within 2% below the floor before it counts as a miss; misses
    //    are fatal under --assert.
    //
    //    The cold-sweep floor is the probe-overhead gate: the speedup
    //    over the in-process seed engine is a ratio of two
    //    same-machine measurements, so if the observability hooks
    //    (registry counters, flight recorder, `PROBE = false`
    //    interpreter) cost anything on the hot path, the cold speedup
    //    drops below its floor.
    let path = "BENCH_engine.json";
    let baseline = std::fs::read_to_string(path).ok();
    let pinned = |key: &str| baseline.as_ref().and_then(|t| json_number(t, key));
    let mut failures: Vec<String> = Vec::new();

    println!(
        "== floor gates (measured >= 98% of pinned floor; probe drift: |vs reference| <= \
         {PROBE_TOL_PCT}% + noise) =="
    );
    // Round-to-round noise floor of the ratio: half the spread of the
    // five interleaved pair ratios, relative to their median. A drift
    // smaller than this is not evidence of anything.
    let measured = speedup_cold;
    let noise = 100.0 * (pair_ratios[pair_ratios.len() - 1] - pair_ratios[0]) / (2.0 * measured);
    let sweep_floor = match pinned(FLOOR_KEY) {
        Some(fl) => {
            println!("decoded  cold sweep : {measured:.2}x vs floor {fl:.2}x");
            if measured < 0.98 * fl {
                failures.push(format!(
                    "decoded fig6 cold speedup {measured:.2}x fell below 98% of the \
                     pinned floor {fl:.2}x"
                ));
            }
            fl
        }
        None => {
            // First run without a pinned floor: initialize it 15%
            // under the measured median — the sweep ratio divides two
            // wall-clock medians, and each swings ~±10% across runs on
            // a shared machine.
            let fl = 0.85 * measured;
            println!(
                "decoded  cold sweep : {measured:.2}x; no pinned {FLOOR_KEY}, initializing to \
                 {fl:.2}x"
            );
            fl
        }
    };
    // Symmetric probe-overhead gate: drift of the measured median
    // against the pinned reference (the previous full run's median),
    // failing on |drift| > tolerance + noise in *either* direction — a
    // large negative "overhead" means the committed reference is stale
    // and must be re-blessed by a full regeneration, not silently
    // banked as headroom.
    let mut probe_overhead_pct = 0.0;
    if let Some(reference) = pinned(REFERENCE_KEY) {
        let overhead = (1.0 - measured / reference) * 100.0;
        let allowed = PROBE_TOL_PCT + noise;
        let dir = if overhead >= 0.0 { "cost" } else { "headroom" };
        println!(
            "decoded  probe drift: {overhead:+.1}% vs reference {reference:.2}x \
             ({dir}; noise floor {noise:.1}%, allowed {allowed:.1}%)"
        );
        if overhead.abs() > allowed {
            failures.push(format!(
                "decoded cold-sweep drift {overhead:+.1}% vs the pinned reference \
                 {reference:.2}x exceeds the symmetric band {allowed:.1}% \
                 ({PROBE_TOL_PCT}% tolerance + {noise:.1}% measured noise); \
                 regenerate BENCH_engine.json to re-bless if deliberate"
            ));
        }
        probe_overhead_pct = overhead;
    } else {
        println!("decoded  probe drift: no pinned {REFERENCE_KEY} yet (first full run pins it)");
    }

    if failures.is_empty() {
        println!("all floors hold");
    } else {
        for f in &failures {
            eprintln!("FLOOR MISS: {f}");
        }
        if cli.assert_floors {
            std::process::exit(1);
        }
        eprintln!("(advisory run: rerun with --assert to make floor misses fatal)");
    }

    // 5. BENCH_engine.json — full runs only, so a --filter slice can
    //    never clobber the committed baseline.
    if partial {
        println!("\npartial run (--filter): {path} left untouched");
        return;
    }
    let interp_json: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                concat!(
                    "    {{\"stream\": \"{}\", \"instructions\": {}, ",
                    "\"seed_minstr_per_s\": {:.1}, \"reference_minstr_per_s\": {:.1}, ",
                    "\"decoded_minstr_per_s\": {:.1}, \"decoded_speedup_vs_seed\": {:.2}}}"
                ),
                r.stream,
                r.instructions,
                r.seed_mips,
                r.reference_mips,
                r.decoded_mips,
                r.decoded_mips / r.seed_mips
            )
        })
        .collect();
    let json = format!(
        concat!(
            "{{\n",
            "  \"interpreter\": [\n{}\n  ],\n",
            "  \"fig6_sweep\": {{\n",
            "    \"sizes\": {:?},\n",
            "    \"variants\": 5,\n",
            "    \"seed_engine_ms\": {:.2},\n",
            "    \"current_engine_cold_ms\": {:.2},\n",
            "    \"current_engine_warm_ms\": {:.2},\n",
            "    \"speedup_cold\": {:.2},\n",
            "    \"speedup_warm\": {:.2},\n",
            "    \"speedup_cold_floor\": {:.2},\n",
            "    \"probe_overhead_pct\": {:.1},\n",
            "    \"probe_noise_pct\": {:.1},\n",
            "    \"kernel_cache_cold\": {{\"hits\": {}, \"misses\": {}}}\n",
            "  }}\n",
            "}}\n"
        ),
        interp_json.join(",\n"),
        sizes,
        seed_time.as_secs_f64() * 1e3,
        cold_best.as_secs_f64() * 1e3,
        warm.as_secs_f64() * 1e3,
        speedup_cold,
        seed_time.as_secs_f64() / warm.as_secs_f64(),
        sweep_floor,
        probe_overhead_pct,
        noise,
        cache.hits,
        cache.misses
    );
    std::fs::write(path, &json).expect("failed to write BENCH_engine.json");
    println!("\nwrote {path}");
}
