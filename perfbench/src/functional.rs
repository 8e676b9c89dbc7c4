//! `gemm_functional`: `DgemmRunner::run_on` on one warm `CoreGroup`.
//!
//! One round runs each of ten problems once, in a seeded order:
//! square, tall-skinny and deep-k shapes across PE/ROW/DB/SCHED at
//! test blocking, plus one shape at the paper's blocking. The seed
//! makes the operands, α, β and the order; the shapes are fixed, so
//! every seed does the same work. The host
//! time is the 64-thread runtime — pool wake, barrier, mesh ring, DMA
//! copy, engine and flight recorder; the tuner and the timing model do
//! no work.

use std::borrow::Borrow;
use std::sync::Arc;
use std::time::Instant;

use sw_arch::consts::CLOCK_HZ;
use sw_dgemm::gen::{random_matrix, SplitMix64};
use sw_dgemm::reference::{dgemm_naive, gemm_tolerance};
use sw_dgemm::variants::raw::RawParams;
use sw_dgemm::{timing, BlockingParams, DgemmRunner, GemmPlan, Matrix, Variant};
use sw_mem::dma::BandwidthModel;
use sw_mem::MainMemory;
use sw_probe::flight::N_LANES;
use sw_sim::{CoreGroup, RunStats};

use crate::measure::Fingerprint;
use crate::trace::Tracer;
use crate::{Acc, Ledger, Sim, Workload};

/// The simulated statistics of one functional run; a pure function of
/// the problem's shape, variant and blocking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimStats {
    /// Slowest CPE's final flight-recorder clock.
    pub cycles: u64,
    /// Busy cycles per lane (compute, DMA, mesh, barrier), all CPEs.
    pub busy: [u64; N_LANES],
    /// DMA bytes moved, per-CPE accounting.
    pub dma_bytes: u64,
    /// DMA descriptors issued.
    pub dma_descriptors: u64,
    /// Mesh words broadcast on the row and column networks.
    pub mesh_words: u64,
}

impl SimStats {
    /// Reads the statistics of the run that just finished on `cg`.
    pub fn of(cg: &CoreGroup, stats: &RunStats) -> Self {
        let mut busy = [0u64; N_LANES];
        let mut cycles = 0;
        for r in cg.flight().attribution() {
            cycles = cycles.max(r.clock);
            for (b, v) in busy.iter_mut().zip(r.busy) {
                *b += v;
            }
        }
        SimStats {
            cycles,
            busy,
            dma_bytes: stats.dma.total_bytes(),
            dma_descriptors: stats.dma.descriptors,
            mesh_words: stats.mesh.row_words_sent + stats.mesh.col_words_sent,
        }
    }

    fn fingerprint(&self, fp: &mut Fingerprint) {
        fp.add(self.cycles);
        for b in self.busy {
            fp.add(b);
        }
        fp.add(self.dma_bytes);
        fp.add(self.dma_descriptors);
        fp.add(self.mesh_words);
    }
}

/// One GEMM of a functional workload with its host reference.
pub struct Problem {
    pub variant: Variant,
    pub params: BlockingParams,
    pub alpha: f64,
    pub beta: f64,
    /// Shared, so `serve_abft` hands them to requests without copies.
    pub a: Arc<Matrix>,
    pub b: Arc<Matrix>,
    pub c0: Arc<Matrix>,
    /// `dgemm_naive` of the inputs.
    pub reference: Matrix,
    /// `gemm_tolerance` of the inputs.
    pub tol: f64,
}

impl Problem {
    /// Seeded inputs for a `m×n×k` problem; the reference is computed
    /// by [`Self::compute_reference`].
    pub fn new(
        rng: &mut SplitMix64,
        variant: Variant,
        params: BlockingParams,
        (m, n, k): (usize, usize, usize),
    ) -> Self {
        let a = random_matrix(m, k, rng.next_u64());
        let b = random_matrix(k, n, rng.next_u64());
        let c0 = random_matrix(m, n, rng.next_u64());
        let alpha = rng.range_f64(0.5, 2.0);
        Problem {
            variant,
            params,
            alpha,
            beta: rng.range_f64(-1.0, 1.0),
            tol: gemm_tolerance(&a, &b, alpha),
            reference: c0.clone(),
            a: Arc::new(a),
            b: Arc::new(b),
            c0: Arc::new(c0),
        }
    }

    pub fn dims(&self) -> (usize, usize, usize) {
        (self.a.rows(), self.b.cols(), self.a.cols())
    }

    pub fn flops(&self) -> f64 {
        let (m, n, k) = self.dims();
        2.0 * (m * n * k) as f64
    }

    pub fn compute_reference(&mut self) {
        let mut r = (*self.c0).clone();
        dgemm_naive(self.alpha, &self.a, &self.b, self.beta, &mut r);
        self.reference = r;
    }

    /// `Err` unless `c` matches the host reference within tolerance.
    pub fn check(&self, c: &Matrix) -> Result<(), String> {
        let worst = c
            .as_slice()
            .iter()
            .zip(self.reference.as_slice())
            .map(|(x, y)| (x - y).abs())
            .fold(
                0.0f64,
                |w, d| if d.is_nan() { f64::INFINITY } else { w.max(d) },
            );
        if worst <= self.tol {
            Ok(())
        } else {
            Err(format!(
                "{} {:?}: max |C - reference| = {worst:e} > {:e}",
                self.variant,
                self.dims(),
                self.tol
            ))
        }
    }
}

/// Seeded order of one round: a permutation of `0..n`.
pub fn shuffled(rng: &mut SplitMix64, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.range_usize(0, i + 1));
    }
    order
}

/// Σ flops / Σ simulated seconds, and the mean |flight − timing DAG|
/// / timing DAG in percent, over one execution of each problem.
pub fn sim_summary<P: Borrow<Problem>>(
    problems: &[P],
    stats: &[Option<SimStats>],
    dag: &[u64],
) -> Sim {
    let mut fp = Fingerprint::default();
    let (mut flops, mut secs, mut err) = (0.0, 0.0, 0.0);
    for ((p, s), d) in problems.iter().zip(stats).zip(dag) {
        let (p, Some(s)) = (p.borrow(), s) else {
            continue;
        };
        flops += p.flops();
        secs += s.cycles as f64 / CLOCK_HZ;
        err += (s.cycles as f64 - *d as f64).abs() / *d as f64;
        s.fingerprint(&mut fp);
        fp.add(*d);
    }
    let gflops = flops / secs.max(f64::MIN_POSITIVE) / 1e9;
    let err_pct = 100.0 * err / problems.len() as f64;
    fp.add_f64(gflops);
    fp.add_f64(err_pct);
    Sim {
        gflops,
        err_pct,
        fingerprint: fp.value(),
    }
}

/// Per-op means of the deterministic simulated counts, over one
/// execution of each problem.
pub fn sim_layers(stats: &[Option<SimStats>], acc: &mut Acc) {
    for s in stats.iter().flatten() {
        let total: u64 = s.busy.iter().sum();
        let frac = |i: usize| s.busy[i] as f64 / total.max(1) as f64;
        acc.add("sim.cycles_per_op", s.cycles as f64);
        acc.add("sim.lane.compute_frac", frac(0));
        acc.add("sim.lane.dma_frac", frac(1));
        acc.add("sim.lane.mesh_frac", frac(2));
        acc.add("sim.lane.barrier_frac", frac(3));
        acc.add("mesh.words_per_op", s.mesh_words as f64);
        acc.add("mem.dma_bytes_per_op", s.dma_bytes as f64);
        acc.add("mem.dma_descriptors_per_op", s.dma_descriptors as f64);
    }
}

/// Makespan the timing model predicts for each problem's plan.
pub fn dag_cycles<P: Borrow<Problem>>(problems: &[P]) -> Result<Vec<u64>, String> {
    let bw = BandwidthModel::calibrated();
    problems
        .iter()
        .map(|p| {
            let p = p.borrow();
            let (m, n, k) = p.dims();
            timing::estimate_shared(p.variant, m, n, k, p.params, &bw)
                .map(|r| r.makespan_cycles)
                .map_err(|e| format!("estimate {} {m}x{n}x{k}: {e}", p.variant))
        })
        .collect()
}

/// `sim.runs`, the global tally of `CoreGroup::try_run` calls.
pub fn sim_runs() -> u64 {
    sw_probe::metrics::global().counter("sim.runs").get()
}

/// The mix at test blocking (CG blocks of 128×64×128), by block
/// count: two of one block, five of four, two of eight. With the
/// paper-blocking op the round has ten ops, so the median and p80
/// fall inside a class rather than on a boundary between two.
const TEST_SHAPES: [(Variant, (usize, usize, usize)); 9] = [
    (Variant::Sched, (128, 64, 128)),
    (Variant::Pe, (128, 64, 128)),
    (Variant::Row, (512, 64, 128)),
    (Variant::Db, (128, 64, 512)),
    (Variant::Pe, (256, 128, 128)),
    (Variant::Sched, (256, 64, 256)),
    (Variant::Row, (128, 128, 256)),
    (Variant::Sched, (256, 128, 256)),
    (Variant::Db, (1024, 64, 128)),
];

pub struct GemmFunctional {
    cg: CoreGroup,
    rng: SplitMix64,
    problems: Vec<Problem>,
    first: Vec<Option<(SimStats, Matrix)>>,
    dag: Vec<u64>,
    acc: Acc,
}

impl Workload for GemmFunctional {
    fn setup(seed: u64) -> Result<Self, String> {
        let mut rng = SplitMix64::new(seed ^ 0x6765_6d6d_5f66_756e);
        let mut cg = CoreGroup::new();
        // Spawn the 64 CPE threads.
        cg.try_run(|_| {}).map_err(|e| format!("pool spawn: {e}"))?;
        let test = BlockingParams::test_small();
        let paper = Variant::Sched.paper_params();
        for (v, p) in [
            (Variant::Pe, test),
            (Variant::Row, test),
            (Variant::Db, test),
            (Variant::Sched, test),
            (Variant::Sched, paper),
        ] {
            if sw_dgemm::lint_variant(v, &p, RawParams::paper()).error_count() > 0 {
                return Err(format!("{v} fails lint at {p:?}"));
            }
        }
        // One small warm-up op.
        let mut warm = Problem::new(&mut rng, Variant::Sched, test, (128, 64, 128));
        let mut c = (*warm.c0).clone();
        DgemmRunner::new(warm.variant)
            .params(warm.params)
            .run_on(&mut cg, warm.alpha, &warm.a, &warm.b, warm.beta, &mut c)
            .map_err(|e| format!("warm-up op: {e}"))?;
        warm.compute_reference();
        warm.check(&c)?;
        let mut problems = Vec::new();
        for (v, dims) in TEST_SHAPES {
            problems.push(Problem::new(&mut rng, v, test, dims));
        }
        problems.push(Problem::new(
            &mut rng,
            Variant::Sched,
            paper,
            (128, 256, 768),
        ));
        let first = vec![None; problems.len()];
        Ok(GemmFunctional {
            cg,
            rng,
            problems,
            first,
            dag: Vec::new(),
            acc: Acc::default(),
        })
    }

    fn prepare(&mut self) -> Result<(), String> {
        for p in &mut self.problems {
            p.compute_reference();
        }
        self.dag = dag_cycles(&self.problems)?;
        Ok(())
    }

    fn round_ops(&self) -> usize {
        self.problems.len()
    }

    fn run_phase(&mut self, seconds: f64, led: &mut Ledger, mut tr: Option<&mut Tracer>) {
        let start = Instant::now();
        loop {
            for i in shuffled(&mut self.rng, self.problems.len()) {
                match self.op(i, tr.as_deref_mut()) {
                    Ok(lat_ms) => led.ok(lat_ms),
                    Err(e) => led.fail(e),
                }
            }
            if start.elapsed().as_secs_f64() >= seconds {
                break;
            }
        }
    }

    fn sim(&self) -> Sim {
        sim_summary(&self.problems, &self.first_stats(), &self.dag)
    }

    fn acc(&self) -> &Acc {
        &self.acc
    }

    fn finish_layers(&mut self) {
        let stats = self.first_stats();
        sim_layers(&stats, &mut self.acc);
    }
}

impl GemmFunctional {
    fn first_stats(&self) -> Vec<Option<SimStats>> {
        self.first.iter().map(|f| f.as_ref().map(|f| f.0)).collect()
    }

    /// Runs problem `i` once and checks it; returns the host latency
    /// of the `run_on` call in milliseconds.
    fn op(&mut self, i: usize, tr: Option<&mut Tracer>) -> Result<f64, String> {
        let p = &self.problems[i];
        let runner = DgemmRunner::new(p.variant).params(p.params);
        let mut c = (*p.c0).clone();
        let runs0 = sim_runs();
        let t0 = Instant::now();
        let res = runner.run_on(&mut self.cg, p.alpha, &p.a, &p.b, p.beta, &mut c);
        let t1 = Instant::now();
        let report = res.map_err(|e| format!("{} {:?}: {e}", p.variant, p.dims()))?;
        let stats = SimStats::of(&self.cg, &report.stats);
        if let Some(tr) = tr {
            tr.next_op();
            let root = tr.record("op.gemm", None, t0, t1);
            let run_on = tr.record("core.run_on", Some(root), t0, t1);
            tr.derived("sim.run", run_on, report.stats.wall);
            let wall_ms = report.stats.wall.as_secs_f64() * 1e3;
            let span_ms = (t1 - t0).as_secs_f64() * 1e3;
            self.acc.add("sim.run_ms", wall_ms);
            self.acc.add("core.dispatch_ms", span_ms - wall_ms);
            self.acc.add("sim.runs_per_op", (sim_runs() - runs0) as f64);
            self.decompose(i)?;
        }
        let p = &self.problems[i];
        p.check(&c)?;
        match &self.first[i] {
            Some((s, c1)) if *s != stats || c1.as_slice() != c.as_slice() => {
                return Err(format!(
                    "{} {:?}: not deterministic across runs ({s:?} then {stats:?})",
                    p.variant,
                    p.dims()
                ))
            }
            Some(_) => {}
            None => self.first[i] = Some((stats, c)),
        }
        Ok((t1 - t0).as_secs_f64() * 1e3)
    }

    /// Times the MPE-side pieces of `run_on` for problem `i` on their
    /// own: the plan, and installing and extracting the operands.
    fn decompose(&mut self, i: usize) -> Result<(), String> {
        let p = &self.problems[i];
        let (m, n, k) = p.dims();
        let t = Instant::now();
        let plan = GemmPlan::new(m, n, k, p.params, p.variant.double_buffered());
        let plan_us = t.elapsed().as_secs_f64() * 1e6;
        plan.map_err(|e| format!("plan: {e}"))?;
        let mut mem = MainMemory::new();
        let (a, b, c) = ((*p.a).clone(), (*p.b).clone(), (*p.c0).clone());
        let t = Instant::now();
        let ids = [mem.install(a), mem.install(b), mem.install(c)];
        let install_ms = t.elapsed().as_secs_f64() * 1e3;
        let [_, _, ic] = ids;
        let ic = ic.map_err(|e| format!("install: {e}"))?;
        let t = Instant::now();
        mem.extract(ic).map_err(|e| format!("extract: {e}"))?;
        self.acc.add("core.plan_us", plan_us);
        self.acc.add("mem.install_ms", install_ms);
        self.acc
            .add("mem.extract_ms", t.elapsed().as_secs_f64() * 1e3);
        Ok(())
    }
}
