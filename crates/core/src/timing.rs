//! Timing mode: discrete-event Gflops estimates at arbitrary sizes.
//!
//! Each step of a data-sharing variant's [`Schedule`] — the one the
//! functional run performs — is priced as tasks on the DMA channel and
//! the CPE cluster (see `sw_sim::timing`); RAW has its own wave stream.
//! An estimate schedules each task as it is issued, on a
//! [`Timeline`]; [`build_shared_dag`] keeps the same stream as a
//! [`Dag`] for the tools that trace it or walk its critical path.
//!
//! * DMA task durations come from the calibrated bandwidth model
//!   (Figure 4 curves) plus explicit per-descriptor startup — so the
//!   PE→ROW gain follows from 64-vs-8 descriptors per block and the
//!   128 B-vs-1 KB run lengths;
//! * compute task durations come from *executing the actual kernel
//!   instruction stream* on the dual-issue pipeline model — so the
//!   DB→SCHED gain follows from the Algorithm 3 schedule, not from an
//!   assumed factor;
//! * overlap (or its absence) follows from the dependence structure of
//!   Algorithm 1 vs Algorithm 2 — so the ROW→DB gain and Figure 7's
//!   small-m prefetch penalty are emergent.

use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

use crate::error::DgemmError;
use crate::mapping::Mapping;
use crate::params::BlockingParams;
use crate::plan::GemmPlan;
use crate::schedule::{Schedule, Step};
use crate::variants::raw::RawParams;
use crate::variants::Variant;
use sw_arch::consts::{MESH_TRANSIT_CYCLES, PEAK_GFLOPS_CG};
use sw_arch::time::Cycles;
use sw_isa::kernels::{gen_block_kernel, BlockKernelCfg, KernelStyle, Operand};
use sw_isa::{EngineBackend, ExecReport, Machine, NullComm};
use sw_mem::dma::{BandwidthModel, DmaMode};
use sw_sim::{Dag, Resource, TaskSink, Timeline};

/// Cycles charged per strip step for the inter-step synchronization the
/// collective scheme needs (mesh transit + pacing).
const STEP_SYNC_CYCLES: Cycles = MESH_TRANSIT_CYCLES + 40;

/// Result of a timing-mode estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimingReport {
    /// Variant estimated.
    pub variant: Variant,
    /// Problem dimensions.
    pub m: usize,
    /// Problem dimensions.
    pub n: usize,
    /// Problem dimensions.
    pub k: usize,
    /// Sustained double-precision Gflops/s.
    pub gflops: f64,
    /// Fraction of the 742.4 Gflops/s peak.
    pub efficiency: f64,
    /// End-to-end simulated cycles.
    pub makespan_cycles: Cycles,
    /// Cycles the DMA channel was busy.
    pub dma_busy_cycles: Cycles,
    /// Cycles the CPE cluster was busy.
    pub cpes_busy_cycles: Cycles,
    /// Pipeline report of one thread-level kernel invocation (one strip
    /// step for the shared variants, one panel update for RAW).
    pub kernel: ExecReport,
}

/// Estimates a variant at the paper's production blocking.
///
/// ```
/// use sw_dgemm::{timing::estimate, Variant};
/// let r = estimate(Variant::Sched, 9216, 9216, 9216).unwrap();
/// assert!(r.efficiency > 0.9); // the paper's 95%-of-peak regime
/// ```
pub fn estimate(
    variant: Variant,
    m: usize,
    n: usize,
    k: usize,
) -> Result<TimingReport, DgemmError> {
    let model = BandwidthModel::calibrated();
    match variant {
        Variant::Raw => estimate_raw(m, n, k, RawParams::paper(), &model),
        _ => estimate_shared(variant, m, n, k, variant.paper_params(), &model),
    }
}

/// Hit/miss counters of the kernel timing cache (see
/// [`kernel_cache_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KernelCacheStats {
    /// `measure_kernel` calls answered from the cache.
    pub hits: u64,
    /// Calls that executed the kernel on the pipeline model.
    pub misses: u64,
}

/// The cache's hit/miss tallies live in the global metrics registry
/// under these names, so `fig6`/`fig7`-style tools get them in the same
/// snapshot as the simulator's traffic counters.
pub const KERNEL_CACHE_HITS_METRIC: &str = "dgemm.kernel_cache.hits";
/// See [`KERNEL_CACHE_HITS_METRIC`].
pub const KERNEL_CACHE_MISSES_METRIC: &str = "dgemm.kernel_cache.misses";

fn cache_hits() -> &'static sw_probe::Counter {
    static C: OnceLock<std::sync::Arc<sw_probe::Counter>> = OnceLock::new();
    C.get_or_init(|| sw_probe::metrics::global().counter(KERNEL_CACHE_HITS_METRIC))
}

fn cache_misses() -> &'static sw_probe::Counter {
    static C: OnceLock<std::sync::Arc<sw_probe::Counter>> = OnceLock::new();
    C.get_or_init(|| sw_probe::metrics::global().counter(KERNEL_CACHE_MISSES_METRIC))
}

/// What [`measure_kernel`] is memoized on: the generator's inputs.
type KernelKey = (usize, usize, usize, KernelStyle);

fn kernel_cache() -> &'static Mutex<HashMap<KernelKey, ExecReport>> {
    static CACHE: OnceLock<Mutex<HashMap<KernelKey, ExecReport>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Snapshot of the kernel timing cache's hit/miss counters (process-wide).
pub fn kernel_cache_stats() -> KernelCacheStats {
    KernelCacheStats {
        hits: cache_hits().get(),
        misses: cache_misses().get(),
    }
}

/// Empties the kernel timing cache and zeroes its counters. Only for
/// benchmarks that need repeatable cold-cache measurements; results are
/// unaffected either way (the cache is transparent).
pub fn kernel_cache_reset() {
    kernel_cache()
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .clear();
    cache_hits().reset();
    cache_misses().reset();
}

/// Measures one thread-level block-kernel invocation (all operands
/// local; the communication instructions it would use occupy the same
/// pipeline with the same latency).
///
/// Reports are memoized by `(pm, pn, pk, style)`, and the cache is
/// looked up before any kernel is generated. This is sound because the
/// report is a pure function of those four inputs: the generator and
/// the synthetic LDM layout depend on nothing else, and an
/// [`ExecReport`] is a pure function of the stream — the pipeline
/// model's stalls depend only on register indices, pipes, and
/// latencies, and no instruction branches on `f64` data (`bne` tests an
/// integer register that only `setl`/`addl` write). A sweep over many
/// matrix sizes therefore generates and executes each distinct kernel
/// shape once instead of once per size.
pub fn measure_kernel(pm: usize, pn: usize, pk: usize, style: KernelStyle) -> ExecReport {
    let key = (pm, pn, pk, style);
    if let Some(r) = kernel_cache()
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .get(&key)
    {
        cache_hits().inc();
        return *r;
    }
    cache_misses().inc();
    let report = measure_kernel_uncached(pm, pn, pk, style);
    kernel_cache()
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .insert(key, report);
    report
}

/// [`measure_kernel`] without the memoization — the engine benchmark's
/// baseline, and a direct way to double-check a cached report. The
/// block kernel runs over a tightly packed synthetic LDM image.
pub fn measure_kernel_uncached(pm: usize, pn: usize, pk: usize, style: KernelStyle) -> ExecReport {
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
    let prog = gen_block_kernel(&cfg, style);
    // Debug builds lint every timing kernel before it is measured.
    // I-cache findings are dropped: timing kernels are *deliberately*
    // fully unrolled (the pipeline model has no i-cache), so production
    // shapes exceed the 16 KB budget by construction.
    #[cfg(debug_assertions)]
    {
        let mut report = sw_lint::lint_stream(&prog, None);
        report
            .diagnostics
            .retain(|d| d.code != sw_lint::codes::ICACHE_OVERFLOW);
        assert!(
            report.error_count() == 0,
            "generated timing kernel fails sw-lint:\n{}",
            report.render_text()
        );
    }
    let mut ldm = vec![0.0f64; alpha_addr + 1];
    ldm[alpha_addr] = 1.0;
    Machine::new(&mut ldm, &mut NullComm).run(&prog)
}

/// Estimates one of the data-sharing variants with explicit blocking.
/// Each task is scheduled as it is unrolled; none is stored.
pub fn estimate_shared(
    variant: Variant,
    m: usize,
    n: usize,
    k: usize,
    params: BlockingParams,
    model: &BandwidthModel,
) -> Result<TimingReport, DgemmError> {
    let (plan, costs, kernel) = price_shared(variant, m, n, k, params, model)?;
    let mut timeline = Timeline::new();
    unroll_shared(&mut timeline, &plan, &costs);
    Ok(report(variant, m, n, k, timeline.result(), kernel))
}

/// Builds the MPE-side schedule of a data-sharing variant as a task
/// DAG (exposed so tools can render the timeline or walk its critical
/// path; see the `trace_overlap` harness binary), along with the
/// measured kernel report its compute durations are based on. It holds
/// the same tasks [`estimate_shared`] schedules.
pub fn build_shared_dag(
    variant: Variant,
    m: usize,
    n: usize,
    k: usize,
    params: BlockingParams,
    model: &BandwidthModel,
) -> Result<(Dag, ExecReport), DgemmError> {
    let (plan, costs, kernel) = price_shared(variant, m, n, k, params, model)?;
    let mut dag = Dag::new();
    unroll_shared(&mut dag, &plan, &costs);
    Ok((dag, kernel))
}

/// Task durations of one CG block of a data-sharing variant.
struct SharedCosts {
    load_a: Cycles,
    load_b: Cycles,
    /// One C block load or store.
    io_c: Cycles,
    block_compute: Cycles,
}

/// Plans a data-sharing variant and prices its tasks: DMA durations
/// from the bandwidth model, compute from the measured kernel.
fn price_shared(
    variant: Variant,
    m: usize,
    n: usize,
    k: usize,
    params: BlockingParams,
    model: &BandwidthModel,
) -> Result<(GemmPlan, SharedCosts, ExecReport), DgemmError> {
    assert!(
        variant != Variant::Raw,
        "use estimate_raw for the RAW baseline"
    );
    let plan = GemmPlan::new(m, n, k, params, variant.double_buffered())?;
    let p = plan.params;
    let kernel = measure_kernel(p.pm, p.pn, p.pk, variant.kernel_style());

    // DMA durations per CG block.
    let (a_fp, b_fp, c_fp) = (m * k * 8, k * n * 8, m * n * 8);
    let (bm, bn, bk) = (p.bm(), p.bn(), p.bk());
    let (ac_mode, ac_desc, ac_run) = match variant.mapping() {
        Mapping::Pe => (DmaMode::Pe, 64, p.pm * 8),
        Mapping::Row => (DmaMode::Row, 8, bm * 8),
    };
    let costs = SharedCosts {
        load_a: model.transfer_cycles(ac_mode, ac_desc, bm * bk * 8, ac_run, a_fp),
        load_b: model.transfer_cycles(DmaMode::Pe, 64, bk * bn * 8, p.pk * 8, b_fp),
        io_c: model.transfer_cycles(ac_mode, ac_desc, bm * bn * 8, ac_run, c_fp),
        block_compute: 8 * (kernel.cycles + STEP_SYNC_CYCLES),
    };
    Ok((plan, costs, kernel))
}

/// Prices each step of the plan's [`Schedule`] into `sink` in program
/// order. Every load waits for the last compute issued (it refills a
/// buffer that compute read); a compute waits for its slot's A and C
/// loads and the current B, and under Algorithm 2 for the previous
/// compute too; a C store waits for its compute. Dependence lists live
/// on the stack, so pricing allocates nothing.
fn unroll_shared<S: TaskSink>(sink: &mut S, plan: &GemmPlan, costs: &SharedCosts) {
    let db = plan.double_buffered;
    let mut b_task: Option<S::Id> = None;
    // Each slot's (A, C) loads, in two locals rather than an indexed
    // array so they stay in registers in the estimate's hot loop.
    let [mut slot0, mut slot1]: [Option<(S::Id, S::Id)>; 2] = [None; 2];
    let mut prev_compute: Option<S::Id> = None;
    Schedule::new(plan).for_each(|step| {
        let after_compute = prev_compute.as_slice();
        match step {
            Step::LoadB { .. } => {
                b_task = Some(sink.task(Resource::Dma, costs.load_b, after_compute, "load B"));
            }
            Step::LoadAc { slot, prefetch, .. } => {
                let (la, lc) = match (db, prefetch) {
                    (false, _) => ("load A", "load C"),
                    (true, false) => ("load A0", "load C0"),
                    (true, true) => ("prefetch A", "prefetch C"),
                };
                let a = sink.task(Resource::Dma, costs.load_a, after_compute, la);
                let c = sink.task(Resource::Dma, costs.io_c, after_compute, lc);
                if slot == 0 {
                    slot0 = Some((a, c))
                } else {
                    slot1 = Some((a, c))
                }
            }
            Step::Compute { slot, .. } => {
                let (a, c) = if slot == 0 { slot0 } else { slot1 }
                    .expect("a block computes after its loads");
                let b = b_task.expect("a block computes after its B load");
                let (cost, label) = (costs.block_compute, "block multiply");
                let compute = match prev_compute.filter(|_| db) {
                    Some(pc) => sink.task(Resource::Cpes, cost, &[a, c, b, pc], label),
                    None => sink.task(Resource::Cpes, cost, &[a, c, b], label),
                };
                sink.task(Resource::Dma, costs.io_c, &[compute], "store C");
                prev_compute = Some(compute);
            }
        }
    });
}

/// [`build_shared_dag`] under the benchmark's historical signature: the
/// `EngineBackend` argument names the one engine there is and changes
/// nothing.
pub fn build_shared_dag_with(
    variant: Variant,
    m: usize,
    n: usize,
    k: usize,
    params: BlockingParams,
    model: &BandwidthModel,
    _backend: EngineBackend,
) -> Result<(Dag, ExecReport), DgemmError> {
    build_shared_dag(variant, m, n, k, params, model)
}

/// Estimates the RAW baseline with explicit blocking: one DMA task then
/// one compute task per wave of 64 thread-level sub-blocks, each wave
/// after the previous one, scheduled as they are issued.
pub fn estimate_raw(
    m: usize,
    n: usize,
    k: usize,
    raw: RawParams,
    model: &BandwidthModel,
) -> Result<TimingReport, DgemmError> {
    raw.validate_dims(m, n, k)?;
    let kernel = measure_kernel(raw.pm, raw.pn, raw.kc, KernelStyle::Naive);
    let chunks = k / raw.kc;
    let (a_fp, b_fp, c_fp) = (m * k * 8, k * n * 8, m * n * 8);
    // Aggregated DMA per wave (all 64 threads issue in lockstep): C
    // round-trip once, A and B panels once per chunk; every byte is
    // private to its thread (no sharing), hence the 64×.
    let c_io =
        2 * model.transfer_cycles(DmaMode::Pe, 64, 64 * raw.pm * raw.pn * 8, raw.pm * 8, c_fp);
    let a_chunk =
        model.transfer_cycles(DmaMode::Pe, 64, 64 * raw.pm * raw.kc * 8, raw.pm * 8, a_fp);
    let b_chunk =
        model.transfer_cycles(DmaMode::Pe, 64, 64 * raw.kc * raw.pn * 8, raw.kc * 8, b_fp);
    let dma_per_wave = c_io + chunks as u64 * (a_chunk + b_chunk);
    let compute_per_wave = chunks as u64 * kernel.cycles;
    let waves = (m / 8 / raw.pm) * (n / 8 / raw.pn);

    let mut timeline = Timeline::new();
    let mut prev: Option<Cycles> = None;
    for _ in 0..waves {
        let dma = timeline.task(
            Resource::Dma,
            dma_per_wave,
            prev.as_slice(),
            "panel traffic",
        );
        prev = Some(timeline.task(Resource::Cpes, compute_per_wave, &[dma], "sub-block update"));
    }
    Ok(report(Variant::Raw, m, n, k, timeline.result(), kernel))
}

fn report(
    variant: Variant,
    m: usize,
    n: usize,
    k: usize,
    r: sw_sim::TimingResult,
    kernel: ExecReport,
) -> TimingReport {
    let gflops = r.gflops(sw_arch::time::gemm_flops(m, n, k));
    TimingReport {
        variant,
        m,
        n,
        k,
        gflops,
        efficiency: gflops / PEAK_GFLOPS_CG,
        makespan_cycles: r.makespan_cycles,
        dma_busy_cycles: r.dma_busy_cycles,
        cpes_busy_cycles: r.cpes_busy_cycles,
        kernel,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig6_ordering_at_9216() {
        let mut last = 0.0;
        for v in Variant::ALL {
            let r = estimate(v, 9216, 9216, 9216).unwrap();
            assert!(
                r.gflops > last,
                "{v} ({:.1}) must beat the previous variant ({last:.1})",
                r.gflops
            );
            last = r.gflops;
        }
    }

    #[test]
    fn sched_reaches_high_efficiency() {
        let r = estimate(Variant::Sched, 9216, 9216, 9216).unwrap();
        assert!(
            r.efficiency > 0.90,
            "SCHED efficiency was {:.3}",
            r.efficiency
        );
        assert!(r.efficiency < 1.0);
    }

    #[test]
    fn raw_below_one_third_of_peak() {
        let r = estimate(Variant::Raw, 9216, 9216, 9216).unwrap();
        assert!(r.efficiency < 1.0 / 3.0, "RAW was {:.3}", r.efficiency);
    }

    #[test]
    fn performance_increases_with_size() {
        for v in [Variant::Pe, Variant::Sched] {
            let small = estimate(v, 1536, 1536, 1536).unwrap();
            let big = estimate(v, 9216, 9216, 9216).unwrap();
            assert!(
                big.gflops > small.gflops,
                "{v}: {} vs {}",
                big.gflops,
                small.gflops
            );
        }
    }

    #[test]
    fn small_m_pays_prefetch_overhead() {
        // Figure 7: small m is relatively slow because the double
        // buffering prologue cannot be amortized.
        let thin = estimate(Variant::Sched, 1536, 9216, 9216).unwrap();
        let tall = estimate(Variant::Sched, 9216, 9216, 1536).unwrap();
        assert!(
            thin.gflops < tall.gflops,
            "small m ({:.1}) should underperform small k ({:.1})",
            thin.gflops,
            tall.gflops
        );
    }

    #[test]
    fn kernel_cache_hits_and_agrees_with_uncached() {
        // An unusual shape other tests won't touch, so the first call is
        // a guaranteed miss and the second a guaranteed hit.
        let (pm, pn, pk) = (48, 20, 7);
        let before = kernel_cache_stats();
        let first = measure_kernel(pm, pn, pk, KernelStyle::Scheduled);
        let mid = kernel_cache_stats();
        assert_eq!(mid.misses, before.misses + 1);
        let second = measure_kernel(pm, pn, pk, KernelStyle::Scheduled);
        let after = kernel_cache_stats();
        assert!(after.hits > mid.hits);
        assert_eq!(first, second);
        assert_eq!(
            first,
            measure_kernel_uncached(pm, pn, pk, KernelStyle::Scheduled)
        );
        // Distinct styles must not collide on a cache entry.
        let naive = measure_kernel(pm, pn, pk, KernelStyle::Naive);
        assert_ne!(naive, first);
    }

    #[test]
    fn dims_validated() {
        assert!(estimate(Variant::Sched, 1000, 9216, 9216).is_err());
        assert!(estimate(Variant::Raw, 1000, 9216, 9216).is_err());
    }
}

#[cfg(test)]
mod diag {
    use super::*;

    #[test]
    #[ignore]
    fn print_fig6() {
        for v in Variant::ALL {
            let r = estimate(v, 9216, 9216, 9216).unwrap();
            println!(
                "{:<6} {:7.1} Gflops  ({:.1}%)",
                v.name(),
                r.gflops,
                100.0 * r.efficiency
            );
        }
        for mk in (1536..=15360).step_by(1536 * 3) {
            let r = estimate(Variant::Sched, mk, mk, mk).unwrap();
            println!("SCHED@{mk}: {:.1}", r.gflops);
        }
    }
}
