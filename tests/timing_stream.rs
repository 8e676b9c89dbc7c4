//! Streamed estimates equal the stored DAG. `estimate_shared` and
//! `estimate_raw` schedule each task on a `Timeline` as it is unrolled;
//! `build_shared_dag` keeps the same tasks for tracing and the critical
//! path. Every `TimingReport` field the timing model produces must match
//! what the DAG's `schedule`, `trace` and `critical_path` give, at every
//! Fig. 6 and Fig. 7 point and over seeded blockings from the tuner's
//! feasible set.

use sw_arch::time::gemm_flops;
use sw_dgemm::gen::SplitMix64;
use sw_dgemm::timing::{build_shared_dag, estimate, estimate_shared, measure_kernel, TimingReport};
use sw_dgemm::tuner::{search, TuneRequest};
use sw_dgemm::variants::raw::RawParams;
use sw_dgemm::{BlockingParams, GemmPlan, Variant};
use sw_isa::kernels::KernelStyle;
use sw_mem::dma::{BandwidthModel, DmaMode};
use sw_sim::{Dag, Resource, TimingResult};

const FIG6_SIZES: [usize; 10] = [
    1536, 3072, 4608, 6144, 7680, 9216, 10752, 12288, 13824, 15360,
];
const FIG7_SWEEP: [usize; 7] = [1536, 3072, 4608, 6144, 9216, 12288, 15360];
const FIG7_BASE: usize = 9216;

/// Field-for-field: the streamed report against the DAG's schedule, its
/// trace and its critical path.
fn assert_report_matches(r: &TimingReport, dag: &Dag, what: &str) {
    let sched = dag.schedule();
    let (traced, _) = dag.trace();
    assert_eq!(traced, sched, "{what}: trace vs schedule");
    assert_eq!(
        dag.critical_path().makespan_cycles,
        sched.makespan_cycles,
        "{what}: critical path"
    );
    let streamed = TimingResult {
        makespan_cycles: r.makespan_cycles,
        dma_busy_cycles: r.dma_busy_cycles,
        cpes_busy_cycles: r.cpes_busy_cycles,
    };
    assert_eq!(streamed, sched, "{what}: streamed vs DAG");
    let gflops = sched.gflops(gemm_flops(r.m, r.n, r.k));
    assert_eq!(r.gflops.to_bits(), gflops.to_bits(), "{what}: Gflop/s");
}

/// A data-sharing estimate against `build_shared_dag` at the same inputs.
fn check_shared(v: Variant, m: usize, n: usize, k: usize, p: BlockingParams) {
    let model = BandwidthModel::calibrated();
    let what = format!("{v} {m}x{n}x{k} at {}x{}x{}", p.pm, p.pn, p.pk);
    let r = estimate_shared(v, m, n, k, p, &model).expect(&what);
    let (dag, kernel) = build_shared_dag(v, m, n, k, p, &model).expect(&what);
    assert_eq!(r.kernel, kernel, "{what}: kernel report");
    assert_report_matches(&r, &dag, &what);
}

/// RAW's wave schedule built by hand as a DAG: per wave, one DMA task
/// for the C round trip and every A/B chunk, then one compute task.
fn raw_wave_dag(m: usize, n: usize, k: usize) -> Dag {
    let raw = RawParams::paper();
    let model = BandwidthModel::calibrated();
    let kernel = measure_kernel(raw.pm, raw.pn, raw.kc, KernelStyle::Naive);
    let chunks = (k / raw.kc) as u64;
    let (a_fp, b_fp, c_fp) = (m * k * 8, k * n * 8, m * n * 8);
    let pe = |bytes: usize, run: usize, fp: usize| {
        model.transfer_cycles(DmaMode::Pe, 64, 64 * bytes, run, fp)
    };
    let c_io = 2 * pe(raw.pm * raw.pn * 8, raw.pm * 8, c_fp);
    let a_chunk = pe(raw.pm * raw.kc * 8, raw.pm * 8, a_fp);
    let b_chunk = pe(raw.kc * raw.pn * 8, raw.kc * 8, b_fp);
    let mut dag = Dag::new();
    let mut prev = None;
    for _ in 0..(m / 8 / raw.pm) * (n / 8 / raw.pn) {
        let deps: Vec<_> = prev.into_iter().collect();
        let dma = dag.task(
            Resource::Dma,
            c_io + chunks * (a_chunk + b_chunk),
            &deps,
            "w",
        );
        prev = Some(dag.task(Resource::Cpes, chunks * kernel.cycles, &[dma], "w"));
    }
    dag
}

fn check_paper_point(v: Variant, m: usize, n: usize, k: usize) {
    if v == Variant::Raw {
        let r = estimate(v, m, n, k).expect("RAW estimate");
        assert_report_matches(&r, &raw_wave_dag(m, n, k), &format!("RAW {m}x{n}x{k}"));
    } else {
        check_shared(v, m, n, k, v.paper_params());
    }
}

#[test]
fn streamed_estimates_equal_the_dag_at_every_fig6_point() {
    for s in FIG6_SIZES {
        for v in Variant::ALL {
            check_paper_point(v, s, s, s);
        }
    }
}

#[test]
fn streamed_estimates_equal_the_dag_at_every_fig7_point() {
    let b = FIG7_BASE;
    for s in FIG7_SWEEP {
        for (m, n, k) in [(s, b, b), (b, s, b), (b, b, s)] {
            check_paper_point(Variant::Sched, m, n, k);
        }
    }
}

/// About 200 (variant, shape, blocking) triples: blockings drawn from
/// the tuner's feasible set, shapes of one to three CG blocks per axis,
/// so Algorithm 2's single-block-row case (`grid_m == 1`, no in-loop
/// prefetch) comes up often. One search per buffering scheme (PE for
/// the single-buffered variants, SCHED for the double-buffered ones)
/// keeps the debug-build cost down; the equivalence must hold for any
/// valid blocking, so either variant's set serves both.
#[test]
fn streamed_estimates_equal_the_dag_over_seeded_tuner_blockings() {
    let model = BandwidthModel::calibrated();
    let variants = [Variant::Pe, Variant::Row, Variant::Db, Variant::Sched];
    let feasible = |v: Variant| -> Vec<BlockingParams> {
        let req = TuneRequest {
            top_k: 1,
            eval_cap_blocks: Some(1),
            ..TuneRequest::square(v, 1024)
        };
        let out = search(&req, &model).expect("search");
        out.candidates.iter().map(|c| c.params).collect()
    };
    let single = feasible(Variant::Pe);
    let double = feasible(Variant::Sched);
    let mut rng = SplitMix64::new(0x7151_0019);
    let mut draw = |n: usize| (rng.next_u64() % n as u64) as usize;
    let mut db_single_row = 0;
    for _ in 0..200 {
        let v = variants[draw(variants.len())];
        let pool = if v.double_buffered() {
            &double
        } else {
            &single
        };
        // Half the draws come from the 12 best-ranked blockings, the
        // ones the tuner actually times; the rest from the whole set.
        let p = if draw(2) == 0 {
            pool[draw(pool.len().min(12))]
        } else {
            pool[draw(pool.len())]
        };
        let (gm, gn, gk) = (1 + draw(3), 1 + draw(3), 1 + draw(3));
        let (m, n, k) = (gm * p.bm(), gn * p.bn(), gk * p.bk());
        let plan = GemmPlan::new(m, n, k, p, v.double_buffered()).expect("plan");
        assert_eq!(plan.grid_m, gm);
        if v.double_buffered() && gm == 1 {
            db_single_row += 1;
        }
        check_shared(v, m, n, k, p);
    }
    assert!(
        db_single_row >= 10,
        "only {db_single_row} DB/SCHED draws with grid_m == 1"
    );
}
