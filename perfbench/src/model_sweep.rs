//! `model_sweep`: the paper-reproduction and tuner path.
//!
//! One round runs, one call after another, four times: `timing::
//! estimate` over the Fig. 6 grid (10 sizes × 5 variants), the Fig. 7
//! vary-m/n/k sweep of SCHED, then a staged `tuner::search` on one of
//! four seeded off-paper shapes, from a cold kernel cache as one
//! `swdgemm tune` call would be. The ISA engine, the timing DAG, the
//! stall prover, lint and the tuner do all the work; no CPE thread,
//! mesh, DMA copy or service layer runs.

use std::time::Instant;

use sw_arch::consts::CLOCK_HZ;
use sw_bench::paper::{PAPER_FIG6_SCHED, PAPER_GAINS};
use sw_dgemm::gen::SplitMix64;
use sw_dgemm::timing;
use sw_dgemm::tuner::{self, SearchStats, TuneRequest};
use sw_dgemm::variants::raw::RawParams;
use sw_dgemm::{BlockingParams, EngineBackend, Variant};
use sw_mem::dma::BandwidthModel;

use crate::measure::Fingerprint;
use crate::trace::Tracer;
use crate::{Acc, Ledger, Sim, Workload};

/// Fig. 7 keeps two dimensions at this size while the third sweeps.
const FIG7_BASE: usize = 9216;
const FIG7_SWEEP: [usize; 7] = [1536, 3072, 4608, 6144, 9216, 12288, 15360];
/// Estimates in one Fig. 6 + Fig. 7 sweep, plus the search after it.
const SWEEP_OPS: usize = 50 + 3 * FIG7_SWEEP.len() + 1;
/// The §V gains are quoted at this size.
const GAINS_AT: usize = 9216;
/// Survivors each search times, on at most this many CG blocks per
/// axis (the runner's own cap, which keeps a search's cost nearly
/// independent of the target's size).
const SEARCH_TOP_K: usize = 4;
const SEARCH_CAP_BLOCKS: usize = 3;

#[derive(Debug, Clone, Copy)]
enum Op {
    Estimate {
        v: Variant,
        m: usize,
        n: usize,
        k: usize,
    },
    Search {
        v: Variant,
        m: usize,
        n: usize,
        k: usize,
    },
}

/// The simulated outcome of one op: exact, so later rounds must
/// reproduce the first bit for bit.
#[derive(Debug, Clone, PartialEq)]
enum Outcome {
    Estimate {
        makespan: u64,
        gflops: f64,
    },
    Search {
        stats: SearchStats,
        best: BlockingParams,
        gflops: f64,
    },
}

pub struct ModelSweep {
    ops: Vec<Op>,
    bw: BandwidthModel,
    first: Vec<Option<Outcome>>,
    acc: Acc,
}

/// Four searches per round, each slot with a fixed variant (the
/// variant sets how many blockings are feasible, and with it the cost
/// of the analytic stages) and seeded dimensions.
fn seeded_searches(seed: u64) -> Vec<Op> {
    let mut rng = SplitMix64::new(seed ^ 0x6d6f_6465_6c5f_7377);
    [Variant::Sched, Variant::Db, Variant::Row, Variant::Sched]
        .into_iter()
        .enumerate()
        .map(|(i, v)| {
            let (m, n, k) = if i % 2 == 0 {
                // Tall-skinny: many rows, a thin band of columns.
                (
                    128 * rng.range_usize(32, 97),
                    64 * rng.range_usize(1, 5),
                    512 * rng.range_usize(2, 9),
                )
            } else {
                // Small batch: every dimension a few blocks.
                (
                    128 * rng.range_usize(2, 9),
                    128 * rng.range_usize(2, 9),
                    128 * rng.range_usize(2, 9),
                )
            };
            Op::Search { v, m, n, k }
        })
        .collect()
}

impl Workload for ModelSweep {
    fn setup(seed: u64) -> Result<Self, String> {
        // Cold start: an empty kernel cache, then the kernels and lint
        // reports of every variant at the paper's blocking.
        timing::kernel_cache_reset();
        let bw = BandwidthModel::calibrated();
        for v in Variant::ALL {
            timing::estimate(v, 1536, 1536, 1536).map_err(|e| format!("estimate {v}: {e}"))?;
            let report = sw_dgemm::lint_variant(v, &v.paper_params(), RawParams::paper());
            if report.error_count() > 0 {
                return Err(format!("{v} fails lint at paper blocking"));
            }
        }
        let mut sweep = Vec::new();
        for i in 1..=10 {
            let s = 1536 * i;
            for v in Variant::ALL {
                sweep.push(Op::Estimate {
                    v,
                    m: s,
                    n: s,
                    k: s,
                });
            }
        }
        for s in FIG7_SWEEP {
            let v = Variant::Sched;
            let b = FIG7_BASE;
            sweep.push(Op::Estimate {
                v,
                m: s,
                n: b,
                k: b,
            });
            sweep.push(Op::Estimate {
                v,
                m: b,
                n: s,
                k: b,
            });
            sweep.push(Op::Estimate {
                v,
                m: b,
                n: b,
                k: s,
            });
        }
        // One round: the sweep before each search, so searches are a
        // quarter of the host time and their seeded cost moves
        // `ops_per_s` little.
        let mut ops = Vec::new();
        for search in seeded_searches(seed) {
            ops.extend_from_slice(&sweep);
            ops.push(search);
        }
        let first = vec![None; ops.len()];
        Ok(ModelSweep {
            ops,
            bw,
            first,
            acc: Acc::default(),
        })
    }

    fn round_ops(&self) -> usize {
        self.ops.len()
    }

    fn run_phase(&mut self, seconds: f64, led: &mut Ledger, mut tr: Option<&mut Tracer>) {
        let start = Instant::now();
        loop {
            for i in 0..self.ops.len() {
                let op = self.ops[i];
                let t0 = Instant::now();
                let res = match tr.as_deref_mut() {
                    None => self.exec(op),
                    Some(t) => self.exec_traced(op, t),
                };
                let lat_ms = t0.elapsed().as_secs_f64() * 1e3;
                match res.and_then(|o| self.check(i, op, o)) {
                    Ok(()) => led.ok(lat_ms),
                    Err(e) => led.fail(e),
                }
            }
            if start.elapsed().as_secs_f64() >= seconds {
                break;
            }
        }
    }

    fn sim(&self) -> Sim {
        let mut fp = Fingerprint::default();
        let (mut flops, mut secs) = (0.0, 0.0);
        let mut est = std::collections::BTreeMap::new();
        for (op, out) in self.ops.iter().zip(&self.first) {
            match (op, out) {
                (Op::Estimate { v, m, n, k }, Some(Outcome::Estimate { makespan, gflops })) => {
                    flops += 2.0 * (*m as f64) * (*n as f64) * (*k as f64);
                    secs += *makespan as f64 / CLOCK_HZ;
                    est.insert((v.name(), *m, *n, *k), *gflops);
                    fp.add(*makespan);
                    fp.add_f64(*gflops);
                }
                (
                    _,
                    Some(Outcome::Search {
                        stats,
                        best,
                        gflops,
                    }),
                ) => {
                    for c in [
                        stats.enumerated,
                        stats.rejected_validate,
                        stats.rejected_shape,
                        stats.rejected_lint,
                        stats.feasible,
                        stats.timed,
                    ] {
                        fp.add(c as u64);
                    }
                    for d in [best.pm, best.pn, best.pk, best.rm, best.rn] {
                        fp.add(d as u64);
                    }
                    fp.add_f64(*gflops);
                }
                _ => {}
            }
        }
        // Mean |reproduction − paper| / paper over the Fig. 6 SCHED
        // series and the four §V gains.
        let mut errs = Vec::new();
        for (s, paper) in PAPER_FIG6_SCHED {
            if let Some(g) = est.get(&(Variant::Sched.name(), s, s, s)) {
                errs.push((g - paper).abs() / paper);
            }
        }
        let at = |v: Variant| est.get(&(v.name(), GAINS_AT, GAINS_AT, GAINS_AT)).copied();
        for (i, (_, paper)) in PAPER_GAINS.iter().enumerate() {
            if let (Some(lo), Some(hi)) = (at(Variant::ALL[i]), at(Variant::ALL[i + 1])) {
                errs.push((hi / lo - paper).abs() / paper);
            }
        }
        let err_pct = 100.0 * errs.iter().sum::<f64>() / errs.len().max(1) as f64;
        fp.add_f64(err_pct);
        Sim {
            gflops: flops / secs.max(f64::MIN_POSITIVE) / 1e9,
            err_pct,
            fingerprint: fp.value(),
        }
    }

    fn acc(&self) -> &Acc {
        &self.acc
    }
}

impl ModelSweep {
    fn exec(&self, op: Op) -> Result<Outcome, String> {
        match op {
            Op::Estimate { v, m, n, k } => timing::estimate(v, m, n, k)
                .map(|r| Outcome::Estimate {
                    makespan: r.makespan_cycles,
                    gflops: r.gflops,
                })
                .map_err(|e| format!("estimate {v} {m}x{n}x{k}: {e}")),
            Op::Search { v, m, n, k } => {
                timing::kernel_cache_reset();
                self.search(v, m, n, k)
            }
        }
    }

    fn search(&self, v: Variant, m: usize, n: usize, k: usize) -> Result<Outcome, String> {
        let req = TuneRequest {
            top_k: SEARCH_TOP_K,
            eval_cap_blocks: Some(SEARCH_CAP_BLOCKS),
            ..TuneRequest::shaped(v, m, n, k)
        };
        let out =
            tuner::search(&req, &self.bw).map_err(|e| format!("search {v} {m}x{n}x{k}: {e}"))?;
        let best = out.best();
        Ok(Outcome::Search {
            stats: out.stats,
            best: best.params,
            gflops: best.gflops,
        })
    }

    /// The same calls as [`Self::exec`], split at each layer boundary
    /// with a span around every call.
    fn exec_traced(&mut self, op: Op, tr: &mut Tracer) -> Result<Outcome, String> {
        tr.next_op();
        match op {
            Op::Estimate { v, m, n, k } if v != Variant::Raw => {
                let root = tr.begin("op.estimate");
                let s = tr.begin("core.timing.dag_build");
                let built = timing::build_shared_dag_with(
                    v,
                    m,
                    n,
                    k,
                    v.paper_params(),
                    &self.bw,
                    EngineBackend::default(),
                );
                tr.end(s);
                let build_ms = tr.dur(s).as_secs_f64() * 1e3;
                let (dag, _) = match built {
                    Ok(d) => d,
                    Err(e) => {
                        tr.end(root);
                        return Err(format!("dag {v} {m}x{n}x{k}: {e}"));
                    }
                };
                let s = tr.begin("sim.timing.schedule");
                let r = dag.schedule();
                tr.end(s);
                let sched_ms = tr.dur(s).as_secs_f64() * 1e3;
                tr.end(root);
                self.acc.add("core.timing.dag_build_ms", build_ms);
                self.acc.add("sim.timing.schedule_ms", sched_ms);
                self.acc.add("core.timing.dag_tasks", dag.len() as f64);
                Ok(Outcome::Estimate {
                    makespan: r.makespan_cycles,
                    gflops: r.gflops(sw_arch::time::gemm_flops(m, n, k)),
                })
            }
            Op::Estimate { .. } => {
                let root = tr.begin("op.estimate");
                let s = tr.begin("core.timing.estimate_raw");
                let r = self.exec(op);
                tr.end(s);
                tr.end(root);
                r
            }
            Op::Search { v, m, n, k } => {
                let root = tr.begin("op.search");
                let s = tr.begin("core.timing.kernel_cache_reset");
                timing::kernel_cache_reset();
                tr.end(s);
                let s = tr.begin("core.tuner.search");
                let r = self.search(v, m, n, k);
                tr.end(s);
                let search_ms = tr.dur(s).as_secs_f64() * 1e3;
                tr.end(root);
                if let Ok(Outcome::Search { stats, .. }) = &r {
                    self.acc.add("core.tuner.search_ms", search_ms);
                    self.acc
                        .add("core.tuner.enumerated", stats.enumerated as f64);
                    self.acc.add("core.tuner.feasible", stats.feasible as f64);
                    self.acc.add("core.tuner.timed", stats.timed as f64);
                }
                r
            }
        }
    }

    /// Validates an outcome, and on later rounds requires it to equal
    /// the first round's exactly.
    fn check(&mut self, i: usize, op: Op, out: Outcome) -> Result<(), String> {
        if let Some(first) = &self.first[i] {
            return if *first == out {
                Ok(())
            } else {
                Err(format!("{op:?} not deterministic: {first:?} then {out:?}"))
            };
        }
        match (&op, &out) {
            (Op::Estimate { .. }, Outcome::Estimate { makespan, gflops }) => {
                let peak = sw_arch::consts::PEAK_GFLOPS_CG;
                if *makespan == 0 || !(*gflops > 0.0 && *gflops <= peak) {
                    return Err(format!("{op:?}: implausible {gflops} Gflop/s"));
                }
            }
            (
                Op::Search { v, .. },
                Outcome::Search {
                    stats,
                    best,
                    gflops,
                },
            ) => {
                let s = stats;
                let sorted = s.rejected_validate + s.rejected_shape + s.rejected_lint + s.feasible;
                if s.enumerated != sorted || s.timed == 0 || *gflops <= 0.0 {
                    return Err(format!("{op:?}: inconsistent funnel {s:?}"));
                }
                best.validate(v.double_buffered())
                    .map_err(|e| format!("{op:?}: winner invalid: {e}"))?;
            }
            _ => return Err(format!("{op:?}: outcome of the wrong kind")),
        }
        self.first[i] = Some(out);
        // Once the grid at a size is complete, the §V ladder must hold:
        // RAW < PE < ROW < DB < SCHED.
        let pos = i % SWEEP_OPS;
        if let Op::Estimate { m, n, k, .. } = op {
            if m == n && n == k && pos < 50 && pos % 5 == 4 {
                let g: Vec<f64> = (i - 4..=i)
                    .filter_map(|j| match &self.first[j] {
                        Some(Outcome::Estimate { gflops, .. }) => Some(*gflops),
                        _ => None,
                    })
                    .collect();
                if g.len() != 5 || g.windows(2).any(|w| w[0] >= w[1]) {
                    return Err(format!("Fig. 6 ladder broken at {m}: {g:?}"));
                }
            }
        }
        Ok(())
    }
}
