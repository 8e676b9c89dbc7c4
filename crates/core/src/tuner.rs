//! Staged block-size autotuner (the paper's future-work direction).
//!
//! The paper chooses its blocking by hand from the §III-C model plus
//! spot measurements. This tuner closes that loop automatically, in
//! stages ordered by cost so the expensive work only sees survivors:
//!
//! 1. **Enumerate** every legal `(pM, pN, pK) × (rM, rN)` blocking for
//!    the requested — possibly non-square, possibly tall-skinny —
//!    target shape. Register tiles come from
//!    [`model::enumerate_register_blockings`]; feasibility is
//!    [`BlockingParams::validate`] plus an `sw-lint` pass (LDM layout
//!    and i-cache) over the candidate's looped kernel stream.
//! 2. **Rank cheaply**, with no simulation: the §III-C/§IV analytic
//!    bandwidth model bounds what memory can sustain, the static stall
//!    prover ([`sw_lint::score_stalls`]) bounds what the kernel
//!    schedule can sustain, and a padding-waste factor discounts
//!    blockings whose CG blocks overshoot the target shape. A
//!    candidate's score is the minimum of the two rates times the
//!    waste factor.
//! 3. **Validate** only the `top_k` survivors (plus the paper's
//!    hand-picked blocking as a seeded baseline) with the timed
//!    discrete-event estimate ([`crate::timing::estimate_shared`]).
//! 4. **Persist** the winner in the on-disk tune cache
//!    ([`crate::tunecache::TuneCache`]) so the next call with the same
//!    shape class resolves with zero search cost.
//!
//! [`resolve`] is the cache-then-search entry point
//! [`crate::DgemmRunner`] and `sw-serve` use per call under a
//! [`TunePolicy`]; [`search`] is the full staged search; [`tune`]
//! keeps the original ranked-table interface for the CLI and the
//! autotune example.

use crate::error::DgemmError;
use crate::lint::candidate_kernel;
use crate::mapping::Mapping;
use crate::model;
use crate::params::BlockingParams;
use crate::streamed::STRIP_PM;
use crate::timing::estimate_shared;
use crate::tunecache::{CachedTune, TuneCache};
use crate::variants::Variant;
use sw_arch::consts::{FLOPS_PER_CYCLE_PER_CPE, PEAK_GFLOPS_CG, VREG_LANES};
use sw_isa::EngineBackend;
use sw_lint::{lint_stream, score_stalls, Bound};
use sw_mem::dma::{BandwidthModel, DmaMode};
use sw_probe::metrics;
use sw_sim::MeshTransport;

/// How a [`crate::DgemmRunner`] (or `sw-serve`) resolves its blocking
/// when the caller did not pin `.params(...)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TunePolicy {
    /// No tuning: the legacy paper-then-test candidate list.
    #[default]
    Off,
    /// Consult the tune cache; on a miss, fall back to the legacy
    /// candidates without searching (never pays search cost).
    CacheOnly,
    /// Consult the cache; on a miss, run the staged search timing the
    /// `top_k` survivors, and persist the winner.
    Search {
        /// Survivors stage 3 times on a cache miss.
        top_k: usize,
    },
}

/// A tuning target: the problem shape plus the resolution context the
/// winner depends on (and is cached under).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TuneRequest {
    /// Variant whose blocking space is searched (not RAW).
    pub variant: Variant,
    /// Target rows.
    pub m: usize,
    /// Target columns.
    pub n: usize,
    /// Target depth.
    pub k: usize,
    /// Survivors the timed stage validates.
    pub top_k: usize,
    /// Restrict candidates to blockings whose CG blocks divide the
    /// target exactly (the aligned-kernel condition the runner needs).
    pub exact: bool,
    /// Cap, in CG blocks per axis, on the timed-stage evaluation size;
    /// `None` times the full rounded target. The runner path caps the
    /// grid so a cache-miss search stays cheap.
    pub eval_cap_blocks: Option<usize>,
    /// Mesh transport of the resolution context (cache-key axis).
    pub transport: MeshTransport,
    /// Engine backend of the resolution context (cache-key axis).
    pub backend: EngineBackend,
}

impl TuneRequest {
    /// A full-fidelity request for an arbitrary shape: top 8 timed at
    /// the rounded target, candidates not restricted to exact divisors.
    pub fn shaped(variant: Variant, m: usize, n: usize, k: usize) -> Self {
        TuneRequest {
            variant,
            m,
            n,
            k,
            top_k: 8,
            exact: false,
            eval_cap_blocks: None,
            transport: MeshTransport::default(),
            backend: EngineBackend::default(),
        }
    }

    /// A square target near `t` — the classic tuner invocation.
    pub fn square(variant: Variant, t: usize) -> Self {
        TuneRequest::shaped(variant, t, t, t)
    }
}

/// One stage-2 candidate with its analytic scores (no simulation).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Candidate {
    /// The blocking.
    pub params: BlockingParams,
    /// LDM doubles consumed.
    pub ldm_doubles: usize,
    /// What main memory can sustain under the §III-C reduction, Gflops.
    pub model_gflops: f64,
    /// What the statically-proven kernel schedule can sustain, Gflops.
    pub kernel_gflops: f64,
    /// Fraction of the rounded problem's flops the target needs
    /// (padding waste; 1.0 when the blocking divides exactly).
    pub waste: f64,
    /// Ranking score: `min(model, kernel) · waste`.
    pub score_gflops: f64,
    /// Whether the stall proof was exact (it is for every generated
    /// kernel within budget).
    pub stall_exact: bool,
}

/// One timed (stage-3) result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TuneResult {
    /// The blocking.
    pub params: BlockingParams,
    /// Effective Gflops toward the *target* shape: the timed rate
    /// discounted by the padding-waste factor. This is the ranking
    /// metric — a blocking that rounds 96 columns up to 256 pays for
    /// all 256.
    pub gflops: f64,
    /// Undiscounted timed Gflops at the evaluated dimensions.
    pub raw_gflops: f64,
    /// LDM doubles consumed.
    pub ldm_doubles: usize,
    /// The dimensions the timed stage evaluated.
    pub dims: (usize, usize, usize),
}

/// Where the enumerated candidates went — the evidence that the cheap
/// stages, not the timed one, did the pruning.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SearchStats {
    /// Candidates formed by the enumeration.
    pub enumerated: usize,
    /// Rejected by [`BlockingParams::validate`].
    pub rejected_validate: usize,
    /// Rejected because the CG blocks do not divide an exact-shape
    /// request.
    pub rejected_shape: usize,
    /// Rejected by the lint pass over the candidate's kernel stream.
    pub rejected_lint: usize,
    /// Survivors scored by stage 2.
    pub feasible: usize,
    /// Candidates the timed stage evaluated (including the seeded
    /// paper baseline).
    pub timed: usize,
    /// Register tiles the enumeration considered.
    pub register_tiles: usize,
    /// Register tiles that produced at least one feasible candidate.
    pub register_tiles_supported: usize,
}

impl SearchStats {
    /// Percentage of feasible candidates the cheap ranking pruned
    /// before any timed run.
    pub fn pruned_pct(&self) -> f64 {
        if self.feasible == 0 {
            return 0.0;
        }
        100.0 * (1.0 - self.timed.min(self.feasible) as f64 / self.feasible as f64)
    }
}

/// The staged search's full output.
#[derive(Debug, Clone, PartialEq)]
pub struct TuneOutcome {
    /// Timed results, best first. Never empty.
    pub results: Vec<TuneResult>,
    /// Stage-2 scored candidates, best score first.
    pub candidates: Vec<Candidate>,
    /// Funnel accounting.
    pub stats: SearchStats,
}

impl TuneOutcome {
    /// The winner.
    pub fn best(&self) -> &TuneResult {
        &self.results[0]
    }

    /// The timed result for a specific blocking, if stage 3 saw it.
    pub fn timed_for(&self, p: &BlockingParams) -> Option<&TuneResult> {
        self.results.iter().find(|r| r.params == *p)
    }
}

/// Rounds the target up to whole CG blocks (at least one per axis).
fn rounded_dims(p: &BlockingParams, m: usize, n: usize, k: usize) -> (usize, usize, usize) {
    let round = |t: usize, b: usize| t.next_multiple_of(b).max(b);
    (round(m, p.bm()), round(n, p.bn()), round(k, p.bk()))
}

/// `target flops / rounded flops` — the fraction of the padded
/// problem's work the caller actually asked for.
fn waste_factor(p: &BlockingParams, m: usize, n: usize, k: usize) -> f64 {
    let (rm, rn, rk) = rounded_dims(p, m, n, k);
    ((m * n) as f64 * k as f64) / ((rm * rn) as f64 * rk as f64)
}

/// Stage-2 memory-side bound: peak times the fraction of the required
/// bandwidth (`F·W / S`, §III-C.1) the calibrated DMA channel
/// sustains at this blocking's access pattern.
fn model_gflops(
    variant: Variant,
    p: &BlockingParams,
    m: usize,
    n: usize,
    k: usize,
    bw: &BandwidthModel,
) -> f64 {
    let (rm, _, rk) = rounded_dims(p, m, n, k);
    let s = model::cg_bandwidth_reduction(p.bk(), p.bn(), rm);
    // The A/C stream's DMA run length is what the ROW_MODE remap
    // changes; B rides PE_MODE panels of pK doubles either way.
    let (ac_mode, ac_run) = match variant.mapping() {
        Mapping::Pe => (DmaMode::Pe, 8 * p.pm),
        Mapping::Row => (DmaMode::Row, 8 * p.bm()),
    };
    let footprint = 8 * rm * rk;
    let sustained = bw
        .sustained_gbs(ac_mode, ac_run, footprint)
        .min(bw.sustained_gbs(DmaMode::Pe, 8 * p.pk, footprint));
    let required = PEAK_GFLOPS_CG * model::W_BYTES_PER_FLOP / s;
    PEAK_GFLOPS_CG * (sustained / required).min(1.0)
}

/// The staged search. `Err` only for an untunable request (RAW, zero
/// dimensions) or an empty feasible space; the cache is not consulted
/// here — see [`resolve`].
pub fn search(req: &TuneRequest, bw: &BandwidthModel) -> Result<TuneOutcome, DgemmError> {
    if req.variant == Variant::Raw {
        return Err(DgemmError::BadParams(
            "RAW has no shared-scheme blocking space to tune; \
             pick a data-sharing variant (PE/ROW/DB/SCHED)"
                .to_string(),
        ));
    }
    if req.m == 0 || req.n == 0 || req.k == 0 {
        return Err(DgemmError::BadDims(format!(
            "cannot tune for empty problem {}x{}x{}",
            req.m, req.n, req.k
        )));
    }
    metrics::global().counter("tune.searches").inc();
    let db = req.variant.double_buffered();
    let style = req.variant.kernel_style();
    let mut stats = SearchStats::default();

    // Stage 1: enumerate and filter.
    let tiles = model::enumerate_register_blockings();
    stats.register_tiles = tiles.len();
    let mut scored: Vec<Candidate> = Vec::new();
    for tile in &tiles {
        let mut tile_feasible = false;
        let pm_step = tile.rm * VREG_LANES;
        for pm in (1..=3).map(|i| i * pm_step) {
            for pn in (1..=(96 / tile.rn).max(1)).map(|j| j * tile.rn) {
                for pk in (16..=160).step_by(16) {
                    stats.enumerated += 1;
                    let p = BlockingParams {
                        pm,
                        pn,
                        pk,
                        rm: tile.rm,
                        rn: tile.rn,
                    };
                    if p.validate(db).is_err() {
                        stats.rejected_validate += 1;
                        continue;
                    }
                    if req.exact && !p.divides(req.m, req.n, req.k) {
                        stats.rejected_shape += 1;
                        continue;
                    }
                    let (layout, prog) = candidate_kernel(&p, style, db);
                    if lint_stream(&prog, Some(&layout)).error_count() > 0 {
                        stats.rejected_lint += 1;
                        continue;
                    }
                    stats.feasible += 1;
                    tile_feasible = true;

                    // Stage 2: analytic rank — no simulation.
                    let sc = score_stalls(&prog);
                    let flops = 2.0 * (p.pm * p.pn * p.pk) as f64;
                    let kernel_eff = (flops
                        / (FLOPS_PER_CYCLE_PER_CPE as f64 * sc.cycles.max(1) as f64))
                        .min(1.0);
                    let kernel_gflops = PEAK_GFLOPS_CG * kernel_eff;
                    let model_gflops = model_gflops(req.variant, &p, req.m, req.n, req.k, bw);
                    let waste = waste_factor(&p, req.m, req.n, req.k);
                    scored.push(Candidate {
                        params: p,
                        ldm_doubles: p.ldm_doubles(db),
                        model_gflops,
                        kernel_gflops,
                        waste,
                        score_gflops: model_gflops.min(kernel_gflops) * waste,
                        stall_exact: sc.bound == Bound::Exact,
                    });
                }
            }
        }
        if tile_feasible {
            stats.register_tiles_supported += 1;
        }
    }
    if scored.is_empty() {
        return Err(DgemmError::BadParams(format!(
            "no feasible blocking for {} at {}x{}x{}{}",
            req.variant,
            req.m,
            req.n,
            req.k,
            if req.exact {
                " (exact divisors required)"
            } else {
                ""
            }
        )));
    }
    scored.sort_by(|a, b| {
        b.score_gflops
            .total_cmp(&a.score_gflops)
            .then(a.ldm_doubles.cmp(&b.ldm_doubles))
            .then(key_of(&a.params).cmp(&key_of(&b.params)))
    });

    // Stage 3: time the survivors, always seeding the paper's
    // hand-picked blocking as the baseline to beat.
    let mut chosen: Vec<BlockingParams> = scored
        .iter()
        .take(req.top_k.max(1))
        .map(|c| c.params)
        .collect();
    let paper = req.variant.paper_params();
    if !chosen.contains(&paper) && scored.iter().any(|c| c.params == paper) {
        chosen.push(paper);
    }
    let mut results = Vec::with_capacity(chosen.len());
    for p in chosen {
        let (mut dm, mut dn, mut dk) = rounded_dims(&p, req.m, req.n, req.k);
        if let Some(cap) = req.eval_cap_blocks {
            let cap = cap.max(1);
            dm = dm.min(cap * p.bm());
            dn = dn.min(cap * p.bn());
            dk = dk.min(cap * p.bk());
        }
        let r = estimate_shared(req.variant, dm, dn, dk, p, bw)?;
        let waste = waste_factor(&p, req.m, req.n, req.k);
        results.push(TuneResult {
            params: p,
            gflops: r.gflops * waste,
            raw_gflops: r.gflops,
            ldm_doubles: p.ldm_doubles(db),
            dims: (dm, dn, dk),
        });
    }
    stats.timed = results.len();
    results.sort_by(|a, b| {
        b.gflops
            .total_cmp(&a.gflops)
            .then(a.ldm_doubles.cmp(&b.ldm_doubles))
            .then(key_of(&a.params).cmp(&key_of(&b.params)))
    });
    Ok(TuneOutcome {
        results,
        candidates: scored,
        stats,
    })
}

/// Deterministic tie-break ordering for blockings.
fn key_of(p: &BlockingParams) -> (usize, usize, usize, usize, usize) {
    (p.pm, p.pn, p.pk, p.rm, p.rn)
}

/// Cache-then-search blocking resolution — the per-call entry point
/// behind [`crate::DgemmRunner::tune`] and `sw-serve`'s dispatch.
///
/// Returns only blockings the functional path can run (one 16-row
/// strip per CPE), even where [`search`] ranks a taller one first.
/// Returns `None` when the policy declines to choose (off, cache miss
/// under `CacheOnly`, or no runnable feasible blocking); the caller
/// falls back to the legacy candidate list. A warm hit performs one
/// map lookup — no enumeration, no proving, no simulation.
pub fn resolve(
    policy: TunePolicy,
    variant: Variant,
    m: usize,
    n: usize,
    k: usize,
    transport: MeshTransport,
    backend: EngineBackend,
) -> Option<BlockingParams> {
    resolve_in(
        TuneCache::global(),
        policy,
        variant,
        m,
        n,
        k,
        transport,
        backend,
    )
}

/// [`resolve`] against an explicit cache instance (tests).
#[allow(clippy::too_many_arguments)]
pub fn resolve_in(
    cache: &TuneCache,
    policy: TunePolicy,
    variant: Variant,
    m: usize,
    n: usize,
    k: usize,
    transport: MeshTransport,
    backend: EngineBackend,
) -> Option<BlockingParams> {
    let top_k = match policy {
        TunePolicy::Off => return None,
        TunePolicy::CacheOnly => None,
        TunePolicy::Search { top_k } => Some(top_k),
    };
    if variant == Variant::Raw {
        return None;
    }
    let key = TuneCache::key(variant, transport, backend, m, n, k);
    if let Some(hit) = cache.get(&key) {
        // The class is coarser than the shape: trust a cached winner
        // only where the aligned kernel can actually run it.
        if hit.params.validate(variant.double_buffered()).is_ok()
            && hit.params.divides(m, n, k)
            && runnable(&hit.params)
        {
            return Some(hit.params);
        }
    }
    let top_k = top_k?;
    let req = TuneRequest {
        top_k,
        exact: true,
        eval_cap_blocks: Some(3),
        transport,
        backend,
        ..TuneRequest::shaped(variant, m, n, k)
    };
    let outcome = search(&req, &BandwidthModel::calibrated()).ok()?;
    // The search ranks every feasible blocking; the caller runs the
    // result, so take the best one it can run: timed results first,
    // then the stage-2 ranking.
    let (params, gflops) = outcome
        .results
        .iter()
        .map(|r| (r.params, r.gflops))
        .chain(
            outcome
                .candidates
                .iter()
                .map(|c| (c.params, c.score_gflops)),
        )
        .find(|(p, _)| runnable(p))?;
    cache.put(&key, CachedTune { params, gflops });
    Some(params)
}

/// Whether the functional shared-variant path can run `p`: the
/// collective scheme streams one 16-row tile per CPE
/// ([`crate::streamed::STRIP_PM`]), whatever the model would prefer.
fn runnable(p: &BlockingParams) -> bool {
    p.pm == STRIP_PM
}

/// The classic ranked-table interface: staged search near a square
/// `target`, returning the timed table (top 16 plus the paper
/// baseline), best first.
pub fn tune(
    variant: Variant,
    target: usize,
    model: &BandwidthModel,
) -> Result<Vec<TuneResult>, DgemmError> {
    let req = TuneRequest {
        top_k: 16,
        ..TuneRequest::square(variant, target)
    };
    Ok(search(&req, model)?.results)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_choice_is_near_optimal() {
        let model = BandwidthModel::calibrated();
        let results = tune(Variant::Sched, 9216, &model).unwrap();
        assert!(!results.is_empty());
        let best = results[0];
        let paper = results
            .iter()
            .find(|r| r.params == Variant::Sched.paper_params())
            .expect("the paper's blocking is always timed as the baseline");
        // The paper's hand-picked (pN=32, pK=96) should be within a few
        // percent of the tuner's best.
        assert!(
            paper.gflops > 0.93 * best.gflops,
            "paper choice {:.1} vs best {:.1} ({:?})",
            paper.gflops,
            best.gflops,
            best.params
        );
    }

    #[test]
    fn all_results_feasible_and_sorted() {
        let model = BandwidthModel::calibrated();
        let results = tune(Variant::Db, 4608, &model).unwrap();
        for w in results.windows(2) {
            assert!(w[0].gflops >= w[1].gflops);
        }
        for r in &results {
            assert!(r.params.validate(true).is_ok());
            assert!(r.ldm_doubles < sw_arch::consts::LDM_DOUBLES);
        }
    }

    #[test]
    fn raw_is_a_structured_error() {
        let err = tune(Variant::Raw, 4608, &BandwidthModel::calibrated()).unwrap_err();
        assert!(matches!(err, DgemmError::BadParams(_)), "{err:?}");
        let err = search(
            &TuneRequest::square(Variant::Raw, 4608),
            &BandwidthModel::calibrated(),
        )
        .unwrap_err();
        assert!(matches!(err, DgemmError::BadParams(_)));
    }

    #[test]
    fn empty_problem_is_a_structured_error() {
        let err = search(
            &TuneRequest::shaped(Variant::Sched, 0, 256, 768),
            &BandwidthModel::calibrated(),
        )
        .unwrap_err();
        assert!(matches!(err, DgemmError::BadDims(_)));
    }

    #[test]
    fn register_space_is_widened_and_4x4_still_wins_at_paper_shape() {
        let model = BandwidthModel::calibrated();
        let req = TuneRequest {
            top_k: 4,
            ..TuneRequest::square(Variant::Sched, 4608)
        };
        let outcome = search(&req, &model).unwrap();
        // The enumeration considers the full rM·rN + rM + rN < 32
        // space, not a hard-coded 4×4 …
        assert!(
            outcome.stats.register_tiles > 10,
            "only {} register tiles considered",
            outcome.stats.register_tiles
        );
        assert!(outcome.stats.register_tiles_supported >= 1);
        // … and the paper's 4×4 tile still wins.
        let best = outcome.best();
        assert_eq!((best.params.rm, best.params.rn), (4, 4));
    }

    #[test]
    fn cheap_stages_prune_before_any_timed_run() {
        let model = BandwidthModel::calibrated();
        let req = TuneRequest {
            top_k: 4,
            ..TuneRequest::square(Variant::Sched, 4608)
        };
        let outcome = search(&req, &model).unwrap();
        let s = outcome.stats;
        assert_eq!(
            s.enumerated,
            s.rejected_validate + s.rejected_shape + s.rejected_lint + s.feasible,
            "funnel must account for every candidate: {s:?}"
        );
        assert!(s.feasible > 20, "search space collapsed: {s:?}");
        assert!(
            s.pruned_pct() >= 80.0,
            "timed stage saw too many candidates: {s:?}"
        );
        // Scores are finite and sorted.
        for w in outcome.candidates.windows(2) {
            assert!(w[0].score_gflops >= w[1].score_gflops);
        }
        assert!(outcome
            .candidates
            .iter()
            .all(|c| c.score_gflops.is_finite() && c.stall_exact));
    }

    #[test]
    fn tall_skinny_shape_beats_paper_blocking() {
        // n = 96 wastes 2.7× of the paper's bN = 256 CG block; the
        // tuner must find a narrower pN.
        let model = BandwidthModel::calibrated();
        let req = TuneRequest {
            top_k: 6,
            ..TuneRequest::shaped(Variant::Sched, 2304, 96, 2304)
        };
        let outcome = search(&req, &model).unwrap();
        let best = outcome.best();
        let paper = outcome
            .timed_for(&Variant::Sched.paper_params())
            .expect("paper baseline is seeded");
        assert!(
            best.gflops > 1.02 * paper.gflops,
            "tuned {:?} at {:.1} vs paper {:.1}",
            best.params,
            best.gflops,
            paper.gflops
        );
        assert!(
            best.params.pn < Variant::Sched.paper_params().pn,
            "expected a narrower pN for n = 96, got {:?}",
            best.params
        );
    }

    #[test]
    fn exact_mode_only_offers_divisors() {
        let model = BandwidthModel::calibrated();
        let req = TuneRequest {
            top_k: 4,
            exact: true,
            ..TuneRequest::shaped(Variant::Sched, 256, 128, 256)
        };
        let outcome = search(&req, &model).unwrap();
        for r in &outcome.results {
            assert!(r.params.divides(256, 128, 256), "{:?}", r.params);
        }
        for c in &outcome.candidates {
            assert!(c.params.divides(256, 128, 256));
        }
    }

    #[test]
    fn search_is_deterministic() {
        let model = BandwidthModel::calibrated();
        let req = TuneRequest {
            top_k: 4,
            ..TuneRequest::shaped(Variant::Db, 1536, 768, 1536)
        };
        let a = search(&req, &model).unwrap();
        let b = search(&req, &model).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn resolve_policies() {
        let cache = TuneCache::ephemeral();
        let (m, n, k) = (256, 128, 256);
        let t = MeshTransport::default();
        let be = EngineBackend::default();
        // Off never chooses.
        assert!(resolve_in(&cache, TunePolicy::Off, Variant::Sched, m, n, k, t, be).is_none());
        // CacheOnly on a cold cache declines without searching.
        assert!(resolve_in(
            &cache,
            TunePolicy::CacheOnly,
            Variant::Sched,
            m,
            n,
            k,
            t,
            be
        )
        .is_none());
        // Search fills the cache …
        let p = resolve_in(
            &cache,
            TunePolicy::Search { top_k: 2 },
            Variant::Sched,
            m,
            n,
            k,
            t,
            be,
        )
        .expect("feasible space is non-empty");
        assert!(p.divides(m, n, k));
        // … and CacheOnly now resolves to the same blocking.
        let hit = resolve_in(
            &cache,
            TunePolicy::CacheOnly,
            Variant::Sched,
            m,
            n,
            k,
            t,
            be,
        )
        .expect("warm hit");
        assert_eq!(hit, p);
        // RAW declines under every policy.
        assert!(resolve_in(
            &cache,
            TunePolicy::Search { top_k: 2 },
            Variant::Raw,
            m,
            n,
            k,
            t,
            be
        )
        .is_none());
    }
}
