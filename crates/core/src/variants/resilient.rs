//! The self-healing functional executor: per-CG-block runs with fault
//! injection, ABFT verification, recompute-based correction, and
//! graceful degradation onto a surviving CPE grid.
//!
//! The fast path ([`super::shared`]) launches the whole `grid_m ×
//! grid_n × grid_k` schedule as one 64-thread run. The resilient path
//! trades that amortization for a recovery boundary: each CG block is
//! its own run, bracketed by
//!
//! 1. a **C-block snapshot** (the undo log for recompute/degrade),
//! 2. positioning the fault injector at `(epoch, attempt)` — epoch is
//!    the block's schedule index, so every injection decision is a
//!    pure function of the seed and the block, never of thread timing,
//! 3. the block run itself — collective while all 64 CPEs are healthy,
//!    degraded once any CPE has been marked failed,
//! 4. **ABFT verification** of the block delta against main memory
//!    ([`crate::abft`]), with restore + recompute under
//!    [`AbftPolicy::Correct`].
//!
//! Degraded mode re-plans the block for the survivors: the 64 `PE`
//! tiles of the block are dealt round-robin to the surviving CPEs,
//! each of which fetches the A/B slabs it needs per strip step
//! directly over DMA ([`Operand::Ldm`] roles — no mesh traffic, hence
//! no rendezvous with dead peers) and writes its disjoint C tiles
//! back without barriers. Because [`strip_step`] walks k-slabs in the
//! same order with the same FMA chain, a degraded block is **bitwise
//! identical** to its collective counterpart — degradation costs
//! bandwidth and time, never numerics.
//!
//! The resilient path always runs the single-buffered schedule: the
//! double-buffered variants' A/C prefetch spans CG blocks, which a
//! per-block recovery boundary cannot overlap. Numerics are unchanged
//! (the variants' bitwise contract is buffering-independent); only
//! simulated timing differs, and timing estimates come from the
//! timing model, not this path.

use crate::abft::{self, AbftPolicy};
use crate::error::DgemmError;
use crate::mapping::{self, Mapping};
use crate::plan::GemmPlan;
use crate::sharing::StepRole;
use crate::streamed::strip_step;
use crate::variants::shared::{check_io, compute_and_store, load_ac, map_run_error, GemmIo};
use std::sync::Arc;
use sw_arch::coord::{Coord, N_CPES};
use sw_faults::FaultInjector;
use sw_isa::Operand;
use sw_mem::dma::MatRegion;
use sw_mem::MemError;
use sw_probe::flight::{self, EventKind, MPE_RING};
use sw_sim::{CoreGroup, CpeError, RunError, RunStats};

/// Recovery policy of one resilient run.
#[derive(Debug, Clone)]
pub(crate) struct ResilienceCfg {
    /// The injector driving (and counting) faults; `None` runs the
    /// same per-block machinery fault-free (pure ABFT verification).
    pub injector: Option<Arc<FaultInjector>>,
    /// Checksum policy.
    pub abft: AbftPolicy,
    /// Runs per block (first + recoveries) before giving up.
    pub max_attempts: u32,
}

/// Runs `C = α·A·B + β·C` block-by-block with recovery. Returns the
/// accumulated traffic statistics of every attempt that executed.
pub(crate) fn run_resilient(
    cg: &mut CoreGroup,
    plan: &GemmPlan,
    mapping: Mapping,
    io: GemmIo,
    alpha: f64,
    beta: f64,
    cfg: &ResilienceCfg,
) -> Result<RunStats, DgemmError> {
    check_io(cg, plan, io)?;
    // MPE-side recovery decisions land on the recorder's dedicated MPE
    // ring (`cg.flight()`) so a diagnostics bundle shows the
    // block-retry story next to the per-CPE event tails.
    let p = &plan.params;
    let (bm, bn) = (p.bm(), p.bn());
    let mut failed = [false; N_CPES];
    let mut any_failed = false;
    let mut total = RunStats::default();
    for j in 0..plan.grid_n {
        for l in 0..plan.grid_k {
            for i in 0..plan.grid_m {
                let epoch = ((j * plan.grid_k + l) * plan.grid_m + i) as u64;
                let c_before = cg.mem.read_region(io.c, i * bm, j * bn, bm, bn)?;
                let mut attempt = 0u32;
                loop {
                    if let Some(inj) = &cfg.injector {
                        inj.set_epoch(epoch, attempt);
                    }
                    let result = if any_failed {
                        run_block_degraded(cg, plan, io, i, j, l, alpha, beta, &failed)
                    } else {
                        run_block_collective(cg, plan, mapping, io, i, j, l, alpha, beta)
                    };
                    match result {
                        Ok(stats) => {
                            accumulate(&mut total, &stats);
                            if any_failed {
                                if let Some(inj) = &cfg.injector {
                                    inj.note_degraded_block();
                                }
                            }
                            if cfg.abft == AbftPolicy::Off {
                                break;
                            }
                            match abft::verify_block(
                                &cg.mem, plan, io, i, j, l, alpha, beta, &c_before,
                            )? {
                                None => {
                                    if attempt > 0 {
                                        if let Some(inj) = &cfg.injector {
                                            inj.note_abft_corrected();
                                        }
                                    }
                                    break;
                                }
                                Some(detail) => {
                                    if let Some(inj) = &cfg.injector {
                                        inj.note_abft_detected();
                                    }
                                    cg.flight().record(
                                        MPE_RING,
                                        EventKind::FaultDecision,
                                        flight::fault_code::ABFT_DETECT,
                                        epoch,
                                    );
                                    if cfg.abft == AbftPolicy::Correct
                                        && attempt + 1 < cfg.max_attempts
                                    {
                                        cg.mem.write_region(
                                            io.c,
                                            i * bm,
                                            j * bn,
                                            bm,
                                            bn,
                                            &c_before,
                                        )?;
                                        attempt += 1;
                                        cg.flight().record(
                                            MPE_RING,
                                            EventKind::RetryAttempt,
                                            attempt,
                                            epoch,
                                        );
                                        continue;
                                    }
                                    return Err(DgemmError::AbftMismatch {
                                        block: (i, j, l),
                                        attempts: attempt + 1,
                                        detail,
                                    });
                                }
                            }
                        }
                        Err(run_err) => {
                            accumulate(&mut total, &run_err.stats);
                            let primary = run_err.primary().clone();
                            match primary.error {
                                CpeError::Mem(MemError::RetryBudgetExhausted { .. })
                                    if attempt + 1 < cfg.max_attempts =>
                                {
                                    let id = primary.coord.id();
                                    if !failed[id] {
                                        failed[id] = true;
                                        any_failed = true;
                                        if let Some(inj) = &cfg.injector {
                                            inj.note_cpe_failed();
                                        }
                                        cg.flight().record(
                                            MPE_RING,
                                            EventKind::FaultDecision,
                                            flight::fault_code::CPE_FAILED,
                                            id as u64,
                                        );
                                    }
                                    // Peers may have stored C tiles
                                    // before the abort: roll the whole
                                    // block back before re-running.
                                    cg.mem
                                        .write_region(io.c, i * bm, j * bn, bm, bn, &c_before)?;
                                    attempt += 1;
                                    cg.flight().record(
                                        MPE_RING,
                                        EventKind::RetryAttempt,
                                        attempt,
                                        epoch,
                                    );
                                    continue;
                                }
                                CpeError::Mesh(_) => {
                                    if let Some(inj) = &cfg.injector {
                                        inj.note_mesh_deadlock();
                                    }
                                    return Err(map_run_error(cg, &run_err));
                                }
                                CpeError::Mem(e) => return Err(DgemmError::Mem(e)),
                                // An all-`Cancelled` unwind: the cancel
                                // token (deadline or caller abort) if
                                // one fired, else an unattributable
                                // transient.
                                CpeError::Cancelled => return Err(map_run_error(cg, &run_err)),
                            }
                        }
                    }
                }
            }
        }
    }
    Ok(total)
}

/// One CG block on the full collective 64-CPE grid — the per-block
/// slice of Algorithm 1 (B load, A/C load, 8 strip steps, C store).
#[allow(clippy::too_many_arguments)]
#[allow(clippy::result_large_err)] // RunError carries full teardown evidence by design
fn run_block_collective(
    cg: &mut CoreGroup,
    plan: &GemmPlan,
    mapping: Mapping,
    io: GemmIo,
    i: usize,
    j: usize,
    l: usize,
    alpha: f64,
    beta: f64,
) -> Result<RunStats, RunError> {
    let plan = *plan;
    cg.try_run(move |ctx| {
        let p = plan.params;
        let a_buf = ctx
            .ldm
            .alloc(p.pm * p.pk)
            .unwrap_or_else(|e| ctx.abort(e.into()));
        let c_buf = ctx
            .ldm
            .alloc(p.pm * p.pn)
            .unwrap_or_else(|e| ctx.abort(e.into()));
        let b_buf = ctx
            .ldm
            .alloc(p.pk * p.pn)
            .unwrap_or_else(|e| ctx.abort(e.into()));
        let rb = mapping::b_region(&plan, io.b, mapping, l, j, ctx.coord);
        ctx.dma_pe_get(rb, b_buf)
            .unwrap_or_else(|e| ctx.abort(e.into()));
        ctx.sync_all();
        load_ac(ctx, &plan, mapping, io, i, j, l, a_buf, c_buf);
        ctx.sync_all();
        compute_and_store(
            ctx, &plan, mapping, io, i, j, l, a_buf, b_buf, c_buf, alpha, beta,
        );
    })
}

/// One CG block on the surviving grid: the block's 64 `PE` tiles are
/// dealt round-robin to the survivors; each fetches its operand slabs
/// directly (no mesh, no barriers) and stores its disjoint C tiles.
#[allow(clippy::too_many_arguments)]
#[allow(clippy::result_large_err)] // RunError carries full teardown evidence by design
fn run_block_degraded(
    cg: &mut CoreGroup,
    plan: &GemmPlan,
    io: GemmIo,
    i: usize,
    j: usize,
    l: usize,
    alpha: f64,
    beta: f64,
    failed: &[bool; N_CPES],
) -> Result<RunStats, RunError> {
    let plan = *plan;
    let failed = *failed;
    let n_survivors = failed.iter().filter(|f| !**f).count();
    assert!(n_survivors > 0, "at least one CPE must survive");
    cg.try_run(move |ctx| {
        let id = ctx.coord.id();
        if failed[id] {
            return; // a failed CPE contributes nothing — and blocks nothing
        }
        let rank = failed[..id].iter().filter(|f| !**f).count();
        let p = plan.params;
        let a_buf = ctx
            .ldm
            .alloc(p.pm * p.pk)
            .unwrap_or_else(|e| ctx.abort(e.into()));
        let c_buf = ctx
            .ldm
            .alloc(p.pm * p.pn)
            .unwrap_or_else(|e| ctx.abort(e.into()));
        let b_buf = ctx
            .ldm
            .alloc(p.pk * p.pn)
            .unwrap_or_else(|e| ctx.abort(e.into()));
        let own = StepRole {
            a: Operand::Ldm,
            b: Operand::Ldm,
        };
        let mut tile = rank;
        while tile < N_CPES {
            let owner = Coord::from_id(tile);
            let (u, v) = (owner.row as usize, owner.col as usize);
            let rc = mapping::c_region(&plan, io.c, Mapping::Pe, i, j, owner);
            ctx.dma_pe_get(rc, c_buf)
                .unwrap_or_else(|e| ctx.abort(e.into()));
            if l == 0 {
                for x in ctx.ldm.slice_mut(c_buf) {
                    *x *= beta;
                }
            }
            // Strip step s consumes k-slab s — the same order and FMA
            // chain as the collective schedule, so the tile is bitwise
            // identical to what CPE (u, v) would have produced.
            for s in 0..8 {
                let ra = MatRegion::new(
                    io.a,
                    i * p.bm() + u * p.pm,
                    l * p.bk() + s * p.pk,
                    p.pm,
                    p.pk,
                );
                let rb = MatRegion::new(
                    io.b,
                    l * p.bk() + s * p.pk,
                    j * p.bn() + v * p.pn,
                    p.pk,
                    p.pn,
                );
                ctx.dma_pe_get(ra, a_buf)
                    .unwrap_or_else(|e| ctx.abort(e.into()));
                ctx.dma_pe_get(rb, b_buf)
                    .unwrap_or_else(|e| ctx.abort(e.into()));
                strip_step(ctx, own, a_buf, b_buf, c_buf, p.pm, p.pn, p.pk, alpha);
            }
            ctx.dma_pe_put(rc, c_buf)
                .unwrap_or_else(|e| ctx.abort(e.into()));
            tile += n_survivors;
        }
    })
}

fn accumulate(total: &mut RunStats, one: &RunStats) {
    let (t, o) = (&mut total.dma, &one.dma);
    t.pe_bytes += o.pe_bytes;
    t.bcast_bytes += o.bcast_bytes;
    t.row_bytes += o.row_bytes;
    t.brow_bytes += o.brow_bytes;
    t.rank_bytes += o.rank_bytes;
    t.descriptors += o.descriptors;
    total.mesh.row_words_sent += one.mesh.row_words_sent;
    total.mesh.col_words_sent += one.mesh.col_words_sent;
    total.mesh.row_words_received += one.mesh.row_words_received;
    total.mesh.col_words_received += one.mesh.col_words_received;
    total.grid.accumulate(&one.grid);
    total
        .panicked_cpes
        .extend(one.panicked_cpes.iter().copied());
    total.wall += one.wall;
}
