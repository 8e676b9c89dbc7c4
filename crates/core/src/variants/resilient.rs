//! The self-healing functional executor: per-CG-block runs with fault
//! injection, ABFT verification, recompute-based correction, and
//! graceful degradation onto a surviving CPE grid.
//!
//! The fast path ([`super::shared`]) performs the whole [`Schedule`]
//! as one 64-thread run. The resilient path walks the same schedule's
//! blocks and trades that amortization for a recovery boundary: each
//! block is its own run of [`Schedule::block`] (Algorithm 1, as no
//! prefetch can span the boundary) by the same [`Performer`],
//! bracketed by
//!
//! 1. a **C-block snapshot** (the undo log for recompute/degrade),
//! 2. positioning the fault injector at `(epoch, attempt)` — epoch is
//!    the block's index in the schedule, so every injection decision is
//!    a pure function of the seed and the block, never of thread timing,
//! 3. the block run itself — collective while all 64 CPEs are healthy,
//!    degraded once any CPE has been marked failed,
//! 4. **ABFT verification** of the block delta against main memory
//!    ([`crate::abft`]), with restore + recompute under
//!    [`AbftPolicy::Correct`].
//!
//! Degraded mode is a different, mesh-free algorithm: the 64 `PE`
//! tiles of the block are dealt round-robin to the surviving CPEs,
//! each of which fetches the A/B slabs it needs per strip step directly
//! over DMA ([`Operand::Ldm`] roles — no rendezvous with dead peers)
//! and writes its disjoint C tiles back without barriers. Because
//! [`strip_step`] walks k-slabs in the same order with the same FMA
//! chain, a degraded block is **bitwise identical** to its collective
//! counterpart — degradation costs bandwidth and time, never numerics.
//! Numerics are buffering-independent too; timing estimates come from
//! the timing model, not this path.

use crate::abft::{self, AbftPolicy};
use crate::error::DgemmError;
use crate::mapping::{self, Mapping};
use crate::schedule::{Block, Schedule};
use crate::sharing::StepRole;
use crate::streamed::strip_step;
use crate::variants::shared::{alloc_buffers, check_io, map_run_error, Buffers, Performer};
use std::sync::Arc;
use sw_arch::coord::{Coord, N_CPES};
use sw_faults::FaultInjector;
use sw_isa::Operand;
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
    job: Performer,
    cfg: &ResilienceCfg,
) -> Result<RunStats, DgemmError> {
    let Performer { plan, io, .. } = job;
    check_io(cg, &plan, io)?;
    // MPE-side recovery decisions land on the recorder's dedicated MPE
    // ring (`cg.flight()`) so a diagnostics bundle shows the
    // block-retry story next to the per-CPE event tails.
    let (bm, bn) = (plan.params.bm(), plan.params.bn());
    let note = |event: fn(&FaultInjector)| {
        if let Some(inj) = &cfg.injector {
            event(inj);
        }
    };
    let mut failed = [false; N_CPES];
    let mut total = RunStats::default();
    Schedule::new(&plan).try_for_each_block(|epoch, block| {
        let Block { i, j, l } = block;
        let c_before = cg.mem.read_region(io.c, i * bm, j * bn, bm, bn)?;
        let mut attempt = 0u32;
        loop {
            if let Some(inj) = &cfg.injector {
                inj.set_epoch(epoch, attempt);
            }
            let degraded = failed.contains(&true);
            let result = if degraded {
                run_block_degraded(cg, job, block, failed)
            } else {
                cg.try_run(move |ctx| job.run(ctx, Schedule::block(block)))
            };
            let may_retry = attempt + 1 < cfg.max_attempts;
            match result {
                Ok(stats) => {
                    total.accumulate(&stats);
                    if degraded {
                        note(FaultInjector::note_degraded_block);
                    }
                    if cfg.abft == AbftPolicy::Off {
                        break;
                    }
                    let verdict = abft::verify_block(
                        &cg.mem, &plan, io, i, j, l, job.alpha, job.beta, &c_before,
                    )?;
                    let Some(detail) = verdict else {
                        if attempt > 0 {
                            note(FaultInjector::note_abft_corrected);
                        }
                        break;
                    };
                    note(FaultInjector::note_abft_detected);
                    cg.flight().record(
                        MPE_RING,
                        EventKind::FaultDecision,
                        flight::fault_code::ABFT_DETECT,
                        epoch,
                    );
                    if cfg.abft != AbftPolicy::Correct || !may_retry {
                        return Err(DgemmError::AbftMismatch {
                            block: (i, j, l),
                            attempts: attempt + 1,
                            detail,
                        });
                    }
                }
                Err(run_err) => {
                    total.accumulate(&run_err.stats);
                    let primary = run_err.primary().clone();
                    match primary.error {
                        CpeError::Mem(MemError::RetryBudgetExhausted { .. }) if may_retry => {
                            let id = primary.coord.id();
                            if !failed[id] {
                                failed[id] = true;
                                note(FaultInjector::note_cpe_failed);
                                cg.flight().record(
                                    MPE_RING,
                                    EventKind::FaultDecision,
                                    flight::fault_code::CPE_FAILED,
                                    id as u64,
                                );
                            }
                        }
                        CpeError::Mesh(_) => {
                            note(FaultInjector::note_mesh_deadlock);
                            return Err(map_run_error(cg, &run_err));
                        }
                        CpeError::Mem(e) => return Err(DgemmError::Mem(e)),
                        // An all-`Cancelled` unwind: the cancel token
                        // (deadline or caller abort) if one fired, else
                        // an unattributable transient.
                        CpeError::Cancelled => return Err(map_run_error(cg, &run_err)),
                    }
                }
            }
            // Re-run from the snapshot: the block's C failed its
            // checksums, or peers may have stored C tiles before the
            // abort.
            cg.mem
                .write_region(io.c, i * bm, j * bn, bm, bn, &c_before)?;
            attempt += 1;
            cg.flight()
                .record(MPE_RING, EventKind::RetryAttempt, attempt, epoch);
        }
        Ok(())
    })?;
    Ok(total)
}

/// One CG block on the surviving grid: the block's 64 `PE` tiles are
/// dealt round-robin to the survivors; each fetches its operand slabs
/// directly (no mesh, no barriers) and stores its disjoint C tiles.
#[allow(clippy::result_large_err)] // RunError carries full teardown evidence by design
fn run_block_degraded(
    cg: &mut CoreGroup,
    job: Performer,
    block: Block,
    failed: [bool; N_CPES],
) -> Result<RunStats, RunError> {
    let Performer { plan, io, .. } = job;
    let Block { i, j, l } = block;
    let n_survivors = failed.iter().filter(|f| !**f).count();
    assert!(n_survivors > 0, "at least one CPE must survive");
    cg.try_run(move |ctx| {
        let id = ctx.coord.id();
        if failed[id] {
            return; // a failed CPE contributes nothing — and blocks nothing
        }
        let rank = failed[..id].iter().filter(|f| !**f).count();
        let p = plan.params;
        let Buffers {
            a: [a_buf, _],
            c: [c_buf, _],
            b: b_buf,
        } = alloc_buffers(ctx, &p, false);
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
                    *x *= job.beta;
                }
            }
            // Strip step s consumes k-slab s — the same order and FMA
            // chain as the collective schedule, so the tile is bitwise
            // identical to what CPE (u, v) would have produced.
            for s in 0..8 {
                let ra = mapping::a_region(&plan, io.a, Mapping::Pe, i, l, Coord::new(u, s));
                let rb = mapping::b_region(&plan, io.b, Mapping::Pe, l, j, Coord::new(s, v));
                ctx.dma_pe_get(ra, a_buf)
                    .unwrap_or_else(|e| ctx.abort(e.into()));
                ctx.dma_pe_get(rb, b_buf)
                    .unwrap_or_else(|e| ctx.abort(e.into()));
                strip_step(ctx, own, a_buf, b_buf, c_buf, p.pm, p.pn, p.pk, job.alpha);
            }
            ctx.dma_pe_put(rc, c_buf)
                .unwrap_or_else(|e| ctx.abort(e.into()));
            tile += n_survivors;
        }
    })
}
