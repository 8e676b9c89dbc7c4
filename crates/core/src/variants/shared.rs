//! Functional executor of the data-sharing variants (PE, ROW, DB,
//! SCHED).
//!
//! All four run the same three-level blocked schedule (Algorithm 1, or
//! Algorithm 2 when double-buffered) and the same collective data
//! sharing; they differ in the data-thread mapping, the LDM buffering,
//! and — on real hardware — the kernel's instruction schedule. The
//! instruction schedule does not change numerics (proved bitwise in
//! `sw-isa`), so the functional path uses the streamed kernel for all
//! of them; the cycle difference is captured by the timing mode.
//!
//! Numerical contract: results are **bitwise identical** across PE,
//! ROW, DB and SCHED (the per-element FMA order depends only on `pK`),
//! and bitwise equal to
//! [`crate::reference::dgemm_chunked_fma`] with `chunk = pK`.

use crate::error::DgemmError;
use crate::mapping::{self, Mapping};
use crate::plan::GemmPlan;
use crate::sharing::step_role;
use crate::streamed::strip_step;
use sw_lint::{rendezvous_summary, CommCounts};
use sw_mem::{LdmBuf, MatId, MemError};
use sw_mesh::MeshGridStats;
use sw_sim::{CoreGroup, CpeCtx, CpeError, RunError, RunStats};

/// The three operand matrices of one DGEMM, installed in main memory.
#[derive(Debug, Clone, Copy)]
pub struct GemmIo {
    /// m×k input.
    pub a: MatId,
    /// k×n input.
    pub b: MatId,
    /// m×n input/output.
    pub c: MatId,
}

/// Runs `C = α·A·B + β·C` functionally on the 64-thread simulator with
/// the given mapping and the plan's buffering mode.
pub fn run_functional(
    cg: &mut CoreGroup,
    plan: &GemmPlan,
    mapping: Mapping,
    io: GemmIo,
    alpha: f64,
    beta: f64,
) -> Result<RunStats, DgemmError> {
    check_io(cg, plan, io)?;
    let plan = *plan;
    cg.try_run(move |ctx| thread_body(ctx, &plan, mapping, io, alpha, beta))
        .map_err(|run_err| map_run_error(cg, &run_err))
}

/// Maps a failed collective run's teardown evidence onto the crate's
/// error taxonomy. Shared by the fast path, the RAW baseline, and the
/// resilient executor's non-recoverable arm:
///
/// * a mesh-wedged primary becomes [`DgemmError::MeshDeadlock`] with
///   the lint-side rendezvous summary over the observed traffic;
/// * a memory/DMA primary surfaces as [`DgemmError::Mem`];
/// * an all-`Cancelled` unwind is attributed to the core group's
///   cancel token when one fired ([`DgemmError::Cancelled`], carrying
///   the deadline bit) — a real fault on any CPE always outranks a
///   concurrent cancel, because `RunError::primary` prefers
///   non-cancelled failures.
pub(crate) fn map_run_error(cg: &CoreGroup, run_err: &RunError) -> DgemmError {
    let primary = run_err.primary();
    match &primary.error {
        CpeError::Mesh(_) => DgemmError::MeshDeadlock {
            coord: (primary.coord.row, primary.coord.col),
            summary: rendezvous_summary(&grid_to_comm(&run_err.grid)),
        },
        CpeError::Mem(e) => DgemmError::Mem(e.clone()),
        CpeError::Cancelled => match cg.cancel_token() {
            Some(token) if token.is_cancelled() => DgemmError::Cancelled {
                deadline: token.deadline_hit(),
            },
            _ => DgemmError::Mem(MemError::Transient {
                what: "run unwound with no attributable primary failure".to_string(),
            }),
        },
    }
}

/// Converts the runtime's observed per-CPE traffic into the word
/// counts the lint-side rendezvous check consumes: a broadcast
/// enqueues up to 7 copies (`div_ceil` so a partially-dropped word
/// still counts as sent), and a starved receive is one word of unmet
/// demand.
pub(crate) fn grid_to_comm(grid: &MeshGridStats) -> [[CommCounts; 8]; 8] {
    let mut comm = [[CommCounts::default(); 8]; 8];
    for (r, row) in grid.cells.iter().enumerate() {
        for (c, t) in row.iter().enumerate() {
            comm[r][c] = CommCounts {
                sent: [t.row_sent.div_ceil(7), t.col_sent.div_ceil(7)],
                recv: [t.row_recv + t.row_starved, t.col_recv + t.col_starved],
            };
        }
    }
    comm
}

pub(crate) fn check_io(cg: &CoreGroup, plan: &GemmPlan, io: GemmIo) -> Result<(), DgemmError> {
    let (ar, ac) = cg.mem.dims(io.a)?;
    let (br, bc) = cg.mem.dims(io.b)?;
    let (cr, cc) = cg.mem.dims(io.c)?;
    if (ar, ac) != (plan.m, plan.k) || (br, bc) != (plan.k, plan.n) || (cr, cc) != (plan.m, plan.n)
    {
        return Err(DgemmError::BadDims(format!(
            "installed matrices {ar}x{ac}, {br}x{bc}, {cr}x{cc} do not match plan {}x{}x{}",
            plan.m, plan.n, plan.k
        )));
    }
    Ok(())
}

/// The SPMD body every CPE thread runs: Algorithm 1 (single-buffered)
/// or Algorithm 2 (double-buffered), with the strip multiplication and
/// collective sharing inside.
fn thread_body(
    ctx: &mut CpeCtx,
    plan: &GemmPlan,
    mapping: Mapping,
    io: GemmIo,
    alpha: f64,
    beta: f64,
) {
    let p = plan.params;
    let (pm, pn, pk) = (p.pm, p.pn, p.pk);
    let nbuf = if plan.double_buffered { 2 } else { 1 };
    let a_bufs: Vec<LdmBuf> = (0..nbuf)
        .map(|_| ctx.ldm.alloc(pm * pk).expect("A blocks exceed LDM"))
        .collect();
    let c_bufs: Vec<LdmBuf> = (0..nbuf)
        .map(|_| ctx.ldm.alloc(pm * pn).expect("C blocks exceed LDM"))
        .collect();
    let b_buf = ctx.ldm.alloc(pk * pn).expect("B block exceeds LDM");

    for j in 0..plan.grid_n {
        for l in 0..plan.grid_k {
            // Load the resident B block (PE_MODE in both mappings).
            let rb = mapping::b_region(plan, io.b, mapping, l, j, ctx.coord);
            ctx.dma_pe_get(rb, b_buf)
                .unwrap_or_else(|e| ctx.abort(e.into()));
            ctx.sync_all();

            if plan.double_buffered {
                // Algorithm 2: prefetch A/C of block i+1 while block i
                // computes; buffers rotate.
                load_ac(ctx, plan, mapping, io, 0, j, l, a_bufs[0], c_bufs[0]);
                ctx.sync_all();
                for i in 0..plan.grid_m {
                    let cur = i % 2;
                    if i + 1 < plan.grid_m {
                        load_ac(
                            ctx,
                            plan,
                            mapping,
                            io,
                            i + 1,
                            j,
                            l,
                            a_bufs[(i + 1) % 2],
                            c_bufs[(i + 1) % 2],
                        );
                    }
                    compute_and_store(
                        ctx,
                        plan,
                        mapping,
                        io,
                        i,
                        j,
                        l,
                        a_bufs[cur],
                        b_buf,
                        c_bufs[cur],
                        alpha,
                        beta,
                    );
                }
            } else {
                // Algorithm 1: strictly serial load → compute → store.
                for i in 0..plan.grid_m {
                    load_ac(ctx, plan, mapping, io, i, j, l, a_bufs[0], c_bufs[0]);
                    ctx.sync_all();
                    compute_and_store(
                        ctx, plan, mapping, io, i, j, l, a_bufs[0], b_buf, c_bufs[0], alpha, beta,
                    );
                }
            }
        }
    }
}

/// Loads this thread's A block of CG block (i, l) and C block of
/// (i, j), honouring the mapping's DMA modes.
#[allow(clippy::too_many_arguments)]
pub(crate) fn load_ac(
    ctx: &mut CpeCtx,
    plan: &GemmPlan,
    mapping: Mapping,
    io: GemmIo,
    i: usize,
    j: usize,
    l: usize,
    a_buf: LdmBuf,
    c_buf: LdmBuf,
) {
    let ra = mapping::a_region(plan, io.a, mapping, i, l, ctx.coord);
    let rc = mapping::c_region(plan, io.c, mapping, i, j, ctx.coord);
    match mapping {
        Mapping::Pe => {
            ctx.dma_pe_get(ra, a_buf)
                .unwrap_or_else(|e| ctx.abort(e.into()));
            ctx.dma_pe_get(rc, c_buf)
                .unwrap_or_else(|e| ctx.abort(e.into()));
        }
        Mapping::Row => {
            ctx.dma_row_get(ra, a_buf)
                .unwrap_or_else(|e| ctx.abort(e.into()));
            ctx.dma_row_get(rc, c_buf)
                .unwrap_or_else(|e| ctx.abort(e.into()));
        }
    }
}

/// One CG-block update: β-scale on first use, 8 collective strip
/// steps, then the C write-back.
#[allow(clippy::too_many_arguments)]
pub(crate) fn compute_and_store(
    ctx: &mut CpeCtx,
    plan: &GemmPlan,
    mapping: Mapping,
    io: GemmIo,
    i: usize,
    j: usize,
    l: usize,
    a_buf: LdmBuf,
    b_buf: LdmBuf,
    c_buf: LdmBuf,
    alpha: f64,
    beta: f64,
) {
    let p = plan.params;
    // δC(i,j) makes its K round-trips through LDM; β applies only on
    // the first (l = 0), exactly once per element.
    if l == 0 {
        for x in ctx.ldm.slice_mut(c_buf) {
            *x *= beta;
        }
    }
    for s in 0..8 {
        let role = step_role(mapping, s, ctx.coord);
        strip_step(ctx, role, a_buf, b_buf, c_buf, p.pm, p.pn, p.pk, alpha);
        // The mesh paces the steps, as blocking getr/getc do on the
        // hardware: each row and column line hands its turn from the
        // step-s broadcaster to the step-(s+1) one here, so no fast
        // thread's step-(s+1) words can enter a line ahead of step-s
        // words, and no barrier is needed between steps. Every CPE
        // charges the same mesh words per step, so the simulated clocks
        // still agree at Algorithm 1's barriers.
        ctx.mesh_end_step();
    }
    let rc = mapping::c_region(plan, io.c, mapping, i, j, ctx.coord);
    match mapping {
        Mapping::Pe => ctx
            .dma_pe_put(rc, c_buf)
            .unwrap_or_else(|e| ctx.abort(e.into())),
        Mapping::Row => ctx
            .dma_row_put(rc, c_buf)
            .unwrap_or_else(|e| ctx.abort(e.into())),
    };
    ctx.sync_all();
}
