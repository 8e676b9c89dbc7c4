//! Functional executor of the data-sharing variants (PE, ROW, DB,
//! SCHED).
//!
//! Every CPE performs the same [`Schedule`] step by step (Algorithm 1,
//! or Algorithm 2 when double-buffered) in the buffers of
//! `ldm_buffers`, with the same collective data sharing; the variants
//! differ in the data-thread mapping, the LDM buffering, and — on real
//! hardware — the kernel's instruction schedule. The instruction
//! schedule does not change numerics (proved bitwise in `sw-isa`), so
//! the functional path uses the streamed kernel for all of them; the
//! cycle difference is captured by the timing mode.
//!
//! Numerical contract: results are **bitwise identical** across PE,
//! ROW, DB and SCHED (the per-element FMA order depends only on `pK`),
//! and bitwise equal to
//! [`crate::reference::dgemm_chunked_fma`] with `chunk = pK`.

use crate::error::DgemmError;
use crate::mapping::{self, Mapping};
use crate::params::BlockingParams;
use crate::plan::GemmPlan;
use crate::schedule::{ldm_buffers, Block, Buffer, Schedule, Step};
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

/// Runs `C = α·A·B + β·C` functionally on the 64-thread simulator:
/// every CPE performs the plan's whole [`Schedule`].
pub(crate) fn run_functional(cg: &mut CoreGroup, job: Performer) -> Result<RunStats, DgemmError> {
    check_io(cg, &job.plan, job.io)?;
    let schedule = Schedule::new(&job.plan);
    cg.try_run(move |ctx| job.run(ctx, schedule))
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

/// One DGEMM as every CPE performs it: the plan, its data-thread
/// mapping, the operands and the scalars.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Performer {
    pub plan: GemmPlan,
    pub mapping: Mapping,
    pub io: GemmIo,
    pub alpha: f64,
    pub beta: f64,
}

/// One CPE's LDM buffers: A and C per slot, and B.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Buffers {
    pub a: [LdmBuf; 2],
    pub c: [LdmBuf; 2],
    pub b: LdmBuf,
}

/// Allocates this CPE's buffers in the order of [`ldm_buffers`] — the
/// one allocation site of the shared and resilient paths. An overflow
/// aborts the run with a structured error.
pub(crate) fn alloc_buffers(
    ctx: &mut CpeCtx,
    p: &BlockingParams,
    double_buffered: bool,
) -> Buffers {
    let mut bufs = Buffers::default();
    for (buf, len) in ldm_buffers(p, double_buffered) {
        let slot = match buf {
            Buffer::A(s) => &mut bufs.a[s],
            Buffer::C(s) => &mut bufs.c[s],
            Buffer::B => &mut bufs.b,
            Buffer::Alpha => continue,
        };
        *slot = ctx.ldm.alloc(len).unwrap_or_else(|e| ctx.abort(e.into()));
    }
    bufs
}

impl Performer {
    /// The SPMD body every CPE runs: allocates the schedule's LDM
    /// buffers, then performs its steps in order.
    pub fn run(&self, ctx: &mut CpeCtx, schedule: Schedule) {
        let bufs = alloc_buffers(ctx, &self.plan.params, schedule.double_buffered);
        schedule.for_each(|step| self.perform(ctx, &bufs, step));
    }

    /// Performs one step on this CPE, honouring the mapping's DMA modes
    /// (B is loaded in `PE_MODE` under both).
    fn perform(&self, ctx: &mut CpeCtx, bufs: &Buffers, step: Step) {
        let (plan, mapping, io) = (&self.plan, self.mapping, self.io);
        let coord = ctx.coord;
        match step {
            Step::LoadB { j, l } => {
                let rb = mapping::b_region(plan, io.b, mapping, l, j, coord);
                ctx.dma_pe_get(rb, bufs.b)
                    .unwrap_or_else(|e| ctx.abort(e.into()));
                ctx.sync_all();
            }
            Step::LoadAc {
                block: Block { i, j, l },
                slot,
                prefetch,
            } => {
                let ra = mapping::a_region(plan, io.a, mapping, i, l, coord);
                let rc = mapping::c_region(plan, io.c, mapping, i, j, coord);
                for (region, buf) in [(ra, bufs.a[slot]), (rc, bufs.c[slot])] {
                    match mapping {
                        Mapping::Pe => ctx.dma_pe_get(region, buf),
                        Mapping::Row => ctx.dma_row_get(region, buf),
                    }
                    .unwrap_or_else(|e| ctx.abort(e.into()));
                }
                if !prefetch {
                    ctx.sync_all();
                }
            }
            Step::Compute {
                block: Block { i, j, l },
                slot,
            } => {
                let (p, alpha) = (plan.params, self.alpha);
                let (a_buf, c_buf) = (bufs.a[slot], bufs.c[slot]);
                // δC(i,j) makes its K round-trips through LDM; β applies
                // only on the first (l = 0), exactly once per element.
                if l == 0 {
                    for x in ctx.ldm.slice_mut(c_buf) {
                        *x *= self.beta;
                    }
                }
                for s in 0..8 {
                    let role = step_role(mapping, s, coord);
                    strip_step(ctx, role, a_buf, bufs.b, c_buf, p.pm, p.pn, p.pk, alpha);
                    // The mesh paces the steps, as blocking getr/getc do
                    // on the hardware: each row and column line hands
                    // its turn from the step-s broadcaster to the
                    // step-(s+1) one here, so no fast thread's
                    // step-(s+1) words can enter a line ahead of step-s
                    // words, and no barrier is needed between steps.
                    // Every CPE charges the same mesh words per step, so
                    // the simulated clocks still agree at the barriers.
                    ctx.mesh_end_step();
                }
                let rc = mapping::c_region(plan, io.c, mapping, i, j, coord);
                match mapping {
                    Mapping::Pe => ctx.dma_pe_put(rc, c_buf),
                    Mapping::Row => ctx.dma_row_put(rc, c_buf),
                }
                .unwrap_or_else(|e| ctx.abort(e.into()));
                ctx.sync_all();
            }
        }
    }
}
