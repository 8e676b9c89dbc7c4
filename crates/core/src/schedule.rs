//! The CG-level schedule of the data-sharing variants, written once:
//! Algorithm 1, and Algorithm 2 with A and C double-buffered.
//!
//! The timing model prices each [`Step`], the functional run performs
//! it on every CPE, and the resilient executor runs each block alone
//! ([`Schedule::block`]) with the block's index as its fault epoch. The
//! walk is internal (`for_each`, not `next`), so an estimate inlines
//! the one loop nest into its pricing loop. `ldm_buffers` is the one
//! LDM layout the steps address.

use crate::params::BlockingParams;
use crate::plan::GemmPlan;
use std::convert::Infallible;

/// The CG block `C(i, j)`, updated with the k-slab `l`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Block {
    pub i: usize,
    pub j: usize,
    pub l: usize,
}

/// One step of the MPE-side program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Load the B block `(l, j)`, resident across the iteration's
    /// blocks; a barrier follows.
    LoadB { j: usize, l: usize },
    /// Load the block's A `(i, l)` and C `(i, j)` into buffer `slot`.
    /// Algorithm 2's `prefetch` overlaps the previous block's compute;
    /// any other load is followed by a barrier.
    LoadAc {
        block: Block,
        slot: usize,
        prefetch: bool,
    },
    /// Multiply the block out of `slot`: β-scale C when `l == 0`, the 8
    /// collective strip steps, then store C; a barrier follows.
    Compute { block: Block, slot: usize },
}

/// The steps of one plan in program order: Algorithm 2 when the plan is
/// double-buffered, Algorithm 1 otherwise. Walking it allocates nothing.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    first: Block,
    /// Blocks along `(i, j, l)` from `first`.
    grid: (usize, usize, usize),
    pub(crate) double_buffered: bool,
}

impl Schedule {
    /// The schedule of `plan`.
    pub fn new(plan: &GemmPlan) -> Self {
        Schedule {
            first: Block { i: 0, j: 0, l: 0 },
            grid: (plan.grid_m, plan.grid_n, plan.grid_k),
            double_buffered: plan.double_buffered,
        }
    }

    /// `block` alone, as Algorithm 1 runs it (B, A/C, compute): the
    /// unit the resilient executor runs and retries, since no prefetch
    /// can span its recovery boundary.
    pub fn block(block: Block) -> Self {
        Schedule {
            first: block,
            grid: (1, 1, 1),
            double_buffered: false,
        }
    }

    /// Calls `f` with each step in program order.
    pub fn for_each(self, mut f: impl FnMut(Step)) {
        let Ok(()) = self.try_for_each(|step| {
            f(step);
            Ok::<(), Infallible>(())
        });
    }

    /// Calls `f` with each step in program order, stopping at the first
    /// error. The CG blocks of C go in `j, l, i` order, under one
    /// resident B block per `(j, l)`.
    pub fn try_for_each<E>(self, mut f: impl FnMut(Step) -> Result<(), E>) -> Result<(), E> {
        let (first, db) = (self.first, self.double_buffered);
        let (grid_m, grid_n, grid_k) = self.grid;
        let i_end = first.i + grid_m;
        // Algorithm 2 computes block i out of slot i mod 2, so the
        // prefetch of block i+1 fills the slot block i-1 released.
        let slot = |i: usize| i & usize::from(db);
        for j in first.j..first.j + grid_n {
            for l in first.l..first.l + grid_k {
                let load = |i, prefetch| Step::LoadAc {
                    block: Block { i, j, l },
                    slot: slot(i),
                    prefetch,
                };
                f(Step::LoadB { j, l })?;
                f(load(first.i, false))?;
                for i in first.i..i_end {
                    // Block i+1's A/C: Algorithm 2 prefetches it while
                    // block i computes, Algorithm 1 loads it after.
                    let next = i + 1 < i_end;
                    if db && next {
                        f(load(i + 1, true))?;
                    }
                    let (block, slot) = (Block { i, j, l }, slot(i));
                    f(Step::Compute { block, slot })?;
                    if !db && next {
                        f(load(i + 1, false))?;
                    }
                }
            }
        }
        Ok(())
    }

    /// Calls `f` with each block in the order the blocks compute, and
    /// its index in that order: `(j·grid_k + l)·grid_m + i`.
    pub fn try_for_each_block<E>(
        self,
        mut f: impl FnMut(u64, Block) -> Result<(), E>,
    ) -> Result<(), E> {
        let mut index = 0;
        self.try_for_each(|step| match step {
            Step::Compute { block, .. } => {
                index += 1;
                f(index - 1, block)
            }
            _ => Ok(()),
        })
    }
}

/// One per-CPE LDM buffer of the data-sharing variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Buffer {
    /// The A block of a slot.
    A(usize),
    /// The C block of a slot.
    C(usize),
    /// The resident B block.
    B,
    /// The kernel's α operand, which the functional strip step keeps in
    /// a register instead.
    Alpha,
}

/// The LDM buffers in allocation order with their lengths in doubles:
/// the A slots, the C slots, B, then α; two slots when double-buffered.
pub(crate) fn ldm_buffers(
    p: &BlockingParams,
    double_buffered: bool,
) -> impl Iterator<Item = (Buffer, usize)> {
    let slots = 1 + usize::from(double_buffered);
    let (a, c) = (p.pm * p.pk, p.pm * p.pn);
    let a_slots = (0..slots).map(move |s| (Buffer::A(s), a));
    let c_slots = (0..slots).map(move |s| (Buffer::C(s), c));
    a_slots
        .chain(c_slots)
        .chain([(Buffer::B, p.pk * p.pn), (Buffer::Alpha, 1)])
}
