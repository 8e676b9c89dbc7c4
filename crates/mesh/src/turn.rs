//! Per-line turn order of the collective strip steps.
//!
//! On the hardware, blocking `getr`/`getc` pace Algorithm 3 (§III-B):
//! a line's step-`s+1` broadcaster cannot run ahead of the step-`s`
//! words its mates still have to consume. Host threads drift freely,
//! so without pacing a fast thread's step-`s+1` broadcast could enter
//! a line's FIFO ahead of step-`s` words from a different sender.
//!
//! Each mesh row and each mesh column has one [`LineTurn`]: the strip
//! step whose sender may broadcast on the line. Each port keeps its own
//! step index in [`Steps`]. A broadcast first takes the line's turn,
//! which waits until the turn equals the port's step;
//! [`Steps::end_step`] then hands the turn of every line the port sent
//! on to the next step and advances the port's index. The step-`s`
//! sender passes the turn only after its last episode of the step has
//! ended, so every step-`s` word is in the line's FIFO before any
//! step-`s+1` word. The turn lives here, above the rings, which know
//! nothing of steps.
//!
//! A port that never ends a step stays at step 0, where every turn
//! starts, so unpaced traffic (kernel-driven mesh streams, probes, unit
//! tests) is never gated. The turn only orders episodes: the ring's
//! per-episode claim still serializes them, so memory safety does not
//! rest on the schedule.

// Concurrency vocabulary comes from the sw-check facade, as in
// `ring.rs`, so `check_models` checks this exact source.
use crate::ring::CachePadded;
use std::cell::Cell;
use std::sync::Arc;
use sw_check::sync::atomic::{AtomicU64, Ordering};

/// One mesh line's turn: the strip step whose sender may broadcast.
pub(crate) struct LineTurn(CachePadded<AtomicU64>);

impl LineTurn {
    pub fn new() -> Self {
        LineTurn(CachePadded(AtomicU64::new(0)))
    }
}

/// Which taker [`Steps::try_take`] compiles: the sound one, or the
/// seeded defect the `cfg(sw_check)` block below exposes.
const SOUND: u8 = 0;
const EARLY_PASS: u8 = 1;

/// A port's place in the strip-step sequence of its two lines (index 0
/// its mesh row, 1 its mesh column). Owned by one `!Sync` port.
pub(crate) struct Steps {
    lines: [Arc<LineTurn>; 2],
    /// Strip steps this port has ended.
    step: Cell<u64>,
    /// Lines whose turn this port holds in the current step.
    held: Cell<[bool; 2]>,
}

impl Steps {
    pub fn new(row: Arc<LineTurn>, col: Arc<LineTurn>) -> Self {
        Steps {
            lines: [row, col],
            step: Cell::new(0),
            held: Cell::new([false; 2]),
        }
    }

    /// Takes the turn of the column (`col_net`) or row line for the
    /// current step: `true` once this port holds it, `false` while an
    /// earlier step's sender still does.
    #[inline]
    pub fn try_take(&self, col_net: bool) -> bool {
        self.take::<SOUND>(col_net)
    }

    #[inline]
    fn take<const DEFECT: u8>(&self, col_net: bool) -> bool {
        let i = col_net as usize;
        let mut held = self.held.get();
        if held[i] {
            return true;
        }
        let step = self.step.get();
        // Acquire pairs with the release in `end_step`: the previous
        // step's episodes on this line all ended before ours open.
        if self.lines[i].0 .0.load(Ordering::Acquire) != step {
            return false;
        }
        held[i] = true;
        self.held.set(held);
        if DEFECT == EARLY_PASS {
            // MUTANT: the turn belongs to this port until `end_step`.
            self.lines[i].0 .0.store(step + 1, Ordering::Release);
        }
        true
    }

    /// Ends the current strip step: passes the turn of every line this
    /// port broadcast on (or was wedged on) to the next step, then
    /// advances the port's step index.
    pub fn end_step(&self) {
        let step = self.step.get();
        for (line, held) in self.lines.iter().zip(self.held.get()) {
            if held {
                // Release: this step's episodes on the line happen
                // before the next step's sender takes the turn.
                line.0 .0.store(step + 1, Ordering::Release);
            }
        }
        self.held.set([false; 2]);
        self.step.set(step + 1);
    }
}

/// Seeded defect for the model-check suite ([`crate::check_models`]),
/// compiled only under the checker cfg.
#[cfg(sw_check)]
impl Steps {
    /// `try_take` that passes the turn on the moment it takes it,
    /// before the step's words are published instead of after its last
    /// episode ends: the next step's sender can then slip its words in
    /// between this step's episodes.
    pub(crate) fn try_take_mutant_early_pass(&self, col_net: bool) -> bool {
        self.take::<EARLY_PASS>(col_net)
    }
}
