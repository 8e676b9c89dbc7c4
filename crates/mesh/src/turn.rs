//! Per-line turn order of the collective strip steps.
//!
//! On the hardware, blocking `getr`/`getc` pace Algorithm 3 (§III-B):
//! a line's step-`s+1` broadcaster cannot run ahead of the step-`s`
//! words its mates still have to consume. Host CPEs drift freely, so
//! without pacing a fast CPE's step-`s+1` broadcast could enter a
//! line's FIFO ahead of step-`s` words from a different sender.
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
//! tests) is never gated.

use std::cell::Cell;
use std::rc::Rc;

/// One mesh line's turn: the strip step whose sender may broadcast.
pub(crate) type LineTurn = Cell<u64>;

/// A port's place in the strip-step sequence of its two lines (index 0
/// its mesh row, 1 its mesh column).
pub(crate) struct Steps {
    lines: [Rc<LineTurn>; 2],
    /// Strip steps this port has ended.
    step: Cell<u64>,
    /// Lines whose turn this port holds in the current step.
    held: Cell<[bool; 2]>,
}

impl Steps {
    pub fn new(row: Rc<LineTurn>, col: Rc<LineTurn>) -> Self {
        Steps {
            lines: [row, col],
            step: Cell::new(0),
            held: Cell::new([false; 2]),
        }
    }

    /// Takes the turn of the column (`col_net`) or row line for the
    /// current step: `true` once this port holds it, `false` while an
    /// earlier step's sender still does.
    pub fn try_take(&self, col_net: bool) -> bool {
        let i = col_net as usize;
        let mut held = self.held.get();
        if !held[i] {
            if self.lines[i].get() != self.step.get() {
                return false;
            }
            held[i] = true;
            self.held.set(held);
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
                line.set(step + 1);
            }
        }
        self.held.set([false; 2]);
        self.step.set(step + 1);
    }
}
