//! The cycle-accurate, functional CPE executor.
//!
//! [`Machine`] executes an instruction stream against an LDM slice and a
//! [`CommPort`], producing both the numerical effects *and* an
//! [`ExecReport`] with the cycle count a dual-issue in-order CPE would
//! take:
//!
//! * one instruction per pipeline (P0 = float, P1 = everything else)
//!   may issue per cycle, in program order;
//! * an instruction stalls until its source registers are ready (RAW:
//!   `vmad` 6 cycles, loads/register communication 4, integer ops 1)
//!   and until a pending write to its destination completes (WAW);
//! * a taken branch costs [`crate::instr::BRANCH_TAKEN_PENALTY`] refill
//!   cycles.
//!
//! Because issue order is program order, *instruction scheduling* —
//! not out-of-order hardware — decides how much of the P1 latency hides
//! under `vmad`s, which is precisely the effect §IV-C measures (a
//! 113.9 % speed-up from reordering alone).
//!
//! # Execution engine
//!
//! There is one interpreter, and it reads the [`Instr`] stream
//! directly: each dynamic instruction's pipe, latency and registers
//! come from `Instr`'s accessors, which return fixed-size register
//! sets, so there is no decode step and nothing is allocated per run. [`Machine::run`],
//! [`Machine::try_run`] and [`Machine::run_probed`] all run it; the
//! probed form adds the stall attribution behind a const generic.

use crate::comm::CommPort;
use crate::instr::{Instr, Pipe, BRANCH_TAKEN_PENALTY};
use crate::regs::IREG_COUNT;
use sw_arch::consts::VREG_COUNT;
use sw_arch::V256;
use sw_probe::stall::{StallKind, StallReport};

/// Result latency that marks a producer as a *load-class* instruction
/// (LDM loads and register-communication receives all complete in 4
/// cycles); stalls on such producers are attributed to
/// [`StallKind::LoadUse`], everything else to [`StallKind::Raw`].
const LOAD_LATENCY: u64 = 4;

/// Incremental per-pipe cycle attribution, updated at every issue.
///
/// The invariant (checked by `finish` in debug builds and pinned by
/// property tests): after the run, each pipe's buckets sum exactly to
/// `ExecReport::cycles`. The accounting is interval arithmetic over
/// the issue timeline — no per-cycle loop:
///
/// * `attributed[p]` — the first cycle of pipe `p` not yet classified;
/// * branch-refill windows (`[t+1, t+1+BRANCH_TAKEN_PENALTY)` after a
///   taken branch at `t`) are tracked as a running total; they always
///   fall inside both pipes' current gaps, so the pending total since
///   a pipe's last issue is exactly its loop-overhead share;
/// * at an issue on pipe `p` at cycle `t`, the gap
///   `[attributed[p], t)` splits into refill (loop overhead), the
///   operand-hazard window `[max(attributed, cur0), t_ready)` (RAW or
///   load-use, by the binding producer's class, load preferred on
///   ties), and the remainder (pipe conflict: the in-order front end
///   was busy elsewhere or the slot was taken);
/// * the tail `[attributed[p], cycles)` after the last issue is
///   refill (clamped to the run's end) plus pipe conflict.
#[derive(Debug)]
struct StallProbe {
    report: StallReport,
    attributed: [u64; 2],
    refill_snap: [u64; 2],
    refill_cum: u64,
    refill_last_end: u64,
    vload: [bool; VREG_COUNT],
}

impl Default for StallProbe {
    fn default() -> Self {
        StallProbe {
            report: StallReport::default(),
            attributed: [0; 2],
            refill_snap: [0; 2],
            refill_cum: 0,
            refill_last_end: 0,
            vload: [false; VREG_COUNT],
        }
    }
}

/// Tracks the strongest not-yet-ready operand constraint: the latest
/// ready time wins; at equal times a load-class producer wins (the
/// scheduling literature's convention, and the paper's §5.3 focus).
#[inline]
fn consider(best: &mut (u64, bool), ready: u64, is_load: bool) {
    if ready > best.0 {
        *best = (ready, is_load);
    } else if ready == best.0 && is_load {
        best.1 = true;
    }
}

impl StallProbe {
    /// Classifies the gap behind an issue on `pipe` at cycle `t`.
    /// `cur0` is the front-end cycle when this instruction's
    /// processing began; `(t_ready, ready_is_load)` the binding
    /// operand constraint.
    #[inline]
    fn on_issue(&mut self, pipe: Pipe, t: u64, cur0: u64, ready: (u64, bool)) {
        let p = pipe as usize;
        let a = self.attributed[p];
        let refill = self.refill_cum - self.refill_snap[p];
        let hazard = t.min(ready.0).saturating_sub(a.max(cur0));
        let gap = t - a;
        debug_assert!(refill + hazard <= gap, "attribution exceeds the gap");
        let b = &mut self.report.pipes[p];
        b.add(StallKind::LoopOverhead, refill);
        b.add(
            if ready.1 {
                StallKind::LoadUse
            } else {
                StallKind::Raw
            },
            hazard,
        );
        b.add(StallKind::PipeConflict, gap - refill - hazard);
        b.issue += 1;
        self.attributed[p] = t + 1;
        self.refill_snap[p] = self.refill_cum;
    }

    /// Opens a refill window after a branch taken at issue cycle `t`.
    #[inline]
    fn on_taken_branch(&mut self, t: u64) {
        self.refill_cum += BRANCH_TAKEN_PENALTY;
        self.refill_last_end = t + 1 + BRANCH_TAKEN_PENALTY;
    }

    /// Records the producer class of a vector-register write.
    #[inline]
    fn on_vdst_write(&mut self, r: u8, is_load: bool) {
        self.vload[r as usize] = is_load;
    }

    /// Attributes each pipe's tail and seals the report.
    fn finish(&mut self, cycles: u64) -> StallReport {
        self.report.cycles = cycles;
        for p in 0..2 {
            debug_assert!(self.attributed[p] <= cycles);
            let tail = cycles - self.attributed[p];
            let pending = self.refill_cum - self.refill_snap[p];
            // Only the last window can outlive the run (a taken branch
            // as the final dynamic instruction).
            let overshoot = self.refill_last_end.saturating_sub(cycles);
            let refill = pending.saturating_sub(overshoot).min(tail);
            let b = &mut self.report.pipes[p];
            b.add(StallKind::LoopOverhead, refill);
            b.add(StallKind::PipeConflict, tail - refill);
        }
        debug_assert!(self.report.check().is_ok(), "{:?}", self.report.check());
        self.report
    }
}

/// Default cap on executed instructions, so a malformed loop fails fast
/// instead of hanging the test suite. Override per machine with
/// [`Machine::set_budget`].
pub const MAX_EXECUTED: u64 = 200_000_000;

/// The executor's instruction budget was exhausted: the program executed
/// more dynamic instructions than allowed, which in this ISA (whose only
/// back-edge is `bne`) almost always means a runaway loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BudgetExceeded {
    /// Program counter of the instruction that exceeded the budget.
    pub pc: usize,
    /// The instruction at that pc.
    pub instr: Instr,
    /// Dynamic instructions executed when the budget tripped.
    pub executed: u64,
    /// The budget that was in force.
    pub budget: u64,
}

impl std::fmt::Display for BudgetExceeded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "instruction budget exhausted after {} executed (budget {}) at pc {}: `{}` — runaway loop?",
            self.executed, self.budget, self.pc, self.instr
        )
    }
}

impl std::error::Error for BudgetExceeded {}

/// Cycle and issue statistics of one program run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExecReport {
    /// Total cycles from first issue to last issue (inclusive).
    pub cycles: u64,
    /// Instructions executed (dynamic count).
    pub instructions: u64,
    /// `vmad`s executed.
    pub vmads: u64,
    /// Cycles in which both pipelines issued.
    pub dual_issue_cycles: u64,
    /// Taken branches.
    pub taken_branches: u64,
}

impl ExecReport {
    /// Fraction of cycles that retired a `vmad` — the paper reports 97 %
    /// for the scheduled kernel.
    pub fn vmad_occupancy(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.vmads as f64 / self.cycles as f64
        }
    }

    /// Double-precision flops performed (8 per `vmad`).
    pub fn flops(&self) -> u64 {
        self.vmads * 8
    }
}

/// The CPE execution engine, named in the tune-cache key.
///
/// There is one engine, the direct-from-[`Instr`] interpreter behind
/// [`Machine::run`]. This one-variant enum exists only because the
/// benchmark passes `EngineBackend::default()` to
/// `timing::build_shared_dag_with`, `tuner::resolve`,
/// `tuner::resolve_in` and `TuneCache::key`; it goes, with those
/// parameters, in the next change to the benchmark. Its variant keeps
/// the name `Decoded` so the cache key segment `decoded` still hits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineBackend {
    /// The one interpreter.
    #[default]
    Decoded,
}

impl EngineBackend {
    /// The lowercase name the tune-cache key carries.
    pub fn name(self) -> &'static str {
        match self {
            EngineBackend::Decoded => "decoded",
        }
    }
}

/// One CPE: register files, an LDM view, and a communication port.
pub struct Machine<'a, C: CommPort> {
    /// Vector register file.
    pub vregs: [V256; VREG_COUNT],
    /// Integer register file.
    pub iregs: [i64; IREG_COUNT],
    ldm: &'a mut [f64],
    comm: &'a mut C,
    budget: u64,
}

impl<'a, C: CommPort> Machine<'a, C> {
    /// A machine with zeroed registers over the given LDM and port.
    pub fn new(ldm: &'a mut [f64], comm: &'a mut C) -> Self {
        Machine {
            vregs: [V256::ZERO; VREG_COUNT],
            iregs: [0; IREG_COUNT],
            ldm,
            comm,
            budget: MAX_EXECUTED,
        }
    }

    /// Overrides the dynamic-instruction budget (default
    /// [`MAX_EXECUTED`]). Tests of the runaway-loop guard use a tiny
    /// budget.
    pub fn set_budget(&mut self, budget: u64) {
        self.budget = budget;
    }

    fn addr(&self, base: crate::regs::IReg, off: i64) -> usize {
        let a = self.iregs[base.idx()] + off;
        assert!(a >= 0, "negative LDM address {a}");
        let a = a as usize;
        assert!(
            a < self.ldm.len(),
            "LDM address {a} beyond scratch pad ({} doubles)",
            self.ldm.len()
        );
        a
    }

    fn vaddr(&self, base: crate::regs::IReg, off: i64) -> usize {
        let a = self.addr(base, off);
        assert!(
            a.is_multiple_of(4),
            "vector LDM access at {a} is not 256-bit aligned"
        );
        assert!(
            a + 4 <= self.ldm.len(),
            "vector LDM access at {a} runs off the scratch pad"
        );
        a
    }

    /// Runs the program to completion, returning issue statistics.
    /// Panics (with the offending pc and instruction) if the
    /// instruction budget is exhausted; use [`Machine::try_run`] to
    /// handle that case as a value.
    pub fn run(&mut self, prog: &[Instr]) -> ExecReport {
        match self.try_run(prog) {
            Ok(report) => report,
            Err(e) => panic!("{e}"),
        }
    }

    /// Like [`Machine::run`], returning a structured error instead of
    /// panicking when the instruction budget is exhausted.
    pub fn try_run(&mut self, prog: &[Instr]) -> Result<ExecReport, BudgetExceeded> {
        self.exec::<false>(prog).map(|(report, _)| report)
    }

    /// Like [`Machine::run`], but additionally classifies every
    /// simulated cycle of each pipe (issue, RAW, load-use, pipe
    /// conflict, loop overhead). Panics on budget exhaustion.
    pub fn run_probed(&mut self, prog: &[Instr]) -> (ExecReport, StallReport) {
        match self.exec::<true>(prog) {
            Ok(pair) => pair,
            Err(e) => panic!("{e}"),
        }
    }

    /// The interpreter. With `PROBE = false` every attribution touch
    /// point is compiled out, so unprobed runs pay nothing for it.
    fn exec<const PROBE: bool>(
        &mut self,
        prog: &[Instr],
    ) -> Result<(ExecReport, StallReport), BudgetExceeded> {
        let mut probe = StallProbe::default();
        let mut report = ExecReport::default();
        // Scoreboard: the cycle at which each register's pending write
        // completes.
        let mut vready = [0u64; VREG_COUNT];
        let mut iready = [0u64; IREG_COUNT];
        // Issue state: current cycle and which pipes issued in it.
        let mut cur: u64 = 0;
        let mut p0_used = false;
        let mut p1_used = false;
        let mut last_issue: u64 = 0;
        let mut pc = 0usize;

        while pc < prog.len() {
            let instr = prog[pc];
            report.instructions += 1;
            if report.instructions > self.budget {
                return Err(BudgetExceeded {
                    pc,
                    instr,
                    executed: report.instructions,
                    budget: self.budget,
                });
            }

            // Earliest legal issue cycle: in order, sources ready (RAW),
            // destination write drained (WAW).
            let cur0 = cur;
            let mut t = cur;
            let mut ready = (0u64, false);
            for r in instr.vsrcs() {
                let rt = vready[r.idx()];
                t = t.max(rt);
                if PROBE {
                    consider(&mut ready, rt, probe.vload[r.idx()]);
                }
            }
            for r in instr.isrcs() {
                let rt = iready[r.idx()];
                t = t.max(rt);
                if PROBE {
                    consider(&mut ready, rt, false);
                }
            }
            if let Some(d) = instr.vdst() {
                let rt = vready[d.idx()];
                t = t.max(rt);
                if PROBE {
                    consider(&mut ready, rt, probe.vload[d.idx()]);
                }
            }
            if let Some(d) = instr.idst() {
                let rt = iready[d.idx()];
                t = t.max(rt);
                if PROBE {
                    consider(&mut ready, rt, false);
                }
            }
            // Find a free slot on the instruction's pipe.
            loop {
                if t > cur {
                    cur = t;
                    p0_used = false;
                    p1_used = false;
                }
                let used = match instr.pipe() {
                    Pipe::P0 => &mut p0_used,
                    Pipe::P1 => &mut p1_used,
                };
                if !*used {
                    *used = true;
                    break;
                }
                t += 1;
            }
            if p0_used && p1_used {
                report.dual_issue_cycles += 1;
            }
            last_issue = last_issue.max(t);
            if PROBE {
                probe.on_issue(instr.pipe(), t, cur0, ready);
            }

            // Retire: update the scoreboard and perform the effect.
            if let Some(d) = instr.vdst() {
                vready[d.idx()] = t + instr.latency();
                if PROBE {
                    probe.on_vdst_write(d.0, instr.latency() == LOAD_LATENCY);
                }
            }
            if let Some(d) = instr.idst() {
                iready[d.idx()] = t + instr.latency();
            }
            let mut next_pc = pc + 1;
            match instr {
                Instr::Vmad { a, b, c, d } => {
                    report.vmads += 1;
                    self.vregs[d.idx()] =
                        self.vregs[a.idx()].fma(self.vregs[b.idx()], self.vregs[c.idx()]);
                }
                Instr::Vldd { d, base, off } => {
                    let a = self.vaddr(base, off);
                    self.vregs[d.idx()] = V256::load(&self.ldm[a..]);
                }
                Instr::Vstd { s, base, off } => {
                    let a = self.vaddr(base, off);
                    self.vregs[s.idx()].store(&mut self.ldm[a..a + 4]);
                }
                Instr::Ldde { d, base, off } => {
                    let a = self.addr(base, off);
                    self.vregs[d.idx()] = V256::splat(self.ldm[a]);
                }
                Instr::Vldr { d, base, off, net } => {
                    let a = self.vaddr(base, off);
                    let v = V256::load(&self.ldm[a..]);
                    match net {
                        crate::instr::Net::Row => self.comm.row_bcast(v),
                        crate::instr::Net::Col => self.comm.col_bcast(v),
                    }
                    self.vregs[d.idx()] = v;
                }
                Instr::Lddec { d, base, off, net } => {
                    let a = self.addr(base, off);
                    let v = V256::splat(self.ldm[a]);
                    match net {
                        crate::instr::Net::Row => self.comm.row_bcast(v),
                        crate::instr::Net::Col => self.comm.col_bcast(v),
                    }
                    self.vregs[d.idx()] = v;
                }
                Instr::Getr { d } => {
                    self.vregs[d.idx()] = self.comm.getr();
                }
                Instr::Getc { d } => {
                    self.vregs[d.idx()] = self.comm.getc();
                }
                Instr::Vclr { d } => {
                    self.vregs[d.idx()] = V256::ZERO;
                }
                Instr::Addl { d, s, imm } => {
                    self.iregs[d.idx()] = self.iregs[s.idx()] + imm;
                }
                Instr::Setl { d, imm } => {
                    self.iregs[d.idx()] = imm;
                }
                Instr::Bne { s, target } => {
                    if self.iregs[s.idx()] != 0 {
                        report.taken_branches += 1;
                        next_pc = target;
                        // Pipeline refill bubble: nothing issues until
                        // the fetch redirect completes.
                        cur = t + 1 + BRANCH_TAKEN_PENALTY;
                        p0_used = false;
                        p1_used = false;
                        if PROBE {
                            probe.on_taken_branch(t);
                        }
                    }
                }
                Instr::Nop => {}
            }
            pc = next_pc;
        }
        report.cycles = if report.instructions == 0 {
            0
        } else {
            last_issue + 1
        };
        let stall = if PROBE {
            probe.finish(report.cycles)
        } else {
            StallReport::default()
        };
        Ok((report, stall))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::{NullComm, ScriptedComm};
    use crate::instr::Net;
    use crate::regs::{IReg, VReg};

    fn run(prog: &[Instr], ldm: &mut [f64]) -> (ExecReport, [V256; VREG_COUNT]) {
        let mut comm = NullComm;
        let mut m = Machine::new(ldm, &mut comm);
        let r = m.run(prog);
        (r, m.vregs)
    }

    #[test]
    fn dual_issue_pairs_float_with_p1() {
        // vmad + nop can share a cycle; two vmads cannot.
        let v = Instr::Vmad {
            a: VReg(0),
            b: VReg(1),
            c: VReg(2),
            d: VReg(2),
        };
        let w = Instr::Vmad {
            a: VReg(0),
            b: VReg(1),
            c: VReg(3),
            d: VReg(3),
        };
        let mut ldm = vec![0.0; 64];
        let (r, _) = run(&[v, Instr::Nop], &mut ldm);
        assert_eq!(r.cycles, 1);
        assert_eq!(r.dual_issue_cycles, 1);
        let (r, _) = run(&[v, w], &mut ldm);
        assert_eq!(r.cycles, 2);
        assert_eq!(r.dual_issue_cycles, 0);
    }

    #[test]
    fn raw_hazard_stalls_vmad_chain() {
        // Two vmads accumulating into the same register serialize at the
        // 6-cycle RAW latency.
        let v = Instr::Vmad {
            a: VReg(0),
            b: VReg(1),
            c: VReg(2),
            d: VReg(2),
        };
        let mut ldm = vec![0.0; 64];
        let (r, _) = run(&[v, v], &mut ldm);
        assert_eq!(r.cycles, 7); // issue at 0 and 6
    }

    #[test]
    fn load_use_stall_is_four_cycles() {
        let prog = [
            Instr::Vldd {
                d: VReg(0),
                base: IReg(0),
                off: 0,
            },
            Instr::Vmad {
                a: VReg(0),
                b: VReg(1),
                c: VReg(2),
                d: VReg(2),
            },
        ];
        let mut ldm = vec![0.0; 64];
        let (r, _) = run(&prog, &mut ldm);
        // load at 0, vmad at 4.
        assert_eq!(r.cycles, 5);
    }

    #[test]
    fn independent_load_pairs_with_vmad() {
        let prog = [
            Instr::Vmad {
                a: VReg(0),
                b: VReg(1),
                c: VReg(2),
                d: VReg(2),
            },
            Instr::Vldd {
                d: VReg(3),
                base: IReg(0),
                off: 0,
            },
        ];
        let mut ldm = vec![0.0; 64];
        let (r, _) = run(&prog, &mut ldm);
        assert_eq!(r.cycles, 1);
        assert_eq!(r.dual_issue_cycles, 1);
    }

    #[test]
    fn functional_fma_and_loads() {
        let mut ldm = vec![0.0; 64];
        ldm[0..4].copy_from_slice(&[1.0, 2.0, 3.0, 4.0]);
        ldm[8] = 10.0;
        let prog = [
            Instr::Vldd {
                d: VReg(0),
                base: IReg(0),
                off: 0,
            },
            Instr::Ldde {
                d: VReg(1),
                base: IReg(0),
                off: 8,
            },
            Instr::Vclr { d: VReg(2) },
            Instr::Vmad {
                a: VReg(0),
                b: VReg(1),
                c: VReg(2),
                d: VReg(2),
            },
            Instr::Vstd {
                s: VReg(2),
                base: IReg(0),
                off: 16,
            },
        ];
        let (_, _) = run(&prog, &mut ldm);
        assert_eq!(&ldm[16..20], &[10.0, 20.0, 30.0, 40.0]);
    }

    #[test]
    fn loop_with_bne_executes_and_penalizes() {
        // r1 = 3; loop { r1 -= 1; bne r1 } — 3 iterations, 2 taken.
        let prog = [
            Instr::Setl { d: IReg(1), imm: 3 },
            Instr::Addl {
                d: IReg(1),
                s: IReg(1),
                imm: -1,
            },
            Instr::Bne {
                s: IReg(1),
                target: 1,
            },
        ];
        let mut ldm = vec![0.0; 16];
        let (r, _) = run(&prog, &mut ldm);
        assert_eq!(r.taken_branches, 2);
        assert_eq!(r.instructions, 7);
    }

    #[test]
    fn broadcast_and_receive_via_scripted_comm() {
        let mut ldm = vec![0.0; 16];
        ldm[0..4].copy_from_slice(&[5.0, 6.0, 7.0, 8.0]);
        ldm[4] = 2.5;
        let mut comm = ScriptedComm::default();
        comm.script_row_panel(&[1.0, 1.0, 1.0, 1.0]);
        comm.script_col_scalars(&[3.0]);
        let prog = [
            Instr::Vldr {
                d: VReg(0),
                base: IReg(0),
                off: 0,
                net: Net::Row,
            },
            Instr::Lddec {
                d: VReg(1),
                base: IReg(0),
                off: 4,
                net: Net::Col,
            },
            Instr::Getr { d: VReg(2) },
            Instr::Getc { d: VReg(3) },
        ];
        let mut m = Machine::new(&mut ldm, &mut comm);
        m.run(&prog);
        assert_eq!(m.vregs[0], V256::new([5.0, 6.0, 7.0, 8.0]));
        assert_eq!(m.vregs[1], V256::splat(2.5));
        assert_eq!(m.vregs[2], V256::splat(1.0));
        assert_eq!(m.vregs[3], V256::splat(3.0));
        assert_eq!(comm.row_out, vec![V256::new([5.0, 6.0, 7.0, 8.0])]);
        assert_eq!(comm.col_out, vec![V256::splat(2.5)]);
    }

    #[test]
    #[should_panic]
    fn misaligned_vector_access_panics() {
        let mut ldm = vec![0.0; 16];
        let prog = [Instr::Vldd {
            d: VReg(0),
            base: IReg(0),
            off: 2,
        }];
        let _ = run(&prog, &mut ldm);
    }

    #[test]
    #[should_panic]
    fn out_of_ldm_access_panics() {
        let mut ldm = vec![0.0; 16];
        let prog = [Instr::Vldd {
            d: VReg(0),
            base: IReg(0),
            off: 16,
        }];
        let _ = run(&prog, &mut ldm);
    }

    #[test]
    fn waw_drains_before_overwrite() {
        // A load followed by vclr of the same register: the clear must
        // wait for the load's write-back.
        let prog = [
            Instr::Vldd {
                d: VReg(0),
                base: IReg(0),
                off: 0,
            },
            Instr::Vclr { d: VReg(0) },
        ];
        let mut ldm = vec![0.0; 16];
        let (r, regs) = run(&prog, &mut ldm);
        assert_eq!(regs[0], V256::ZERO);
        assert_eq!(r.cycles, 5); // vclr at cycle 4
    }

    #[test]
    fn occupancy_statistics() {
        let v = Instr::Vmad {
            a: VReg(0),
            b: VReg(1),
            c: VReg(2),
            d: VReg(2),
        };
        let mut ldm = vec![0.0; 16];
        let (r, _) = run(&[v], &mut ldm);
        assert_eq!(r.vmads, 1);
        assert_eq!(r.flops(), 8);
        assert!((r.vmad_occupancy() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn budget_exhaustion_reports_offending_instr() {
        // r1 = 1; loop forever on bne (r1 never changes).
        let prog = [
            Instr::Setl { d: IReg(1), imm: 1 },
            Instr::Bne {
                s: IReg(1),
                target: 1,
            },
        ];
        let mut ldm = vec![0.0; 16];
        let mut comm = NullComm;
        let mut m = Machine::new(&mut ldm, &mut comm);
        m.set_budget(100);
        let err = m
            .try_run(&prog)
            .expect_err("infinite loop must trip the budget");
        assert_eq!(err.budget, 100);
        assert_eq!(err.executed, 101);
        assert_eq!(err.pc, 1);
        assert_eq!(
            err.instr,
            Instr::Bne {
                s: IReg(1),
                target: 1
            }
        );
        let msg = err.to_string();
        assert!(msg.contains("pc 1"), "{msg}");
        assert!(msg.contains("bne"), "{msg}");
    }

    #[test]
    #[should_panic(expected = "runaway loop")]
    fn budget_exhaustion_panics_in_run() {
        let prog = [
            Instr::Setl { d: IReg(1), imm: 1 },
            Instr::Bne {
                s: IReg(1),
                target: 1,
            },
        ];
        let mut ldm = vec![0.0; 16];
        let mut comm = NullComm;
        let mut m = Machine::new(&mut ldm, &mut comm);
        m.set_budget(10);
        let _ = m.run(&prog);
    }

    #[test]
    fn within_budget_run_succeeds() {
        let prog = [
            Instr::Setl { d: IReg(1), imm: 3 },
            Instr::Addl {
                d: IReg(1),
                s: IReg(1),
                imm: -1,
            },
            Instr::Bne {
                s: IReg(1),
                target: 1,
            },
        ];
        let mut ldm = vec![0.0; 16];
        let mut comm = NullComm;
        let mut m = Machine::new(&mut ldm, &mut comm);
        m.set_budget(7); // exactly the dynamic count
        let r = m.try_run(&prog).expect("exact-budget run must pass");
        assert_eq!(r.instructions, 7);
    }

    #[test]
    fn stall_attribution_raw_chain() {
        // Two dependent vmads: issue at 0 and 6. P0 timeline: issue 2,
        // raw 5 (cycles 1..6), total 7. P1 never issues: 7 conflicts.
        let v = Instr::Vmad {
            a: VReg(0),
            b: VReg(1),
            c: VReg(2),
            d: VReg(2),
        };
        let mut ldm = vec![0.0; 64];
        let mut comm = NullComm;
        let mut m = Machine::new(&mut ldm, &mut comm);
        let (r, s) = m.run_probed(&[v, v]);
        assert_eq!(r.cycles, 7);
        s.check().unwrap();
        assert_eq!(s.pipes[0].issue, 2);
        assert_eq!(s.pipes[0].raw, 5);
        assert_eq!(s.pipes[0].load_use, 0);
        assert_eq!(s.pipes[1].issue, 0);
        assert_eq!(s.pipes[1].pipe_conflict, 7);
    }

    #[test]
    fn stall_attribution_load_use() {
        // Load at 0, dependent vmad at 4: P0 sees 4 load-use cycles.
        let prog = [
            Instr::Vldd {
                d: VReg(0),
                base: IReg(0),
                off: 0,
            },
            Instr::Vmad {
                a: VReg(0),
                b: VReg(1),
                c: VReg(2),
                d: VReg(2),
            },
        ];
        let mut ldm = vec![0.0; 64];
        let mut comm = NullComm;
        let mut m = Machine::new(&mut ldm, &mut comm);
        let (r, s) = m.run_probed(&prog);
        assert_eq!(r.cycles, 5);
        s.check().unwrap();
        assert_eq!(s.pipes[0].issue, 1);
        assert_eq!(s.pipes[0].load_use, 4);
        assert_eq!(s.pipes[0].raw, 0);
        assert_eq!(s.pipes[1].issue, 1);
        assert_eq!(s.pipes[1].pipe_conflict, 4);
    }

    #[test]
    fn stall_attribution_loop_overhead() {
        // r1 = 2; loop { r1 -= 1; bne } — one taken branch, so each
        // pipe carries one BRANCH_TAKEN_PENALTY refill window.
        let prog = [
            Instr::Setl { d: IReg(1), imm: 2 },
            Instr::Addl {
                d: IReg(1),
                s: IReg(1),
                imm: -1,
            },
            Instr::Bne {
                s: IReg(1),
                target: 1,
            },
        ];
        let mut ldm = vec![0.0; 16];
        let mut comm = NullComm;
        let mut m = Machine::new(&mut ldm, &mut comm);
        let (r, s) = m.run_probed(&prog);
        assert_eq!(r.taken_branches, 1);
        s.check().unwrap();
        assert_eq!(s.pipes[0].loop_overhead, BRANCH_TAKEN_PENALTY);
        assert_eq!(s.pipes[1].loop_overhead, BRANCH_TAKEN_PENALTY);
        assert_eq!(s.pipes[0].issue, 0);
        assert_eq!(s.pipes[1].issue, r.instructions);
    }

    #[test]
    fn stall_attribution_trailing_taken_branch_clamped() {
        // The final dynamic instruction is a taken branch (target ==
        // prog.len()): its refill window outlives the run and must be
        // clamped, keeping the attribution sum exact.
        let prog = [
            Instr::Setl { d: IReg(1), imm: 1 },
            Instr::Bne {
                s: IReg(1),
                target: 2,
            },
        ];
        let mut ldm = vec![0.0; 16];
        let mut comm = NullComm;
        let mut m = Machine::new(&mut ldm, &mut comm);
        let (r, s) = m.run_probed(&prog);
        assert_eq!(r.taken_branches, 1);
        s.check().unwrap();
        assert_eq!(s.cycles, r.cycles);
    }

    #[test]
    fn stall_attribution_empty_program() {
        let mut ldm = vec![0.0; 16];
        let mut comm = NullComm;
        let mut m = Machine::new(&mut ldm, &mut comm);
        let (r, s) = m.run_probed(&[]);
        assert_eq!(r.cycles, 0);
        s.check().unwrap();
        assert_eq!(s.stall_cycles(), 0);
    }

    #[test]
    fn probed_and_unprobed_reports_agree() {
        use crate::kernels::{gen_block_kernel, BlockKernelCfg, KernelStyle, Operand};
        let cfg = BlockKernelCfg {
            pm: 16,
            pn: 8,
            pk: 24,
            a_src: Operand::Ldm,
            b_src: Operand::Ldm,
            a_base: 0,
            b_base: 4096,
            c_base: 6144,
            alpha_addr: 8000,
        };
        for style in [KernelStyle::Naive, KernelStyle::Scheduled] {
            let prog = gen_block_kernel(&cfg, style);
            let mk_ldm = || {
                (0..sw_arch::consts::LDM_DOUBLES)
                    .map(|i| (i % 89) as f64 * 0.5 - 7.0)
                    .collect::<Vec<f64>>()
            };
            let mut ldm_a = mk_ldm();
            let mut comm_a = NullComm;
            let plain = Machine::new(&mut ldm_a, &mut comm_a).run(&prog);
            let mut ldm_b = mk_ldm();
            let mut comm_b = NullComm;
            let (probed, stall) = Machine::new(&mut ldm_b, &mut comm_b).run_probed(&prog);
            assert_eq!(plain, probed, "probing changed the report for {style:?}");
            assert_eq!(ldm_a, ldm_b, "probing changed the numerics for {style:?}");
            stall.check().unwrap();
        }
    }

    #[test]
    fn scheduled_kernel_stalls_less_than_naive() {
        // The §IV-C claim the stall table quantifies: scheduling the
        // same work strictly reduces stall cycles.
        use crate::kernels::{gen_block_kernel, BlockKernelCfg, KernelStyle, Operand};
        let cfg = BlockKernelCfg {
            pm: 16,
            pn: 8,
            pk: 24,
            a_src: Operand::Ldm,
            b_src: Operand::Ldm,
            a_base: 0,
            b_base: 4096,
            c_base: 6144,
            alpha_addr: 8000,
        };
        let mut stalls = Vec::new();
        for style in [KernelStyle::Naive, KernelStyle::Scheduled] {
            let prog = gen_block_kernel(&cfg, style);
            let mut ldm = vec![0.0; sw_arch::consts::LDM_DOUBLES];
            let mut comm = NullComm;
            let (_, s) = Machine::new(&mut ldm, &mut comm).run_probed(&prog);
            s.check().unwrap();
            stalls.push(s.stall_cycles());
        }
        assert!(
            stalls[1] < stalls[0],
            "scheduled {} !< naive {}",
            stalls[1],
            stalls[0]
        );
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;
    use crate::comm::NullComm;
    use crate::instr::Instr;
    use crate::regs::{IReg, VReg};
    use sw_arch::V256;

    fn run(prog: &[Instr], ldm: &mut [f64]) -> ExecReport {
        let mut comm = NullComm;
        Machine::new(ldm, &mut comm).run(prog)
    }

    #[test]
    fn same_cycle_war_reads_old_value() {
        // vmad reads v0 in the same cycle a paired load overwrites it
        // (the Algorithm 3 idiom): the vmad must see the old value.
        let mut ldm = vec![0.0; 64];
        ldm[0..4].copy_from_slice(&[9.0, 9.0, 9.0, 9.0]);
        let prog = [
            // v0 = 1.0 (splat from ldm[8]), v1 = 2.0, v2 = 0.
            Instr::Ldde {
                d: VReg(0),
                base: IReg(0),
                off: 8,
            },
            Instr::Ldde {
                d: VReg(1),
                base: IReg(0),
                off: 9,
            },
            Instr::Vclr { d: VReg(2) },
            Instr::Nop,
            Instr::Nop,
            // Pair: vmad v2 = v0*v1 + v2 ; reload v0 from ldm[0..4].
            Instr::Vmad {
                a: VReg(0),
                b: VReg(1),
                c: VReg(2),
                d: VReg(2),
            },
            Instr::Vldd {
                d: VReg(0),
                base: IReg(0),
                off: 0,
            },
        ];
        ldm[8] = 1.0;
        ldm[9] = 2.0;
        let mut comm = NullComm;
        let mut m = Machine::new(&mut ldm, &mut comm);
        let r = m.run(&prog);
        // vmad used the old v0 (= 1.0): v2 = 2.0 per lane.
        assert_eq!(m.vregs[2], V256::splat(2.0));
        // And the load did land afterwards.
        assert_eq!(m.vregs[0], V256::splat(9.0));
        assert!(r.dual_issue_cycles >= 1);
    }

    #[test]
    fn untaken_branch_costs_no_bubble() {
        let prog = [
            Instr::Setl { d: IReg(1), imm: 0 },
            Instr::Bne {
                s: IReg(1),
                target: 0,
            }, // never taken
            Instr::Nop,
        ];
        let mut ldm = vec![0.0; 16];
        let r = run(&prog, &mut ldm);
        assert_eq!(r.taken_branches, 0);
        assert_eq!(r.instructions, 3);
        // setl@0, bne@1 (needs r1 ready at 1), nop@2 (bne and nop are
        // both P1) — and crucially no refill bubble beyond that.
        assert!(r.cycles <= 3, "{}", r.cycles);
    }

    #[test]
    fn two_p1_ops_cannot_share_a_cycle() {
        let prog = [
            Instr::Vclr { d: VReg(0) },
            Instr::Vclr { d: VReg(1) },
            Instr::Vclr { d: VReg(2) },
        ];
        let mut ldm = vec![0.0; 16];
        let r = run(&prog, &mut ldm);
        assert_eq!(r.cycles, 3);
        assert_eq!(r.dual_issue_cycles, 0);
    }

    #[test]
    fn store_then_load_sees_the_value() {
        let mut ldm = vec![0.0; 32];
        ldm[0..4].copy_from_slice(&[4.0, 3.0, 2.0, 1.0]);
        let prog = [
            Instr::Vldd {
                d: VReg(0),
                base: IReg(0),
                off: 0,
            },
            Instr::Vstd {
                s: VReg(0),
                base: IReg(0),
                off: 16,
            },
            Instr::Vldd {
                d: VReg(1),
                base: IReg(0),
                off: 16,
            },
        ];
        let mut comm = NullComm;
        let mut m = Machine::new(&mut ldm, &mut comm);
        m.run(&prog);
        assert_eq!(m.vregs[1], V256::new([4.0, 3.0, 2.0, 1.0]));
    }

    #[test]
    fn empty_program_is_zero_cycles() {
        let mut ldm = vec![0.0; 16];
        let r = run(&[], &mut ldm);
        assert_eq!(r.cycles, 0);
        assert_eq!(r.instructions, 0);
        assert_eq!(r.vmad_occupancy(), 0.0);
    }

    #[test]
    fn integer_register_dependencies_respected() {
        // addl chain: each depends on the previous (latency 1).
        let prog = [
            Instr::Setl { d: IReg(1), imm: 5 },
            Instr::Addl {
                d: IReg(1),
                s: IReg(1),
                imm: 5,
            },
            Instr::Addl {
                d: IReg(2),
                s: IReg(1),
                imm: 1,
            },
        ];
        let mut ldm = vec![0.0; 16];
        let mut comm = NullComm;
        let mut m = Machine::new(&mut ldm, &mut comm);
        let r = m.run(&prog);
        assert_eq!(m.iregs[1], 10);
        assert_eq!(m.iregs[2], 11);
        assert_eq!(r.cycles, 3); // serial on P1 with 1-cycle latencies
    }

    #[test]
    fn vmad_occupancy_zero_cycle_report_is_zero() {
        // Empty and budget-aborted runs produce cycles == 0; occupancy
        // must be 0.0, never NaN.
        let r = ExecReport::default();
        assert_eq!(r.vmad_occupancy(), 0.0);
        let r = ExecReport {
            vmads: 5,
            ..Default::default()
        };
        assert!(!r.vmad_occupancy().is_nan());
        assert_eq!(r.vmad_occupancy(), 0.0);
    }
}
