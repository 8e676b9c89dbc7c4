//! Static stall prover: a pipeline dataflow pass that reproduces the
//! executor's dual-issue in-order timing — scoreboard, pipe slots,
//! branch refill, and the per-pipe stall attribution — over *abstract*
//! integer registers, with no LDM, no mesh, and no floating point.
//!
//! The executor's timing is data-independent except through `Bne`, and
//! `Bne` counters are driven purely by `Setl`/`Addl` chains. So:
//!
//! * when every branch resolves (every generated kernel), the prover
//!   walks the exact dynamic path and its [`StallReport`] equals
//!   `Machine::run_probed`'s **field for field** — [`Bound::Exact`];
//! * when a branch counter is unknown or the budget trips, the prover
//!   stops after a *prefix* of the dynamic instruction sequence and
//!   returns the attribution accumulated so far, without the final
//!   tail attribution — every bucket is then ≤ its dynamic value
//!   (the dynamic run issues a superset of the prefix's instructions
//!   and only ever *adds* to buckets) — [`Bound::LowerBound`].
//!
//! Both claims are pinned by the cross-validation tests in
//! `tests/stall_crosscheck.rs`.
//!
//! Counted loops are not walked trip by trip once their pipeline state
//! repeats: the remaining trips are added in closed form
//! (`Walk::summarize`), with the plain walk's result bit for bit.

use crate::absint::loop_deltas;
use sw_arch::consts::VREG_COUNT;
use sw_isa::instr::{Pipe, BRANCH_TAKEN_PENALTY};
use sw_isa::regs::IREG_COUNT;
use sw_isa::{IReg, Instr, PipeBreakdown, StallKind, StallReport};

/// Result latency that marks a producer as load-class (LDM loads and
/// register-communication receives); mirrors the executor's constant.
const LOAD_LATENCY: u64 = 4;

/// Default dynamic-instruction budget for the prover.
pub const DEFAULT_STALL_BUDGET: u64 = 20_000_000;

/// How tight the proven report is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bound {
    /// Every branch resolved; the report equals the dynamic one.
    Exact,
    /// Analysis stopped on an unresolved branch or the budget; every
    /// bucket is a lower bound on the dynamic value.
    LowerBound,
}

/// The prover's output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StaticStalls {
    /// Per-pipe attribution. For [`Bound::Exact`] this satisfies
    /// [`StallReport::check`]; for a lower bound the buckets cover only
    /// the attributed prefix and need not sum to `cycles`.
    pub report: StallReport,
    /// Whether the report is exact or a prefix lower bound.
    pub bound: Bound,
    /// Dynamic instructions the proof covers, summarized loop trips
    /// included: the executor's `ExecReport::instructions` for an
    /// exact proof, the length of the proven prefix for a lower bound.
    pub instructions: u64,
}

/// Mirror of the executor's incremental stall attribution (the
/// original lives privately in `sw_isa::machine`; the equality tests
/// keep the two from drifting).
#[derive(Debug)]
struct Attribution {
    report: StallReport,
    attributed: [u64; 2],
    refill_snap: [u64; 2],
    refill_cum: u64,
    refill_last_end: u64,
    vload: [bool; VREG_COUNT],
}

impl Default for Attribution {
    fn default() -> Self {
        Attribution {
            report: StallReport::default(),
            attributed: [0; 2],
            refill_snap: [0; 2],
            refill_cum: 0,
            refill_last_end: 0,
            vload: [false; VREG_COUNT],
        }
    }
}

#[inline]
fn consider(best: &mut (u64, bool), ready: u64, is_load: bool) {
    if ready > best.0 {
        *best = (ready, is_load);
    } else if ready == best.0 && is_load {
        best.1 = true;
    }
}

impl Attribution {
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

    #[inline]
    fn on_taken_branch(&mut self, t: u64) {
        self.refill_cum += BRANCH_TAKEN_PENALTY;
        self.refill_last_end = t + 1 + BRANCH_TAKEN_PENALTY;
    }

    fn finish(&mut self, cycles: u64) -> StallReport {
        self.report.cycles = cycles;
        for p in 0..2 {
            let tail = cycles - self.attributed[p];
            let pending = self.refill_cum - self.refill_snap[p];
            let overshoot = self.refill_last_end.saturating_sub(cycles);
            let refill = pending.saturating_sub(overshoot).min(tail);
            let b = &mut self.report.pipes[p];
            b.add(StallKind::LoopOverhead, refill);
            b.add(StallKind::PipeConflict, tail - refill);
        }
        self.report
    }
}

/// A scalar schedule-quality summary derived from a proven report —
/// what a ranking pass (the block-size autotuner's stage 2) needs from
/// the prover without executing anything.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StallScore {
    /// Proven cycles — exact, or a lower bound (see `bound`).
    pub cycles: u64,
    /// Fraction of dual-issue slots filled: `issued / (2·cycles)`.
    pub utilization: f64,
    /// P0 (floating-point pipe) occupancy: `pipes[0].issue / cycles` —
    /// the fraction of cycles the FMA pipe is fed.
    pub p0_occupancy: f64,
    /// Tightness of the proof. A [`Bound::LowerBound`] makes `cycles`
    /// optimistic and the occupancies correspondingly inflated.
    pub bound: Bound,
    /// Dynamic instructions the proof covers, summarized loop trips
    /// included (see [`StaticStalls::instructions`]).
    pub instructions: u64,
}

/// Scores a kernel stream for ranking: proves the stall report and
/// collapses it to cycles plus issue-slot utilization. Exact for every
/// generated kernel (all branches resolve); a lower bound when the
/// `budget` trips first.
pub fn score_stalls_budgeted(prog: &[Instr], budget: u64) -> StallScore {
    let s = prove_stalls_budgeted(prog, budget, [Some(0); IREG_COUNT]);
    let denom = s.report.cycles.max(1) as f64;
    StallScore {
        cycles: s.report.cycles,
        utilization: s.report.issue_cycles() as f64 / (2.0 * denom),
        p0_occupancy: s.report.pipes[0].issue as f64 / denom,
        bound: s.bound,
        instructions: s.instructions,
    }
}

/// [`score_stalls_budgeted`] with the default budget.
pub fn score_stalls(prog: &[Instr]) -> StallScore {
    score_stalls_budgeted(prog, DEFAULT_STALL_BUDGET)
}

/// Proves a stall report for `prog` with the default budget and the
/// executor's zeroed entry registers.
pub fn prove_stalls(prog: &[Instr]) -> StaticStalls {
    prove_stalls_budgeted(prog, DEFAULT_STALL_BUDGET, [Some(0); IREG_COUNT])
}

/// Proves a stall report with an explicit budget and entry state.
///
/// Counted loops are summarized, not walked trip by trip: see
/// `Walk::summarize`. The result is the plain walk's, bit for bit.
pub fn prove_stalls_budgeted(
    prog: &[Instr],
    budget: u64,
    entry_regs: [Option<i64>; IREG_COUNT],
) -> StaticStalls {
    prove::<true>(prog, budget, entry_regs)
}

/// The prover's machine state: the executor's scoreboard, issue slots
/// and attribution, over abstract integer registers.
struct Walk {
    probe: Attribution,
    vready: [u64; VREG_COUNT],
    iready: [u64; IREG_COUNT],
    regs: [Option<i64>; IREG_COUNT],
    cur: u64,
    used: [bool; 2],
    last_issue: u64,
    instructions: u64,
}

/// The pipeline state at a loop head, with every cycle stamp taken
/// relative to `cur`. Readiness at or before `cur` is clamped to 0:
/// such a source can never bind an issue in the trip ahead (every
/// instruction of the trip starts at `cur0 >= cur`, so its hazard is 0
/// whatever it is tied with).
#[derive(PartialEq)]
struct Normalized {
    vready: [u64; VREG_COUNT],
    iready: [u64; IREG_COUNT],
    vload: [bool; VREG_COUNT],
    attributed: [u64; 2],
    pending_refill: [u64; 2],
    refill_last_end: u64,
    last_issue: u64,
}

/// One arrival at a loop head through a taken backward branch.
struct Arrival {
    back: usize,
    state: Normalized,
    cur: u64,
    report: StallReport,
    refill_cum: u64,
    instructions: u64,
}

impl Walk {
    /// Issues `instr` at its earliest legal cycle, attributes the gap
    /// behind it and updates the scoreboard; returns the issue cycle.
    fn issue(&mut self, instr: Instr) -> u64 {
        self.instructions += 1;
        let cur0 = self.cur;
        let mut t = self.cur;
        let mut ready = (0u64, false);
        for r in instr.vsrcs() {
            let rt = self.vready[r.idx()];
            t = t.max(rt);
            consider(&mut ready, rt, self.probe.vload[r.idx()]);
        }
        for r in instr.isrcs() {
            let rt = self.iready[r.idx()];
            t = t.max(rt);
            consider(&mut ready, rt, false);
        }
        if let Some(d) = instr.vdst() {
            let rt = self.vready[d.idx()];
            t = t.max(rt);
            consider(&mut ready, rt, self.probe.vload[d.idx()]);
        }
        if let Some(d) = instr.idst() {
            let rt = self.iready[d.idx()];
            t = t.max(rt);
            consider(&mut ready, rt, false);
        }
        let pipe = instr.pipe() as usize;
        loop {
            if t > self.cur {
                self.cur = t;
                self.used = [false; 2];
            }
            if !self.used[pipe] {
                self.used[pipe] = true;
                break;
            }
            t += 1;
        }
        self.last_issue = self.last_issue.max(t);
        self.probe.on_issue(instr.pipe(), t, cur0, ready);

        if let Some(d) = instr.vdst() {
            self.vready[d.idx()] = t + instr.latency();
            self.probe.vload[d.idx()] = instr.latency() == LOAD_LATENCY;
        }
        if let Some(d) = instr.idst() {
            self.iready[d.idx()] = t + instr.latency();
        }
        t
    }

    /// A branch issued at `t` was taken: refill bubble, empty slots.
    fn take_branch(&mut self, t: u64) {
        self.cur = t + 1 + BRANCH_TAKEN_PENALTY;
        self.used = [false; 2];
        self.probe.on_taken_branch(t);
    }

    fn arrival(&self, back: usize) -> Arrival {
        let cur = self.cur;
        let p = &self.probe;
        Arrival {
            back,
            state: Normalized {
                vready: self.vready.map(|r| r.saturating_sub(cur)),
                iready: self.iready.map(|r| r.saturating_sub(cur)),
                vload: p.vload,
                attributed: p.attributed.map(|a| cur.wrapping_sub(a)),
                pending_refill: p.refill_snap.map(|s| p.refill_cum - s),
                refill_last_end: cur.wrapping_sub(p.refill_last_end),
                last_issue: cur.wrapping_sub(self.last_issue),
            },
            cur,
            report: p.report,
            refill_cum: p.refill_cum,
            instructions: self.instructions,
        }
    }

    /// Loop summary at the back edge `prog[back]` (target `head`,
    /// counter `s`), just taken, whose previous trip ran from arrival
    /// `prev` to `now`.
    ///
    /// The two arrivals have equal normalized states, and the walk of a
    /// trip depends on nothing else while its branch is taken. So every
    /// further trip adds what the last one did to `cur` (and to every
    /// cycle stamp), to each report bucket, to `refill_cum`, to
    /// `instructions` and to each known integer register. When the
    /// body is simple and the counter reaches 0 after `T` more trips,
    /// this skips `T − 1` of them in one step and leaves the last to
    /// the plain walk. The skip is capped so the budget still stops
    /// the walk on the same dynamic instruction.
    fn summarize(
        &mut self,
        prog: &[Instr],
        head: usize,
        s: IReg,
        budget: u64,
        prev: &Arrival,
        now: &Arrival,
    ) {
        let back = now.back;
        let Some(deltas) = loop_deltas(prog, head, back) else {
            return;
        };
        let (Some(v), step) = (self.regs[s.idx()], deltas[s.idx()]) else {
            return;
        };
        let (v, step) = (v as i128, step as i128);
        // `bne` tests for exact zero: a counter that is stuck, steps
        // away from zero or steps over it never exits (runaway).
        if step == 0 || v % step != 0 || v / step >= 0 {
            return;
        }
        let body = &prog[head..=back];
        let body_len = body.len() as u64;
        let trips = ((-(v / step)) as u64 - 1).min((budget - self.instructions) / body_len);
        // Registers must not saturate in the skipped trips; a register
        // strays at most `trips · Σ|imm|` from where it is now.
        let reach: i128 = body
            .iter()
            .map(|i| match *i {
                Instr::Addl { imm, .. } => (imm as i128).abs(),
                _ => 0,
            })
            .sum();
        let span = trips as i128 * reach;
        let in_i64 = |x: i128| (i64::MIN as i128..=i64::MAX as i128).contains(&x);
        let fits = self
            .regs
            .iter()
            .flatten()
            .all(|&x| in_i64(x as i128 - span) && in_i64(x as i128 + span));
        if trips == 0 || !fits {
            return;
        }

        let shift = trips * (now.cur - prev.cur);
        self.cur += shift;
        self.last_issue += shift;
        for r in self.vready.iter_mut().chain(self.iready.iter_mut()) {
            *r += shift;
        }
        let p = &mut self.probe;
        let refill = trips * (now.refill_cum - prev.refill_cum);
        p.refill_cum += refill;
        p.refill_last_end += shift;
        for i in 0..2 {
            p.attributed[i] += shift;
            p.refill_snap[i] += refill;
            let (a, b) = (now.report.pipes[i], prev.report.pipes[i]);
            p.report.pipes[i] += PipeBreakdown {
                issue: trips * (a.issue - b.issue),
                raw: trips * (a.raw - b.raw),
                load_use: trips * (a.load_use - b.load_use),
                pipe_conflict: trips * (a.pipe_conflict - b.pipe_conflict),
                loop_overhead: trips * (a.loop_overhead - b.loop_overhead),
            };
        }
        self.instructions += trips * body_len;
        for (r, d) in self.regs.iter_mut().zip(deltas) {
            *r = r.map(|x| x + trips as i64 * d);
        }
    }
}

/// The prover's walk. `SUMMARIZE = false` walks every loop trip by
/// trip; the unit tests hold the summarized walk to it.
fn prove<const SUMMARIZE: bool>(
    prog: &[Instr],
    budget: u64,
    entry_regs: [Option<i64>; IREG_COUNT],
) -> StaticStalls {
    let mut w = Walk {
        probe: Attribution::default(),
        vready: [0; VREG_COUNT],
        iready: [0; IREG_COUNT],
        regs: entry_regs,
        cur: 0,
        used: [false; 2],
        last_issue: 0,
        instructions: 0,
    };
    let mut last: Option<Arrival> = None;
    let mut pc = 0usize;
    let mut bound = Bound::Exact;

    // Any out-of-range register makes the stream unrunnable; the
    // structural pass reports it — here we just refuse to walk.
    let regs_ok = |i: &Instr| {
        i.vsrcs().into_iter().all(|r| (r.0 as usize) < VREG_COUNT)
            && i.vdst().is_none_or(|d| (d.0 as usize) < VREG_COUNT)
            && i.isrcs().into_iter().all(|r| (r.0 as usize) < IREG_COUNT)
            && i.idst().is_none_or(|d| (d.0 as usize) < IREG_COUNT)
    };

    while pc < prog.len() {
        let instr = prog[pc];
        if w.instructions >= budget || !regs_ok(&instr) {
            bound = Bound::LowerBound;
            break;
        }
        let t = w.issue(instr);
        let mut next_pc = pc + 1;
        match instr {
            Instr::Addl { d, s, imm } => {
                w.regs[d.idx()] = w.regs[s.idx()].map(|x| x.saturating_add(imm));
            }
            Instr::Setl { d, imm } => {
                w.regs[d.idx()] = Some(imm);
            }
            Instr::Bne { s, target } => match w.regs[s.idx()] {
                None => {
                    // The branch itself issued (its timing is part of
                    // both outcomes) but the successor is unknown.
                    bound = Bound::LowerBound;
                    break;
                }
                Some(0) => {}
                Some(_) => {
                    next_pc = target;
                    w.take_branch(t);
                    if SUMMARIZE && target <= pc {
                        let now = w.arrival(pc);
                        // Consecutive arrivals through this back edge
                        // are one straight trip of the body apart.
                        if let Some(prev) = last.as_ref().filter(|a| {
                            a.back == pc
                                && a.instructions + (pc - target + 1) as u64 == now.instructions
                                && a.state == now.state
                        }) {
                            w.summarize(prog, target, s, budget, prev, &now);
                        }
                        last = Some(now);
                    }
                }
            },
            _ => {}
        }
        pc = next_pc;
    }

    let cycles = if w.instructions == 0 {
        0
    } else {
        w.last_issue + 1
    };
    let report = match bound {
        Bound::Exact => w.probe.finish(cycles),
        Bound::LowerBound => {
            // Prefix attribution only: no tail, so each bucket is a
            // lower bound on the dynamic run's.
            let mut r = w.probe.report;
            r.cycles = cycles;
            r
        }
    };
    StaticStalls {
        report,
        bound,
        instructions: w.instructions,
    }
}

/// Per-kind lower-bound comparison: every bucket of `lo` ≤ the same
/// bucket of `hi`, and `lo.cycles` ≤ `hi.cycles`.
pub fn report_le(lo: &StallReport, hi: &StallReport) -> bool {
    let pipe_le = |a: &PipeBreakdown, b: &PipeBreakdown| {
        a.issue <= b.issue && StallKind::ALL.iter().all(|&k| a.get(k) <= b.get(k))
    };
    pipe_le(&lo.pipes[0], &hi.pipes[0])
        && pipe_le(&lo.pipes[1], &hi.pipes[1])
        && lo.cycles <= hi.cycles
}

#[cfg(test)]
mod tests {
    use super::*;
    use sw_arch::consts::LDM_DOUBLES;
    use sw_isa::{IReg, Machine, SinkComm, VReg};

    fn dynamic(prog: &[Instr]) -> StallReport {
        let mut ldm = vec![0.0f64; LDM_DOUBLES];
        let mut comm = SinkComm;
        Machine::new(&mut ldm, &mut comm).run_probed(prog).1
    }

    #[test]
    fn branch_free_stream_is_exact() {
        let prog = vec![
            Instr::Setl { d: IReg(0), imm: 0 },
            Instr::Vldd {
                d: VReg(0),
                base: IReg(0),
                off: 0,
            },
            Instr::Vmad {
                a: VReg(0),
                b: VReg(0),
                c: VReg(16),
                d: VReg(16),
            },
            Instr::Vstd {
                s: VReg(16),
                base: IReg(0),
                off: 0,
            },
        ];
        let s = prove_stalls(&prog);
        assert_eq!(s.bound, Bound::Exact);
        assert_eq!(s.report, dynamic(&prog));
        assert!(s.report.check().is_ok());
    }

    #[test]
    fn resolved_loop_is_exact() {
        let prog = vec![
            Instr::Setl { d: IReg(0), imm: 0 },
            Instr::Setl { d: IReg(1), imm: 5 },
            Instr::Vldd {
                d: VReg(0),
                base: IReg(0),
                off: 0,
            },
            Instr::Vmad {
                a: VReg(0),
                b: VReg(0),
                c: VReg(16),
                d: VReg(16),
            },
            Instr::Addl {
                d: IReg(1),
                s: IReg(1),
                imm: -1,
            },
            Instr::Bne {
                s: IReg(1),
                target: 2,
            },
        ];
        let s = prove_stalls(&prog);
        assert_eq!(s.bound, Bound::Exact);
        assert_eq!(s.report, dynamic(&prog));
    }

    #[test]
    fn unknown_counter_gives_prefix_lower_bound() {
        let mut entry = [Some(0i64); IREG_COUNT];
        entry[1] = None;
        let prog = vec![
            Instr::Setl { d: IReg(0), imm: 0 },
            Instr::Vldd {
                d: VReg(0),
                base: IReg(0),
                off: 0,
            },
            Instr::Vmad {
                a: VReg(0),
                b: VReg(0),
                c: VReg(16),
                d: VReg(16),
            },
            Instr::Bne {
                s: IReg(1),
                target: 1,
            },
            Instr::Vstd {
                s: VReg(16),
                base: IReg(0),
                off: 0,
            },
        ];
        let s = prove_stalls_budgeted(&prog, DEFAULT_STALL_BUDGET, entry);
        assert_eq!(s.bound, Bound::LowerBound);
        // Dynamically the machine zeroes r1, so the branch falls
        // through and the full run is a superset of the prefix.
        assert!(report_le(&s.report, &dynamic(&prog)));
    }

    #[test]
    fn budget_stop_is_lower_bound() {
        let prog = vec![
            Instr::Setl {
                d: IReg(1),
                imm: 1000,
            },
            Instr::Vclr { d: VReg(0) },
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
        let s = prove_stalls_budgeted(&prog, 50, [Some(0); IREG_COUNT]);
        assert_eq!(s.bound, Bound::LowerBound);
        assert_eq!(s.instructions, 50);
        assert!(report_le(&s.report, &dynamic(&prog)));
    }

    #[test]
    fn empty_stream() {
        let s = prove_stalls(&[]);
        assert_eq!(s.bound, Bound::Exact);
        assert_eq!(s.report.cycles, 0);
        assert!(s.report.check().is_ok());
    }

    #[test]
    fn score_matches_proof_and_is_bounded() {
        let prog = vec![
            Instr::Setl { d: IReg(1), imm: 8 },
            Instr::Vclr { d: VReg(0) },
            Instr::Vclr { d: VReg(1) },
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
        let proof = prove_stalls(&prog);
        let score = score_stalls(&prog);
        assert_eq!(score.cycles, proof.report.cycles);
        assert_eq!(score.bound, Bound::Exact);
        assert_eq!(score.instructions, proof.instructions);
        assert!(score.utilization > 0.0 && score.utilization <= 1.0);
        assert!(score.p0_occupancy >= 0.0 && score.p0_occupancy <= 1.0);
    }

    /// Proves `prog` both ways and requires the summarized walk to
    /// equal the plain one: report, bound and instruction count.
    fn summarized(prog: &[Instr], budget: u64, entry: [Option<i64>; IREG_COUNT]) -> StaticStalls {
        let fast = prove::<true>(prog, budget, entry);
        let plain = prove::<false>(prog, budget, entry);
        assert_eq!(fast, plain, "summarized != plain walk at budget {budget}");
        fast
    }

    /// `r1 = trips; loop { body; r1 -= 1; bne r1 }`.
    fn counted(trips: i64, body: &[Instr]) -> Vec<Instr> {
        let mut prog = vec![Instr::Setl {
            d: IReg(1),
            imm: trips,
        }];
        prog.extend_from_slice(body);
        prog.push(Instr::Addl {
            d: IReg(1),
            s: IReg(1),
            imm: -1,
        });
        prog.push(Instr::Bne {
            s: IReg(1),
            target: 1,
        });
        prog
    }

    fn vmad(d: u8) -> Instr {
        Instr::Vmad {
            a: VReg(0),
            b: VReg(1),
            c: VReg(d),
            d: VReg(d),
        }
    }

    #[test]
    fn summaries_equal_the_plain_walk_on_looped_kernels_at_every_budget() {
        use sw_isa::kernels::{BlockKernelCfg, KernelStyle, Operand};
        let cfg = BlockKernelCfg {
            pm: 16,
            pn: 8,
            pk: 64,
            a_src: Operand::Ldm,
            b_src: Operand::Ldm,
            a_base: 0,
            b_base: 1024,
            c_base: 1536,
            alpha_addr: 1664,
        };
        for style in [KernelStyle::Naive, KernelStyle::Scheduled] {
            for unroll in [1, 4] {
                let prog = sw_isa::gen_block_kernel_looped(&cfg, style, unroll);
                let full = summarized(&prog, DEFAULT_STALL_BUDGET, [Some(0); IREG_COUNT]);
                assert_eq!(full.bound, Bound::Exact);
                assert_eq!(full.report, dynamic(&prog));
                // Budgets that stop the walk inside, at the edges of
                // and after summarized loops.
                for budget in (0..=full.instructions + 1).step_by(37) {
                    summarized(&prog, budget, [Some(0); IREG_COUNT]);
                }
            }
        }
    }

    #[test]
    fn a_long_loop_is_summarized_exactly() {
        let body = [vmad(16), vmad(17), Instr::Vclr { d: VReg(2) }];
        let plain = |trips| prove::<false>(&counted(trips, &body), u64::MAX, [Some(0); IREG_COUNT]);
        let (a, b) = (plain(1000), plain(1001));
        let trips = 1_000_000_000;
        let s = prove_stalls_budgeted(&counted(trips, &body), u64::MAX, [Some(0); IREG_COUNT]);
        assert_eq!(s.bound, Bound::Exact);
        assert!(s.report.check().is_ok());
        let extra = (trips - 1000) as u64;
        assert_eq!(
            s.instructions,
            a.instructions + extra * (b.instructions - a.instructions)
        );
        assert_eq!(
            s.report.cycles,
            a.report.cycles + extra * (b.report.cycles - a.report.cycles)
        );
    }

    #[test]
    fn a_runaway_counter_stops_at_the_budget_both_ways() {
        // 7 steps by -2 past zero: `bne` never falls through.
        let mut prog = counted(7, &[vmad(16)]);
        prog[2] = Instr::Addl {
            d: IReg(1),
            s: IReg(1),
            imm: -2,
        };
        for budget in [1000, 1001, 1002, 5000] {
            let s = summarized(&prog, budget, [Some(0); IREG_COUNT]);
            assert_eq!(s.bound, Bound::LowerBound);
            assert_eq!(s.instructions, budget);
        }
    }

    #[test]
    fn unknown_registers_fall_back_or_stay_unknown() {
        // Unknown counter: the walk stops at the first branch.
        let mut entry = [Some(0i64); IREG_COUNT];
        entry[3] = None;
        let mut prog = counted(50, &[vmad(16)]);
        prog[3] = Instr::Bne {
            s: IReg(3),
            target: 1,
        };
        let s = summarized(&prog, DEFAULT_STALL_BUDGET, entry);
        assert_eq!(s.bound, Bound::LowerBound);
        // A known counter next to an unknown pointer still summarizes;
        // the pointer stays unknown.
        let prog = counted(
            50,
            &[
                vmad(16),
                Instr::Addl {
                    d: IReg(3),
                    s: IReg(3),
                    imm: 4,
                },
            ],
        );
        assert_eq!(
            summarized(&prog, DEFAULT_STALL_BUDGET, entry).bound,
            Bound::Exact
        );
    }

    #[test]
    fn bodies_that_are_not_simple_bail() {
        let addl = |d, s, imm| Instr::Addl {
            d: IReg(d),
            s: IReg(s),
            imm,
        };
        // `r2 = r4 + 1; r4 = r2 + 1` are not self-updates: r4 grows by
        // 2 a trip. A second loop counts r4 down, so a summary that
        // skipped those updates would time it wrong.
        let mut copy = counted(40, &[vmad(16), addl(2, 4, 1), addl(4, 2, 1)]);
        copy.extend([
            vmad(17),
            addl(4, 4, -1),
            Instr::Bne {
                s: IReg(4),
                target: 6,
            },
        ]);
        // An inner branch to the next instruction: every trip runs the
        // same instructions, but the fifth pays no refill bubble.
        let inner = vec![
            Instr::Setl {
                d: IReg(1),
                imm: 40,
            },
            Instr::Setl { d: IReg(2), imm: 5 },
            vmad(16),
            addl(2, 2, -1),
            Instr::Bne {
                s: IReg(2),
                target: 5,
            },
            vmad(16),
            addl(1, 1, -1),
            Instr::Bne {
                s: IReg(1),
                target: 2,
            },
        ];
        for prog in [copy, inner] {
            let s = summarized(&prog, DEFAULT_STALL_BUDGET, [Some(0); IREG_COUNT]);
            assert_eq!(s.bound, Bound::Exact);
            assert_eq!(s.report, dynamic(&prog));
        }
    }

    #[test]
    fn a_pipe_whose_lag_grows_never_becomes_steady() {
        // P0 never issues in the body: its unattributed gap and pending
        // refill grow every trip, so no two arrivals match.
        let prog = counted(300, &[Instr::Vclr { d: VReg(0) }, Instr::Nop]);
        let s = summarized(&prog, DEFAULT_STALL_BUDGET, [Some(0); IREG_COUNT]);
        assert_eq!(s.bound, Bound::Exact);
        assert_eq!(s.report, dynamic(&prog));
        for budget in [10, 301, 902] {
            summarized(&prog, budget, [Some(0); IREG_COUNT]);
        }
    }

    #[test]
    fn score_of_empty_stream_does_not_divide_by_zero() {
        let s = score_stalls(&[]);
        assert_eq!(s.cycles, 0);
        assert_eq!(s.utilization, 0.0);
        assert_eq!(s.p0_occupancy, 0.0);
    }
}
