//! Abstract interpretation of one instruction stream over the integer
//! register file.
//!
//! Integer registers hold either a known constant (`Some`) or ⊤
//! (`None`). The executor zeroes integer registers at kernel entry, so
//! the default entry state is all-zeros and every `Setl`/`Addl` chain
//! stays concrete; ⊤ only enters through an explicit caller-provided
//! entry state (used by tests and by defensive analysis of foreign
//! streams).
//!
//! Loops are not unrolled instruction by instruction: at a taken
//! backward `Bne` whose body is *simple* — straight-line, counter and
//! pointers advanced only by self-`Addl` — the interpreter derives the
//! per-iteration affine deltas and applies all remaining iterations in
//! closed form (the "per-iteration summary" of the looped generators).
//! Access ranges, alignment residues, communication word counts, and
//! the final register state are all exact under acceleration; the
//! equivalence with plain iteration is pinned by tests.

use crate::diag::{codes, Diagnostic, Severity, Span};
use sw_isa::regs::IREG_COUNT;
use sw_isa::{IReg, Instr, Net};

/// Default dynamic-instruction budget. Generated kernels finish in at
/// most a few thousand abstract steps thanks to acceleration; the
/// budget only guards hand-written streams whose loops resist
/// summarization.
pub const DEFAULT_BUDGET: u64 = 2_000_000;

/// Analysis knobs.
#[derive(Debug, Clone, Copy)]
pub struct AbsintOptions {
    /// Entry values of the integer registers (`None` = unknown). The
    /// executor zeroes them, so the default is all `Some(0)`.
    pub entry_regs: [Option<i64>; IREG_COUNT],
    /// Dynamic-instruction budget before the analysis gives up.
    pub budget: u64,
    /// Whether to apply closed-form loop summaries (disable only to
    /// cross-check acceleration against plain iteration in tests).
    pub accelerate: bool,
}

impl Default for AbsintOptions {
    fn default() -> Self {
        AbsintOptions {
            entry_regs: [Some(0); IREG_COUNT],
            budget: DEFAULT_BUDGET,
            accelerate: true,
        }
    }
}

/// Register-communication words a stream moves, per network
/// (index 0 = row, 1 = column).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CommCounts {
    /// Words broadcast (`Vldr` / `Lddec`).
    pub sent: [u64; 2],
    /// Words received (`Getr` / `Getc`).
    pub recv: [u64; 2],
}

/// Index of a network in [`CommCounts`] arrays.
pub fn net_idx(net: Net) -> usize {
    match net {
        Net::Row => 0,
        Net::Col => 1,
    }
}

/// Everything the interpreter learned about one static memory
/// instruction (one `pc`), folded over all its dynamic executions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessSummary {
    /// Instruction index.
    pub pc: usize,
    /// True for stores (`Vstd`).
    pub is_write: bool,
    /// True for 4-double vector accesses (`Vldd`/`Vstd`/`Vldr`),
    /// false for scalar (`Ldde`/`Lddec`).
    pub is_vector: bool,
    /// Lowest start address observed (doubles).
    pub lo: i64,
    /// Highest start address observed (doubles).
    pub hi: i64,
    /// Doubles touched per execution (4 or 1).
    pub width: i64,
    /// True if any vector execution hit an address ≢ 0 (mod 4).
    pub misaligned: bool,
    /// Dynamic execution count (saturating).
    pub count: u64,
    /// Address of the most recent execution (drives acceleration).
    last: i64,
}

/// The per-stream analysis result.
#[derive(Debug, Clone, Default)]
pub struct StreamSummary {
    /// Mesh traffic the stream performs.
    pub comm: CommCounts,
    /// Per-instruction access ranges, in `pc` order.
    pub accesses: Vec<AccessSummary>,
    /// `pc`s of accesses whose base register was unknown.
    pub unknown_addrs: Vec<usize>,
    /// Dynamic instructions interpreted (accelerated iterations count).
    pub executed: u64,
    /// True when the stream was followed to termination with every
    /// branch resolved — the summary is then exact, not a prefix.
    pub exact: bool,
    /// Findings made during interpretation (runaway loops, budget,
    /// unresolved branches).
    pub diags: Vec<Diagnostic>,
}

/// `(base, offset, is_write, is_vector)` of a memory instruction.
fn access_of(i: &Instr) -> Option<(IReg, i64, bool, bool)> {
    match *i {
        Instr::Vldd { base, off, .. } => Some((base, off, false, true)),
        Instr::Vstd { base, off, .. } => Some((base, off, true, true)),
        Instr::Ldde { base, off, .. } => Some((base, off, false, false)),
        Instr::Vldr { base, off, .. } => Some((base, off, false, true)),
        Instr::Lddec { base, off, .. } => Some((base, off, false, false)),
        _ => None,
    }
}

fn ireg_ok(r: IReg) -> bool {
    (r.0 as usize) < IREG_COUNT
}

/// What the loop summarizer decided about a taken backward branch.
enum Accel {
    /// Body too complex — iterate it plainly.
    Bail,
    /// Counter provably never reaches zero.
    Runaway,
    /// `iters` further iterations run, then the branch falls through.
    Finite { iters: u64 },
}

/// Per-register net delta of one loop-body iteration, or `None` when
/// the body is not simple (inner branch, `Setl`, non-self `Addl`, or
/// an out-of-range integer register).
pub(crate) fn loop_deltas(prog: &[Instr], head: usize, back: usize) -> Option<[i64; IREG_COUNT]> {
    let mut deltas = [0i64; IREG_COUNT];
    for (pc, i) in prog[head..=back].iter().enumerate() {
        match *i {
            Instr::Bne { .. } if head + pc != back => return None,
            Instr::Setl { .. } => return None,
            Instr::Addl { d, s, imm } => {
                if d != s || !ireg_ok(d) {
                    return None;
                }
                deltas[d.idx()] = deltas[d.idx()].checked_add(imm)?;
            }
            _ => {}
        }
    }
    Some(deltas)
}

fn clamp_i128(x: i128) -> i64 {
    x.clamp(i64::MIN as i128, i64::MAX as i128) as i64
}

/// Interprets `prog` and folds what it does into a [`StreamSummary`].
pub fn interpret(prog: &[Instr], opts: &AbsintOptions) -> StreamSummary {
    let len = prog.len();
    let mut sum = StreamSummary {
        exact: true,
        ..Default::default()
    };
    // pc → index into sum.accesses.
    let mut slot: Vec<Option<usize>> = vec![None; len];
    // pc → address of the most recent execution of that access.
    let mut regs = opts.entry_regs;
    let mut pc = 0usize;

    let record = |sum: &mut StreamSummary,
                  slot: &mut Vec<Option<usize>>,
                  pc: usize,
                  addr: i64,
                  is_write: bool,
                  is_vector: bool| {
        let idx = *slot[pc].get_or_insert_with(|| {
            sum.accesses.push(AccessSummary {
                pc,
                is_write,
                is_vector,
                lo: addr,
                hi: addr,
                width: if is_vector { 4 } else { 1 },
                misaligned: false,
                count: 0,
                last: addr,
            });
            sum.accesses.len() - 1
        });
        let a = &mut sum.accesses[idx];
        a.lo = a.lo.min(addr);
        a.hi = a.hi.max(addr);
        a.count = a.count.saturating_add(1);
        a.last = addr;
        if is_vector && addr.rem_euclid(4) != 0 {
            a.misaligned = true;
        }
    };

    while pc < len {
        if sum.executed >= opts.budget {
            sum.diags.push(
                Diagnostic::new(
                    Severity::Warning,
                    codes::ANALYSIS_BUDGET,
                    format!(
                        "abstract interpretation stopped after {} instructions; \
                         the summary covers only a prefix of the stream",
                        sum.executed
                    ),
                )
                .with_span(Span::at(pc)),
            );
            sum.exact = false;
            return sum;
        }
        sum.executed += 1;
        let instr = prog[pc];

        match instr {
            Instr::Vldr { net, .. } | Instr::Lddec { net, .. } => {
                sum.comm.sent[net_idx(net)] = sum.comm.sent[net_idx(net)].saturating_add(1);
            }
            Instr::Getr { .. } => sum.comm.recv[0] = sum.comm.recv[0].saturating_add(1),
            Instr::Getc { .. } => sum.comm.recv[1] = sum.comm.recv[1].saturating_add(1),
            _ => {}
        }

        if let Some((base, off, w, v)) = access_of(&instr) {
            match regs.get(base.0 as usize).copied().flatten() {
                Some(b) => record(&mut sum, &mut slot, pc, b.saturating_add(off), w, v),
                None => {
                    if !sum.unknown_addrs.contains(&pc) {
                        sum.unknown_addrs.push(pc);
                    }
                }
            }
        }

        match instr {
            Instr::Setl { d, imm } if ireg_ok(d) => regs[d.idx()] = Some(imm),
            Instr::Addl { d, s, imm } if ireg_ok(d) => {
                regs[d.idx()] = regs
                    .get(s.0 as usize)
                    .copied()
                    .flatten()
                    .map(|x| x.saturating_add(imm));
            }
            Instr::Bne { s, target } => {
                let v = regs.get(s.0 as usize).copied().flatten();
                match v {
                    None => {
                        sum.diags.push(
                            Diagnostic::new(
                                Severity::Warning,
                                codes::UNRESOLVED_BRANCH,
                                format!(
                                    "`{instr}` branches on r{} whose value is unknown; \
                                     the summary covers only a prefix of the stream",
                                    s.0
                                ),
                            )
                            .with_span(Span::at(pc)),
                        );
                        sum.exact = false;
                        return sum;
                    }
                    Some(0) => {
                        pc += 1;
                        continue;
                    }
                    Some(cur) => {
                        // Taken. Try the closed-form summary for simple
                        // backward self-loops.
                        let accel = if opts.accelerate && target <= pc && ireg_ok(s) {
                            match loop_deltas(prog, target, pc) {
                                None => Accel::Bail,
                                Some(deltas) => {
                                    let d = deltas[s.idx()];
                                    let bases_known = prog[target..=pc].iter().all(|i| {
                                        access_of(i).is_none_or(|(b, ..)| {
                                            regs.get(b.0 as usize).copied().flatten().is_some()
                                        })
                                    });
                                    if !bases_known {
                                        Accel::Bail
                                    } else if d == 0 || cur % d != 0 || -(cur / d) <= 0 {
                                        // Counter stuck, stepping away
                                        // from zero, or stepping over it:
                                        // `bne` compares for exact zero,
                                        // so the loop never exits.
                                        Accel::Runaway
                                    } else {
                                        Accel::Finite {
                                            iters: (-(cur / d)) as u64,
                                        }
                                    }
                                }
                            }
                        } else {
                            Accel::Bail
                        };
                        match accel {
                            Accel::Bail => {
                                if target >= len {
                                    return sum; // structural pass flags the target
                                }
                                pc = target;
                                continue;
                            }
                            Accel::Runaway => {
                                sum.diags.push(
                                    Diagnostic::new(
                                        Severity::Error,
                                        codes::RUNAWAY_LOOP,
                                        format!(
                                            "loop at {}..={pc} never terminates: counter r{} \
                                             (value {cur}) steps by {} per iteration and never \
                                             reaches zero",
                                            target,
                                            s.0,
                                            loop_deltas(prog, target, pc)
                                                .map(|d| d[s.idx()])
                                                .unwrap_or(0),
                                        ),
                                    )
                                    .with_span(Span::range(target, pc)),
                                );
                                sum.exact = false;
                                return sum;
                            }
                            Accel::Finite { iters } => {
                                let deltas = loop_deltas(prog, target, pc)
                                    .expect("deltas re-derivable for accelerated loop");
                                let r = iters as i128;
                                for (pc2, i2) in prog[target..=pc].iter().enumerate() {
                                    let pc2 = target + pc2;
                                    match *i2 {
                                        Instr::Vldr { net, .. } | Instr::Lddec { net, .. } => {
                                            let n = net_idx(net);
                                            sum.comm.sent[n] =
                                                sum.comm.sent[n].saturating_add(iters);
                                        }
                                        Instr::Getr { .. } => {
                                            sum.comm.recv[0] =
                                                sum.comm.recv[0].saturating_add(iters)
                                        }
                                        Instr::Getc { .. } => {
                                            sum.comm.recv[1] =
                                                sum.comm.recv[1].saturating_add(iters)
                                        }
                                        _ => {}
                                    }
                                    if let Some((b, _, _, is_vec)) = access_of(i2) {
                                        let sd = deltas[b.idx()] as i128;
                                        let idx = slot[pc2]
                                            .expect("accelerated access executed this iteration");
                                        let a = &mut sum.accesses[idx];
                                        let a0 = a.last as i128;
                                        let first = clamp_i128(a0 + sd);
                                        let end = clamp_i128(a0 + r * sd);
                                        a.lo = a.lo.min(first).min(end);
                                        a.hi = a.hi.max(first).max(end);
                                        if is_vec && sd.rem_euclid(4) != 0 {
                                            // Stride not 0 mod 4: four
                                            // consecutive iterations cover
                                            // every residue that occurs.
                                            for i in 1..=iters.min(4) as i128 {
                                                if (a0 + i * sd).rem_euclid(4) != 0 {
                                                    a.misaligned = true;
                                                }
                                            }
                                        }
                                        a.count = a.count.saturating_add(iters);
                                        a.last = end;
                                    }
                                }
                                for (ri, d) in deltas.iter().enumerate() {
                                    if *d != 0 {
                                        regs[ri] = regs[ri]
                                            .map(|x| clamp_i128(x as i128 + r * *d as i128));
                                    }
                                }
                                debug_assert_eq!(regs[s.idx()], Some(0));
                                let body = (pc - target + 1) as u64;
                                sum.executed =
                                    sum.executed.saturating_add(iters.saturating_mul(body));
                                pc += 1;
                                continue;
                            }
                        }
                    }
                }
            }
            _ => {}
        }
        pc += 1;
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;
    use sw_isa::kernels::{gen_block_kernel, BlockKernelCfg, KernelStyle, Operand};
    use sw_isa::{gen_block_kernel_looped, VReg};

    fn cfg(a_src: Operand, b_src: Operand) -> BlockKernelCfg {
        BlockKernelCfg {
            pm: 16,
            pn: 8,
            pk: 16,
            a_src,
            b_src,
            a_base: 0,
            b_base: 2048,
            c_base: 4096,
            alpha_addr: 8000,
        }
    }

    /// Strips acceleration-independent fields for comparison.
    fn key(s: &StreamSummary) -> (CommCounts, Vec<AccessSummary>, bool) {
        (s.comm, s.accesses.clone(), s.exact)
    }

    #[test]
    fn acceleration_matches_plain_iteration() {
        for style in [KernelStyle::Naive, KernelStyle::Scheduled] {
            for unroll in [1usize, 2, 4] {
                let c = cfg(Operand::LdmBcast(Net::Row), Operand::Recv(Net::Col));
                let prog = gen_block_kernel_looped(&c, style, unroll);
                let fast = interpret(&prog, &AbsintOptions::default());
                let slow = interpret(
                    &prog,
                    &AbsintOptions {
                        accelerate: false,
                        ..Default::default()
                    },
                );
                assert!(fast.exact && slow.exact);
                assert_eq!(key(&fast), key(&slow), "style {style:?} unroll {unroll}");
                assert_eq!(fast.executed, slow.executed);
            }
        }
    }

    #[test]
    fn looped_and_unrolled_agree_on_ranges_and_comm() {
        let c = cfg(Operand::Recv(Net::Row), Operand::LdmBcast(Net::Col));
        let unrolled = interpret(
            &gen_block_kernel(&c, KernelStyle::Naive),
            &AbsintOptions::default(),
        );
        let looped = interpret(
            &gen_block_kernel_looped(&c, KernelStyle::Naive, 1),
            &AbsintOptions::default(),
        );
        assert_eq!(unrolled.comm, looped.comm);
        // Same footprint: fold per-pc ranges into per-stream extremes.
        let fold = |s: &StreamSummary| {
            let lo = s.accesses.iter().map(|a| a.lo).min().unwrap();
            let hi = s.accesses.iter().map(|a| a.hi + a.width).max().unwrap();
            (lo, hi)
        };
        assert_eq!(fold(&unrolled), fold(&looped));
    }

    #[test]
    fn comm_counts_match_the_collective_scheme() {
        // A broadcast on the row net: (pn/4)·pk·4 words; B on the
        // column net: (pn/4)·pk·4 splatted scalars.
        let c = cfg(Operand::LdmBcast(Net::Row), Operand::LdmBcast(Net::Col));
        let s = interpret(
            &gen_block_kernel_looped(&c, KernelStyle::Naive, 1),
            &AbsintOptions::default(),
        );
        assert!(s.exact);
        assert_eq!(s.comm.sent, [2 * 16 * 4, 2 * 16 * 4]);
        assert_eq!(s.comm.recv, [0, 0]);
        let r = interpret(
            &gen_block_kernel_looped(
                &cfg(Operand::Recv(Net::Row), Operand::Recv(Net::Col)),
                KernelStyle::Naive,
                1,
            ),
            &AbsintOptions::default(),
        );
        assert_eq!(r.comm.recv, [2 * 16 * 4, 2 * 16 * 4]);
        assert_eq!(r.comm.sent, [0, 0]);
    }

    #[test]
    fn runaway_loop_detected() {
        // Counter steps by −2 from 3: hits 1 then −1, never 0.
        let prog = vec![
            Instr::Setl { d: IReg(1), imm: 3 },
            Instr::Addl {
                d: IReg(1),
                s: IReg(1),
                imm: -2,
            },
            Instr::Bne {
                s: IReg(1),
                target: 1,
            },
        ];
        let s = interpret(&prog, &AbsintOptions::default());
        assert!(!s.exact);
        assert!(s.diags.iter().any(|d| d.code == codes::RUNAWAY_LOOP));
    }

    #[test]
    fn counter_stepping_away_from_zero_is_runaway() {
        let prog = vec![
            Instr::Setl { d: IReg(1), imm: 1 },
            Instr::Addl {
                d: IReg(1),
                s: IReg(1),
                imm: 1,
            },
            Instr::Bne {
                s: IReg(1),
                target: 1,
            },
        ];
        let s = interpret(&prog, &AbsintOptions::default());
        assert!(s.diags.iter().any(|d| d.code == codes::RUNAWAY_LOOP));
    }

    #[test]
    fn unknown_branch_counter_yields_prefix() {
        let mut opts = AbsintOptions::default();
        opts.entry_regs[1] = None;
        let prog = vec![
            Instr::Vclr { d: VReg(0) },
            Instr::Bne {
                s: IReg(1),
                target: 0,
            },
            Instr::Vclr { d: VReg(1) },
        ];
        let s = interpret(&prog, &opts);
        assert!(!s.exact);
        assert!(s.diags.iter().any(|d| d.code == codes::UNRESOLVED_BRANCH));
        assert_eq!(s.executed, 2);
    }

    #[test]
    fn unknown_base_is_reported_not_crashed() {
        let mut opts = AbsintOptions::default();
        opts.entry_regs[0] = None;
        let prog = vec![Instr::Vldd {
            d: VReg(0),
            base: IReg(0),
            off: 8,
        }];
        let s = interpret(&prog, &opts);
        assert_eq!(s.unknown_addrs, vec![0]);
        assert!(s.accesses.is_empty());
        assert!(s.exact);
    }

    #[test]
    fn misaligned_stride_caught_by_residue_scan() {
        // Vector load striding by 2: every other iteration misaligned.
        let prog = vec![
            Instr::Setl { d: IReg(0), imm: 0 },
            Instr::Setl { d: IReg(1), imm: 8 },
            Instr::Vldd {
                d: VReg(0),
                base: IReg(0),
                off: 0,
            },
            Instr::Addl {
                d: IReg(0),
                s: IReg(0),
                imm: 2,
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
        let s = interpret(&prog, &AbsintOptions::default());
        assert!(s.exact);
        let a = &s.accesses[0];
        assert!(a.misaligned);
        assert_eq!(a.count, 8);
        assert_eq!((a.lo, a.hi), (0, 14));
    }

    #[test]
    fn budget_stop_is_a_warning_prefix() {
        let prog = vec![
            Instr::Setl {
                d: IReg(1),
                imm: 100,
            },
            Instr::Nop,
            Instr::Vclr { d: VReg(0) }, // breaks loop simplicity? no — no ireg write
            Instr::Setl { d: IReg(2), imm: 7 }, // Setl inside body forces Bail
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
        let s = interpret(
            &prog,
            &AbsintOptions {
                budget: 50,
                ..Default::default()
            },
        );
        assert!(!s.exact);
        assert!(s.diags.iter().any(|d| d.code == codes::ANALYSIS_BUDGET));
    }
}
