//! The seed revision's CPE interpreter, kept as an independent oracle
//! for `Machine`: per-instruction `Vec` source-register queries, no
//! stall attribution, and `SinkComm` semantics (broadcasts are sunk,
//! receives return zero).
//!
//! One copy serves two users: the root property tests
//! (`tests/properties.rs`) check the engine's registers, LDM image and
//! `ExecReport` against it, and `engine_bench` times the engine against
//! it. Both include this file by path.

use sw_arch::consts::VREG_COUNT;
use sw_arch::V256;
use sw_isa::{ExecReport, IReg, Instr, VReg};

const IREG_COUNT: usize = 8;
const BRANCH_TAKEN_PENALTY: u64 = 2;

fn vsrcs(i: &Instr) -> Vec<VReg> {
    match *i {
        Instr::Vmad { a, b, c, .. } => vec![a, b, c],
        Instr::Vstd { s, .. } => vec![s],
        _ => vec![],
    }
}

fn isrcs(i: &Instr) -> Vec<IReg> {
    match *i {
        Instr::Vldd { base, .. }
        | Instr::Vstd { base, .. }
        | Instr::Ldde { base, .. }
        | Instr::Vldr { base, .. }
        | Instr::Lddec { base, .. } => vec![base],
        Instr::Addl { s, .. } | Instr::Bne { s, .. } => vec![s],
        _ => vec![],
    }
}

/// Runs `prog` from zeroed registers over `ldm`, returning the report
/// and the final vector and integer register files.
pub fn run(prog: &[Instr], ldm: &mut [f64]) -> (ExecReport, [V256; VREG_COUNT], [i64; IREG_COUNT]) {
    let mut vregs = [V256::ZERO; VREG_COUNT];
    let mut iregs = [0i64; IREG_COUNT];
    let mut report = ExecReport::default();
    let mut vready = [0u64; VREG_COUNT];
    let mut iready = [0u64; IREG_COUNT];
    let mut cur: u64 = 0;
    let mut p0_used = false;
    let mut p1_used = false;
    let mut last_issue: u64 = 0;
    let mut pc = 0usize;

    let addr = |iregs: &[i64; IREG_COUNT], base: IReg, off: i64| -> usize {
        let a = iregs[base.idx()] + off;
        assert!(a >= 0);
        a as usize
    };

    while pc < prog.len() {
        let instr = prog[pc];
        report.instructions += 1;
        assert!(report.instructions <= 200_000_000, "runaway loop");

        let mut t = cur;
        for r in vsrcs(&instr) {
            t = t.max(vready[r.idx()]);
        }
        for r in isrcs(&instr) {
            t = t.max(iready[r.idx()]);
        }
        if let Some(d) = instr.vdst() {
            t = t.max(vready[d.idx()]);
        }
        if let Some(d) = instr.idst() {
            t = t.max(iready[d.idx()]);
        }
        loop {
            if t > cur {
                cur = t;
                p0_used = false;
                p1_used = false;
            }
            let used = match instr.pipe() {
                sw_isa::instr::Pipe::P0 => &mut p0_used,
                sw_isa::instr::Pipe::P1 => &mut p1_used,
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

        if let Some(d) = instr.vdst() {
            vready[d.idx()] = t + instr.latency();
        }
        if let Some(d) = instr.idst() {
            iready[d.idx()] = t + instr.latency();
        }
        let mut next_pc = pc + 1;
        match instr {
            Instr::Vmad { a, b, c, d } => {
                report.vmads += 1;
                vregs[d.idx()] = vregs[a.idx()].fma(vregs[b.idx()], vregs[c.idx()]);
            }
            Instr::Vldd { d, base, off } => {
                let a = addr(&iregs, base, off);
                vregs[d.idx()] = V256::load(&ldm[a..]);
            }
            Instr::Vstd { s, base, off } => {
                let a = addr(&iregs, base, off);
                vregs[s.idx()].store(&mut ldm[a..a + 4]);
            }
            Instr::Ldde { d, base, off } => {
                let a = addr(&iregs, base, off);
                vregs[d.idx()] = V256::splat(ldm[a]);
            }
            Instr::Vldr { d, base, off, .. } => {
                let a = addr(&iregs, base, off);
                vregs[d.idx()] = V256::load(&ldm[a..]);
            }
            Instr::Lddec { d, base, off, .. } => {
                let a = addr(&iregs, base, off);
                vregs[d.idx()] = V256::splat(ldm[a]);
            }
            Instr::Getr { d } | Instr::Getc { d } => {
                vregs[d.idx()] = V256::ZERO;
            }
            Instr::Vclr { d } => {
                vregs[d.idx()] = V256::ZERO;
            }
            Instr::Addl { d, s, imm } => {
                iregs[d.idx()] = iregs[s.idx()] + imm;
            }
            Instr::Setl { d, imm } => {
                iregs[d.idx()] = imm;
            }
            Instr::Bne { s, target } => {
                if iregs[s.idx()] != 0 {
                    report.taken_branches += 1;
                    next_pc = target;
                    cur = t + 1 + BRANCH_TAKEN_PENALTY;
                    p0_used = false;
                    p1_used = false;
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
    (report, vregs, iregs)
}
