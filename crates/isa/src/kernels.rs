//! Programmatic generators for the register-blocked DGEMM micro-kernel.
//!
//! The register-level blocking of §III-C.3 uses rM = rN = 4: four vector
//! registers of A (16 rows), four splatted B scalars (4 columns), and 16
//! accumulators — a 16×4 C tile updated along the full `pK` depth. A
//! thread-level block multiplication executes this tile kernel
//! `(pM/16)·(pN/4)` times and folds `α` into the LDM-resident C block in
//! a per-tile epilogue (`C_ldm[i][j] += α · acc[i][j]`).
//!
//! Two code shapes are generated from the same arithmetic:
//!
//! * [`KernelStyle::Naive`] — loads placed next to their uses, no
//!   software pipelining: the shape a straightforward compiler emits.
//!   On the dual-issue in-order pipeline it costs ≈34 cycles per
//!   k-iteration (load-use stalls dominate).
//! * [`KernelStyle::Scheduled`] — the hand schedule of Algorithm 3
//!   (§IV-C): every k-iteration is exactly 16 dual-issue pairs; the
//!   A3/B3 words of the *current* iteration load in pairs 1–2, the
//!   A0–A2/B0–B2 words of the *next* iteration load right after their
//!   last use, and `nop`s hold the issue pattern in place. Steady state
//!   is 16 cycles per k-iteration with zero stalls.
//!
//! The ≈2.1× ratio between the two — measured by the executor, not
//! assumed — is what reproduces the paper's 113.9 % SCHED-over-DB gain.
//!
//! Operand sourcing mirrors the collective data sharing scheme
//! (§III-B): each of A and B is either loaded locally, loaded *and
//! broadcast* (`vldr`/`lddec`), or received from the mesh
//! (`getr`/`getc`), according to the CPE's role in the current strip
//! step.

// Register arrays are index-coupled to the instruction encoding; indexed
// loops are clearer than iterator chains here.
#![allow(clippy::needless_range_loop)]

use crate::instr::{Instr, Net};
use crate::regs::{IReg, VReg};

/// Where a kernel operand comes from in the current strip step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Operand {
    /// Plain local LDM loads (no communication).
    Ldm,
    /// Local LDM loads broadcast to the given network, local copy kept
    /// (`vldr` / `lddec`) — the broadcaster roles of §III-B.
    LdmBcast(Net),
    /// Received from the given network (`getr` / `getc`).
    Recv(Net),
}

impl Operand {
    /// True when this operand never touches the mesh.
    pub fn is_local(&self) -> bool {
        matches!(self, Operand::Ldm)
    }
}

/// Code shape to generate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelStyle {
    /// Loads next to uses, no pipelining.
    Naive,
    /// Algorithm 3: software-pipelined dual-issue pairs.
    Scheduled,
}

/// Configuration of one thread-level block multiplication
/// `C (pm×pn) += α · A (pm×pk) · B (pk×pn)`, all panels column-major in
/// this CPE's LDM at absolute double offsets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockKernelCfg {
    /// Block rows; multiple of 16 (one register tile covers 16 rows).
    pub pm: usize,
    /// Block columns; multiple of 4.
    pub pn: usize,
    /// Depth.
    pub pk: usize,
    /// How A words are obtained.
    pub a_src: Operand,
    /// How B scalars are obtained.
    pub b_src: Operand,
    /// LDM offset of the A panel (ignored when `a_src` is `Recv`).
    pub a_base: usize,
    /// LDM offset of the B panel (ignored when `b_src` is `Recv`).
    pub b_base: usize,
    /// LDM offset of the C block.
    pub c_base: usize,
    /// LDM offset of the scalar α.
    pub alpha_addr: usize,
}

// Register allocation (32 vector registers, §III-C.3: rM·rN + rM + rN < 32):
// v0..v3   rA[0..4]     — 16 rows of the current A column
// v4..v7   rB[0..4]     — 4 splatted B scalars
// v8       α (splatted)
// v9..v12  epilogue temporaries
// v16..v31 rC[i][j] = v16 + 4*i + j
const RA: [VReg; 4] = [VReg(0), VReg(1), VReg(2), VReg(3)];
const RB: [VReg; 4] = [VReg(4), VReg(5), VReg(6), VReg(7)];
const VALPHA: VReg = VReg(8);
const TMP: [VReg; 4] = [VReg(9), VReg(10), VReg(11), VReg(12)];
/// Permanently-zero register: the first k-iteration of each tile uses it
/// as the addend, which zero-initializes the accumulators without 16
/// `vclr`s per tile.
const VZERO: VReg = VReg(13);
#[inline]
fn rc(i: usize, j: usize) -> VReg {
    VReg((16 + 4 * i + j) as u8)
}

/// Base register; the generators emit fully unrolled streams with
/// absolute offsets, so a single zeroed base register suffices.
const BASE: IReg = IReg(0);
/// Scratch integer registers for the pointer-update `addl`s Algorithm 3
/// carries in its pair schedule.
const SCRATCH: [IReg; 2] = [IReg(6), IReg(7)];

/// The `vmad` issue order of Algorithm 3: `(a index, b index)` pairs.
/// `rC` index is `4a + b`.
const SCHED_VMAD_ORDER: [(usize, usize); 16] = [
    (0, 0),
    (0, 1),
    (1, 0),
    (1, 1),
    (0, 2),
    (2, 0),
    (0, 3),
    (3, 0),
    (1, 2),
    (1, 3),
    (2, 1),
    (3, 1),
    (2, 2),
    (2, 3),
    (3, 2),
    (3, 3),
];

/// P1 companion of each pair in the Algorithm 3 schedule.
#[derive(Clone, Copy)]
enum P1Slot {
    /// Load A word `i` of the *current* k.
    ACur(usize),
    /// Load B scalar `j` of the *current* k.
    BCur(usize),
    /// Load A word `i` of the *next* k.
    ANext(usize),
    /// Load B scalar `j` of the *next* k.
    BNext(usize),
    /// Pointer-update `addl` (scratch register `idx`).
    Addl(usize),
    /// Hold the pattern.
    Nop,
}

/// Algorithm 3's P1 schedule, pair by pair.
const SCHED_P1_ORDER: [P1Slot; 16] = [
    P1Slot::ACur(3),
    P1Slot::BCur(3),
    P1Slot::Addl(0),
    P1Slot::Addl(1),
    P1Slot::Nop,
    P1Slot::Nop,
    P1Slot::ANext(0),
    P1Slot::Nop,
    P1Slot::BNext(0),
    P1Slot::ANext(1),
    P1Slot::Nop,
    P1Slot::BNext(1),
    P1Slot::Nop,
    P1Slot::ANext(2),
    P1Slot::BNext(2),
    P1Slot::Nop,
];

impl BlockKernelCfg {
    /// Validates the shape constraints the generators assume.
    pub fn validate(&self) -> Result<(), String> {
        if self.pm == 0 || !self.pm.is_multiple_of(16) {
            return Err(format!(
                "pm = {} must be a positive multiple of 16",
                self.pm
            ));
        }
        if self.pn == 0 || !self.pn.is_multiple_of(4) {
            return Err(format!("pn = {} must be a positive multiple of 4", self.pn));
        }
        if self.pk < 2 {
            return Err(format!("pk = {} must be at least 2", self.pk));
        }
        if self.pm != 16 && (!self.a_src.is_local() || !self.b_src.is_local()) {
            return Err(
                "communication operands require pm = 16 (one register tile of rows, \
                        matching the 8x8 strip decomposition)"
                    .into(),
            );
        }
        if !self.a_base.is_multiple_of(4) || !self.c_base.is_multiple_of(4) {
            return Err("A and C panels must be 256-bit aligned in LDM".into());
        }
        Ok(())
    }

    /// Absolute LDM offset of A word `i` (rows `r0+4i..r0+4i+4`) of
    /// column `k`.
    fn a_off(&self, r0: usize, k: usize, i: usize) -> i64 {
        (self.a_base + k * self.pm + r0 + 4 * i) as i64
    }

    /// Absolute LDM offset of B element `(k, j0 + j)`.
    fn b_off(&self, k: usize, j0: usize, j: usize) -> i64 {
        (self.b_base + (j0 + j) * self.pk + k) as i64
    }

    /// Absolute LDM offset of C element `(r, j0 + j)`.
    fn c_off(&self, r: usize, j0: usize, j: usize) -> i64 {
        (self.c_base + (j0 + j) * self.pm + r) as i64
    }

    fn load_a(&self, d: VReg, r0: usize, k: usize, i: usize) -> Instr {
        match self.a_src {
            Operand::Ldm => Instr::Vldd {
                d,
                base: BASE,
                off: self.a_off(r0, k, i),
            },
            Operand::LdmBcast(net) => Instr::Vldr {
                d,
                base: BASE,
                off: self.a_off(r0, k, i),
                net,
            },
            Operand::Recv(Net::Row) => Instr::Getr { d },
            Operand::Recv(Net::Col) => Instr::Getc { d },
        }
    }

    fn load_b(&self, d: VReg, k: usize, j0: usize, j: usize) -> Instr {
        match self.b_src {
            Operand::Ldm => Instr::Ldde {
                d,
                base: BASE,
                off: self.b_off(k, j0, j),
            },
            Operand::LdmBcast(net) => Instr::Lddec {
                d,
                base: BASE,
                off: self.b_off(k, j0, j),
                net,
            },
            Operand::Recv(Net::Row) => Instr::Getr { d },
            Operand::Recv(Net::Col) => Instr::Getc { d },
        }
    }
}

/// Generates the full thread-level block multiplication program.
///
/// ```
/// use sw_isa::kernels::{gen_block_kernel, BlockKernelCfg, KernelStyle, Operand};
///
/// let cfg = BlockKernelCfg {
///     pm: 16, pn: 8, pk: 16,
///     a_src: Operand::Ldm, b_src: Operand::Ldm,
///     a_base: 0, b_base: 2048, c_base: 4096, alpha_addr: 8000,
/// };
/// let hand = gen_block_kernel(&cfg, KernelStyle::Scheduled);
/// let vmads = hand.iter().filter(|i| matches!(i, sw_isa::Instr::Vmad { .. })).count();
/// assert_eq!(vmads as u64, sw_isa::kernels::body_vmads(&cfg) + 16 * 2);
/// ```
///
/// Generated streams are verified by the `sw-lint` static analyzer
/// (structural checks, LDM bounds, mesh rendezvous) rather than here.
pub fn gen_block_kernel(cfg: &BlockKernelCfg, style: KernelStyle) -> Vec<Instr> {
    cfg.validate().expect("invalid kernel configuration");
    let mut prog = Vec::new();
    prog.push(Instr::Setl { d: BASE, imm: 0 });
    prog.push(Instr::Ldde {
        d: VALPHA,
        base: BASE,
        off: cfg.alpha_addr as i64,
    });
    prog.push(Instr::Vclr { d: VZERO });
    for r0 in (0..cfg.pm).step_by(16) {
        for j0 in (0..cfg.pn).step_by(4) {
            match style {
                KernelStyle::Naive => gen_tile_naive(cfg, r0, j0, &mut prog),
                KernelStyle::Scheduled => gen_tile_scheduled(cfg, r0, j0, &mut prog),
            }
            gen_tile_epilogue(cfg, r0, j0, &mut prog);
        }
    }
    prog
}

/// Addend register for accumulator `rc(i, j)` at depth `k`: the zero
/// register on the first iteration (accumulator initialization), the
/// accumulator itself afterwards.
#[inline]
fn addend(i: usize, j: usize, k: usize) -> VReg {
    if k == 0 {
        VZERO
    } else {
        rc(i, j)
    }
}

/// Naive tile body: per k, load the 4 A words, then per column load the
/// B scalar and immediately consume it — no pipelining across
/// iterations, the shape unoptimized code takes.
fn gen_tile_naive(cfg: &BlockKernelCfg, r0: usize, j0: usize, prog: &mut Vec<Instr>) {
    for k in 0..cfg.pk {
        for (i, &ra) in RA.iter().enumerate() {
            prog.push(cfg.load_a(ra, r0, k, i));
        }
        // The address updates unoptimized code performs each iteration.
        prog.push(Instr::Addl {
            d: SCRATCH[0],
            s: SCRATCH[0],
            imm: cfg.pm as i64,
        });
        prog.push(Instr::Addl {
            d: SCRATCH[1],
            s: SCRATCH[1],
            imm: 1,
        });
        for j in 0..4 {
            prog.push(cfg.load_b(RB[j], k, j0, j));
            for i in 0..4 {
                prog.push(Instr::Vmad {
                    a: RA[i],
                    b: RB[j],
                    c: addend(i, j, k),
                    d: rc(i, j),
                });
            }
        }
    }
}

/// Scheduled tile body: Algorithm 3. A0–A2/B0–B2 are preloaded; every
/// k-iteration issues 16 (P0, P1) pairs — the 16 `vmad`s in the
/// paper's order against the current-k A3/B3 loads, the next-k
/// A0–A2/B0–B2 loads, two `addl`s and pattern-holding `nop`s.
fn gen_tile_scheduled(cfg: &BlockKernelCfg, r0: usize, j0: usize, prog: &mut Vec<Instr>) {
    // Preload A0..A2 and B0..B2 of k = 0.
    for i in 0..3 {
        prog.push(cfg.load_a(RA[i], r0, 0, i));
    }
    for j in 0..3 {
        prog.push(cfg.load_b(RB[j], 0, j0, j));
    }
    for k in 0..cfg.pk {
        let last = k + 1 == cfg.pk;
        for (pair, &(ai, bj)) in SCHED_VMAD_ORDER.iter().enumerate() {
            prog.push(Instr::Vmad {
                a: RA[ai],
                b: RB[bj],
                c: addend(ai, bj, k),
                d: rc(ai, bj),
            });
            let p1 = match SCHED_P1_ORDER[pair] {
                P1Slot::ACur(i) => cfg.load_a(RA[i], r0, k, i),
                P1Slot::BCur(j) => cfg.load_b(RB[j], k, j0, j),
                // Next-k loads fall off the panel in the final
                // iteration; the pattern holds with nops instead.
                P1Slot::ANext(i) if !last => cfg.load_a(RA[i], r0, k + 1, i),
                P1Slot::BNext(j) if !last => cfg.load_b(RB[j], k + 1, j0, j),
                P1Slot::ANext(_) | P1Slot::BNext(_) => Instr::Nop,
                P1Slot::Addl(s) => Instr::Addl {
                    d: SCRATCH[s],
                    s: SCRATCH[s],
                    imm: 1,
                },
                P1Slot::Nop => Instr::Nop,
            };
            prog.push(p1);
        }
    }
}

/// Tile epilogue: `C_ldm[r, j] += α · acc[r, j]` for the 16×4 tile,
/// four C words in flight.
fn gen_tile_epilogue(cfg: &BlockKernelCfg, r0: usize, j0: usize, prog: &mut Vec<Instr>) {
    for j in 0..4 {
        for i in 0..4 {
            prog.push(Instr::Vldd {
                d: TMP[i],
                base: BASE,
                off: cfg.c_off(r0 + 4 * i, j0, j),
            });
        }
        for i in 0..4 {
            prog.push(Instr::Vmad {
                a: rc(i, j),
                b: VALPHA,
                c: TMP[i],
                d: TMP[i],
            });
        }
        for i in 0..4 {
            prog.push(Instr::Vstd {
                s: TMP[i],
                base: BASE,
                off: cfg.c_off(r0 + 4 * i, j0, j),
            });
        }
    }
}

/// Number of `vmad`s the block kernel performs (excluding the α
/// epilogue): `pm·pn·pk / 4` lanes of FMA work.
pub fn body_vmads(cfg: &BlockKernelCfg) -> u64 {
    (cfg.pm / 16) as u64 * (cfg.pn / 4) as u64 * cfg.pk as u64 * 16
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::{NullComm, ScriptedComm};
    use crate::machine::Machine;

    /// Host reference of the same block update with matching FMA
    /// accumulation order (k ascending per element, one α fold at the
    /// end).
    fn reference(cfg: &BlockKernelCfg, ldm: &[f64], alpha: f64) -> Vec<f64> {
        let mut c: Vec<f64> = ldm[cfg.c_base..cfg.c_base + cfg.pm * cfg.pn].to_vec();
        for j in 0..cfg.pn {
            for r in 0..cfg.pm {
                let mut acc = 0.0f64;
                for k in 0..cfg.pk {
                    let a = ldm[cfg.a_base + k * cfg.pm + r];
                    let b = ldm[cfg.b_base + j * cfg.pk + k];
                    acc = a.mul_add(b, acc);
                }
                let idx = j * cfg.pm + r;
                c[idx] = acc.mul_add(alpha, c[idx]);
            }
        }
        c
    }

    fn fill_ldm(cfg: &BlockKernelCfg, alpha: f64) -> Vec<f64> {
        let mut ldm = vec![0.0; 8192];
        let mut x = 0.37f64;
        let mut next = || {
            x = (x * 997.0 + 0.1234).fract() - 0.5;
            x
        };
        for v in ldm[cfg.a_base..cfg.a_base + cfg.pm * cfg.pk].iter_mut() {
            *v = next();
        }
        for v in ldm[cfg.b_base..cfg.b_base + cfg.pk * cfg.pn].iter_mut() {
            *v = next();
        }
        for v in ldm[cfg.c_base..cfg.c_base + cfg.pm * cfg.pn].iter_mut() {
            *v = next();
        }
        ldm[cfg.alpha_addr] = alpha;
        ldm
    }

    fn local_cfg(pm: usize, pn: usize, pk: usize) -> BlockKernelCfg {
        BlockKernelCfg {
            pm,
            pn,
            pk,
            a_src: Operand::Ldm,
            b_src: Operand::Ldm,
            a_base: 0,
            b_base: 4096,
            c_base: 6144,
            alpha_addr: 8000,
        }
    }

    #[test]
    fn naive_kernel_matches_reference() {
        let cfg = local_cfg(16, 8, 24);
        let alpha = 1.5;
        let mut ldm = fill_ldm(&cfg, alpha);
        let expect = reference(&cfg, &ldm, alpha);
        let prog = gen_block_kernel(&cfg, KernelStyle::Naive);
        let mut comm = NullComm;
        Machine::new(&mut ldm, &mut comm).run(&prog);
        assert_eq!(&ldm[cfg.c_base..cfg.c_base + cfg.pm * cfg.pn], &expect[..]);
    }

    #[test]
    fn scheduled_kernel_matches_reference_bitwise() {
        let cfg = local_cfg(16, 8, 24);
        let alpha = -0.75;
        let mut ldm = fill_ldm(&cfg, alpha);
        let expect = reference(&cfg, &ldm, alpha);
        let prog = gen_block_kernel(&cfg, KernelStyle::Scheduled);
        let mut comm = NullComm;
        Machine::new(&mut ldm, &mut comm).run(&prog);
        assert_eq!(&ldm[cfg.c_base..cfg.c_base + cfg.pm * cfg.pn], &expect[..]);
    }

    #[test]
    fn scheduled_and_naive_agree_bitwise() {
        // Different instruction orders, same per-element FMA order.
        let cfg = local_cfg(32, 12, 16);
        let alpha = 2.25;
        let mut l1 = fill_ldm(&cfg, alpha);
        let mut l2 = l1.clone();
        let mut comm = NullComm;
        Machine::new(&mut l1, &mut comm).run(&gen_block_kernel(&cfg, KernelStyle::Naive));
        Machine::new(&mut l2, &mut comm).run(&gen_block_kernel(&cfg, KernelStyle::Scheduled));
        assert_eq!(l1, l2);
    }

    #[test]
    fn scheduled_steady_state_is_16_cycles_per_k() {
        // The paper's production shape: pm=16, pn=32, pk=96.
        let cfg = local_cfg(16, 32, 96);
        let mut ldm = fill_ldm(&cfg, 1.0);
        let prog = gen_block_kernel(&cfg, KernelStyle::Scheduled);
        let mut comm = NullComm;
        let r = Machine::new(&mut ldm, &mut comm).run(&prog);
        let per_k = r.cycles as f64 / (8.0 * 96.0);
        assert!(
            per_k < 16.8,
            "scheduled kernel should be ~16 cycles per k-iteration, got {per_k:.2}"
        );
        // §IV-C: vmad occupies ~97% of the cycles.
        assert!(
            r.vmad_occupancy() > 0.94,
            "vmad occupancy should be ≥94%, got {:.3}",
            r.vmad_occupancy()
        );
    }

    #[test]
    fn naive_is_roughly_2x_scheduled() {
        let cfg = local_cfg(16, 32, 96);
        let mut l1 = fill_ldm(&cfg, 1.0);
        let mut l2 = l1.clone();
        let mut comm = NullComm;
        let rn = Machine::new(&mut l1, &mut comm).run(&gen_block_kernel(&cfg, KernelStyle::Naive));
        let rs =
            Machine::new(&mut l2, &mut comm).run(&gen_block_kernel(&cfg, KernelStyle::Scheduled));
        let ratio = rn.cycles as f64 / rs.cycles as f64;
        assert!(
            (1.9..2.4).contains(&ratio),
            "naive/scheduled cycle ratio should be ~2.1 (paper: +113.9%), got {ratio:.2}"
        );
    }

    #[test]
    fn paper_loop_cycle_count_reproduced() {
        // §IV-C profiles the whole strip-multiplication loop of one
        // thread-level block (pm=16, pn=32, pk=96, 8 strip steps) at
        // 101,858 cycles with vmad taking 97% of them. One strip step
        // is one block kernel; 8 steps must land near that count.
        let cfg = local_cfg(16, 32, 96);
        let mut ldm = fill_ldm(&cfg, 1.0);
        let mut comm = NullComm;
        let r =
            Machine::new(&mut ldm, &mut comm).run(&gen_block_kernel(&cfg, KernelStyle::Scheduled));
        let eight_steps = 8 * r.cycles;
        assert!(
            (98_000..=108_000).contains(&eight_steps),
            "8 strip steps should take ≈101,858 cycles, got {eight_steps}"
        );
    }

    #[test]
    fn broadcaster_and_receiver_transcripts_compose() {
        // A diagonal CPE broadcasts A (row) and B (col); a plain CPE
        // receives both. Feeding the broadcaster's transcript to the
        // receiver must reproduce the local result exactly.
        let base = local_cfg(16, 8, 16);
        let alpha = 1.0;
        let ldm0 = fill_ldm(&base, alpha);

        // Local reference run.
        let mut l_ref = ldm0.clone();
        let mut comm = NullComm;
        Machine::new(&mut l_ref, &mut comm).run(&gen_block_kernel(&base, KernelStyle::Scheduled));

        // Broadcaster run (keeps local copies, so same numerics).
        let bcfg = BlockKernelCfg {
            a_src: Operand::LdmBcast(Net::Row),
            b_src: Operand::LdmBcast(Net::Col),
            ..base
        };
        let mut l_b = ldm0.clone();
        let mut bcomm = ScriptedComm::default();
        Machine::new(&mut l_b, &mut bcomm).run(&gen_block_kernel(&bcfg, KernelStyle::Scheduled));
        assert_eq!(
            &l_b[base.c_base..base.c_base + base.pm * base.pn],
            &l_ref[base.c_base..base.c_base + base.pm * base.pn]
        );

        // Receiver run fed with the broadcaster's transcript.
        let rcfg = BlockKernelCfg {
            a_src: Operand::Recv(Net::Row),
            b_src: Operand::Recv(Net::Col),
            ..base
        };
        let mut l_r = ldm0.clone();
        // Wipe the receiver's A/B panels: it must not touch them.
        for v in l_r[base.a_base..base.a_base + base.pm * base.pk].iter_mut() {
            *v = f64::NAN;
        }
        for v in l_r[base.b_base..base.b_base + base.pk * base.pn].iter_mut() {
            *v = f64::NAN;
        }
        let mut rcomm = ScriptedComm {
            row_in: bcomm.row_out.iter().copied().collect(),
            col_in: bcomm.col_out.iter().copied().collect(),
            ..Default::default()
        };
        Machine::new(&mut l_r, &mut rcomm).run(&gen_block_kernel(&rcfg, KernelStyle::Scheduled));
        assert_eq!(
            &l_r[base.c_base..base.c_base + base.pm * base.pn],
            &l_ref[base.c_base..base.c_base + base.pm * base.pn]
        );
        assert!(
            rcomm.row_in.is_empty(),
            "receiver must consume the full A transcript"
        );
        assert!(
            rcomm.col_in.is_empty(),
            "receiver must consume the full B transcript"
        );
    }

    #[test]
    fn naive_and_scheduled_comm_transcripts_are_equal() {
        // The two styles must put the *same words in the same order*
        // on the mesh, or mixed deployments would deadlock.
        let base = local_cfg(16, 8, 12);
        let bcfg = BlockKernelCfg {
            a_src: Operand::LdmBcast(Net::Row),
            b_src: Operand::LdmBcast(Net::Col),
            ..base
        };
        let ldm0 = fill_ldm(&base, 1.0);
        let mut c1 = ScriptedComm::default();
        let mut c2 = ScriptedComm::default();
        let mut l1 = ldm0.clone();
        let mut l2 = ldm0;
        Machine::new(&mut l1, &mut c1).run(&gen_block_kernel(&bcfg, KernelStyle::Naive));
        Machine::new(&mut l2, &mut c2).run(&gen_block_kernel(&bcfg, KernelStyle::Scheduled));
        assert_eq!(c1.row_out, c2.row_out);
        assert_eq!(c1.col_out, c2.col_out);
    }

    #[test]
    fn register_budget_respected() {
        // §III-C.3: rM·rN + rM + rN < 32. Our allocation uses 16 + 4 +
        // 4 + α + 4 temps = 29 < 32.
        let cfg = local_cfg(16, 32, 96);
        for style in [KernelStyle::Naive, KernelStyle::Scheduled] {
            let prog = gen_block_kernel(&cfg, style);
            let max_reg = prog
                .iter()
                .filter_map(|i| i.vdst())
                .map(|r| r.0)
                .max()
                .unwrap();
            assert!(max_reg < 32);
        }
    }

    #[test]
    fn invalid_shapes_rejected() {
        assert!(local_cfg(8, 8, 16).validate().is_err());
        assert!(local_cfg(16, 6, 16).validate().is_err());
        assert!(local_cfg(16, 8, 1).validate().is_err());
        let mut c = local_cfg(32, 8, 16);
        c.a_src = Operand::Recv(Net::Row);
        assert!(c.validate().is_err());
    }

    #[test]
    fn body_vmad_count() {
        let cfg = local_cfg(16, 32, 96);
        assert_eq!(body_vmads(&cfg), 8 * 96 * 16);
    }
}

#[cfg(test)]
mod diag {
    use super::*;
    use crate::comm::NullComm;
    use crate::machine::Machine;

    #[test]
    #[ignore]
    fn print_marginals() {
        let mk = |pk| BlockKernelCfg {
            pm: 16,
            pn: 4,
            pk,
            a_src: Operand::Ldm,
            b_src: Operand::Ldm,
            a_base: 0,
            b_base: 4096,
            c_base: 6144,
            alpha_addr: 8000,
        };
        let mut comm = NullComm;
        for style in [KernelStyle::Scheduled, KernelStyle::Naive] {
            let mut ldm = vec![1.0; 8192];
            let r1 = Machine::new(&mut ldm, &mut comm).run(&gen_block_kernel(&mk(100), style));
            let mut ldm = vec![1.0; 8192];
            let r2 = Machine::new(&mut ldm, &mut comm).run(&gen_block_kernel(&mk(200), style));
            println!(
                "{:?}: marginal {} cycles/k; pk=100 total {}",
                style,
                (r2.cycles - r1.cycles) as f64 / 100.0,
                r1.cycles
            );
        }
    }
}
