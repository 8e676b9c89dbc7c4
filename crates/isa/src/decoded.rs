//! Predecoded instruction streams.
//!
//! The executor used to re-derive pipe, latency, and source/destination
//! registers from the [`Instr`] enum on every *dynamically executed*
//! instruction — hundreds of millions of times per timing sweep, with a
//! heap-allocated `Vec` per source query before the [`crate::instr::Srcs`]
//! rework. [`DecodedProgram`] moves all of that to decode time: each
//! static instruction is expanded once into a flat [`DecodedInstr`]
//! record with fixed-size register arrays and pre-resolved pipe and
//! latency, and the interpreter loop (`Machine::run_decoded`) reads
//! those fields with zero per-instruction allocation or matching on
//! metadata.
//!
//! Decoding is purely structural — it inspects no data values — so a
//! decoded program is interchangeable with its source stream: the
//! interpreter produces bitwise-identical numerics and an identical
//! [`crate::ExecReport`].

use crate::instr::{Instr, Pipe};

/// Sentinel for "no register" in the compact index fields.
pub(crate) const NO_REG: u8 = u8::MAX;

/// One instruction with its issue metadata resolved at decode time.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DecodedInstr {
    /// The original instruction (drives the execute stage).
    pub op: Instr,
    /// Pre-resolved issue pipe.
    pub pipe: Pipe,
    /// Pre-resolved result latency in cycles.
    pub latency: u64,
    /// Vector sources, `vsrcs[..n_vsrcs]` valid.
    pub vsrcs: [u8; 3],
    /// Number of valid vector sources.
    pub n_vsrcs: u8,
    /// Integer source register index, or [`NO_REG`] (the ISA reads at
    /// most one integer register per instruction).
    pub isrc: u8,
    /// Vector destination register index, or [`NO_REG`].
    pub vdst: u8,
    /// Integer destination register index, or [`NO_REG`].
    pub idst: u8,
}

impl DecodedInstr {
    fn decode(instr: Instr) -> Self {
        let vs = instr.vsrcs();
        let mut vsrcs = [NO_REG; 3];
        for (slot, r) in vsrcs.iter_mut().zip(vs.as_slice()) {
            *slot = r.0;
        }
        let is = instr.isrcs();
        debug_assert!(is.len() <= 1, "ISA invariant: at most one integer source");
        DecodedInstr {
            op: instr,
            pipe: instr.pipe(),
            latency: instr.latency(),
            vsrcs,
            n_vsrcs: vs.len() as u8,
            isrc: is.as_slice().first().map_or(NO_REG, |r| r.0),
            vdst: instr.vdst().map_or(NO_REG, |r| r.0),
            idst: instr.idst().map_or(NO_REG, |r| r.0),
        }
    }
}

/// An instruction stream decoded once for repeated zero-allocation
/// interpretation.
///
/// Build it with [`DecodedProgram::new`] and run it with
/// [`crate::Machine::run_decoded`]; `Machine::run` decodes internally
/// for one-shot use.
#[derive(Debug, Clone)]
pub struct DecodedProgram {
    pub(crate) instrs: Vec<DecodedInstr>,
}

impl DecodedProgram {
    /// Decodes `prog`. Pure and cheap relative to even a single
    /// interpretation: one pass, no data inspected.
    pub fn new(prog: &[Instr]) -> Self {
        DecodedProgram {
            instrs: prog.iter().map(|&i| DecodedInstr::decode(i)).collect(),
        }
    }

    /// Number of static instructions.
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// True for the empty program.
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }
}

impl From<&[Instr]> for DecodedProgram {
    fn from(prog: &[Instr]) -> Self {
        DecodedProgram::new(prog)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regs::{IReg, VReg};

    #[test]
    fn decode_resolves_metadata() {
        let p = DecodedProgram::new(&[
            Instr::Vmad {
                a: VReg(1),
                b: VReg(2),
                c: VReg(3),
                d: VReg(4),
            },
            Instr::Vldd {
                d: VReg(0),
                base: IReg(1),
                off: 8,
            },
            Instr::Bne {
                s: IReg(3),
                target: 0,
            },
            Instr::Nop,
        ]);
        assert_eq!(p.len(), 4);
        let v = &p.instrs[0];
        assert_eq!(v.pipe, Pipe::P0);
        assert_eq!(v.latency, 6);
        assert_eq!(&v.vsrcs[..v.n_vsrcs as usize], &[1, 2, 3]);
        assert_eq!(v.vdst, 4);
        assert_eq!(v.isrc, NO_REG);
        assert_eq!(v.idst, NO_REG);
        let l = &p.instrs[1];
        assert_eq!(l.pipe, Pipe::P1);
        assert_eq!(l.latency, 4);
        assert_eq!(l.n_vsrcs, 0);
        assert_eq!(l.isrc, 1);
        assert_eq!(l.vdst, 0);
        let b = &p.instrs[2];
        assert_eq!(b.isrc, 3);
        assert_eq!(b.latency, 0);
        let n = &p.instrs[3];
        assert_eq!(n.n_vsrcs, 0);
        assert_eq!(n.isrc, NO_REG);
        assert_eq!(n.vdst, NO_REG);
        assert_eq!(n.idst, NO_REG);
        assert!(DecodedProgram::new(&[]).is_empty());
    }
}
