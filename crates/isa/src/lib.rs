//! The CPE instruction set, pipeline model, and DGEMM micro-kernels.
//!
//! A CPE has two in-order issue pipelines (§II, §IV-C):
//!
//! * **P0** — the floating-point pipeline, executing the 256-bit fused
//!   multiply-add `vmad` (RAW latency 6 cycles);
//! * **P1** — everything else: integer ALU ops, LDM loads/stores, and
//!   the register-communication instructions `vldr`, `lddec`, `getr`,
//!   `getc` (RAW latency 4 cycles).
//!
//! One instruction per pipeline can issue per cycle, so a `vmad` can be
//! issued *together with* a register-communication or integer
//! instruction — the fact the paper's instruction-scheduling
//! optimization (§IV-C, Algorithm 3) exploits to hide all LDM/mesh
//! latency behind arithmetic.
//!
//! This crate provides:
//!
//! * [`instr::Instr`] — the subset of the SW26010 CPE ISA the DGEMM
//!   kernels need;
//! * [`machine::Machine`] — a cycle-accurate, functional, dual-issue
//!   in-order executor (used both to *validate* kernels numerically and
//!   to *count* their cycles for the timing model);
//! * [`kernels`] — programmatic generators for the register-blocked
//!   micro-kernel in its naive and hand-scheduled (Algorithm 3) forms;
//! * [`sched`] — a greedy list scheduler that software-pipelines a
//!   naive stream automatically (the paper's future-work "automatic
//!   code generation" direction).

pub mod comm;
pub mod encoding;
pub mod instr;
pub mod kernels;
pub mod looped;
pub mod machine;
pub mod regs;
pub mod sched;
pub mod tiling;

pub use comm::{CommPort, NullComm, ScriptedComm, SinkComm};
pub use instr::{Instr, Net};
pub use kernels::{BlockKernelCfg, Operand};
pub use looped::{fits_icache, gen_block_kernel_looped, icache_footprint_bytes};
pub use machine::{BudgetExceeded, EngineBackend, ExecReport, Machine, MAX_EXECUTED};
pub use regs::{IReg, VReg};
pub use sw_probe::stall::{PipeBreakdown, StallKind, StallReport};
