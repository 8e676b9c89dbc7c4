//! Hardware constants of one SW26010 core group, as described in §II of
//! the paper ("SW26010 Many-core Architecture").
//!
//! The timing-model latencies at the bottom of this module are the ones
//! the paper states explicitly (the RAW latencies of `vmad` and register
//! communication in §IV-C) plus conservative estimates for the few it
//! leaves implicit; the calibration appendix of `EXPERIMENTS.md` records
//! which values were calibrated against the paper's measurements.

/// CPE (and MPE) clock rate in GHz.
pub const CLOCK_GHZ: f64 = 1.45;

/// Clock rate in Hz, convenient for cycle/second conversions.
pub const CLOCK_HZ: f64 = CLOCK_GHZ * 1.0e9;

/// Double-precision flops one CPE retires per cycle: a 256-bit FMA does
/// 4 lanes × 2 flops.
pub const FLOPS_PER_CYCLE_PER_CPE: u64 = 8;

/// Number of CPEs in one core group (8×8 mesh).
pub const CPES_PER_CG: usize = 64;

/// Theoretical double-precision peak of one CPE cluster:
/// 8 flop/cycle × 1.45 GHz × 64 CPEs = 742.4 Gflops/s.
pub const PEAK_GFLOPS_CG: f64 = FLOPS_PER_CYCLE_PER_CPE as f64 * CLOCK_GHZ * CPES_PER_CG as f64;

/// Local device memory (scratch pad) per CPE, in bytes.
pub const LDM_BYTES: usize = 64 * 1024;

/// LDM capacity in `f64` elements (the paper's "64KB/8B = 8192").
pub const LDM_DOUBLES: usize = LDM_BYTES / 8;

/// Number of 256-bit vector registers per CPE.
pub const VREG_COUNT: usize = 32;

/// Lanes of `f64` in one 256-bit vector register.
pub const VREG_LANES: usize = 4;

/// DMA transaction unit in bytes; all DMA operations require this
/// alignment and transfer in multiples of it.
pub const DMA_TRANSACTION_BYTES: usize = 128;

/// DMA transaction unit in `f64` elements.
pub const DMA_TRANSACTION_DOUBLES: usize = DMA_TRANSACTION_BYTES / 8;

/// In `ROW_MODE`, each 128 B transaction is split across the 8 CPEs of a
/// mesh row; each CPE gets/puts this many successive bytes (16 B = 2
/// doubles).
pub const ROW_MODE_SLICE_BYTES: usize = DMA_TRANSACTION_BYTES / 8;

/// `ROW_MODE` per-CPE slice in `f64` elements.
pub const ROW_MODE_SLICE_DOUBLES: usize = ROW_MODE_SLICE_BYTES / 8;

/// Theoretical main-memory bandwidth of the DMA channel of one CG, GB/s.
pub const DMA_THEORETICAL_GBS: f64 = 34.0;

/// Main memory shared by one CG, in bytes (8 GB).
pub const MAIN_MEMORY_BYTES: usize = 8 * 1024 * 1024 * 1024;

/// Instruction cache per CPE, in bytes (16 KB) — the constraint that
/// forces production kernels to loop rather than fully unroll.
pub const ICACHE_BYTES: usize = 16 * 1024;

/// Encoded size of one instruction, in bytes (the SW RISC ISA uses
/// fixed 32-bit encodings).
pub const INSTR_BYTES: usize = 4;

// ---------------------------------------------------------------------
// Pipeline / latency model (§II and §IV-C).
// ---------------------------------------------------------------------

/// Read-after-write latency of `vmad` (fused multiply-add), in cycles.
/// Stated explicitly in §IV-C.
pub const VMAD_RAW_LATENCY: u64 = 6;

/// Read-after-write latency of the register-communication instructions
/// (`vldr`, `lddec`, `getr`, `getc`), in cycles. Stated in §IV-C.
pub const REGCOMM_RAW_LATENCY: u64 = 4;

/// Read-after-write latency of a plain LDM vector load, in cycles.
pub const LDM_LOAD_LATENCY: u64 = 4;

/// Latency of integer ALU operations, in cycles.
pub const INT_OP_LATENCY: u64 = 1;

/// End-to-end mesh transit cost of one register-communication broadcast
/// (producer put → consumer get), in cycles. The paper says "usually
/// around several cycles"; we use 10 in the timing model for the
/// synchronization cost the schedule cannot hide.
pub const MESH_TRANSIT_CYCLES: u64 = 10;

/// Fixed startup overhead of one DMA descriptor, in cycles (issue,
/// protocol processing in the PPU, and reply). Calibrated.
pub const DMA_STARTUP_CYCLES: u64 = 270;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_matches_paper() {
        // The paper states 8 flop/clock × 1.45 GHz × 64 = 742.4 Gflops/s.
        assert!((PEAK_GFLOPS_CG - 742.4).abs() < 1e-9);
    }

    #[test]
    fn ldm_capacity_matches_paper() {
        // "the number of matrix elements stored on each CPE should be
        // less than 64KB/8B = 8192"
        assert_eq!(LDM_DOUBLES, 8192);
    }

    #[test]
    fn dma_granularity() {
        assert_eq!(DMA_TRANSACTION_DOUBLES, 16);
        assert_eq!(ROW_MODE_SLICE_DOUBLES, 2);
    }
}
