//! Run statistics of the functional simulator.

use std::cell::Cell;
use std::time::Duration;
use sw_mem::dma::DmaMode;
use sw_mesh::{MeshGridStats, MeshStats};
use sw_probe::metrics::Registry;

/// Bytes and descriptor counts per DMA mode, accumulated **per CPE**:
/// every participating CPE contributes its own `bytes_cpe` share and
/// one descriptor per call, because in this runtime each CPE issues its
/// own request (there is no MPE-side collective descriptor).
///
/// Consequences worth spelling out, since they differ per mode:
///
/// * a `ROW_MODE` collective contributes **8 descriptors**, and its
///   byte shares partition the region — the region's bytes are counted
///   once in total;
/// * a `BCAST_MODE` get contributes **64 descriptors** and counts the
///   region's bytes 64× (one full copy lands in every LDM), which is
///   exactly the replicated traffic the mode costs;
/// * `RANK_MODE` contributes 64 descriptors whose shares partition the
///   region, `BROW_MODE` 8 descriptors of one full copy each.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DmaTotals {
    /// Bytes moved in `PE_MODE`.
    pub pe_bytes: u64,
    /// Bytes moved in `BCAST_MODE`.
    pub bcast_bytes: u64,
    /// Bytes moved in `ROW_MODE`.
    pub row_bytes: u64,
    /// Bytes moved in `BROW_MODE`.
    pub brow_bytes: u64,
    /// Bytes moved in `RANK_MODE`.
    pub rank_bytes: u64,
    /// Descriptors issued, one per participating CPE per call (see the
    /// struct docs — a ROW collective counts 8, a BCAST 64).
    pub descriptors: u64,
}

impl DmaTotals {
    /// Sum of bytes over all modes.
    pub fn total_bytes(&self) -> u64 {
        self.pe_bytes + self.bcast_bytes + self.row_bytes + self.brow_bytes + self.rank_bytes
    }

    /// Accumulates this snapshot into `reg` under `sim.dma.*`.
    pub fn publish(&self, reg: &Registry) {
        reg.counter("sim.dma.pe.bytes").add(self.pe_bytes);
        reg.counter("sim.dma.bcast.bytes").add(self.bcast_bytes);
        reg.counter("sim.dma.row.bytes").add(self.row_bytes);
        reg.counter("sim.dma.brow.bytes").add(self.brow_bytes);
        reg.counter("sim.dma.rank.bytes").add(self.rank_bytes);
        reg.counter("sim.dma.descriptors").add(self.descriptors);
    }
}

/// One run's accumulation behind [`DmaTotals`]: plain cells, as every
/// CPE of a run is a fiber on one thread. [`DmaCounters::record`] is
/// called once per CPE per DMA call with that CPE's receipt — the
/// per-CPE accounting the [`DmaTotals`] docs describe is established
/// here, not downstream.
#[derive(Debug, Default)]
pub(crate) struct DmaCounters {
    pe: Cell<u64>,
    bcast: Cell<u64>,
    row: Cell<u64>,
    brow: Cell<u64>,
    rank: Cell<u64>,
    descriptors: Cell<u64>,
}

impl DmaCounters {
    pub fn record(&self, mode: DmaMode, bytes_cpe: u64) {
        let ctr = match mode {
            DmaMode::Pe => &self.pe,
            DmaMode::Bcast => &self.bcast,
            DmaMode::Row => &self.row,
            DmaMode::Brow => &self.brow,
            DmaMode::Rank => &self.rank,
        };
        ctr.set(ctr.get() + bytes_cpe);
        self.descriptors.set(self.descriptors.get() + 1);
    }

    pub fn snapshot(&self) -> DmaTotals {
        DmaTotals {
            pe_bytes: self.pe.get(),
            bcast_bytes: self.bcast.get(),
            row_bytes: self.row.get(),
            brow_bytes: self.brow.get(),
            rank_bytes: self.rank.get(),
            descriptors: self.descriptors.get(),
        }
    }
}

/// What a functional run reports.
#[derive(Debug, Clone, Default)]
pub struct RunStats {
    /// Per-CPE DMA traffic summed over all 64 CPEs.
    pub dma: DmaTotals,
    /// Register-communication traffic.
    pub mesh: MeshStats,
    /// Per-CPE mesh traffic (`cells[mesh_row][mesh_col]`), available on
    /// clean runs too — the same-seed replay tests compare these cell
    /// totals between runs.
    pub grid: MeshGridStats,
    /// Ids of every CPE whose worker panicked this run (structured
    /// aborts and raw panics alike), in id order. Empty on a clean run.
    pub panicked_cpes: Vec<usize>,
    /// Host wall-clock time of the simulated run (not simulated time).
    pub wall: Duration,
}

impl RunStats {
    /// Adds another run's statistics into this one: how a resilient
    /// run totals its per-block runs. Every field is named without a
    /// `..` rest, so a new counter cannot be skipped silently.
    pub fn accumulate(&mut self, other: &RunStats) {
        let RunStats {
            dma: o,
            mesh: w,
            grid,
            panicked_cpes,
            wall,
        } = other;
        let d = &self.dma;
        self.dma = DmaTotals {
            pe_bytes: d.pe_bytes + o.pe_bytes,
            bcast_bytes: d.bcast_bytes + o.bcast_bytes,
            row_bytes: d.row_bytes + o.row_bytes,
            brow_bytes: d.brow_bytes + o.brow_bytes,
            rank_bytes: d.rank_bytes + o.rank_bytes,
            descriptors: d.descriptors + o.descriptors,
        };
        let m = &self.mesh;
        self.mesh = MeshStats {
            row_words_sent: m.row_words_sent + w.row_words_sent,
            col_words_sent: m.col_words_sent + w.col_words_sent,
            row_words_received: m.row_words_received + w.row_words_received,
            col_words_received: m.col_words_received + w.col_words_received,
            words_gathered: m.words_gathered + w.words_gathered,
        };
        self.grid.accumulate(grid);
        self.panicked_cpes.extend_from_slice(panicked_cpes);
        self.wall += *wall;
    }

    /// Accumulates the run's traffic into `reg` (`sim.dma.*`,
    /// `sim.mesh.*`, a `sim.runs` tally, and `sim.cpe.panics` when any
    /// worker panicked). [`crate::CoreGroup::run`] does this against
    /// the global registry after every run.
    pub fn publish(&self, reg: &Registry) {
        self.dma.publish(reg);
        self.mesh.publish(reg);
        reg.counter("sim.runs").inc();
        if !self.panicked_cpes.is_empty() {
            reg.counter("sim.cpe.panics")
                .add(self.panicked_cpes.len() as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_per_mode() {
        let c = DmaCounters::default();
        c.record(DmaMode::Pe, 100);
        c.record(DmaMode::Pe, 28);
        c.record(DmaMode::Row, 16);
        let s = c.snapshot();
        assert_eq!(s.pe_bytes, 128);
        assert_eq!(s.row_bytes, 16);
        assert_eq!(s.descriptors, 3);
        assert_eq!(s.total_bytes(), 144);
    }

    #[test]
    fn collective_accounting_is_per_cpe() {
        // Pins the documented semantics: a ROW collective over a
        // 512-byte region is recorded by each of its 8 CPEs with a
        // 64-byte share — 8 descriptors, region bytes once — while a
        // BCAST of the same region is recorded by all 64 CPEs with the
        // full 512 bytes — 64 descriptors, bytes 64×.
        let c = DmaCounters::default();
        for _ in 0..8 {
            c.record(DmaMode::Row, 512 / 8);
        }
        let s = c.snapshot();
        assert_eq!(s.descriptors, 8, "ROW collective must count 8 descriptors");
        assert_eq!(s.row_bytes, 512, "ROW byte shares partition the region");

        let c = DmaCounters::default();
        for _ in 0..64 {
            c.record(DmaMode::Bcast, 512);
        }
        let s = c.snapshot();
        assert_eq!(s.descriptors, 64, "BCAST must count 64 descriptors");
        assert_eq!(s.bcast_bytes, 64 * 512, "BCAST counts every delivered copy");
    }

    #[test]
    fn accumulate_sums_every_field() {
        let one = RunStats {
            dma: DmaTotals {
                pe_bytes: 1,
                bcast_bytes: 2,
                row_bytes: 3,
                brow_bytes: 4,
                rank_bytes: 5,
                descriptors: 6,
            },
            mesh: MeshStats {
                row_words_sent: 7,
                col_words_sent: 8,
                row_words_received: 9,
                col_words_received: 10,
                words_gathered: 11,
            },
            grid: {
                let mut g = MeshGridStats::default();
                g.cells[2][5].row_sent = 12;
                g.cells[7][0].col_starved = 13;
                g
            },
            panicked_cpes: vec![14],
            wall: Duration::from_millis(15),
        };
        let mut total = one.clone();
        total.accumulate(&one);
        assert_eq!(
            total.dma,
            DmaTotals {
                pe_bytes: 2,
                bcast_bytes: 4,
                row_bytes: 6,
                brow_bytes: 8,
                rank_bytes: 10,
                descriptors: 12,
            }
        );
        assert_eq!(
            total.mesh,
            MeshStats {
                row_words_sent: 14,
                col_words_sent: 16,
                row_words_received: 18,
                col_words_received: 20,
                words_gathered: 22,
            }
        );
        assert_eq!(total.grid.cells[2][5].row_sent, 24);
        assert_eq!(total.grid.cells[7][0].col_starved, 26);
        assert_eq!(total.panicked_cpes, vec![14, 14]);
        assert_eq!(total.wall, Duration::from_millis(30));
    }

    #[test]
    fn publish_accumulates_into_registry() {
        let reg = Registry::new();
        let stats = RunStats {
            dma: DmaTotals {
                pe_bytes: 1024,
                row_bytes: 512,
                descriptors: 72,
                ..DmaTotals::default()
            },
            mesh: MeshStats {
                row_words_sent: 7,
                ..MeshStats::default()
            },
            grid: MeshGridStats::default(),
            panicked_cpes: Vec::new(),
            wall: Duration::ZERO,
        };
        stats.publish(&reg);
        stats.publish(&reg);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("sim.dma.pe.bytes"), Some(2048));
        assert_eq!(snap.counter("sim.dma.descriptors"), Some(144));
        assert_eq!(snap.counter("sim.mesh.row.words_sent"), Some(14));
        assert_eq!(snap.counter("sim.runs"), Some(2));
    }
}
