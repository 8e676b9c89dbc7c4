//! Mesh traffic counters.
//!
//! Memory-ordering audit: this module holds no atomics of its own —
//! every counter delegates to [`sw_probe::metrics::Counter`], whose
//! all-`Relaxed` discipline is justified in the "Memory-ordering
//! audit" section of `sw_probe::metrics`. Nothing here derives a
//! happens-before edge from a counter value.

use sw_probe::metrics::{Counter, Registry};

/// Shared atomic counters behind every port of one mesh; each port
/// folds its own tally in once, when it drops. Built on the probe
/// crate's [`Counter`] so a snapshot can be published into a metrics
/// [`Registry`] without translation.
#[derive(Debug, Default)]
pub(crate) struct MeshCounters {
    row_sent: Counter,
    col_sent: Counter,
    row_recv: Counter,
    col_recv: Counter,
    gathered: Counter,
}

impl MeshCounters {
    pub fn add_row_sent(&self, n: u64) {
        self.row_sent.add(n);
    }
    pub fn add_col_sent(&self, n: u64) {
        self.col_sent.add(n);
    }
    pub fn add_row_recv(&self, n: u64) {
        self.row_recv.add(n);
    }
    pub fn add_col_recv(&self, n: u64) {
        self.col_recv.add(n);
    }
    pub fn add_gathered(&self, n: u64) {
        self.gathered.add(n);
    }

    pub fn snapshot(&self) -> MeshStats {
        MeshStats {
            row_words_sent: self.row_sent.get(),
            col_words_sent: self.col_sent.get(),
            row_words_received: self.row_recv.get(),
            col_words_received: self.col_recv.get(),
            words_gathered: self.gathered.get(),
        }
    }
}

/// Snapshot of mesh traffic, in 256-bit words. "Sent" counts enqueued
/// copies (a broadcast to 7 mates counts 7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MeshStats {
    /// Words enqueued onto row links.
    pub row_words_sent: u64,
    /// Words enqueued onto column links.
    pub col_words_sent: u64,
    /// Words consumed from row receive buffers.
    pub row_words_received: u64,
    /// Words consumed from column receive buffers.
    pub col_words_received: u64,
    /// Received words copied out of the rings into port scratch rather
    /// than read where they sit: windows that drops broke up or that
    /// outnumbered a ring's slots. A host cost only; 0 on a clean run
    /// whose windows fit the rings.
    pub words_gathered: u64,
}

impl MeshStats {
    /// Total bytes moved over the mesh (counting each delivered copy).
    pub fn bytes_sent(&self) -> u64 {
        (self.row_words_sent + self.col_words_sent) * 32
    }

    /// Accumulates this snapshot into `reg` under `sim.mesh.*`.
    pub fn publish(&self, reg: &Registry) {
        reg.counter("sim.mesh.row.words_sent")
            .add(self.row_words_sent);
        reg.counter("sim.mesh.col.words_sent")
            .add(self.col_words_sent);
        reg.counter("sim.mesh.row.words_received")
            .add(self.row_words_received);
        reg.counter("sim.mesh.col.words_received")
            .add(self.col_words_received);
        reg.counter("sim.mesh.words_gathered")
            .add(self.words_gathered);
    }
}

/// Per-CPE mesh traffic counters, `cells[row][col]`. Alongside the
/// mesh-wide [`MeshCounters`], every port also folds its tally into its
/// own cell (and counts starved receives there at once) so
/// a failed run can be diagnosed per rendezvous group (the runtime
/// feeds a [`MeshGridStats`] snapshot to `sw-lint`'s mesh pass to name
/// the wedged row/column group).
#[derive(Debug, Default)]
pub(crate) struct GridCounters {
    cells: [[CellCounters; 8]; 8],
}

#[derive(Debug, Default)]
pub(crate) struct CellCounters {
    row_sent: Counter,
    col_sent: Counter,
    row_recv: Counter,
    col_recv: Counter,
    row_starved: Counter,
    col_starved: Counter,
}

impl GridCounters {
    pub fn cell(&self, row: usize, col: usize) -> &CellCounters {
        &self.cells[row][col]
    }

    pub fn snapshot(&self) -> MeshGridStats {
        let mut out = MeshGridStats::default();
        for r in 0..8 {
            for c in 0..8 {
                let cell = &self.cells[r][c];
                out.cells[r][c] = CellTraffic {
                    row_sent: cell.row_sent.get(),
                    col_sent: cell.col_sent.get(),
                    row_recv: cell.row_recv.get(),
                    col_recv: cell.col_recv.get(),
                    row_starved: cell.row_starved.get(),
                    col_starved: cell.col_starved.get(),
                };
            }
        }
        out
    }
}

impl CellCounters {
    pub fn add_sent(&self, col_net: bool, n: u64) {
        if col_net {
            self.col_sent.add(n);
        } else {
            self.row_sent.add(n);
        }
    }
    pub fn add_recv(&self, col_net: bool, n: u64) {
        if col_net {
            self.col_recv.add(n);
        } else {
            self.row_recv.add(n);
        }
    }
    /// Counts a receive that timed out: one word of unmet demand, the
    /// signature the rendezvous summary keys on.
    pub fn add_starved(&self, col_net: bool) {
        if col_net {
            self.col_starved.inc();
        } else {
            self.row_starved.inc();
        }
    }
}

/// One CPE's mesh traffic, in 256-bit words.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CellTraffic {
    /// Copies this CPE enqueued onto its row links.
    pub row_sent: u64,
    /// Copies this CPE enqueued onto its column links.
    pub col_sent: u64,
    /// Words this CPE consumed from its row receive buffer.
    pub row_recv: u64,
    /// Words this CPE consumed from its column receive buffer.
    pub col_recv: u64,
    /// Row receives that timed out (unmet demand at deadlock time).
    pub row_starved: u64,
    /// Column receives that timed out.
    pub col_starved: u64,
}

/// Snapshot of per-CPE traffic, `cells[mesh_row][mesh_col]`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MeshGridStats {
    /// Per-CPE counters.
    pub cells: [[CellTraffic; 8]; 8],
}

impl MeshGridStats {
    /// Adds another snapshot cell-by-cell — how a multi-block run folds
    /// each block's grid into one per-CPE total.
    pub fn accumulate(&mut self, other: &MeshGridStats) {
        for r in 0..8 {
            for c in 0..8 {
                let a = &mut self.cells[r][c];
                let b = &other.cells[r][c];
                a.row_sent += b.row_sent;
                a.col_sent += b.col_sent;
                a.row_recv += b.row_recv;
                a.col_recv += b.col_recv;
                a.row_starved += b.row_starved;
                a.col_starved += b.col_starved;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_cells_tally_independently() {
        let g = GridCounters::default();
        g.cell(2, 5).add_sent(false, 7);
        g.cell(2, 5).add_recv(true, 3);
        g.cell(2, 5).add_starved(false);
        let s = g.snapshot();
        assert_eq!(
            s.cells[2][5],
            CellTraffic {
                row_sent: 7,
                col_recv: 3,
                row_starved: 1,
                ..CellTraffic::default()
            }
        );
        assert_eq!(s.cells[0][0], CellTraffic::default());
    }

    #[test]
    fn snapshot_reflects_adds() {
        let c = MeshCounters::default();
        c.add_row_sent(7);
        c.add_col_recv(3);
        let s = c.snapshot();
        assert_eq!(s.row_words_sent, 7);
        assert_eq!(s.col_words_received, 3);
        assert_eq!(s.bytes_sent(), 7 * 32);
    }

    #[test]
    fn publish_lands_in_registry() {
        let reg = Registry::new();
        let s = MeshStats {
            row_words_sent: 7,
            col_words_sent: 5,
            row_words_received: 7,
            col_words_received: 5,
            words_gathered: 0,
        };
        s.publish(&reg);
        s.publish(&reg); // accumulates, run after run
        let snap = reg.snapshot();
        assert_eq!(snap.counter("sim.mesh.row.words_sent"), Some(14));
        assert_eq!(snap.counter("sim.mesh.col.words_received"), Some(10));
    }
}
