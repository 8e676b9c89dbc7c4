//! The register-communication mesh of the CPE cluster.
//!
//! The 64 CPEs of a core group communicate over an 8×8 mesh network in a
//! producer/consumer mode (§II): a source CPE loads 256-bit data into a
//! register and puts it into the mesh via its *send buffer*; destination
//! CPEs pull it from their *receive buffers*. Two collective operations
//! exist — **row broadcast** (to every CPE of the sender's mesh row) and
//! **column broadcast** (to every CPE of the sender's column) — and they
//! are exactly what the paper's collective data sharing scheme (§III-B)
//! is built from.
//!
//! This crate provides the functional implementation used by the
//! 64-CPE fiber runtime: [`Mesh::new`] hands out one [`MeshPort`] per CPE;
//! ports move [`sw_arch::V256`] words through bounded buffers, so
//! producers block when consumers lag. Receive paths are separate per
//! direction (row vs column), matching the separate `getr`/`getc`
//! instructions. One broadcast ring per mesh row and per mesh column
//! carries the words: a broadcast writes each word once and every mate
//! reads it through its own cursor, in place, through a borrowed
//! [`Window`]. The rings are plain single-thread memory, because every
//! port of a run lives on the thread that runs its CPE fibers. Each
//! ring holds [`HOST_BUFFER_DEPTH`] words, a host wall-clock knob: the
//! hardware's 8-entry receive buffer is not modelled by any buffer
//! here, and no simulated clock depends on the depth. Above the rings,
//! every mesh row and column keeps a strip-step turn, so a collective
//! schedule that calls [`MeshPort::end_step`] after each strip step is
//! paced by the mesh itself, as blocking `getr`/`getc` pace it on the
//! hardware.
//!
//! A blocked port returns [`MeshError::Deadlock`] instead of hanging
//! the test suite — at once when the fiber executor finds that no CPE
//! of the run can progress, and after a configurable wall-clock fuse
//! at the latest. Communication schemes with mismatched send/receive
//! counts (the classic register-communication deadlock on real
//! hardware) thus surface as structured errors the runtime converts
//! into a per-group rendezvous summary.
//! Every blocked wait also gives up as [`MeshError::Cancelled`] once
//! the run's cancel token has fired ([`sw_check::fiber::cancelled`]).
//! A [`sw_faults::FaultInjector`] installed
//! via [`Mesh::set_fault_injector`] can deterministically drop words and
//! wedge a CPE (suppress all its sends) to exercise that path.

pub mod error;
pub mod port;
mod ring;
pub mod stats;
mod turn;

pub use error::MeshError;
pub use port::{Mesh, MeshPort, MeshTransport, Window, HOST_BUFFER_DEPTH};
pub use stats::{CellTraffic, MeshGridStats, MeshStats};

/// Runs `body(i)` on `n` CPE fibers and re-raises the first panic.
#[cfg(test)]
pub(crate) fn on_fibers(n: usize, body: impl Fn(usize)) {
    let panics = sw_check::fiber::Fibers::new(n).run(&body);
    if let Some((_, p)) = panics.into_iter().next() {
        std::panic::resume_unwind(p);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use sw_arch::coord::{MESH_COLS, N_CPES};
    use sw_arch::{Coord, V256};

    #[test]
    fn row_broadcast_reaches_row_only() {
        let mesh = Mesh::new();
        let mut ports = mesh.ports();
        // Sender (2,3) broadcasts along row 2; every other CPE in row 2
        // receives it; nobody else is sent anything.
        let v = V256::splat(7.0);
        ports[Coord::new(2, 3).id()].row_bcast(v).unwrap();
        for c in 0..8 {
            if c == 3 {
                continue;
            }
            let got = ports[Coord::new(2, c).id()].getr().unwrap();
            assert_eq!(got, v);
        }
        // All receive buffers now empty.
        for p in &mut ports {
            assert!(p.try_getr().is_none());
            assert!(p.try_getc().is_none());
        }
    }

    #[test]
    fn col_broadcast_reaches_col_only() {
        let mesh = Mesh::new();
        let mut ports = mesh.ports();
        let v = V256::new([1.0, 2.0, 3.0, 4.0]);
        ports[Coord::new(5, 1).id()].col_bcast(v).unwrap();
        for r in 0..8 {
            if r == 5 {
                continue;
            }
            assert_eq!(ports[Coord::new(r, 1).id()].getc().unwrap(), v);
        }
        for p in &mut ports {
            assert!(p.try_getr().is_none());
        }
    }

    #[test]
    fn fifo_order_preserved_per_sender() {
        let mesh = Mesh::new();
        let ports = mesh.ports();
        let sender = &ports[Coord::new(0, 0).id()];
        for i in 0..4 {
            sender.row_bcast(V256::splat(i as f64)).unwrap();
        }
        let receiver = &ports[Coord::new(0, 7).id()];
        for i in 0..4 {
            assert_eq!(receiver.getr().unwrap(), V256::splat(i as f64));
        }
    }

    #[test]
    fn panel_roundtrip_across_fibers() {
        let mesh = Mesh::new();
        let ports = mesh.ports();
        let panel: Vec<f64> = (0..256).map(|i| i as f64).collect();
        let received = Cell::new(0);
        on_fibers(N_CPES, |id| {
            let p = &ports[id];
            match (p.coord().row, p.coord().col) {
                (0, 0) => p.row_bcast_panel(&panel).unwrap(),
                (0, _) => {
                    let mut out = vec![0.0; 256];
                    p.recv_row_panel(&mut out).unwrap();
                    assert_eq!(out, panel);
                    received.set(received.get() + 1);
                }
                _ => {}
            }
        });
        assert_eq!(received.get(), 7);
    }

    #[test]
    fn backpressure_blocks_then_drains() {
        // Send far beyond the host buffer depth: the sender must wait
        // until the receivers drain, which start only after it has
        // filled the ring, and all data arrives in order.
        let mesh = Mesh::new();
        let ports = mesh.ports();
        let n = 4 * HOST_BUFFER_DEPTH;
        let filled = Cell::new(false);
        on_fibers(MESH_COLS, |col| {
            let p = &ports[col]; // row 0
            if col == 0 {
                for i in 0..n {
                    if i == HOST_BUFFER_DEPTH {
                        filled.set(true);
                    }
                    p.row_bcast(V256::splat(i as f64)).unwrap();
                }
                return;
            }
            while !filled.get() {
                sw_check::fiber::suspend();
            }
            for i in 0..n {
                assert_eq!(p.getr().unwrap(), V256::splat(i as f64));
            }
        });
    }

    #[test]
    fn deadlock_surfaces_as_structured_error() {
        // Nobody ever sends: the fiber executor finds the run stuck long
        // before the 10 s fuse.
        let mesh = Mesh::new();
        let ports = mesh.ports();
        let start = std::time::Instant::now();
        on_fibers(1, |_| {
            let err = ports[Coord::new(0, 3).id()].getr().unwrap_err();
            assert_eq!(
                err,
                MeshError::Deadlock {
                    coord: (0, 3),
                    op: "getr",
                    timeout: std::time::Duration::from_secs(10),
                }
            );
        });
        assert!(start.elapsed() < std::time::Duration::from_secs(5));
        // The starved receive is visible in the per-CPE grid snapshot.
        assert_eq!(mesh.grid_stats().cells[0][3].row_starved, 1);
    }

    #[test]
    fn a_cancelled_run_releases_a_blocked_receive() {
        // A peer fiber fires the run's cancel predicate while (4,1)
        // waits: the blocked receive gives up as a cancellation, not a
        // deadlock.
        let mesh = Mesh::new();
        let ports = mesh.ports();
        let raised = Cell::new(false);
        let panics = sw_check::fiber::Fibers::new(2).run_cancellable(
            &|i| {
                if i == 1 {
                    raised.set(true);
                    return;
                }
                let err = ports[Coord::new(4, 1).id()].getc().unwrap_err();
                assert_eq!(
                    err,
                    MeshError::Cancelled {
                        coord: (4, 1),
                        op: "getc"
                    }
                );
            },
            &|| raised.get(),
        );
        assert!(panics.is_empty());
        // A cancelled wait is not starvation.
        assert_eq!(mesh.grid_stats().cells[4][1].col_starved, 0);
    }

    #[test]
    fn wedged_cpe_sends_nothing_and_peers_starve() {
        use sw_faults::{FaultInjector, FaultSpec, WedgeSpec};
        let mesh = Mesh::new();
        let mut spec = FaultSpec::seeded(1);
        spec.wedge = Some(WedgeSpec {
            cpe: Coord::new(2, 3).id(),
            epoch: 0,
        });
        let inj = FaultInjector::new(spec);
        mesh.set_fault_injector(&inj);
        let ports = mesh.ports();
        on_fibers(2, |i| {
            if i == 0 {
                ports[Coord::new(2, 3).id()].row_bcast(V256::ZERO).unwrap();
            } else {
                assert!(ports[Coord::new(2, 0).id()].getr().is_err());
            }
        });
        drop(ports);
        assert_eq!(mesh.stats().row_words_sent, 0);
        assert_eq!(mesh.grid_stats().cells[2][0].row_starved, 1);
        assert_eq!(inj.stats().injected_mesh_wedge, 1);
    }

    #[test]
    fn interleaved_senders_merge_into_one_fifo_per_receiver() {
        // Two senders in the same row push before anyone drains — the
        // ring serializes the two episodes into one FIFO per receiver,
        // and neither sender reads its own word back.
        let mesh = Mesh::new();
        let ports = mesh.ports();
        ports[Coord::new(1, 0).id()]
            .row_bcast(V256::splat(1.0))
            .unwrap();
        ports[Coord::new(1, 2).id()]
            .row_bcast(V256::splat(2.0))
            .unwrap();
        // (1,7) got one word from each sender, in arrival order.
        let rx = &ports[Coord::new(1, 7).id()];
        assert_eq!(rx.getr().unwrap(), V256::splat(1.0));
        assert_eq!(rx.getr().unwrap(), V256::splat(2.0));
        // Each sender sees only the other's word.
        assert_eq!(
            ports[Coord::new(1, 0).id()].try_getr(),
            Some(V256::splat(2.0))
        );
        assert_eq!(
            ports[Coord::new(1, 2).id()].try_getr(),
            Some(V256::splat(1.0))
        );
        assert_eq!(ports[Coord::new(1, 0).id()].try_getr(), None);
        assert_eq!(ports[Coord::new(1, 2).id()].try_getr(), None);
    }

    #[test]
    fn panels_arrive_intact_and_count_per_copy() {
        let mesh = Mesh::new();
        let ports = mesh.ports();
        // 8 words, well inside the host buffer depth, so the
        // send-then-drain below cannot block.
        let panel: Vec<f64> = (0..32).map(|i| i as f64 * 0.5).collect();
        ports[Coord::new(4, 4).id()]
            .row_bcast_panel(&panel)
            .unwrap();
        ports[Coord::new(4, 4).id()]
            .col_bcast_panel(&panel)
            .unwrap();
        let mut row_out = vec![0.0; 32];
        let mut col_out = vec![0.0; 32];
        ports[Coord::new(4, 0).id()]
            .get_panel(false, &mut row_out)
            .unwrap();
        ports[Coord::new(7, 4).id()]
            .get_panel(true, &mut col_out)
            .unwrap();
        assert_eq!(row_out, panel);
        assert_eq!(col_out, panel);
        // The ports fold their tallies into the mesh when they drop.
        drop(ports);
        let (stats, grid) = (mesh.stats(), mesh.grid_stats());
        assert_eq!(stats.row_words_sent, 8 * 7);
        assert_eq!(stats.col_words_received, 8);
        assert_eq!(stats.words_gathered, 0, "clean windows are lent in place");
        assert_eq!(grid.cells[4][4].col_sent, 8 * 7);
        assert_eq!(grid.cells[7][4].col_recv, 8);
    }

    #[test]
    fn stats_count_messages() {
        let mesh = Mesh::new();
        let ports = mesh.ports();
        ports[0].row_bcast(V256::ZERO).unwrap();
        ports[0].col_bcast(V256::ZERO).unwrap();
        drop(ports);
        let s = mesh.stats();
        // A row broadcast enqueues 7 copies; so does a column broadcast.
        assert_eq!(s.row_words_sent, 7);
        assert_eq!(s.col_words_sent, 7);
        let g = mesh.grid_stats();
        assert_eq!(g.cells[0][0].row_sent, 7);
        assert_eq!(g.cells[0][0].col_sent, 7);
    }
}
