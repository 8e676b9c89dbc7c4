//! Mesh construction and per-CPE ports.
//!
//! Each mesh row and each mesh column has one lock-free broadcast ring,
//! 16 in all. A broadcast writes each word once; each of the line's
//! other seven CPEs reads it through its own cursor, and the injector's
//! per-mate drops ride in the slot's skip mask. A sender claims its
//! line's ring for each episode. The collective data-sharing schedule
//! (§III-B of the paper) has one sender per row/column group per strip
//! step — an invariant `sw-lint`'s multi-sender rendezvous pass checks
//! statically — so the claim is uncontended there, and it serializes a
//! schedule that breaks the rule instead of racing. Each ring holds
//! [`HOST_BUFFER_DEPTH`] words, a host-side depth the simulated clocks
//! never see.
//!
//! Above the rings, each line keeps a strip-step turn (see `turn.rs`):
//! a broadcast waits until the line's earlier steps are done, and
//! [`MeshPort::end_step`] hands the line on. That is what paces the
//! collective strip steps — the host stand-in for the hardware's
//! blocking `getr`/`getc` — so the runtime needs no barrier between
//! them. Ports that never end a step are never gated.
//!
//! Besides the single-word `getr`/`getc` and broadcasts the ISA
//! kernels use, the port offers *bulk* operations
//! ([`MeshPort::row_bcast_panel`], [`MeshPort::get_panel`],
//! [`MeshPort::row_bcast_words`], …) that move a whole word group in
//! one synchronization episode — while still consuming one `send_idx`
//! per word, so the fault injector makes one drop/wedge decision per
//! word either way.
//!
//! Traffic is tallied in plain cells of the `!Sync` port and folded
//! into the mesh-wide [`MeshStats`] and the port's grid cell once, when
//! the port drops (unwinding included); only starved receives count at
//! once. [`Mesh::stats`] and [`Mesh::grid_stats`] therefore cover the
//! ports dropped so far.

use crate::error::MeshError;
use crate::ring::{Backoff, BroadcastRing, Episode};
use crate::stats::{GridCounters, MeshCounters, MeshGridStats, MeshStats};
use crate::turn::{LineTurn, Steps};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;
use sw_arch::consts::MESH_TRANSIT_CYCLES;
use sw_arch::coord::{Coord, MESH_COLS, MESH_ROWS, N_CPES};
use sw_arch::V256;
use sw_faults::FaultInjector;
use sw_probe::flight::{self, EventKind, FlightRecorder};
use sw_probe::trace::{Tracer, TrackId};

/// Default time a blocked send/receive waits before declaring the
/// communication scheme deadlocked.
const DEFAULT_TIMEOUT: Duration = Duration::from_secs(10);

/// Host buffer depth of the mesh, in 256-bit words: the slots of each
/// line's broadcast ring.
///
/// This is a host-performance knob, not the hardware's 8-entry receive
/// buffer: no simulated clock reads it (`CpeCtx` charges mesh time per
/// word), so it bounds only how far a sender may run ahead of its
/// slowest mate in wall time. Deep enough that a strip step's stream
/// (128 words per broadcaster at test blocking) rarely blocks.
pub const HOST_BUFFER_DEPTH: usize = 512;

/// The mesh transport, named in the tune-cache key.
///
/// There is one transport, the per-line broadcast rings. This
/// one-variant enum exists only because the benchmark passes
/// `MeshTransport::default()` to `tuner::resolve`, `tuner::resolve_in`
/// and `TuneCache::key`; it goes, with those parameters, in the next
/// change to the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MeshTransport {
    /// One lock-free broadcast ring per mesh row and per mesh column.
    #[default]
    Ring,
}

impl MeshTransport {
    /// The lowercase name the tune-cache key carries.
    pub fn name(self) -> &'static str {
        match self {
            MeshTransport::Ring => "ring",
        }
    }
}

/// The 8×8 register-communication mesh. Build one per core group, hand
/// the 64 [`MeshPort`]s to the CPE threads.
pub struct Mesh {
    ports: Mutex<Option<Vec<MeshPort>>>,
    counters: Arc<MeshCounters>,
    grid: Arc<GridCounters>,
}

impl Default for Mesh {
    fn default() -> Self {
        Self::new()
    }
}

impl Mesh {
    /// Builds a mesh with the default deadlock timeout.
    pub fn new() -> Self {
        Self::with_timeout(DEFAULT_TIMEOUT)
    }

    /// Builds a mesh whose blocked operations fail with
    /// [`MeshError::Deadlock`] after `timeout`.
    pub fn with_timeout(timeout: Duration) -> Self {
        let counters = Arc::new(MeshCounters::default());
        let grid = Arc::new(GridCounters::default());
        let links = build_links();
        let row_turns: Vec<Arc<LineTurn>> =
            (0..MESH_ROWS).map(|_| Arc::new(LineTurn::new())).collect();
        let col_turns: Vec<Arc<LineTurn>> =
            (0..MESH_COLS).map(|_| Arc::new(LineTurn::new())).collect();
        let ports = links
            .into_iter()
            .enumerate()
            .map(|(id, (row, col))| {
                let coord = Coord::from_id(id);
                MeshPort {
                    coord,
                    row,
                    col,
                    steps: Steps::new(
                        Arc::clone(&row_turns[coord.row as usize]),
                        Arc::clone(&col_turns[coord.col as usize]),
                    ),
                    tally: Tally::default(),
                    counters: Arc::clone(&counters),
                    grid: Arc::clone(&grid),
                    injector: None,
                    cancel: None,
                    sends: Cell::new(0),
                    timeout,
                    trace: None,
                    flight: None,
                }
            })
            .collect();
        Mesh {
            ports: Mutex::new(Some(ports)),
            counters,
            grid,
        }
    }

    /// Installs a fault injector consulted on every broadcast (word
    /// drops and the wedge scenario). Like [`Mesh::set_tracer`], must
    /// be called before the ports are taken.
    pub fn set_fault_injector(&self, injector: &Arc<FaultInjector>) {
        let mut guard = self.ports.lock().unwrap_or_else(|e| e.into_inner());
        let ports = guard
            .as_mut()
            .expect("Mesh::set_fault_injector must be called before the ports are taken");
        for p in ports.iter_mut() {
            p.injector = Some(Arc::clone(injector));
        }
    }

    /// Installs the run's cancel flag: once it is raised, any blocked
    /// wait of a port — for its line's turn, a ring claim, ring space or
    /// a word — gives up with [`MeshError::Cancelled`] instead of
    /// waiting out the deadlock fuse, so a cancelled run
    /// unwinds promptly even where a peer stopped mid-step. The flag is
    /// polled only while waiting. Like [`Mesh::set_fault_injector`],
    /// must be called before the ports are taken.
    pub fn set_cancel_flag(&self, flag: &Arc<AtomicBool>) {
        let mut guard = self.ports.lock().unwrap_or_else(|e| e.into_inner());
        let ports = guard
            .as_mut()
            .expect("Mesh::set_cancel_flag must be called before the ports are taken");
        for p in ports.iter_mut() {
            p.cancel = Some(Arc::clone(flag));
        }
    }

    /// Attaches the run's flight recorder: every synchronization
    /// episode (and every injected mesh fault) is then recorded on the
    /// owning CPE's event ring, stamped with that CPE's current clock.
    /// The port records *events only* — mesh time is charged by the
    /// `CpeCtx` wrappers, because kernel-driven mesh traffic is already
    /// inside the kernel's cycle report. Like [`Mesh::set_tracer`],
    /// must be called before the ports are taken.
    pub fn set_flight_recorder(&self, recorder: &Arc<FlightRecorder>) {
        let mut guard = self.ports.lock().unwrap_or_else(|e| e.into_inner());
        let ports = guard
            .as_mut()
            .expect("Mesh::set_flight_recorder must be called before the ports are taken");
        for p in ports.iter_mut() {
            p.flight = Some(Arc::clone(recorder));
        }
    }

    /// Per-CPE traffic snapshot (the rendezvous summary's input): the
    /// dropped ports' traffic, plus every starved receive so far.
    pub fn grid_stats(&self) -> MeshGridStats {
        self.grid.snapshot()
    }

    /// Attaches a simulated-time tracer: every broadcast then emits a
    /// [`MESH_TRANSIT_CYCLES`]-per-word span on the link it occupies,
    /// one track per row link and one per column link (process
    /// `"mesh"`). Link time is a shared per-track cursor, so broadcasts
    /// from CPEs sharing a link serialize on the trace exactly as they
    /// would on the wire. Must be called before [`Mesh::ports`]; a
    /// disabled tracer is a no-op.
    pub fn set_tracer(&self, tracer: &Tracer) {
        if !tracer.is_enabled() {
            return;
        }
        let mut guard = self.ports.lock().unwrap();
        let ports = guard
            .as_mut()
            .expect("Mesh::set_tracer must be called before the ports are taken");
        let rows: Vec<LinkTrace> = (0..MESH_ROWS)
            .map(|r| LinkTrace::new(tracer.track("mesh", format!("row {r}"))))
            .collect();
        let cols: Vec<LinkTrace> = (0..MESH_COLS)
            .map(|c| LinkTrace::new(tracer.track("mesh", format!("col {c}"))))
            .collect();
        for p in ports.iter_mut() {
            p.trace = Some(PortTrace {
                tracer: tracer.clone(),
                row: rows[p.coord.row as usize].clone(),
                col: cols[p.coord.col as usize].clone(),
            });
        }
    }

    /// Takes the 64 ports (id order). Panics if called twice — each CPE
    /// thread owns its port exclusively.
    pub fn ports(&self) -> Vec<MeshPort> {
        self.ports
            .lock()
            .unwrap()
            .take()
            .expect("Mesh::ports may only be taken once")
    }

    /// Snapshot of the traffic of the ports dropped so far.
    pub fn stats(&self) -> MeshStats {
        self.counters.snapshot()
    }
}

/// Wires the mesh: one [`BroadcastRing`] per mesh row and one per mesh
/// column. A CPE is member `col` of its row's ring and member `row` of
/// its column's ring, so a member's position is also its index in
/// [`Coord::row_mates`] / [`Coord::col_mates`] order.
fn build_links() -> Vec<(Link, Link)> {
    let rows: Vec<Arc<BroadcastRing>> = (0..MESH_ROWS)
        .map(|_| Arc::new(BroadcastRing::new(MESH_COLS, HOST_BUFFER_DEPTH)))
        .collect();
    let cols: Vec<Arc<BroadcastRing>> = (0..MESH_COLS)
        .map(|_| Arc::new(BroadcastRing::new(MESH_ROWS, HOST_BUFFER_DEPTH)))
        .collect();
    (0..N_CPES)
        .map(|id| {
            let coord = Coord::from_id(id);
            let (r, c) = (coord.row as usize, coord.col as usize);
            (
                Link {
                    ring: Arc::clone(&rows[r]),
                    pos: c,
                },
                Link {
                    ring: Arc::clone(&cols[c]),
                    pos: r,
                },
            )
        })
        .collect()
}

/// A port's link to one network (its mesh row or its mesh column): this
/// CPE's member position on the line's broadcast ring.
struct Link {
    ring: Arc<BroadcastRing>,
    pos: usize,
}

impl Link {
    /// Opens a sending episode: claims the line's ring, waiting out
    /// another sender's episode.
    fn open(&self, wait: &Wait<'_>) -> Result<Outbox<'_>, Stop> {
        wait.until(|| self.ring.try_claim(self.pos))
            .map(|ep| Outbox { ep, pos: self.pos })
    }

    /// Non-blocking receive.
    fn try_recv(&self) -> Option<V256> {
        self.ring.try_pop(self.pos)
    }

    /// Blocking receive.
    fn recv(&self, wait: &Wait<'_>) -> Result<V256, Stop> {
        wait.until(|| self.ring.try_pop(self.pos))
    }
}

/// An open sending episode on one network (see [`Link::open`]): the
/// claimed ring and the sender's member position on it.
struct Outbox<'a> {
    ep: Episode<'a>,
    pos: usize,
}

impl Outbox<'_> {
    /// Sends `v` to every mate whose bit in `dropped` (mate order) is
    /// clear, blocking while the ring is full.
    fn send(&mut self, v: V256, dropped: u8, wait: &Wait<'_>) -> Result<(), Stop> {
        let skip = mates_to_members(dropped, self.pos);
        wait.until(|| self.ep.try_push(v, skip).then_some(()))
    }
}

/// Why a blocked mesh operation gave up.
enum Stop {
    /// The deadlock fuse tripped.
    Fuse,
    /// The run's cancel flag was raised.
    Cancelled,
}

impl Stop {
    /// The flight-recorder outcome of an episode that stopped so.
    fn outcome(&self, get: bool) -> u32 {
        match (self, get) {
            (Stop::Fuse, false) => flight::mesh_outcome::DEADLOCK,
            (Stop::Fuse, true) => flight::mesh_outcome::STARVED,
            (Stop::Cancelled, _) => flight::mesh_outcome::CANCELLED,
        }
    }
}

/// How a port's blocked operations wait: the deadlock fuse, plus the
/// run's cancel flag.
struct Wait<'a> {
    timeout: Duration,
    cancel: Option<&'a AtomicBool>,
}

impl Wait<'_> {
    /// Retries `attempt` with spin → yield → park backoff until it
    /// yields a value, the fuse trips or the run is cancelled.
    fn until<T>(&self, mut attempt: impl FnMut() -> Option<T>) -> Result<T, Stop> {
        if let Some(v) = attempt() {
            return Ok(v);
        }
        let mut backoff = Backoff::new(self.timeout);
        loop {
            if let Some(v) = attempt() {
                return Ok(v);
            }
            // Relaxed: a stale read only delays the unwind by a round.
            if self.cancel.is_some_and(|c| c.load(Ordering::Relaxed)) {
                return Err(Stop::Cancelled);
            }
            if !backoff.snooze() {
                return Err(Stop::Fuse);
            }
        }
    }
}

/// Re-indexes a mate-order bit mask (the sender itself left out) into
/// ring member positions (the sender at `pos`).
fn mates_to_members(mates: u8, pos: usize) -> u8 {
    let below = mates & ((1u16 << pos) - 1) as u8;
    let above = ((mates as u16 >> pos) << (pos + 1)) as u8;
    below | above
}

/// One mesh link's timeline: a trace track plus the simulated-cycle
/// cursor all broadcasts on that link advance through.
#[derive(Clone)]
struct LinkTrace {
    track: TrackId,
    clock: Arc<AtomicU64>,
}

impl LinkTrace {
    fn new(track: TrackId) -> Self {
        LinkTrace {
            track,
            clock: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Claims the next `n_words * MESH_TRANSIT_CYCLES` window and emits
    /// one span covering it. For `n_words == 1` this is exactly the old
    /// per-word span; a batch occupies the link for the same simulated
    /// time as its words would individually, in one span.
    fn emit(&self, tracer: &Tracer, name: &'static str, copies: u64, n_words: u64) {
        if n_words == 0 {
            return;
        }
        let dur = n_words * MESH_TRANSIT_CYCLES;
        // Relaxed: the clock is a statistics ledger, not a
        // synchronization point. The RMW keeps `clock == Σ busy`
        // exact under concurrent adds; readers either join first or
        // accept a momentarily stale total.
        let t0 = self.clock.fetch_add(dur, Ordering::Relaxed);
        tracer.span_args(
            self.track,
            "mesh",
            name,
            t0,
            t0 + dur,
            &[("bytes", copies * 32)],
        );
    }
}

/// Per-port tracing state installed by [`Mesh::set_tracer`].
struct PortTrace {
    tracer: Tracer,
    row: LinkTrace,
    col: LinkTrace,
}

/// A port's delivered traffic in words, indexed by network (0 its mesh
/// row, 1 its mesh column).
#[derive(Default)]
struct Tally {
    sent: [Cell<u64>; 2],
    recv: [Cell<u64>; 2],
}

impl Tally {
    fn add(counts: &[Cell<u64>; 2], col_net: bool, n: u64) {
        let c = &counts[col_net as usize];
        c.set(c.get() + n);
    }
}

/// One CPE's window onto the mesh: its member positions on its row's
/// and its column's broadcast rings.
///
/// A port is `Send` but deliberately `!Sync`: exactly one thread drives
/// it, so each ring member position has one reader thread, which is
/// what makes the rings' consumer cursors sound — and what
/// lets the port keep its step index and traffic tally in plain cells.
pub struct MeshPort {
    coord: Coord,
    row: Link,
    col: Link,
    /// This port's strip step and the line turns it holds.
    steps: Steps,
    /// Traffic since the port was taken; folded into `counters` and
    /// `grid` when the port drops.
    tally: Tally,
    counters: Arc<MeshCounters>,
    grid: Arc<GridCounters>,
    injector: Option<Arc<FaultInjector>>,
    /// Raised when the run is cancelled; every blocked wait then gives
    /// up (see [`Mesh::set_cancel_flag`]).
    cancel: Option<Arc<AtomicBool>>,
    /// Broadcast words issued by this port (the injector's
    /// deterministic per-send coordinate).
    sends: Cell<u64>,
    timeout: Duration,
    trace: Option<PortTrace>,
    /// The run's black box; episodes/faults are recorded on this
    /// port's CPE ring (events only, no time charging — see
    /// [`Mesh::set_flight_recorder`]).
    flight: Option<Arc<FlightRecorder>>,
}

impl MeshPort {
    /// The CPE this port belongs to.
    #[inline]
    pub fn coord(&self) -> Coord {
        self.coord
    }

    fn cell(&self) -> &crate::stats::CellCounters {
        self.grid
            .cell(self.coord.row as usize, self.coord.col as usize)
    }

    /// Records one synchronization episode on this CPE's flight ring.
    fn flight_episode(&self, col_net: bool, get: bool, outcome: u32, words: u64) {
        if let Some(f) = &self.flight {
            f.record(
                self.coord.id(),
                EventKind::MeshEpisode,
                flight::mesh_episode_code(col_net, get, outcome),
                words,
            );
        }
    }

    /// Records an injected mesh fault on this CPE's flight ring.
    fn flight_fault(&self, code: u32, arg: u64) {
        if let Some(f) = &self.flight {
            f.record(self.coord.id(), EventKind::FaultDecision, code, arg);
        }
    }

    /// How this port's blocked operations wait.
    fn wait(&self) -> Wait<'_> {
        Wait {
            timeout: self.timeout,
            cancel: self.cancel.as_deref(),
        }
    }

    /// The error for a blocked `op` that gave up: a deadlock when the
    /// fuse tripped, a cancellation otherwise.
    fn stopped(&self, stop: Stop, op: &'static str) -> MeshError {
        let coord = (self.coord.row, self.coord.col);
        match stop {
            Stop::Cancelled => MeshError::Cancelled { coord, op },
            Stop::Fuse => MeshError::Deadlock {
                coord,
                op,
                timeout: self.timeout,
            },
        }
    }

    /// A broadcast episode that gave up after `words` completed words:
    /// records it on the flight ring and builds the error.
    fn send_stopped(&self, stop: Stop, col_net: bool, op: &'static str, words: u64) -> MeshError {
        self.flight_episode(col_net, false, stop.outcome(false), words);
        self.stopped(stop, op)
    }

    /// The shared broadcast path of both networks, batched over
    /// `n_words` words produced by `word_at`: takes the line's turn
    /// for this port's strip step, consults the fault injector per word
    /// (wedge suppression, per-mate word drops), enqueues to the
    /// surviving mates, and tallies and traces ONCE for the whole
    /// batch. A blocked send becomes [`MeshError::Deadlock`] after
    /// first accounting the words that completed — exactly what
    /// `n_words` per-word calls would have recorded.
    fn bcast_stream(
        &self,
        n_words: usize,
        word_at: impl Fn(usize) -> V256,
        col_net: bool,
        op: &'static str,
    ) -> Result<(), MeshError> {
        if n_words == 0 {
            return Ok(());
        }
        let wait = self.wait();
        // A wedged sender takes its turn too, so that `end_step` can
        // pass it on in order. A stop here means an earlier strip step
        // still holds the line.
        if let Err(stop) = wait.until(|| self.steps.try_take(col_net).then_some(())) {
            return Err(self.send_stopped(stop, col_net, op, 0));
        }
        let send_base = self.sends.get();
        self.sends.set(send_base + n_words as u64);
        if let Some(inj) = &self.injector {
            if inj.cpe_wedged(self.coord.id()) {
                // The wedged CPE silently stops sending: its group
                // peers starve and the deadlock fuse trips downstream.
                // One suppression per word.
                inj.note_wedge_suppressions(n_words as u64);
                self.flight_fault(flight::fault_code::MESH_WEDGE, send_base);
                self.flight_episode(col_net, false, flight::mesh_outcome::WEDGED, n_words as u64);
                return Ok(());
            }
        }
        let (link, mates) = if col_net {
            (&self.col, MESH_ROWS - 1)
        } else {
            (&self.row, MESH_COLS - 1)
        };
        let mut delivered = 0u64;
        let flush = |delivered: u64, completed_words: u64| {
            Tally::add(&self.tally.sent, col_net, delivered);
            if let Some(t) = &self.trace {
                let link = if col_net { &t.col } else { &t.row };
                let name = if col_net { "col.bcast" } else { "row.bcast" };
                link.emit(&t.tracer, name, delivered, completed_words);
            }
        };
        // A stop here means another sender holds the line.
        let mut outbox = match link.open(&wait) {
            Ok(outbox) => outbox,
            Err(stop) => return Err(self.send_stopped(stop, col_net, op, 0)),
        };
        for w in 0..n_words {
            let send_idx = send_base + w as u64;
            let v = word_at(w);
            // The injector's per-(word, mate) decisions, in mate order.
            let mut dropped = 0u8;
            if let Some(inj) = &self.injector {
                for i in 0..mates {
                    let site = send_idx * 8 + i as u64;
                    if inj.mesh_drop(self.coord.id(), site) {
                        self.flight_fault(flight::fault_code::MESH_DROP, site);
                        dropped |= 1 << i;
                    }
                }
            }
            if let Err(stop) = outbox.send(v, dropped, &wait) {
                // A mate is not draining. Words 0..w completed; word w
                // accounts nothing.
                drop(outbox);
                flush(delivered, w as u64);
                return Err(self.send_stopped(stop, col_net, op, w as u64));
            }
            delivered += mates as u64 - u64::from(dropped.count_ones());
        }
        drop(outbox);
        flush(delivered, n_words as u64);
        self.flight_episode(col_net, false, flight::mesh_outcome::OK, n_words as u64);
        Ok(())
    }

    /// The shared receive path of both networks, batched over
    /// `n_words`: drains words into `sink(word_index, word)` and
    /// tallies once. A timeout first accounts the words that did
    /// arrive, then records one starved word — exactly what `n_words`
    /// per-word calls would have recorded.
    fn get_stream(
        &self,
        n_words: usize,
        mut sink: impl FnMut(usize, V256),
        col_net: bool,
        op: &'static str,
    ) -> Result<(), MeshError> {
        let rx = if col_net { &self.col } else { &self.row };
        let wait = self.wait();
        for w in 0..n_words {
            match rx.recv(&wait) {
                Ok(v) => sink(w, v),
                Err(stop) => {
                    Tally::add(&self.tally.recv, col_net, w as u64);
                    if let Stop::Fuse = stop {
                        // One word of unmet demand: the rendezvous
                        // summary's deadlock signature, counted at once
                        // so a live mesh shows who is starving.
                        self.cell().add_starved(col_net);
                    }
                    self.flight_episode(col_net, true, stop.outcome(true), w as u64);
                    return Err(self.stopped(stop, op));
                }
            }
        }
        Tally::add(&self.tally.recv, col_net, n_words as u64);
        if n_words > 0 {
            self.flight_episode(col_net, true, flight::mesh_outcome::OK, n_words as u64);
        }
        Ok(())
    }

    /// Ends this CPE's current strip step: hands the turn of each line
    /// it broadcast on this step (a wedged CPE's suppressed broadcasts
    /// included) to the line's next step, and advances the port's step
    /// index. A collective schedule calls it once per strip step on
    /// every CPE; a port that never calls it is never gated.
    pub fn end_step(&self) {
        self.steps.end_step();
    }

    /// Row broadcast: puts `v` into the row receive buffer of the other
    /// 7 CPEs in this CPE's mesh row (what `vldr`'s broadcast half
    /// does). Blocks on full buffers; fails on deadlock timeout.
    pub fn row_bcast(&self, v: V256) -> Result<(), MeshError> {
        self.bcast_stream(1, |_| v, false, "row-broadcast")
    }

    /// Column broadcast: puts `v` into the column receive buffer of the
    /// other 7 CPEs in this CPE's mesh column (what `lddec`'s broadcast
    /// half does).
    pub fn col_bcast(&self, v: V256) -> Result<(), MeshError> {
        self.bcast_stream(1, |_| v, true, "col-broadcast")
    }

    /// Receives one word from the row network (the `getr` instruction).
    pub fn getr(&self) -> Result<V256, MeshError> {
        let mut out = V256::ZERO;
        self.get_stream(1, |_, v| out = v, false, "getr")?;
        Ok(out)
    }

    /// Receives one word from the column network (the `getc`
    /// instruction).
    pub fn getc(&self) -> Result<V256, MeshError> {
        let mut out = V256::ZERO;
        self.get_stream(1, |_, v| out = v, true, "getc")?;
        Ok(out)
    }

    /// Non-blocking receive on the row (`col_net == false`) or column
    /// network.
    fn try_get(&self, col_net: bool) -> Option<V256> {
        let v = if col_net { &self.col } else { &self.row }.try_recv();
        if v.is_some() {
            Tally::add(&self.tally.recv, col_net, 1);
        }
        v
    }

    /// Non-blocking `getr`, for tests and drain checks.
    pub fn try_getr(&self) -> Option<V256> {
        self.try_get(false)
    }

    /// Non-blocking `getc`.
    pub fn try_getc(&self) -> Option<V256> {
        self.try_get(true)
    }

    /// Broadcasts a group of 256-bit words along the row in one
    /// synchronization episode (one batched counter/trace update; one
    /// `send_idx` consumed per word).
    pub fn row_bcast_words(&self, words: &[V256]) -> Result<(), MeshError> {
        self.bcast_stream(words.len(), |w| words[w], false, "row-broadcast")
    }

    /// Broadcasts a group of 256-bit words along the column in one
    /// synchronization episode.
    pub fn col_bcast_words(&self, words: &[V256]) -> Result<(), MeshError> {
        self.bcast_stream(words.len(), |w| words[w], true, "col-broadcast")
    }

    /// Receives a group of 256-bit words from the row network in one
    /// synchronization episode.
    pub fn getr_words(&self, out: &mut [V256]) -> Result<(), MeshError> {
        self.get_stream(out.len(), |w, v| out[w] = v, false, "getr")
    }

    /// Receives a group of 256-bit words from the column network in one
    /// synchronization episode.
    pub fn getc_words(&self, out: &mut [V256]) -> Result<(), MeshError> {
        self.get_stream(out.len(), |w, v| out[w] = v, true, "getc")
    }

    /// Broadcasts a whole panel (length multiple of 4 doubles) along
    /// the row, 256 bits at a time — the panel-granularity view of the
    /// per-iteration `vldr` stream the kernel performs. The entire
    /// panel is one synchronization episode with one batched update to
    /// counters and trace.
    pub fn row_bcast_panel(&self, panel: &[f64]) -> Result<(), MeshError> {
        assert_eq!(
            panel.len() % 4,
            0,
            "panel length must be a multiple of 4 doubles"
        );
        self.bcast_stream(
            panel.len() / 4,
            |w| V256::load(&panel[4 * w..4 * w + 4]),
            false,
            "row-broadcast",
        )
    }

    /// Broadcasts a whole panel along the column.
    pub fn col_bcast_panel(&self, panel: &[f64]) -> Result<(), MeshError> {
        assert_eq!(
            panel.len() % 4,
            0,
            "panel length must be a multiple of 4 doubles"
        );
        self.bcast_stream(
            panel.len() / 4,
            |w| V256::load(&panel[4 * w..4 * w + 4]),
            true,
            "col-broadcast",
        )
    }

    /// Receives a whole panel (length multiple of 4 doubles) from the
    /// row (`col_net == false`) or column network in one
    /// synchronization episode.
    pub fn get_panel(&self, col_net: bool, out: &mut [f64]) -> Result<(), MeshError> {
        assert_eq!(
            out.len() % 4,
            0,
            "panel length must be a multiple of 4 doubles"
        );
        let op = if col_net { "getc" } else { "getr" };
        self.get_stream(
            out.len() / 4,
            |w, v| v.store(&mut out[4 * w..4 * w + 4]),
            col_net,
            op,
        )
    }

    /// Receives a whole panel from the row network.
    pub fn recv_row_panel(&self, out: &mut [f64]) -> Result<(), MeshError> {
        self.get_panel(false, out)
    }

    /// Receives a whole panel from the column network.
    pub fn recv_col_panel(&self, out: &mut [f64]) -> Result<(), MeshError> {
        self.get_panel(true, out)
    }
}

impl Drop for MeshPort {
    /// Folds the port's traffic into the mesh-wide counters and its
    /// grid cell — also while unwinding, so a failed run still reports
    /// the words it moved.
    fn drop(&mut self) {
        let (sent, recv) = (&self.tally.sent, &self.tally.recv);
        self.counters.add_row_sent(sent[0].get());
        self.counters.add_col_sent(sent[1].get());
        self.counters.add_row_recv(recv[0].get());
        self.counters.add_col_recv(recv[1].get());
        let cell = self.cell();
        for col_net in [false, true] {
            cell.add_sent(col_net, sent[col_net as usize].get());
            cell.add_recv(col_net, recv[col_net as usize].get());
        }
    }
}

// A port crossing threads is the whole point; the link endpoints are
// Send, and Coord/counters are Send + Sync. (It is intentionally NOT
// Sync — see the type docs.)
const _: () = {
    fn assert_send<T: Send>() {}
    fn check() {
        assert_send::<MeshPort>();
    }
    let _ = check;
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ports_taken_once() {
        let mesh = Mesh::new();
        let p = mesh.ports();
        assert_eq!(p.len(), N_CPES);
        assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| mesh.ports())).is_err());
    }

    #[test]
    fn traced_broadcasts_serialize_on_the_link() {
        let tracer = Tracer::enabled();
        let mesh = Mesh::new();
        mesh.set_tracer(&tracer);
        let ports = mesh.ports();
        // Two senders in row 3 and one in column 5 — the row spans must
        // share one track and tile it back to back.
        ports[Coord::new(3, 0).id()].row_bcast(V256::ZERO).unwrap();
        ports[Coord::new(3, 1).id()].row_bcast(V256::ZERO).unwrap();
        ports[Coord::new(0, 5).id()].col_bcast(V256::ZERO).unwrap();
        let data = tracer.take();
        assert_eq!(data.tracks.len(), MESH_ROWS + MESH_COLS);
        assert_eq!(data.spans.len(), 3);
        let row_spans: Vec<_> = data
            .spans
            .iter()
            .filter(|s| s.name == "row.bcast")
            .collect();
        assert_eq!(row_spans.len(), 2);
        assert_eq!(row_spans[0].track, row_spans[1].track);
        let mut starts = [row_spans[0].start, row_spans[1].start];
        starts.sort_unstable();
        assert_eq!(starts, [0, MESH_TRANSIT_CYCLES]);
        assert_eq!(row_spans[0].end - row_spans[0].start, MESH_TRANSIT_CYCLES);
        // 7 delivered copies of 32 bytes each.
        assert_eq!(row_spans[0].args, vec![("bytes", 7 * 32)]);
    }

    #[test]
    fn batched_broadcast_emits_one_span_same_link_time() {
        let tracer = Tracer::enabled();
        let mesh = Mesh::new();
        mesh.set_tracer(&tracer);
        let ports = mesh.ports();
        let words = [V256::ZERO; 4];
        ports[Coord::new(3, 0).id()]
            .row_bcast_words(&words)
            .unwrap();
        ports[Coord::new(3, 1).id()].row_bcast(V256::ZERO).unwrap();
        let data = tracer.take();
        let row_spans: Vec<_> = data
            .spans
            .iter()
            .filter(|s| s.name == "row.bcast")
            .collect();
        assert_eq!(row_spans.len(), 2, "one span per episode, not per word");
        let mut spans = row_spans.clone();
        spans.sort_by_key(|s| s.start);
        // The 4-word batch occupies 4 transit windows; the following
        // single word starts where the batch left off.
        assert_eq!(spans[0].start, 0);
        assert_eq!(spans[0].end, 4 * MESH_TRANSIT_CYCLES);
        assert_eq!(spans[0].args, vec![("bytes", 4 * 7 * 32)]);
        assert_eq!(spans[1].start, 4 * MESH_TRANSIT_CYCLES);
        assert_eq!(spans[1].end, 5 * MESH_TRANSIT_CYCLES);
    }

    #[test]
    fn disabled_tracer_is_a_no_op() {
        let mesh = Mesh::new();
        mesh.set_tracer(&Tracer::disabled());
        let ports = mesh.ports();
        assert!(ports[0].trace.is_none());
    }

    #[test]
    fn links_wire_each_cpe_to_its_own_lines() {
        for p in &Mesh::new().ports() {
            assert_eq!(p.row.pos, p.coord.col as usize);
            assert_eq!(p.col.pos, p.coord.row as usize);
        }
    }

    #[test]
    fn mate_masks_skip_the_sender_position() {
        // Mate i sits at position i below the sender and i + 1 above.
        assert_eq!(mates_to_members(0b000_0001, 0), 0b0000_0010);
        assert_eq!(mates_to_members(0b100_0001, 7), 0b0100_0001);
        assert_eq!(mates_to_members(0b111_1111, 3), 0b1111_0111);
        assert_eq!(mates_to_members(0b000_1000, 3), 0b0001_0000);
    }

    #[test]
    fn word_and_batch_paths_count_identically() {
        let word = Mesh::new();
        let wp = word.ports();
        let tx = &wp[Coord::new(2, 0).id()];
        let rx = &wp[Coord::new(2, 5).id()];
        for i in 0..8 {
            tx.row_bcast(V256::splat(i as f64)).unwrap();
        }
        let mut got_words = [0.0; 32];
        for chunk in got_words.chunks_exact_mut(4) {
            rx.getr().unwrap().store(chunk);
        }
        // One more word through the non-blocking receive.
        tx.row_bcast(V256::ZERO).unwrap();
        assert_eq!(rx.try_getr(), Some(V256::ZERO));

        let batch = Mesh::new();
        let bp = batch.ports();
        let words: Vec<V256> = (0..8).map(|i| V256::splat(i as f64)).collect();
        bp[Coord::new(2, 0).id()].row_bcast_words(&words).unwrap();
        let mut got_panel = [0.0; 32];
        bp[Coord::new(2, 5).id()]
            .get_panel(false, &mut got_panel)
            .unwrap();
        bp[Coord::new(2, 0).id()].row_bcast(V256::ZERO).unwrap();
        assert_eq!(bp[Coord::new(2, 5).id()].try_getr(), Some(V256::ZERO));

        assert_eq!(got_words, got_panel);
        // Live ports have folded nothing yet; the tallies land on drop.
        assert_eq!(word.stats(), MeshStats::default());
        drop((wp, bp));
        let stats = word.stats();
        assert_eq!(stats.row_words_sent, 9 * 7);
        assert_eq!(stats.row_words_received, 9);
        assert_eq!(word.grid_stats().cells[2][5].row_recv, 9);
        assert_eq!(stats, batch.stats());
        assert_eq!(word.grid_stats(), batch.grid_stats());
    }

    #[test]
    fn ring_turns_order_steps_even_when_the_later_sender_starts_first() {
        // Row 0 over two strip steps: (0,0) broadcasts at step 0, (0,1)
        // at step 1. The step-1 sender's thread starts first and never
        // waits for its step-0 words; only the line's turn holds it back
        // until (0,0) ends step 0. Both the word and the batch API.
        let first: Vec<V256> = (0..6).map(|i| V256::splat(i as f64)).collect();
        let second: Vec<V256> = (10..16).map(|i| V256::splat(i as f64)).collect();
        let want: Vec<V256> = first.iter().chain(&second).copied().collect();
        for bulk in [false, true] {
            let mesh = Mesh::with_timeout(Duration::from_secs(10));
            let mut row0: Vec<MeshPort> = mesh.ports().into_iter().take(MESH_COLS).collect();
            let mates = row0.split_off(2);
            let (early, late) = (row0.remove(0), row0.remove(0));
            let send = move |p: &MeshPort, words: &[V256]| {
                if bulk {
                    p.row_bcast_words(words).unwrap();
                } else {
                    words.iter().for_each(|&w| p.row_bcast(w).unwrap());
                }
            };
            let (first, second) = (&first, &second);
            let early = std::thread::scope(|s| {
                s.spawn(move || {
                    late.end_step(); // step 0: receives, reads nothing yet
                    send(&late, second);
                    late.end_step();
                });
                std::thread::sleep(Duration::from_millis(20));
                let step0 = s.spawn(move || {
                    send(&early, &first[..3]);
                    send(&early, &first[3..]); // a second episode, same step
                    early.end_step();
                    early
                });
                for p in mates {
                    let want = &want;
                    s.spawn(move || {
                        let got: Vec<V256> = want.iter().map(|_| p.getr().unwrap()).collect();
                        assert_eq!(&got, want, "bulk={bulk} {}", p.coord());
                    });
                }
                step0.join().unwrap()
            });
            assert_eq!(early.try_getr(), Some(second[0]));
        }
    }

    #[test]
    fn ring_turn_wait_is_released_by_the_cancel_flag() {
        // (3,2) sends at step 1, but nobody ever ends step 0 on row 3:
        // a 10 s fuse, and the run is cancelled after 20 ms.
        let mesh = Mesh::with_timeout(Duration::from_secs(10));
        let flag = Arc::new(AtomicBool::new(false));
        mesh.set_cancel_flag(&flag);
        let ports = mesh.ports();
        let p = &ports[Coord::new(3, 2).id()];
        p.end_step();
        let start = std::time::Instant::now();
        let err = std::thread::scope(|s| {
            s.spawn(|| {
                std::thread::sleep(Duration::from_millis(20));
                flag.store(true, Ordering::Relaxed);
            });
            p.row_bcast(V256::ZERO).unwrap_err()
        });
        assert_eq!(
            err,
            MeshError::Cancelled {
                coord: (3, 2),
                op: "row-broadcast"
            }
        );
        assert!(start.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn ring_step_without_a_sender_deadlocks_instead_of_misordering() {
        // Column 4 has no sender at step 0, so the step-1 sender never
        // gets the turn: the fuse trips, and no word reaches a mate.
        let timeout = Duration::from_millis(50);
        let mesh = Mesh::with_timeout(timeout);
        let ports = mesh.ports();
        for r in 0..8 {
            ports[Coord::new(r, 4).id()].end_step();
        }
        let err = ports[Coord::new(1, 4).id()]
            .col_bcast(V256::splat(1.0))
            .unwrap_err();
        assert_eq!(
            err,
            MeshError::Deadlock {
                coord: (1, 4),
                op: "col-broadcast",
                timeout,
            }
        );
        for r in 0..8 {
            assert_eq!(ports[Coord::new(r, 4).id()].try_getc(), None);
        }
        drop(ports);
        assert_eq!(mesh.stats(), MeshStats::default());
    }
}
