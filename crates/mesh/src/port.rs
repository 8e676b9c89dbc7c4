//! Mesh construction and per-CPE ports.
//!
//! Each mesh row and each mesh column has one broadcast ring, 16 in
//! all. A broadcast writes each word once; each of the line's other
//! seven CPEs reads it through its own cursor, and the injector's
//! per-mate drops ride in the slot's skip mask. A sender claims its
//! line's ring for each episode. The collective data-sharing schedule
//! (§III-B of the paper) has one sender per row/column group per strip
//! step — an invariant `sw-lint`'s multi-sender rendezvous pass checks
//! statically — so the claim is uncontended there, and it keeps a
//! schedule that breaks the rule from interleaving two senders' words
//! within an episode. Each ring holds [`HOST_BUFFER_DEPTH`] words, a
//! host-side depth the simulated clocks never see.
//!
//! Above the rings, each line keeps a strip-step turn (see `turn.rs`):
//! a broadcast waits until the line's earlier steps are done, and
//! [`MeshPort::end_step`] hands the line on. That is what paces the
//! collective strip steps — the host stand-in for the hardware's
//! blocking `getr`/`getc` — so the runtime needs no barrier between
//! them. Ports that never end a step are never gated.
//!
//! The one receive primitive is [`MeshPort::recv_window`]: it waits for
//! the port's next `n` words on one network and lends them where they
//! sit in the ring, as a [`Window`] the caller computes on until it
//! drops — the host analogue of a `getr` landing in a register that
//! feeds `vmad` directly. Only a window that drops have broken up, or
//! that outnumbers the ring's depth, is gathered into the port's
//! scratch instead. `getr`/`getc`, [`MeshPort::get_panel`] and the `*_words`
//! receives copy out of a window. Broadcasts — single words, word
//! groups ([`MeshPort::row_bcast_words`]) and panels
//! ([`MeshPort::row_bcast_panel`]) — publish whole runs of words per
//! synchronization episode, while still consuming one `send_idx` per
//! word, so the fault injector makes one drop/wedge decision per word
//! either way.
//!
//! A core group's ports all live on the thread that runs its CPE
//! fibers, so the rings, turns and tallies are plain cells and a port
//! is neither `Send` nor `Sync`. A port borrows the run's flight
//! recorder for the run. A blocked wait gives up once the fiber
//! executor finds the run deadlocked or cancelled
//! ([`fiber::deadlocked`], [`fiber::cancelled`]). Traffic is tallied in the port and
//! folded into the mesh-wide [`MeshStats`] and the port's grid cell
//! once, when the port drops (unwinding included); only starved
//! receives count at once. [`Mesh::stats`] and [`Mesh::grid_stats`]
//! therefore cover the ports dropped so far.

use crate::error::MeshError;
use crate::ring::{Backoff, BroadcastRing, Source};
use crate::stats::{GridCounters, MeshCounters, MeshGridStats, MeshStats};
use crate::turn::{LineTurn, Steps};
use std::cell::{Cell, RefCell};
use std::ops::Deref;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Duration;
use sw_arch::coord::{Coord, MESH_COLS, MESH_ROWS, N_CPES};
use sw_arch::V256;
use sw_check::fiber;
use sw_faults::FaultInjector;
use sw_probe::flight::{self, EventKind, FlightRecorder};

/// Default wall-clock fuse of a blocked send/receive. On the fiber
/// runtime the executor's exact deadlock detection ends a stuck run
/// first; the fuse is the outer bound.
const DEFAULT_TIMEOUT: Duration = Duration::from_secs(10);

/// Host buffer depth of the mesh, in 256-bit words: the slots of each
/// line's broadcast ring.
///
/// This is a host-performance knob, not the hardware's 8-entry receive
/// buffer: no simulated clock reads it (`CpeCtx` charges mesh time per
/// word), so it bounds only how far a sender may run ahead of its
/// slowest mate in wall time, and the longest receive window lent in
/// place. Deep enough that a strip step's stream (128 words per
/// broadcaster at test blocking) rarely blocks.
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
    /// One broadcast ring per mesh row and per mesh column.
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

/// The 8×8 register-communication mesh. Build one per core-group run,
/// on the thread that runs the CPE fibers, and hand each CPE its
/// [`MeshPort`]. `'f` is the borrow of the run's flight recorder.
pub struct Mesh<'f> {
    ports: RefCell<Option<Vec<MeshPort<'f>>>>,
    counters: Rc<MeshCounters>,
    grid: Rc<GridCounters>,
}

impl Default for Mesh<'_> {
    fn default() -> Self {
        Self::new()
    }
}

impl<'f> Mesh<'f> {
    /// Builds a mesh with the default deadlock timeout.
    pub fn new() -> Self {
        Self::with_timeout(DEFAULT_TIMEOUT)
    }

    /// Builds a mesh whose blocked operations fail with
    /// [`MeshError::Deadlock`] after `timeout` at the latest (sooner
    /// when the fiber executor finds the run deadlocked).
    pub fn with_timeout(timeout: Duration) -> Self {
        let counters = Rc::new(MeshCounters::default());
        let grid = Rc::new(GridCounters::default());
        let links = build_links();
        let row_turns: Vec<Rc<LineTurn>> = (0..MESH_ROWS).map(|_| Rc::default()).collect();
        let col_turns: Vec<Rc<LineTurn>> = (0..MESH_COLS).map(|_| Rc::default()).collect();
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
                        Rc::clone(&row_turns[coord.row as usize]),
                        Rc::clone(&col_turns[coord.col as usize]),
                    ),
                    tally: Tally::default(),
                    windows: Default::default(),
                    counters: Rc::clone(&counters),
                    grid: Rc::clone(&grid),
                    injector: None,
                    sends: Cell::new(0),
                    timeout,
                    flight: None,
                }
            })
            .collect();
        Mesh {
            ports: RefCell::new(Some(ports)),
            counters,
            grid,
        }
    }

    /// Applies `f` to every port; panics once the ports are taken.
    fn configure(&self, what: &str, f: impl FnMut(&mut MeshPort<'f>)) {
        let mut ports = self.ports.borrow_mut();
        let ports = ports
            .as_mut()
            .unwrap_or_else(|| panic!("Mesh::{what} must be called before the ports are taken"));
        ports.iter_mut().for_each(f);
    }

    /// Installs a fault injector consulted on every broadcast (word
    /// drops and the wedge scenario). Must be called before the ports
    /// are taken.
    pub fn set_fault_injector(&self, injector: &Arc<FaultInjector>) {
        self.configure("set_fault_injector", |p| {
            p.injector = Some(Arc::clone(injector))
        });
    }

    /// Attaches the run's flight recorder: every synchronization
    /// episode (and every injected mesh fault) is then recorded on the
    /// owning CPE's event ring, stamped with that CPE's current clock.
    /// The port records *events only* — mesh time is charged by the
    /// `CpeCtx` wrappers, because kernel-driven mesh traffic is already
    /// inside the kernel's cycle report. Like
    /// [`Mesh::set_fault_injector`], must be called before the ports
    /// are taken.
    pub fn set_flight_recorder(&self, recorder: &'f FlightRecorder) {
        self.configure("set_flight_recorder", |p| p.flight = Some(recorder));
    }

    /// Per-CPE traffic snapshot (the rendezvous summary's input): the
    /// dropped ports' traffic, plus every starved receive so far.
    pub fn grid_stats(&self) -> MeshGridStats {
        self.grid.snapshot()
    }

    /// Takes the 64 ports (id order). Panics if called twice — each CPE
    /// owns its port exclusively.
    pub fn ports(&self) -> Vec<MeshPort<'f>> {
        self.ports
            .borrow_mut()
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
    let rows: Vec<Rc<BroadcastRing>> = (0..MESH_ROWS)
        .map(|_| Rc::new(BroadcastRing::new(MESH_COLS, HOST_BUFFER_DEPTH)))
        .collect();
    let cols: Vec<Rc<BroadcastRing>> = (0..MESH_COLS)
        .map(|_| Rc::new(BroadcastRing::new(MESH_ROWS, HOST_BUFFER_DEPTH)))
        .collect();
    (0..N_CPES)
        .map(|id| {
            let coord = Coord::from_id(id);
            let (r, c) = (coord.row as usize, coord.col as usize);
            (
                Link {
                    ring: Rc::clone(&rows[r]),
                    pos: c,
                },
                Link {
                    ring: Rc::clone(&cols[c]),
                    pos: r,
                },
            )
        })
        .collect()
}

/// A port's link to one network (its mesh row or its mesh column): this
/// CPE's member position on the line's broadcast ring.
struct Link {
    ring: Rc<BroadcastRing>,
    pos: usize,
}

/// Why a blocked mesh operation gave up.
enum Stop {
    /// The run is deadlocked: the fiber executor found no CPE able to
    /// progress, or the wall-clock fuse tripped.
    Deadlock,
    /// The run's cancel token fired.
    Cancelled,
}

impl Stop {
    /// The flight-recorder outcome of an episode that stopped so.
    fn outcome(&self, get: bool) -> u32 {
        match (self, get) {
            (Stop::Deadlock, false) => flight::mesh_outcome::DEADLOCK,
            (Stop::Deadlock, true) => flight::mesh_outcome::STARVED,
            (Stop::Cancelled, _) => flight::mesh_outcome::CANCELLED,
        }
    }
}

/// How a port's blocked operations wait: the deadlock fuse.
struct Wait {
    timeout: Duration,
}

impl Wait {
    /// Retries `attempt`, yielding between retries, until it yields a
    /// value, the run is found cancelled or deadlocked, or the fuse
    /// trips. A retry that succeeds tells the fiber executor the run
    /// progressed.
    fn until<T>(&self, mut attempt: impl FnMut() -> Option<T>) -> Result<T, Stop> {
        if let Some(v) = attempt() {
            return Ok(v);
        }
        let mut backoff = Backoff::new(self.timeout);
        loop {
            if fiber::cancelled() {
                return Err(Stop::Cancelled);
            }
            if !backoff.snooze() {
                return Err(Stop::Deadlock);
            }
            if let Some(v) = attempt() {
                fiber::note_progress();
                return Ok(v);
            }
        }
    }
}

/// The name a broadcast on the column (`col_net`) or row network
/// reports in its errors.
fn bcast_op(col_net: bool) -> &'static str {
    if col_net {
        "col-broadcast"
    } else {
        "row-broadcast"
    }
}

/// Re-indexes a mate-order bit mask (the sender itself left out) into
/// ring member positions (the sender at `pos`).
fn mates_to_members(mates: u8, pos: usize) -> u8 {
    let below = mates & ((1u16 << pos) - 1) as u8;
    let above = ((mates as u16 >> pos) << (pos + 1)) as u8;
    below | above
}

/// A port's delivered traffic in words, indexed by network (0 its mesh
/// row, 1 its mesh column).
#[derive(Default)]
struct Tally {
    sent: [Cell<u64>; 2],
    recv: [Cell<u64>; 2],
    /// Received words gathered into scratch (see [`MeshStats`]).
    gathered: Cell<u64>,
}

impl Tally {
    fn add(counts: &[Cell<u64>; 2], col_net: bool, n: u64) {
        let c = &counts[col_net as usize];
        c.set(c.get() + n);
    }
}

/// A port's receive state on one network.
#[derive(Default)]
struct WindowSlot {
    /// A [`Window`] is out on this network.
    open: Cell<bool>,
    /// Where broken windows are gathered; kept across windows.
    scratch: Cell<Vec<V256>>,
}

impl WindowSlot {
    fn take_scratch(&self, n: usize) -> Vec<V256> {
        let mut buf = self.scratch.take();
        buf.clear();
        buf.reserve(n);
        buf
    }
}

/// A port's next words on one network, lent by
/// [`MeshPort::recv_window`]: borrowed where they sit in the line's
/// ring, or — when drops broke them up or they outnumber the ring's
/// depth — gathered into the port's scratch. The port receives nothing
/// more on that network until the window drops.
pub struct Window<'p> {
    port: &'p MeshPort<'p>,
    col_net: bool,
    words: Lent<'p>,
}

enum Lent<'p> {
    /// Borrowed from the ring.
    Ring(&'p [V256]),
    /// Gathered into the port's scratch.
    Scratch(Vec<V256>),
}

impl Deref for Window<'_> {
    type Target = [V256];

    fn deref(&self) -> &[V256] {
        match &self.words {
            Lent::Ring(words) => words,
            Lent::Scratch(words) => words,
        }
    }
}

impl Drop for Window<'_> {
    fn drop(&mut self) {
        let slot = &self.port.windows[self.col_net as usize];
        if let Lent::Scratch(buf) = std::mem::replace(&mut self.words, Lent::Ring(&[])) {
            slot.scratch.set(buf);
        }
        slot.open.set(false);
    }
}

/// One CPE's window onto the mesh: its member positions on its row's
/// and its column's broadcast rings.
///
/// A port is neither `Send` nor `Sync`: the CPE fiber that owns it is
/// the only reader of its two ring positions, and it shares the rings
/// with the other ports of its run on that fiber's thread.
pub struct MeshPort<'f> {
    coord: Coord,
    row: Link,
    col: Link,
    /// This port's strip step and the line turns it holds.
    steps: Steps,
    /// Traffic since the port was taken; folded into `counters` and
    /// `grid` when the port drops.
    tally: Tally,
    /// Receive state per network (0 row, 1 column).
    windows: [WindowSlot; 2],
    counters: Rc<MeshCounters>,
    grid: Rc<GridCounters>,
    injector: Option<Arc<FaultInjector>>,
    /// Broadcast words issued by this port (the injector's
    /// deterministic per-send coordinate).
    sends: Cell<u64>,
    timeout: Duration,
    /// The run's black box; episodes/faults are recorded on this
    /// port's CPE ring (events only, no time charging — see
    /// [`Mesh::set_flight_recorder`]).
    flight: Option<&'f FlightRecorder>,
}

impl MeshPort<'_> {
    /// The CPE this port belongs to.
    #[inline]
    pub fn coord(&self) -> Coord {
        self.coord
    }

    fn link(&self, col_net: bool) -> &Link {
        if col_net {
            &self.col
        } else {
            &self.row
        }
    }

    fn cell(&self) -> &crate::stats::CellCounters {
        self.grid
            .cell(self.coord.row as usize, self.coord.col as usize)
    }

    /// Records one synchronization episode on this CPE's flight ring.
    fn flight_episode(&self, col_net: bool, get: bool, outcome: u32, words: u64) {
        if let Some(f) = self.flight {
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
        if let Some(f) = self.flight {
            f.record(self.coord.id(), EventKind::FaultDecision, code, arg);
        }
    }

    /// How this port's blocked operations wait.
    fn wait(&self) -> Wait {
        Wait {
            timeout: self.timeout,
        }
    }

    /// The error for a blocked `op` that gave up: a deadlock when the
    /// fuse tripped, a cancellation otherwise.
    fn stopped(&self, stop: Stop, op: &'static str) -> MeshError {
        let coord = (self.coord.row, self.coord.col);
        match stop {
            Stop::Cancelled => MeshError::Cancelled { coord, op },
            Stop::Deadlock => MeshError::Deadlock {
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

    /// The injector's drop decisions for broadcast word `send_idx`, as
    /// a mask over the `mates` mates in mate order. Each drop is
    /// recorded on the flight ring.
    fn drops(&self, send_idx: u64, mates: usize) -> u8 {
        let Some(inj) = &self.injector else {
            return 0;
        };
        let mut dropped = 0u8;
        for i in 0..mates {
            let site = send_idx * 8 + i as u64;
            if inj.mesh_drop(self.coord.id(), site) {
                self.flight_fault(flight::fault_code::MESH_DROP, site);
                dropped |= 1 << i;
            }
        }
        dropped
    }

    /// The shared broadcast path of both networks: takes the line's
    /// turn for this port's strip step, consults the fault injector per
    /// word (wedge suppression, per-mate word drops), publishes the
    /// words to the surviving mates in runs as the ring makes room, and
    /// tallies and records ONCE for the whole episode. A blocked send
    /// becomes [`MeshError::Deadlock`] after first accounting the words
    /// that completed — exactly what per-word calls would have
    /// recorded.
    fn bcast_stream<F: Fn(usize) -> V256>(
        &self,
        n_words: usize,
        src: Source<F>,
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
        let link = self.link(col_net);
        let mates = if col_net { MESH_ROWS } else { MESH_COLS } - 1;
        // A stop here means another sender holds the line.
        let ep = match wait.until(|| link.ring.try_claim(link.pos)) {
            Ok(ep) => ep,
            Err(stop) => return Err(self.send_stopped(stop, col_net, op, 0)),
        };
        let mut delivered = 0u64;
        let mut sent = 0;
        // The drops of word `sent` when it had to wait for room: each
        // word's drops are decided before it waits, as one word at a
        // time would.
        let mut ahead = None;
        while sent < n_words {
            let room = ep.room();
            if room == 0 {
                ahead.get_or_insert_with(|| self.drops(send_base + sent as u64, mates));
                if let Err(stop) = wait.until(|| (ep.room() > 0).then_some(())) {
                    // A mate is not draining. Words before `sent`
                    // completed; word `sent` accounts nothing.
                    drop(ep);
                    Tally::add(&self.tally.sent, col_net, delivered);
                    return Err(self.send_stopped(stop, col_net, op, sent as u64));
                }
                continue;
            }
            let run = room.min(n_words - sent);
            if self.injector.is_none() {
                ep.publish(&src, sent, run, |_| 0);
                delivered += (mates * run) as u64;
            } else {
                ep.publish(&src, sent, run, |i| {
                    let dropped = if i == 0 { ahead.take() } else { None }
                        .unwrap_or_else(|| self.drops(send_base + (sent + i) as u64, mates));
                    delivered += (mates - dropped.count_ones() as usize) as u64;
                    mates_to_members(dropped, link.pos)
                });
            }
            sent += run;
        }
        drop(ep);
        Tally::add(&self.tally.sent, col_net, delivered);
        self.flight_episode(col_net, false, flight::mesh_outcome::OK, n_words as u64);
        Ok(())
    }

    /// Waits for this port's next `n` words on the column (`col_net`)
    /// or row network and lends them as a [`Window`]: one
    /// synchronization episode, tallied and recorded when the window
    /// is acquired. The words are consumed as they arrive, as a copying
    /// receive would, and stay where they sit in the ring while they
    /// form one unbroken run of at most [`HOST_BUFFER_DEPTH`] slots;
    /// otherwise they are gathered into the port's scratch. A port
    /// holds at most one window per network.
    ///
    /// A deadlock first counts the words that did arrive, then records
    /// one starved word — exactly what `n` one-word receives would have
    /// recorded.
    ///
    /// # Panics
    /// When a window on the same network is still open.
    pub fn recv_window(&self, col_net: bool, n: usize) -> Result<Window<'_>, MeshError> {
        let slot = &self.windows[col_net as usize];
        assert!(
            !slot.open.get(),
            "a port holds one receive window per network at a time"
        );
        let rx = self.link(col_net);
        // The first word's cursor value while the words are one run in
        // the ring; the gathered words once they are not.
        let mut first: Option<usize> = None;
        let mut gather = (n > HOST_BUFFER_DEPTH).then(|| slot.take_scratch(n));
        let mut got = 0;
        let waited = self.wait().until(|| {
            let before = got;
            rx.ring.pop_runs(rx.pos, n - got, |start, len| {
                if let Some(f) = first.filter(|&f| gather.is_none() && f.wrapping_add(got) != start)
                {
                    // A masked slot broke the run: copy it out so far.
                    let mut buf = slot.take_scratch(n);
                    buf.extend_from_slice(rx.ring.window(f, got));
                    gather = Some(buf);
                }
                match &mut gather {
                    Some(buf) => buf.extend_from_slice(rx.ring.window(start, len)),
                    None => {
                        first.get_or_insert(start);
                    }
                }
                got += len;
            });
            if got > before {
                // Freed ring space: a blocked sender may now proceed.
                fiber::note_progress();
            }
            (got == n).then_some(())
        });
        Tally::add(&self.tally.recv, col_net, got as u64);
        if gather.is_some() {
            self.tally
                .gathered
                .set(self.tally.gathered.get() + got as u64);
        }
        if let Err(stop) = waited {
            if let Some(buf) = gather {
                slot.scratch.set(buf);
            }
            if let Stop::Deadlock = stop {
                // One word of unmet demand: the rendezvous summary's
                // deadlock signature, counted at once so a live mesh
                // shows who is starving.
                self.cell().add_starved(col_net);
            }
            self.flight_episode(col_net, true, stop.outcome(true), got as u64);
            return Err(self.stopped(stop, if col_net { "getc" } else { "getr" }));
        }
        if n > 0 {
            self.flight_episode(col_net, true, flight::mesh_outcome::OK, n as u64);
        }
        slot.open.set(true);
        let words = match (gather, first) {
            (Some(buf), _) => Lent::Scratch(buf),
            (None, Some(f)) => Lent::Ring(rx.ring.window(f, n)),
            (None, None) => Lent::Ring(&[]),
        };
        Ok(Window {
            port: self,
            col_net,
            words,
        })
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
        self.bcast_stream(1, Source::slice(&[v]), false, "row-broadcast")
    }

    /// Column broadcast: puts `v` into the column receive buffer of the
    /// other 7 CPEs in this CPE's mesh column (what `lddec`'s broadcast
    /// half does).
    pub fn col_bcast(&self, v: V256) -> Result<(), MeshError> {
        self.bcast_stream(1, Source::slice(&[v]), true, "col-broadcast")
    }

    /// Receives one word from the row network (the `getr` instruction).
    pub fn getr(&self) -> Result<V256, MeshError> {
        Ok(self.recv_window(false, 1)?[0])
    }

    /// Receives one word from the column network (the `getc`
    /// instruction).
    pub fn getc(&self) -> Result<V256, MeshError> {
        Ok(self.recv_window(true, 1)?[0])
    }

    /// Non-blocking receive on the row (`col_net == false`) or column
    /// network.
    fn try_get(&self, col_net: bool) -> Option<V256> {
        assert!(
            !self.windows[col_net as usize].open.get(),
            "a receive while a window is open on the network"
        );
        let rx = self.link(col_net);
        let v = rx.ring.try_pop(rx.pos);
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
    /// synchronization episode (one batched counter update and flight
    /// event; one `send_idx` consumed per word).
    pub fn row_bcast_words(&self, words: &[V256]) -> Result<(), MeshError> {
        self.bcast_stream(words.len(), Source::slice(words), false, "row-broadcast")
    }

    /// Broadcasts a group of 256-bit words along the column in one
    /// synchronization episode.
    pub fn col_bcast_words(&self, words: &[V256]) -> Result<(), MeshError> {
        self.bcast_stream(words.len(), Source::slice(words), true, "col-broadcast")
    }

    /// Receives a group of 256-bit words from the row network in one
    /// synchronization episode.
    pub fn getr_words(&self, out: &mut [V256]) -> Result<(), MeshError> {
        out.copy_from_slice(&self.recv_window(false, out.len())?);
        Ok(())
    }

    /// Receives a group of 256-bit words from the column network in one
    /// synchronization episode.
    pub fn getc_words(&self, out: &mut [V256]) -> Result<(), MeshError> {
        out.copy_from_slice(&self.recv_window(true, out.len())?);
        Ok(())
    }

    /// Broadcasts `n_words` words `word_at(0..n_words)` along the column
    /// (`col_net`) or row in one synchronization episode, writing each
    /// straight into the line's ring.
    pub fn bcast(
        &self,
        col_net: bool,
        n_words: usize,
        word_at: impl Fn(usize) -> V256,
    ) -> Result<(), MeshError> {
        let src = Source::Made(word_at);
        self.bcast_stream(n_words, src, col_net, bcast_op(col_net))
    }

    /// Broadcasts a whole panel (length multiple of 4 doubles) along
    /// the row, 256 bits at a time — the panel-granularity view of the
    /// per-iteration `vldr` stream the kernel performs. The entire
    /// panel is one synchronization episode with one batched update to
    /// the counters and one flight event.
    pub fn row_bcast_panel(&self, panel: &[f64]) -> Result<(), MeshError> {
        self.bcast_panel(false, panel)
    }

    /// Broadcasts a whole panel along the column.
    pub fn col_bcast_panel(&self, panel: &[f64]) -> Result<(), MeshError> {
        self.bcast_panel(true, panel)
    }

    fn bcast_panel(&self, col_net: bool, panel: &[f64]) -> Result<(), MeshError> {
        let words = V256::from_lanes(panel);
        self.bcast_stream(
            words.len(),
            Source::slice(words),
            col_net,
            bcast_op(col_net),
        )
    }

    /// Receives a whole panel (length multiple of 4 doubles) from the
    /// row (`col_net == false`) or column network in one
    /// synchronization episode.
    pub fn get_panel(&self, col_net: bool, out: &mut [f64]) -> Result<(), MeshError> {
        assert_eq!(out.len() % 4, 0, "a word is 4 lanes");
        let window = self.recv_window(col_net, out.len() / 4)?;
        out.copy_from_slice(V256::as_lanes(&window));
        Ok(())
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

impl Drop for MeshPort<'_> {
    /// Folds the port's traffic into the mesh-wide counters and its
    /// grid cell — also while unwinding, so a failed run still reports
    /// the words it moved.
    fn drop(&mut self) {
        let (sent, recv) = (&self.tally.sent, &self.tally.recv);
        self.counters.add_row_sent(sent[0].get());
        self.counters.add_col_sent(sent[1].get());
        self.counters.add_row_recv(recv[0].get());
        self.counters.add_col_recv(recv[1].get());
        self.counters.add_gathered(self.tally.gathered.get());
        let cell = self.cell();
        for col_net in [false, true] {
            cell.add_sent(col_net, sent[col_net as usize].get());
            cell.add_recv(col_net, recv[col_net as usize].get());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::on_fibers;
    use sw_faults::FaultSpec;

    #[test]
    fn ports_taken_once() {
        let mesh = Mesh::new();
        let p = mesh.ports();
        assert_eq!(p.len(), N_CPES);
        assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| mesh.ports())).is_err());
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
    fn a_port_holds_one_window_per_network() {
        let mesh = Mesh::new();
        let ports = mesh.ports();
        let rx = &ports[Coord::new(3, 3).id()];
        ports[Coord::new(3, 0).id()]
            .row_bcast_words(&[V256::splat(1.0), V256::splat(2.0)])
            .unwrap();
        ports[Coord::new(0, 3).id()]
            .col_bcast(V256::splat(3.0))
            .unwrap();
        // (3,3) holds its row and its column window at once.
        let row = rx.recv_window(false, 2).unwrap();
        let col = rx.recv_window(true, 1).unwrap();
        assert_eq!(&*row, [V256::splat(1.0), V256::splat(2.0)]);
        assert_eq!(&*col, [V256::splat(3.0)]);
        let again = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = rx.recv_window(false, 1);
        }));
        assert!(again.is_err(), "a second row window while one is open");
        drop((row, col));
        assert_eq!(rx.try_getr(), None, "the window consumed its words");
        ports[Coord::new(3, 0).id()]
            .row_bcast(V256::splat(4.0))
            .unwrap();
        assert_eq!(rx.getr(), Ok(V256::splat(4.0)));
    }

    /// What each mate of (0,0) saw in one [`stream`] scenario — its
    /// words and its ring cursor after each receive — and the mesh's
    /// tallies.
    #[derive(Debug, PartialEq)]
    struct Seen {
        mates: Vec<(Vec<V256>, Vec<usize>)>,
        stats: MeshStats,
        grid: MeshGridStats,
    }

    /// (0,0) broadcasts `offset` words along row 0, then `payload`
    /// more, under the drop plan `spec`. Each mate takes its share of
    /// the first words one at a time with the copying `try_getr`, then
    /// its share of the rest `n` at a time: in windows when `window`,
    /// else one copied word at a time.
    fn stream(window: bool, spec: FaultSpec, offset: usize, payload: usize, n: usize) -> Seen {
        let mesh = Mesh::new();
        mesh.set_fault_injector(&FaultInjector::new(spec));
        let oracle = FaultInjector::new(spec);
        let ports = mesh.ports();
        let words: Vec<V256> = (0..offset + payload)
            .map(|i| V256::splat(i as f64))
            .collect();
        let seen = RefCell::new(vec![(Vec::new(), Vec::new()); MESH_COLS - 1]);
        on_fibers(MESH_COLS, |col| {
            let p = &ports[col]; // row 0
            if col == 0 {
                p.row_bcast_words(&words[..offset]).unwrap();
                p.row_bcast_words(&words[offset..]).unwrap();
                return;
            }
            let mate = col - 1;
            let share = |range: std::ops::Range<usize>| {
                range
                    .filter(|&w| !oracle.mesh_drop(0, w as u64 * 8 + mate as u64))
                    .count()
            };
            let copy_one = || loop {
                if let Some(v) = p.try_getr() {
                    fiber::note_progress();
                    return v;
                }
                assert!(!fiber::deadlocked(), "mate {mate} starved");
                fiber::suspend();
            };
            let (mut got, mut cursors) = (Vec::new(), Vec::new());
            for _ in 0..share(0..offset) {
                got.push(copy_one());
            }
            let mut left = share(offset..offset + payload);
            while left > 0 {
                let k = left.min(n);
                if window {
                    got.extend_from_slice(&p.recv_window(false, k).unwrap());
                } else {
                    got.extend((0..k).map(|_| copy_one()));
                }
                cursors.push(p.row.ring.head(p.row.pos));
                left -= k;
            }
            seen.borrow_mut()[mate] = (got, cursors);
        });
        drop(ports);
        Seen {
            mates: seen.into_inner(),
            stats: mesh.stats(),
            grid: mesh.grid_stats(),
        }
    }

    #[test]
    fn window_receive_equals_the_copying_receive() {
        // Every wrap offset of the ring, with windows from one word to
        // longer than the ring, and random drop masks.
        let lens = [1, 3, 64, 384, HOST_BUFFER_DEPTH, HOST_BUFFER_DEPTH + 77];
        let mut rng = 0x5EED_u64;
        let mut next = move || {
            rng = rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let z = (rng ^ (rng >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB) >> 33
        };
        let mut broken_by_drops = 0;
        for offset in 0..HOST_BUFFER_DEPTH {
            let n = lens[next() as usize % lens.len()];
            let spec = FaultSpec {
                mesh_drop_per_myriad: [0, 50, 2_000][next() as usize % 3],
                ..FaultSpec::seeded(next())
            };
            let payload = n + 1 + next() as usize % (n + 1);
            let lent = stream(true, spec, offset, payload, n);
            let mut copied = stream(false, spec, offset, payload, n);
            let case = format!("offset {offset}, n {n}, {spec:?}");
            // Gathering is a host cost the copying receive never pays.
            let gathered = lent.stats.words_gathered;
            if n > HOST_BUFFER_DEPTH {
                let received = lent.stats.row_words_received;
                assert!(gathered > 0 && gathered < received, "{case}");
            } else if spec.mesh_drop_per_myriad == 0 {
                assert_eq!(gathered, 0, "{case}");
            } else if gathered > 0 {
                broken_by_drops += 1;
            }
            copied.stats.words_gathered = gathered;
            assert_eq!(lent, copied, "{case}");
        }
        assert!(broken_by_drops > 0, "no window was broken by a drop");
    }

    #[test]
    fn ring_turns_order_steps_even_when_the_later_sender_starts_first() {
        // Row 0 over two strip steps: (0,0) broadcasts at step 0, (0,1)
        // at step 1. The step-1 sender's fiber runs first and never
        // waits for its step-0 words; only the line's turn holds it back
        // until (0,0) ends step 0. Both the word and the batch API.
        let first: Vec<V256> = (0..6).map(|i| V256::splat(i as f64)).collect();
        let second: Vec<V256> = (10..16).map(|i| V256::splat(i as f64)).collect();
        let want: Vec<V256> = first.iter().chain(&second).copied().collect();
        for bulk in [false, true] {
            let mesh = Mesh::new();
            let ports = mesh.ports();
            let send = |p: &MeshPort, words: &[V256]| {
                if bulk {
                    p.row_bcast_words(words).unwrap();
                } else {
                    words.iter().for_each(|&w| p.row_bcast(w).unwrap());
                }
            };
            let (late, early) = (&ports[1], &ports[0]);
            on_fibers(MESH_COLS, |i| match i {
                0 => {
                    late.end_step(); // step 0: receives, reads nothing yet
                    send(late, &second);
                    late.end_step();
                }
                1 => {
                    send(early, &first[..3]);
                    send(early, &first[3..]); // a second episode, same step
                    early.end_step();
                }
                _ => {
                    let p = &ports[i];
                    let got: Vec<V256> = want.iter().map(|_| p.getr().unwrap()).collect();
                    assert_eq!(got, want, "bulk={bulk} {}", p.coord());
                }
            });
            assert_eq!(early.try_getr(), Some(second[0]));
        }
    }

    #[test]
    fn ring_turn_wait_is_released_by_a_cancelled_run() {
        // (3,2) sends at step 1, but nobody ever ends step 0 on row 3;
        // a peer fiber cancels the run instead.
        let mesh = Mesh::new();
        let ports = mesh.ports();
        let p = &ports[Coord::new(3, 2).id()];
        p.end_step();
        let raised = Cell::new(false);
        let panics = fiber::Fibers::new(2).run_cancellable(
            &|i| {
                if i == 1 {
                    raised.set(true);
                    return;
                }
                assert_eq!(
                    p.row_bcast(V256::ZERO).unwrap_err(),
                    MeshError::Cancelled {
                        coord: (3, 2),
                        op: "row-broadcast"
                    }
                );
            },
            &|| raised.get(),
        );
        assert!(panics.is_empty());
    }

    #[test]
    fn ring_step_without_a_sender_deadlocks_instead_of_misordering() {
        // Column 4 has no sender at step 0, so the step-1 sender never
        // gets the turn: the run is found deadlocked, and no word
        // reaches a mate.
        let mesh = Mesh::new();
        let ports = mesh.ports();
        for r in 0..8 {
            ports[Coord::new(r, 4).id()].end_step();
        }
        on_fibers(1, |_| {
            let err = ports[Coord::new(1, 4).id()]
                .col_bcast(V256::splat(1.0))
                .unwrap_err();
            assert_eq!(
                err,
                MeshError::Deadlock {
                    coord: (1, 4),
                    op: "col-broadcast",
                    timeout: DEFAULT_TIMEOUT,
                }
            );
        });
        for r in 0..8 {
            assert_eq!(ports[Coord::new(r, 4).id()].try_getc(), None);
        }
        drop(ports);
        assert_eq!(mesh.stats(), MeshStats::default());
    }
}
