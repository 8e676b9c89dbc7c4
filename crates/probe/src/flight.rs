//! Always-on black-box **flight recorder** for the functional runtime.
//!
//! Every CPE (plus the MPE control loop) owns a bounded ring buffer of
//! compact binary events — kernel start/end, DMA issue/complete, mesh
//! episodes, barrier arrive/release, fault-injection decisions, retry
//! attempts — written lock-free by its single producer thread. It is
//! the only producer of functional-run events, and it is **enabled by
//! default**: when a run dies with a structured error, the last
//! `RING_EVENTS` events per CPE are still there to be serialized into a
//! diagnostics bundle, and a recorder sized to hold a whole run is read
//! back as a Chrome trace by [`crate::trace::from_flight`].
//! `flight_bench` pins the recording overhead on the fig6-size
//! functional run at ≤2% (plus measured noise).
//!
//! Alongside the rings, the recorder keeps the authoritative per-CPE
//! **simulated clock** and a per-CPE busy-cycle ledger with one bucket
//! per [`Lane`]. Every clock advance goes through [`FlightRecorder::
//! advance`] (or the barrier-release jump [`FlightRecorder::
//! jump_to`]), charging exactly one lane, so per CPE the invariant
//!
//! ```text
//! clock == busy[Compute] + busy[Dma] + busy[Mesh] + busy[Barrier]
//! ```
//!
//! holds at all times — the functional-run analogue of the interpreter
//! stall-attribution invariant. Barrier releases exchange clock maxima
//! (see `sw-sim`'s `CancellableBarrier::wait_clock`), so timestamps are
//! globally comparable across CPEs after every `sync_all`.
//!
//! Memory layout: one ring is `RING_EVENTS` slots of three `AtomicU64`
//! words — `[clock, kind<<56 | code, arg]` — plus a free-running head
//! counter. The slot sequence number is implicit (`head - k` for the
//! k-th newest), so a ring costs `512 × 24 B = 12 KiB`, 65 rings ≈ 780
//! KiB per core group. Readers ([`FlightRecorder::tail`]) run after the
//! producer thread parked or joined; torn reads of in-flight slots are
//! impossible for post-mortem bundles and merely stale for live peeks.

// Concurrency vocabulary comes from the sw-check facade: plain `std`
// re-exports in a normal build (zero-cost, the hot path is unchanged),
// checker-instrumented types under `--cfg sw_check` so this exact
// source is model-checked by `check_models`.
use std::sync::Arc;
use sw_check::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Ring index of the MPE (control-plane) ring, after the 64 CPE rings.
pub const MPE_RING: usize = 64;
/// Total rings per recorder: 64 CPEs + 1 MPE.
pub const N_RINGS: usize = 65;
/// Events retained per ring (tail window of the black box).
pub const RING_EVENTS: usize = 512;
/// Busy-cycle lanes per CPE (see [`Lane`]).
pub const N_LANES: usize = 4;

/// What a recorded event describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum EventKind {
    /// A kernel is entering the execution engine; `arg` = ops in the
    /// decoded program.
    KernelStart = 1,
    /// A kernel finished; `arg` = simulated cycles it took.
    KernelEnd = 2,
    /// A DMA transfer is being issued; `code` = [`dma_op_code`],
    /// `arg` = bytes moved by this CPE.
    DmaIssue = 3,
    /// A DMA transfer completed; `code` = [`dma_op_code`], `arg` =
    /// simulated cycles charged.
    DmaComplete = 4,
    /// A mesh send/receive episode; `code` = packed
    /// [`mesh_episode_code`], `arg` = words.
    MeshEpisode = 5,
    /// Arrived at a barrier; `code` = 0 for `sync_all`, 1 for
    /// `sync_row`.
    BarrierArrive = 6,
    /// Released from a barrier; `code` as arrive, `arg` = cycles spent
    /// waiting (release clock − arrive clock).
    BarrierRelease = 7,
    /// The fault injector fired; `code` = [`fault_code`] constant,
    /// `arg` = site index (DMA op / mesh send / epoch).
    FaultDecision = 8,
    /// A retry after a recoverable fault; `code` = retry number
    /// (1-based), `arg` = site index (DMA op) or epoch (MPE ring).
    RetryAttempt = 9,
}

impl EventKind {
    /// Stable lower-case name used in bundles and reports.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::KernelStart => "kernel-start",
            EventKind::KernelEnd => "kernel-end",
            EventKind::DmaIssue => "dma-issue",
            EventKind::DmaComplete => "dma-complete",
            EventKind::MeshEpisode => "mesh-episode",
            EventKind::BarrierArrive => "barrier-arrive",
            EventKind::BarrierRelease => "barrier-release",
            EventKind::FaultDecision => "fault-decision",
            EventKind::RetryAttempt => "retry-attempt",
        }
    }

    /// Inverse of the `repr(u8)` discriminant; `None` for junk.
    pub fn from_u8(v: u8) -> Option<Self> {
        Some(match v {
            1 => EventKind::KernelStart,
            2 => EventKind::KernelEnd,
            3 => EventKind::DmaIssue,
            4 => EventKind::DmaComplete,
            5 => EventKind::MeshEpisode,
            6 => EventKind::BarrierArrive,
            7 => EventKind::BarrierRelease,
            8 => EventKind::FaultDecision,
            9 => EventKind::RetryAttempt,
            _ => return None,
        })
    }

    /// Inverse of [`EventKind::name`]; `None` for junk.
    pub fn from_name(s: &str) -> Option<Self> {
        (1..=9)
            .map(|v| Self::from_u8(v).unwrap())
            .find(|k| k.name() == s)
    }
}

/// The busy-cycle bucket a clock advance is charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Lane {
    /// Kernel execution on the CPE pipelines.
    Compute = 0,
    /// DMA transfers (including retry backoff).
    Dma = 1,
    /// Register-mesh communication outside kernels.
    Mesh = 2,
    /// Waiting at `sync_all` / `sync_row`.
    Barrier = 3,
}

impl Lane {
    pub const ALL: [Lane; N_LANES] = [Lane::Compute, Lane::Dma, Lane::Mesh, Lane::Barrier];

    /// Stable lower-case name used in bundles and reports.
    pub fn name(self) -> &'static str {
        match self {
            Lane::Compute => "compute",
            Lane::Dma => "dma",
            Lane::Mesh => "mesh",
            Lane::Barrier => "barrier",
        }
    }
}

/// `code` constants for [`EventKind::FaultDecision`] events.
pub mod fault_code {
    /// A DMA transfer failed transiently (retryable).
    pub const DMA_TRANSIENT: u32 = 1;
    /// A DMA payload bit was flipped in flight.
    pub const DMA_BITFLIP: u32 = 2;
    /// A DMA transfer was truncated.
    pub const DMA_TRUNCATE: u32 = 3;
    /// An LDM bit flipped after a transfer landed.
    pub const LDM_BITFLIP: u32 = 4;
    /// A mesh word was dropped on a link.
    pub const MESH_DROP: u32 = 5;
    /// A CPE's mesh sends are wedged (suppressed entirely).
    pub const MESH_WEDGE: u32 = 6;
    /// MPE ring: ABFT checksum verification flagged a block.
    pub const ABFT_DETECT: u32 = 7;
    /// MPE ring: a CPE was declared failed and its tiles redistributed.
    pub const CPE_FAILED: u32 = 8;

    /// Stable lower-case name used in bundles and reports.
    pub fn name(code: u32) -> &'static str {
        match code {
            DMA_TRANSIENT => "dma-transient",
            DMA_BITFLIP => "dma-bitflip",
            DMA_TRUNCATE => "dma-truncate",
            LDM_BITFLIP => "ldm-bitflip",
            MESH_DROP => "mesh-drop",
            MESH_WEDGE => "mesh-wedge",
            ABFT_DETECT => "abft-detect",
            CPE_FAILED => "cpe-failed",
            _ => "fault",
        }
    }
}

/// DMA operation codes for [`EventKind::DmaIssue`] / [`EventKind::DmaComplete`];
/// names match the `CpeCtx` DMA wrapper span names. `"backoff"` is the
/// wait before a transient-fault retry: it holds the DMA lane and moves
/// no bytes.
pub fn dma_op_code(name: &str) -> u32 {
    match name {
        "pe.get" => 1,
        "pe.put" => 2,
        "bcast.get" => 3,
        "row.get" => 4,
        "row.put" => 5,
        "brow.get" => 6,
        "rank.get" => 7,
        "backoff" => 8,
        _ => 0,
    }
}

/// Inverse of [`dma_op_code`].
pub fn dma_op_name(code: u32) -> &'static str {
    match code {
        1 => "pe.get",
        2 => "pe.put",
        3 => "bcast.get",
        4 => "row.get",
        5 => "row.put",
        6 => "brow.get",
        7 => "rank.get",
        8 => "backoff",
        _ => "dma",
    }
}

/// Mesh-episode outcomes packed into bits 8.. of the episode `code`.
pub mod mesh_outcome {
    pub const OK: u32 = 0;
    /// A blocked send hit the deadlock fuse.
    pub const DEADLOCK: u32 = 1;
    /// A receive timed out (starved link).
    pub const STARVED: u32 = 2;
    /// The episode was suppressed by a forced wedge.
    pub const WEDGED: u32 = 3;
    /// A blocked episode gave up because the run was cancelled.
    pub const CANCELLED: u32 = 4;

    pub fn name(o: u32) -> &'static str {
        match o {
            OK => "ok",
            DEADLOCK => "deadlock",
            STARVED => "starved",
            WEDGED => "wedged",
            CANCELLED => "cancelled",
            _ => "?",
        }
    }
}

/// Packs a mesh episode descriptor: bit 0 = column network, bit 1 = get
/// (vs broadcast), bits 8.. = [`mesh_outcome`].
pub fn mesh_episode_code(col_net: bool, get: bool, outcome: u32) -> u32 {
    (outcome << 8) | ((get as u32) << 1) | (col_net as u32)
}

/// Renders a packed [`mesh_episode_code`] as e.g. `"col-get:starved"`.
pub fn mesh_episode_name(code: u32) -> String {
    let net = if code & 1 != 0 { "col" } else { "row" };
    let op = if code & 2 != 0 { "get" } else { "bcast" };
    format!("{net}-{op}:{}", mesh_outcome::name(code >> 8))
}

/// One decoded event from a ring tail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightEvent {
    /// Monotone per-ring sequence number (0 = first event recorded).
    pub seq: u64,
    /// Simulated-cycle timestamp on the producer's clock.
    pub clock: u64,
    pub kind: EventKind,
    pub code: u32,
    pub arg: u64,
}

const SLOT_WORDS: usize = 3;

/// One producer's ring header, clock and ledger. Aligned to its own
/// 128-byte region (a 64 B line plus the adjacent-line prefetch) so two
/// CPEs' headers never share a cache line: each is written by its own
/// thread on every clock advance.
#[repr(align(128))]
struct Ring {
    /// Events ever recorded; slot for event `s` is `s % capacity`.
    head: AtomicU64,
    /// The producer's simulated clock, in cycles since run start.
    clock: AtomicU64,
    /// Busy cycles per [`Lane`]; sums to `clock` at all times.
    busy: [AtomicU64; N_LANES],
    /// `capacity × SLOT_WORDS` words of `[clock, kind|code, arg]`.
    slots: Box<[AtomicU64]>,
}

impl Ring {
    fn new(capacity: usize) -> Self {
        Ring {
            head: AtomicU64::new(0),
            clock: AtomicU64::new(0),
            busy: std::array::from_fn(|_| AtomicU64::new(0)),
            slots: (0..capacity * SLOT_WORDS)
                .map(|_| AtomicU64::new(0))
                .collect(),
        }
    }
}

/// Adds `n` to a counter only the calling thread writes: a plain load
/// and store, no locked RMW.
#[inline]
fn add_owned(c: &AtomicU64, n: u64) {
    c.store(c.load(Ordering::Relaxed) + n, Ordering::Relaxed);
}

/// Per-CPE clock and busy-cycle ledger, as read back by
/// [`FlightRecorder::attribution`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RingAttribution {
    /// Ring index (CPE id, or [`MPE_RING`]).
    pub ring: usize,
    /// Final simulated clock of the producer.
    pub clock: u64,
    /// Busy cycles per [`Lane`] (indexed by `Lane as usize`).
    pub busy: [u64; N_LANES],
}

impl RingAttribution {
    /// Total attributed cycles; equals `clock` by construction.
    pub fn total_busy(&self) -> u64 {
        self.busy.iter().sum()
    }
}

/// The black box: 65 single-producer event rings plus per-ring clocks
/// and busy ledgers. Shared as an `Arc` between the core group (one
/// ring per CPE thread), the mesh ports, and the MPE control loop.
pub struct FlightRecorder {
    enabled: AtomicBool,
    capacity: usize,
    rings: Vec<Ring>,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        Self::with_capacity(RING_EVENTS)
    }
}

impl FlightRecorder {
    /// A recorder with the default ring capacity, enabled.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// A recorder with `capacity` events per ring, enabled.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "flight ring capacity must be positive");
        FlightRecorder {
            enabled: AtomicBool::new(true),
            capacity,
            rings: (0..N_RINGS).map(|_| Ring::new(capacity)).collect(),
        }
    }

    /// Events retained per ring.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Event recording on/off. Clocks and busy ledgers advance either
    /// way — they are the runtime's time base, not an optional probe.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Release);
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Acquire)
    }

    /// Records an event stamped with the ring's current clock.
    /// Single-producer per ring: only the owning thread may call this.
    #[inline]
    pub fn record(&self, ring: usize, kind: EventKind, code: u32, arg: u64) {
        if !self.is_enabled() {
            return;
        }
        let r = &self.rings[ring];
        self.write_slot(r, r.clock.load(Ordering::Relaxed), kind, code, arg);
    }

    /// Records an event with an explicit timestamp (e.g. the completion
    /// edge of a span whose clock was already advanced past it).
    #[inline]
    pub fn record_at(&self, ring: usize, clock: u64, kind: EventKind, code: u32, arg: u64) {
        if !self.is_enabled() {
            return;
        }
        self.write_slot(&self.rings[ring], clock, kind, code, arg);
    }

    #[inline]
    fn write_slot(&self, r: &Ring, clock: u64, kind: EventKind, code: u32, arg: u64) {
        // Relaxed head load: single producer per ring, so only this
        // thread ever wrote `head` — it reads its own last store.
        let seq = r.head.load(Ordering::Relaxed);
        let base = (seq as usize % self.capacity) * SLOT_WORDS;
        // Relaxed slot stores: the slot words are published by the
        // release head store below; a reader that observes the new
        // head (acquire) is ordered after all three. This pairing is
        // model-checked by `check_models::flight_publish`, and its
        // necessity by the `flight-mutant-relaxed-publish` mutant.
        r.slots[base].store(clock, Ordering::Relaxed);
        r.slots[base + 1].store(((kind as u64) << 56) | code as u64, Ordering::Relaxed);
        r.slots[base + 2].store(arg, Ordering::Relaxed);
        r.head.store(seq + 1, Ordering::Release);
    }

    /// The ring's current simulated clock.
    ///
    /// Relaxed: the clock is owned by the ring's single producer (who
    /// reads its own stores); any other reader is a live peek that
    /// tolerates staleness, or runs after joining the producer (the
    /// join orders the final value).
    #[inline]
    pub fn clock(&self, ring: usize) -> u64 {
        self.rings[ring].clock.load(Ordering::Relaxed)
    }

    /// Advances the ring's clock by `cycles`, charging `lane`. Returns
    /// the new clock.
    #[inline]
    pub fn advance(&self, ring: usize, lane: Lane, cycles: u64) -> u64 {
        let r = &self.rings[ring];
        // Relaxed clock/busy: both are single-writer (the ring owner),
        // so each load-then-store needs no RMW — nobody else writes
        // them. Cross-thread readers only see these after a join
        // (`attribution`) or as an advisory live peek.
        let t0 = r.clock.load(Ordering::Relaxed);
        let t1 = t0 + cycles;
        r.clock.store(t1, Ordering::Relaxed);
        add_owned(&r.busy[lane as usize], cycles);
        t1
    }

    /// Jumps the ring's clock forward to `to` (a barrier-release
    /// maximum), charging the skipped cycles to `lane`. Returns the
    /// cycles charged. `to` in the past is a no-op returning 0 —
    /// clocks never run backwards.
    #[inline]
    pub fn jump_to(&self, ring: usize, lane: Lane, to: u64) -> u64 {
        let r = &self.rings[ring];
        // Relaxed: same single-writer discipline as `advance` — the
        // barrier-release maximum arrives via `wait_clock`'s own
        // synchronization, not through this clock cell.
        let t0 = r.clock.load(Ordering::Relaxed);
        if to <= t0 {
            return 0;
        }
        r.clock.store(to, Ordering::Relaxed);
        add_owned(&r.busy[lane as usize], to - t0);
        to - t0
    }

    /// Events ever recorded on the ring (≥ what [`tail`](Self::tail)
    /// can return once the ring wrapped).
    pub fn total(&self, ring: usize) -> u64 {
        self.rings[ring].head.load(Ordering::Acquire)
    }

    /// The ring's retained events, oldest → newest. Meant to be called
    /// after the producer stopped (post-mortem); a live call sees a
    /// consistent prefix but may miss the newest slot.
    pub fn tail(&self, ring: usize) -> Vec<FlightEvent> {
        let r = &self.rings[ring];
        let head = r.head.load(Ordering::Acquire);
        let n = (head as usize).min(self.capacity);
        let mut out = Vec::with_capacity(n);
        for k in 0..n {
            let seq = head - n as u64 + k as u64;
            let base = (seq as usize % self.capacity) * SLOT_WORDS;
            // Relaxed slot loads: the acquire head load above pairs
            // with the producer's release head store, ordering every
            // covered slot word before us (see `write_slot`).
            let clock = r.slots[base].load(Ordering::Relaxed);
            let packed = r.slots[base + 1].load(Ordering::Relaxed);
            let arg = r.slots[base + 2].load(Ordering::Relaxed);
            let Some(kind) = EventKind::from_u8((packed >> 56) as u8) else {
                continue;
            };
            out.push(FlightEvent {
                seq,
                clock,
                kind,
                code: (packed & 0xffff_ffff) as u32,
                arg,
            });
        }
        out
    }

    /// Clock + busy ledger for one ring.
    pub fn ring_attribution(&self, ring: usize) -> RingAttribution {
        let r = &self.rings[ring];
        // Relaxed: attribution is read after the producer joined (the
        // join is the ordering edge) or as an advisory live peek that
        // does not claim a consistent clock/busy cut.
        RingAttribution {
            ring,
            clock: r.clock.load(Ordering::Relaxed),
            busy: std::array::from_fn(|l| r.busy[l].load(Ordering::Relaxed)),
        }
    }

    /// Clock + busy ledgers for all 64 CPE rings (the MPE ring keeps no
    /// clock and is excluded).
    pub fn attribution(&self) -> Vec<RingAttribution> {
        (0..MPE_RING).map(|c| self.ring_attribution(c)).collect()
    }

    /// Clears every ring, clock, and ledger (between runs on a reused
    /// core group, or between bench arms). Producer threads must be
    /// quiescent.
    pub fn reset(&self) {
        // Relaxed throughout: the contract requires quiescent
        // producers, so reset is single-threaded in practice and the
        // caller's subsequent thread spawns order the zeroed state.
        for r in &self.rings {
            r.head.store(0, Ordering::Relaxed);
            r.clock.store(0, Ordering::Relaxed);
            for b in &r.busy {
                b.store(0, Ordering::Relaxed);
            }
            for s in r.slots.iter() {
                s.store(0, Ordering::Relaxed);
            }
        }
    }
}

/// Seeded defect for the model-check suite ([`crate::check_models`]):
/// a mutated copy of the verified recording path above, compiled only
/// under the checker cfg so production builds never contain it. It
/// must be *caught* by `sw-check` — a mutant that passes means the
/// suite lost its teeth.
#[cfg(sw_check)]
impl FlightRecorder {
    /// [`FlightRecorder::record`] with the head publish weakened to
    /// `Relaxed`: a reader that observes the new head is no longer
    /// guaranteed to observe the slot words it covers, so `tail` can
    /// return a stale (zeroed) event.
    pub fn record_mutant_relaxed_publish(&self, ring: usize, kind: EventKind, code: u32, arg: u64) {
        let r = &self.rings[ring];
        let clock = r.clock.load(Ordering::Relaxed);
        let seq = r.head.load(Ordering::Relaxed);
        let base = (seq as usize % self.capacity) * SLOT_WORDS;
        r.slots[base].store(clock, Ordering::Relaxed);
        r.slots[base + 1].store(((kind as u64) << 56) | code as u64, Ordering::Relaxed);
        r.slots[base + 2].store(arg, Ordering::Relaxed);
        // MUTANT: was Ordering::Release.
        r.head.store(seq + 1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_tail_round_trip() {
        let f = FlightRecorder::with_capacity(8);
        f.advance(3, Lane::Dma, 100);
        f.record(3, EventKind::DmaIssue, dma_op_code("pe.get"), 4096);
        f.record_at(3, 40, EventKind::DmaComplete, dma_op_code("pe.get"), 40);
        let tail = f.tail(3);
        assert_eq!(tail.len(), 2);
        assert_eq!(tail[0].seq, 0);
        assert_eq!(tail[0].clock, 100);
        assert_eq!(tail[0].kind, EventKind::DmaIssue);
        assert_eq!(tail[0].arg, 4096);
        assert_eq!(tail[1].seq, 1);
        assert_eq!(tail[1].clock, 40);
        assert_eq!(tail[1].kind, EventKind::DmaComplete);
        assert!(f.tail(4).is_empty(), "rings are independent");
    }

    #[test]
    fn ring_wraps_keeping_newest() {
        let f = FlightRecorder::with_capacity(4);
        for i in 0..10u64 {
            f.record(0, EventKind::RetryAttempt, i as u32, i * 7);
        }
        assert_eq!(f.total(0), 10);
        let tail = f.tail(0);
        assert_eq!(tail.len(), 4);
        assert_eq!(
            tail.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![6, 7, 8, 9]
        );
        assert_eq!(tail[0].code, 6);
        assert_eq!(tail[3].arg, 63);
    }

    #[test]
    fn disabled_recorder_drops_events_but_keeps_time() {
        let f = FlightRecorder::with_capacity(8);
        f.set_enabled(false);
        f.record(0, EventKind::KernelStart, 0, 0);
        assert_eq!(f.advance(0, Lane::Compute, 55), 55);
        assert_eq!(f.total(0), 0);
        assert_eq!(f.clock(0), 55);
        assert_eq!(f.ring_attribution(0).busy[Lane::Compute as usize], 55);
    }

    #[test]
    fn clock_equals_lane_sum_invariant() {
        let f = FlightRecorder::with_capacity(8);
        f.advance(7, Lane::Compute, 10);
        f.advance(7, Lane::Dma, 20);
        f.advance(7, Lane::Mesh, 5);
        assert_eq!(f.jump_to(7, Lane::Barrier, 100), 65);
        assert_eq!(
            f.jump_to(7, Lane::Barrier, 90),
            0,
            "clock never runs backwards"
        );
        let a = f.ring_attribution(7);
        assert_eq!(a.clock, 100);
        assert_eq!(a.total_busy(), a.clock);
        assert_eq!(a.busy, [10, 20, 5, 65]);
    }

    #[test]
    fn ring_headers_do_not_false_share() {
        let f = FlightRecorder::with_capacity(1);
        let addrs: Vec<usize> = f.rings.iter().map(|r| r as *const Ring as usize).collect();
        for pair in addrs.windows(2) {
            assert!(pair[1] - pair[0] >= 128);
        }
        assert!(addrs.iter().all(|a| a % 128 == 0));
    }

    #[test]
    fn reset_clears_everything() {
        let f = FlightRecorder::with_capacity(4);
        f.record(
            MPE_RING,
            EventKind::FaultDecision,
            fault_code::ABFT_DETECT,
            3,
        );
        f.advance(0, Lane::Dma, 9);
        f.reset();
        assert_eq!(f.total(MPE_RING), 0);
        assert_eq!(f.clock(0), 0);
        assert_eq!(f.ring_attribution(0).total_busy(), 0);
    }

    #[test]
    fn codes_round_trip_through_names() {
        for v in 1..=9u8 {
            let k = EventKind::from_u8(v).unwrap();
            assert_eq!(EventKind::from_name(k.name()), Some(k));
        }
        for op in [
            "pe.get",
            "pe.put",
            "bcast.get",
            "row.get",
            "row.put",
            "brow.get",
            "rank.get",
            "backoff",
        ] {
            assert_eq!(dma_op_name(dma_op_code(op)), op);
        }
        let c = mesh_episode_code(true, false, mesh_outcome::WEDGED);
        assert_eq!(mesh_episode_name(c), "col-bcast:wedged");
    }
}
