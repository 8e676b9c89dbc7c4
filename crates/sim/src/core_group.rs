//! The functional core-group runtime.
//!
//! [`CoreGroup::run`] mirrors the `athread` programming model of the
//! real machine: the "MPE side" (the caller) installs matrices in main
//! memory and dispatches to 64 CPEs; each receives a [`CpeCtx`] with
//! its coordinates, its private LDM, its mesh port, and DMA entry
//! points, and runs the same SPMD closure.
//!
//! The 64 CPEs are stackful fibers ([`sw_check::fiber`]) that run
//! round-robin on the calling thread, so a run uses one host core and
//! no OS thread per CPE. A CPE that waits — for a mesh word, ring
//! space, its line's turn or a barrier — retries and yields to the
//! next CPE, the way a `getr` on the hardware stalls until a mate has
//! sent the word. Every `CpeCtx` call stays synchronous, ISA kernels
//! that run `getr`/`getc` inside the interpreter included. Host
//! parallelism comes from running several core groups side by side.
//!
//! The `CoreGroup` keeps the 64 fiber stacks and the 64 LDMs across
//! runs; each run starts every LDM in the state [`Ldm::new`] gives it.
//! Because every CPE of a run is on one thread, the executor knows when
//! a run can no longer progress: once every CPE has failed its retry
//! for two passes in a row, the run is deadlocked, its blocked mesh
//! waits fail with [`MeshError::Deadlock`] and its barrier waits unwind
//! as cancelled, without waiting out the mesh's wall-clock fuse.
//!
//! # Failure model
//!
//! A CPE that hits a structured failure — a DMA retry budget, a mesh
//! deadlock, an injected fault it cannot recover from — calls
//! [`CpeCtx::abort`], which cancels the run's barriers (so its 63
//! peers unwind instead of hanging) and panics with a typed
//! [`CpeAbort`] payload. [`CoreGroup::try_run`] catches every CPE
//! panic, downcasts the typed ones into a [`RunError`] carrying all
//! failures plus the per-CPE mesh traffic snapshot (the rendezvous
//! summary's input), and re-raises anything it does not recognize.
//! [`CoreGroup::run`] keeps the old contract: any failure panics.

use crate::barrier::RunSync;
use crate::cancel::CancelToken;
use crate::stats::{DmaCounters, RunStats};
use std::cell::Cell;
use std::panic::{panic_any, resume_unwind};
use std::sync::Arc;
use std::time::Instant;
use sw_arch::coord::{Coord, N_CPES};
use sw_arch::V256;
use sw_check::fiber::Fibers;
use sw_faults::{apply_ldm_flip, apply_payload_fault, DmaFault, FaultInjector};
use sw_isa::{CommPort, ExecReport, Instr, Machine};
use sw_mem::dma::{self, BandwidthModel, MatRegion, Receipt};
use sw_mem::{Ldm, LdmBuf, MainMemory, MemError};
use sw_mesh::{Mesh, MeshError, MeshGridStats, MeshPort, Window};
use sw_probe::flight::{self, EventKind, FlightRecorder, Lane};
use sw_probe::metrics::Histogram;

/// Bucket bounds of the `sim.dma.bytes_per_descriptor` histogram (the
/// DMA-granularity distribution; 128 B is one transaction).
const DESC_BYTES_BUCKETS: [u64; 6] = [128, 512, 2048, 8192, 32768, 131072];

/// Simulated cycles charged for the first DMA retry backoff; each
/// further retry doubles it (deterministic exponential backoff).
const DMA_RETRY_BACKOFF_CYCLES: u64 = 64;

/// Why one CPE aborted its run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CpeError {
    /// A memory-system failure (DMA retry budget, bad descriptor, …).
    Mem(MemError),
    /// A mesh operation failed (deadlock fuse tripped).
    Mesh(MeshError),
    /// The CPE was unwound because a peer aborted first and cancelled
    /// the run's barriers, or the run's cancel token fired.
    Cancelled,
}

impl From<MemError> for CpeError {
    fn from(e: MemError) -> Self {
        CpeError::Mem(e)
    }
}

impl From<MeshError> for CpeError {
    fn from(e: MeshError) -> Self {
        CpeError::Mesh(e)
    }
}

impl std::fmt::Display for CpeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CpeError::Mem(e) => write!(f, "{e}"),
            CpeError::Mesh(e) => write!(f, "{e}"),
            CpeError::Cancelled => write!(f, "unwound after a peer CPE aborted"),
        }
    }
}

/// The typed panic payload of an aborting CPE; [`CoreGroup::try_run`]
/// downcasts these into a [`RunError`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CpeAbort {
    /// The aborting CPE.
    pub coord: Coord,
    /// What went wrong.
    pub error: CpeError,
}

/// A 64-CPE run that did not complete cleanly.
#[derive(Debug)]
pub struct RunError {
    /// Every CPE that aborted, in CPE-id order (includes the
    /// `Cancelled` casualties of the primary failure).
    pub failures: Vec<CpeAbort>,
    /// Per-CPE mesh traffic at teardown — the input of the lint-side
    /// rendezvous summary that names the wedged row/column group.
    pub grid: MeshGridStats,
    /// Traffic statistics of the partial run.
    pub stats: RunStats,
}

impl RunError {
    /// The most informative failure: the first abort that is not a
    /// `Cancelled` casualty (falling back to the first casualty).
    pub fn primary(&self) -> &CpeAbort {
        self.failures
            .iter()
            .find(|a| a.error != CpeError::Cancelled)
            .unwrap_or(&self.failures[0])
    }
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let p = self.primary();
        write!(
            f,
            "{} of 64 CPEs aborted; first failure at CPE ({}, {}): {}",
            self.failures.len(),
            p.coord.row,
            p.coord.col,
            p.error
        )
    }
}

impl std::error::Error for RunError {}

/// Structured CPE aborts are control flow, not crashes: they unwind as
/// panics with a [`CpeAbort`] payload, and without intervention the
/// default panic hook prints a backtrace for every one — dozens of
/// lines of noise per recovered fault. This installs (once) a hook
/// that swallows exactly those payloads and defers everything else to
/// the previously installed hook.
fn install_quiet_abort_hook() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<CpeAbort>().is_none() {
                default(info);
            }
        }));
    });
}

/// The 64 CPEs' persistent state: their fiber stacks and their LDMs.
struct Cpes {
    fibers: Fibers,
    ldms: Vec<Ldm>,
}

/// One core group: shared main memory plus the machinery to launch
/// 64-CPE functional runs.
pub struct CoreGroup {
    /// The CG's main memory. Install inputs / extract outputs here.
    pub mem: MainMemory,
    /// The mesh's wall-clock deadlock fuse: the outer bound on any
    /// blocked wait, behind the executor's exact deadlock detection.
    mesh_timeout: std::time::Duration,
    /// Fiber stacks and LDMs, made on first use and kept across runs.
    cpes: Option<Cpes>,
    /// Charges simulated durations to DMA operations.
    model: BandwidthModel,
    /// Fault oracle consulted by DMA wrappers and mesh ports; `None`
    /// (the default) adds no work to any hot path.
    injector: Option<Arc<FaultInjector>>,
    /// The always-on black box: per-CPE event rings plus the
    /// authoritative per-CPE simulated clocks and busy-lane ledgers.
    flight: Arc<FlightRecorder>,
    /// Cooperative cancellation handle for subsequent runs; `None`
    /// (the default) adds nothing to any path.
    cancel: Option<CancelToken>,
}

impl Default for CoreGroup {
    fn default() -> Self {
        Self::new()
    }
}

impl CoreGroup {
    /// A core group with empty main memory.
    pub fn new() -> Self {
        CoreGroup {
            mem: MainMemory::new(),
            mesh_timeout: std::time::Duration::from_secs(10),
            cpes: None,
            model: BandwidthModel::calibrated(),
            injector: None,
            flight: FlightRecorder::new(),
            cancel: None,
        }
    }

    /// The core group's flight recorder: always recording (unless
    /// disabled via [`sw_probe::flight::FlightRecorder::set_enabled`]),
    /// accumulating across runs until [`sw_probe::flight::
    /// FlightRecorder::reset`]. Its clocks are the time base of every
    /// recorded event, and [`sw_probe::trace::from_flight`] reads its
    /// rings back as a timeline.
    pub fn flight(&self) -> &Arc<FlightRecorder> {
        &self.flight
    }

    /// A core group whose mesh has the wall-clock deadlock fuse
    /// `timeout`. Exact deadlock detection ends a stuck run before any
    /// fuse trips; the fuse bounds every blocked wait.
    pub fn with_mesh_timeout(timeout: std::time::Duration) -> Self {
        let mut cg = Self::new();
        cg.mesh_timeout = timeout;
        cg
    }

    /// Sets the mesh's wall-clock deadlock fuse for subsequent runs.
    pub fn set_mesh_timeout(&mut self, timeout: std::time::Duration) {
        self.mesh_timeout = timeout;
    }

    /// Installs (or, with `None`, removes) the fault injector consulted
    /// by every subsequent run's DMA wrappers and mesh ports.
    pub fn set_fault_injector(&mut self, injector: Option<Arc<FaultInjector>>) {
        self.injector = injector;
    }

    /// Installs (or, with `None`, removes) a cooperative cancellation
    /// token for subsequent runs. Firing the token poisons the running
    /// dispatch's barriers, so every CPE unwinds with
    /// [`CpeError::Cancelled`] at its next sync point; a token fired
    /// before the run starts cancels it at the first barrier. The core
    /// group itself stays reusable afterwards.
    pub fn set_cancel_token(&mut self, token: Option<CancelToken>) {
        self.cancel = token;
    }

    /// The installed cancellation token, if any.
    pub fn cancel_token(&self) -> Option<&CancelToken> {
        self.cancel.as_ref()
    }

    /// Replaces the flight recorder with a fresh, enabled one that
    /// retains `events` per ring (the default is
    /// [`sw_probe::flight::RING_EVENTS`], a black-box tail). Size it to
    /// the run's event count to keep a whole run for
    /// [`sw_probe::trace::from_flight`].
    pub fn set_flight_capacity(&mut self, events: usize) {
        self.flight = Arc::new(FlightRecorder::with_capacity(events));
    }

    /// Runs `f` on all 64 CPEs (SPMD), returning traffic statistics.
    /// Panics in any CPE propagate — including structured
    /// [`CpeAbort`]s, rendered as a message. Use [`CoreGroup::try_run`]
    /// to receive structured failures instead.
    pub fn run<F>(&mut self, f: F) -> RunStats
    where
        F: Fn(&mut CpeCtx),
    {
        match self.try_run(f) {
            Ok(stats) => stats,
            Err(e) => panic!("{e}"),
        }
    }

    /// Runs `f` on all 64 CPEs (SPMD), as fibers on the calling
    /// thread. Structured CPE aborts come back as a [`RunError`]; panics
    /// the runtime does not recognize are recorded in the published
    /// statistics (`sim.cpe.panics`, [`RunStats::panicked_cpes`]) and
    /// re-raised.
    ///
    /// # Panics
    /// When called from inside a CPE body: a core-group run cannot
    /// start another.
    // The Err carries the full teardown evidence (per-CPE failures +
    // mesh grid) by design; runs are far too coarse for its size to
    // matter on the happy path.
    #[allow(clippy::result_large_err)]
    pub fn try_run<F>(&mut self, f: F) -> Result<RunStats, RunError>
    where
        F: Fn(&mut CpeCtx),
    {
        assert!(
            !sw_check::fiber::on_fiber(),
            "CoreGroup::try_run called from a CPE body: a core-group run cannot start another"
        );
        install_quiet_abort_hook();
        let cpes = self.cpes.get_or_insert_with(|| Cpes {
            fibers: Fibers::new(N_CPES),
            ldms: (0..N_CPES).map(|_| Ldm::new()).collect(),
        });
        let ldms: Vec<Cell<Option<&mut Ldm>>> = cpes
            .ldms
            .iter_mut()
            .map(|ldm| {
                ldm.clear();
                Cell::new(Some(ldm))
            })
            .collect();
        let sync = Arc::new(RunSync::new());
        let mesh = Mesh::with_timeout(self.mesh_timeout);
        if self.cancel.is_some() {
            mesh.set_cancel_flag(&sync.token_fired);
        }
        mesh.set_flight_recorder(&self.flight);
        if let Some(inj) = &self.injector {
            mesh.set_fault_injector(inj);
        }
        // Each CPE takes exclusive ownership of its port for the run;
        // dropping it folds its traffic into `mesh.stats()`.
        let ports: Vec<Cell<Option<MeshPort>>> = mesh
            .ports()
            .into_iter()
            .map(|p| Cell::new(Some(p)))
            .collect();
        // Bind the cancellation token (if any) to this run's barriers:
        // a fire from any thread — before or during the run — poisons
        // them, and every CPE unwinds at its next sync point.
        if let Some(token) = &self.cancel {
            token.attach(&sync);
        }
        let counters = DmaCounters::default();
        let bytes_hist = sw_probe::metrics::global()
            .histogram("sim.dma.bytes_per_descriptor", &DESC_BYTES_BUCKETS);
        let start = Instant::now();
        let mem = &self.mem;
        let model = &self.model;
        let injector = self.injector.as_ref();
        let flight = &*self.flight;
        let sync: &RunSync = &sync;
        let panics = cpes.fibers.run(&|i: usize| {
            let port = ports[i].take().expect("port taken once per run");
            let mut ctx = CpeCtx {
                coord: port.coord(),
                ldm: ldms[i].take().expect("LDM taken once per run"),
                port,
                mem,
                sync,
                counters: &counters,
                bytes_hist: &bytes_hist,
                model,
                injector,
                flight,
                dma_ops: 0,
            };
            f(&mut ctx);
        });
        if let Some(token) = &self.cancel {
            token.detach();
        }
        let stats = RunStats {
            dma: counters.snapshot(),
            mesh: mesh.stats(),
            grid: mesh.grid_stats(),
            panicked_cpes: panics.iter().map(|(i, _)| *i).collect(),
            wall: start.elapsed(),
        };
        if panics.is_empty() {
            stats.publish(sw_probe::metrics::global());
            return Ok(stats);
        }
        let mut failures = Vec::new();
        let mut unknown = None;
        for (_, p) in panics {
            match p.downcast::<CpeAbort>() {
                Ok(a) => failures.push(*a),
                Err(p) => unknown = unknown.or(Some(p)),
            }
        }
        // Only structured aborts count as CPE panics in the metrics —
        // an unknown payload is a bug escaping, not a modelled failure,
        // but it is still attributed before re-raising.
        stats.publish(sw_probe::metrics::global());
        if let Some(p) = unknown {
            resume_unwind(p);
        }
        Err(RunError {
            failures,
            grid: mesh.grid_stats(),
            stats,
        })
    }
}

/// Per-CPE execution context handed to the SPMD closure.
pub struct CpeCtx<'a> {
    /// This CPE's mesh coordinates.
    pub coord: Coord,
    /// This CPE's 64 KB scratch pad, kept by the core group across
    /// runs and cleared at the start of each.
    pub ldm: &'a mut Ldm,
    port: MeshPort,
    mem: &'a MainMemory,
    sync: &'a RunSync,
    counters: &'a DmaCounters,
    bytes_hist: &'a Histogram,
    model: &'a BandwidthModel,
    injector: Option<&'a Arc<FaultInjector>>,
    /// The run's flight recorder. It owns this CPE's simulated-time
    /// cursor: DMA, kernel, mesh, and barrier episodes advance the
    /// clock by their modelled duration, each charged to exactly one
    /// [`Lane`], so per CPE `clock == Σ busy lanes` at all times.
    /// Barriers exchange clock maxima, keeping the 64 timelines
    /// globally comparable (resource contention between CPEs remains
    /// the timing DAG's job, not the functional runtime's).
    flight: &'a FlightRecorder,
    /// DMA operations issued by this CPE this run (the injector's
    /// deterministic per-operation coordinate).
    dma_ops: u64,
}

impl<'a> CpeCtx<'a> {
    /// This CPE's flight-recorder ring index.
    #[inline]
    fn ring(&self) -> usize {
        self.coord.id()
    }

    /// Counts a completed DMA receipt, charges its modelled duration
    /// to the DMA lane, and records the issue/complete event pair.
    fn note_dma(&mut self, name: &'static str, r: &Receipt) {
        self.counters.record(r.mode, r.bytes_cpe as u64);
        self.bytes_hist.observe(r.bytes_cpe as u64);
        let code = flight::dma_op_code(name);
        self.flight
            .record(self.ring(), EventKind::DmaIssue, code, r.bytes_cpe as u64);
        let cycles = self.model.receipt_cycles(r);
        let t1 = self.flight.advance(self.ring(), Lane::Dma, cycles);
        self.flight
            .record_at(self.ring(), t1, EventKind::DmaComplete, code, cycles);
    }

    /// Aborts the run from this CPE: cancels every barrier (so peers
    /// unwind promptly) and panics with the typed [`CpeAbort`] payload
    /// that [`CoreGroup::try_run`] turns into a [`RunError`].
    pub fn abort(&self, error: CpeError) -> ! {
        self.sync.cancel_all();
        panic_any(CpeAbort {
            coord: self.coord,
            error,
        })
    }

    fn cancelled(&self) -> ! {
        panic_any(CpeAbort {
            coord: self.coord,
            error: CpeError::Cancelled,
        })
    }

    /// The shared body of both barrier wrappers: exchanges clocks at
    /// the barrier (everyone leaves with the generation's maximum),
    /// charges the skipped cycles to the barrier lane, and records the
    /// arrive/release event pair. `scope` is 0 for `sync_all`, 1 for
    /// `sync_row` (the event `code`).
    fn sync_on(&self, b: &crate::barrier::CancellableBarrier, scope: u32) {
        let ring = self.ring();
        let arrived = self.flight.clock(ring);
        self.flight
            .record_at(ring, arrived, EventKind::BarrierArrive, scope, 0);
        match b.wait_clock(arrived) {
            Ok(released) => {
                let waited = self.flight.jump_to(ring, Lane::Barrier, released);
                self.flight.record_at(
                    ring,
                    released.max(arrived),
                    EventKind::BarrierRelease,
                    scope,
                    waited,
                );
            }
            Err(_) => self.cancelled(),
        }
    }

    /// Barrier over all 64 CPEs (the `sync` of Algorithms 1–2).
    /// Unwinds (with a `Cancelled` abort) if a peer aborted the run.
    pub fn sync_all(&self) {
        self.sync_on(&self.sync.all, 0);
    }

    /// Barrier over the 8 CPEs of this CPE's mesh row (required by
    /// `ROW_MODE` DMA).
    pub fn sync_row(&self) {
        self.sync_on(&self.sync.rows[self.coord.row as usize], 1);
    }

    /// The shared retry loop of every DMA wrapper. Consults the fault
    /// injector before each execution attempt: a transient failure
    /// backs off (deterministic exponential simulated-cycle cost) and
    /// retries within the spec's budget; payload faults (bit-flips,
    /// truncation) and LDM soft errors are applied to the received
    /// image of a *get* (`buf` is `Some`) after the transfer lands.
    fn dma_with_faults(
        &mut self,
        name: &'static str,
        buf: Option<LdmBuf>,
        op: impl Fn(&mut Self) -> Result<Receipt, MemError>,
    ) -> Result<Receipt, MemError> {
        let op_idx = self.dma_ops;
        self.dma_ops += 1;
        let Some(inj) = self.injector else {
            let r = op(self)?;
            self.note_dma(name, &r);
            return Ok(r);
        };
        let inj = Arc::clone(inj);
        let budget = inj.spec().dma_transient_max_retry;
        let mut retry = 0u32;
        loop {
            let fault = inj.dma_fault(self.coord.id(), op_idx, retry);
            if fault == Some(DmaFault::Transient) {
                self.flight.record(
                    self.ring(),
                    EventKind::FaultDecision,
                    flight::fault_code::DMA_TRANSIENT,
                    op_idx,
                );
                if retry >= budget {
                    inj.note_retry_exhausted();
                    return Err(MemError::RetryBudgetExhausted {
                        attempts: retry + 1,
                        what: format!("{name} (CPE {}, op {op_idx})", self.coord),
                    });
                }
                // The backoff holds the DMA lane: an issue/complete
                // pair makes it a span like any transfer.
                let code = flight::dma_op_code("backoff");
                let cycles = DMA_RETRY_BACKOFF_CYCLES << retry;
                self.flight
                    .record(self.ring(), EventKind::DmaIssue, code, 0);
                let t1 = self.flight.advance(self.ring(), Lane::Dma, cycles);
                self.flight
                    .record_at(self.ring(), t1, EventKind::DmaComplete, code, cycles);
                retry += 1;
                self.flight
                    .record(self.ring(), EventKind::RetryAttempt, retry, op_idx);
                continue;
            }
            let r = op(self)?;
            self.note_dma(name, &r);
            if let Some(buf) = buf {
                if let Some(f) = fault {
                    let code = match f {
                        DmaFault::Transient => unreachable!("handled above"),
                        DmaFault::BitFlip { .. } => flight::fault_code::DMA_BITFLIP,
                        DmaFault::Truncate { .. } => flight::fault_code::DMA_TRUNCATE,
                    };
                    self.flight
                        .record(self.ring(), EventKind::FaultDecision, code, op_idx);
                    apply_payload_fault(f, self.ldm.slice_mut(buf));
                }
                if let Some((word, bit)) = inj.ldm_fault(self.coord.id(), op_idx) {
                    self.flight.record(
                        self.ring(),
                        EventKind::FaultDecision,
                        flight::fault_code::LDM_BITFLIP,
                        op_idx,
                    );
                    apply_ldm_flip(word, bit, self.ldm.slice_mut(buf));
                }
            }
            inj.note_dma_recovered(retry);
            return Ok(r);
        }
    }

    /// `PE_MODE` get into `buf`.
    pub fn dma_pe_get(&mut self, region: MatRegion, buf: LdmBuf) -> Result<Receipt, MemError> {
        self.dma_with_faults("pe.get", Some(buf), |c| {
            dma::pe_get(c.mem, region, c.ldm, buf)
        })
    }

    /// `PE_MODE` put from `buf`.
    pub fn dma_pe_put(&mut self, region: MatRegion, buf: LdmBuf) -> Result<Receipt, MemError> {
        self.dma_with_faults("pe.put", None, |c| dma::pe_put(c.mem, region, c.ldm, buf))
    }

    /// `BCAST_MODE` get (all 64 CPEs call this with the same region).
    pub fn dma_bcast_get(&mut self, region: MatRegion, buf: LdmBuf) -> Result<Receipt, MemError> {
        self.dma_with_faults("bcast.get", Some(buf), |c| {
            dma::bcast_get(c.mem, region, c.ldm, buf)
        })
    }

    /// `ROW_MODE` get: the 8 CPEs of this row synchronize, then each
    /// receives its interleaved share of the region stream.
    pub fn dma_row_get(&mut self, region: MatRegion, buf: LdmBuf) -> Result<Receipt, MemError> {
        self.sync_row();
        self.dma_with_faults("row.get", Some(buf), |c| {
            dma::row_get(c.mem, region, c.coord.col as usize, c.ldm, buf)
        })
    }

    /// `ROW_MODE` put: inverse scatter, with the row synchronization.
    pub fn dma_row_put(&mut self, region: MatRegion, buf: LdmBuf) -> Result<Receipt, MemError> {
        self.sync_row();
        self.dma_with_faults("row.put", None, |c| {
            dma::row_put(c.mem, region, c.coord.col as usize, c.ldm, buf)
        })
    }

    /// `BROW_MODE` get (the 8 CPEs of this row receive full copies).
    pub fn dma_brow_get(&mut self, region: MatRegion, buf: LdmBuf) -> Result<Receipt, MemError> {
        self.sync_row();
        self.dma_with_faults("brow.get", Some(buf), |c| {
            dma::brow_get(c.mem, region, c.ldm, buf)
        })
    }

    /// `RANK_MODE` get (all 64 CPEs receive transaction-interleaved
    /// shares).
    pub fn dma_rank_get(&mut self, region: MatRegion, buf: LdmBuf) -> Result<Receipt, MemError> {
        self.dma_with_faults("rank.get", Some(buf), |c| {
            dma::rank_get(c.mem, region, c.coord.id(), c.ldm, buf)
        })
    }

    /// The register-communication port (panel broadcasts, `getr`/`getc`).
    pub fn mesh(&self) -> &MeshPort {
        &self.port
    }

    fn mesh_fail(&self, e: MeshError) -> ! {
        match e {
            // The token already poisoned the barriers.
            MeshError::Cancelled { .. } => self.cancelled(),
            e => self.abort(CpeError::Mesh(e)),
        }
    }

    /// Charges an `n_words` mesh episode to this CPE's mesh lane.
    /// Only the `CpeCtx` wrappers (variant strip steps) charge mesh
    /// time — mesh traffic driven from inside a kernel is already part
    /// of the kernel's cycle report, so charging it again would double
    /// count; the port still records the episode *event* either way.
    #[inline]
    fn charge_mesh(&self, n_words: usize) {
        self.flight.advance(
            self.ring(),
            Lane::Mesh,
            n_words as u64 * sw_arch::consts::MESH_TRANSIT_CYCLES,
        );
    }

    /// Broadcasts `n_words` words `word_at(0..n_words)` on the column
    /// (`col_net`) or row network in one episode, written straight
    /// into the mesh (see [`MeshPort::bcast`]); aborts the run on
    /// deadlock.
    pub fn mesh_bcast(&self, col_net: bool, n_words: usize, word_at: impl Fn(usize) -> V256) {
        if let Err(e) = self.port.bcast(col_net, n_words, word_at) {
            self.mesh_fail(e);
        }
        self.charge_mesh(n_words);
    }

    /// Waits for this CPE's next `n_words` words on the column
    /// (`col_net`) or row network and lends them where they sit in the
    /// mesh (see [`MeshPort::recv_window`]); aborts on starvation.
    pub fn mesh_recv_window(&self, col_net: bool, n_words: usize) -> Window<'_> {
        let window = self
            .port
            .recv_window(col_net, n_words)
            .unwrap_or_else(|e| self.mesh_fail(e));
        self.charge_mesh(n_words);
        window
    }

    /// Batched row-panel broadcast (`&[f64]`, length a multiple of 4);
    /// aborts the run on deadlock.
    pub fn mesh_row_bcast_panel(&self, panel: &[f64]) {
        if let Err(e) = self.port.row_bcast_panel(panel) {
            self.mesh_fail(e);
        }
        self.charge_mesh(panel.len() / 4);
    }

    /// Batched column-panel broadcast; aborts the run on deadlock.
    pub fn mesh_col_bcast_panel(&self, panel: &[f64]) {
        if let Err(e) = self.port.col_bcast_panel(panel) {
            self.mesh_fail(e);
        }
        self.charge_mesh(panel.len() / 4);
    }

    /// Batched panel receive from the row (`col_net == false`) or
    /// column network; aborts on starvation.
    pub fn mesh_get_panel(&self, col_net: bool, out: &mut [f64]) {
        if let Err(e) = self.port.get_panel(col_net, out) {
            self.mesh_fail(e);
        }
        self.charge_mesh(out.len() / 4);
    }

    /// Ends this CPE's collective strip step on the mesh: the lines it
    /// broadcast on pass to their next step's sender (see
    /// [`MeshPort::end_step`]). Called once per strip step by every
    /// CPE, this paces the steps without a barrier; it charges no
    /// simulated time.
    pub fn mesh_end_step(&self) {
        self.port.end_step();
    }

    /// Executes an ISA kernel stream against this CPE's LDM and mesh
    /// port, returning the executor's cycle report.
    pub fn run_kernel(&mut self, prog: &[Instr]) -> ExecReport {
        #[cfg(debug_assertions)]
        lint_gate::check(prog);
        self.flight
            .record(self.ring(), EventKind::KernelStart, 0, prog.len() as u64);
        let mut comm = MeshComm {
            port: &self.port,
            sync: self.sync,
            coord: self.coord,
        };
        let mut machine = Machine::new(self.ldm.raw_mut(), &mut comm);
        let report = machine.run(prog);
        let t1 = self
            .flight
            .advance(self.ring(), Lane::Compute, report.cycles);
        self.flight
            .record_at(self.ring(), t1, EventKind::KernelEnd, 0, report.cycles);
        report
    }
}

/// Debug-build safety net: every distinct kernel stream handed to
/// [`CpeCtx::run_kernel`] is statically linted once per process before
/// its first execution. I-cache findings are excluded — the simulator
/// models no i-cache, and fully unrolled kernels exceed the budget by
/// design — so this catches real stream defects (bad registers, LDM
/// overruns, malformed branches) without outlawing unrolled kernels.
#[cfg(debug_assertions)]
mod lint_gate {
    use std::collections::HashSet;
    use std::hash::{DefaultHasher, Hash, Hasher};
    use std::sync::{Mutex, OnceLock};
    use sw_isa::Instr;

    fn seen() -> &'static Mutex<HashSet<u64>> {
        static S: OnceLock<Mutex<HashSet<u64>>> = OnceLock::new();
        S.get_or_init(|| Mutex::new(HashSet::new()))
    }

    pub(crate) fn check(prog: &[Instr]) {
        let mut h = DefaultHasher::new();
        prog.hash(&mut h);
        if !seen()
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(h.finish())
        {
            return;
        }
        let mut report = sw_lint::lint_stream(prog, None);
        report
            .diagnostics
            .retain(|d| d.code != sw_lint::codes::ICACHE_OVERFLOW);
        assert!(
            report.error_count() == 0,
            "kernel stream handed to CpeCtx::run_kernel fails sw-lint:\n{}",
            report.render_text()
        );
    }
}

/// Adapts a mesh port to the executor's infallible communication
/// trait: a failed operation aborts the run exactly like the
/// [`CpeCtx`] mesh wrappers do.
struct MeshComm<'p> {
    port: &'p MeshPort,
    sync: &'p RunSync,
    coord: Coord,
}

impl MeshComm<'_> {
    fn fail(&self, e: MeshError) -> ! {
        let error = match e {
            MeshError::Cancelled { .. } => CpeError::Cancelled,
            e => {
                self.sync.cancel_all();
                CpeError::Mesh(e)
            }
        };
        panic_any(CpeAbort {
            coord: self.coord,
            error,
        })
    }
}

impl CommPort for MeshComm<'_> {
    fn row_bcast(&mut self, v: sw_arch::V256) {
        if let Err(e) = self.port.row_bcast(v) {
            self.fail(e);
        }
    }
    fn col_bcast(&mut self, v: sw_arch::V256) {
        if let Err(e) = self.port.col_bcast(v) {
            self.fail(e);
        }
    }
    fn getr(&mut self) -> sw_arch::V256 {
        match self.port.getr() {
            Ok(v) => v,
            Err(e) => self.fail(e),
        }
    }
    fn getc(&mut self) -> sw_arch::V256 {
        match self.port.getc() {
            Ok(v) => v,
            Err(e) => self.fail(e),
        }
    }
}
