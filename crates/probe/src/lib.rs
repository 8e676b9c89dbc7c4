//! `sw-probe` — observability for the SW26010 simulator stack.
//!
//! Independent instruments, all `std`-only (the trace builder reads
//! two constants from `sw-arch`):
//!
//! * [`trace`] — **simulated-time timelines** as plain data. A
//!   [`trace::TraceData`] holds tracks and spans stamped in *simulated
//!   cycles*, with one producer per clock: the timing DAG
//!   (`Dag::emit_trace` in `sw-sim`) for the model, and
//!   [`trace::from_flight`] for functional runs, which reads the
//!   flight rings back as one track per CPE. It exports as
//!   Chrome-trace-event JSON (loadable in Perfetto) or as the classic
//!   text Gantt via [`gantt`].
//! * [`metrics`] — a **metrics registry**: counters, gauges, and
//!   fixed-bucket histograms on plain atomics, registered by name in a
//!   process-global (or local) [`metrics::Registry`] with one
//!   snapshot/reset API and JSON/CSV export. It absorbs the previously
//!   scattered `DmaCounters`, `MeshCounters`, and kernel-cache stats.
//! * [`flight`] — an always-on **black-box flight recorder**: per-CPE
//!   lock-free bounded rings of compact binary events (kernel, DMA,
//!   mesh, barrier, fault, retry) plus the authoritative per-CPE
//!   simulated clock with per-[`flight::Lane`] busy attribution. It
//!   records by default; its tails feed the diagnostics bundles
//!   `sw-dgemm` emits on structured failures (rendered by the
//!   `sw-diagnose` bin, parsed back via [`json`]), and a recorder
//!   sized to hold a whole run feeds [`trace::from_flight`].
//! * [`stall`] — the vocabulary for **per-pipe stall attribution** in
//!   the `sw-isa` interpreter: every simulated cycle of a kernel run
//!   is classified as issue, RAW stall, load-use stall, pipe conflict,
//!   or loop overhead, per pipe, summing exactly to the reported total.
//!
//! Probes are near-free when off: the interpreter's attribution path
//! is compiled out via a const generic, so the fig6 sweep regresses
//! <2% with probes off (asserted by `engine_bench`).

#[cfg(sw_check)]
pub mod check_models;
pub mod flight;
pub mod gantt;
pub mod json;
pub mod metrics;
pub mod stall;
pub mod trace;

pub use flight::{EventKind, FlightEvent, FlightRecorder, Lane, RingAttribution};
pub use metrics::{Counter, Gauge, Histogram, MetricValue, MetricsSnapshot, Registry};
pub use stall::{PipeBreakdown, StallKind, StallReport};
pub use trace::{from_flight, Span, TraceData, Track, TrackId};
