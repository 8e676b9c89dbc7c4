//! The SW26010 core-group simulator.
//!
//! Two execution modes share one front-end:
//!
//! * **Functional mode** ([`CoreGroup::run`]) — runs the 64 CPEs as
//!   stackful fibers on the calling thread, each owning a 64 KB
//!   [`sw_mem::Ldm`], a [`sw_mesh::MeshPort`] onto the
//!   register-communication mesh, and a DMA handle onto the shared
//!   main memory. Data movement and
//!   arithmetic really happen; results are bit-checkable against a host
//!   reference.
//! * **Timing mode** ([`timing`]) — a discrete-event engine over two
//!   serial resources (the DMA channel and the lock-stepped CPE
//!   cluster). DGEMM variants issue their block schedules as task
//!   streams whose durations come from the calibrated DMA model
//!   (`sw-mem`) and from cycle counts measured by the ISA executor
//!   (`sw-isa`); the engine computes the makespan, from which Gflops
//!   follow.
//!
//! Overlap effects — double buffering hiding DMA under compute, the
//! prologue cost the paper observes for small m in Figure 7 — *emerge*
//! from the DAG structure rather than being hard-coded.

pub(crate) mod barrier;
pub mod cancel;
pub mod core_group;
pub mod stats;
pub mod timing;

pub use cancel::CancelToken;
pub use core_group::{CoreGroup, CpeAbort, CpeCtx, CpeError, RunError};
pub use stats::{DmaTotals, RunStats};
pub use sw_mesh::MeshTransport;
pub use sw_probe::flight::{FlightRecorder, Lane};
pub use sw_probe::trace::TraceData;
pub use timing::{
    CritBound, CritSegment, CriticalPath, Dag, Resource, TaskId, TaskSink, TaskTrace, Timeline,
    TimingResult,
};
