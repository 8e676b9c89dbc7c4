//! DGEMM for the SW26010 core group — the paper's contribution.
//!
//! This crate implements `C = α·A·B + β·C` (non-transposed, column-major,
//! dimensions multiples of the block factors — the case the paper
//! implements) on the simulated core group, with the full optimization
//! ladder of §V:
//!
//! | Variant | Adds |
//! |---------|------|
//! | [`Variant::Raw`]   | straightforward thread-blocked loop, `PE_MODE` DMA |
//! | [`Variant::Pe`]    | three-level blocking + collective data sharing (§III) |
//! | [`Variant::Row`]   | `ROW_MODE` data-thread mapping for A and C (§IV-A) |
//! | [`Variant::Db`]    | double buffering (§IV-B, Algorithm 2) |
//! | [`Variant::Sched`] | instruction-scheduled kernel (§IV-C, Algorithm 3) |
//!
//! Each variant runs in two modes sharing the same blocking plans:
//! *functional* (really computes, on the 64-thread simulator —
//! [`api::DgemmRunner`]) and *timing* (discrete-event estimate of
//! sustained Gflops at arbitrary sizes — [`timing::estimate`]).
//!
//! Beyond the paper's text, the crate includes the analytic block-size
//! model of §III-C ([`model`]), and an auto-tuner ([`tuner`]) in the
//! spirit of the paper's future work.

pub mod abft;
pub mod api;
pub mod diagnostics;
pub mod error;
pub mod gen;
pub mod lint;
pub mod mapping;
pub mod model;
pub mod multi;
pub mod padding;
pub mod params;
pub mod plan;
pub mod reference;
pub mod sharing;
pub mod streamed;
pub mod timing;
pub mod tunecache;
pub mod tuner;
pub mod variants;

pub use abft::AbftPolicy;
pub use api::{dgemm, dgemm_ex, DgemmReport, DgemmRunner, Op};
pub use error::DgemmError;
pub use lint::lint_variant;
pub use multi::{dgemm_multi_cg, estimate_multi_cg};
pub use params::BlockingParams;
pub use plan::GemmPlan;
pub use sw_faults::{FaultSpec, FaultStats, StuckSpec, WedgeSpec};
pub use sw_isa::EngineBackend;
pub use sw_mem::HostMatrix as Matrix;
pub use sw_mem::MemError;
pub use timing::{estimate, TimingReport};
pub use tunecache::{CachedTune, TuneCache};
pub use tuner::{search, tune, TuneOutcome, TunePolicy, TuneRequest, TuneResult};
pub use variants::batched::dgemm_batched;
pub use variants::Variant;
