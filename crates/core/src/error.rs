//! Error type of the DGEMM crate.

use std::fmt;
use sw_mem::MemError;

/// Errors surfaced by plan validation and the functional runner.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DgemmError {
    /// Blocking parameters violate an architectural constraint.
    BadParams(String),
    /// Problem dimensions are incompatible with the blocking plan.
    BadDims(String),
    /// An underlying memory/DMA operation failed.
    Mem(MemError),
    /// The register mesh wedged at run time: a blocked broadcast or a
    /// starved receive tripped the deadlock fuse. Carries the first
    /// failing CPE and the lint-side rendezvous summary over the
    /// observed per-CPE traffic, which names the wedged row/column
    /// group.
    MeshDeadlock {
        /// `(mesh_row, mesh_col)` of the first CPE that hit the fuse.
        coord: (u8, u8),
        /// Rendered rendezvous summary (`sw_lint::rendezvous_summary`).
        summary: String,
    },
    /// An ABFT checksum mismatch that the policy did not (or could
    /// not) correct: under [`crate::AbftPolicy::Detect`] on first
    /// detection, under [`crate::AbftPolicy::Correct`] once the
    /// recompute budget is spent.
    AbftMismatch {
        /// CG-block grid coordinates `(i, j, l)` of the bad block.
        block: (usize, usize, usize),
        /// Attempts executed for the block, including the first.
        attempts: u32,
        /// Which checksum failed and by how much.
        detail: String,
    },
    /// The run was cancelled cooperatively through a
    /// [`sw_sim::CancelToken`] installed on the runner — a policy
    /// outcome (the caller abandoned the request), not a fault. The
    /// core group stays reusable; `C` holds no result.
    Cancelled {
        /// `true` when the token was fired by a deadline watchdog
        /// (`cancel_deadline`), `false` for an explicit caller cancel.
        deadline: bool,
    },
}

impl fmt::Display for DgemmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DgemmError::BadParams(s) => write!(f, "invalid blocking parameters: {s}"),
            DgemmError::BadDims(s) => write!(f, "invalid problem dimensions: {s}"),
            DgemmError::Mem(e) => write!(f, "memory subsystem error: {e}"),
            DgemmError::MeshDeadlock { coord, summary } => write!(
                f,
                "mesh deadlock at CPE ({}, {}); rendezvous summary:\n{summary}",
                coord.0, coord.1
            ),
            DgemmError::AbftMismatch {
                block,
                attempts,
                detail,
            } => write!(
                f,
                "ABFT checksum mismatch in CG block ({}, {}, {}) after {attempts} attempt(s): \
                 {detail}",
                block.0, block.1, block.2
            ),
            DgemmError::Cancelled { deadline } => write!(
                f,
                "run cancelled ({})",
                if *deadline {
                    "deadline expired"
                } else {
                    "caller cancelled"
                }
            ),
        }
    }
}

impl std::error::Error for DgemmError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DgemmError::Mem(e) => Some(e),
            _ => None,
        }
    }
}

impl From<MemError> for DgemmError {
    fn from(e: MemError) -> Self {
        DgemmError::Mem(e)
    }
}
