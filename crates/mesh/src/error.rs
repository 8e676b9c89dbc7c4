//! Structured mesh failures.

use std::fmt;
use std::time::Duration;

/// A mesh operation that could not complete.
///
/// The register-communication networks are blocking: a broadcast into a
/// full receive buffer and a `getr`/`getc` on an empty one both wait.
/// When the wait can never end — the fiber executor found no CPE of the
/// run able to progress, or the mesh's wall-clock fuse tripped — the
/// operation returns this error instead of hanging; the runtime
/// converts it into a structured DGEMM error carrying a rendezvous
/// summary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MeshError {
    /// A blocked operation can never complete.
    Deadlock {
        /// `(row, col)` of the CPE whose operation blocked.
        coord: (u8, u8),
        /// The blocked operation (`"row-broadcast"`, `"getr"`, …).
        op: &'static str,
        /// The mesh's wall-clock fuse, the outer bound of the wait.
        timeout: Duration,
    },
    /// A blocked operation gave up because the run's cancel token
    /// fired (see `sw_check::fiber::cancelled`).
    Cancelled {
        /// `(row, col)` of the CPE whose operation blocked.
        coord: (u8, u8),
        /// The blocked operation.
        op: &'static str,
    },
}

impl MeshError {
    /// `(row, col)` of the CPE that observed the failure.
    pub fn coord(&self) -> (u8, u8) {
        match self {
            MeshError::Deadlock { coord, .. } | MeshError::Cancelled { coord, .. } => *coord,
        }
    }
}

impl fmt::Display for MeshError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MeshError::Deadlock { coord, op, timeout } => write!(
                f,
                "mesh deadlock: CPE ({}, {}) {op} can never complete (fuse {timeout:?})",
                coord.0, coord.1
            ),
            MeshError::Cancelled { coord, op } => write!(
                f,
                "mesh wait cancelled: CPE ({}, {}) {op}",
                coord.0, coord.1
            ),
        }
    }
}

impl std::error::Error for MeshError {}
