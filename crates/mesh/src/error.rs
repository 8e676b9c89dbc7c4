//! Structured mesh failures.

use std::fmt;
use std::time::Duration;

/// A mesh operation that could not complete.
///
/// The register-communication networks are blocking: a broadcast into a
/// full receive buffer and a `getr`/`getc` on an empty one both wait.
/// When the wait exceeds the mesh's deadlock fuse the operation returns
/// this error instead of hanging — the runtime converts it into a
/// structured DGEMM error carrying a rendezvous summary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MeshError {
    /// A blocked operation outlived the deadlock timeout.
    Deadlock {
        /// `(row, col)` of the CPE whose operation blocked.
        coord: (u8, u8),
        /// The blocked operation (`"row-broadcast"`, `"getr"`, …).
        op: &'static str,
        /// The fuse that tripped.
        timeout: Duration,
    },
    /// A blocked operation gave up because the run's cancel flag was
    /// raised (see `Mesh::set_cancel_flag`).
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
                "mesh deadlock: CPE ({}, {}) {op} blocked >{timeout:?}",
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
