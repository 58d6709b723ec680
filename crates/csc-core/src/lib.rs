//! # csc-core
//!
//! **CSC — Counting Shortest Cycles**: a dynamic hub-labeling index that
//! answers "how many shortest cycles pass through vertex `v`?" in
//! microseconds, reproducing *Towards Real-Time Counting Shortest Cycles on
//! Dynamic Graphs: A Hub Labeling Approach* (ICDE 2022).
//!
//! The index converts the directed graph to its bipartite form (every
//! vertex split into an in/out couple), builds a shortest-path-counting
//! 2-hop labeling over it with *couple-vertex skipping*, and answers
//! `SCCnt(v)` as a single label intersection `SPCnt(v_o, v_i)` — no
//! neighborhood enumeration, which is what makes query time independent of
//! the query vertex's degree. Edge insertions and deletions repair the
//! index in place through one batch engine ([`CscIndex::apply_batch`]),
//! which normalizes a window and repairs per affected *hub* rather than
//! per edge; the scalar `insert_edge` / `remove_edge` are one-op windows
//! of it. See `docs/ARCHITECTURE.md` at the repo root for the end-to-end
//! walkthrough.
//!
//! ```
//! use csc_core::{CscConfig, CscIndex};
//! use csc_graph::{DiGraph, VertexId};
//!
//! let g = DiGraph::from_edges(4, vec![(0, 1), (1, 2), (2, 0)]);
//! let mut index = CscIndex::build(&g, CscConfig::default()).unwrap();
//!
//! let c = index.query(VertexId(0)).unwrap();
//! assert_eq!((c.length, c.count), (3, 1));
//!
//! // The graph changes; the index follows without a rebuild.
//! index.insert_edge(VertexId(1), VertexId(0)).unwrap();
//! let c = index.query(VertexId(0)).unwrap();
//! assert_eq!((c.length, c.count), (2, 1)); // the new 0 -> 1 -> 0 two-cycle
//!
//! index.remove_edge(VertexId(1), VertexId(0)).unwrap();
//! assert_eq!(index.query(VertexId(0)).unwrap().length, 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Fires a named fault-injection point. Compiles to nothing unless the
/// `fault-injection` feature is on; with it, the hook reports to the
/// `fault` module's registry, which tests arm to simulate a crash (panic)
/// at an exact instrumented spot.
macro_rules! faultpoint {
    ($name:expr) => {
        #[cfg(feature = "fault-injection")]
        {
            $crate::fault::hit($name);
        }
    };
}

/// Fires a named *I/O-error* fault-injection point: with the
/// `fault-injection` feature on and the point armed (see
/// `fault::arm_io` / `fault::arm_io_global`), the enclosing function
/// returns `Err(CscError::Io { .. })` exactly as if the real I/O
/// operation at this site had failed with the armed
/// [`std::io::ErrorKind`]. Compiles to nothing otherwise.
macro_rules! faultpoint_io {
    ($name:expr) => {
        #[cfg(feature = "fault-injection")]
        {
            if let Some(e) = $crate::fault::take_io($name) {
                return Err($crate::error::CscError::io($name, &e));
            }
        }
    };
}

pub mod analytics;
pub mod batch;
mod build;
mod clean;
pub mod concurrent;
pub mod config;
mod crc;
mod deadline;
mod delete;
pub mod error;
/// Deterministic fault injection (empty without the `fault-injection`
/// feature — see the module docs when it is enabled).
pub mod fault;
pub mod guard;
pub mod health;
mod index;
mod invert;
pub mod maintain;
pub mod reduction;
mod repair;
pub mod serial;
pub mod snapshot;
pub mod stats;
pub mod verify;
pub mod wal;

pub use batch::{BatchReport, GraphUpdate};
pub use concurrent::ConcurrentIndex;
pub use config::{
    CscConfig, DurabilityConfig, FsyncPolicy, OverloadConfig, OverloadPolicy, ParallelismConfig,
    UpdateStrategy,
};
pub use error::CscError;
pub use guard::{Deadline, RetryPolicy};
pub use health::{HealthBaseline, IndexHealth, RebuildPolicy, RebuildReason};
pub use index::CscIndex;
pub use maintain::{
    MaintenanceEngine, MaintenanceStats, MaintenanceStatus, RecoveryReport, RejuvenationReport,
};
pub use snapshot::SnapshotIndex;
pub use stats::{IndexStats, SnapshotStats, UpdateReport};
pub use verify::IntegrityReport;
pub use wal::{WalOpenReport, WalRecord, WriteAheadLog};

// Re-exported so downstream users need only this crate for common work.
pub use csc_labeling::{CycleCount, FrozenLabels, LabelStore};
