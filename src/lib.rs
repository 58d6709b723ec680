//! # csc — real-time shortest-cycle counting on dynamic graphs
//!
//! A Rust reproduction of *Towards Real-Time Counting Shortest Cycles on
//! Dynamic Graphs: A Hub Labeling Approach* (Feng, Peng, Zhang, Zhang, Lin
//! — ICDE 2022, arXiv:2207.01035).
//!
//! This facade crate re-exports the full stack:
//!
//! | Layer | Crate | What it provides |
//! |-------|-------|------------------|
//! | [`graph`] | `csc-graph` | directed graphs, generators, orderings, bipartite conversion, BFS oracles |
//! | [`labeling`] | `csc-labeling` | HP-SPC 2-hop shortest-path-counting labels, frozen label arenas + adaptive kernel, the BFS baseline |
//! | [`index`] | `csc-core` | the CSC index: microsecond `SCCnt(v)` queries with incremental/decremental maintenance, plus lock-free snapshot serving (`SnapshotIndex` / `ConcurrentIndex`) |
//!
//! Reads share one label arena (see the README): the mutable index
//! answers read-your-writes queries, while immutable snapshots published
//! from it serve concurrent traffic lock-free and power parallel
//! analytics sweeps.
//!
//! ## Quickstart
//!
//! ```
//! use csc::prelude::*;
//!
//! // A payment network: 0 -> 1 -> 2 -> 0 plus a probe edge.
//! let g = DiGraph::from_edges(4, vec![(0, 1), (1, 2), (2, 0), (3, 0)]);
//! let mut index = CscIndex::build(&g, CscConfig::default()).unwrap();
//!
//! // How many shortest cycles run through account 0?
//! let c = index.query(VertexId(0)).unwrap();
//! assert_eq!((c.length, c.count), (3, 1));
//!
//! // A new transaction closes a second ring — the index keeps up.
//! index.insert_edge(VertexId(0), VertexId(3)).unwrap();
//! assert_eq!(index.query(VertexId(3)).unwrap().length, 2);
//! ```
//!
//! See the `examples/` directory for the fraud-detection and P2P routing
//! scenarios from the paper's introduction, and `csc-bench` for the
//! harness regenerating every table and figure of its evaluation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use csc_core as index;
pub use csc_graph as graph;
pub use csc_labeling as labeling;

/// The common imports for working with the library.
pub mod prelude {
    pub use csc_core::{
        BatchReport, ConcurrentIndex, CscConfig, CscError, CscIndex, CycleCount, Deadline,
        FsyncPolicy, GraphUpdate, IndexHealth, MaintenanceEngine, MaintenanceStatus,
        ParallelismConfig, RecoveryReport, RejuvenationReport, RetryPolicy, SnapshotIndex,
        SnapshotStats, UpdateReport, UpdateStrategy,
    };
    pub use csc_graph::{DiGraph, GraphError, OrderingStrategy, VertexId};
    pub use csc_labeling::{scc_count_bfs, BfsCycleEngine, FrozenLabels, HpSpcIndex, LabelStore};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_exposes_the_stack() {
        let g = DiGraph::from_edges(3, vec![(0, 1), (1, 2), (2, 0)]);
        let index = CscIndex::build(&g, CscConfig::default()).unwrap();
        let hp = HpSpcIndex::build(&g, OrderingStrategy::Degree).unwrap();
        let via_csc = index.query(VertexId(1)).unwrap();
        let via_hp = csc_labeling::scc_baseline::scc_count(&hp, &g, VertexId(1)).unwrap();
        let via_bfs = scc_count_bfs(&g, VertexId(1)).unwrap();
        assert_eq!(via_csc, via_hp);
        assert_eq!(via_csc, via_bfs);
    }
}
