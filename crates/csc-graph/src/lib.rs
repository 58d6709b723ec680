//! # csc-graph
//!
//! Directed-graph substrate for the CSC shortest-cycle-counting stack.
//!
//! This crate provides everything the labeling layers need from a graph
//! library, built from scratch:
//!
//! * [`DiGraph`] — a mutable directed graph with forward and reverse
//!   adjacency, supporting the edge insertions/deletions that drive the
//!   dynamic-index experiments.
//! * [`Csr`] — an immutable compressed-sparse-row snapshot for cache-friendly
//!   read-mostly traversal.
//! * [`bipartite`] — the paper's Algorithm 2: the `G -> Gb` conversion that
//!   turns shortest-cycle counting into shortest-path counting.
//! * [`generators`] — seeded synthetic workloads standing in for the paper's
//!   SNAP/Konect datasets (the `csc-bench::datasets` module docs give the
//!   substitution rationale).
//! * [`order`] — total vertex orders (ranks) satisfying the labeling cover
//!   constraint.
//! * [`traversal`] / [`properties`] — plain BFS oracles and structural
//!   statistics used as ground truth by the test suites.
//! * [`io`] — SNAP-style edge-list text I/O.
//! * [`fixtures`] — the worked examples from the paper (Figure 2 et al.).
//!
//! All public items are documented; see the module-level tests for usage.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bipartite;
pub mod budget;
pub mod csr;
pub mod digraph;
pub mod enumerate;
pub mod error;
pub mod fixtures;
pub mod generators;
pub mod io;
pub mod order;
pub mod properties;
pub mod traversal;
pub mod vertex;

pub use bipartite::BipartiteGraph;
pub use budget::{BudgetExceeded, OpBudget};
pub use csr::Csr;
pub use digraph::DiGraph;
pub use error::GraphError;
pub use order::{
    coverage_sampling_order, OrderingStrategy, Rank, RankTable, DEFAULT_SAMPLES_PER_LOG_N,
};
pub use traversal::{
    BucketQueue, DistMap, PooledWorkspace, SweepHandle, SweepMaps, TraversalWorkspace,
    WorkspacePool, UNREACHED,
};
pub use vertex::VertexId;
