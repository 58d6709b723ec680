//! # csc-labeling
//!
//! 2-hop hub labeling with **exact shortest-path counting**, plus the two
//! baseline algorithms the CSC paper compares against:
//!
//! * [`HpSpcIndex`] — HP-SPC (Zhang & Yu, SIGMOD 2020): pruned landmark
//!   labeling whose entries carry shortest-path counts partitioned by
//!   highest-ranked vertex, making `SPCnt(s, t)` queries exact.
//! * [`scc_baseline::scc_count`] — Baseline 1: `SCCnt` via HP-SPC plus
//!   neighborhood enumeration (Section III-A).
//! * [`BfsCycleEngine`] — Baseline 2: index-free `O(n + m)` BFS counting
//!   (Section III-B, Algorithm 1).
//!
//! The building blocks ([`LabelEntry`], [`Labels`], [`SearchState`],
//! [`HubCache`]) are shared with `csc-core`, which layers the bipartite
//! conversion and couple-vertex skipping on the same machinery.
//!
//! Label storage is one arena: [`Labels`] writes its lists copy-on-write
//! into an open segment, and [`Labels::publish`] seals it and hands out a
//! [`FrozenLabels`], an immutable view that shares every segment with the
//! store, for serving with the adaptive intersection kernel
//! ([`intersect_adaptive`]: branchless dual-chain merge + galloping). Both
//! answer identically through the [`LabelStore`] trait — see the
//! [`labels`] and [`frozen`] modules.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bfs_cycle;
pub mod cycle;
pub mod entry;
pub mod error;
pub mod frozen;
pub mod hpspc;
pub mod labels;
pub mod scc_baseline;
pub mod state;

pub use bfs_cycle::{scc_count_bfs, BfsCycleEngine};
pub use cycle::CycleCount;
pub use entry::{EntryOverflow, LabelEntry, MAX_COUNT, MAX_DIST, MAX_HUB_RANK};
pub use error::LabelingError;
pub use frozen::{intersect_adaptive, FrozenLabels, LabelStore};
pub use hpspc::{BuildStats, HpSpcIndex};
pub use labels::{DistCount, LabelSide, Labels, ListLayout};
pub use state::{HubCache, Scan, SearchState, INF};
