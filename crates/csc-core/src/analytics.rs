//! Graph-level analytics over the index: vertex retirement, girth, and the
//! top-k screening primitive behind the fraud case study.
//!
//! Whole-graph sweeps (`girth`, `top_k_by_cycle_count`) exist on both
//! [`CscIndex`] (sequential, over the writer's view of the label arena)
//! and [`SnapshotIndex`] (parallel, over a published one). Prefer the
//! snapshot variants for analytics: they see an immutable state, never
//! block a writer, and fan the per-vertex label intersections out across
//! cores.

use crate::batch::GraphUpdate;
use crate::deadline::UNBOUNDED;
use crate::error::CscError;
use crate::guard::Deadline;
use crate::index::CscIndex;
use crate::snapshot::SnapshotIndex;
use crate::stats::UpdateReport;
use csc_graph::VertexId;
use csc_labeling::CycleCount;

/// A vertex together with its shortest-cycle profile.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VertexCycles {
    /// The vertex.
    pub vertex: VertexId,
    /// Its shortest-cycle length and count.
    pub cycles: CycleCount,
}

impl CscIndex {
    /// Retires a vertex by removing all of its incident edges (the paper's
    /// reduction of vertex deletion to edge deletions, Section II-A) as
    /// one deletion window. The vertex id remains valid but isolated; its
    /// queries return `None`. Returns the window's repair counters.
    ///
    /// # Errors
    ///
    /// [`CscError::Poisoned`] on a poisoned index, `VertexOutOfRange` for
    /// an unknown vertex; both leave the index untouched. A labeling
    /// capacity overflow mid-window poisons the index.
    pub fn retire_vertex(&mut self, v: VertexId) -> Result<UpdateReport, CscError> {
        self.check_ready()?;
        let n = self.original_vertex_count();
        if v.index() >= n {
            return Err(csc_graph::GraphError::VertexOutOfRange { vertex: v, n }.into());
        }
        let g = self.original_graph();
        let out = g.nbr_out(v).iter().map(|&w| (v, VertexId(w)));
        let inn = g.nbr_in(v).iter().map(|&u| (VertexId(u), v));
        let window: Vec<GraphUpdate> = out
            .chain(inn)
            .map(|(a, b)| GraphUpdate::RemoveEdge(a, b))
            .collect();
        Ok(self.apply_batch(&window)?.repair)
    }

    /// The girth of the indexed graph — the globally shortest cycle length
    /// — together with the total number of shortest-cycle *incidences*
    /// (vertices realizing it). `None` for acyclic graphs.
    ///
    /// One index query per vertex: `O(n)` label intersections, run by
    /// [`girth_deadline`](Self::girth_deadline) without a deadline.
    pub fn girth(&self) -> Option<(u32, usize)> {
        self.girth_deadline(Deadline::NONE).expect(UNBOUNDED)
    }

    /// The `k` most cycle-laden vertices among those whose shortest cycle
    /// is at most `max_length` — the screening primitive of the fraud case
    /// study (count descending, then length ascending, then id). Runs
    /// [`top_k_by_cycle_count_deadline`](Self::top_k_by_cycle_count_deadline)
    /// without a deadline.
    pub fn top_k_by_cycle_count(&self, k: usize, max_length: u32) -> Vec<VertexCycles> {
        self.top_k_by_cycle_count_deadline(k, max_length, Deadline::NONE)
            .expect(UNBOUNDED)
    }
}

/// Shared girth accumulator: minimum cycle length and how many vertices
/// realize it, over per-vertex `SCCnt` results in id order.
pub(crate) fn girth_fold(
    results: impl Iterator<Item = Option<CycleCount>>,
) -> Option<(u32, usize)> {
    let mut best: Option<(u32, usize)> = None;
    for c in results.flatten() {
        best = Some(match best {
            None => (c.length, 1),
            Some((b, _)) if c.length < b => (c.length, 1),
            Some((b, k)) if c.length == b => (b, k + 1),
            Some(keep) => keep,
        });
    }
    best
}

/// Shared top-k screening: filter by `max_length`, order by count
/// descending / length ascending / vertex id, truncate to `k`. Takes
/// per-vertex `SCCnt` results in id order.
pub(crate) fn rank_by_cycle_count(
    results: impl Iterator<Item = Option<CycleCount>>,
    k: usize,
    max_length: u32,
) -> Vec<VertexCycles> {
    let mut all: Vec<VertexCycles> = results
        .enumerate()
        .filter_map(|(v, c)| {
            c.map(|cycles| VertexCycles {
                vertex: VertexId(v as u32),
                cycles,
            })
        })
        .filter(|vc| vc.cycles.length <= max_length)
        .collect();
    all.sort_by(|a, b| {
        b.cycles
            .count
            .cmp(&a.cycles.count)
            .then(a.cycles.length.cmp(&b.cycles.length))
            .then(a.vertex.cmp(&b.vertex))
    });
    all.truncate(k);
    all
}

impl SnapshotIndex {
    /// The girth and shortest-cycle incidence count of the snapshotted
    /// graph (same contract as [`CscIndex::girth`]), with the `O(n)` label
    /// intersections evaluated in parallel on the frozen arena by
    /// [`girth_deadline`](Self::girth_deadline) without a deadline.
    pub fn girth(&self) -> Option<(u32, usize)> {
        self.girth_deadline(Deadline::NONE).expect(UNBOUNDED)
    }

    /// The `k` most cycle-laden vertices among those whose shortest cycle
    /// is at most `max_length` (same contract and ordering as
    /// [`CscIndex::top_k_by_cycle_count`]), with the per-vertex queries
    /// evaluated in parallel on the frozen arena by
    /// [`top_k_by_cycle_count_deadline`](Self::top_k_by_cycle_count_deadline)
    /// without a deadline.
    pub fn top_k_by_cycle_count(&self, k: usize, max_length: u32) -> Vec<VertexCycles> {
        self.top_k_by_cycle_count_deadline(k, max_length, Deadline::NONE)
            .expect(UNBOUNDED)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CscConfig;
    use csc_graph::generators::{directed_cycle, gnm, laundering_network, LaunderingParams};
    use csc_graph::traversal::shortest_cycle_oracle;
    use csc_graph::DiGraph;

    #[test]
    fn retire_vertex_isolates_and_stays_exact() {
        let mut g = gnm(14, 50, 3);
        let mut idx = CscIndex::build(&g, CscConfig::default()).unwrap();
        let victim = VertexId(5);
        idx.retire_vertex(victim).unwrap();
        for &w in g.nbr_out(victim).to_vec().iter() {
            g.try_remove_edge(victim, VertexId(w)).unwrap();
        }
        for &u in g.nbr_in(victim).to_vec().iter() {
            g.try_remove_edge(VertexId(u), victim).unwrap();
        }
        assert_eq!(idx.query(victim), None);
        for v in g.vertices() {
            assert_eq!(
                idx.query(v).map(|c| (c.length, c.count)),
                shortest_cycle_oracle(&g, v),
                "post-retirement SCCnt({v})"
            );
        }
        assert!(matches!(
            idx.retire_vertex(VertexId(99)),
            Err(CscError::Graph(_))
        ));
    }

    #[test]
    fn girth_via_index() {
        let idx = CscIndex::build(&directed_cycle(5), CscConfig::default()).unwrap();
        assert_eq!(idx.girth(), Some((5, 5)));
        let dag = DiGraph::from_edges(3, vec![(0, 1), (1, 2)]);
        let idx = CscIndex::build(&dag, CscConfig::default()).unwrap();
        assert_eq!(idx.girth(), None);
        // Cross-check against the brute-force girth on a random graph.
        let g = gnm(25, 70, 8);
        let idx = CscIndex::build(&g, CscConfig::default()).unwrap();
        assert_eq!(idx.girth(), csc_graph::enumerate::girth(&g));
    }

    #[test]
    fn snapshot_sweeps_match_live_index() {
        let g = gnm(60, 240, 13);
        let idx = CscIndex::build(&g, CscConfig::default()).unwrap();
        let snap = idx.freeze();
        assert_eq!(snap.girth(), idx.girth());
        assert_eq!(
            snap.top_k_by_cycle_count(10, u32::MAX),
            idx.top_k_by_cycle_count(10, u32::MAX)
        );
        assert_eq!(
            snap.top_k_by_cycle_count(3, 4),
            idx.top_k_by_cycle_count(3, 4)
        );
    }

    #[test]
    fn top_k_screening_finds_planted_rings() {
        let net = laundering_network(
            LaunderingParams {
                accounts: 600,
                background_edges: 1200,
                criminals: 4,
                cycles_per_criminal: 7,
                cycle_len: 4,
            },
            5,
        );
        let idx = CscIndex::build(&net.graph, CscConfig::default()).unwrap();
        let top = idx.top_k_by_cycle_count(4, net.cycle_len);
        assert_eq!(top.len(), 4);
        let planted: std::collections::HashSet<u32> = net.criminals.iter().map(|c| c.0).collect();
        let hits = top
            .iter()
            .filter(|vc| planted.contains(&vc.vertex.0))
            .count();
        assert!(hits >= 3, "screening recovered only {hits}/4 rings");
        // Ordered by count descending.
        for w in top.windows(2) {
            assert!(w[0].cycles.count >= w[1].cycles.count);
        }
    }
}
