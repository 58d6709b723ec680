//! HP-SPC: hub labeling for shortest-path counting (the paper's baseline,
//! after Zhang & Yu, SIGMOD 2020).
//!
//! For each hub `v` in descending rank order, a forward pruned BFS writes
//! in-labels `(v, d, c)` on every reached vertex `w` for which `v` is the
//! highest-ranked vertex on at least one shortest `v ~> w` path, and a
//! backward BFS does the same for out-labels. The count `c` is the number
//! of shortest paths on which `v` is maximal — *canonical* when that is all
//! shortest paths, *non-canonical* otherwise — which is exactly the
//! partition that makes `SPCnt` queries exact (each shortest path is
//! counted once, at its unique highest-ranked vertex).
//!
//! ## Pruning
//!
//! On dequeuing `w` at BFS distance `D[w]`, the engine compares it with
//! the pair distance `d_idx` through already-indexed (strictly
//! higher-ranked) hubs ([`HubCache::scan`], which stops at the first entry
//! that proves the first case):
//!
//! * `d_idx < D[w]` — every `v`-maximal path is beaten by a higher hub:
//!   prune (no label, no expansion);
//! * `d_idx == D[w]` — shortest paths tie: insert a non-canonical label and
//!   keep expanding;
//! * `d_idx > D[w]` — `v` is maximal on every shortest path: canonical.
//!
//! The BFS never enqueues vertices ranked above the hub, so counts propagate
//! only along `v`-maximal path prefixes. Both classifications and the prune
//! test are exact.

use crate::entry::LabelEntry;
use crate::error::LabelingError;
use crate::frozen::LabelStore;
use crate::labels::{DistCount, LabelSide, Labels};
use crate::state::{HubCache, Scan, SearchState};
use csc_graph::{Csr, DiGraph, OrderingStrategy, RankTable, VertexId};
use std::time::{Duration, Instant};

/// Counters describing one labeling construction.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BuildStats {
    /// Canonical label entries inserted.
    pub canonical: usize,
    /// Non-canonical label entries inserted.
    pub non_canonical: usize,
    /// BFS dequeues pruned by the index distance check.
    pub pruned: usize,
    /// Total BFS dequeues (pruned or not).
    pub dequeues: usize,
    /// Entries whose stored count saturated the 24-bit field.
    pub saturated_counts: usize,
    /// Wall-clock construction time.
    pub build_time: Duration,
}

/// A complete HP-SPC index over a directed graph.
#[derive(Clone, Debug)]
pub struct HpSpcIndex {
    labels: Labels,
    ranks: RankTable,
    stats: BuildStats,
}

impl HpSpcIndex {
    /// Builds the index with the given ordering strategy.
    pub fn build(g: &DiGraph, strategy: OrderingStrategy) -> Result<Self, LabelingError> {
        Self::build_with_ranks(g, RankTable::build(g, strategy))
    }

    /// Builds the index under an explicit vertex order.
    pub fn build_with_ranks(g: &DiGraph, ranks: RankTable) -> Result<Self, LabelingError> {
        let start = Instant::now();
        let n = g.vertex_count();
        let max = (crate::entry::MAX_HUB_RANK as usize) + 1;
        if n > max {
            return Err(LabelingError::TooManyVertices { got: n, max });
        }
        let csr = Csr::from_digraph(g);
        let mut labels = Labels::new(n);
        let mut stats = BuildStats::default();
        let mut engine = LabelingEngine::new(n);
        for hub in ranks.by_rank() {
            engine.run(&csr, &ranks, &mut labels, &mut stats, hub, true)?;
            engine.run(&csr, &ranks, &mut labels, &mut stats, hub, false)?;
        }
        labels.compact();
        stats.build_time = start.elapsed();
        Ok(HpSpcIndex {
            labels,
            ranks,
            stats,
        })
    }

    /// The label store.
    #[inline]
    pub fn labels(&self) -> &Labels {
        &self.labels
    }

    /// The vertex order used by the index.
    #[inline]
    pub fn ranks(&self) -> &RankTable {
        &self.ranks
    }

    /// Construction statistics.
    #[inline]
    pub fn stats(&self) -> &BuildStats {
        &self.stats
    }

    /// `SPCnt(s, t)`: shortest distance and number of shortest paths from
    /// `s` to `t`, or `None` if unreachable.
    pub fn sp_count(&self, s: VertexId, t: VertexId) -> Option<DistCount> {
        if s == t {
            // The hub intersection would return (0, 1) via the self label;
            // the trivial empty path is not a meaningful SPCnt answer and
            // Section III-A explains why cycle queries must not use it.
            return Some(DistCount { dist: 0, count: 1 });
        }
        self.labels.dist_count(s, t)
    }

    /// Shortest distance from `s` to `t`, or `None` if unreachable.
    pub fn dist(&self, s: VertexId, t: VertexId) -> Option<u32> {
        self.sp_count(s, t).map(|dc| dc.dist)
    }

    /// Total number of label entries (index size in the paper's Figure 9(b)
    /// is `total_entries * 8` bytes).
    pub fn total_entries(&self) -> usize {
        self.labels.total_entries()
    }
}

/// The shared pruned-BFS-with-counting engine.
///
/// `csc-core`'s CSC construction embeds the same pruning and counting rules
/// but with couple-vertex skipping; keeping this engine small and heavily
/// tested gives the bipartite variant a verified reference to diff against.
pub(crate) struct LabelingEngine {
    state: SearchState,
    cache: HubCache,
}

impl LabelingEngine {
    pub(crate) fn new(n: usize) -> Self {
        LabelingEngine {
            state: SearchState::new(n),
            cache: HubCache::new(n),
        }
    }

    /// Runs one pruned BFS from `hub`. `forward == true` builds in-labels of
    /// reached vertices; `false` walks the reverse graph and builds
    /// out-labels.
    fn run(
        &mut self,
        csr: &Csr,
        ranks: &RankTable,
        labels: &mut Labels,
        stats: &mut BuildStats,
        hub: VertexId,
        forward: bool,
    ) -> Result<(), LabelingError> {
        let hub_rank = ranks.rank(hub);
        let (source_side, target_side) = if forward {
            (LabelSide::Out, LabelSide::In)
        } else {
            (LabelSide::In, LabelSide::Out)
        };

        // Scatter the hub's source-side labels for O(1) lookups during the
        // per-vertex distance check.
        self.cache.fill(labels.side_of(hub, source_side), hub_rank);

        let state = &mut self.state;
        state.reset();
        state.visit(hub, 0, 1);
        state.queue.push_back(hub.0);

        while let Some(w) = state.queue.pop_front() {
            let w = VertexId(w);
            let dw = state.dist[w.index()];
            let cw = state.count[w.index()];
            stats.dequeues += 1;

            // Paths through strictly higher-ranked hubs already in the index.
            let list = labels.side_of(w, target_side);
            let Scan::Kept { tie, .. } = self.cache.scan(list, hub_rank, dw) else {
                stats.pruned += 1;
                continue;
            };

            let entry =
                LabelEntry::new(hub_rank, dw, cw).map_err(|source| LabelingError::Entry {
                    hub,
                    vertex: w,
                    source,
                })?;
            if entry.count_saturated() {
                stats.saturated_counts += 1;
            }
            labels.append(w, target_side, entry);
            if tie {
                stats.non_canonical += 1;
            } else {
                stats.canonical += 1;
            }

            for &u in csr.nbrs(w, forward) {
                let u = VertexId(u);
                if !state.visited(u) {
                    if hub_rank < ranks.rank(u) {
                        state.visit(u, dw + 1, cw);
                        state.queue.push_back(u.0);
                    }
                } else if state.dist[u.index()] == dw + 1 {
                    state.accumulate(u, cw);
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csc_graph::fixtures::{figure2, figure2_order, pv};
    use csc_graph::generators::{directed_cycle, directed_path, gnm, layered_cycle};
    use csc_graph::traversal::sp_count_pair;

    fn assert_matches_oracle(g: &DiGraph, strategy: OrderingStrategy) {
        let idx = HpSpcIndex::build(g, strategy).unwrap();
        idx.labels().validate_sorted().unwrap();
        for s in g.vertices() {
            for t in g.vertices() {
                if s == t {
                    continue;
                }
                let oracle = sp_count_pair(g, s, t);
                let got = idx.sp_count(s, t).map(|dc| (dc.dist, dc.count));
                assert_eq!(got, oracle, "SPCnt({s}, {t}) under {strategy:?}");
            }
        }
    }

    #[test]
    fn exact_on_figure2_with_paper_order() {
        let g = figure2();
        let ranks = RankTable::from_order(&figure2_order());
        let idx = HpSpcIndex::build_with_ranks(&g, ranks).unwrap();
        // Example 2: SPCnt(v10, v8) = 3 at distance 4.
        let dc = idx.sp_count(pv(10), pv(8)).unwrap();
        assert_eq!((dc.dist, dc.count), (4, 3));
        // Example 3 distances.
        assert_eq!(idx.dist(pv(7), pv(4)), Some(5));
        assert_eq!(idx.dist(pv(7), pv(5)), Some(5));
        assert_eq!(idx.dist(pv(7), pv(6)), Some(6));
        // Full oracle sweep.
        for s in g.vertices() {
            for t in g.vertices() {
                if s != t {
                    let oracle = sp_count_pair(&g, s, t);
                    assert_eq!(
                        idx.sp_count(s, t).map(|dc| (dc.dist, dc.count)),
                        oracle,
                        "pair ({s}, {t})"
                    );
                }
            }
        }
    }

    #[test]
    fn table_ii_label_shapes() {
        // Under the paper's order, v1 gets only its self labels and v7's
        // in-label carries (v1, 2, 2) — the two shortest v1 ~> v7 paths.
        let g = figure2();
        let ranks = RankTable::from_order(&figure2_order());
        let idx = HpSpcIndex::build_with_ranks(&g, ranks).unwrap();
        assert_eq!(idx.labels().in_of(pv(1)).len(), 1);
        assert_eq!(idx.labels().out_of(pv(1)).len(), 1);
        let in_v7 = idx.labels().in_of(pv(7));
        // (v1 @ rank 0, dist 2, count 2) then the self label (rank 1).
        assert_eq!(in_v7.len(), 2);
        assert_eq!(in_v7[0].hub_rank(), 0);
        assert_eq!(in_v7[0].dist(), 2);
        assert_eq!(in_v7[0].count(), 2);
        assert_eq!(in_v7[1].hub_rank(), 1); // v7's own rank
        assert_eq!(in_v7[1].dist(), 0);

        // Table II's non-canonical example: Lout(v10) holds (v4, 2, 1) even
        // though there are two shortest v10 ~> v4 paths (the other passes
        // through the higher-ranked v1).
        let out_v10 = idx.labels().out_of(pv(10));
        let v4_rank = idx.ranks().rank(pv(4));
        let e = out_v10.iter().find(|e| e.hub_rank() == v4_rank).unwrap();
        assert_eq!((e.dist(), e.count()), (2, 1));
        assert!(idx.stats().non_canonical > 0);
    }

    #[test]
    fn exact_on_deterministic_families() {
        assert_matches_oracle(&directed_cycle(9), OrderingStrategy::Degree);
        assert_matches_oracle(&directed_path(8), OrderingStrategy::Degree);
        assert_matches_oracle(&layered_cycle(&[2, 3, 2]), OrderingStrategy::Degree);
    }

    #[test]
    fn exact_on_random_graphs_any_order() {
        for seed in 0..8 {
            let g = gnm(24, 60, seed);
            assert_matches_oracle(&g, OrderingStrategy::Degree);
            assert_matches_oracle(&g, OrderingStrategy::Identity);
            assert_matches_oracle(&g, OrderingStrategy::Random(seed));
        }
    }

    #[test]
    fn self_query_is_trivial() {
        let g = directed_cycle(4);
        let idx = HpSpcIndex::build(&g, OrderingStrategy::Degree).unwrap();
        let dc = idx.sp_count(VertexId(0), VertexId(0)).unwrap();
        assert_eq!((dc.dist, dc.count), (0, 1));
    }

    #[test]
    fn disconnected_pairs_are_none() {
        let g = DiGraph::from_edges(4, vec![(0, 1), (2, 3)]);
        let idx = HpSpcIndex::build(&g, OrderingStrategy::Degree).unwrap();
        assert_eq!(idx.sp_count(VertexId(0), VertexId(3)), None);
        assert_eq!(idx.dist(VertexId(1), VertexId(0)), None);
    }

    #[test]
    fn empty_and_single_vertex_graphs() {
        let g = DiGraph::new(0);
        let idx = HpSpcIndex::build(&g, OrderingStrategy::Degree).unwrap();
        assert_eq!(idx.total_entries(), 0);
        let g = DiGraph::new(1);
        let idx = HpSpcIndex::build(&g, OrderingStrategy::Degree).unwrap();
        assert_eq!(idx.total_entries(), 2); // self in + out
    }

    #[test]
    fn stats_are_plausible() {
        let g = gnm(60, 240, 5);
        let idx = HpSpcIndex::build(&g, OrderingStrategy::Degree).unwrap();
        let s = idx.stats();
        assert_eq!(
            s.canonical + s.non_canonical,
            idx.total_entries(),
            "every entry is classified"
        );
        assert!(s.dequeues >= s.pruned);
        assert!(idx.labels().max_label_len() <= idx.total_entries());
    }

    #[test]
    fn distance_overflow_reported() {
        // A path longer than the 17-bit distance field.
        let n = crate::entry::MAX_DIST as usize + 3;
        let g = directed_path(n);
        // Identity order makes vertex 0 the first hub, whose BFS spans the
        // whole path and must overflow.
        let err = HpSpcIndex::build(&g, OrderingStrategy::Identity).unwrap_err();
        assert!(matches!(err, LabelingError::Entry { .. }), "{err}");
    }

    #[test]
    fn counts_saturate_instead_of_wrapping() {
        // 2^13 per half-cycle... keep it small: widths of 2 give 2^k counts.
        let widths = vec![2usize; 26]; // 2^25 shortest cycles > 2^24 cap
        let g = layered_cycle(&widths);
        let idx = HpSpcIndex::build(&g, OrderingStrategy::Degree).unwrap();
        assert!(idx.stats().saturated_counts > 0);
        // Distances still exact everywhere even when counts saturate.
        let d = idx.dist(VertexId(0), VertexId(2)).unwrap();
        assert_eq!(d, 1);
    }
}
