//! The CSC index: construction entry point, queries, and accessors.

use crate::build::{build_labels, CoupleBfs, TraversalCounters};
use crate::config::CscConfig;
use crate::error::CscError;
use crate::health::{HealthBaseline, IndexHealth};
use crate::invert::InvertedIndex;
use crate::stats::IndexStats;
use csc_graph::bipartite::{in_vertex, out_vertex, BipartiteGraph};
use csc_graph::{Csr, DiGraph, OrderingStrategy, RankTable, TraversalWorkspace, VertexId};
use csc_labeling::{BuildStats, CycleCount, DistCount, LabelEntry, LabelSide, Labels};
use std::time::Instant;

/// A dynamic shortest-cycle-counting index (the paper's CSC).
///
/// Build once with [`CscIndex::build`], query with [`CscIndex::query`] in
/// microseconds, and keep the index synchronized with the graph through
/// [`insert_edge`](CscIndex::insert_edge) /
/// [`remove_edge`](CscIndex::remove_edge) instead of rebuilding.
///
/// ```
/// use csc_core::CscIndex;
/// use csc_graph::{DiGraph, VertexId};
///
/// // A triangle plus a chord: two cycles through vertex 0.
/// let g = DiGraph::from_edges(3, vec![(0, 1), (1, 2), (2, 0), (0, 2)]);
/// let index = CscIndex::build(&g, Default::default()).unwrap();
/// let c = index.query(VertexId(0)).unwrap();
/// assert_eq!((c.length, c.count), (2, 1)); // the 0 -> 2 -> 0 two-cycle
/// ```
pub struct CscIndex {
    pub(crate) gb: BipartiteGraph,
    pub(crate) ranks: RankTable,
    /// `L_out(v_o)` and `L_in(v_i)` of every couple; the other two lists
    /// are read through `reduction::CoupleView`.
    pub(crate) labels: Labels,
    /// How many couples' `L_out(v_o)` hold hub `v_i` (a cycle closure,
    /// which has no copy in `L_out(v_i)`): what the four-list entry counts
    /// need besides the store's. Every writer keeps it up to date.
    pub(crate) closures: usize,
    /// `None` until [`ensure_inverted`](Self::ensure_inverted) builds it.
    pub(crate) inverted: Option<InvertedIndex>,
    pub(crate) config: CscConfig,
    pub(crate) stats: IndexStats,
    pub(crate) baseline: HealthBaseline,
    /// `Some(detail)` after a failed update or a caught panic left the
    /// label state inconsistent; writes refuse until recovery.
    pub(crate) poisoned: Option<String>,
    pub(crate) workspace: CoupleBfs,
    /// Pooled endpoint-sweep maps and the shared bucket queue for the
    /// dynamic repair paths (never cloned or serialized — scratch only).
    pub(crate) sweeps: TraversalWorkspace,
}

impl Clone for CscIndex {
    fn clone(&self) -> Self {
        CscIndex {
            gb: self.gb.clone(),
            ranks: self.ranks.clone(),
            labels: self.labels.clone(),
            closures: self.closures,
            inverted: self.inverted.clone(),
            config: self.config,
            stats: self.stats.clone(),
            baseline: self.baseline,
            poisoned: self.poisoned.clone(),
            workspace: CoupleBfs::new(self.gb.graph().vertex_count()),
            sweeps: TraversalWorkspace::new(self.gb.graph().vertex_count()),
        }
    }
}

impl std::fmt::Debug for CscIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CscIndex")
            .field("vertices", &self.original_vertex_count())
            .field("edges", &self.original_edge_count())
            .field("entries", &self.total_entries())
            .field("poisoned", &self.poisoned.is_some())
            .finish()
    }
}

impl CscIndex {
    /// Builds the index for `g` under `config`.
    ///
    /// # Errors
    ///
    /// Fails if `config` is degenerate (see [`CscConfig::validate`]), if
    /// the bipartite graph exceeds the 23-bit hub capacity, or if any
    /// label distance exceeds 17 bits (see `csc-labeling::entry`).
    pub fn build(g: &DiGraph, config: CscConfig) -> Result<Self, CscError> {
        config.validate()?;
        let start = Instant::now();
        let gb = BipartiteGraph::from_graph(g);
        let ranks = RankTable::build(g, config.order).bipartite_order();
        let csr = Csr::from_digraph(gb.graph());
        let mut counters = TraversalCounters::default();
        let (labels, closures) = build_labels(&csr, &ranks, &mut counters)?;
        let n = gb.graph().vertex_count();
        let stats = IndexStats {
            build: BuildStats {
                canonical: counters.canonical,
                non_canonical: counters.non_canonical,
                pruned: counters.pruned,
                dequeues: counters.dequeues,
                saturated_counts: counters.saturated,
                build_time: start.elapsed(),
            },
            ..Default::default()
        };
        let mut index = CscIndex {
            gb,
            ranks,
            labels,
            closures,
            inverted: None,
            config,
            stats,
            baseline: HealthBaseline::default(),
            poisoned: None,
            workspace: CoupleBfs::new(n),
            sweeps: TraversalWorkspace::new(n),
        };
        index.rebaseline(0);
        Ok(index)
    }

    /// `SCCnt(v)`: the length and number of the shortest cycles through
    /// `v`, or `None` if no cycle passes through `v`.
    ///
    /// Evaluates `SPCnt(v_o, v_i)` on the bipartite labels; the bipartite
    /// distance `d` maps back to a cycle length of `(d + 1) / 2`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not a vertex of the indexed graph.
    pub fn query(&self, v: VertexId) -> Option<CycleCount> {
        let dc = self.query_raw(v)?;
        debug_assert_eq!(dc.dist % 2, 1, "V_out ~> V_in distances are odd");
        Some(CycleCount::new(dc.dist.div_ceil(2), dc.count))
    }

    /// The raw bipartite `(distance, count)` behind [`query`](Self::query).
    pub fn query_raw(&self, v: VertexId) -> Option<DistCount> {
        assert!(
            v.index() < self.original_vertex_count(),
            "query vertex {v} out of range ({} vertices)",
            self.original_vertex_count()
        );
        self.labels.dist_count(out_vertex(v), in_vertex(v))
    }

    /// Appends a fresh isolated vertex to the graph and index, ranked at
    /// the bottom of the order. Returns its id.
    pub fn add_vertex(&mut self) -> VertexId {
        let v = self.gb.add_original_vertex();
        let (vi, vo) = (in_vertex(v), out_vertex(v));
        self.ranks.push_lowest();
        self.ranks.push_lowest();
        debug_assert_eq!(self.ranks.vertex_at_rank(self.ranks.len() as u32 - 2), vi);
        self.labels.push_vertex();
        self.labels.push_vertex();
        let (ri, ro) = (self.ranks.rank(vi), self.ranks.rank(vo));
        // Exactly the lists the static build stores for an isolated couple:
        // the two self entries (the copies add one each).
        self.labels
            .append(vi, LabelSide::In, LabelEntry::new_unchecked(ri, 0, 1));
        self.labels
            .append(vo, LabelSide::Out, LabelEntry::new_unchecked(ro, 0, 1));
        if let Some(inv) = &mut self.inverted {
            inv.push_rank();
            inv.push_rank();
            inv.add(LabelSide::In, ri, vi);
            inv.add(LabelSide::Out, ro, vo);
        }
        self.workspace.ensure(self.gb.graph().vertex_count());
        self.sweeps.ensure(self.gb.graph().vertex_count());
        v
    }

    /// Number of vertices in the indexed (original) graph.
    #[inline]
    pub fn original_vertex_count(&self) -> usize {
        self.gb.original_vertex_count()
    }

    /// Number of edges in the indexed (original) graph.
    #[inline]
    pub fn original_edge_count(&self) -> usize {
        self.gb.original_edge_count()
    }

    /// `true` if the original edge `(a, b)` is currently indexed.
    pub fn contains_edge(&self, a: VertexId, b: VertexId) -> bool {
        if a.index() >= self.original_vertex_count() || b.index() >= self.original_vertex_count() {
            return false;
        }
        self.gb.graph().has_edge(out_vertex(a), in_vertex(b))
    }

    /// Iterates the original graph's edges.
    pub fn original_edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        self.gb.graph().edges().filter_map(|(u, w)| {
            let (ou, su) = csc_graph::bipartite::original(u);
            let (ow, sw) = csc_graph::bipartite::original(w);
            use csc_graph::bipartite::Side;
            (su == Side::Out && sw == Side::In).then_some((ou, ow))
        })
    }

    /// The bipartite graph backing the index.
    pub fn bipartite(&self) -> &BipartiteGraph {
        &self.gb
    }

    /// The label store (bipartite vertex ids, hub ranks). It holds the
    /// two lists a cycle query reads: `out_of(v_o)` and `in_of(v_i)`. The
    /// slots of `in_of(v_o)` and `out_of(v_i)` are empty; those lists are
    /// copies of the other two one hop along the couple edge (the paper's
    /// index reduction, Section IV-E), which the index derives where it
    /// needs them.
    pub fn labels(&self) -> &Labels {
        &self.labels
    }

    /// The bipartite rank table.
    pub fn ranks(&self) -> &RankTable {
        &self.ranks
    }

    /// The configuration the index was built with.
    pub fn config(&self) -> &CscConfig {
        &self.config
    }

    /// Retargets the ordering strategy on a live index.
    ///
    /// The current labels keep answering queries under the order they were
    /// built with; the new strategy takes effect the next time the order is
    /// *recomputed* — i.e. at the next rejuvenation, which rebuilds the
    /// labeling under the new order and atomically swaps it in (the
    /// migration path for moving a long-lived index onto
    /// [`OrderingStrategy::CoverageSampling`]). Persisted by `to_bytes`, so
    /// checkpoints taken before the rejuvenation still migrate after a
    /// reload.
    ///
    /// Returns an error if the strategy fails [`CscConfig::validate`]
    /// (e.g. a zero sampling budget).
    pub fn set_order(&mut self, order: OrderingStrategy) -> Result<(), crate::CscError> {
        let candidate = CscConfig {
            order,
            ..self.config
        };
        candidate.validate()?;
        self.config.order = order;
        Ok(())
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> &IndexStats {
        &self.stats
    }

    /// The drift baseline captured at build / load / rejuvenation time.
    pub fn baseline(&self) -> &HealthBaseline {
        &self.baseline
    }

    /// The current drift report against the baseline.
    ///
    /// The live store has no frozen arena, so
    /// [`dead_fraction`](IndexHealth::dead_fraction) is always `0.0` here;
    /// [`SnapshotIndex::health`](crate::SnapshotIndex::health) reports the
    /// served arena's real value, and
    /// [`ConcurrentIndex::health`](crate::ConcurrentIndex::health)
    /// combines both with the maintenance-plane state.
    pub fn health(&self) -> IndexHealth {
        let total = self.total_entries();
        IndexHealth {
            total_entries: total,
            in_entries: self.side_entries(LabelSide::In),
            out_entries: self.side_entries(LabelSide::Out),
            baseline_entries: self.baseline.entries,
            baseline_in_entries: self.baseline.in_entries,
            baseline_out_entries: self.baseline.out_entries,
            growth_percent: IndexHealth::growth(total, self.baseline.entries),
            dead_fraction: 0.0,
            churned_vertices: self
                .original_vertex_count()
                .saturating_sub(self.baseline.vertices),
            rejuvenations: self.baseline.rejuvenations,
            replay_queued: 0,
            rebuilding: false,
            writes_rejected: 0,
            writes_shed: 0,
            memory_bytes: 0,
            saturated: false,
            durability_degraded: false,
            wal_truncated_bytes: 0,
        }
    }

    /// Tracked heap footprint in bytes: the stored label lists, the
    /// inverted index, and the traversal workspaces. `O(n)` over the label
    /// store — the maintenance engine measures once per applied window,
    /// not per operation.
    pub fn memory_bytes(&self) -> usize {
        self.labels.heap_bytes()
            + self.inverted.as_ref().map_or(0, |inv| inv.heap_bytes())
            + self.workspace.heap_bytes()
            + self.sweeps.heap_bytes()
    }

    /// Re-anchors the drift baseline at the current state (the epilogue of
    /// a rejuvenation swap, and the load path's way of restoring a
    /// persisted baseline).
    pub(crate) fn rebaseline(&mut self, rejuvenations: u32) {
        self.baseline = HealthBaseline {
            entries: self.total_entries(),
            in_entries: self.side_entries(LabelSide::In),
            out_entries: self.side_entries(LabelSide::Out),
            vertices: self.original_vertex_count(),
            rejuvenations,
        };
    }

    /// Takes over the lifetime counters of `retired`, the index this one
    /// replaces in a rejuvenation or a recovery: its cumulative update
    /// statistics, so a snapshot's `updates_applied` stays monotone, and
    /// its rejuvenation count. The build statistics and the rest of the
    /// drift baseline stay this index's own.
    pub(crate) fn inherit_counters(&mut self, retired: &CscIndex) {
        let build = std::mem::take(&mut self.stats.build);
        self.stats = IndexStats {
            build,
            ..retired.stats.clone()
        };
        self.baseline.rejuvenations = self
            .baseline
            .rejuvenations
            .max(retired.baseline.rejuvenations);
    }

    /// Label entries on `side` across all four lists of every couple, the
    /// copies the store derives included: per couple, `|L_in(v_o)| =
    /// |L_in(v_i)| + 1`, and `|L_out(v_i)| = |L_out(v_o)|` less its
    /// closure. `O(1)`.
    pub(crate) fn side_entries(&self, side: LabelSide) -> usize {
        let stored = self.labels.side_entries(side);
        match side {
            LabelSide::In => 2 * stored + self.original_vertex_count(),
            LabelSide::Out => 2 * stored - self.closures,
        }
    }

    /// Total label entries, all four lists of every couple (Figure 9(b)'s
    /// index size is `8 *` this); the store holds about half of them.
    pub fn total_entries(&self) -> usize {
        self.side_entries(LabelSide::In) + self.side_entries(LabelSide::Out)
    }

    /// Index size in bytes under the paper's 64-bit entry encoding.
    pub fn index_bytes(&self) -> usize {
        self.total_entries() * std::mem::size_of::<LabelEntry>()
    }

    /// `true` if an earlier failed update left the index inconsistent.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.is_some()
    }

    /// Why the index is poisoned, if it is (the failed operation or the
    /// caught panic message).
    pub fn poison_detail(&self) -> Option<&str> {
        self.poisoned.as_deref()
    }

    /// Marks the index poisoned with a reason; subsequent writes return
    /// [`CscError::Poisoned`] until recovery clears it.
    pub(crate) fn poison(&mut self, detail: impl Into<String>) {
        self.poisoned = Some(detail.into());
    }

    /// Builds the inverted hub indexes from the labels unless they exist,
    /// before the deletion phase or Minimality's `CLEAN_LABEL` reads
    /// carriers; every write maintains them from then on.
    pub(crate) fn ensure_inverted(&mut self) {
        if self.inverted.is_none() {
            self.inverted = Some(InvertedIndex::from_labels(&self.labels));
        }
    }

    pub(crate) fn check_ready(&self) -> Result<(), CscError> {
        match &self.poisoned {
            Some(detail) => Err(CscError::poisoned(detail.clone())),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csc_graph::fixtures::{figure2, pv};
    use csc_graph::generators::{directed_cycle, gnm, preferential_attachment};
    use csc_graph::traversal::shortest_cycle_oracle;
    use csc_graph::OrderingStrategy;

    fn assert_all_queries_match(g: &DiGraph, config: CscConfig) {
        let idx = CscIndex::build(g, config).unwrap();
        for v in g.vertices() {
            assert_eq!(
                idx.query(v).map(|c| (c.length, c.count)),
                shortest_cycle_oracle(g, v),
                "SCCnt({v})"
            );
        }
    }

    #[test]
    fn example_1_and_6_figure2() {
        let g = figure2();
        let idx = CscIndex::build(&g, CscConfig::default()).unwrap();
        assert_eq!(idx.query(pv(7)), Some(CycleCount::new(6, 3)));
        // Every vertex of Figure 2 lies on the same big cycle structure.
        for v in g.vertices() {
            assert_eq!(
                idx.query(v).map(|c| (c.length, c.count)),
                shortest_cycle_oracle(&g, v),
                "SCCnt({v})"
            );
        }
    }

    #[test]
    fn matches_oracle_on_random_graphs_all_orders() {
        for seed in 0..6 {
            let g = gnm(28, 84, seed);
            for order in [
                OrderingStrategy::Degree,
                OrderingStrategy::Identity,
                OrderingStrategy::Random(seed),
                OrderingStrategy::DegreeProduct,
            ] {
                assert_all_queries_match(&g, CscConfig::default().with_order(order));
            }
        }
    }

    #[test]
    fn matches_oracle_on_reciprocal_graphs() {
        let g = preferential_attachment(120, 3, 0.5, 11);
        assert_all_queries_match(&g, CscConfig::default());
    }

    #[test]
    fn dag_has_no_cycles() {
        let g = DiGraph::from_edges(5, vec![(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)]);
        let idx = CscIndex::build(&g, CscConfig::default()).unwrap();
        for v in g.vertices() {
            assert_eq!(idx.query(v), None);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn query_out_of_range_panics() {
        let idx = CscIndex::build(&directed_cycle(3), CscConfig::default()).unwrap();
        idx.query(VertexId(3));
    }

    #[test]
    fn accessors_and_debug() {
        let g = figure2();
        let idx = CscIndex::build(&g, CscConfig::default()).unwrap();
        assert_eq!(idx.original_vertex_count(), 10);
        assert_eq!(idx.original_edge_count(), 13);
        assert!(idx.contains_edge(pv(1), pv(3)));
        assert!(!idx.contains_edge(pv(3), pv(1)));
        assert!(!idx.contains_edge(VertexId(99), VertexId(0)));
        let mut edges: Vec<_> = idx.original_edges().collect();
        edges.sort();
        assert_eq!(edges.len(), 13);
        assert!(edges.contains(&(pv(1), pv(3))));
        assert_eq!(idx.index_bytes(), idx.total_entries() * 8);
        assert!(!idx.is_poisoned());
        let dbg = format!("{idx:?}");
        assert!(dbg.contains("entries"));
        // Build stats classified every entry.
        let s = idx.stats();
        assert_eq!(
            s.build.canonical + s.build.non_canonical,
            idx.total_entries()
        );
    }

    #[test]
    fn inverted_index_matches_labels_after_build() {
        // Insertions and new vertices leave the inverted index unbuilt;
        // the first deletion builds it as an exact mirror of the labels,
        // and later writes keep it one.
        use crate::batch::GraphUpdate::{AddVertex, InsertEdge, RemoveEdge};
        let g = gnm(40, 160, 2);
        let mut idx = CscIndex::build(&g, CscConfig::default()).unwrap();
        assert!(idx.inverted.is_none());
        let absent = |idx: &CscIndex| {
            let g = idx.original_graph();
            let a = VertexId(0);
            (1..g.vertex_count() as u32)
                .map(VertexId)
                .find(|&b| !g.has_edge(a, b))
                .map(|b| (a, b))
                .unwrap()
        };
        let (a, b) = absent(&idx);
        idx.apply_batch(&[InsertEdge(a, b), AddVertex]).unwrap();
        let nv = idx.add_vertex();
        idx.insert_edge(nv, VertexId(1)).unwrap();
        assert!(idx.inverted.is_none(), "no write so far reads carriers");

        idx.remove_edge(a, b).unwrap();
        let inv = idx.inverted.as_ref().expect("the first deletion builds it");
        inv.validate_against(&idx.labels).unwrap();
        let (c, d) = absent(&idx);
        idx.apply_batch(&[InsertEdge(c, d), RemoveEdge(nv, VertexId(1)), AddVertex])
            .unwrap();
        let inv = idx.inverted.as_ref().unwrap();
        inv.validate_against(&idx.labels).unwrap();
        assert_eq!(*inv, InvertedIndex::from_labels(&idx.labels));
    }

    #[test]
    fn add_vertex_matches_static_build() {
        // Index of (cycle + fresh vertex) == index of 4-vertex graph where
        // vertex 3 is isolated, under the same order.
        let g3 = directed_cycle(3);
        let mut idx = CscIndex::build(&g3, CscConfig::default()).unwrap();
        let nv = idx.add_vertex();
        assert_eq!(nv, VertexId(3));

        let mut g4 = directed_cycle(3);
        let v = g4.add_vertex();
        assert_eq!(v, VertexId(3));
        let fresh = CscIndex::build(&g4, CscConfig::default()).unwrap();

        assert_eq!(idx.labels, fresh.labels);
        assert_eq!(idx.ranks, fresh.ranks);
        assert_eq!(idx.gb, fresh.gb);
        assert_eq!(idx.inverted, fresh.inverted);
        assert_eq!(idx.query(nv), None);
    }

    #[test]
    fn health_tracks_drift_from_build_baseline() {
        let g = gnm(24, 70, 4);
        let mut idx = CscIndex::build(&g, CscConfig::default()).unwrap();
        let h = idx.health();
        assert_eq!(h.growth_percent, 100, "fresh build sits at baseline");
        assert_eq!(h.total_entries, idx.total_entries());
        assert_eq!(h.in_entries + h.out_entries, h.total_entries);
        assert_eq!(
            (h.churned_vertices, h.rejuvenations, h.dead_fraction),
            (0, 0, 0.0)
        );
        assert!(!h.rebuilding);

        let nv = idx.add_vertex();
        idx.insert_edge(VertexId(0), nv).unwrap();
        idx.insert_edge(nv, VertexId(1)).unwrap();
        let h = idx.health();
        assert_eq!(h.churned_vertices, 1);
        assert!(h.total_entries > h.baseline_entries);
        assert!(h.growth_percent > 100);
        assert_eq!(h.baseline_entries, idx.baseline().entries);
    }

    #[test]
    fn build_rejects_invalid_config() {
        let bad = CscConfig::default()
            .with_rebuild_policy(crate::health::RebuildPolicy::default().with_growth_percent(50));
        assert!(matches!(
            CscIndex::build(&directed_cycle(3), bad),
            Err(crate::CscError::Config(_))
        ));
    }

    #[test]
    fn poisoned_index_refuses_every_operation() {
        let g = directed_cycle(3);
        let mut idx = CscIndex::build(&g, CscConfig::default()).unwrap();
        idx.poison("simulated failed mid-update state");
        assert!(idx.is_poisoned());
        assert_eq!(
            idx.poison_detail(),
            Some("simulated failed mid-update state")
        );
        assert!(matches!(
            idx.insert_edge(VertexId(0), VertexId(2)),
            Err(crate::CscError::Poisoned { .. })
        ));
        assert!(matches!(
            idx.remove_edge(VertexId(0), VertexId(1)),
            Err(crate::CscError::Poisoned { .. })
        ));
        assert!(matches!(
            idx.to_bytes(),
            Err(crate::CscError::Poisoned { .. })
        ));
        // Queries still work (documented: reads may be stale, writes fail).
        let _ = idx.query(VertexId(0));
    }

    #[test]
    fn clone_is_independent() {
        let g = directed_cycle(4);
        let idx = CscIndex::build(&g, CscConfig::default()).unwrap();
        let clone = idx.clone();
        assert_eq!(clone.total_entries(), idx.total_entries());
        assert_eq!(clone.query(VertexId(0)), idx.query(VertexId(0)));
    }
}
