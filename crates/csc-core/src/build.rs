//! CSC index construction: Algorithms 3–4 (bipartite hub labeling with
//! couple-vertex skipping).
//!
//! Only `V_in` vertices ever act as hubs: on any `v_o ~> v_i` path the
//! highest-ranked vertex is always an incoming vertex, because every
//! interior outgoing vertex is immediately preceded by its (higher-ranked)
//! couple and the source `v_o` is outranked by the target `v_i`. A hub's
//! forward BFS therefore only ever *queues* `V_in` vertices: when `w_i` is
//! dequeued and labeled, its couple `w_o` is labeled in the same step at
//! distance `+1` with the same count (every path into `w_o` runs through
//! `w_i`), and expansion continues from `w_o`'s out-neighbors. The backward
//! BFS mirrors this on `V_out`, with one special case: reaching the hub's
//! own couple `u_o` means a cycle closed back to the hub — the entry goes
//! into `L_out(u_o)` (this is exactly the entry a cycle query reads) and the
//! traversal prunes there, since the only backward continuation would
//! re-enter the hub.
//!
//! The same traversal, switched from append-only to upsert mode and
//! followed by [`LabelWriter::sweep`], is the re-labeling pass of
//! decremental maintenance (`csc-core::delete`).
//!
//! The couple BFS hands each visit it does not prune to a [`LabelWriter`],
//! which applies it to the label store before the next vertex's prune
//! scan, and reads the labels it prunes against from that writer. Hubs
//! run one at a time in descending rank order, as in Algorithm 3, so each
//! pass prunes against the finished labels of every higher-ranked hub.
//! Builds run serially whatever [`ParallelismConfig`] says: running
//! several passes at once on the pool, then re-validating them in rank
//! order, lost to this loop on every measured input (ARCHITECTURE,
//! *Worker pool*).
//!
//! [`ParallelismConfig`]: crate::config::ParallelismConfig

use crate::invert::InvertedIndex;
use csc_graph::bipartite::{couple, is_in_vertex};
use csc_graph::{Csr, DiGraph, RankTable, VertexId};
use csc_labeling::{HubCache, LabelEntry, LabelSide, LabelingError, Labels, SearchState};

/// Adjacency access abstraction: the static build runs over a cache-friendly
/// [`Csr`] snapshot, while dynamic maintenance traverses the live
/// [`DiGraph`].
pub(crate) trait Adjacency {
    /// Out-neighbors of `v`.
    fn succ(&self, v: VertexId) -> &[u32];
    /// In-neighbors of `v`.
    fn pred(&self, v: VertexId) -> &[u32];
}

impl Adjacency for Csr {
    #[inline]
    fn succ(&self, v: VertexId) -> &[u32] {
        self.nbr_out(v)
    }
    #[inline]
    fn pred(&self, v: VertexId) -> &[u32] {
        self.nbr_in(v)
    }
}

impl Adjacency for DiGraph {
    #[inline]
    fn succ(&self, v: VertexId) -> &[u32] {
        self.nbr_out(v)
    }
    #[inline]
    fn pred(&self, v: VertexId) -> &[u32] {
        self.nbr_in(v)
    }
}

/// How label writes behave.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum WriteMode {
    /// Push entries in hub-rank order (static construction: each hub's rank
    /// exceeds all previously appended ones).
    Append,
    /// Insert-or-replace, skipping writes whose value is unchanged, and
    /// recording every vertex for [`LabelWriter::sweep`] (decremental
    /// re-labeling).
    Upsert,
}

/// Counters for one or more traversals.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct TraversalCounters {
    pub inserted: usize,
    pub updated: usize,
    pub unchanged: usize,
    pub pruned: usize,
    pub dequeues: usize,
    pub canonical: usize,
    pub non_canonical: usize,
    pub saturated: usize,
}

/// One visit a traversal did not prune: vertex `w` at distance `dw` from
/// the hub, reached by `cw` hub-maximal shortest paths. `tie` records that
/// the prune scan matched `dw` exactly (a non-canonical entry).
#[derive(Clone, Copy, Debug)]
struct Visit {
    w: VertexId,
    dw: u32,
    cw: u64,
    tie: bool,
}

/// The writer of the couple BFS: applies each visit to the label store at
/// once, as `w`'s entry plus — couple skipping — its couple's entry at
/// `dw + 1`.
pub(crate) struct LabelWriter<'a> {
    labels: &'a mut Labels,
    inverted: Option<&'a mut InvertedIndex>,
    mode: WriteMode,
    /// Upsert mode: every vertex written or found unchanged since the last
    /// [`sweep`](Self::sweep).
    written: Vec<u32>,
}

impl<'a> LabelWriter<'a> {
    pub(crate) fn new(
        labels: &'a mut Labels,
        inverted: Option<&'a mut InvertedIndex>,
        mode: WriteMode,
    ) -> Self {
        LabelWriter {
            labels,
            inverted,
            mode,
            written: Vec::new(),
        }
    }

    /// Upsert mode: removes every `side` entry of hub `hub_rank` that was
    /// neither written nor found unchanged since the last sweep, so the
    /// side holds exactly what the traversal in between produced. The
    /// carriers come from the inverted index. Returns the entries removed.
    pub(crate) fn sweep(&mut self, side: LabelSide, hub_rank: u32) -> usize {
        let LabelWriter {
            labels,
            inverted,
            written,
            ..
        } = self;
        let inv = inverted
            .as_deref_mut()
            .expect("a sweep needs the inverted index");
        written.sort_unstable();
        let mut removed = 0;
        inv.retain(side, hub_rank, |x| {
            let keep = written.binary_search(&x).is_ok();
            if !keep {
                labels.remove(VertexId(x), side, hub_rank);
                removed += 1;
            }
            keep
        });
        written.clear();
        removed
    }

    /// Writes one entry according to `mode`, maintaining the inverted index
    /// and counters. Returns the error on capacity overflow.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    fn write(
        &mut self,
        counters: &mut TraversalCounters,
        v: VertexId,
        side: LabelSide,
        hub: VertexId,
        hub_rank: u32,
        dist: u32,
        count: u64,
    ) -> Result<(), LabelingError> {
        let entry =
            LabelEntry::new(hub_rank, dist, count).map_err(|source| LabelingError::Entry {
                hub,
                vertex: v,
                source,
            })?;
        if entry.count_saturated() {
            counters.saturated += 1;
        }
        match self.mode {
            WriteMode::Append => {
                self.labels.append(v, side, entry);
                counters.inserted += 1;
                if let Some(inv) = self.inverted.as_deref_mut() {
                    inv.add(side, hub_rank, v);
                }
            }
            WriteMode::Upsert => {
                self.written.push(v.0);
                if self.labels.entry_for(v, side, hub_rank) == Some(entry) {
                    counters.unchanged += 1;
                    return Ok(());
                }
                match self.labels.upsert(v, side, entry) {
                    Some(_) => counters.updated += 1,
                    None => {
                        counters.inserted += 1;
                        if let Some(inv) = self.inverted.as_deref_mut() {
                            inv.add(side, hub_rank, v);
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Takes one unpruned visit of `hub`'s traversal writing `side`.
    // Always inlined, with `write`: the traversal's constant side, and the
    // mode of a writer built next to the loop, fold away only when the
    // whole write lands in the traversal loop. Left to the inliner, the
    // build of the benchmark graphs ran about 5% slower.
    #[inline(always)]
    fn visit(
        &mut self,
        counters: &mut TraversalCounters,
        side: LabelSide,
        hub: VertexId,
        hub_rank: u32,
        v: Visit,
    ) -> Result<(), LabelingError> {
        self.write(counters, v.w, side, hub, hub_rank, v.dw, v.cw)?;
        if side == LabelSide::Out && (v.w == hub || v.w == couple(hub)) {
            // The hub's own out-entry, or a cycle closed back onto the
            // hub's couple (the entry SCCnt queries read): neither has a
            // couple to label.
            counters.canonical += 1;
            return Ok(());
        }
        if v.tie {
            counters.non_canonical += 2;
        } else {
            counters.canonical += 2;
        }
        self.write(counters, couple(v.w), side, hub, hub_rank, v.dw + 1, v.cw)
    }
}

/// Fills `cache` with `vk`'s own `own_side` label for the prune scans of
/// `vk`'s traversal: the entries of strictly higher-ranked hubs, with
/// `vk`'s own slot left unset. That is the static build's rule, and the
/// couple BFS keeps it in every mode: a re-label pass must not prune at
/// `vk`'s own stale entries, which is what it is there to replace. The
/// resumed passes of `csc-core::repair` add the own slot at distance 0 on
/// top, so their scans read `vk`'s stored entries too.
#[inline]
pub(crate) fn fill_hub_cache(
    labels: &Labels,
    cache: &mut HubCache,
    vk: VertexId,
    vk_rank: u32,
    own_side: LabelSide,
) {
    cache.fill(labels.side_of(vk, own_side), vk_rank);
}

/// `D_G(v_k, w)` (or `D_G(w, v_k)` when `target_side` is `Out`) under the
/// current index, restricted to the hubs scattered in `cache`: the
/// strictly higher-ranked hubs, whose entries are final when passes run in
/// descending rank order, plus `v_k` itself when the caller set its slot.
/// Every scattered rank is at most `vk_rank` (a hub's own label only
/// stores higher-ranked hubs plus itself), so the rank-sorted scan of
/// [`HubCache::covered`] stops at that prefix.
#[inline]
pub(crate) fn covered_dist(
    labels: &Labels,
    cache: &HubCache,
    vk_rank: u32,
    w: VertexId,
    target_side: LabelSide,
) -> u32 {
    cache.covered(labels.side_of(w, target_side), vk_rank)
}

/// The reusable couple-skipping traversal engine.
pub(crate) struct CoupleBfs {
    state: SearchState,
    cache: HubCache,
}

impl CoupleBfs {
    pub(crate) fn new(n: usize) -> Self {
        CoupleBfs {
            state: SearchState::new(n),
            cache: HubCache::new(n),
        }
    }

    pub(crate) fn ensure(&mut self, n: usize) {
        self.state.ensure(n);
        self.cache.ensure(n);
    }

    /// Splits the workspace into its BFS state and hub cache (used by the
    /// plain — non-couple-skipping — maintenance passes).
    pub(crate) fn parts_mut(&mut self) -> (&mut SearchState, &mut HubCache) {
        (&mut self.state, &mut self.cache)
    }

    /// Heap bytes held by the BFS state and hub cache (memory-budget
    /// accounting).
    pub(crate) fn heap_bytes(&self) -> usize {
        self.state.heap_bytes() + self.cache.heap_bytes()
    }

    /// Forward traversal from `hub` (must be a `V_in` vertex): hands
    /// `writer` the in-label visit of every vertex for which `hub` is the
    /// highest-ranked vertex on at least one shortest `hub ~> ·` path.
    pub(crate) fn traverse_in(
        &mut self,
        graph: &impl Adjacency,
        ranks: &RankTable,
        hub: VertexId,
        writer: &mut LabelWriter<'_>,
        counters: &mut TraversalCounters,
    ) -> Result<(), LabelingError> {
        debug_assert!(is_in_vertex(hub), "hubs must be incoming vertices");
        let hub_rank = ranks.rank(hub);
        fill_hub_cache(
            writer.labels,
            &mut self.cache,
            hub,
            hub_rank,
            LabelSide::Out,
        );

        let state = &mut self.state;
        state.reset();
        state.visit(hub, 0, 1);
        state.queue.push_back(hub.0);

        while let Some(w) = state.queue.pop_front() {
            let w = VertexId(w); // always in V_in
            let dw = state.dist[w.index()];
            let cw = state.count[w.index()];
            counters.dequeues += 1;

            // Shortest hub ~> w distance through strictly higher-ranked
            // hubs.
            let d_idx = covered_dist(writer.labels, &self.cache, hub_rank, w, LabelSide::In);
            if d_idx < dw {
                counters.pruned += 1;
                continue;
            }
            let tie = d_idx == dw;
            writer.visit(
                counters,
                LabelSide::In,
                hub,
                hub_rank,
                Visit { w, dw, cw, tie },
            )?;

            // Couple skipping: continue from w's outgoing couple.
            let wo = couple(w);
            state.visit(wo, dw + 1, cw);
            for &u in graph.succ(wo) {
                let u = VertexId(u); // back in V_in
                if !state.visited(u) {
                    if hub_rank < ranks.rank(u) {
                        state.visit(u, dw + 2, cw);
                        state.queue.push_back(u.0);
                    }
                } else if state.dist[u.index()] == dw + 2 {
                    state.accumulate(u, cw);
                }
            }
        }
        Ok(())
    }

    /// Backward traversal from `hub` (a `V_in` vertex): hands `writer`
    /// the hub's own out-entry, then every out-label visit.
    pub(crate) fn traverse_out(
        &mut self,
        graph: &impl Adjacency,
        ranks: &RankTable,
        hub: VertexId,
        writer: &mut LabelWriter<'_>,
        counters: &mut TraversalCounters,
    ) -> Result<(), LabelingError> {
        debug_assert!(is_in_vertex(hub), "hubs must be incoming vertices");
        let hub_rank = ranks.rank(hub);
        let hub_couple = couple(hub);
        fill_hub_cache(writer.labels, &mut self.cache, hub, hub_rank, LabelSide::In);

        let state = &mut self.state;
        state.reset();
        state.visit(hub, 0, 1);
        counters.dequeues += 1;
        let root = Visit {
            w: hub,
            dw: 0,
            cw: 1,
            tie: false,
        };
        writer.visit(counters, LabelSide::Out, hub, hub_rank, root)?;
        for &xo in graph.pred(hub) {
            let xo = VertexId(xo); // in V_out (self-loops are impossible)
            if hub_rank < ranks.rank(xo) {
                state.visit(xo, 1, 1);
                state.queue.push_back(xo.0);
            }
        }

        while let Some(w) = state.queue.pop_front() {
            let w = VertexId(w); // always in V_out
            let dw = state.dist[w.index()];
            let cw = state.count[w.index()];
            counters.dequeues += 1;

            let d_idx = covered_dist(writer.labels, &self.cache, hub_rank, w, LabelSide::Out);
            if d_idx < dw {
                counters.pruned += 1;
                continue;
            }
            let tie = d_idx == dw;
            writer.visit(
                counters,
                LabelSide::Out,
                hub,
                hub_rank,
                Visit { w, dw, cw, tie },
            )?;
            if w == hub_couple {
                // The traversal closed a cycle back onto the hub's couple;
                // continuing backward would re-enter the hub, so prune.
                continue;
            }

            let wi = couple(w);
            state.visit(wi, dw + 1, cw);
            for &yo in graph.pred(wi) {
                let yo = VertexId(yo); // in V_out
                if !state.visited(yo) {
                    if hub_rank < ranks.rank(yo) {
                        state.visit(yo, dw + 2, cw);
                        state.queue.push_back(yo.0);
                    }
                } else if state.dist[yo.index()] == dw + 2 {
                    state.accumulate(yo, cw);
                }
            }
        }
        Ok(())
    }
}

/// A resumable run of the static construction (Algorithm 3): hubs are
/// processed in descending rank order, and [`advance`](Self::advance)
/// covers a bounded number of ranks per call. A cooperative caller — the
/// maintenance plane's rejuvenation rebuild — can therefore interleave
/// other work (accepting writes into its replay queue, publishing
/// snapshots) between chunks instead of disappearing into one monolithic
/// build. [`build_labels`] is the degenerate single-chunk driver, so the
/// static and rejuvenation builds share one code path.
pub(crate) struct LabelBuildTask {
    labels: Labels,
    bfs: CoupleBfs,
    counters: TraversalCounters,
    next_rank: u32,
}

impl LabelBuildTask {
    /// Starts a build over `n` bipartite vertices.
    pub(crate) fn new(n: usize) -> Result<Self, LabelingError> {
        let max = (csc_labeling::MAX_HUB_RANK as usize) + 1;
        if n > max {
            return Err(LabelingError::TooManyVertices { got: n, max });
        }
        Ok(LabelBuildTask {
            labels: Labels::new(n),
            bfs: CoupleBfs::new(n),
            counters: TraversalCounters::default(),
            next_rank: 0,
        })
    }

    /// `(ranks processed, ranks total)` — total is only meaningful against
    /// the rank table passed to [`advance`](Self::advance).
    pub(crate) fn ranks_done(&self) -> u32 {
        self.next_rank
    }

    /// Processes up to `rank_budget` further ranks of `ranks` over the
    /// adjacency snapshot `csr`, each hub's couple BFS writing straight
    /// into the labels. Returns `true` once every rank has been processed
    /// (construction complete). `csr` and `ranks` must be the same on
    /// every call of one task.
    pub(crate) fn advance(
        &mut self,
        csr: &Csr,
        ranks: &RankTable,
        rank_budget: usize,
    ) -> Result<bool, LabelingError> {
        let total = ranks.len();
        let end = (self.next_rank as usize)
            .saturating_add(rank_budget.max(1))
            .min(total);
        while (self.next_rank as usize) < end {
            let hub = ranks.vertex_at_rank(self.next_rank);
            if is_in_vertex(hub) {
                let mut writer = LabelWriter::new(&mut self.labels, None, WriteMode::Append);
                let c = &mut self.counters;
                self.bfs.traverse_in(csr, ranks, hub, &mut writer, c)?;
                self.bfs.traverse_out(csr, ranks, hub, &mut writer, c)?;
            } else {
                self.vout_self_entries(hub, ranks)?;
            }
            self.next_rank += 1;
        }
        Ok(self.next_rank as usize >= total)
    }

    /// `V_out` vertices never act as hubs for other vertices (Algorithm 3
    /// lines 6-8): self labels only.
    fn vout_self_entries(&mut self, hub: VertexId, ranks: &RankTable) -> Result<(), LabelingError> {
        let r = ranks.rank(hub);
        let self_entry = LabelEntry::new(r, 0, 1).map_err(|source| LabelingError::Entry {
            hub,
            vertex: hub,
            source,
        })?;
        self.labels.append(hub, LabelSide::In, self_entry);
        self.labels.append(hub, LabelSide::Out, self_entry);
        self.counters.canonical += 2;
        self.counters.inserted += 2;
        Ok(())
    }

    /// Consumes the task, yielding the built labels and counters.
    pub(crate) fn finish(self) -> (Labels, TraversalCounters) {
        (self.labels, self.counters)
    }
}

/// Builds the full CSC label set for a bipartite graph under `ranks`
/// (Algorithm 3) in one go. Returns labels and traversal counters.
pub(crate) fn build_labels(
    csr: &Csr,
    ranks: &RankTable,
    counters: &mut TraversalCounters,
) -> Result<Labels, LabelingError> {
    let mut task = LabelBuildTask::new(csr.vertex_count())?;
    while !task.advance(csr, ranks, usize::MAX)? {}
    let (labels, built) = task.finish();
    *counters = built;
    Ok(labels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use csc_graph::bipartite::{in_vertex, out_vertex, BipartiteGraph};
    use csc_graph::fixtures::{figure2, figure2_order, pv};
    use csc_graph::generators::directed_cycle;
    use csc_graph::OrderingStrategy;

    fn build_for(g: &DiGraph, order: OrderingStrategy) -> (Labels, RankTable) {
        let gb = BipartiteGraph::from_graph(g);
        let ranks = RankTable::build(g, order).bipartite_order();
        let csr = Csr::from_digraph(gb.graph());
        let mut counters = TraversalCounters::default();
        let labels = build_labels(&csr, &ranks, &mut counters).unwrap();
        labels.validate_sorted().unwrap();
        assert_eq!(
            counters.inserted,
            labels.total_entries(),
            "append mode inserts exactly the stored entries"
        );
        (labels, ranks)
    }

    #[test]
    fn chunked_build_equals_monolithic() {
        let g = csc_graph::generators::gnm(30, 100, 8);
        let gb = BipartiteGraph::from_graph(&g);
        let ranks = RankTable::build(&g, OrderingStrategy::Degree).bipartite_order();
        let csr = Csr::from_digraph(gb.graph());
        let mut counters = TraversalCounters::default();
        let whole = build_labels(&csr, &ranks, &mut counters).unwrap();

        let mut task = LabelBuildTask::new(csr.vertex_count()).unwrap();
        let mut chunks = 0;
        while !task.advance(&csr, &ranks, 7).unwrap() {
            chunks += 1;
            assert!(task.ranks_done() > 0 && (task.ranks_done() as usize) < ranks.len());
        }
        let (labels, chunk_counters) = task.finish();
        assert!(chunks > 2, "the budget actually chunked the build");
        assert_eq!(labels, whole);
        assert_eq!(chunk_counters, counters);
    }

    #[test]
    fn triangle_cycle_entries() {
        let g = directed_cycle(3);
        let (labels, _) = build_for(&g, OrderingStrategy::Degree);
        // SCCnt(0) via labels: distance v_o ~> v_i must be 5 (= 2*3 - 1).
        let dc = labels
            .dist_count(out_vertex(VertexId(0)), in_vertex(VertexId(0)))
            .unwrap();
        assert_eq!((dc.dist, dc.count), (5, 1));
    }

    #[test]
    fn figure2_table_iii_entries() {
        // Table III: Lin(v7_i) = {(v1_i, 4, 2), (v7_i, 0, 1)};
        // Lout(v7_o) = {(v1_i, 7, 1), (v7_i, 11, 1), (v7_o, 0, 1)}.
        let g = figure2();
        let ranks = RankTable::from_order(&figure2_order()).bipartite_order();
        let csr = Csr::from_digraph(BipartiteGraph::from_graph(&g).graph());
        let mut counters = TraversalCounters::default();
        let labels = build_labels(&csr, &ranks, &mut counters).unwrap();

        let v7i = in_vertex(pv(7));
        let v7o = out_vertex(pv(7));
        let r = |v: VertexId| ranks.rank(v);

        let lin = labels.in_of(v7i);
        assert_eq!(lin.len(), 2, "Lin(v7_i): {lin:?}");
        assert_eq!(
            (lin[0].hub_rank(), lin[0].dist(), lin[0].count()),
            (r(in_vertex(pv(1))), 4, 2)
        );
        assert_eq!(
            (lin[1].hub_rank(), lin[1].dist(), lin[1].count()),
            (r(v7i), 0, 1)
        );

        let lout = labels.out_of(v7o);
        assert_eq!(lout.len(), 3, "Lout(v7_o): {lout:?}");
        assert_eq!(
            (lout[0].hub_rank(), lout[0].dist(), lout[0].count()),
            (r(in_vertex(pv(1))), 7, 1)
        );
        assert_eq!(
            (lout[1].hub_rank(), lout[1].dist(), lout[1].count()),
            (r(v7i), 11, 1)
        );
        assert_eq!(
            (lout[2].hub_rank(), lout[2].dist(), lout[2].count()),
            (r(v7o), 0, 1)
        );

        // Example 6: SCCnt(v7) = (11+1)/2 = 6 with count 2*1 + 1*1 = 3.
        let dc = labels.dist_count(v7o, in_vertex(pv(7))).unwrap();
        assert_eq!((dc.dist, dc.count), (11, 3));
    }

    #[test]
    fn only_vin_vertices_are_hubs() {
        let g = figure2();
        let (labels, ranks) = build_for(&g, OrderingStrategy::Degree);
        for v in 0..labels.vertex_count() as u32 {
            let v = VertexId(v);
            for e in labels.in_of(v).iter().chain(labels.out_of(v)) {
                let hub = ranks.vertex_at_rank(e.hub_rank());
                assert!(
                    is_in_vertex(hub) || hub == v,
                    "non-self V_out hub {hub:?} on {v:?}"
                );
            }
        }
    }

    #[test]
    fn couple_edge_label_exists() {
        // (v_i, 1, 1) must be in Lin(v_o) for every vertex (Section IV-B).
        let g = figure2();
        let (labels, ranks) = build_for(&g, OrderingStrategy::Degree);
        for v in g.vertices() {
            let (vi, vo) = (in_vertex(v), out_vertex(v));
            let e = labels
                .entry_for(vo, LabelSide::In, ranks.rank(vi))
                .unwrap_or_else(|| panic!("missing (v_i, 1, 1) in Lin({vo:?})"));
            assert_eq!((e.dist(), e.count()), (1, 1));
        }
    }
}
