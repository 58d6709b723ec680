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
//! decremental maintenance ([`CoupleBfs::relabel`], called from
//! `csc-core::delete`).
//!
//! At each dequeue the couple BFS runs the prune scan
//! ([`HubCache::scan`]) over the vertex's list, which stops at the first
//! entry proving a shorter path and otherwise returns the tie flag and the
//! list's entry for the hub. It hands each visit it does not prune, with
//! that entry, to a [`LabelWriter`], which applies it to the label store
//! before the next vertex's prune scan, and reads the labels it prunes
//! against from that writer. The
//! store holds only the two lists a cycle query reads (`csc-core::
//! reduction`): a forward visit writes `L_in(w_i)` and a backward visit
//! `L_out(w_o)`, and the couple's entry one hop further is the copy the
//! couple view derives, so the writer only checks that it fits an entry.
//! The hub's own `L_out(h_i)` self entry is a copy too. The forward pass
//! prunes against `L_out(h_i)`, which it reads through the view. Hubs
//! run one at a time in descending rank order, as in Algorithm 3, so each
//! pass prunes against the finished labels of every higher-ranked hub.
//! Builds run serially whatever [`ParallelismConfig`] says: running
//! several passes at once on the pool, then re-validating them in rank
//! order, lost to this loop on every measured input (ARCHITECTURE,
//! *Worker pool*).
//!
//! [`ParallelismConfig`]: crate::config::ParallelismConfig

use crate::invert::InvertedIndex;
use crate::reduction::{is_closure, CoupleView};
use csc_graph::bipartite::{couple, is_in_vertex};
use csc_graph::{Csr, DiGraph, RankTable, VertexId};
use csc_labeling::{HubCache, LabelEntry, LabelSide, LabelingError, Labels, Scan, SearchState};

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
    /// Insert-or-replace, skipping writes whose value is unchanged
    /// (decremental re-labeling: the traversal stamps every vertex it
    /// hands the writer, for [`LabelWriter::sweep`]).
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
    /// Entries with a saturated (24-bit-capped) count: in append mode
    /// every entry of the four lists, copies included, as the build
    /// statistics count them; in upsert mode the stored entries whose
    /// count a write saturated ([`newly_saturated`]), as the update
    /// statistics count them.
    pub saturated: usize,
}

/// One visit a traversal did not prune: vertex `w` at distance `dw` from
/// the hub, reached by `cw` hub-maximal shortest paths. `tie` records that
/// the prune scan matched `dw` exactly (a non-canonical entry), and `own`
/// is the entry for the hub the scan found in `w`'s list.
#[derive(Clone, Copy, Debug)]
struct Visit {
    w: VertexId,
    dw: u32,
    cw: u64,
    tie: bool,
    own: Option<LabelEntry>,
}

/// The writer of the couple BFS: applies each visit to the label store at
/// once, as `w`'s entry in the list the store holds. Couple skipping
/// labels `w`'s couple at `dw + 1` as well, in the copy the couple view
/// derives, so that entry is only checked to fit.
pub(crate) struct LabelWriter<'a> {
    labels: &'a mut Labels,
    inverted: Option<&'a mut InvertedIndex>,
    mode: WriteMode,
    /// The index's count of stored cycle closures, kept up to date.
    closures: &'a mut usize,
}

impl<'a> LabelWriter<'a> {
    pub(crate) fn new(
        labels: &'a mut Labels,
        inverted: Option<&'a mut InvertedIndex>,
        mode: WriteMode,
        closures: &'a mut usize,
    ) -> Self {
        LabelWriter {
            labels,
            inverted,
            mode,
            closures,
        }
    }

    /// Upsert mode: removes every `side` entry of `hub` (ranked
    /// `hub_rank`) whose vertex is not in `written`, the vertices the
    /// traversal since the last sweep wrote or found unchanged, so the side
    /// holds exactly what that traversal produced. The carriers come from
    /// the inverted index. Returns the entries removed.
    ///
    /// Each visit is stamped once and every stamped vertex carries the
    /// hub, so when the stamps number as many as the carriers the two sets
    /// are equal and nothing is read: most re-labeled sides shrink nowhere.
    pub(crate) fn sweep(
        &mut self,
        written: &Stamps,
        side: LabelSide,
        hub: VertexId,
        hub_rank: u32,
    ) -> usize {
        let LabelWriter {
            labels,
            inverted,
            closures,
            ..
        } = self;
        let inv = inverted
            .as_deref_mut()
            .expect("a sweep needs the inverted index");
        if written.len() == inv.carriers(side, hub_rank).len() {
            return 0;
        }
        let mut removed = 0;
        inv.retain(side, hub_rank, |x| {
            let keep = written.contains(x);
            if !keep {
                labels.remove(VertexId(x), side, hub_rank);
                removed += 1;
                **closures -= usize::from(is_closure(VertexId(x), side, hub));
            }
            keep
        });
        removed
    }

    /// Writes one entry according to `mode`, maintaining the inverted index
    /// and counters: `own` is `v`'s current entry for the hub, which the
    /// prune scan found. Returns the error on capacity overflow.
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
        own: Option<LabelEntry>,
    ) -> Result<(), LabelingError> {
        let entry =
            LabelEntry::new(hub_rank, dist, count).map_err(|source| LabelingError::Entry {
                hub,
                vertex: v,
                source,
            })?;
        match self.mode {
            WriteMode::Append => {
                counters.saturated += usize::from(entry.count_saturated());
                self.labels.append(v, side, entry);
                counters.inserted += 1;
                *self.closures += usize::from(is_closure(v, side, hub));
                if let Some(inv) = self.inverted.as_deref_mut() {
                    inv.add(side, hub_rank, v);
                }
            }
            WriteMode::Upsert => {
                if own == Some(entry) {
                    counters.unchanged += 1;
                    return Ok(());
                }
                counters.saturated += newly_saturated(entry, own);
                self.labels.upsert(v, side, entry);
                match own {
                    Some(_) => counters.updated += 1,
                    None => {
                        counters.inserted += 1;
                        *self.closures += usize::from(is_closure(v, side, hub));
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
        // The counters count the entries of all four lists, copies too.
        if side == LabelSide::Out && v.w == hub {
            // The hub's own out-entry `(h_i, 0, 1)`: the self entry of the
            // copy `L_out(h_i)`, which the store does not hold.
            counters.canonical += 1;
            return Ok(());
        }
        self.write(counters, v.w, side, hub, hub_rank, v.dw, v.cw, v.own)?;
        if side == LabelSide::Out && v.w == couple(hub) {
            // A cycle closed back onto the hub's couple (the entry SCCnt
            // queries read): it has no couple to label.
            counters.canonical += 1;
            return Ok(());
        }
        if v.tie {
            counters.non_canonical += 2;
        } else {
            counters.canonical += 2;
        }
        let copy = couple_entry(hub, hub_rank, couple(v.w), v.dw + 1, v.cw)?;
        if self.mode == WriteMode::Append {
            counters.saturated += usize::from(copy.count_saturated());
        }
        Ok(())
    }
}

/// `1` when writing `entry` over `old` saturates a count: the entry is new,
/// or its count was below the 24-bit cap, and the cap holds it now.
#[inline]
pub(crate) fn newly_saturated(entry: LabelEntry, old: Option<LabelEntry>) -> usize {
    usize::from(entry.count_saturated() && !old.is_some_and(LabelEntry::count_saturated))
}

/// The entry the couple view derives for `copy`, the couple of a vertex a
/// traversal of `hub` just labeled. A traversal builds it only to check
/// it: a distance past the 17-bit field must fail the update, as every
/// label write past it does, rather than wrap in the view.
#[inline]
pub(crate) fn couple_entry(
    hub: VertexId,
    hub_rank: u32,
    copy: VertexId,
    dist: u32,
    count: u64,
) -> Result<LabelEntry, LabelingError> {
    LabelEntry::new(hub_rank, dist, count).map_err(|source| LabelingError::Entry {
        hub,
        vertex: copy,
        source,
    })
}

/// Fills `cache` with `vk`'s own `own_side` label for the prune scans of
/// `vk`'s traversal: the entries of strictly higher-ranked hubs, with
/// `vk`'s own slot left unset. That is the static build's rule, and the
/// couple BFS keeps it in every mode: a re-label pass must not prune at
/// `vk`'s own stale entries, which is what it is there to replace. The
/// resumed passes of `csc-core::repair` add the own slot at distance 0 on
/// top, so their scans read `vk`'s stored entries too. A forward pass
/// reads `L_out(v_i)`, a copy, through the couple view.
#[inline]
pub(crate) fn fill_hub_cache(
    view: CoupleView<'_>,
    cache: &mut HubCache,
    vk: VertexId,
    vk_rank: u32,
    own_side: LabelSide,
) {
    cache.fill_from(view.list(vk, own_side), vk_rank);
}

/// The vertices a re-label pass wrote or found unchanged, for
/// [`LabelWriter::sweep`]: an epoch-stamped membership array kept with the
/// traversal workspace, so a pass starts empty in `O(1)` and the sweep
/// tests each carrier in `O(1)`.
pub(crate) struct Stamps {
    stamp: Vec<u32>,
    epoch: u32,
    len: usize,
}

impl Stamps {
    fn new() -> Self {
        Stamps {
            stamp: Vec::new(),
            epoch: 1,
            len: 0,
        }
    }

    /// Grows the array to cover at least `n` vertices.
    fn ensure(&mut self, n: usize) {
        if self.stamp.len() < n {
            self.stamp.resize(n, 0);
        }
    }

    /// Empties the set: every earlier stamp reads as absent.
    fn clear(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Wrapped: hard-reset so stale stamps cannot alias the epoch.
            self.stamp.fill(0);
            self.epoch = 1;
        }
        self.len = 0;
    }

    /// Adds `v`, which must not be in the set yet.
    #[inline]
    fn insert(&mut self, v: VertexId) {
        debug_assert!(!self.contains(v.0), "{v:?} stamped twice in one pass");
        self.stamp[v.index()] = self.epoch;
        self.len += 1;
    }

    #[inline]
    fn contains(&self, v: u32) -> bool {
        self.stamp[v as usize] == self.epoch
    }

    /// The number of vertices in the set.
    fn len(&self) -> usize {
        self.len
    }
}

/// The reusable couple-skipping traversal engine.
pub(crate) struct CoupleBfs {
    state: SearchState,
    cache: HubCache,
    /// The vertices the current re-label pass stamped; sized at the first
    /// re-label, so an index that never deletes pays nothing for it.
    written: Stamps,
}

impl CoupleBfs {
    pub(crate) fn new(n: usize) -> Self {
        CoupleBfs {
            state: SearchState::new(n),
            cache: HubCache::new(n),
            written: Stamps::new(),
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

    /// Re-labels `side` of `hub` in place (decremental maintenance): runs
    /// the hub's traversal through the upsert-mode `writer`, which stamps
    /// every vertex it writes or finds unchanged, then
    /// [sweeps](LabelWriter::sweep) away the hub's other entries on that
    /// side. Returns the entries the sweep removed.
    pub(crate) fn relabel(
        &mut self,
        graph: &impl Adjacency,
        ranks: &RankTable,
        hub: VertexId,
        side: LabelSide,
        writer: &mut LabelWriter<'_>,
        counters: &mut TraversalCounters,
    ) -> Result<usize, LabelingError> {
        debug_assert_eq!(writer.mode, WriteMode::Upsert);
        self.written.ensure(self.state.len());
        self.written.clear();
        match side {
            LabelSide::In => self.traverse_in(graph, ranks, hub, writer, counters)?,
            LabelSide::Out => self.traverse_out(graph, ranks, hub, writer, counters)?,
        }
        Ok(writer.sweep(&self.written, side, hub, ranks.rank(hub)))
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
        let view = CoupleView::new(writer.labels, ranks);
        fill_hub_cache(view, &mut self.cache, hub, hub_rank, LabelSide::Out);

        let state = &mut self.state;
        state.reset();
        state.visit(hub, 0, 1);
        state.queue.push_back(hub.0);

        while let Some(w) = state.queue.pop_front() {
            let w = VertexId(w); // always in V_in
            let dw = state.dist[w.index()];
            let cw = state.count[w.index()];
            counters.dequeues += 1;

            // Hub ~> w paths through strictly higher-ranked hubs.
            let list = writer.labels.side_of(w, LabelSide::In);
            let Scan::Kept { tie, own } = self.cache.scan(list, hub_rank, dw) else {
                counters.pruned += 1;
                continue;
            };
            let visit = Visit {
                w,
                dw,
                cw,
                tie,
                own,
            };
            writer.visit(counters, LabelSide::In, hub, hub_rank, visit)?;
            if writer.mode == WriteMode::Upsert {
                self.written.insert(w);
            }

            // Couple skipping: continue from w's outgoing couple.
            for &u in graph.succ(couple(w)) {
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
        let view = CoupleView::new(writer.labels, ranks);
        fill_hub_cache(view, &mut self.cache, hub, hub_rank, LabelSide::In);

        let state = &mut self.state;
        state.reset();
        state.visit(hub, 0, 1);
        counters.dequeues += 1;
        let root = Visit {
            w: hub,
            dw: 0,
            cw: 1,
            tie: false,
            own: None,
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

            let list = writer.labels.side_of(w, LabelSide::Out);
            let Scan::Kept { tie, own } = self.cache.scan(list, hub_rank, dw) else {
                counters.pruned += 1;
                continue;
            };
            let visit = Visit {
                w,
                dw,
                cw,
                tie,
                own,
            };
            writer.visit(counters, LabelSide::Out, hub, hub_rank, visit)?;
            if writer.mode == WriteMode::Upsert {
                self.written.insert(w);
            }
            if w == hub_couple {
                // The traversal closed a cycle back onto the hub's couple;
                // continuing backward would re-enter the hub, so prune.
                continue;
            }

            // Couple skipping: continue from w's incoming couple.
            for &yo in graph.pred(couple(w)) {
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
    /// The cycle closures among the labels so far.
    closures: usize,
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
            labels: Labels::reduced(n),
            closures: 0,
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
                let mut writer = LabelWriter::new(
                    &mut self.labels,
                    None,
                    WriteMode::Append,
                    &mut self.closures,
                );
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
    /// lines 6-8): self labels only. The one in `L_in(v_o)` is the copy's.
    fn vout_self_entries(&mut self, hub: VertexId, ranks: &RankTable) -> Result<(), LabelingError> {
        let r = ranks.rank(hub);
        let self_entry = LabelEntry::new(r, 0, 1).map_err(|source| LabelingError::Entry {
            hub,
            vertex: hub,
            source,
        })?;
        self.labels.append(hub, LabelSide::Out, self_entry);
        self.counters.canonical += 2;
        self.counters.inserted += 1;
        Ok(())
    }

    /// Consumes the task, yielding the built labels — compacted into one
    /// couple-ordered segment, which the first snapshot shares — the cycle
    /// closures among them, and the counters.
    pub(crate) fn finish(mut self) -> (Labels, usize, TraversalCounters) {
        self.labels.compact();
        (self.labels, self.closures, self.counters)
    }
}

/// Builds the full CSC label set for a bipartite graph under `ranks`
/// (Algorithm 3) in one go. Returns the labels, the cycle closures among
/// them, and the traversal counters.
pub(crate) fn build_labels(
    csr: &Csr,
    ranks: &RankTable,
    counters: &mut TraversalCounters,
) -> Result<(Labels, usize), LabelingError> {
    let mut task = LabelBuildTask::new(csr.vertex_count())?;
    while !task.advance(csr, ranks, usize::MAX)? {}
    let (labels, closures, built) = task.finish();
    *counters = built;
    Ok((labels, closures))
}

#[cfg(test)]
mod tests {
    use super::*;
    use csc_graph::bipartite::{in_vertex, out_vertex, BipartiteGraph};
    use csc_graph::fixtures::{figure2, figure2_order, pv};
    use csc_graph::generators::directed_cycle;
    use csc_graph::OrderingStrategy;
    use csc_labeling::LabelStore;

    fn build_for(g: &DiGraph, order: OrderingStrategy) -> (Labels, RankTable) {
        let gb = BipartiteGraph::from_graph(g);
        let ranks = RankTable::build(g, order).bipartite_order();
        let csr = Csr::from_digraph(gb.graph());
        let mut counters = TraversalCounters::default();
        let (labels, closures) = build_labels(&csr, &ranks, &mut counters).unwrap();
        labels.validate_sorted().unwrap();
        assert_eq!(
            counters.inserted,
            labels.total_entries(),
            "append mode inserts exactly the stored entries"
        );
        assert_eq!(closures, crate::reduction::count_closures(&labels, &ranks));
        (labels, ranks)
    }

    #[test]
    fn chunked_build_equals_monolithic() {
        let g = csc_graph::generators::gnm(30, 100, 8);
        let gb = BipartiteGraph::from_graph(&g);
        let ranks = RankTable::build(&g, OrderingStrategy::Degree).bipartite_order();
        let csr = Csr::from_digraph(gb.graph());
        let mut counters = TraversalCounters::default();
        let (whole, whole_closures) = build_labels(&csr, &ranks, &mut counters).unwrap();

        let mut task = LabelBuildTask::new(csr.vertex_count()).unwrap();
        let mut chunks = 0;
        while !task.advance(&csr, &ranks, 7).unwrap() {
            chunks += 1;
            assert!(task.ranks_done() > 0 && (task.ranks_done() as usize) < ranks.len());
        }
        let (labels, closures, chunk_counters) = task.finish();
        assert!(chunks > 2, "the budget actually chunked the build");
        assert_eq!(labels, whole);
        assert_eq!(closures, whole_closures);
        assert_eq!(chunk_counters, counters);
    }

    #[test]
    fn a_relabel_sweep_removes_exactly_the_carriers_its_pass_did_not_stamp() {
        let g = csc_graph::generators::gnm(30, 100, 8);
        let gb = BipartiteGraph::from_graph(&g);
        let ranks = RankTable::build(&g, OrderingStrategy::Degree).bipartite_order();
        let csr = Csr::from_digraph(gb.graph());
        let mut counters = TraversalCounters::default();
        let (built, built_closures) = build_labels(&csr, &ranks, &mut counters).unwrap();
        let n = gb.graph().vertex_count();
        // A hub a quarter down the order: it carries some vertices of each
        // side and not others.
        let hub = (n as u32 / 4..n as u32)
            .map(|r| ranks.vertex_at_rank(r))
            .find(|&v| is_in_vertex(v))
            .unwrap();
        let hub_rank = ranks.rank(hub);
        let (mut labels, mut closures) = (built.clone(), built_closures);
        let mut inv = InvertedIndex::from_labels(&labels);
        let mut bfs = CoupleBfs::new(n);
        let mut relabel =
            |labels: &mut Labels, inv: &mut InvertedIndex, closures: &mut usize, side| {
                let mut writer = LabelWriter::new(labels, Some(inv), WriteMode::Upsert, closures);
                let mut c = TraversalCounters::default();
                let removed = bfs.relabel(gb.graph(), &ranks, hub, side, &mut writer, &mut c);
                (removed.unwrap(), c)
            };
        for side in [LabelSide::In, LabelSide::Out] {
            // The graph is unchanged: the pass stamps every carrier, so
            // the sweep removes nothing.
            let (removed, c) = relabel(&mut labels, &mut inv, &mut closures, side);
            assert_eq!((removed, c.inserted, c.updated), (0, 0, 0), "{side:?}");
            assert_eq!(c.unchanged, inv.carriers(side, hub_rank).len(), "{side:?}");
            assert_eq!(labels, built);

            // Three stale carriers the pass does not reach: the sweep
            // removes exactly those.
            let stale: Vec<VertexId> = (0..n as u32)
                .map(VertexId)
                .filter(|&v| is_in_vertex(v) == (side == LabelSide::In))
                .filter(|&v| labels.entry_for(v, side, hub_rank).is_none())
                .take(3)
                .collect();
            assert_eq!(stale.len(), 3, "{side:?}");
            for &v in &stale {
                labels.upsert(v, side, LabelEntry::new(hub_rank, 1, 1).unwrap());
                inv.add(side, hub_rank, v);
                closures += usize::from(is_closure(v, side, hub));
            }
            let (removed, c) = relabel(&mut labels, &mut inv, &mut closures, side);
            assert_eq!((removed, c.inserted, c.updated), (3, 0, 0), "{side:?}");
            assert_eq!(labels, built);
            assert_eq!(closures, built_closures);
            inv.validate_against(&labels).unwrap();
        }
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
        let (labels, _) = build_labels(&csr, &ranks, &mut counters).unwrap();

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
        let view = CoupleView::new(&labels, &ranks);
        for v in 0..labels.vertex_count() as u32 {
            let v = VertexId(v);
            for e in view
                .list(v, LabelSide::In)
                .chain(view.list(v, LabelSide::Out))
            {
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
        // (v_i, 1, 1) must be in Lin(v_o) for every vertex (Section IV-B),
        // a copy the store derives rather than holds.
        let g = figure2();
        let (labels, ranks) = build_for(&g, OrderingStrategy::Degree);
        let view = CoupleView::new(&labels, &ranks);
        for v in g.vertices() {
            let (vi, vo) = (in_vertex(v), out_vertex(v));
            assert!(labels.in_of(vo).is_empty() && labels.out_of(vi).is_empty());
            let e = view
                .entry_for(vo, LabelSide::In, ranks.rank(vi))
                .unwrap_or_else(|| panic!("missing (v_i, 1, 1) in Lin({vo:?})"));
            assert_eq!((e.dist(), e.count()), (1, 1));
        }
    }
}
