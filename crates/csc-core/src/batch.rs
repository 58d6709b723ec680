//! The batch update engine: the one write algorithm of the index. It
//! applies a whole slice of graph updates in one call, with per-*hub* (not
//! per-edge) label repair; the scalar
//! [`insert_edge`](CscIndex::insert_edge) /
//! [`remove_edge`](CscIndex::remove_edge) are one-op windows of it (see
//! [Scalar writes](#scalar-writes)).
//!
//! Streaming workloads rarely deliver one edge at a time; they deliver
//! windows of a trace. Applying a window through [`CscIndex::apply_batch`]
//! beats applying it one op at a time three ways:
//!
//! 1. **Normalization** — duplicate operations and insert/delete pairs on
//!    the same edge cancel before any repair work happens. A hot edge
//!    flapping ten times inside a window costs zero traversals.
//! 2. **Hub-union repair for insertions** — every inserted edge is added
//!    to the graph first, then the union of affected hubs is computed once
//!    and each hub runs *one* multi-source repair pass (the batched
//!    traversal in the crate-internal `repair` module) covering all the
//!    edges that affect it, in descending rank order. Dense batches share
//!    most of their affected hubs (high-ranked hubs appear in almost every
//!    label), so the pass count approaches the hub-union size instead of
//!    the per-edge sum. The passes run serially at every worker width and
//!    write as they traverse. Like the static build, they skip couples:
//!    the index stores only the two lists a cycle query reads, so a pass
//!    queues and writes one member of each couple, and the seed scans of
//!    the couple copies `L_in(a_o)` and `L_out(b_i)` read them through the
//!    couple view (`csc-core::reduction`).
//! 3. **Windowed deletion repair** — all net removals leave the graph
//!    first, then the window is classified *once* (shared pre/post
//!    endpoint sweeps through the pooled traversal workspace) and each
//!    affected hub runs at most one merged subtraction pass and one
//!    re-label sweep per side for the whole window (see `csc-core::delete`
//!    — the re-label sweeps dominate deletion cost, so merging them is
//!    where batched deletions win). The deletion phase never scans label
//!    lists for carriers: it reads the inverted index, which the first
//!    deletion (or, under Minimality, the first insertion phase) builds
//!    from the labels and every later write maintains.
//! 4. **One snapshot publication** — a
//!    [`ConcurrentIndex::apply_batch`](crate::ConcurrentIndex::apply_batch)
//!    caller republishes at most once per batch: the batch's writes
//!    copied each list they changed into the label arena's open segment,
//!    and the publish seals that segment and shares the arena (see
//!    [`Labels`](csc_labeling::Labels)). A batch that rewrote a quarter or
//!    more of the live entries, as a deletion window that re-labels most
//!    hubs does, compacts the arena first, which leaves no dead copy of
//!    the old lists behind (see [`SnapshotIndex`](crate::SnapshotIndex)'s
//!    module docs).
//!
//! ## Semantics
//!
//! `apply_batch(updates)` is equivalent to applying `updates` in order,
//! one at a time, *skipping* the individual operations that would fail
//! (inserting a present edge, removing an absent one, self-loops,
//! out-of-range endpoints). Skipped operations are counted in
//! [`BatchReport::rejected`] rather than failing the batch; the
//! `batch_equivalence` property suite pins this contract down. Vertices
//! created by [`GraphUpdate::AddVertex`] get ids in submission order, so
//! later operations in the same batch may reference them. Because the
//! skipping is decided op by op, in order, two consecutive windows and
//! their concatenation leave the same graph — which is what lets recovery
//! replay a whole WAL suffix as one window.
//!
//! ## Scalar writes
//!
//! [`insert_edge`](CscIndex::insert_edge) and
//! [`remove_edge`](CscIndex::remove_edge) run `apply_batch(&[op])` behind
//! a strict check: an op the window would skip returns the error it fails
//! with instead — [`CscError::Poisoned`] first, then `VertexOutOfRange`
//! for `a` and then `b`, then `SelfLoop` (insertions), then
//! `DuplicateEdge` / `MissingEdge` — and leaves the index untouched. An
//! accepted op returns the window's [`BatchReport::repair`]. A one-edge
//! insertion window *is* the paper's per-edge `INCCNT` (one seed per
//! affected hub), so there is no separate per-edge driver.

use crate::build::TraversalCounters;
use crate::error::CscError;
use crate::guard::Deadline;
use crate::index::CscIndex;
use crate::reduction::CoupleView;
use crate::repair::{multi_source_pass, Direction, RepairWriter, Seed};
use crate::stats::UpdateReport;
use csc_graph::bipartite::{in_vertex, is_in_vertex, out_vertex};
use csc_graph::{GraphError, VertexId};
use csc_labeling::{LabelSide, LabelingError};
use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

/// One element of an update stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum GraphUpdate {
    /// Insert the original edge `(a, b)`.
    InsertEdge(VertexId, VertexId),
    /// Remove the original edge `(a, b)`.
    RemoveEdge(VertexId, VertexId),
    /// Append a fresh isolated vertex (ranked at the bottom of the order).
    AddVertex,
}

/// What one [`CscIndex::apply_batch`] call did.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BatchReport {
    /// Updates in the submitted slice.
    pub updates_submitted: usize,
    /// Vertices appended by [`GraphUpdate::AddVertex`].
    pub vertices_added: usize,
    /// Net edge insertions applied to the graph and index.
    pub edges_inserted: usize,
    /// Net edge removals applied to the graph and index.
    pub edges_removed: usize,
    /// Valid operations that cancelled against each other during
    /// normalization (duplicate edges, insert/delete pairs) and therefore
    /// cost no repair work.
    pub cancelled: usize,
    /// Operations skipped because they would have failed individually
    /// (insert of a present edge, removal of an absent one, self-loop,
    /// out-of-range vertex).
    pub rejected: usize,
    /// Distinct hubs in the union of the insertion phase's affected-hub
    /// sets — each ran at most two (forward/backward) repair passes for
    /// the *whole* batch.
    pub insert_hub_union: usize,
    /// Distinct (hub, side) repair passes in the deletion phase —
    /// subtraction passes plus re-label sweeps, each covering the whole
    /// window. The per-edge engine this replaced ran a multiple of this
    /// that grew with the window size.
    pub delete_hub_union: usize,
    /// Hub caches filled across the batch's repair passes (one per merged
    /// pass).
    pub hub_cache_fills: usize,
    /// Seeds served by an already-filled hub cache: edges whose repair
    /// merged into an existing pass instead of refilling per edge.
    pub hub_cache_hits: usize,
    /// Hub sides the deletion phase re-labeled: sides whose distance to a
    /// deleted edge grew, or whose subtraction pass met a saturated count.
    pub relabel_sides: usize,
    /// Re-labeled hub sides that changed no entry: the traversal found
    /// every entry it produced already stored, and the sweep removed none.
    pub relabel_sides_unchanged: usize,
    /// Updates accepted into the maintenance plane's write-ahead replay
    /// queue instead of being applied now. Always `0` from
    /// [`CscIndex::apply_batch`] itself; non-zero only when a
    /// [`MaintenanceEngine`](crate::MaintenanceEngine) (or its
    /// [`ConcurrentIndex`](crate::ConcurrentIndex) facade) receives the
    /// batch mid-rejuvenation.
    pub queued: usize,
    /// Aggregated label-repair counters across the batch, including its
    /// wall-clock duration.
    pub repair: UpdateReport,
}

impl BatchReport {
    /// Updates that changed the graph: the batch's weight against
    /// [`CscConfig::snapshot_every`](crate::CscConfig::snapshot_every)
    /// and the denominator for per-update costs.
    pub fn applied_updates(&self) -> usize {
        self.vertices_added + self.edges_inserted + self.edges_removed
    }
}

/// The net effect of a batch, relative to the pre-batch graph.
#[derive(Debug, Default, PartialEq, Eq)]
struct NormalizedBatch {
    add_vertices: usize,
    /// Net removals, stable-ordered by hub rank of the endpoints.
    removals: Vec<(VertexId, VertexId)>,
    /// Net insertions, stable-ordered by hub rank of the endpoints.
    insertions: Vec<(VertexId, VertexId)>,
    cancelled: usize,
    rejected: usize,
}

impl CscIndex {
    /// Simulates the batch against the current graph: which operations
    /// succeed when applied in order, and what the per-edge net effect is.
    fn normalize_batch(&self, updates: &[GraphUpdate]) -> NormalizedBatch {
        let mut norm = NormalizedBatch::default();
        // Walk the updates in order, tracking the virtual vertex count and
        // per-edge `(present initially, present now, accepted op count)`.
        // The virtual count grows as AddVertex ops are scanned, so an edge
        // op may reference vertices created *earlier* in the batch
        // (exactly the ids one-by-one application would accept).
        let mut n_virtual = self.original_vertex_count() as u64;
        let mut edges: HashMap<(u32, u32), (bool, bool, usize)> = HashMap::new();
        for update in updates {
            let (a, b, insert) = match *update {
                GraphUpdate::AddVertex => {
                    n_virtual += 1;
                    norm.add_vertices += 1;
                    continue;
                }
                GraphUpdate::InsertEdge(a, b) => (a, b, true),
                GraphUpdate::RemoveEdge(a, b) => (a, b, false),
            };
            if a == b || u64::from(a.0) >= n_virtual || u64::from(b.0) >= n_virtual {
                norm.rejected += 1;
                continue;
            }
            let state = edges.entry((a.0, b.0)).or_insert_with(|| {
                let present = self.contains_edge(a, b);
                (present, present, 0)
            });
            if state.1 == insert {
                // Inserting a present edge / removing an absent one: the
                // one-at-a-time call would error; skip it.
                norm.rejected += 1;
            } else {
                state.1 = insert;
                state.2 += 1;
            }
        }
        for ((a, b), (initially, finally, accepted)) in edges {
            let (a, b) = (VertexId(a), VertexId(b));
            if initially == finally {
                norm.cancelled += accepted;
            } else {
                norm.cancelled += accepted - 1;
                if finally {
                    norm.insertions.push((a, b));
                } else {
                    norm.removals.push((a, b));
                }
            }
        }
        // Stable order by hub rank: highest-ranked (lowest rank value)
        // inner endpoints first, so consecutive edges share as much of
        // their affected-hub neighborhoods as possible and the whole
        // batch is deterministic regardless of submission order.
        //
        // Endpoints created by this batch's AddVertex ops are not in the
        // rank table yet; they sort last (they will occupy the lowest
        // ranks once added).
        let n = self.original_vertex_count();
        let key = |&(a, b): &(VertexId, VertexId)| {
            let rank = |v: VertexId, inner: bool| {
                if v.index() >= n {
                    u32::MAX
                } else if inner {
                    self.ranks.rank(in_vertex(v))
                } else {
                    self.ranks.rank(out_vertex(v))
                }
            };
            (rank(b, true), rank(a, false), a.0, b.0)
        };
        norm.insertions.sort_by_key(key);
        norm.removals.sort_by_key(key);
        norm
    }

    /// Applies a batch of graph updates in one call, with label repair run
    /// per affected *hub* rather than per edge, and returns what happened.
    ///
    /// Equivalent to applying the updates in order one at a time while
    /// skipping individually-invalid operations (see the [module
    /// docs](crate::batch) for the exact contract); the batched form
    /// cancels opposing operations during normalization and merges the
    /// insertion repair passes of all edges that share an affected hub.
    ///
    /// ```
    /// use csc_core::{CscConfig, CscIndex, GraphUpdate};
    /// use csc_graph::{DiGraph, VertexId};
    ///
    /// let g = DiGraph::from_edges(4, vec![(0, 1), (1, 2)]);
    /// let mut index = CscIndex::build(&g, CscConfig::default()).unwrap();
    ///
    /// let report = index
    ///     .apply_batch(&[
    ///         GraphUpdate::InsertEdge(VertexId(2), VertexId(0)), // close a triangle
    ///         GraphUpdate::InsertEdge(VertexId(2), VertexId(3)), // flapping edge...
    ///         GraphUpdate::RemoveEdge(VertexId(2), VertexId(3)), // ...cancels out
    ///     ])
    ///     .unwrap();
    ///
    /// assert_eq!(report.edges_inserted, 1);
    /// assert_eq!(report.cancelled, 2);
    /// assert_eq!(index.query(VertexId(0)).unwrap().length, 3);
    /// ```
    ///
    /// # Errors
    ///
    /// Individually-invalid operations never error — they are skipped and
    /// counted in [`BatchReport::rejected`]. A labeling capacity overflow
    /// mid-batch poisons the index (see [`CscIndex::is_poisoned`]).
    pub fn apply_batch(&mut self, updates: &[GraphUpdate]) -> Result<BatchReport, CscError> {
        self.apply_batch_deadline(updates, Deadline::NONE)
    }

    /// [`apply_batch`](Self::apply_batch) under a wall-clock deadline.
    ///
    /// The deadline is checked at **admission** and once more after the
    /// read-only normalization (planning) pass; both abort with
    /// [`CscError::DeadlineExceeded`] and *no observable effect* — the
    /// caller may retry the identical batch later and get the identical
    /// result. Once mutation begins the batch runs to completion: a
    /// half-applied window is never exposed, so a deadline can bound
    /// *when* a batch starts, not how long its commit takes.
    pub fn apply_batch_deadline(
        &mut self,
        updates: &[GraphUpdate],
        deadline: Deadline,
    ) -> Result<BatchReport, CscError> {
        deadline.admit()?;
        self.check_ready()?;
        faultpoint!("batch.begin");
        let start = Instant::now();
        let norm = self.normalize_batch(updates);
        // Planning checkpoint: normalization is read-only, so an exceeded
        // deadline still aborts with nothing mutated.
        deadline.admit()?;
        let mut report = BatchReport {
            updates_submitted: updates.len(),
            cancelled: norm.cancelled,
            rejected: norm.rejected,
            ..Default::default()
        };

        // Phase 1: new vertices, in submission order (ids must match the
        // one-by-one application).
        for _ in 0..norm.add_vertices {
            self.add_vertex();
        }
        report.vertices_added = norm.add_vertices;

        // Phase 2: net removals, repaired as one window (classification,
        // merged subtraction, and one re-label sweep per affected hub for
        // the whole lot).
        if !norm.removals.is_empty() {
            match self.repair_deletions(&norm.removals, &mut report.repair) {
                Ok(del) => {
                    report.delete_hub_union = del.hub_union;
                    report.hub_cache_fills += del.cache_fills;
                    report.hub_cache_hits += del.cache_hits;
                    report.relabel_sides = del.relabel_sides;
                    report.relabel_sides_unchanged = del.relabel_sides_unchanged;
                }
                Err(e) => {
                    self.poison(format!(
                        "label overflow during batched deletion repair: {e}"
                    ));
                    return Err(e.into());
                }
            }
            self.stats.deletions += norm.removals.len();
        }
        report.edges_removed = norm.removals.len();

        // Phase 3: net insertions — all edges enter the graph first, then
        // one multi-source pass per affected hub repairs the lot.
        if let Err(e) = self.batched_insert_repair(&norm.insertions, &mut report) {
            self.poison(format!("label overflow during batched insert repair: {e}"));
            return Err(e.into());
        }
        report.edges_inserted = norm.insertions.len();
        self.stats.insertions += norm.insertions.len();

        self.stats.entries_added += report.repair.entries_inserted;
        self.stats.entries_removed += report.repair.entries_removed;
        self.stats.saturated_counts += report.repair.saturated_counts;
        report.repair.duration = start.elapsed();
        Ok(report)
    }

    /// Inserts the edge `(a, b)` into the graph and incrementally repairs
    /// the index (`INCCNT`): a one-op [`apply_batch`](Self::apply_batch)
    /// window behind the strict check (see [Scalar
    /// writes](crate::batch#scalar-writes)).
    ///
    /// # Errors
    ///
    /// Graph errors (out-of-range endpoint, self-loop, duplicate) leave the
    /// index untouched. A labeling capacity overflow mid-update poisons the
    /// index (see [`CscIndex::is_poisoned`]); rebuild it in that case.
    pub fn insert_edge(&mut self, a: VertexId, b: VertexId) -> Result<UpdateReport, CscError> {
        self.apply_strict(GraphUpdate::InsertEdge(a, b))
    }

    /// Removes the edge `(a, b)` from the graph and decrementally repairs
    /// the index: a one-edge deletion window behind the strict check.
    ///
    /// # Errors
    ///
    /// Graph errors (missing edge, out-of-range endpoints) leave the index
    /// untouched. A labeling capacity overflow mid-update poisons the index.
    pub fn remove_edge(&mut self, a: VertexId, b: VertexId) -> Result<UpdateReport, CscError> {
        self.apply_strict(GraphUpdate::RemoveEdge(a, b))
    }

    fn apply_strict(&mut self, update: GraphUpdate) -> Result<UpdateReport, CscError> {
        self.check_strict(update)?;
        Ok(self.apply_batch(&[update])?.repair)
    }

    /// The strict check in front of a scalar write (see [Scalar
    /// writes](crate::batch#scalar-writes)): `Ok` exactly when a one-op
    /// window would apply `update`, else the error it fails with (a
    /// self-loop removal is a `MissingEdge`). Read-only, so the engine runs
    /// it before logging a scalar write.
    pub(crate) fn check_strict(&self, update: GraphUpdate) -> Result<(), CscError> {
        self.check_ready()?;
        let (a, b, insert) = match update {
            GraphUpdate::AddVertex => return Ok(()),
            GraphUpdate::InsertEdge(a, b) => (a, b, true),
            GraphUpdate::RemoveEdge(a, b) => (a, b, false),
        };
        let n = self.original_vertex_count();
        for vertex in [a, b] {
            if vertex.index() >= n {
                return Err(GraphError::VertexOutOfRange { vertex, n }.into());
            }
        }
        let refused = match (insert, self.contains_edge(a, b)) {
            (true, _) if a == b => GraphError::SelfLoop(a),
            (true, true) => GraphError::DuplicateEdge(a, b),
            (false, false) => GraphError::MissingEdge(a, b),
            _ => return Ok(()),
        };
        Err(refused.into())
    }

    /// The insertion phase of [`apply_batch`](Self::apply_batch): `INCCNT`
    /// (Section V-A, Algorithms 5–7), run once for the whole window.
    ///
    /// Inserting the original edge `(a, b)` adds exactly one bipartite edge
    /// `(a_o, b_i)`. Every brand-new shortest path runs through a new edge
    /// (Lemma V.2), and splits at the first one it crosses into
    /// `old-shortest(v ~> a_o) + edge + shortest(b_i ~> w)`, the suffix
    /// taken in the updated graph. The highest-ranked vertex of the left
    /// segment is, by the cover constraint, already a hub in `L_in(a_o)`;
    /// of the right segment, a hub in `L_out(b_i)`. So resumed passes from
    /// exactly those *affected hubs* — seeded with the hub's own label
    /// distance and count (Theorem V.1: using the full `SPCnt` would
    /// double-count non-canonical hubs) — reach every label that must
    /// change.
    ///
    /// Inserts every edge into the bipartite graph, snapshots the seed
    /// entries (`L_in(a_o)` / `L_out(b_i)`, copies read through the couple
    /// view, *before any repair*, so each seed counts exactly the
    /// pre-batch path class of its edge), unions
    /// the affected hubs across edges, and runs the per-hub multi-source
    /// passes in descending rank order, so that when a pass consults the
    /// index (`D_G(v_k, w)` pruning), entries of higher-ranked affected
    /// hubs are already updated.
    ///
    /// # Skipping `V_out` hubs
    ///
    /// `L_in(a_o)` always contains `a_o`'s own self entry, and the paper's
    /// Algorithm 5 would start a pass from it. We skip passes whose hub is
    /// an outgoing vertex: the labels they would create are never consulted
    /// by a cycle query, because on any `v_o ~> v_i` path every outgoing
    /// vertex is outranked by an incoming vertex on the same path (its
    /// couple — for the source `v_o`, the target `v_i`), so the
    /// highest-ranked vertex (the hub the query needs) is always an
    /// incoming vertex. Keeping `V_out` ranks out of the label lists is also
    /// what keeps the decremental distance-condition checks sound (see
    /// `csc-core::delete`). The incremental-vs-rebuild equivalence tests
    /// exercise this invariant.
    ///
    /// # Redundancy vs. minimality
    ///
    /// Under [`UpdateStrategy::Redundancy`](crate::UpdateStrategy::Redundancy)
    /// dominated entries are left behind: an entry whose stored distance
    /// exceeds the true shortest distance can never win the
    /// minimum-distance selection of a query (label distances never
    /// under-estimate, so a stale component pushes the candidate sum
    /// strictly above the covered minimum) and is therefore harmless.
    /// A later deletion that lengthens the true distance to or past such
    /// an entry grows its hub's distance, so the deletion phase re-labels
    /// that hub side and sweeps the entry away (see `csc-core::delete`).
    /// Minimality mode calls `CLEAN_LABEL` after every improving write,
    /// so it builds the inverted index first if nothing has yet.
    fn batched_insert_repair(
        &mut self,
        insertions: &[(VertexId, VertexId)],
        report: &mut BatchReport,
    ) -> Result<(), LabelingError> {
        if insertions.is_empty() {
            return Ok(());
        }
        for &(a, b) in insertions {
            self.gb
                .insert_original_edge(a, b)
                .expect("normalization verified the insertion");
        }
        // The graph now carries the new edges but no label has been
        // repaired yet — the widest torn window a crash can expose.
        faultpoint!("batch.insert.graphed");

        // rank -> (forward seeds, backward seeds), iterated in ascending
        // rank (descending importance).
        let mut hubs: BTreeMap<u32, (Vec<Seed>, Vec<Seed>)> = BTreeMap::new();
        let view = CoupleView::new(&self.labels, &self.ranks);
        for &(a, b) in insertions {
            let (ao, bi) = (out_vertex(a), in_vertex(b));
            let (rank_ao, rank_bi) = (self.ranks.rank(ao), self.ranks.rank(bi));
            for e in view.list(ao, LabelSide::In) {
                let r = e.hub_rank();
                if r < rank_bi && is_in_vertex(self.ranks.vertex_at_rank(r)) {
                    let seeds = &mut hubs.entry(r).or_default().0;
                    seeds.push((bi, e.dist() + 1, e.count()));
                }
            }
            for e in view.list(bi, LabelSide::Out) {
                let r = e.hub_rank();
                if r < rank_ao && is_in_vertex(self.ranks.vertex_at_rank(r)) {
                    let seeds = &mut hubs.entry(r).or_default().1;
                    seeds.push((ao, e.dist() + 1, e.count()));
                }
            }
        }
        report.insert_hub_union = hubs.len();
        if self.config.update_strategy == crate::UpdateStrategy::Minimality {
            self.ensure_inverted();
        }

        let CscIndex {
            ref gb,
            ref ranks,
            ref mut labels,
            ref mut inverted,
            ref mut closures,
            ref config,
            ref mut workspace,
            ref mut sweeps,
            ..
        } = *self;
        let graph = gb.graph();
        workspace.ensure(graph.vertex_count());

        let mut counters = TraversalCounters::default();
        let (state, cache) = workspace.parts_mut();
        let buckets = sweeps.buckets_mut();
        let mut writer = RepairWriter {
            labels,
            inverted,
            closures,
            ranks,
            strategy: config.update_strategy,
            report: &mut report.repair,
        };
        for (&r, (fwd, bwd)) in &hubs {
            let vk = ranks.vertex_at_rank(r);
            for (seeds, direction) in [(fwd, Direction::Forward), (bwd, Direction::Backward)] {
                if seeds.is_empty() {
                    continue;
                }
                writer.report.affected_hubs += 1;
                report.hub_cache_fills += 1;
                report.hub_cache_hits += seeds.len() - 1;
                multi_source_pass(
                    graph,
                    ranks,
                    state,
                    cache,
                    buckets,
                    direction,
                    r,
                    vk,
                    seeds,
                    &mut writer,
                    &mut counters,
                )?;
            }
        }
        report.repair.vertices_visited += counters.dequeues;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CscConfig, UpdateStrategy};
    use csc_graph::generators::{directed_cycle, gnm};
    use csc_graph::traversal::shortest_cycle_oracle;
    use csc_graph::DiGraph;
    use GraphUpdate::{AddVertex, InsertEdge, RemoveEdge};

    fn v(i: u32) -> VertexId {
        VertexId(i)
    }

    fn assert_matches_oracle(idx: &CscIndex, context: &str) {
        let g = idx.original_graph();
        for x in g.vertices() {
            assert_eq!(
                idx.query(x).map(|c| (c.length, c.count)),
                shortest_cycle_oracle(&g, x),
                "{context}: SCCnt({x})"
            );
        }
    }

    /// One-by-one reference semantics: apply in order, skipping failures.
    fn apply_sequentially(idx: &mut CscIndex, updates: &[GraphUpdate]) -> usize {
        let mut applied = 0;
        for u in updates {
            let ok = match *u {
                InsertEdge(a, b) => idx.insert_edge(a, b).is_ok(),
                RemoveEdge(a, b) => idx.remove_edge(a, b).is_ok(),
                AddVertex => {
                    idx.add_vertex();
                    true
                }
            };
            applied += usize::from(ok);
        }
        applied
    }

    #[test]
    fn empty_batch_is_a_cheap_no_op() {
        let mut idx = CscIndex::build(&directed_cycle(4), CscConfig::default()).unwrap();
        let before = idx.total_entries();
        let report = idx.apply_batch(&[]).unwrap();
        assert_eq!(report.applied_updates(), 0);
        assert_eq!(
            report.repair,
            UpdateReport {
                duration: report.repair.duration,
                ..Default::default()
            }
        );
        assert_eq!(idx.total_entries(), before);
    }

    #[test]
    fn normalization_cancels_and_rejects() {
        let g = DiGraph::from_edges(4, vec![(0, 1), (1, 2), (2, 0)]);
        let idx = CscIndex::build(&g, CscConfig::default()).unwrap();
        let norm = idx.normalize_batch(&[
            InsertEdge(v(0), v(2)), // net insertion
            InsertEdge(v(0), v(2)), // duplicate: rejected
            InsertEdge(v(3), v(0)), // cancels with the removal below
            RemoveEdge(v(3), v(0)), // ...
            RemoveEdge(v(1), v(2)), // net removal
            InsertEdge(v(1), v(2)), // reinsertion: cancels the removal
            RemoveEdge(v(1), v(2)), // net removal after all
            InsertEdge(v(2), v(2)), // self-loop: rejected
            RemoveEdge(v(0), v(9)), // out of range: rejected
            RemoveEdge(v(3), v(1)), // absent edge: rejected
        ]);
        assert_eq!(norm.insertions, vec![(v(0), v(2))]);
        assert_eq!(norm.removals, vec![(v(1), v(2))]);
        assert_eq!(norm.rejected, 4);
        assert_eq!(norm.cancelled, 4);
        assert_eq!(norm.add_vertices, 0);
    }

    #[test]
    fn batch_can_reference_vertices_it_creates() {
        let mut idx = CscIndex::build(&directed_cycle(3), CscConfig::default()).unwrap();
        let report = idx
            .apply_batch(&[
                AddVertex,              // becomes vertex 3
                InsertEdge(v(0), v(3)), // valid: 3 exists by now
                InsertEdge(v(4), v(0)), // rejected: 4 not created yet
                AddVertex,              // becomes vertex 4
                InsertEdge(v(3), v(4)),
                InsertEdge(v(4), v(0)), // now valid
            ])
            .unwrap();
        assert_eq!(report.vertices_added, 2);
        assert_eq!(report.edges_inserted, 3);
        assert_eq!(report.rejected, 1);
        assert_matches_oracle(&idx, "batch-created vertices");
        assert_eq!(idx.query(v(4)).unwrap().length, 3, "0 -> 3 -> 4 -> 0");
    }

    #[test]
    fn single_update_batches_match_the_scalar_paths() {
        let g = gnm(18, 40, 5);
        let mut batched = CscIndex::build(&g, CscConfig::default()).unwrap();
        let mut scalar = batched.clone();
        let victims: Vec<_> = g.edge_vec().into_iter().step_by(5).take(6).collect();
        for &(a, b) in &victims {
            batched.apply_batch(&[RemoveEdge(v(a), v(b))]).unwrap();
            scalar.remove_edge(v(a), v(b)).unwrap();
            assert_eq!(batched.labels, scalar.labels, "after removing ({a},{b})");
        }
        for &(a, b) in &victims {
            batched.apply_batch(&[InsertEdge(v(a), v(b))]).unwrap();
            scalar.insert_edge(v(a), v(b)).unwrap();
            assert_eq!(batched.labels, scalar.labels, "after inserting ({a},{b})");
        }
        assert_matches_oracle(&batched, "single-update batches");
    }

    #[test]
    fn mixed_batch_equals_sequential_application() {
        let g = gnm(20, 55, 11);
        let base = CscIndex::build(&g, CscConfig::default()).unwrap();
        let edges = g.edge_vec();
        let mut updates: Vec<GraphUpdate> = Vec::new();
        for (k, &(a, b)) in edges.iter().enumerate().take(16) {
            if k % 3 == 0 {
                updates.push(RemoveEdge(v(a), v(b)));
            }
        }
        updates.push(AddVertex);
        updates.push(InsertEdge(v(20), v(0)));
        updates.push(InsertEdge(v(5), v(20)));
        for s in 0..10u32 {
            let a = (s * 7 + 1) % 20;
            let b = (s * 13 + 3) % 20;
            if a != b {
                updates.push(InsertEdge(v(a), v(b)));
            }
        }

        let mut batched = base.clone();
        let report = batched.apply_batch(&updates).unwrap();
        let mut sequential = base.clone();
        let applied = apply_sequentially(&mut sequential, &updates);
        assert_eq!(report.applied_updates() + report.cancelled, applied);

        let g_final = sequential.original_graph();
        assert_eq!(batched.original_graph(), g_final, "same net graph");
        for x in g_final.vertices() {
            assert_eq!(batched.query(x), sequential.query(x), "SCCnt({x})");
        }
        assert_matches_oracle(&batched, "mixed batch");
    }

    #[test]
    fn hub_union_is_smaller_than_per_edge_sum() {
        // Many insertions into one graph: the union of affected hubs must
        // not exceed (and in practice undercuts) the per-edge hub total.
        let g = gnm(40, 120, 3);
        let mut idx = CscIndex::build(&g, CscConfig::default()).unwrap();
        let mut updates = Vec::new();
        let mut s = 1u64;
        while updates.len() < 24 {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            let a = v((s >> 33) as u32 % 40);
            let b = v((s >> 13) as u32 % 40);
            if a != b && !idx.contains_edge(a, b) {
                updates.push(InsertEdge(a, b));
            }
        }
        let view = CoupleView::new(&idx.labels, &idx.ranks);
        let per_edge_hubs: usize = updates
            .iter()
            .map(|u| {
                let InsertEdge(a, b) = *u else { unreachable!() };
                view.list(out_vertex(a), LabelSide::In).count()
                    + view.list(in_vertex(b), LabelSide::Out).count()
            })
            .sum();
        let report = idx.apply_batch(&updates).unwrap();
        assert!(report.insert_hub_union > 0);
        assert!(
            report.insert_hub_union < per_edge_hubs,
            "union {} >= per-edge sum {}",
            report.insert_hub_union,
            per_edge_hubs
        );
        assert_matches_oracle(&idx, "hub union batch");
    }

    #[test]
    fn minimality_strategy_supported_in_batches() {
        let g = gnm(16, 40, 9);
        let config = CscConfig::default().with_update_strategy(UpdateStrategy::Minimality);
        let mut idx = CscIndex::build(&g, config).unwrap();
        let edges = g.edge_vec();
        let mut updates: Vec<GraphUpdate> = edges
            .iter()
            .step_by(4)
            .map(|&(a, b)| RemoveEdge(v(a), v(b)))
            .collect();
        updates.push(InsertEdge(v(0), v(8)));
        updates.push(InsertEdge(v(8), v(0)));
        idx.apply_batch(&updates).unwrap();
        assert_matches_oracle(&idx, "minimality batch");
        idx.inverted
            .as_ref()
            .unwrap()
            .validate_against(&idx.labels)
            .unwrap();
    }

    #[test]
    fn removal_and_insertion_batch_stays_oracle_exact() {
        let g = gnm(24, 70, 7);
        let edges = g.edge_vec();
        let mut updates: Vec<GraphUpdate> = edges
            .iter()
            .step_by(9)
            .map(|&(a, b)| RemoveEdge(v(a), v(b)))
            .collect();
        for s in 0..12u32 {
            let a = (s * 5 + 2) % 24;
            let b = (s * 11 + 7) % 24;
            if a != b {
                updates.push(InsertEdge(v(a), v(b)));
            }
        }

        let mut idx = CscIndex::build(&g, CscConfig::default()).unwrap();
        let report = idx.apply_batch(&updates).unwrap();
        assert!(report.applied_updates() > 0);
        assert_matches_oracle(&idx, "removals then insertions");
    }

    #[test]
    fn flapping_edges_cost_no_repair_work() {
        let mut idx = CscIndex::build(&directed_cycle(5), CscConfig::default()).unwrap();
        let mut updates = Vec::new();
        for _ in 0..10 {
            updates.push(InsertEdge(v(2), v(0)));
            updates.push(RemoveEdge(v(2), v(0)));
        }
        let report = idx.apply_batch(&updates).unwrap();
        assert_eq!(report.applied_updates(), 0);
        assert_eq!(report.cancelled, 20);
        assert_eq!(report.repair.vertices_visited, 0, "no traversal ran");
        assert_eq!(idx.query(v(0)).unwrap().length, 5);
    }

    #[test]
    fn poisoned_index_refuses_batches() {
        let mut idx = CscIndex::build(&directed_cycle(3), CscConfig::default()).unwrap();
        idx.poison("simulated");
        assert!(matches!(
            idx.apply_batch(&[AddVertex]),
            Err(CscError::Poisoned { .. })
        ));
    }

    #[test]
    fn refused_scalar_ops_fail_alike_on_every_layer() {
        use crate::{ConcurrentIndex, MaintenanceEngine};
        use GraphError::{DuplicateEdge, MissingEdge, SelfLoop, VertexOutOfRange};
        let g = DiGraph::from_edges(4, vec![(0, 1), (1, 2), (2, 0)]);
        let out = |i| VertexOutOfRange { vertex: v(i), n: 4 };
        let cases = [
            (InsertEdge(v(0), v(0)), SelfLoop(v(0))),
            (InsertEdge(v(0), v(1)), DuplicateEdge(v(0), v(1))),
            (InsertEdge(v(9), v(0)), out(9)),
            (InsertEdge(v(0), v(9)), out(9)),
            (InsertEdge(v(8), v(9)), out(8)), // `a` before `b`
            (InsertEdge(v(7), v(7)), out(7)), // range before self-loop
            (RemoveEdge(v(1), v(0)), MissingEdge(v(1), v(0))),
            (RemoveEdge(v(2), v(2)), MissingEdge(v(2), v(2))),
            (RemoveEdge(v(0), v(9)), out(9)),
            (RemoveEdge(v(9), v(8)), out(9)),
        ];
        let build = || CscIndex::build(&g, CscConfig::default()).unwrap();
        let (mut index, pristine) = (build(), build());
        let mut engine = MaintenanceEngine::new(build());
        let shared = ConcurrentIndex::new(build());
        for (op, refused) in cases {
            let got = match op {
                InsertEdge(a, b) => [
                    index.insert_edge(a, b).err(),
                    engine.insert_edge(a, b).err(),
                    shared.insert_edge(a, b).err(),
                ],
                RemoveEdge(a, b) => [
                    index.remove_edge(a, b).err(),
                    engine.remove_edge(a, b).err(),
                    shared.remove_edge(a, b).err(),
                ],
                AddVertex => unreachable!(),
            };
            let want = Some(CscError::Graph(refused));
            assert!(got.iter().all(|e| *e == want), "{op:?}: {got:?}");
        }
        let untouched = |idx: &CscIndex| {
            let s = idx.stats();
            assert_eq!(idx.labels, pristine.labels);
            assert_eq!(idx.original_graph(), g);
            let counts = [
                s.insertions,
                s.deletions,
                s.entries_added,
                s.entries_removed,
            ];
            assert_eq!(counts, [0; 4]);
        };
        untouched(&index);
        untouched(engine.index());
        shared.with_read(untouched);
        assert_eq!(shared.snapshot_stats().pending_updates, 0);

        index.poison("simulated");
        let refused = index.insert_edge(v(9), v(9)).unwrap_err();
        assert!(matches!(refused, CscError::Poisoned { .. }), "poison first");
    }
}

/// The scalar insertion tests: the paper's `INCCNT` cases, driven through
/// the one-op windows of [`CscIndex::insert_edge`].
#[cfg(test)]
mod scalar_insert_tests {
    use super::*;
    use crate::config::{CscConfig, UpdateStrategy};
    use csc_graph::generators::{directed_cycle, gnm};
    use csc_graph::traversal::shortest_cycle_oracle;
    use csc_graph::DiGraph;

    fn assert_queries_match(idx: &CscIndex, g: &DiGraph, context: &str) {
        for v in g.vertices() {
            assert_eq!(
                idx.query(v).map(|c| (c.length, c.count)),
                shortest_cycle_oracle(g, v),
                "{context}: SCCnt({v})"
            );
        }
    }

    #[test]
    fn insert_closes_a_cycle() {
        // Path 0 -> 1 -> 2, then insert 2 -> 0: a triangle appears.
        let g = DiGraph::from_edges(3, vec![(0, 1), (1, 2)]);
        let mut idx = CscIndex::build(&g, CscConfig::default()).unwrap();
        assert_eq!(idx.query(VertexId(0)), None);
        let report = idx.insert_edge(VertexId(2), VertexId(0)).unwrap();
        assert!(report.entries_inserted + report.entries_updated > 0);
        assert!(report.affected_hubs > 0);
        let mut g2 = g.clone();
        g2.try_add_edge(VertexId(2), VertexId(0)).unwrap();
        assert_queries_match(&idx, &g2, "after closing triangle");
        assert_eq!(idx.original_edge_count(), 3);
    }

    #[test]
    fn insert_shortens_existing_cycles() {
        // 6-cycle; chord 3 -> 0 shortens the cycle through 0..3 to length 4.
        let g = directed_cycle(6);
        let mut idx = CscIndex::build(&g, CscConfig::default()).unwrap();
        assert_eq!(idx.query(VertexId(0)).unwrap().length, 6);
        idx.insert_edge(VertexId(3), VertexId(0)).unwrap();
        let mut g2 = g.clone();
        g2.try_add_edge(VertexId(3), VertexId(0)).unwrap();
        assert_queries_match(&idx, &g2, "after chord");
        assert_eq!(idx.query(VertexId(0)).unwrap().length, 4);
        assert_eq!(idx.query(VertexId(4)).unwrap().length, 6);
    }

    #[test]
    fn insert_adds_parallel_shortest_cycles() {
        // Triangle 0-1-2 plus a second disjoint route 0 -> 3 -> 4 -> 0 of
        // equal length: counts must accumulate, not overwrite.
        let g = DiGraph::from_edges(5, vec![(0, 1), (1, 2), (2, 0), (0, 3), (3, 4)]);
        let mut idx = CscIndex::build(&g, CscConfig::default()).unwrap();
        assert_eq!(idx.query(VertexId(0)).unwrap().count, 1);
        idx.insert_edge(VertexId(4), VertexId(0)).unwrap();
        let mut g2 = g.clone();
        g2.try_add_edge(VertexId(4), VertexId(0)).unwrap();
        assert_queries_match(&idx, &g2, "after second cycle");
        let c = idx.query(VertexId(0)).unwrap();
        assert_eq!((c.length, c.count), (3, 2));
    }

    #[test]
    fn graph_errors_leave_index_clean() {
        let mut idx = CscIndex::build(&directed_cycle(3), CscConfig::default()).unwrap();
        let before = idx.total_entries();
        assert!(idx.insert_edge(VertexId(0), VertexId(0)).is_err());
        assert!(idx.insert_edge(VertexId(0), VertexId(1)).is_err()); // duplicate
        assert!(idx.insert_edge(VertexId(0), VertexId(9)).is_err());
        assert_eq!(idx.total_entries(), before);
        assert!(!idx.is_poisoned());
        assert_eq!(idx.stats().insertions, 0);
    }

    #[test]
    fn incremental_equals_oracle_over_random_insertions() {
        for seed in 0..4 {
            let mut g = gnm(20, 30, seed);
            let mut idx = CscIndex::build(&g, CscConfig::default()).unwrap();
            // Insert 25 random new edges one at a time.
            let mut added = 0;
            let mut s = seed;
            while added < 25 {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let a = VertexId((s >> 33) as u32 % 20);
                let b = VertexId((s >> 13) as u32 % 20);
                if a == b || g.has_edge(a, b) {
                    continue;
                }
                g.try_add_edge(a, b).unwrap();
                idx.insert_edge(a, b).unwrap();
                added += 1;
                assert_queries_match(&idx, &g, &format!("seed {seed} after edge {added}"));
            }
            assert_eq!(idx.stats().insertions, 25);
        }
    }

    #[test]
    fn minimality_strategy_matches_and_stays_lean() {
        let mut g = gnm(18, 30, 9);
        let config = CscConfig::default().with_update_strategy(UpdateStrategy::Minimality);
        let mut idx_min = CscIndex::build(&g, config).unwrap();
        let mut idx_red = CscIndex::build(&g, CscConfig::default()).unwrap();
        let mut s = 7u64;
        let mut added = 0;
        while added < 20 {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            let a = VertexId((s >> 33) as u32 % 18);
            let b = VertexId((s >> 11) as u32 % 18);
            if a == b || g.has_edge(a, b) {
                continue;
            }
            g.try_add_edge(a, b).unwrap();
            idx_min.insert_edge(a, b).unwrap();
            idx_red.insert_edge(a, b).unwrap();
            added += 1;
            assert_queries_match(&idx_min, &g, "minimality");
            assert_queries_match(&idx_red, &g, "redundancy");
        }
        // Minimality never stores more entries than redundancy.
        assert!(idx_min.total_entries() <= idx_red.total_entries());
        idx_min
            .inverted
            .as_ref()
            .unwrap()
            .validate_against(&idx_min.labels)
            .unwrap();
    }

    #[test]
    fn insert_touching_new_vertex() {
        let mut idx = CscIndex::build(&directed_cycle(3), CscConfig::default()).unwrap();
        let nv = idx.add_vertex();
        idx.insert_edge(VertexId(0), nv).unwrap();
        idx.insert_edge(nv, VertexId(1)).unwrap();
        // New vertex now sits on a cycle nv -> 1 -> 2 -> 0 -> nv of length 4.
        let c = idx.query(nv).unwrap();
        assert_eq!((c.length, c.count), (4, 1));
        // And vertex 0 still has its length-3 cycle.
        assert_eq!(idx.query(VertexId(0)).unwrap().length, 3);
    }
}
