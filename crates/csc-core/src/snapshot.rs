//! Immutable point-in-time query engines frozen from a [`CscIndex`].
//!
//! A [`SnapshotIndex`] packages everything the `SCCnt` read path needs —
//! the frozen label arena and the original vertex count — with no
//! interior mutability. Because it is immutable it is `Sync` for free:
//! share one behind an `Arc` across any number of reader threads and every
//! query runs lock-free, while the writer keeps maintaining the mutable
//! [`CscIndex`] elsewhere (see [`ConcurrentIndex`](crate::ConcurrentIndex)
//! for the publication machinery).
//!
//! Queries evaluate on [`FrozenLabels`]: shared, immutable arena segments
//! where the two lists a cycle query intersects sit adjacent in memory,
//! driven by the adaptive (branchless merge / galloping) kernel. The
//! equivalence of this path with `CscIndex::query` is property-tested in
//! `csc-labeling/tests/frozen_equivalence.rs`.
//!
//! The arena is the paper's reduced index (Section IV-E): it holds exactly
//! the two lists a cycle query reads, `L_out(v_o)` and `L_in(v_i)` per
//! original vertex, in couple order, and leaves `L_in(v_o)` and
//! `L_out(v_i)` — copies of those two, one hop along the couple edge —
//! empty, as the label store it is frozen from does. It is therefore
//! about half the four-list index, and so is every copy of it a publish
//! or compaction makes.
//!
//! Snapshots are produced two ways: [`SnapshotIndex::freeze`] walks the
//! query lists of the label store into one segment, while
//! [`SnapshotIndex::refreeze_from`] shares every segment of a previous
//! snapshot and copies only the query lists dirtied since into one new
//! delta segment — the incremental republication path of
//! [`ConcurrentIndex`](crate::ConcurrentIndex). It compacts back to a full
//! couple-ordered freeze once relocation holes exceed
//! [`MAX_DEAD_FRACTION`] of the arena or the segments reach
//! [`MAX_SEGMENTS`], and freezes whole when the delta would copy a
//! quarter or more of the live entries (a deletion window that re-labels
//! most hubs rewrites most lists).

use crate::health::{HealthBaseline, IndexHealth};
use crate::index::CscIndex;
use crate::reduction::{is_query_slot, query_lists};
use csc_graph::bipartite::{in_vertex, out_vertex};
use csc_graph::VertexId;
use csc_labeling::{CycleCount, DistCount, FrozenLabels, LabelEntry, LabelSide, LabelStore};
use rayon::prelude::*;

/// When [`SnapshotIndex::refreeze_from`]'s extended arena would carry more
/// dead space than this fraction, it compacts via a full couple-ordered
/// freeze instead — bounding both memory overhead and layout decay.
pub const MAX_DEAD_FRACTION: f64 = 0.5;

/// The most segments [`SnapshotIndex::refreeze_from`] stacks before it
/// compacts via a full couple-ordered freeze — bounding the segment table,
/// and the reference counts every publish clones, through long runs of
/// small publishes that never reach [`MAX_DEAD_FRACTION`].
pub const MAX_SEGMENTS: usize = 128;

/// A publish whose delta would copy at least this share of the live
/// query-list entries freezes whole instead: the full freeze copies at
/// most four times what the delta would, and leaves no dead space.
const FREEZE_WHOLE_SHARE: f64 = 0.25;

/// An immutable snapshot of a [`CscIndex`]'s query state.
///
/// Being immutable it is `Sync` for free: clone the `Arc` out of a
/// [`ConcurrentIndex`](crate::ConcurrentIndex) (or [`freeze`] one
/// directly) and query from any number of threads, lock-free.
///
/// ```
/// use csc_core::{CscConfig, CscIndex};
/// use csc_graph::{DiGraph, VertexId};
///
/// let g = DiGraph::from_edges(3, vec![(0, 1), (1, 2), (2, 0)]);
/// let mut index = CscIndex::build(&g, CscConfig::default()).unwrap();
/// let snapshot = index.freeze();
///
/// // The snapshot pins its freeze point even as the index moves on.
/// index.remove_edge(VertexId(2), VertexId(0)).unwrap();
/// assert_eq!(snapshot.query(VertexId(0)).unwrap().length, 3);
/// assert_eq!(index.query(VertexId(0)), None);
/// ```
///
/// [`freeze`]: CscIndex::freeze
#[derive(Clone, Debug)]
pub struct SnapshotIndex {
    frozen: FrozenLabels,
    original_n: usize,
    updates_applied: u64,
    /// The source index's in- and out-list entries (all four lists of
    /// every couple) at freeze time; the arena holds about half.
    in_entries: usize,
    out_entries: usize,
    /// The source index's drift baseline at freeze time, so the snapshot
    /// can report its own [`health`](SnapshotIndex::health).
    baseline: HealthBaseline,
}

impl SnapshotIndex {
    /// Freezes the current state of `index`. `O(query-list entries)`.
    ///
    /// The arena holds the query lists only, laid out in couple-query
    /// order — `Lout(v_o)` directly followed by `Lin(v_i)` for every
    /// original vertex `v` — so each `SCCnt(v)` intersection reads one
    /// contiguous, prefetcher-friendly region.
    pub fn freeze(index: &CscIndex) -> Self {
        Self::freeze_into(index, Vec::new())
    }

    /// [`freeze`](Self::freeze) into the allocation of `buffer` (see
    /// [`FrozenLabels::freeze_ordered_into`]).
    pub(crate) fn freeze_into(index: &CscIndex, buffer: Vec<LabelEntry>) -> Self {
        let lists = query_lists(index.original_vertex_count());
        Self::from_arena(
            FrozenLabels::freeze_ordered_into(index.labels(), lists, buffer),
            index,
        )
    }

    /// Freezes the current state of `index` *incrementally*: only the
    /// query lists among `dirty_slots` (the drain of
    /// [`Labels::take_dirty`](csc_labeling::Labels::take_dirty) since
    /// `prev` was frozen) are re-gathered, into one new arena segment;
    /// every segment of `prev` is shared, not copied. `O(span table +
    /// changed entries)`, independent of the arena size, where
    /// [`freeze`](Self::freeze) re-walks all `2n` heap-scattered query
    /// lists.
    ///
    /// Falls back to a full couple-ordered freeze when relocation holes
    /// would exceed [`MAX_DEAD_FRACTION`] of the arena or `prev` already
    /// holds [`MAX_SEGMENTS`] segments, so chains of incremental snapshots
    /// stay bounded in size, segment count, and layout quality. A publish
    /// whose delta would copy a quarter or more of the live entries
    /// freezes whole too: the full freeze costs at most four times the
    /// delta, and the delta would leave that much dead space behind.
    ///
    /// Correctness requires `prev` to match the label store as of the
    /// drain point — [`ConcurrentIndex`](crate::ConcurrentIndex) maintains
    /// exactly that invariant between publications.
    pub fn refreeze_from(prev: &SnapshotIndex, index: &CscIndex, dirty_slots: &[u32]) -> Self {
        Self::refreeze_into(prev, index, dirty_slots, &mut Vec::new())
    }

    /// [`refreeze_from`](Self::refreeze_from), whose compacting full
    /// freeze, if it takes one, fills the allocation of `buffer` (see
    /// [`FrozenLabels::freeze_ordered_into`], which replaces one too small)
    /// and leaves `buffer` empty.
    pub(crate) fn refreeze_into(
        prev: &SnapshotIndex,
        index: &CscIndex,
        dirty_slots: &[u32],
        buffer: &mut Vec<LabelEntry>,
    ) -> Self {
        let dirty: Vec<u32> = dirty_slots
            .iter()
            .copied()
            .filter(|&slot| is_query_slot(slot))
            .collect();
        // Project the delta in O(dirty) first: when this publish would
        // cross a compaction threshold, go straight to the full freeze
        // instead of building a delta only to discard it.
        let (delta, dead, total) = prev.frozen.projected_refreeze(index.labels(), &dirty);
        if prev.frozen.segment_count() >= MAX_SEGMENTS
            || delta as f64 >= FREEZE_WHOLE_SHARE * (total - dead) as f64
            || dead as f64 > MAX_DEAD_FRACTION * total as f64
        {
            return Self::freeze_into(index, std::mem::take(buffer));
        }
        Self::from_arena(prev.frozen.refreeze_spans(index.labels(), &dirty), index)
    }

    /// Takes back the allocation of the largest arena segment no other
    /// snapshot shares (see [`FrozenLabels::into_buffer`]).
    pub(crate) fn into_buffer(self) -> Option<Vec<LabelEntry>> {
        self.frozen.into_buffer()
    }

    fn from_arena(frozen: FrozenLabels, index: &CscIndex) -> Self {
        let stats = index.stats();
        SnapshotIndex {
            frozen,
            original_n: index.original_vertex_count(),
            updates_applied: (stats.insertions + stats.deletions) as u64,
            in_entries: index.side_entries(LabelSide::In),
            out_entries: index.side_entries(LabelSide::Out),
            baseline: *index.baseline(),
        }
    }

    /// `SCCnt(v)` on the snapshot: length and count of the shortest cycles
    /// through `v`, or `None` if no cycle passes through `v`.
    ///
    /// Unlike [`CscIndex::query`] this returns `None` (rather than
    /// panicking) for out-of-range vertices: a reader may hold a snapshot
    /// frozen before `v` was added, and stale-but-safe is the contract
    /// here.
    #[inline]
    pub fn query(&self, v: VertexId) -> Option<CycleCount> {
        let dc = self.query_raw(v)?;
        debug_assert_eq!(dc.dist % 2, 1, "V_out ~> V_in distances are odd");
        Some(CycleCount::new(dc.dist.div_ceil(2), dc.count))
    }

    /// The raw bipartite `(distance, count)` behind [`query`](Self::query).
    #[inline]
    pub fn query_raw(&self, v: VertexId) -> Option<DistCount> {
        if v.index() >= self.original_n {
            return None;
        }
        self.frozen.dist_count(out_vertex(v), in_vertex(v))
    }

    /// `SCCnt` for a batch of vertices, evaluated in parallel. Output order
    /// matches input order.
    pub fn query_batch(&self, vertices: &[VertexId]) -> Vec<Option<CycleCount>> {
        vertices.par_iter().map(|&v| self.query(v)).collect()
    }

    /// `SCCnt` for every vertex (an analytics sweep), in parallel.
    pub fn query_all(&self) -> Vec<Option<CycleCount>> {
        (0..self.original_n as u32)
            .into_par_iter()
            .map(|v| self.query(VertexId(v)))
            .collect()
    }

    /// Number of vertices in the snapshotted (original) graph.
    #[inline]
    pub fn original_vertex_count(&self) -> usize {
        self.original_n
    }

    /// The frozen label arena. It holds the query lists only:
    /// `out_of(v_o)` and `in_of(v_i)` answer as the source index did, while
    /// `in_of(v_o)` and `out_of(v_i)` are empty (see the module docs).
    pub fn labels(&self) -> &FrozenLabels {
        &self.frozen
    }

    /// Total label entries of the index this snapshot was frozen from, all
    /// four lists of every couple; the arena holds about half of them
    /// (`labels().total_entries()`).
    pub fn total_entries(&self) -> usize {
        self.in_entries + self.out_entries
    }

    /// Snapshot size in bytes (arena segments + spans).
    pub fn index_bytes(&self) -> usize {
        self.frozen.arena_bytes()
    }

    /// How many updates (`insert_edge` + `remove_edge`) the source index
    /// had applied when this snapshot was frozen. Monotone across
    /// republications, so readers can order snapshots.
    pub fn updates_applied(&self) -> u64 {
        self.updates_applied
    }

    /// The snapshot's drift report against the baseline it was frozen
    /// with: per-side label growth of the source index at freeze time,
    /// real arena dead space, and the bottom-ranked churn count. The
    /// maintenance-plane fields (`replay_queued`, `rebuilding`) are always
    /// idle here — a snapshot is a point in time, not a write plane.
    pub fn health(&self) -> IndexHealth {
        let total = self.total_entries();
        IndexHealth {
            total_entries: total,
            in_entries: self.in_entries,
            out_entries: self.out_entries,
            baseline_entries: self.baseline.entries,
            baseline_in_entries: self.baseline.in_entries,
            baseline_out_entries: self.baseline.out_entries,
            growth_percent: IndexHealth::growth(total, self.baseline.entries),
            dead_fraction: self.frozen.dead_fraction(),
            churned_vertices: self.original_n.saturating_sub(self.baseline.vertices),
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
}

impl CscIndex {
    /// Freezes an immutable [`SnapshotIndex`] of the current state —
    /// shorthand for [`SnapshotIndex::freeze`].
    pub fn freeze(&self) -> SnapshotIndex {
        SnapshotIndex::freeze(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CscConfig;
    use csc_graph::fixtures::figure2;
    use csc_graph::generators::{directed_cycle, gnm};
    use csc_graph::traversal::shortest_cycle_oracle;

    #[test]
    fn snapshot_matches_live_index_everywhere() {
        let g = gnm(40, 160, 3);
        let idx = CscIndex::build(&g, CscConfig::default()).unwrap();
        let snap = idx.freeze();
        assert_eq!(snap.original_vertex_count(), 40);
        assert_eq!(snap.total_entries(), idx.total_entries());
        for v in g.vertices() {
            assert_eq!(snap.query(v), idx.query(v), "SCCnt({v})");
            assert_eq!(snap.query_raw(v), idx.query_raw(v));
            assert_eq!(
                snap.query(v).map(|c| (c.length, c.count)),
                shortest_cycle_oracle(&g, v)
            );
        }
    }

    #[test]
    fn snapshot_is_a_point_in_time() {
        let g = directed_cycle(6);
        let mut idx = CscIndex::build(&g, CscConfig::default()).unwrap();
        let before = idx.freeze();
        assert_eq!(before.updates_applied(), 0);
        idx.insert_edge(VertexId(3), VertexId(0)).unwrap();
        let after = idx.freeze();
        assert_eq!(after.updates_applied(), 1);
        // The old snapshot still answers from the pre-update state.
        assert_eq!(before.query(VertexId(0)).unwrap().length, 6);
        assert_eq!(after.query(VertexId(0)).unwrap().length, 4);
    }

    #[test]
    fn out_of_range_is_none_not_panic() {
        let idx = CscIndex::build(&directed_cycle(3), CscConfig::default()).unwrap();
        let snap = idx.freeze();
        assert_eq!(snap.query(VertexId(3)), None);
        assert_eq!(snap.query_raw(VertexId(99)), None);
    }

    #[test]
    fn batch_and_all_match_pointwise_queries() {
        let g = gnm(120, 500, 9);
        let idx = CscIndex::build(&g, CscConfig::default()).unwrap();
        let snap = idx.freeze();
        let all = snap.query_all();
        assert_eq!(all.len(), 120);
        for v in g.vertices() {
            assert_eq!(all[v.index()], idx.query(v), "query_all at {v}");
        }
        let some: Vec<VertexId> = g.vertices().step_by(7).collect();
        let batch = snap.query_batch(&some);
        for (v, got) in some.iter().zip(&batch) {
            assert_eq!(*got, idx.query(*v), "query_batch at {v}");
        }
    }

    /// The arena holds exactly the query lists of `idx`, and nothing in
    /// the slots of the couple copies.
    fn assert_holds_only_the_query_lists(snap: &SnapshotIndex, idx: &CscIndex) {
        let arena = snap.labels();
        for slot in 0..2 * idx.labels.vertex_count() as u32 {
            let (v, side) = csc_labeling::slot_list(slot);
            let want = if is_query_slot(slot) {
                idx.labels.side_of(v, side)
            } else {
                &[]
            };
            assert_eq!(arena.side_of(v, side), want, "{v:?}/{side:?}");
        }
    }

    #[test]
    fn the_arena_holds_only_the_query_lists() {
        for g in [
            figure2(),
            gnm(30, 120, 4),
            directed_cycle(8),
            gnm(20, 80, 7),
        ] {
            let idx = CscIndex::build(&g, CscConfig::default()).unwrap();
            let snap = idx.freeze();
            assert_holds_only_the_query_lists(&snap, &idx);
            // The snapshot reports its index's entries; its arena keeps
            // the reduced index, a large fraction smaller.
            assert_eq!(snap.total_entries(), idx.total_entries());
            let kept = snap.labels().total_entries();
            let savings = 1.0 - kept as f64 / idx.total_entries() as f64;
            assert!((0.3..=1.0).contains(&savings), "{savings}");
            assert_eq!(snap.index_bytes(), snap.labels().arena_bytes());
            for v in g.vertices() {
                assert_eq!(snap.query(v), idx.query(v), "SCCnt({v})");
            }
        }
    }

    #[test]
    fn refreeze_tracks_updates_like_a_full_freeze() {
        let g = gnm(30, 100, 7);
        let mut idx = CscIndex::build(&g, CscConfig::default()).unwrap();
        idx.labels.take_dirty(); // snapshot baseline
        let mut snap = idx.freeze();

        let edges = g.edge_vec();
        for (k, &(a, b)) in edges.iter().enumerate().take(12) {
            if k % 2 == 0 {
                idx.remove_edge(VertexId(a), VertexId(b)).unwrap();
            } else {
                let nv = idx.add_vertex();
                idx.insert_edge(VertexId(a), nv).unwrap();
            }
            let dirty = idx.labels.take_dirty();
            snap = SnapshotIndex::refreeze_from(&snap, &idx, &dirty);
            let full = idx.freeze();
            assert_eq!(snap.original_vertex_count(), full.original_vertex_count());
            assert_eq!(snap.total_entries(), full.total_entries());
            assert_eq!(snap.updates_applied(), full.updates_applied());
            assert_holds_only_the_query_lists(&snap, &idx);
            for x in 0..snap.original_vertex_count() as u32 {
                let x = VertexId(x);
                assert_eq!(snap.query(x), full.query(x), "step {k}: SCCnt({x})");
            }
        }
    }

    #[test]
    fn refreeze_compacts_once_dead_space_dominates() {
        let g = gnm(30, 90, 5);
        let mut idx = CscIndex::build(&g, CscConfig::default()).unwrap();
        idx.labels.take_dirty();
        let mut snap = idx.freeze();
        // Thrash one edge so list lengths keep changing: every publication
        // relocates the grown/shrunk lists, piling up dead space until the
        // compaction threshold forces a clean full freeze.
        let (a, b) = g.edge_vec()[10];
        let (mut saw_dead, mut saw_compaction) = (false, false);
        let mut prev_dead = 0usize;
        for k in 0..600 {
            if saw_compaction {
                break;
            }
            if k % 2 == 0 {
                idx.remove_edge(VertexId(a), VertexId(b)).unwrap();
            } else {
                idx.insert_edge(VertexId(a), VertexId(b)).unwrap();
            }
            let dirty = idx.labels.take_dirty();
            snap = SnapshotIndex::refreeze_from(&snap, &idx, &dirty);
            let dead = snap.labels().dead_entries();
            saw_dead |= dead > 0;
            saw_compaction |= prev_dead > 0 && dead == 0;
            prev_dead = dead;
            assert!(
                snap.labels().dead_fraction() <= crate::snapshot::MAX_DEAD_FRACTION,
                "compaction must bound dead space"
            );
        }
        assert!(saw_dead, "the scenario must exercise relocation");
        assert!(saw_compaction, "dead space must eventually be compacted");
    }

    /// Re-stores the first entry of each of `lists`, which dirties just
    /// those lists, and publishes on top of `prev`.
    fn republish(
        idx: &mut CscIndex,
        prev: &SnapshotIndex,
        lists: &[(VertexId, LabelSide)],
    ) -> SnapshotIndex {
        for &(v, side) in lists {
            let entry = idx.labels.side_of(v, side)[0];
            idx.labels.upsert(v, side, entry);
        }
        let dirty = idx.labels.take_dirty();
        assert_eq!(dirty.len(), lists.len());
        SnapshotIndex::refreeze_from(prev, idx, &dirty)
    }

    #[test]
    fn a_publish_that_rewrites_a_quarter_of_the_index_freezes_whole() {
        let g = gnm(30, 100, 2);
        let mut idx = CscIndex::build(&g, CscConfig::default()).unwrap();
        idx.labels.take_dirty();
        let base = idx.freeze();
        let live = base.labels().total_entries();
        // Longest first, `under` takes each list that keeps the delta
        // below a quarter of the live entries, so adding any list it
        // skipped reaches the quarter.
        let len = |&(v, side): &(VertexId, LabelSide)| idx.labels.side_of(v, side).len();
        let mut lists: Vec<_> = query_lists(idx.original_vertex_count())
            .filter(|list| len(list) > 0)
            .collect();
        lists.sort_by_key(|list| std::cmp::Reverse(len(list)));
        let (mut under, mut skipped, mut copied) = (Vec::new(), Vec::new(), 0);
        for list in lists {
            if 4 * (copied + len(&list)) < live {
                copied += len(&list);
                under.push(list);
            } else {
                skipped.push(list);
            }
        }
        let last = *skipped.last().expect("the lists add up to `live`");
        assert!(4 * copied < live && 4 * (copied + len(&last)) >= live);

        let delta = republish(&mut idx, &base, &under);
        let arena = delta.labels();
        assert_eq!((arena.segment_count(), arena.dead_entries()), (2, copied));

        under.push(last);
        let whole = republish(&mut idx, &base, &under);
        let arena = whole.labels();
        assert_eq!((arena.segment_count(), arena.dead_entries()), (1, 0));
        let full = idx.freeze();
        assert_eq!(arena.total_entries(), full.labels().total_entries());
        for x in g.vertices() {
            assert_eq!(delta.query(x), full.query(x), "delta: SCCnt({x})");
            assert_eq!(whole.query(x), full.query(x), "whole: SCCnt({x})");
        }
    }

    #[test]
    fn single_slot_publishes_compact_at_the_segment_bound() {
        let g = gnm(60, 240, 4);
        let mut idx = CscIndex::build(&g, CscConfig::default()).unwrap();
        idx.labels.take_dirty();
        let mut snap = idx.freeze();
        // Re-storing an entry of the shortest non-empty query list dirties
        // just that slot: every publish stacks a one-list delta, and dead
        // space stays far below MAX_DEAD_FRACTION.
        let (v, side) = (0..2 * idx.labels.vertex_count() as u32)
            .filter(|&slot| is_query_slot(slot))
            .map(csc_labeling::labels::slot_list)
            .filter(|&(v, side)| !idx.labels.side_of(v, side).is_empty())
            .min_by_key(|&(v, side)| idx.labels.side_of(v, side).len())
            .unwrap();
        let entry = idx.labels.side_of(v, side)[0];
        let mut compactions = 0;
        for step in 0..2 * MAX_SEGMENTS {
            idx.labels.upsert(v, side, entry);
            let dirty = idx.labels.take_dirty();
            assert_eq!(dirty.len(), 1);
            let before = snap.labels().segment_count();
            snap = SnapshotIndex::refreeze_from(&snap, &idx, &dirty);
            let arena = snap.labels();
            if before == MAX_SEGMENTS {
                assert_eq!(arena.segment_count(), 1, "step {step}: compacts");
                assert_eq!(arena.dead_entries(), 0, "step {step}: compacts");
                compactions += 1;
            } else {
                assert_eq!(arena.segment_count(), before + 1, "step {step}");
                assert!(arena.dead_fraction() < MAX_DEAD_FRACTION, "step {step}");
            }
            let full = idx.freeze();
            for x in g.vertices() {
                assert_eq!(snap.query(x), full.query(x), "step {step}: SCCnt({x})");
            }
        }
        assert_eq!(compactions, 2);
    }

    #[test]
    fn snapshot_health_mirrors_index_plus_arena_state() {
        let g = gnm(24, 80, 11);
        let mut idx = CscIndex::build(&g, CscConfig::default()).unwrap();
        idx.add_vertex();
        idx.insert_edge(VertexId(0), VertexId(24)).unwrap();
        idx.insert_edge(VertexId(24), VertexId(1)).unwrap();
        let snap = idx.freeze();
        let (sh, ih) = (snap.health(), idx.health());
        assert_eq!(sh.total_entries, ih.total_entries);
        assert_eq!(
            (sh.in_entries, sh.out_entries),
            (ih.in_entries, ih.out_entries)
        );
        assert_eq!(sh.baseline_entries, ih.baseline_entries);
        assert_eq!(sh.churned_vertices, 1);
        assert_eq!(sh.dead_fraction, 0.0, "fresh freeze has no dead space");
        assert!(!sh.rebuilding && sh.replay_queued == 0);
    }

    #[test]
    fn snapshot_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SnapshotIndex>();
    }
}
