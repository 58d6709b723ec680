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
//! where, after a compaction, the two lists a cycle query intersects sit
//! adjacent in memory, driven by the adaptive (branchless merge /
//! galloping) kernel. The equivalence of this path with `CscIndex::query`
//! is property-tested in `csc-labeling/tests/frozen_equivalence.rs`.
//!
//! The arena is the paper's reduced index (Section IV-E): it holds exactly
//! the two lists a cycle query reads, `L_out(v_o)` and `L_in(v_i)` per
//! original vertex, and reads `L_in(v_o)` and `L_out(v_i)` — copies of
//! those two, one hop along the couple edge — as empty, as the label
//! store does. It is therefore about half the four-list index.
//!
//! The arena is the index's own label store
//! ([`Labels`](csc_labeling::Labels)): a publish
//! seals the store's open segment and hands the snapshot the segment list
//! and a copy of the span table, so every list is held once however many
//! snapshots are out, and a publish costs the span table whatever the
//! window wrote. The publish compacts the arena into one couple-ordered
//! segment first once its dead space passes [`MAX_DEAD_FRACTION`], its
//! sealed segments reach [`MAX_SEGMENTS`], or the window copied a
//! quarter of the live entries or more (`FREEZE_WHOLE_SHARE`).
//! [`SnapshotIndex::freeze`] copies the query lists of an index it cannot
//! change into a snapshot of their own.

use crate::deadline::UNBOUNDED;
use crate::guard::Deadline;
use crate::health::{HealthBaseline, IndexHealth};
use crate::index::CscIndex;
use csc_graph::bipartite::{in_vertex, out_vertex};
use csc_graph::VertexId;
use csc_labeling::{CycleCount, DistCount, FrozenLabels, LabelSide, LabelStore};

/// A publish whose arena would carry more dead and spare slots than this
/// fraction compacts it first — bounding both memory overhead and layout
/// decay. The arena is the only copy of the labels, so this bounds the
/// index's memory at a third above its live entries.
pub const MAX_DEAD_FRACTION: f64 = 0.25;

/// The most sealed segments a publish stacks before it compacts the arena
/// — bounding the segment table, and the reference counts every publish
/// clones, through long runs of small publishes that never reach
/// [`MAX_DEAD_FRACTION`].
pub const MAX_SEGMENTS: usize = 128;

/// A publish whose window copied at least this share of the live entries
/// into the arena's open segment compacts it first: the compaction copies
/// at most four times what the window did, and leaves no dead space.
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
    /// A snapshot of the current state of `index` that copies its query
    /// lists into one couple-ordered segment (see
    /// [`FrozenLabels::freeze`]), leaving the index as it is.
    /// `O(query-list entries)`; the publish path,
    /// [`MaintenanceEngine::publish_from`](crate::MaintenanceEngine::publish_from),
    /// shares the index's arena instead.
    pub fn freeze(index: &CscIndex) -> Self {
        Self::from_arena(FrozenLabels::freeze(index.labels()), index)
    }

    /// Publishes the current state of `index`: seals its label arena's
    /// open segment and shares every segment with the snapshot, which
    /// costs a copy of the span table whatever the writes since the last
    /// publish copied. The arena is first compacted into one
    /// couple-ordered segment (see
    /// [`Labels::compact`](csc_labeling::Labels::compact)) when its
    /// dead and spare slots would pass [`MAX_DEAD_FRACTION`] of it, when it
    /// already holds [`MAX_SEGMENTS`] sealed segments, or when the writes
    /// since the last publish copied [`FREEZE_WHOLE_SHARE`] of the live
    /// entries or more (a deletion window that re-labels most hubs
    /// rewrites most lists, and the compaction then copies at most four
    /// times what they did).
    pub(crate) fn publish(index: &mut CscIndex) -> Self {
        let labels = &mut index.labels;
        let (slots, live) = (labels.arena_entries() as f64, labels.total_entries() as f64);
        if labels.segment_count() >= MAX_SEGMENTS
            || labels.tail_entries() as f64 >= FREEZE_WHOLE_SHARE * live
            || slots - live > MAX_DEAD_FRACTION * slots
        {
            labels.compact();
        }
        let frozen = labels.publish();
        Self::from_arena(frozen, index)
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

    /// `SCCnt` for a batch of vertices, evaluated in parallel by
    /// [`query_batch_deadline`](Self::query_batch_deadline) without a
    /// deadline. Output order matches input order.
    pub fn query_batch(&self, vertices: &[VertexId]) -> Vec<Option<CycleCount>> {
        self.query_batch_deadline(vertices, Deadline::NONE)
            .expect(UNBOUNDED)
    }

    /// `SCCnt` for every vertex (an analytics sweep), in parallel by
    /// [`query_all_deadline`](Self::query_all_deadline) without a deadline.
    pub fn query_all(&self) -> Vec<Option<CycleCount>> {
        self.query_all_deadline(Deadline::NONE).expect(UNBOUNDED)
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
    use crate::reduction::{is_stored, query_lists};
    use csc_graph::fixtures::figure2;
    use csc_graph::generators::{directed_cycle, gnm};
    use csc_graph::traversal::shortest_cycle_oracle;
    use csc_labeling::LabelEntry;

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

    /// The arena holds exactly the query lists of `idx`, and reads the
    /// couple copies as empty.
    fn assert_holds_only_the_query_lists(snap: &SnapshotIndex, idx: &CscIndex) {
        let arena = snap.labels();
        for x in 0..idx.labels.vertex_count() as u32 {
            for side in [LabelSide::In, LabelSide::Out] {
                let x = VertexId(x);
                let want = idx.labels.side_of(x, side);
                assert_eq!(arena.side_of(x, side), want, "{x:?}/{side:?}");
                assert!(is_stored(x, side) || want.is_empty(), "{x:?}/{side:?}");
            }
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

    fn publish(idx: &mut CscIndex) -> SnapshotIndex {
        SnapshotIndex::publish(idx)
    }

    #[test]
    fn refreeze_tracks_updates_like_a_full_freeze() {
        let g = gnm(30, 100, 7);
        let mut idx = CscIndex::build(&g, CscConfig::default()).unwrap();
        let snap = publish(&mut idx);
        assert_eq!(snap.labels().segment_count(), 1, "the build's arena");

        let edges = g.edge_vec();
        let mut held = vec![(snap, idx.freeze())];
        for (k, &(a, b)) in edges.iter().enumerate().take(12) {
            if k % 2 == 0 {
                idx.remove_edge(VertexId(a), VertexId(b)).unwrap();
            } else {
                let nv = idx.add_vertex();
                idx.insert_edge(VertexId(a), nv).unwrap();
            }
            let (snap, full) = (publish(&mut idx), idx.freeze());
            assert_eq!(snap.original_vertex_count(), full.original_vertex_count());
            assert_eq!(snap.total_entries(), full.total_entries());
            assert_eq!(snap.updates_applied(), full.updates_applied());
            assert_holds_only_the_query_lists(&snap, &idx);
            for x in 0..snap.original_vertex_count() as u32 {
                let x = VertexId(x);
                assert_eq!(snap.query(x), full.query(x), "step {k}: SCCnt({x})");
            }
            held.push((snap, full));
        }
        // Every earlier snapshot still answers for its own publish point.
        for (k, (old, then)) in held.iter().enumerate() {
            for x in 0..old.original_vertex_count() as u32 {
                let x = VertexId(x);
                assert_eq!(old.query(x), then.query(x), "snapshot {k}: SCCnt({x})");
            }
        }
    }

    #[test]
    fn refreeze_compacts_once_dead_space_dominates() {
        let g = gnm(30, 90, 5);
        let mut idx = CscIndex::build(&g, CscConfig::default()).unwrap();
        // Thrash one edge so list lengths keep changing: every publish
        // seals the copies the window made, piling up dead space until
        // the compaction threshold forces a clean repack.
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
            let snap = publish(&mut idx);
            let dead = snap.labels().dead_entries();
            saw_dead |= dead > 0;
            saw_compaction |= prev_dead > 0 && dead == 0;
            prev_dead = dead;
            assert!(
                snap.labels().dead_fraction() <= MAX_DEAD_FRACTION,
                "compaction must bound dead space"
            );
        }
        assert!(saw_dead, "the scenario must exercise relocation");
        assert!(saw_compaction, "dead space must eventually be compacted");
    }

    /// Re-stores each of `lists` with its first entry's count one higher,
    /// which copies just those lists into the open segment, and publishes.
    fn republish(idx: &mut CscIndex, lists: &[(VertexId, LabelSide)]) -> SnapshotIndex {
        for &(v, side) in lists {
            let e = idx.labels.side_of(v, side)[0];
            let bumped = LabelEntry::new(e.hub_rank(), e.dist(), e.count() + 1).unwrap();
            idx.labels.upsert(v, side, bumped);
        }
        assert_eq!(idx.labels.dirty_len(), lists.len());
        publish(idx)
    }

    #[test]
    fn a_publish_that_rewrites_a_quarter_of_the_index_freezes_whole() {
        let g = gnm(30, 100, 2);
        let mut idx = CscIndex::build(&g, CscConfig::default()).unwrap();
        let live = publish(&mut idx).labels().total_entries();
        // Longest first, `under` takes each list that keeps the copies
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

        let mut twin = idx.clone();
        let sealed = republish(&mut idx, &under);
        let arena = sealed.labels();
        assert_eq!((arena.segment_count(), arena.dead_entries()), (2, copied));

        under.push(last);
        let whole = republish(&mut twin, &under);
        let arena = whole.labels();
        assert_eq!((arena.segment_count(), arena.dead_entries()), (1, 0));
        assert_eq!(
            arena.total_entries(),
            twin.freeze().labels().total_entries()
        );
        for x in g.vertices() {
            assert_eq!(sealed.query(x), idx.freeze().query(x), "sealed: SCCnt({x})");
            assert_eq!(whole.query(x), twin.freeze().query(x), "whole: SCCnt({x})");
        }
    }

    #[test]
    fn single_slot_publishes_compact_at_the_segment_bound() {
        let g = gnm(60, 240, 4);
        let mut idx = CscIndex::build(&g, CscConfig::default()).unwrap();
        let mut snap = publish(&mut idx);
        // Re-storing an entry of the shortest non-empty query list copies
        // just that list: every publish seals a one-list segment, and dead
        // space stays far below MAX_DEAD_FRACTION.
        let list = query_lists(idx.original_vertex_count())
            .filter(|&(v, side)| !idx.labels.side_of(v, side).is_empty())
            .min_by_key(|&(v, side)| idx.labels.side_of(v, side).len())
            .unwrap();
        let mut compactions = 0;
        for step in 0..2 * MAX_SEGMENTS {
            let before = snap.labels().segment_count();
            snap = republish(&mut idx, &[list]);
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
