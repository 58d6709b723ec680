//! The published label arena and the adaptive intersection kernel.
//!
//! A [`FrozenLabels`] is what [`Labels::publish`] hands out: the list of
//! sealed, reference-counted segments of the store's arena and a copy of
//! its span table, one span per stored list. A segment is never written
//! after it is sealed (the store copies a list out of it before changing
//! it), so the snapshot reads exactly the lists of its publish point while
//! the store moves on, and successive snapshots share every segment they
//! have in common: a publish costs a copy of the span table. A compaction
//! ([`Labels::compact`]) packs the live lists into one segment in the
//! layout's order — for the CSC index each couple's `L_out(v_o)` then
//! `L_in(v_i)`, so an `SCCnt(v)` evaluation reads one contiguous run — and
//! [`freeze`](FrozenLabels::freeze) packs a copy the same way without
//! touching the store.
//!
//! Both the store and the snapshot answer queries through the
//! [`LabelStore`] trait, whose default `dist_count` uses
//! [`intersect_adaptive`]. The kernel picks a strategy by list shape:
//!
//! * **galloping** (exponential probe + binary search) when one list is at
//!   least [`GALLOP_SKEW`] times longer than the other — `O(short · log
//!   long)` instead of `O(short + long)`;
//! * **dual-chain branchless merge** when both lists are long: the lists
//!   are split at a pivot rank and the two independent sub-merges run
//!   interleaved in one loop. A single merge is bound by its loop-carried
//!   dependency (load → compare → conditional advance feeds the next
//!   load), so two independent chains nearly double instruction-level
//!   parallelism; measured ~17% faster than the single chain on ~750-entry
//!   lists;
//! * **single branchless merge** for short lists, where the dual split's
//!   fixed costs (pivot search, drain loops) don't pay.
//!
//! All paths are proven equivalent to the reference kernel
//! ([`crate::labels::intersect`]) by the property tests in
//! `tests/frozen_equivalence.rs`.

use crate::entry::LabelEntry;
use crate::labels::{DistCount, LabelSide, Labels, ListLayout, Span};
use csc_graph::VertexId;
use std::sync::Arc;

/// Length ratio at which [`intersect_adaptive`] switches from the merge to
/// the galloping strategy.
pub const GALLOP_SKEW: usize = 8;

/// Minimum length of the *shorter* list before the dual-chain merge is
/// worth its fixed costs; below this the single-chain merge runs.
pub const DUAL_CHAIN_MIN: usize = 32;

/// Common read interface over the label store and its snapshots.
///
/// [`Labels`] (the writer's arena) and [`FrozenLabels`] (a published,
/// immutable view of it) implement this identically; anything that only
/// reads labels — query evaluation, snapshots, analytics sweeps — should
/// take a `LabelStore` instead of a concrete type.
pub trait LabelStore {
    /// Number of vertices covered.
    fn vertex_count(&self) -> usize;

    /// The in-label list of `v`, sorted by hub rank.
    fn in_of(&self, v: VertexId) -> &[LabelEntry];

    /// The out-label list of `v`, sorted by hub rank.
    fn out_of(&self, v: VertexId) -> &[LabelEntry];

    /// The label list of `v` on `side`.
    fn side_of(&self, v: VertexId, side: LabelSide) -> &[LabelEntry] {
        match side {
            LabelSide::In => self.in_of(v),
            LabelSide::Out => self.out_of(v),
        }
    }

    /// Total number of stored label entries.
    fn total_entries(&self) -> usize;

    /// `SPCnt(s, t)`: shortest `s ~> t` distance over any common hub and
    /// the number of such shortest paths (Equations (1)–(2)), evaluated
    /// with the adaptive kernel.
    ///
    /// One call is the unit a read runs to completion: the kernel is never
    /// interrupted, and a time-bounded sweep above this crate checks its
    /// clock between calls, never inside one.
    fn dist_count(&self, s: VertexId, t: VertexId) -> Option<DistCount> {
        intersect_adaptive(self.out_of(s), self.in_of(t))
    }

    /// The shortest `s ~> t` distance via the index, if any.
    fn dist(&self, s: VertexId, t: VertexId) -> Option<u32> {
        self.dist_count(s, t).map(|dc| dc.dist)
    }
}

impl LabelStore for Labels {
    #[inline]
    fn vertex_count(&self) -> usize {
        Labels::vertex_count(self)
    }

    #[inline]
    fn in_of(&self, v: VertexId) -> &[LabelEntry] {
        Labels::in_of(self, v)
    }

    #[inline]
    fn out_of(&self, v: VertexId) -> &[LabelEntry] {
        Labels::out_of(self, v)
    }

    #[inline]
    fn total_entries(&self) -> usize {
        Labels::total_entries(self)
    }
}

/// An immutable view of a label arena: shared, reference-counted segments
/// of [`LabelEntry`]s and one span per stored list (see the [module
/// docs](self)). A clone copies the span table and bumps one reference
/// count per segment; queries allocate nothing and resolve a list through
/// its span and the segment table.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FrozenLabels {
    pub(crate) segments: Vec<Arc<Vec<LabelEntry>>>,
    pub(crate) spans: Vec<Span>,
    pub(crate) layout: ListLayout,
    /// Entries the spans address.
    pub(crate) live: usize,
}

impl FrozenLabels {
    /// A copy of every list of `labels`, packed into one segment in the
    /// layout's order (see [`Labels::compact`]); the store is left as it
    /// is.
    ///
    /// # Panics
    ///
    /// Panics if the lists hold `>= 2^32` entries, beyond the `u32` span
    /// encoding (at 8 bytes per entry, a 32 GiB segment).
    pub fn freeze(labels: &Labels) -> Self {
        labels.packed(Vec::new(), 0)
    }

    /// Segment slots no span addresses: the old copies of rewritten lists
    /// and the spare room the writer left behind lists it grew.
    pub fn dead_entries(&self) -> usize {
        self.arena_entries() - self.live
    }

    /// Fraction of the arena that is dead space, in `0.0..=1.0`.
    pub fn dead_fraction(&self) -> f64 {
        let total = self.arena_entries();
        if total == 0 {
            0.0
        } else {
            self.dead_entries() as f64 / total as f64
        }
    }

    /// Number of segments: 1 after a compaction, plus one per publish
    /// that wrote something since.
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Size in bytes: every entry slot the segments hold, dead and spare
    /// slots included, plus the spans. Segments shared with other
    /// snapshots count in full.
    pub fn arena_bytes(&self) -> usize {
        self.arena_entries() * std::mem::size_of::<LabelEntry>()
            + self.spans.len() * std::mem::size_of::<Span>()
    }

    /// Entry slots across all segments.
    pub(crate) fn arena_entries(&self) -> usize {
        self.segments.iter().map(|segment| segment.len()).sum()
    }

    #[inline]
    fn slice(&self, v: VertexId, side: LabelSide) -> &[LabelEntry] {
        match self.layout.span(v, side) {
            Some(i) => {
                let Span { seg, lo, hi } = self.spans[i];
                &self.segments[seg as usize][lo as usize..hi as usize]
            }
            None => &[],
        }
    }
}

impl LabelStore for FrozenLabels {
    #[inline]
    fn vertex_count(&self) -> usize {
        self.spans.len() / self.layout.per_vertex()
    }

    #[inline]
    fn in_of(&self, v: VertexId) -> &[LabelEntry] {
        self.slice(v, LabelSide::In)
    }

    #[inline]
    fn out_of(&self, v: VertexId) -> &[LabelEntry] {
        self.slice(v, LabelSide::Out)
    }

    #[inline]
    fn total_entries(&self) -> usize {
        self.live
    }
}

/// Running minimum-distance / count-sum accumulator for Equations (1)–(2).
#[derive(Clone, Copy)]
struct MinDistAcc {
    dist: u32,
    count: u64,
}

impl MinDistAcc {
    #[inline]
    fn new() -> Self {
        MinDistAcc {
            dist: u32::MAX,
            count: 0,
        }
    }

    #[inline]
    fn meet(&mut self, a: LabelEntry, b: LabelEntry) {
        let d = a.dist() + b.dist();
        if d < self.dist {
            self.dist = d;
            self.count = a.count().saturating_mul(b.count());
        } else if d == self.dist {
            self.count = self
                .count
                .saturating_add(a.count().saturating_mul(b.count()));
        }
    }

    /// Combines two partial results over disjoint hub ranges.
    #[inline]
    fn combine(mut self, other: MinDistAcc) -> MinDistAcc {
        if other.dist < self.dist {
            self = other;
        } else if other.dist == self.dist && self.dist != u32::MAX {
            self.count = self.count.saturating_add(other.count);
        }
        self
    }

    #[inline]
    fn finish(self) -> Option<DistCount> {
        (self.dist != u32::MAX).then_some(DistCount {
            dist: self.dist,
            count: self.count,
        })
    }
}

/// Adaptive sorted-list intersection: galloping when one side is ≥
/// [`GALLOP_SKEW`]× longer, a dual-chain branchless merge when both lists
/// are ≥ [`DUAL_CHAIN_MIN`] long, and a single branchless merge otherwise.
/// Exactly equivalent to [`crate::labels::intersect`].
pub fn intersect_adaptive(out_s: &[LabelEntry], in_t: &[LabelEntry]) -> Option<DistCount> {
    if out_s.is_empty() || in_t.is_empty() {
        return None;
    }
    // The sum and product in `meet` are symmetric, so the two sides are
    // interchangeable; gallop over the longer with keys from the shorter.
    if out_s.len() >= GALLOP_SKEW * in_t.len() {
        intersect_gallop(in_t, out_s)
    } else if in_t.len() >= GALLOP_SKEW * out_s.len() {
        intersect_gallop(out_s, in_t)
    } else if out_s.len().min(in_t.len()) >= DUAL_CHAIN_MIN {
        intersect_merge_dual(out_s, in_t)
    } else {
        intersect_merge(out_s, in_t)
    }
}

/// One branchless merge step over `a[*i..]` × `b[*j..]`: meets on a hub
/// match, then advances the lagging side(s) with branch-free conditional
/// increments. The only data-dependent branch is the (rare,
/// well-predicted) hub match.
#[inline(always)]
fn merge_step(
    a: &[LabelEntry],
    b: &[LabelEntry],
    i: &mut usize,
    j: &mut usize,
    acc: &mut MinDistAcc,
) {
    let (ea, eb) = (a[*i], b[*j]);
    let (ka, kb) = (ea.hub_rank(), eb.hub_rank());
    if ka == kb {
        acc.meet(ea, eb);
    }
    *i += (ka <= kb) as usize;
    *j += (kb <= ka) as usize;
}

/// Single-chain branchless two-pointer merge.
fn intersect_merge(a: &[LabelEntry], b: &[LabelEntry]) -> Option<DistCount> {
    let mut acc = MinDistAcc::new();
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        merge_step(a, b, &mut i, &mut j, &mut acc);
    }
    acc.finish()
}

/// Dual-chain merge: splits both lists at a pivot rank (no hub pair can
/// straddle the split, since both lists are sorted by rank) and advances
/// the two independent sub-merges in lockstep within one loop, so the CPU
/// overlaps their loop-carried dependency chains.
fn intersect_merge_dual(a: &[LabelEntry], b: &[LabelEntry]) -> Option<DistCount> {
    let sa = a.len() / 2;
    let pivot = a[sa].hub_rank();
    let sb = gallop_lower_bound(b, 0, pivot);

    let mut low = MinDistAcc::new();
    let mut high = MinDistAcc::new();
    let (mut i1, mut j1) = (0usize, 0usize);
    let (mut i2, mut j2) = (sa, sb);
    // Interleaved phase: one step of each chain per iteration.
    while i1 < sa && j1 < sb && i2 < a.len() && j2 < b.len() {
        merge_step(a, b, &mut i1, &mut j1, &mut low);
        merge_step(a, b, &mut i2, &mut j2, &mut high);
    }
    // Drain whichever chain still has work.
    while i1 < sa && j1 < sb {
        merge_step(a, b, &mut i1, &mut j1, &mut low);
    }
    while i2 < a.len() && j2 < b.len() {
        merge_step(a, b, &mut i2, &mut j2, &mut high);
    }
    low.combine(high).finish()
}

/// For each entry of `short`, gallops forward in `long` — exponential probe
/// doubling from the last match position, then binary search inside the
/// overshot window. `O(|short| * log |long|)` worst case, and `O(|short| +
/// log |long|)`-ish when matches cluster, versus `O(|short| + |long|)` for
/// the merge.
fn intersect_gallop(short: &[LabelEntry], long: &[LabelEntry]) -> Option<DistCount> {
    let mut acc = MinDistAcc::new();
    let mut pos = 0usize;
    for &es in short {
        let key = es.hub_rank();
        pos = gallop_lower_bound(long, pos, key);
        if pos == long.len() {
            break;
        }
        let el = long[pos];
        if el.hub_rank() == key {
            acc.meet(es, el);
            pos += 1;
        }
    }
    acc.finish()
}

/// First index `>= start` whose hub rank is `>= key` (or `long.len()`).
fn gallop_lower_bound(long: &[LabelEntry], start: usize, key: u32) -> usize {
    // Exponential phase: every index below `lo` holds a rank `< key`.
    let mut lo = start;
    let mut step = 1usize;
    while lo + step <= long.len() && long[lo + step - 1].hub_rank() < key {
        lo += step;
        step <<= 1;
    }
    // Binary phase inside the overshot window.
    let mut hi = (lo + step - 1).min(long.len());
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if long[mid].hub_rank() < key {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::labels::intersect;

    fn e(h: u32, d: u32, c: u64) -> LabelEntry {
        LabelEntry::new(h, d, c).unwrap()
    }

    fn v(i: u32) -> VertexId {
        VertexId(i)
    }

    fn sample_labels() -> Labels {
        let mut l = Labels::new(4);
        l.append(v(0), LabelSide::In, e(0, 0, 1));
        l.append(v(0), LabelSide::Out, e(0, 1, 2));
        l.append(v(0), LabelSide::Out, e(2, 3, 1));
        l.append(v(1), LabelSide::In, e(0, 2, 1));
        l.append(v(1), LabelSide::In, e(2, 1, 4));
        l.append(v(3), LabelSide::Out, e(1, 5, 1));
        l
    }

    /// Every list of `frozen` reads as `labels` holds it.
    fn assert_reads_as(frozen: &FrozenLabels, labels: &Labels) {
        assert_eq!(frozen.vertex_count(), labels.vertex_count());
        assert_eq!(frozen.total_entries(), labels.total_entries());
        for i in 0..labels.vertex_count() as u32 {
            for side in [LabelSide::In, LabelSide::Out] {
                assert_eq!(frozen.side_of(v(i), side), labels.side_of(v(i), side));
            }
        }
    }

    #[test]
    fn freeze_preserves_every_slice() {
        let labels = sample_labels();
        let frozen = FrozenLabels::freeze(&labels);
        assert_eq!(LabelStore::vertex_count(&frozen), 4);
        assert_eq!(LabelStore::total_entries(&frozen), 6);
        assert_reads_as(&frozen, &labels);
        // One segment of 6 entries, 8 spans of (segment, lo, hi).
        assert_eq!(frozen.segment_count(), 1);
        assert_eq!(frozen.arena_bytes(), 6 * 8 + 8 * 12);
    }

    #[test]
    fn freeze_ordered_places_hot_lists_first_and_answers_identically() {
        // A reduced store: L_in of even vertices, L_out of odd ones.
        let mut labels = Labels::reduced(4);
        labels.append(v(0), LabelSide::In, e(0, 0, 1));
        labels.append(v(2), LabelSide::In, e(0, 2, 1));
        labels.append(v(2), LabelSide::In, e(2, 0, 1));
        labels.append(v(3), LabelSide::Out, e(0, 1, 2));
        labels.append(v(3), LabelSide::Out, e(3, 0, 1));
        labels.append(v(1), LabelSide::Out, e(1, 0, 1));
        let frozen = FrozenLabels::freeze(&labels);
        // Couple order: Lout(1), Lin(0), Lout(3), Lin(2), back to back.
        let packed: Vec<LabelEntry> = [(1, LabelSide::Out), (0, LabelSide::In)]
            .into_iter()
            .chain([(3, LabelSide::Out), (2, LabelSide::In)])
            .flat_map(|(x, side)| labels.side_of(v(x), side).to_vec())
            .collect();
        assert_eq!(frozen.segments[0].as_slice(), packed.as_slice());
        // One span per stored list.
        assert_eq!(frozen.arena_bytes(), 6 * 8 + 4 * 12);
        assert_reads_as(&frozen, &labels);
        // The pairs the couples serve answer as the store does.
        for (s, t) in [(1, 0), (3, 2)] {
            let (s, t) = (v(s), v(t));
            assert_eq!(frozen.dist_count(s, t), labels.dist_count(s, t));
        }
    }

    #[test]
    fn into_buffer_takes_back_only_unshared_segments() {
        let mut labels = sample_labels();
        labels.compact();
        let base = labels.publish();
        let at = base.segments[0].as_ptr();
        labels.append(v(3), LabelSide::Out, e(2, 2, 1));
        let patched = labels.publish();
        // The compaction retires both segments, but snapshots read them:
        // nothing comes back while one does.
        labels.compact();
        let compacted = labels.publish();
        assert_eq!(labels.spare_capacity(), 0);
        drop(base);
        labels.publish();
        assert_eq!(labels.spare_capacity(), 0, "`patched` reads both");
        // Unread, the larger one comes back, and the next compaction
        // refills it in place.
        drop(patched);
        labels.publish();
        assert!(
            labels.spare_capacity() >= 6,
            "the base segment, not the second"
        );
        labels.upsert(v(0), LabelSide::In, e(0, 0, 2));
        labels.compact();
        let refilled = labels.publish();
        assert_eq!(refilled.segments[0].as_ptr(), at);
        assert_reads_as(&refilled, &labels);
        assert_eq!(compacted.in_of(v(0)), &[e(0, 0, 1)], "held snapshots stay");
    }

    #[test]
    fn freeze_into_a_buffer_reuses_it_or_replaces_a_small_one() {
        // A segment too small for the lists is replaced, not grown around
        // its stale contents: after the first compaction by one a quarter
        // larger than the lists, later by one with room for twice the
        // growth since.
        let mut wide = Labels::new(40);
        for i in 0..40 {
            wide.append(v(i), LabelSide::In, e(i, 1, 1));
        }
        wide.compact();
        let grown = wide.publish();
        assert_eq!(grown, FrozenLabels::freeze(&wide));
        assert!(grown.segments[0].capacity() >= 50);
        drop(grown);
        for i in 0..40 {
            wide.append(v(i), LabelSide::Out, e(i, 1, 1));
        }
        wide.compact();
        let regrown = wide.publish();
        assert!(regrown.segments[0].capacity() >= 80 + 2 * 40);
        assert_eq!(regrown, FrozenLabels::freeze(&wide));
        // The first segment came back, too small for the lists now: the
        // next compaction drops it rather than grow it.
        assert!((50..80).contains(&wide.spare_capacity()));
        wide.compact();
        assert_eq!(wide.spare_capacity(), 0);
        assert_eq!(wide.publish(), FrozenLabels::freeze(&wide));
        // The second comes back once unread, and is refilled in place,
        // its stale contents gone.
        let at = regrown.segments[0].as_ptr();
        drop(regrown);
        wide.remove(v(0), LabelSide::In, 0);
        wide.publish();
        assert!(wide.spare_capacity() >= 160);
        wide.compact();
        let refilled = wide.publish();
        assert_eq!(refilled.segments[0].as_ptr(), at);
        assert_eq!(refilled, FrozenLabels::freeze(&wide));
    }

    #[test]
    fn dual_chain_threshold_lists_agree_with_reference() {
        // Both lists long enough for the dual-chain path, dense overlap.
        let a: Vec<LabelEntry> = (0..80)
            .map(|h| e(3 * h, (h % 11) + 1, (h % 5 + 1) as u64))
            .collect();
        let b: Vec<LabelEntry> = (0..90)
            .map(|h| e(2 * h, (h % 7) + 1, (h % 3 + 1) as u64))
            .collect();
        assert!(a.len().min(b.len()) >= DUAL_CHAIN_MIN);
        assert_eq!(intersect_adaptive(&a, &b), intersect(&a, &b));
        assert_eq!(intersect_adaptive(&b, &a), intersect(&a, &b));
    }

    #[test]
    fn refreeze_spans_tracks_mutations() {
        let mut labels = sample_labels();
        labels.compact();
        let frozen = labels.publish();
        assert_eq!(frozen.dead_entries(), 0, "the build's lists sit packed");

        // Same-length change: still copied, since segments are shared.
        labels.upsert(v(1), LabelSide::In, e(2, 9, 9));
        // Growth.
        labels.upsert(v(0), LabelSide::Out, e(1, 2, 2));
        // Shrink to empty: the span narrows, nothing is copied.
        labels.remove(v(3), LabelSide::Out, 1);
        // Brand-new vertex.
        labels.push_vertex();
        labels.append(v(4), LabelSide::In, e(5, 1, 1));

        let patched = labels.publish();
        assert_reads_as(&patched, &labels);
        // Dead space is the old copy of every rewritten list: Lin(1) 2
        // entries, Lout(0) 2, Lout(3) 1 (the new vertex had none).
        assert_eq!(patched.dead_entries(), 5);
        // The second segment holds the copies: Lin(1) 2, Lout(0) 3,
        // Lin(4) 1 — 12 entries in all, over 10 spans.
        assert_eq!(patched.segment_count(), 2);
        assert_eq!(patched.arena_bytes(), 12 * 8 + 10 * 12);
        assert_eq!(patched.dead_fraction(), 5.0 / 12.0);
        assert_eq!(frozen.dead_entries(), 0, "earlier snapshot untouched");
        assert_eq!(frozen.segment_count(), 1, "earlier snapshot untouched");

        // A second publish stacks one more segment (Lin(2) was empty, so
        // nothing new dies).
        labels.upsert(v(2), LabelSide::In, e(0, 1, 1));
        let patched2 = labels.publish();
        assert_reads_as(&patched2, &labels);
        assert_eq!(patched2.dead_entries(), 5);
        assert_eq!(patched2.segment_count(), 3);
    }

    #[test]
    fn refreeze_shares_every_parent_segment_and_leaves_the_parent_alone() {
        let mut labels = sample_labels();
        labels.publish();
        labels.upsert(v(0), LabelSide::Out, e(1, 2, 2));
        let parent = labels.publish();
        let parent_labels = labels.clone();

        labels.upsert(v(1), LabelSide::In, e(2, 9, 9));
        labels.upsert(v(3), LabelSide::Out, e(0, 1, 1));
        let child = labels.publish();

        assert_eq!((parent.segment_count(), child.segment_count()), (2, 3));
        for (seg, (a, b)) in parent.segments.iter().zip(&child.segments).enumerate() {
            assert!(Arc::ptr_eq(a, b), "segment {seg} copied, not shared");
        }
        // Each generation answers for its own point in time.
        assert_reads_as(&parent, &parent_labels);
        assert_reads_as(&child, &labels);
        for i in 0..4 {
            for t in 0..4 {
                let (s, t) = (v(i), v(t));
                assert_eq!(parent.dist_count(s, t), parent_labels.dist_count(s, t));
                assert_eq!(child.dist_count(s, t), labels.dist_count(s, t));
            }
        }
    }

    #[test]
    fn refreeze_with_no_dirt_is_identical() {
        let mut labels = sample_labels();
        let frozen = labels.publish();
        assert_eq!(labels.publish(), frozen);
        assert_eq!(frozen.segment_count(), 1);
        labels.compact();
        let compacted = labels.publish();
        assert_eq!(labels.publish(), compacted);
        assert_reads_as(&compacted, &labels);
    }

    #[test]
    fn trait_query_agrees_between_layouts() {
        let labels = sample_labels();
        let frozen = FrozenLabels::freeze(&labels);
        for s in 0..4 {
            for t in 0..4 {
                let (s, t) = (v(s), v(t));
                assert_eq!(
                    LabelStore::dist_count(&frozen, s, t),
                    labels.dist_count(s, t),
                    "({s}, {t})"
                );
                assert_eq!(LabelStore::dist(&frozen, s, t), labels.dist(s, t));
            }
        }
    }

    #[test]
    fn empty_and_disjoint_lists() {
        assert_eq!(intersect_adaptive(&[], &[]), None);
        assert_eq!(intersect_adaptive(&[e(1, 1, 1)], &[]), None);
        assert_eq!(intersect_adaptive(&[], &[e(1, 1, 1)]), None);
        let a = [e(0, 1, 1), e(2, 1, 1), e(4, 1, 1)];
        let b = [e(1, 1, 1), e(3, 1, 1), e(5, 1, 1)];
        assert_eq!(intersect_adaptive(&a, &b), None);
    }

    #[test]
    fn merge_and_gallop_agree_with_reference_on_skewed_lists() {
        // `long` is every even hub up to 400; `short` hits a few of them.
        let long: Vec<LabelEntry> = (0..200)
            .map(|h| e(2 * h, (h % 9) + 1, (h % 3 + 1) as u64))
            .collect();
        let short = [e(2, 1, 2), e(97, 1, 1), e(200, 2, 5), e(398, 1, 1)];
        assert!(
            long.len() >= GALLOP_SKEW * short.len(),
            "exercises galloping"
        );
        let want = intersect(&short, &long);
        assert_eq!(intersect_adaptive(&short, &long), want);
        assert_eq!(intersect_adaptive(&long, &short), want);
        assert!(want.is_some());
    }

    #[test]
    fn gallop_lower_bound_boundaries() {
        let list: Vec<LabelEntry> = [1u32, 3, 5, 8, 13].iter().map(|&h| e(h, 1, 1)).collect();
        assert_eq!(gallop_lower_bound(&list, 0, 0), 0);
        assert_eq!(gallop_lower_bound(&list, 0, 1), 0);
        assert_eq!(gallop_lower_bound(&list, 0, 2), 1);
        assert_eq!(gallop_lower_bound(&list, 0, 13), 4);
        assert_eq!(gallop_lower_bound(&list, 0, 14), 5);
        assert_eq!(gallop_lower_bound(&list, 3, 5), 3, "start past the key");
        assert_eq!(gallop_lower_bound(&[], 0, 7), 0);
    }

    #[test]
    fn worked_example_2_matches_nested_kernel() {
        // SPCnt(v10, v8) from the paper's Figure 2 (see labels.rs tests).
        let out_v10 = [e(0, 1, 1), e(1, 3, 1)];
        let in_v8 = [e(0, 3, 2), e(1, 1, 1)];
        assert_eq!(
            intersect_adaptive(&out_v10, &in_v8),
            Some(DistCount { dist: 4, count: 3 })
        );
    }

    #[test]
    fn saturating_count_arithmetic_matches() {
        let big = crate::entry::MAX_COUNT;
        let a = [e(0, 1, big), e(1, 1, big)];
        let b = [e(0, 1, big), e(1, 1, big)];
        assert_eq!(intersect_adaptive(&a, &b), intersect(&a, &b));
    }
}
