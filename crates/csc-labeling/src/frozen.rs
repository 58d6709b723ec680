//! Read-optimized frozen label storage and the adaptive intersection
//! kernel.
//!
//! [`Labels`] is built for maintenance: per-vertex `Vec`s that grow,
//! shrink, and splice cheaply. That layout is hostile to the read path —
//! every query chases two `Vec` headers to separately allocated blocks,
//! and entries of the vertices a cycle query touches together (`v_o`'s
//! out-list and `v_i`'s in-list) land far apart on the heap.
//!
//! [`FrozenLabels`] is the serving-side counterpart: a full freeze packs
//! the lists it is given, in the order given, into one contiguous
//! CSR-style segment of [`LabelEntry`]s with one span per list, in one
//! pass over a `Labels`; a list it is not given stays empty in the arena.
//! [`freeze`](FrozenLabels::freeze) gives it every list. The cycle query
//! engine in `csc-core` gives it only the two lists a `SCCnt(v)` query
//! intersects, `v_o`'s out-list then `v_i`'s in-list (`v_i = 2v`,
//! `v_o = 2v + 1` under the bipartite id scheme), so those two slices sit
//! back to back and the arena is about half the store. Once frozen, an
//! arena can also be *extended* instead of rebuilt:
//! [`refreeze_spans`](FrozenLabels::refreeze_spans) copies the lists a
//! batch of updates dirtied into one new delta segment and shares every
//! existing segment, immutable and reference-counted, with the arena it
//! came from. A snapshot republication therefore costs the span table
//! plus the dirtied lists — proportional to the update, not the index —
//! and snapshots that readers still hold share memory with the new one.
//! A retired arena can hand its largest unshared segment back
//! ([`into_buffer`](FrozenLabels::into_buffer)) for the next full freeze
//! to refill ([`freeze_ordered_into`](FrozenLabels::freeze_ordered_into)),
//! so a compaction rewrites pages that are already resident.
//!
//! Both layouts answer queries through the [`LabelStore`] trait, whose
//! default `dist_count` uses [`intersect_adaptive`]. The kernel picks a
//! strategy by list shape:
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
use crate::labels::{label_slot, slot_list, DistCount, LabelSide, Labels};
use csc_graph::VertexId;
use std::sync::Arc;

/// Length ratio at which [`intersect_adaptive`] switches from the merge to
/// the galloping strategy.
pub const GALLOP_SKEW: usize = 8;

/// Minimum length of the *shorter* list before the dual-chain merge is
/// worth its fixed costs; below this the single-chain merge runs.
pub const DUAL_CHAIN_MIN: usize = 32;

/// Common read interface over label storage layouts.
///
/// [`Labels`] (mutable, nested) and [`FrozenLabels`] (immutable, flat)
/// implement this identically; anything that only reads labels — query
/// evaluation, snapshots, analytics sweeps — should take a `LabelStore`
/// instead of a concrete layout.
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

/// An immutable label arena frozen from a [`Labels`]: a short list of
/// shared, reference-counted segments of [`LabelEntry`]s plus one span
/// per list.
///
/// Per slot (vertex × side) a span addresses the list's slice inside one
/// segment. Segment 0 holds a full freeze, its lists packed back to back:
/// [`freeze`] packs every list, each vertex's in-list then out-list;
/// [`freeze_ordered`] packs only the lists the caller names, in its order,
/// so the lists a query co-accesses sit back to back and the lists no
/// query reads take no space (the cycle query engine in `csc-core` packs
/// `Lout(v_o)` then `Lin(v_i)` per vertex, turning every `SCCnt`
/// evaluation into one forward streaming read). Each [`refreeze_spans`]
/// adds one delta segment holding the lists it re-gathered. A segment is
/// never written after it is built, so arena generations share them: a
/// clone copies the span table and bumps one reference count per segment.
/// Freezing is `O(packed entries)`; queries allocate nothing and resolve a
/// list through its span and the segment table.
///
/// [`freeze`]: FrozenLabels::freeze
/// [`freeze_ordered`]: FrozenLabels::freeze_ordered
/// [`refreeze_spans`]: FrozenLabels::refreeze_spans
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FrozenLabels {
    /// Segment 0 is the last full freeze, every later one the delta of
    /// one [`refreeze_spans`](Self::refreeze_spans).
    segments: Vec<Arc<Vec<LabelEntry>>>,
    /// Indexed by slot `2v` (in-list of `v`) / `2v + 1` (out-list of `v`)
    /// — the same encoding as [`crate::labels::label_slot`].
    spans: Vec<Span>,
    /// Segment entries no span points at anymore. [`refreeze_spans`]
    /// strands the old copy of every list it re-gathers; the count drives
    /// the caller's compaction policy ([`Self::dead_fraction`]).
    ///
    /// [`refreeze_spans`]: Self::refreeze_spans
    dead: usize,
}

/// Where one label list lives: `segments[seg][lo..hi]`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Span {
    seg: u32,
    lo: u32,
    hi: u32,
}

impl Span {
    /// An empty list. Segment 0 always exists, so it resolves to `&[]`.
    const EMPTY: Span = Span {
        seg: 0,
        lo: 0,
        hi: 0,
    };

    /// A dirty slot [`FrozenLabels::refreeze_spans`] has counted dead but
    /// not re-packed yet; no segment has this number.
    const PENDING: Span = Span {
        seg: u32::MAX,
        lo: 0,
        hi: 0,
    };

    #[inline]
    fn len(self) -> usize {
        (self.hi - self.lo) as usize
    }
}

/// Copies the lists of `slots` from `labels` back to back into a new
/// segment numbered `seg`, built in the allocation of `segment` (emptied
/// first), and points their spans at it (an empty list gets
/// [`Span::EMPTY`]). A `segment` too small for the lists is replaced by an
/// exact allocation rather than grown, since growing it would copy its
/// stale contents.
///
/// # Panics
///
/// Panics if the segment would hold `>= 2^32` entries, beyond the `u32`
/// span encoding (at 8 bytes per entry, a 32 GiB segment).
fn pack(
    labels: &Labels,
    slots: &[u32],
    seg: u32,
    spans: &mut [Span],
    mut segment: Vec<LabelEntry>,
    headroom: bool,
) -> Arc<Vec<LabelEntry>> {
    let list = |slot: u32| {
        let (v, side) = slot_list(slot);
        labels.side_of(v, side)
    };
    let total: usize = slots.iter().map(|&slot| list(slot).len()).sum();
    assert!(
        u32::try_from(total).is_ok(),
        "label segment of {total} entries exceeds u32 spans"
    );
    // Sized up front and moved into the `Arc`: each entry is copied once.
    // A buffer too small is replaced rather than grown, since growing it
    // would copy its stale contents; with `headroom`, by one an eighth
    // larger than the lists.
    segment.clear();
    if segment.capacity() < total {
        segment = Vec::with_capacity(if headroom { total + total / 8 } else { total });
    }
    for &slot in slots {
        let lo = segment.len() as u32;
        segment.extend_from_slice(list(slot));
        let hi = segment.len() as u32;
        spans[slot as usize] = if lo == hi {
            Span::EMPTY
        } else {
            Span { seg, lo, hi }
        };
    }
    Arc::new(segment)
}

impl FrozenLabels {
    /// Freezes a snapshot of every list of `labels` in natural order (per
    /// vertex: in-list, then out-list).
    pub fn freeze(labels: &Labels) -> Self {
        let slots = 0..2 * Labels::vertex_count(labels) as u32;
        Self::freeze_ordered(labels, slots.map(slot_list))
    }

    /// Freezes a snapshot of exactly the `lists` named, packed into one
    /// segment in the given order; every list not named is empty in the
    /// arena. Lists a query intersects together should be adjacent here —
    /// the segment then serves that query as a single forward stream.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range vertex, on a list named twice, or if the
    /// named lists hold `>= 2^32` entries (beyond the `u32` span encoding
    /// — at 8 bytes per entry that is a 32 GiB arena).
    pub fn freeze_ordered(
        labels: &Labels,
        lists: impl IntoIterator<Item = (VertexId, LabelSide)>,
    ) -> Self {
        Self::freeze_ordered_into(labels, lists, Vec::new())
    }

    /// [`freeze_ordered`](Self::freeze_ordered) into the allocation of
    /// `buffer` (emptied first). A buffer that
    /// [`into_buffer`](Self::into_buffer) took back from a retired arena
    /// has its pages resident already, so the copy faults in no fresh
    /// arena's worth of them. A buffer too small for the named lists, an
    /// empty one included, is replaced rather than grown, since growing it
    /// would copy its stale contents: by an allocation an eighth larger
    /// than the lists, so that a growing index still fits in it when a
    /// later full freeze gets it back.
    ///
    /// # Panics
    ///
    /// As [`freeze_ordered`](Self::freeze_ordered).
    pub fn freeze_ordered_into(
        labels: &Labels,
        lists: impl IntoIterator<Item = (VertexId, LabelSide)>,
        buffer: Vec<LabelEntry>,
    ) -> Self {
        let n = Labels::vertex_count(labels);
        let mut placed = vec![false; 2 * n];
        let mut order = Vec::with_capacity(2 * n);
        for (v, side) in lists {
            assert!(v.index() < n, "freeze order names out-of-range {v:?}");
            let slot = label_slot(v, side);
            assert!(
                !std::mem::replace(&mut placed[slot as usize], true),
                "freeze order mentions {v:?}/{side:?} twice"
            );
            order.push(slot);
        }
        let mut spans = vec![Span::EMPTY; 2 * n];
        let segment = pack(labels, &order, 0, &mut spans, buffer, true);
        FrozenLabels {
            segments: vec![segment],
            spans,
            dead: 0,
        }
    }

    /// Takes back the allocation of the largest segment no other arena
    /// shares, emptied, for a later
    /// [`freeze_ordered_into`](Self::freeze_ordered_into); `None` when
    /// every segment is still shared. The other segments are dropped.
    pub fn into_buffer(self) -> Option<Vec<LabelEntry>> {
        let mut buffer = self
            .segments
            .into_iter()
            .filter_map(|segment| Arc::try_unwrap(segment).ok())
            .max_by_key(Vec::capacity)?;
        buffer.clear();
        Some(buffer)
    }

    /// Produces a new arena equal to re-freezing `labels`, given the slots
    /// dirtied since `self` was frozen (see
    /// [`Labels::take_dirty`](crate::Labels::take_dirty)). The new arena
    /// shares every segment of `self` and adds one delta segment holding
    /// the dirty lists, so it costs one copy of the span table plus the
    /// changed entries, whatever the arena's size. `self` is left as it
    /// was, for the readers that still hold it.
    ///
    /// Every dirty list moves to the delta, even one whose length did not
    /// change (a shared segment is never written), and its old copy
    /// becomes dead space. Dead space and segments accumulate across
    /// generations — callers should fall back to a full
    /// [`freeze`](Self::freeze) / [`freeze_ordered`](Self::freeze_ordered)
    /// once [`dead_fraction`](Self::dead_fraction) or
    /// [`segment_count`](Self::segment_count) crosses their threshold,
    /// which also restores the intended list layout. An arena that holds
    /// only some of the lists stays so only if `dirty_slots` names only
    /// those: the slots passed are the lists re-gathered.
    ///
    /// # Panics
    ///
    /// Panics if a slot is out of range for `labels`, if the same slot is
    /// listed twice, or if the delta would exceed `u32` spans.
    pub fn refreeze_spans(&self, labels: &Labels, dirty_slots: &[u32]) -> Self {
        let n = Labels::vertex_count(labels);
        assert!(
            self.spans.len() <= 2 * n,
            "labels cover fewer vertices than the frozen arena"
        );
        let mut spans = Vec::with_capacity(2 * n);
        spans.extend_from_slice(&self.spans);
        // Vertices added since the freeze: empty placeholder spans (their
        // slots are dirty, so real content lands below).
        spans.resize(2 * n, Span::EMPTY);
        let mut dead = self.dead;
        for &slot in dirty_slots {
            let span = spans
                .get_mut(slot as usize)
                .unwrap_or_else(|| panic!("dirty slot {slot} out of range"));
            assert!(*span != Span::PENDING, "dirty slot {slot} listed twice");
            dead += span.len();
            *span = Span::PENDING;
        }
        let mut segments = self.segments.clone();
        let seg = u32::try_from(segments.len()).expect("segment count exceeds u32");
        let delta = pack(labels, dirty_slots, seg, &mut spans, Vec::new(), false);
        if !delta.is_empty() {
            segments.push(delta);
        }
        FrozenLabels {
            segments,
            spans,
            dead,
        }
    }

    /// The `(delta, dead, total)` entry counts [`refreeze_spans`] would
    /// produce for this dirty set: the entries its delta segment copies,
    /// and the dead and total entries of the arena it returns (every
    /// dirty list's old copy turns dead and its new copy is appended).
    /// Computed in `O(dirty)` without copying anything, so callers can
    /// decide to compact (full freeze) *instead of* building a delta they
    /// would throw away.
    ///
    /// [`refreeze_spans`]: Self::refreeze_spans
    pub fn projected_refreeze(
        &self,
        labels: &Labels,
        dirty_slots: &[u32],
    ) -> (usize, usize, usize) {
        let mut delta = 0;
        let mut dead = self.dead;
        for &slot in dirty_slots {
            let (v, side) = slot_list(slot);
            dead += self.spans.get(slot as usize).map_or(0, |span| span.len());
            delta += labels.side_of(v, side).len();
        }
        (delta, dead, self.arena_entries() + delta)
    }

    /// Segment entries stranded by [`refreeze_spans`](Self::refreeze_spans)
    /// relocations (no span addresses them).
    pub fn dead_entries(&self) -> usize {
        self.dead
    }

    /// Fraction of the arena that is dead space, in `0.0..=1.0`.
    pub fn dead_fraction(&self) -> f64 {
        let total = self.arena_entries();
        if total == 0 {
            0.0
        } else {
            self.dead as f64 / total as f64
        }
    }

    /// Number of segments: 1 after a full freeze, plus one per non-empty
    /// [`refreeze_spans`](Self::refreeze_spans) since.
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Index size in bytes of the frozen arena (segment entries + spans),
    /// including dead space awaiting compaction. Segments shared with
    /// other generations count in full.
    pub fn arena_bytes(&self) -> usize {
        self.arena_entries() * std::mem::size_of::<LabelEntry>()
            + self.spans.len() * std::mem::size_of::<Span>()
    }

    /// Entries across all segments, dead ones included.
    fn arena_entries(&self) -> usize {
        self.segments.iter().map(|segment| segment.len()).sum()
    }

    #[inline]
    fn slice(&self, slot: usize) -> &[LabelEntry] {
        let Span { seg, lo, hi } = self.spans[slot];
        &self.segments[seg as usize][lo as usize..hi as usize]
    }
}

impl LabelStore for FrozenLabels {
    #[inline]
    fn vertex_count(&self) -> usize {
        self.spans.len() / 2
    }

    #[inline]
    fn in_of(&self, v: VertexId) -> &[LabelEntry] {
        self.slice(2 * v.index())
    }

    #[inline]
    fn out_of(&self, v: VertexId) -> &[LabelEntry] {
        self.slice(2 * v.index() + 1)
    }

    #[inline]
    fn total_entries(&self) -> usize {
        self.arena_entries() - self.dead
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
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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

    #[test]
    fn freeze_preserves_every_slice() {
        let labels = sample_labels();
        let frozen = FrozenLabels::freeze(&labels);
        assert_eq!(LabelStore::vertex_count(&frozen), 4);
        assert_eq!(LabelStore::total_entries(&frozen), 6);
        for i in 0..4 {
            assert_eq!(LabelStore::in_of(&frozen, v(i)), labels.in_of(v(i)));
            assert_eq!(LabelStore::out_of(&frozen, v(i)), labels.out_of(v(i)));
            for side in [LabelSide::In, LabelSide::Out] {
                assert_eq!(
                    LabelStore::side_of(&frozen, v(i), side),
                    labels.side_of(v(i), side)
                );
            }
        }
        // One segment of 6 entries, 8 spans of (segment, lo, hi).
        assert_eq!(frozen.segment_count(), 1);
        assert_eq!(frozen.arena_bytes(), 6 * 8 + 8 * 12);
    }

    #[test]
    fn freeze_ordered_places_hot_lists_first_and_answers_identically() {
        let labels = sample_labels();
        // Cycle-style pairing: out-list of 2v+1 next to in-list of 2v.
        let pairs = (0..2u32).flat_map(|v| {
            [
                (VertexId(2 * v + 1), LabelSide::Out),
                (VertexId(2 * v), LabelSide::In),
            ]
        });
        let frozen = FrozenLabels::freeze_ordered(&labels, pairs.clone());
        // Exactly the named lists, back to back in the order named:
        // Lout(1) is empty, Lin(0) 1 entry, Lout(3) 1, Lin(2) empty.
        let packed: Vec<LabelEntry> = pairs
            .clone()
            .flat_map(|(x, side)| labels.side_of(x, side).to_vec())
            .collect();
        assert_eq!(frozen.segments[0].as_slice(), packed.as_slice());
        assert_eq!(LabelStore::total_entries(&frozen), 2);
        for i in 0..4 {
            for side in [LabelSide::In, LabelSide::Out] {
                let named = pairs.clone().any(|list| list == (v(i), side));
                let want = if named {
                    labels.side_of(v(i), side)
                } else {
                    &[]
                };
                assert_eq!(frozen.side_of(v(i), side), want, "{i}/{side:?}");
            }
        }
        // The pairs the named lists serve answer as the store does.
        for i in 0..2 {
            let (s, t) = (v(2 * i + 1), v(2 * i));
            assert_eq!(
                LabelStore::dist_count(&frozen, s, t),
                labels.dist_count(s, t)
            );
        }
    }

    #[test]
    #[should_panic(expected = "twice")]
    fn freeze_ordered_rejects_duplicates() {
        let labels = sample_labels();
        let _ =
            FrozenLabels::freeze_ordered(&labels, [(v(0), LabelSide::In), (v(0), LabelSide::In)]);
    }

    #[test]
    fn into_buffer_takes_back_only_unshared_segments() {
        let mut labels = sample_labels();
        let base = FrozenLabels::freeze(&labels);
        labels.take_dirty();
        labels.append(v(3), LabelSide::Out, e(2, 2, 1));
        let dirty = labels.take_dirty();
        let patched = base.refreeze_spans(&labels, &dirty);
        // Every segment of a clone is shared with its original.
        assert_eq!(base.clone().into_buffer(), None);
        assert_eq!(patched.clone().into_buffer(), None);
        // `patched` still shares the base segment, so `base` owns nothing.
        assert_eq!(base.into_buffer(), None);
        // Now `patched` alone holds both: the larger one comes back, empty.
        let buffer = patched.into_buffer().expect("unshared segments");
        assert!(buffer.is_empty());
        assert!(buffer.capacity() >= 6, "the base segment, not the delta");
    }

    #[test]
    fn freeze_into_a_buffer_reuses_it_or_replaces_a_small_one() {
        let labels = sample_labels();
        let plain = FrozenLabels::freeze_ordered(&labels, [(v(3), LabelSide::Out)]);
        // A large enough buffer is refilled in place, stale contents gone.
        let stale = vec![e(9, 9, 9); 64];
        let at = stale.as_ptr();
        let refilled = FrozenLabels::freeze_ordered_into(&labels, [(v(3), LabelSide::Out)], stale);
        assert_eq!(refilled.segments[0].as_ptr(), at);
        assert_eq!(refilled, plain);
        // A small one is replaced, not grown around its stale contents,
        // by one with an eighth to spare.
        let mut wide = Labels::new(40);
        for i in 0..40 {
            wide.append(v(i), LabelSide::In, e(i, 1, 1));
        }
        let ins = (0..40).map(|i| (v(i), LabelSide::In));
        let grown = FrozenLabels::freeze_ordered_into(&wide, ins, vec![e(9, 9, 9); 2]);
        assert_eq!(grown, FrozenLabels::freeze(&wide));
        assert!(grown.segments[0].capacity() >= 45);
        assert_eq!(
            grown.arena_bytes(),
            FrozenLabels::freeze(&wide).arena_bytes()
        );
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
        labels.take_dirty();
        let frozen = FrozenLabels::freeze(&labels);

        // Same-length change: still moves, since segments are shared.
        labels.upsert(v(1), LabelSide::In, e(2, 9, 9));
        // Growth.
        labels.upsert(v(0), LabelSide::Out, e(1, 2, 2));
        // Shrink to empty.
        labels.remove(v(3), LabelSide::Out, 1);
        // Brand-new vertex.
        labels.push_vertex();
        labels.append(v(4), LabelSide::In, e(5, 1, 1));

        let dirty = labels.take_dirty();
        let patched = frozen.refreeze_spans(&labels, &dirty);
        let full = FrozenLabels::freeze(&labels);
        assert_eq!(LabelStore::vertex_count(&patched), 5);
        for i in 0..5 {
            assert_eq!(
                LabelStore::in_of(&patched, v(i)),
                LabelStore::in_of(&full, v(i)),
                "in-list of {i}"
            );
            assert_eq!(
                LabelStore::out_of(&patched, v(i)),
                LabelStore::out_of(&full, v(i)),
                "out-list of {i}"
            );
        }
        // Logical size matches; dead space is the old copy of every
        // dirtied list: Lin(1) 2 entries, Lout(0) 2, Lout(3) 1 (the new
        // vertex had none).
        assert_eq!(
            LabelStore::total_entries(&patched),
            LabelStore::total_entries(&full)
        );
        assert_eq!(patched.dead_entries(), 5);
        // One delta segment holds the re-gathered lists: Lin(1) 2,
        // Lout(0) 3, Lin(4) 1 — 12 entries in all, over 10 spans.
        assert_eq!(patched.segment_count(), 2);
        assert_eq!(patched.arena_bytes(), 12 * 8 + 10 * 12);
        assert_eq!(patched.dead_fraction(), 5.0 / 12.0);
        assert_eq!(frozen.dead_entries(), 0, "source arena untouched");
        assert_eq!(frozen.segment_count(), 1, "source arena untouched");

        // A second generation stacks one more delta (Lin(2) was empty,
        // so nothing new dies).
        labels.upsert(v(2), LabelSide::In, e(0, 1, 1));
        let dirty2 = labels.take_dirty();
        let patched2 = patched.refreeze_spans(&labels, &dirty2);
        assert_eq!(
            LabelStore::in_of(&patched2, v(2)),
            labels.in_of(v(2)),
            "second-generation delta"
        );
        assert_eq!(patched2.dead_entries(), 5);
        assert_eq!(patched2.segment_count(), 3);
    }

    #[test]
    fn refreeze_shares_every_parent_segment_and_leaves_the_parent_alone() {
        let mut labels = sample_labels();
        labels.take_dirty();
        let base = FrozenLabels::freeze(&labels);
        labels.upsert(v(0), LabelSide::Out, e(1, 2, 2));
        let dirty = labels.take_dirty();
        let parent = base.refreeze_spans(&labels, &dirty);
        let parent_labels = labels.clone();

        labels.upsert(v(1), LabelSide::In, e(2, 9, 9));
        labels.remove(v(3), LabelSide::Out, 1);
        let dirty = labels.take_dirty();
        let child = parent.refreeze_spans(&labels, &dirty);

        assert_eq!((parent.segment_count(), child.segment_count()), (2, 3));
        for (seg, (a, b)) in parent.segments.iter().zip(&child.segments).enumerate() {
            assert!(Arc::ptr_eq(a, b), "segment {seg} copied, not shared");
        }
        // Each generation answers for its own point in time.
        let (then, now) = (
            FrozenLabels::freeze(&parent_labels),
            FrozenLabels::freeze(&labels),
        );
        for i in 0..4 {
            for side in [LabelSide::In, LabelSide::Out] {
                assert_eq!(parent.side_of(v(i), side), then.side_of(v(i), side));
                assert_eq!(child.side_of(v(i), side), now.side_of(v(i), side));
            }
            for t in 0..4 {
                assert_eq!(parent.dist_count(v(i), v(t)), then.dist_count(v(i), v(t)));
                assert_eq!(child.dist_count(v(i), v(t)), now.dist_count(v(i), v(t)));
            }
        }
    }

    /// Random upserts, removals and the odd new vertex.
    fn scramble(labels: &mut Labels, rng: &mut StdRng, edits: usize) {
        for _ in 0..edits {
            if rng.gen_bool(0.05) {
                labels.push_vertex();
                continue;
            }
            let v = v(rng.gen_range(0..labels.vertex_count() as u32));
            let side = if rng.gen_bool(0.5) {
                LabelSide::In
            } else {
                LabelSide::Out
            };
            let hub = rng.gen_range(0..16u32);
            if rng.gen_bool(0.3) {
                labels.remove(v, side, hub);
            } else {
                let entry = e(hub, rng.gen_range(1..9u32), rng.gen_range(1..5u64));
                labels.upsert(v, side, entry);
            }
        }
    }

    #[test]
    fn projected_refreeze_matches_the_refrozen_arena() {
        let mut rng = StdRng::seed_from_u64(0x5e9);
        for round in 0..64 {
            let mut labels = Labels::new(6);
            scramble(&mut labels, &mut rng, 48);
            labels.take_dirty();
            let mut frozen = FrozenLabels::freeze(&labels);
            for generation in 0..4 {
                let edits = rng.gen_range(0..16usize);
                scramble(&mut labels, &mut rng, edits);
                let dirty = labels.take_dirty();
                let projected = frozen.projected_refreeze(&labels, &dirty);
                let before = frozen.arena_entries();
                frozen = frozen.refreeze_spans(&labels, &dirty);
                let (dead, live) = (frozen.dead_entries(), frozen.total_entries());
                assert_eq!(
                    projected,
                    (dead + live - before, dead, dead + live),
                    "round {round}, generation {generation}"
                );
            }
        }
    }

    #[test]
    fn refreeze_with_no_dirt_is_identical() {
        let labels = sample_labels();
        let frozen = FrozenLabels::freeze(&labels);
        assert_eq!(frozen.refreeze_spans(&labels, &[]), frozen);
    }

    #[test]
    #[should_panic(expected = "listed twice")]
    fn refreeze_rejects_duplicate_slots() {
        let labels = sample_labels();
        let frozen = FrozenLabels::freeze(&labels);
        let _ = frozen.refreeze_spans(&labels, &[0, 0]);
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
