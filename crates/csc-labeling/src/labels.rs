//! Label storage and 2-hop query evaluation.
//!
//! [`Labels`] holds, for every vertex, an in-label list (`L_in`: distances
//! *from* hubs) and an out-label list (`L_out`: distances *to* hubs), each
//! sorted by hub rank. The query primitives implement the paper's
//! Equations (1)–(2): a sorted two-pointer intersection that tracks the
//! minimum combined distance and sums count products at that minimum.
//!
//! Every mutation additionally stamps the touched list into a *dirty-slot*
//! set ([`Labels::take_dirty`]), which is what lets snapshot publication
//! copy only the lists an update batch actually changed into a new arena
//! segment (see
//! [`FrozenLabels::refreeze_spans`](crate::FrozenLabels::refreeze_spans))
//! instead of re-walking or copying the whole store.

use crate::entry::{EntryOverflow, LabelEntry};
use csc_graph::VertexId;

/// Slot id of the `(vertex, side)` label list: `2v` for the in-list,
/// `2v + 1` for the out-list. The same encoding addresses spans inside
/// [`FrozenLabels`](crate::FrozenLabels).
#[inline]
pub fn label_slot(v: VertexId, side: LabelSide) -> u32 {
    2 * v.0 + u32::from(side == LabelSide::Out)
}

/// Inverse of [`label_slot`].
#[inline]
pub fn slot_list(slot: u32) -> (VertexId, LabelSide) {
    let side = if slot.is_multiple_of(2) {
        LabelSide::In
    } else {
        LabelSide::Out
    };
    (VertexId(slot / 2), side)
}

/// Which side of a vertex's labels.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum LabelSide {
    /// In-labels: entries `(h, sd(h, v), c)` — paths from the hub to `v`.
    In,
    /// Out-labels: entries `(h, sd(v, h), c)` — paths from `v` to the hub.
    Out,
}

impl LabelSide {
    /// The opposite side.
    #[inline]
    pub fn flip(self) -> LabelSide {
        match self {
            LabelSide::In => LabelSide::Out,
            LabelSide::Out => LabelSide::In,
        }
    }
}

/// A distance/count pair returned by label queries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DistCount {
    /// Shortest distance.
    pub dist: u32,
    /// Number of shortest paths (saturating).
    pub count: u64,
}

/// Per-vertex in/out label lists, sorted by hub rank.
#[derive(Clone, Debug, Default)]
pub struct Labels {
    in_labels: Vec<Vec<LabelEntry>>,
    out_labels: Vec<Vec<LabelEntry>>,
    /// Maintained by every mutation (`[0]` = in side, `[1]` = out side) so
    /// [`Labels::total_entries`] and the per-side counts feeding
    /// `IndexHealth` — read on each `UpdateReport` — stay O(1) instead of
    /// re-summing `2n` vectors.
    side_count: [usize; 2],
    dirty: DirtySlots,
}

#[inline]
fn side_ix(side: LabelSide) -> usize {
    usize::from(side == LabelSide::Out)
}

/// The set of label-list slots mutated since the last drain: a stamp
/// bitmap for O(1) dedup plus an insertion-ordered slot list so draining
/// costs O(dirty), not O(n).
#[derive(Clone, Debug, Default)]
struct DirtySlots {
    stamped: Vec<bool>,
    slots: Vec<u32>,
}

impl DirtySlots {
    #[inline]
    fn mark(&mut self, slot: u32) {
        let i = slot as usize;
        if i >= self.stamped.len() {
            self.stamped.resize(i + 1, false);
        }
        if !self.stamped[i] {
            self.stamped[i] = true;
            self.slots.push(slot);
        }
    }

    fn take(&mut self) -> Vec<u32> {
        for &s in &self.slots {
            self.stamped[s as usize] = false;
        }
        std::mem::take(&mut self.slots)
    }
}

/// Equality is over the stored label lists only; the dirty-slot tracking
/// is publication bookkeeping, not index state (two stores that went
/// through different mutation histories but hold the same entries are
/// equal).
impl PartialEq for Labels {
    fn eq(&self, other: &Self) -> bool {
        self.in_labels == other.in_labels && self.out_labels == other.out_labels
    }
}

impl Eq for Labels {}

impl Labels {
    /// Creates empty label lists for `n` vertices.
    pub fn new(n: usize) -> Self {
        Labels {
            in_labels: vec![Vec::new(); n],
            out_labels: vec![Vec::new(); n],
            side_count: [0, 0],
            dirty: DirtySlots::default(),
        }
    }

    /// Number of vertices covered.
    #[inline]
    pub fn vertex_count(&self) -> usize {
        self.in_labels.len()
    }

    /// Grows the structure to cover one more vertex (dynamic graphs).
    ///
    /// The fresh (empty) lists count as dirty: an incremental re-freeze
    /// must learn about the new slots even if no entry lands in them.
    pub fn push_vertex(&mut self) {
        let v = VertexId(self.in_labels.len() as u32);
        self.in_labels.push(Vec::new());
        self.out_labels.push(Vec::new());
        self.dirty.mark(label_slot(v, LabelSide::In));
        self.dirty.mark(label_slot(v, LabelSide::Out));
    }

    /// Drains the set of label-list slots (see [`label_slot`]) mutated
    /// since the previous drain (or construction), in first-touch order.
    ///
    /// Snapshot publication uses this to re-freeze only the changed spans;
    /// anything else that consumes a full freeze should drain and discard
    /// so the set doesn't carry stale history forward.
    pub fn take_dirty(&mut self) -> Vec<u32> {
        self.dirty.take()
    }

    /// Number of distinct label lists mutated since the last drain.
    pub fn dirty_len(&self) -> usize {
        self.dirty.slots.len()
    }

    /// The in-label list of `v`.
    #[inline]
    pub fn in_of(&self, v: VertexId) -> &[LabelEntry] {
        &self.in_labels[v.index()]
    }

    /// The out-label list of `v`.
    #[inline]
    pub fn out_of(&self, v: VertexId) -> &[LabelEntry] {
        &self.out_labels[v.index()]
    }

    /// The label list of `v` on `side`.
    #[inline]
    pub fn side_of(&self, v: VertexId, side: LabelSide) -> &[LabelEntry] {
        match side {
            LabelSide::In => self.in_of(v),
            LabelSide::Out => self.out_of(v),
        }
    }

    fn side_mut(&mut self, v: VertexId, side: LabelSide) -> &mut Vec<LabelEntry> {
        match side {
            LabelSide::In => &mut self.in_labels[v.index()],
            LabelSide::Out => &mut self.out_labels[v.index()],
        }
    }

    /// Appends an entry whose hub rank is strictly greater than every
    /// existing entry's — the hot path during static construction, where
    /// hubs are processed in descending rank order.
    ///
    /// Debug builds assert the ordering invariant.
    #[inline]
    pub fn append(&mut self, v: VertexId, side: LabelSide, entry: LabelEntry) {
        let list = self.side_mut(v, side);
        debug_assert!(
            list.last()
                .is_none_or(|last| last.hub_rank() < entry.hub_rank()),
            "append would break hub-rank order at {v:?}"
        );
        list.push(entry);
        self.side_count[side_ix(side)] += 1;
        self.dirty.mark(label_slot(v, side));
    }

    /// The bulk form of [`append`](Self::append): appends the entries
    /// `entries` yields, in strictly increasing hub-rank order and all
    /// above the list's current last entry, growing the list once by the
    /// iterator's length. The first `Err` stops it and is returned, the
    /// list left as it was, so a caller can check each entry as it is
    /// installed (checkpoint decoding installs each list this way).
    /// Counts and dirty marks are kept as `append` keeps them; an empty
    /// `entries` changes nothing.
    ///
    /// Debug builds assert the ordering invariant.
    pub fn try_extend_sorted<E>(
        &mut self,
        v: VertexId,
        side: LabelSide,
        entries: impl ExactSizeIterator<Item = Result<LabelEntry, E>>,
    ) -> Result<(), E> {
        let list = self.side_mut(v, side);
        let before = list.len();
        list.reserve_exact(entries.len());
        for entry in entries {
            match entry {
                Ok(entry) => list.push(entry),
                Err(e) => {
                    list.truncate(before);
                    return Err(e);
                }
            }
        }
        debug_assert!(
            list[before.saturating_sub(1)..]
                .windows(2)
                .all(|w| w[0].hub_rank() < w[1].hub_rank()),
            "try_extend_sorted would break hub-rank order at {v:?}"
        );
        let added = list.len() - before;
        if added > 0 {
            self.side_count[side_ix(side)] += added;
            self.dirty.mark(label_slot(v, side));
        }
        Ok(())
    }

    /// Inserts or replaces the entry for `entry.hub_rank()` at `v`,
    /// keeping the list sorted. Returns the previous entry, if any.
    /// This is the dynamic-maintenance path (`UPDATE_LABEL`).
    pub fn upsert(
        &mut self,
        v: VertexId,
        side: LabelSide,
        entry: LabelEntry,
    ) -> Option<LabelEntry> {
        let list = self.side_mut(v, side);
        let previous = match list.binary_search_by_key(&entry.hub_rank(), |e| e.hub_rank()) {
            Ok(pos) => Some(std::mem::replace(&mut list[pos], entry)),
            Err(pos) => {
                list.insert(pos, entry);
                self.side_count[side_ix(side)] += 1;
                None
            }
        };
        self.dirty.mark(label_slot(v, side));
        previous
    }

    /// Looks up the entry with hub rank `hub_rank` at `v`, if present.
    #[inline]
    pub fn entry_for(&self, v: VertexId, side: LabelSide, hub_rank: u32) -> Option<LabelEntry> {
        let list = self.side_of(v, side);
        list.binary_search_by_key(&hub_rank, |e| e.hub_rank())
            .ok()
            .map(|pos| list[pos])
    }

    /// Removes the entry with hub rank `hub_rank` at `v`. Returns it.
    pub fn remove(&mut self, v: VertexId, side: LabelSide, hub_rank: u32) -> Option<LabelEntry> {
        let list = self.side_mut(v, side);
        match list.binary_search_by_key(&hub_rank, |e| e.hub_rank()) {
            Ok(pos) => {
                let removed = list.remove(pos);
                self.side_count[side_ix(side)] -= 1;
                self.dirty.mark(label_slot(v, side));
                Some(removed)
            }
            Err(_) => None,
        }
    }

    /// Removes entries of `v`'s `side` list for which `pred` returns true,
    /// returning the removed entries.
    pub fn drain_matching(
        &mut self,
        v: VertexId,
        side: LabelSide,
        mut pred: impl FnMut(LabelEntry) -> bool,
    ) -> Vec<LabelEntry> {
        let list = self.side_mut(v, side);
        let mut removed = Vec::new();
        list.retain(|&e| {
            if pred(e) {
                removed.push(e);
                false
            } else {
                true
            }
        });
        self.side_count[side_ix(side)] -= removed.len();
        if !removed.is_empty() {
            self.dirty.mark(label_slot(v, side));
        }
        removed
    }

    /// `SPCnt(s, t)` over the index: the shortest `s ~> t` distance via any
    /// common hub and the total number of such shortest paths
    /// (Equations (1)–(2)). `None` when no common hub connects the pair.
    pub fn dist_count(&self, s: VertexId, t: VertexId) -> Option<DistCount> {
        intersect(self.out_of(s), self.in_of(t))
    }

    /// The shortest `s ~> t` distance via the index, if any.
    pub fn dist(&self, s: VertexId, t: VertexId) -> Option<u32> {
        self.dist_count(s, t).map(|dc| dc.dist)
    }

    /// Total number of stored label entries. O(1): maintained by every
    /// mutation rather than re-summed per call (this runs inside every
    /// `UpdateReport` on the update hot path).
    #[inline]
    pub fn total_entries(&self) -> usize {
        debug_assert_eq!(
            [self.side_count[0], self.side_count[1]],
            self.recount_entries()
        );
        self.side_count[0] + self.side_count[1]
    }

    /// Number of stored entries on `side` across all vertices. O(1):
    /// maintained alongside [`total_entries`](Self::total_entries); feeds
    /// the per-side drift statistics of `IndexHealth`.
    #[inline]
    pub fn side_entries(&self, side: LabelSide) -> usize {
        self.side_count[side_ix(side)]
    }

    /// Recomputes the per-side entry totals from the lists (O(n) ground
    /// truth for the maintained counters; used by `validate_sorted` and
    /// debug assertions).
    fn recount_entries(&self) -> [usize; 2] {
        let ins: usize = self.in_labels.iter().map(Vec::len).sum();
        let outs: usize = self.out_labels.iter().map(Vec::len).sum();
        [ins, outs]
    }

    /// Index size in bytes under the paper's 64-bit-per-entry encoding.
    pub fn entry_bytes(&self) -> usize {
        self.total_entries() * std::mem::size_of::<LabelEntry>()
    }

    /// Heap bytes actually held by the nested store: list *capacities*
    /// plus the per-vertex `Vec` headers. This is the maintenance-layout
    /// footprint an engine-level memory budget has to account for, as
    /// opposed to the logical [`entry_bytes`](Self::entry_bytes).
    pub fn heap_bytes(&self) -> usize {
        fn lists(side: &[Vec<LabelEntry>]) -> usize {
            side.iter()
                .map(|l| l.capacity() * std::mem::size_of::<LabelEntry>())
                .sum::<usize>()
                + std::mem::size_of_val(side)
        }
        lists(&self.in_labels) + lists(&self.out_labels)
    }

    /// Largest label list length (query cost is proportional to this).
    pub fn max_label_len(&self) -> usize {
        self.in_labels
            .iter()
            .chain(self.out_labels.iter())
            .map(Vec::len)
            .max()
            .unwrap_or(0)
    }

    /// Checks the sortedness invariant of every list.
    pub fn validate_sorted(&self) -> Result<(), String> {
        for (v, list) in self.in_labels.iter().enumerate() {
            if !list.windows(2).all(|w| w[0].hub_rank() < w[1].hub_rank()) {
                return Err(format!("in-labels of vertex {v} are not sorted/unique"));
            }
        }
        for (v, list) in self.out_labels.iter().enumerate() {
            if !list.windows(2).all(|w| w[0].hub_rank() < w[1].hub_rank()) {
                return Err(format!("out-labels of vertex {v} are not sorted/unique"));
            }
        }
        if self.side_count != self.recount_entries() {
            return Err(format!(
                "entry counters {:?} diverged from stored entries {:?}",
                self.side_count,
                self.recount_entries()
            ));
        }
        Ok(())
    }
}

/// Two-pointer sorted intersection implementing Equations (1)–(2).
///
/// Stale (dominated) entries may be present under the redundancy update
/// strategy; they are harmless here because an entry with a non-minimal
/// stored distance can never participate in the minimal combined distance
/// (label distances upper-bound true distances, so a stale component would
/// push the sum strictly above the covered minimum).
pub fn intersect(out_s: &[LabelEntry], in_t: &[LabelEntry]) -> Option<DistCount> {
    let mut best_dist = u32::MAX;
    let mut best_count: u64 = 0;
    let (mut i, mut j) = (0, 0);
    while i < out_s.len() && j < in_t.len() {
        let (a, b) = (out_s[i], in_t[j]);
        match a.hub_rank().cmp(&b.hub_rank()) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                let d = a.dist() + b.dist();
                if d < best_dist {
                    best_dist = d;
                    best_count = a.count().saturating_mul(b.count());
                } else if d == best_dist {
                    best_count = best_count.saturating_add(a.count().saturating_mul(b.count()));
                }
                i += 1;
                j += 1;
            }
        }
    }
    (best_dist != u32::MAX).then_some(DistCount {
        dist: best_dist,
        count: best_count,
    })
}

/// Convenience constructor for an entry; forwards overflow errors.
#[inline]
pub fn entry(hub_rank: u32, dist: u32, count: u64) -> Result<LabelEntry, EntryOverflow> {
    LabelEntry::new(hub_rank, dist, count)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(h: u32, d: u32, c: u64) -> LabelEntry {
        LabelEntry::new(h, d, c).unwrap()
    }

    fn v(i: u32) -> VertexId {
        VertexId(i)
    }

    #[test]
    fn append_and_query_roundtrip() {
        let mut l = Labels::new(2);
        l.append(v(0), LabelSide::Out, e(0, 1, 1));
        l.append(v(0), LabelSide::Out, e(3, 2, 2));
        l.append(v(1), LabelSide::In, e(0, 2, 3));
        l.append(v(1), LabelSide::In, e(3, 1, 1));
        l.validate_sorted().unwrap();
        // Via hub 0: 1 + 2 = 3, count 1*3 = 3; via hub 3: 2 + 1 = 3, count 2.
        assert_eq!(
            l.dist_count(v(0), v(1)),
            Some(DistCount { dist: 3, count: 5 })
        );
        assert_eq!(l.dist(v(0), v(1)), Some(3));
    }

    #[test]
    fn intersection_prefers_strictly_shorter() {
        let out_s = [e(0, 1, 10), e(1, 5, 1)];
        let in_t = [e(0, 1, 10), e(1, 0, 1)];
        // Hub 0: dist 2 count 100. Hub 1: dist 5.
        assert_eq!(
            intersect(&out_s, &in_t),
            Some(DistCount {
                dist: 2,
                count: 100
            })
        );
    }

    #[test]
    fn no_common_hub_is_none() {
        let out_s = [e(0, 1, 1)];
        let in_t = [e(1, 1, 1)];
        assert_eq!(intersect(&out_s, &in_t), None);
        assert_eq!(intersect(&[], &in_t), None);
    }

    #[test]
    fn worked_example_2_from_the_paper() {
        // SPCnt(v10, v8) in Figure 2: hubs {v1, v7} at ranks {0, 1}.
        // Lout(v10): (v1, 1, 1), (v7, 3, 1). Lin(v8): (v1, 3, 2), (v7, 1, 1).
        let out_v10 = [e(0, 1, 1), e(1, 3, 1)];
        let in_v8 = [e(0, 3, 2), e(1, 1, 1)];
        assert_eq!(
            intersect(&out_v10, &in_v8),
            Some(DistCount { dist: 4, count: 3 })
        );
    }

    #[test]
    fn upsert_replaces_and_inserts() {
        let mut l = Labels::new(1);
        assert_eq!(l.upsert(v(0), LabelSide::In, e(5, 4, 1)), None);
        assert_eq!(l.upsert(v(0), LabelSide::In, e(2, 1, 1)), None);
        // Replace hub 5.
        assert_eq!(l.upsert(v(0), LabelSide::In, e(5, 3, 7)), Some(e(5, 4, 1)));
        l.validate_sorted().unwrap();
        assert_eq!(l.entry_for(v(0), LabelSide::In, 5), Some(e(5, 3, 7)));
        assert_eq!(l.entry_for(v(0), LabelSide::In, 9), None);
    }

    #[test]
    fn remove_and_drain() {
        let mut l = Labels::new(1);
        for h in [1, 3, 5, 7] {
            l.append(v(0), LabelSide::Out, e(h, h, 1));
        }
        assert_eq!(l.remove(v(0), LabelSide::Out, 3), Some(e(3, 3, 1)));
        assert_eq!(l.remove(v(0), LabelSide::Out, 3), None);
        let drained = l.drain_matching(v(0), LabelSide::Out, |en| en.dist() >= 5);
        assert_eq!(drained, vec![e(5, 5, 1), e(7, 7, 1)]);
        assert_eq!(l.out_of(v(0)), &[e(1, 1, 1)]);
        assert_eq!(l.total_entries(), 1);
    }

    #[test]
    fn sizes_and_growth() {
        let mut l = Labels::new(1);
        l.append(v(0), LabelSide::In, e(0, 0, 1));
        l.push_vertex();
        assert_eq!(l.vertex_count(), 2);
        l.append(v(1), LabelSide::Out, e(0, 1, 1));
        l.append(v(1), LabelSide::Out, e(1, 1, 1));
        assert_eq!(l.total_entries(), 3);
        assert_eq!(l.entry_bytes(), 24);
        assert_eq!(l.max_label_len(), 2);
    }

    #[test]
    fn side_entry_counters_track_mutations() {
        let mut l = Labels::new(2);
        l.append(v(0), LabelSide::In, e(0, 1, 1));
        l.append(v(0), LabelSide::In, e(2, 1, 1));
        l.append(v(1), LabelSide::Out, e(0, 1, 1));
        assert_eq!(l.side_entries(LabelSide::In), 2);
        assert_eq!(l.side_entries(LabelSide::Out), 1);
        l.remove(v(0), LabelSide::In, 2);
        l.upsert(v(1), LabelSide::Out, e(3, 2, 1));
        l.upsert(v(1), LabelSide::Out, e(3, 1, 1)); // replace: no growth
        assert_eq!(l.side_entries(LabelSide::In), 1);
        assert_eq!(l.side_entries(LabelSide::Out), 2);
        let drained = l.drain_matching(v(1), LabelSide::Out, |_| true);
        assert_eq!(drained.len(), 2);
        assert_eq!(l.side_entries(LabelSide::Out), 0);
        assert_eq!(
            l.total_entries(),
            l.side_entries(LabelSide::In) + l.side_entries(LabelSide::Out)
        );
        l.validate_sorted().unwrap();
    }

    #[test]
    fn side_flip() {
        assert_eq!(LabelSide::In.flip(), LabelSide::Out);
        assert_eq!(LabelSide::Out.flip(), LabelSide::In);
    }

    #[test]
    fn validate_catches_disorder() {
        let mut l = Labels::new(1);
        // Bypass `append`'s debug assertion by upserting then mangling via
        // drain+append misuse is not possible through the public API, so
        // construct a bad state through upsert ordering (which keeps order)
        // — instead check the validator on a good state and trust the
        // debug_assert for the bad one.
        l.upsert(v(0), LabelSide::In, e(2, 1, 1));
        l.upsert(v(0), LabelSide::In, e(1, 1, 1));
        l.validate_sorted().unwrap();
    }

    #[test]
    fn slot_encoding_roundtrip() {
        for i in 0..6u32 {
            for side in [LabelSide::In, LabelSide::Out] {
                let slot = label_slot(v(i), side);
                assert_eq!(slot_list(slot), (v(i), side));
            }
        }
        assert_eq!(label_slot(v(3), LabelSide::In), 6);
        assert_eq!(label_slot(v(3), LabelSide::Out), 7);
    }

    #[test]
    fn dirty_tracking_records_each_mutated_list_once() {
        let mut l = Labels::new(3);
        assert_eq!(l.take_dirty(), Vec::<u32>::new());
        l.append(v(0), LabelSide::In, e(1, 1, 1));
        l.append(v(0), LabelSide::In, e(2, 1, 1)); // same slot, marked once
        l.upsert(v(2), LabelSide::Out, e(0, 1, 1));
        assert_eq!(l.dirty_len(), 2);
        let dirty = l.take_dirty();
        assert_eq!(dirty, vec![label_slot(v(0), LabelSide::In), 5]);
        // Drained: the set restarts empty and re-marks on new mutations.
        assert_eq!(l.dirty_len(), 0);
        l.remove(v(0), LabelSide::In, 2);
        assert_eq!(l.take_dirty(), vec![label_slot(v(0), LabelSide::In)]);
        // No-op mutations leave the set empty.
        l.remove(v(0), LabelSide::In, 9);
        let none = l.drain_matching(v(1), LabelSide::Out, |_| true);
        assert!(none.is_empty());
        assert_eq!(l.take_dirty(), Vec::<u32>::new());
    }

    #[test]
    fn try_extend_sorted_is_append_in_bulk_or_nothing() {
        let lists = [
            (v(0), LabelSide::In, vec![e(0, 0, 1), e(2, 1, 3)]),
            (v(2), LabelSide::Out, vec![e(1, 2, 1)]),
            (v(1), LabelSide::In, vec![]),
        ];
        fn ok(
            entries: &[LabelEntry],
        ) -> impl ExactSizeIterator<Item = Result<LabelEntry, ()>> + '_ {
            entries.iter().copied().map(Ok)
        }
        let mut one_by_one = Labels::new(3);
        let mut bulk = Labels::new(3);
        for (u, side, entries) in &lists {
            for &en in entries {
                one_by_one.append(*u, *side, en);
            }
            bulk.try_extend_sorted(*u, *side, ok(entries)).unwrap();
        }
        // Extending a non-empty list continues it.
        one_by_one.append(v(0), LabelSide::In, e(5, 2, 1));
        bulk.try_extend_sorted(v(0), LabelSide::In, ok(&[e(5, 2, 1)]))
            .unwrap();
        // An error midway installs nothing, counts nothing, dirties nothing.
        bulk.take_dirty();
        one_by_one.take_dirty();
        let failing = [Ok(e(6, 1, 1)), Err("bad"), Ok(e(8, 1, 1))];
        assert_eq!(
            bulk.try_extend_sorted(v(1), LabelSide::Out, failing.into_iter()),
            Err("bad")
        );
        assert_eq!(bulk.dirty_len(), 0);
        assert_eq!(bulk, one_by_one);
        for side in [LabelSide::In, LabelSide::Out] {
            assert_eq!(bulk.side_entries(side), one_by_one.side_entries(side));
        }
        bulk.try_extend_sorted(v(1), LabelSide::Out, ok(&[e(6, 1, 1)]))
            .unwrap();
        one_by_one.append(v(1), LabelSide::Out, e(6, 1, 1));
        assert_eq!(bulk.take_dirty(), one_by_one.take_dirty());
        bulk.validate_sorted().unwrap();
    }

    #[test]
    fn push_vertex_marks_new_slots_dirty() {
        let mut l = Labels::new(1);
        l.take_dirty();
        l.push_vertex();
        assert_eq!(
            l.take_dirty(),
            vec![
                label_slot(v(1), LabelSide::In),
                label_slot(v(1), LabelSide::Out)
            ]
        );
    }

    #[test]
    fn equality_ignores_dirty_history() {
        let mut a = Labels::new(2);
        let mut b = Labels::new(2);
        a.append(v(0), LabelSide::In, e(1, 1, 1));
        b.append(v(0), LabelSide::In, e(1, 1, 1));
        b.take_dirty();
        assert_eq!(a, b, "same content, different dirty state");
        b.append(v(1), LabelSide::Out, e(0, 2, 1));
        assert_ne!(a, b);
    }

    #[test]
    fn saturating_count_arithmetic() {
        let big = crate::entry::MAX_COUNT;
        let out_s = [e(0, 1, big), e(1, 1, big)];
        let in_t = [e(0, 1, big), e(1, 1, big)];
        let dc = intersect(&out_s, &in_t).unwrap();
        assert_eq!(dc.dist, 2);
        // Products and sums saturate without overflow or panic.
        assert_eq!(dc.count, (big * big).saturating_add(big * big));
    }
}
