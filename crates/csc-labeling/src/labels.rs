//! Label storage and 2-hop query evaluation.
//!
//! [`Labels`] holds the label lists of every vertex — the in-label list
//! (`L_in`: distances *from* hubs) and the out-label list (`L_out`:
//! distances *to* hubs), each sorted by hub rank — in one arena: a list of
//! immutable, reference-counted segments, one open *tail* segment that only
//! the store writes, and one span per stored list. The query primitives
//! implement the paper's Equations (1)–(2): a sorted two-pointer
//! intersection that tracks the minimum combined distance and sums count
//! products at that minimum.
//!
//! A store holds both lists of every vertex ([`ListLayout::Both`], the
//! HP-SPC baseline) or one list per vertex ([`ListLayout::Reduced`], the
//! `L_in(v_i)` and `L_out(v_o)` of the CSC index's reduction).
//!
//! Writes are copy-on-write. The first write to a list in a sealed segment
//! copies it to the end of the tail; later writes land in place, and a list
//! that outgrows its room in the tail moves to the tail's end with twice
//! the room. [`Labels::publish`] seals the tail and returns a
//! [`FrozenLabels`]: the segment list and a copy of the span table, so a
//! snapshot costs the span table whatever was written, and every snapshot
//! shares its segments with the store. The old copy of a rewritten list
//! stays behind as dead space until [`Labels::compact`] repacks the live
//! lists into one segment.

use crate::entry::{EntryOverflow, LabelEntry};
use crate::frozen::FrozenLabels;
use csc_graph::VertexId;
use std::sync::Arc;

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

#[inline]
fn side_ix(side: LabelSide) -> usize {
    usize::from(side == LabelSide::Out)
}

/// Which label lists a store holds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ListLayout {
    /// Both lists of every vertex: span `2v` is `v`'s in-list, span
    /// `2v + 1` its out-list.
    #[default]
    Both,
    /// One list per vertex, at span `v`: the in-list of an even vertex and
    /// the out-list of an odd one — the `L_in(v_i)` and `L_out(v_o)` of a
    /// bipartite graph numbering `v_i = 2v` and `v_o = 2v + 1` (see
    /// `csc_graph::bipartite`). The other list of each vertex reads as
    /// empty and cannot be written.
    Reduced,
}

impl ListLayout {
    /// The span of `v`'s `side` list; `None` if the layout stores no such
    /// list.
    #[inline]
    pub(crate) fn span(self, v: VertexId, side: LabelSide) -> Option<usize> {
        let s = side_ix(side);
        match self {
            ListLayout::Both => Some(2 * v.index() + s),
            ListLayout::Reduced => (v.index() & 1 == s).then_some(v.index()),
        }
    }

    /// Spans per vertex.
    #[inline]
    pub(crate) fn per_vertex(self) -> usize {
        match self {
            ListLayout::Both => 2,
            ListLayout::Reduced => 1,
        }
    }

    /// The order a packed segment holds `spans` lists in: each vertex's
    /// in-list then out-list under [`Both`](Self::Both); under
    /// [`Reduced`](Self::Reduced) each couple's `L_out(v_o)` then
    /// `L_in(v_i)`, the two lists a cycle query intersects, back to back.
    fn packing_order(self, spans: usize) -> impl Iterator<Item = usize> {
        let swap = self == ListLayout::Reduced;
        (0..spans).map(move |i| if swap && (i ^ 1) < spans { i ^ 1 } else { i })
    }
}

/// Where one stored list lives: entries `lo..hi` of segment `seg`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Span {
    pub(crate) seg: u32,
    pub(crate) lo: u32,
    pub(crate) hi: u32,
}

impl Span {
    /// An empty list, in segment 0 (in the tail while no segment is
    /// sealed, where its room is 0).
    pub(crate) const EMPTY: Span = Span {
        seg: 0,
        lo: 0,
        hi: 0,
    };

    #[inline]
    pub(crate) fn len(self) -> usize {
        (self.hi - self.lo) as usize
    }
}

/// What the slots of the tail past a list's entries hold until it grows.
const SPARE: LabelEntry = LabelEntry::from_raw(0);

fn to_u32(slots: usize) -> u32 {
    u32::try_from(slots).unwrap_or_else(|_| panic!("label segment of {slots} slots exceeds u32"))
}

/// Per-vertex in/out label lists, sorted by hub rank, in one
/// copy-on-write arena (see the [module docs](self)).
#[derive(Clone, Debug, Default)]
pub struct Labels {
    /// The sealed segments and every stored list's span; a span whose
    /// segment number is `sealed.segments.len()` addresses the tail.
    sealed: FrozenLabels,
    /// The open segment: only this store writes it, and [`seal`] shares
    /// it.
    ///
    /// [`seal`]: Self::seal
    tail: Vec<LabelEntry>,
    /// Per span: where the room of a list in the tail ends (its entries,
    /// then spare slots). Read only for lists in the tail.
    room: Vec<u32>,
    /// Entries per side (`[0]` in, `[1]` out), maintained by every
    /// mutation so [`total_entries`](Self::total_entries) and
    /// [`side_entries`](Self::side_entries) stay O(1).
    side_count: [usize; 2],
    /// Lists copied into the tail since the last seal.
    written: usize,
    /// Power-of-two rooms in the tail that lists moved out of, by
    /// `log2(size)`: where the next lists that outgrow their room move.
    free: [Vec<u32>; 32],
    /// Live entries at the last compaction.
    compacted: Option<usize>,
    /// The segments compactions replaced that a snapshot may still read.
    retired: Vec<Arc<Vec<LabelEntry>>>,
    /// The allocation of the largest retired segment no snapshot reads
    /// any more, emptied: the next compaction fills it.
    spare: Vec<LabelEntry>,
}

/// Equality is over the stored label lists only, not over where they sit
/// in the arena.
impl PartialEq for Labels {
    fn eq(&self, other: &Self) -> bool {
        self.sealed.layout == other.sealed.layout
            && self.sealed.spans.len() == other.sealed.spans.len()
            && (0..self.sealed.spans.len()).all(|i| self.list(i) == other.list(i))
    }
}

impl Eq for Labels {}

impl Labels {
    /// Creates empty in- and out-lists for `n` vertices
    /// ([`ListLayout::Both`]).
    pub fn new(n: usize) -> Self {
        Self::with_layout(n, ListLayout::Both)
    }

    /// Creates one empty list per vertex for `n` bipartite vertices: the
    /// in-list of each even vertex and the out-list of each odd one
    /// ([`ListLayout::Reduced`]).
    pub fn reduced(n: usize) -> Self {
        Self::with_layout(n, ListLayout::Reduced)
    }

    fn with_layout(n: usize, layout: ListLayout) -> Self {
        let spans = n * layout.per_vertex();
        Labels {
            sealed: FrozenLabels {
                spans: vec![Span::EMPTY; spans],
                layout,
                ..FrozenLabels::default()
            },
            room: vec![0; spans],
            ..Labels::default()
        }
    }

    /// Which lists the store holds.
    pub fn layout(&self) -> ListLayout {
        self.sealed.layout
    }

    /// Number of vertices covered.
    #[inline]
    pub fn vertex_count(&self) -> usize {
        self.sealed.spans.len() / self.sealed.layout.per_vertex()
    }

    /// Grows the structure to cover one more vertex (dynamic graphs). Its
    /// fresh (empty) lists count as written: the next snapshot must carry
    /// their spans.
    pub fn push_vertex(&mut self) {
        for _ in 0..self.sealed.layout.per_vertex() {
            self.sealed.spans.push(Span::EMPTY);
            self.room.push(0);
            self.written += 1;
        }
    }

    /// Number of lists written since the last [`seal`](Self::seal): the
    /// lists copied into the tail and the lists of new vertices (a removal
    /// at either end of a list only narrows its span).
    pub fn dirty_len(&self) -> usize {
        self.written
    }

    /// The in-label list of `v`.
    #[inline]
    pub fn in_of(&self, v: VertexId) -> &[LabelEntry] {
        self.side_of(v, LabelSide::In)
    }

    /// The out-label list of `v`.
    #[inline]
    pub fn out_of(&self, v: VertexId) -> &[LabelEntry] {
        self.side_of(v, LabelSide::Out)
    }

    /// The label list of `v` on `side`; empty if the layout stores none.
    #[inline]
    pub fn side_of(&self, v: VertexId, side: LabelSide) -> &[LabelEntry] {
        match self.sealed.layout.span(v, side) {
            Some(i) => self.list(i),
            None => &[],
        }
    }

    #[inline]
    fn list(&self, i: usize) -> &[LabelEntry] {
        let Span { seg, lo, hi } = self.sealed.spans[i];
        let segment = match self.sealed.segments.get(seg as usize) {
            Some(sealed) => sealed.as_slice(),
            None => &self.tail,
        };
        &segment[lo as usize..hi as usize]
    }

    /// The span of `v`'s `side` list, which the store must hold.
    #[inline]
    fn stored(&self, v: VertexId, side: LabelSide) -> usize {
        self.sealed
            .layout
            .span(v, side)
            .unwrap_or_else(|| panic!("the store holds no {side:?} list at {v:?}"))
    }

    /// Makes the list at span `i` writable with room for `extra` more
    /// entries, and returns where it sits in the tail. Its first write
    /// since the last seal copies it to the tail's end with just that room,
    /// as does the first write of an empty list. A list in the tail that
    /// outgrows its room grows in place when its room ends the tail, and
    /// otherwise moves to a power-of-two room: one another list left
    /// behind when there is one, else a new one at the end. A list that
    /// keeps growing (every list of a build does) thus moves `O(log)`
    /// times, and the rooms it leaves house the lists growing behind it.
    #[inline]
    fn open(&mut self, i: usize, extra: usize) -> (usize, usize) {
        let span = self.sealed.spans[i];
        let (lo, hi) = (span.lo as usize, span.hi as usize);
        if span.seg as usize == self.sealed.segments.len() && hi + extra <= self.room[i] as usize {
            return (lo, hi);
        }
        self.reopen(i, extra)
    }

    /// [`open`](Self::open) for a list that is not in the tail yet, or
    /// has no room left there.
    fn reopen(&mut self, i: usize, extra: usize) -> (usize, usize) {
        let tail_seg = self.sealed.segments.len();
        let span = self.sealed.spans[i];
        let (lo, hi, len) = (span.lo as usize, span.hi as usize, span.len());
        let in_tail = span.seg as usize == tail_seg;
        if in_tail {
            let end = self.room[i] as usize;
            if end == self.tail.len() {
                self.tail.resize(hi + extra, SPARE);
                self.room[i] = to_u32(hi + extra);
                return (lo, hi);
            }
        }
        let (lo, room) = if in_tail && len > 0 {
            let old = self.room[i] as usize - lo;
            if old.is_power_of_two() {
                self.free[old.trailing_zeros() as usize].push(lo as u32);
            }
            let room = (len + extra).next_power_of_two();
            let at = match self.free[room.trailing_zeros() as usize].pop() {
                Some(at) => at as usize,
                None => {
                    let at = self.tail.len();
                    self.tail.resize(at + room, SPARE);
                    at
                }
            };
            self.tail.copy_within(lo..hi, at);
            (at, room)
        } else {
            if !in_tail {
                self.written += 1;
                let segment = &self.sealed.segments[span.seg as usize];
                self.tail.extend_from_slice(&segment[lo..hi]);
            }
            let at = self.tail.len() - len;
            self.tail.resize(at + len + extra, SPARE);
            (at, len + extra)
        };
        self.room[i] = to_u32(lo + room);
        self.sealed.spans[i] = Span {
            seg: tail_seg as u32,
            lo: lo as u32,
            hi: to_u32(lo + len),
        };
        (lo, lo + len)
    }

    /// Appends an entry whose hub rank is strictly greater than every
    /// existing entry's — the hot path during static construction, where
    /// hubs are processed in descending rank order.
    ///
    /// Debug builds assert the ordering invariant.
    #[inline]
    pub fn append(&mut self, v: VertexId, side: LabelSide, entry: LabelEntry) {
        let i = self.stored(v, side);
        let (lo, hi) = self.open(i, 1);
        debug_assert!(
            hi == lo || self.tail[hi - 1].hub_rank() < entry.hub_rank(),
            "append would break hub-rank order at {v:?}"
        );
        self.tail[hi] = entry;
        self.sealed.spans[i].hi += 1;
        self.side_count[side_ix(side)] += 1;
    }

    /// The bulk form of [`append`](Self::append): appends the entries
    /// `entries` yields, in strictly increasing hub-rank order and all
    /// above the list's current last entry, making room once for the
    /// iterator's length. The first `Err` stops it and is returned, the
    /// list left as it was, so a caller can check each entry as it is
    /// installed (checkpoint decoding installs each list this way). Counts
    /// are kept as `append` keeps them; an empty `entries` changes nothing.
    ///
    /// Debug builds assert the ordering invariant.
    pub fn try_extend_sorted<E>(
        &mut self,
        v: VertexId,
        side: LabelSide,
        entries: impl ExactSizeIterator<Item = Result<LabelEntry, E>>,
    ) -> Result<(), E> {
        let i = self.stored(v, side);
        let extra = entries.len();
        if extra == 0 {
            return Ok(());
        }
        let (lo, hi) = self.open(i, extra);
        let mut end = hi;
        for (slot, entry) in self.tail[hi..hi + extra].iter_mut().zip(entries) {
            *slot = entry?;
            end += 1;
        }
        debug_assert!(
            self.tail[lo.max(hi.saturating_sub(1))..end]
                .windows(2)
                .all(|w| w[0].hub_rank() < w[1].hub_rank()),
            "try_extend_sorted would break hub-rank order at {v:?}"
        );
        self.sealed.spans[i].hi = to_u32(end);
        self.side_count[side_ix(side)] += end - hi;
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
        let i = self.stored(v, side);
        let list = self.list(i);
        match list.binary_search_by_key(&entry.hub_rank(), |e| e.hub_rank()) {
            Ok(pos) => {
                let previous = list[pos];
                if previous != entry {
                    let (lo, _) = self.open(i, 0);
                    self.tail[lo + pos] = entry;
                }
                Some(previous)
            }
            Err(pos) => {
                let (lo, hi) = self.open(i, 1);
                self.tail.copy_within(lo + pos..hi, lo + pos + 1);
                self.tail[lo + pos] = entry;
                self.sealed.spans[i].hi += 1;
                self.side_count[side_ix(side)] += 1;
                None
            }
        }
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
        let i = self.stored(v, side);
        let list = self.list(i);
        let pos = list
            .binary_search_by_key(&hub_rank, |e| e.hub_rank())
            .ok()?;
        let (removed, len) = (list[pos], list.len());
        if pos == 0 {
            self.sealed.spans[i].lo += 1;
        } else if pos + 1 == len {
            self.sealed.spans[i].hi -= 1;
        } else {
            let (lo, hi) = self.open(i, 0);
            self.tail.copy_within(lo + pos + 1..hi, lo + pos);
            self.sealed.spans[i].hi -= 1;
        }
        self.side_count[side_ix(side)] -= 1;
        Some(removed)
    }

    /// Removes entries of `v`'s `side` list for which `pred` returns true,
    /// returning the removed entries. `pred` sees each entry once, in
    /// order.
    pub fn drain_matching(
        &mut self,
        v: VertexId,
        side: LabelSide,
        mut pred: impl FnMut(LabelEntry) -> bool,
    ) -> Vec<LabelEntry> {
        let i = self.stored(v, side);
        let Some(first) = self.list(i).iter().position(|&e| pred(e)) else {
            return Vec::new();
        };
        let (lo, hi) = self.open(i, 0);
        let mut removed = vec![self.tail[lo + first]];
        let mut kept = lo + first;
        for at in kept + 1..hi {
            let e = self.tail[at];
            if pred(e) {
                removed.push(e);
            } else {
                self.tail[kept] = e;
                kept += 1;
            }
        }
        self.sealed.spans[i].hi = to_u32(kept);
        self.side_count[side_ix(side)] -= removed.len();
        removed
    }

    /// Seals the tail: it becomes an immutable segment shared with every
    /// snapshot [`publish`](Self::publish) hands out from now on, and
    /// later writes copy a list out of it before changing it.
    pub fn seal(&mut self) {
        self.reclaim();
        if !self.tail.is_empty() || self.sealed.segments.is_empty() {
            // The next window's tail starts as large as this one ended, up
            // to a quarter of the lists (a decode's tail holds them all);
            // this one gives back the capacity it did not use.
            let next = Vec::with_capacity(self.tail.len().min(self.total_entries() / 4));
            let mut tail = std::mem::replace(&mut self.tail, next);
            tail.shrink_to_fit();
            self.sealed.segments.push(Arc::new(tail));
        }
        self.written = 0;
        self.free.iter_mut().for_each(Vec::clear);
    }

    /// Seals the tail and returns the arena as it stands: a snapshot that
    /// shares every segment with the store, at the cost of a copy of the
    /// span table. Later writes never change what it reads.
    pub fn publish(&mut self) -> FrozenLabels {
        self.seal();
        self.sealed.live = self.total_entries();
        self.sealed.clone()
    }

    /// Repacks every live list into one segment, in the layout's packing
    /// order; the old segments stay with the snapshots that hold them.
    /// The segment is built in the allocation of a segment an earlier
    /// compaction replaced, once no snapshot reads it any more, so a
    /// compaction rewrites pages already resident. One too small is
    /// replaced (growing it would copy its stale contents) by one with
    /// room for a quarter more entries than the lists hold, or for twice
    /// their growth since the last compaction if that is more: the
    /// allocation is refilled compaction after compaction, and keeps
    /// fitting while the index grows.
    pub fn compact(&mut self) {
        let live = self.total_entries();
        let grown = live.saturating_sub(self.compacted.unwrap_or(live));
        if self.sealed.segments.is_empty() {
            self.squeeze_tail();
        }
        self.reclaim();
        let buffer = std::mem::take(&mut self.spare);
        let packed = self.packed(buffer, (2 * grown).max(live / 4));
        let replaced = std::mem::replace(&mut self.sealed, packed);
        self.retired.extend(replaced.segments);
        self.tail = Vec::new();
        self.written = 0;
        self.free.iter_mut().for_each(Vec::clear);
        self.compacted = Some(live);
    }

    /// Keeps the largest retired segment no snapshot reads any more as the
    /// spare, emptied, and drops the others no snapshot reads.
    fn reclaim(&mut self) {
        for segment in std::mem::take(&mut self.retired) {
            match Arc::try_unwrap(segment) {
                Ok(mut unread) if unread.capacity() > self.spare.capacity() => {
                    unread.clear();
                    self.spare = unread;
                }
                Ok(_) => {}
                Err(read) => self.retired.push(read),
            }
        }
    }

    /// The capacity, in entries, of the allocation the next compaction
    /// refills (see [`compact`](Self::compact)); `0` when there is none.
    pub fn spare_capacity(&self) -> usize {
        self.spare.capacity()
    }

    /// Slides the lists of a store that never sealed down over the rooms
    /// they moved out of and their spare slots, in address order, and
    /// gives the space back. Such a store is a build's: its tail holds
    /// every list and about as much again in rooms, and packing it needs
    /// a copy of the lists beside it.
    fn squeeze_tail(&mut self) {
        let mut lists: Vec<usize> = (0..self.sealed.spans.len()).collect();
        lists.sort_unstable_by_key(|&i| self.sealed.spans[i].lo);
        let mut at = 0;
        for i in lists {
            let span = &mut self.sealed.spans[i];
            let len = span.len();
            self.tail
                .copy_within(span.lo as usize..span.hi as usize, at);
            *span = if len == 0 {
                Span::EMPTY
            } else {
                Span {
                    seg: 0,
                    lo: at as u32,
                    hi: (at + len) as u32,
                }
            };
            at += len;
            self.room[i] = at as u32;
        }
        self.tail.truncate(at);
        self.tail.shrink_to_fit();
    }

    /// Every live list packed into one segment in `buffer`, which is
    /// replaced by an allocation `headroom` entries larger than the lists
    /// when too small for them (growing it would copy its stale contents).
    pub(crate) fn packed(&self, mut buffer: Vec<LabelEntry>, headroom: usize) -> FrozenLabels {
        let live = self.total_entries();
        buffer.clear();
        if buffer.capacity() < live {
            buffer = Vec::with_capacity(live + headroom);
        }
        let layout = self.sealed.layout;
        let mut spans = vec![Span::EMPTY; self.sealed.spans.len()];
        for i in layout.packing_order(spans.len()) {
            let lo = buffer.len() as u32;
            buffer.extend_from_slice(self.list(i));
            let hi = to_u32(buffer.len());
            if lo < hi {
                spans[i] = Span { seg: 0, lo, hi };
            }
        }
        FrozenLabels {
            segments: vec![Arc::new(buffer)],
            spans,
            layout,
            live,
        }
    }

    /// Reserves room in the tail for `entries` more entries, so that
    /// installing lists one after another (as decoding a checkpoint does)
    /// fills one allocation.
    pub fn reserve(&mut self, entries: usize) {
        self.tail.reserve(entries);
    }

    /// Sealed segments.
    pub fn segment_count(&self) -> usize {
        self.sealed.segments.len()
    }

    /// Entry slots across every segment, the tail included: the live
    /// entries, the old copies of rewritten lists, and spare room.
    pub fn arena_entries(&self) -> usize {
        self.sealed.arena_entries() + self.tail.len()
    }

    /// Entry slots of the tail: what the writes since the last seal
    /// copied.
    pub fn tail_entries(&self) -> usize {
        self.tail.len()
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

    /// Recomputes the per-side entry totals from the spans (O(n) ground
    /// truth for the maintained counters; used by `validate_sorted` and
    /// debug assertions).
    fn recount_entries(&self) -> [usize; 2] {
        let mut count = [0, 0];
        for v in 0..self.vertex_count() as u32 {
            for side in [LabelSide::In, LabelSide::Out] {
                count[side_ix(side)] += self.side_of(VertexId(v), side).len();
            }
        }
        count
    }

    /// Index size in bytes under the paper's 64-bit-per-entry encoding.
    pub fn entry_bytes(&self) -> usize {
        self.total_entries() * std::mem::size_of::<LabelEntry>()
    }

    /// Largest label list length (query cost is proportional to this).
    pub fn max_label_len(&self) -> usize {
        self.sealed.spans.iter().map(|s| s.len()).max().unwrap_or(0)
    }

    /// Checks the sortedness invariant of every list.
    pub fn validate_sorted(&self) -> Result<(), String> {
        for v in 0..self.vertex_count() as u32 {
            for side in [LabelSide::In, LabelSide::Out] {
                let list = self.side_of(VertexId(v), side);
                if !list.windows(2).all(|w| w[0].hub_rank() < w[1].hub_rank()) {
                    let side = if side == LabelSide::In { "in" } else { "out" };
                    return Err(format!("{side}-labels of vertex {v} are not sorted/unique"));
                }
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

/// Two-pointer sorted intersection implementing Equations (1)–(2): the
/// reference the adaptive kernel
/// ([`intersect_adaptive`](crate::intersect_adaptive)) is tested against.
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
    use crate::frozen::LabelStore;

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
        // The public API cannot build a disordered list, so check the
        // validator on a good state and trust the debug assertions for
        // the bad one.
        l.upsert(v(0), LabelSide::In, e(2, 1, 1));
        l.upsert(v(0), LabelSide::In, e(1, 1, 1));
        l.validate_sorted().unwrap();
    }

    #[test]
    fn slot_encoding_roundtrip() {
        for i in 0..6u32 {
            for side in [LabelSide::In, LabelSide::Out] {
                let s = side_ix(side);
                let both = ListLayout::Both.span(v(i), side);
                assert_eq!(both, Some(2 * i as usize + s));
                // The reduced layout keeps the in-list of an even vertex
                // and the out-list of an odd one, at the vertex's own span.
                let reduced = ListLayout::Reduced.span(v(i), side);
                assert_eq!(reduced, (i as usize % 2 == s).then_some(i as usize));
            }
        }
        assert_eq!(ListLayout::Both.span(v(3), LabelSide::In), Some(6));
        assert_eq!(ListLayout::Both.span(v(3), LabelSide::Out), Some(7));
        // A compaction packs each couple's out-list, then its in-list.
        let order: Vec<_> = ListLayout::Reduced.packing_order(5).collect();
        assert_eq!(order, [1, 0, 3, 2, 4]);
        let order: Vec<_> = ListLayout::Both.packing_order(4).collect();
        assert_eq!(order, [0, 1, 2, 3]);
    }

    #[test]
    fn a_reduced_store_holds_one_list_per_vertex() {
        let mut l = Labels::reduced(4);
        l.append(v(0), LabelSide::In, e(0, 0, 1));
        l.append(v(1), LabelSide::Out, e(1, 0, 1));
        assert_eq!(l.vertex_count(), 4);
        assert!(l.out_of(v(0)).is_empty() && l.in_of(v(1)).is_empty());
        assert_eq!(l.in_of(v(0)), &[e(0, 0, 1)]);
        let frozen = l.publish();
        assert_eq!(frozen.out_of(v(1)), &[e(1, 0, 1)]);
        assert!(frozen.in_of(v(1)).is_empty());
        l.push_vertex();
        assert_eq!(l.vertex_count(), 5);
        let write = std::panic::catch_unwind(move || l.append(v(2), LabelSide::Out, e(0, 1, 1)));
        assert!(write.is_err(), "the reduced layout stores no L_out(v_i)");
    }

    #[test]
    fn dirty_tracking_records_each_mutated_list_once() {
        let mut l = Labels::new(3);
        l.append(v(0), LabelSide::In, e(1, 1, 1));
        l.append(v(0), LabelSide::In, e(2, 1, 1));
        l.append(v(0), LabelSide::In, e(3, 1, 1));
        l.upsert(v(2), LabelSide::Out, e(0, 1, 1));
        l.seal();
        assert_eq!(l.dirty_len(), 0);
        // The first write of a sealed list copies it; later ones land in
        // place.
        l.append(v(0), LabelSide::In, e(4, 1, 1));
        l.upsert(v(0), LabelSide::In, e(1, 2, 1));
        l.upsert(v(2), LabelSide::Out, e(0, 3, 1));
        assert_eq!(l.dirty_len(), 2);
        assert_eq!(l.tail_entries(), 4 + 1);
        // Sealed: the count restarts and re-counts new writes.
        let before = l.publish();
        assert_eq!(l.dirty_len(), 0);
        // Unchanged entries and end removals copy nothing.
        l.upsert(v(0), LabelSide::In, e(2, 1, 1));
        l.remove(v(0), LabelSide::In, 4);
        l.remove(v(0), LabelSide::In, 1);
        l.remove(v(0), LabelSide::In, 9);
        assert!(l.drain_matching(v(1), LabelSide::Out, |_| true).is_empty());
        assert_eq!((l.dirty_len(), l.tail_entries()), (0, 0));
        assert_eq!(l.in_of(v(0)), &[e(2, 1, 1), e(3, 1, 1)]);
        assert_eq!(
            before.in_of(v(0)),
            &[e(1, 2, 1), e(2, 1, 1), e(3, 1, 1), e(4, 1, 1)]
        );
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
        // Installed in order, each list at the tail's end: packed, no
        // spare slot between them.
        assert_eq!(bulk.arena_entries(), bulk.total_entries());
        // Extending a non-empty list continues it.
        one_by_one.append(v(0), LabelSide::In, e(5, 2, 1));
        bulk.try_extend_sorted(v(0), LabelSide::In, ok(&[e(5, 2, 1)]))
            .unwrap();
        // An error midway installs nothing and counts nothing.
        let failing = [Ok(e(6, 1, 1)), Err("bad"), Ok(e(8, 1, 1))];
        assert_eq!(
            bulk.try_extend_sorted(v(1), LabelSide::Out, failing.into_iter()),
            Err("bad")
        );
        assert_eq!(bulk, one_by_one);
        for side in [LabelSide::In, LabelSide::Out] {
            assert_eq!(bulk.side_entries(side), one_by_one.side_entries(side));
        }
        bulk.try_extend_sorted(v(1), LabelSide::Out, ok(&[e(6, 1, 1)]))
            .unwrap();
        one_by_one.append(v(1), LabelSide::Out, e(6, 1, 1));
        assert_eq!(bulk, one_by_one);
        bulk.validate_sorted().unwrap();
    }

    #[test]
    fn push_vertex_marks_new_slots_dirty() {
        let mut l = Labels::new(1);
        l.seal();
        l.push_vertex();
        assert_eq!(l.dirty_len(), 2);
        let frozen = l.publish();
        assert_eq!(frozen.vertex_count(), 2);
        assert!(frozen.in_of(v(1)).is_empty() && frozen.out_of(v(1)).is_empty());
        let mut reduced = Labels::reduced(2);
        reduced.seal();
        reduced.push_vertex();
        assert_eq!(reduced.dirty_len(), 1);
    }

    #[test]
    fn equality_ignores_dirty_history() {
        let mut a = Labels::new(2);
        let mut b = Labels::new(2);
        a.append(v(0), LabelSide::In, e(1, 1, 1));
        b.append(v(0), LabelSide::In, e(0, 1, 1));
        b.append(v(0), LabelSide::In, e(1, 1, 1));
        b.publish();
        b.remove(v(0), LabelSide::In, 0);
        assert_ne!(a.arena_entries(), b.arena_entries());
        assert_eq!(a, b, "same lists, different arenas");
        b.compact();
        assert_eq!(a, b, "same lists, compacted");
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
