//! Reusable search state for the pruned-BFS label constructions.
//!
//! One labeling run performs `n` BFS traversals; allocating distance/count
//! arrays per hub would dominate the runtime. [`SearchState`] keeps the
//! arrays alive and resets only the entries touched by the previous
//! traversal (the classic "timestamp-free" sparse reset). [`HubCache`] is
//! the dense scatter of one hub's own label, reset the same way, and
//! [`HubCache::covered`] is the prune scan every label traversal runs at
//! each dequeue: one `O(|label|)` pass over the dequeued vertex's list,
//! with a scattered-distance read and a `min` per entry and no
//! data-dependent branch.

use crate::entry::LabelEntry;
use csc_graph::VertexId;
use std::collections::VecDeque;

/// Sentinel for "not visited".
pub const INF: u32 = u32::MAX;

/// Distance/count arrays plus the BFS queue, reusable across traversals.
#[derive(Clone, Debug)]
pub struct SearchState {
    /// Tentative distances (`INF` = unvisited).
    pub dist: Vec<u32>,
    /// Tentative shortest-path counts.
    pub count: Vec<u64>,
    /// FIFO queue of vertex ids.
    pub queue: VecDeque<u32>,
    touched: Vec<u32>,
}

impl SearchState {
    /// Creates state for `n` vertices.
    pub fn new(n: usize) -> Self {
        SearchState {
            dist: vec![INF; n],
            count: vec![0; n],
            queue: VecDeque::new(),
            touched: Vec::new(),
        }
    }

    /// Number of vertices the state covers.
    pub fn len(&self) -> usize {
        self.dist.len()
    }

    /// `true` if sized for zero vertices.
    pub fn is_empty(&self) -> bool {
        self.dist.is_empty()
    }

    /// Grows the state to cover at least `n` vertices.
    pub fn ensure(&mut self, n: usize) {
        if self.dist.len() < n {
            self.dist.resize(n, INF);
            self.count.resize(n, 0);
        }
    }

    /// Marks `v` visited with distance `d` and count `c` and records it for
    /// the sparse reset.
    #[inline]
    pub fn visit(&mut self, v: VertexId, d: u32, c: u64) {
        let i = v.index();
        debug_assert_eq!(self.dist[i], INF, "visit() on an already-visited vertex");
        self.dist[i] = d;
        self.count[i] = c;
        self.touched.push(v.0);
    }

    /// Adds `c` shortest paths to an already-visited vertex.
    #[inline]
    pub fn accumulate(&mut self, v: VertexId, c: u64) {
        let i = v.index();
        self.count[i] = self.count[i].saturating_add(c);
    }

    /// Overwrites distance/count of an already-visited vertex (dynamic
    /// passes relax distances downward).
    #[inline]
    pub fn relax(&mut self, v: VertexId, d: u32, c: u64) {
        let i = v.index();
        debug_assert_ne!(self.dist[i], INF, "relax() on an unvisited vertex");
        self.dist[i] = d;
        self.count[i] = c;
    }

    /// `true` if `v` has been visited since the last reset.
    #[inline]
    pub fn visited(&self, v: VertexId) -> bool {
        self.dist[v.index()] != INF
    }

    /// Clears only the touched entries and the queue (O(traversal size)).
    pub fn reset(&mut self) {
        for &v in &self.touched {
            self.dist[v as usize] = INF;
            self.count[v as usize] = 0;
        }
        self.touched.clear();
        self.queue.clear();
    }

    /// The vertices touched since the last reset (in visit order).
    pub fn touched(&self) -> &[u32] {
        &self.touched
    }

    /// Heap bytes held by the arrays and queue (capacity, not length —
    /// this is what the memory-budget accounting charges).
    pub fn heap_bytes(&self) -> usize {
        self.dist.capacity() * std::mem::size_of::<u32>()
            + self.count.capacity() * std::mem::size_of::<u64>()
            + self.queue.capacity() * std::mem::size_of::<u32>()
            + self.touched.capacity() * std::mem::size_of::<u32>()
    }
}

/// Dense scatter of one hub's own label: slot `r` holds the hub's distance
/// to or from the hub ranked `r`, and every slot the hub has no entry for
/// holds [`INF`].
///
/// A traversal from hub `v_k` fills it once with `v_k`'s own label on the
/// opposite side, then asks [`covered`](Self::covered) at every dequeued
/// vertex `w` for the shortest `v_k`–`w` distance through the scattered
/// hubs. A fill un-scatters only the ranks the previous fill set — the
/// sparse reset of [`SearchState`] — so a traversal pays for its hub's
/// label, never for the rank space.
#[derive(Clone, Debug)]
pub struct HubCache {
    dist: Vec<u32>,
    /// The ranks set since the last reset, for the sparse reset.
    set: Vec<u32>,
}

impl HubCache {
    /// Creates a cache keyed by ranks `0..n`, every slot unset.
    pub fn new(n: usize) -> Self {
        HubCache {
            dist: vec![INF; n],
            set: Vec::new(),
        }
    }

    /// Grows the cache to cover at least `n` ranks.
    pub fn ensure(&mut self, n: usize) {
        if self.dist.len() < n {
            self.dist.resize(n, INF);
        }
    }

    /// Un-scatters the previous fill: every slot it set reads [`INF`]
    /// again (`O(previous fill)`).
    fn begin(&mut self) {
        for &r in &self.set {
            self.dist[r as usize] = INF;
        }
        self.set.clear();
    }

    /// Replaces the cache's contents with the entries of `own` — a hub's
    /// own rank-sorted label list — whose hubs rank strictly above
    /// `hub_rank` (a smaller rank value). The hub's own slot stays [`INF`].
    pub fn fill(&mut self, own: &[LabelEntry], hub_rank: u32) {
        self.fill_from(own.iter().copied(), hub_rank);
    }

    /// [`fill`](Self::fill) from a list read entry by entry, in rank
    /// order, rather than stored as a slice.
    pub fn fill_from(&mut self, own: impl IntoIterator<Item = LabelEntry>, hub_rank: u32) {
        self.begin();
        for e in own {
            if e.hub_rank() >= hub_rank {
                break;
            }
            self.put(e.hub_rank(), e.dist());
        }
    }

    /// Sets the slot of `hub_rank` to `dist` until the next fill.
    #[inline]
    pub fn put(&mut self, hub_rank: u32, dist: u32) {
        self.dist[hub_rank as usize] = dist;
        self.set.push(hub_rank);
    }

    /// The prune scan: `min(slot[r] + d)` over the entries `(r, d, _)` of
    /// the rank-sorted `list` with `r <= max_rank` — the shortest distance
    /// through a hub that is both scattered and in `list` — or [`INF`] when
    /// there is none. An unset slot reads [`INF`] and the sum saturates, so
    /// every entry costs one load and one `min` whether it matches or not.
    #[inline]
    pub fn covered(&self, list: &[LabelEntry], max_rank: u32) -> u32 {
        let mut best = INF;
        for e in list {
            if e.hub_rank() > max_rank {
                break;
            }
            best = best.min(self.dist[e.hub_rank() as usize].saturating_add(e.dist()));
        }
        best
    }

    /// Heap bytes held by the scatter and reset arrays (capacity, not
    /// length).
    pub fn heap_bytes(&self) -> usize {
        (self.dist.capacity() + self.set.capacity()) * std::mem::size_of::<u32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u32) -> VertexId {
        VertexId(i)
    }

    #[test]
    fn visit_accumulate_reset() {
        let mut s = SearchState::new(4);
        s.visit(v(1), 0, 1);
        s.visit(v(2), 1, 1);
        s.accumulate(v(2), 2);
        assert!(s.visited(v(1)));
        assert_eq!(s.dist[2], 1);
        assert_eq!(s.count[2], 3);
        assert_eq!(s.touched(), &[1, 2]);
        s.reset();
        assert!(!s.visited(v(1)));
        assert!(!s.visited(v(2)));
        assert_eq!(s.count[2], 0);
        assert!(s.touched().is_empty());
    }

    #[test]
    fn relax_overwrites() {
        let mut s = SearchState::new(2);
        s.visit(v(0), 5, 9);
        s.relax(v(0), 3, 2);
        assert_eq!((s.dist[0], s.count[0]), (3, 2));
    }

    #[test]
    fn accumulate_saturates() {
        let mut s = SearchState::new(1);
        s.visit(v(0), 0, u64::MAX - 1);
        s.accumulate(v(0), 5);
        assert_eq!(s.count[0], u64::MAX);
    }

    #[test]
    fn ensure_grows() {
        let mut s = SearchState::new(1);
        s.ensure(10);
        assert_eq!(s.len(), 10);
        s.visit(v(9), 1, 1);
        assert!(s.visited(v(9)));
        s.ensure(5); // never shrinks
        assert_eq!(s.len(), 10);
    }

    fn entry(r: u32, d: u32) -> LabelEntry {
        LabelEntry::new(r, d, 1).unwrap()
    }

    #[test]
    fn hub_cache_begin_unscatters_the_previous_fill() {
        let mut c = HubCache::new(6);
        c.fill(&[entry(0, 3), entry(2, 7), entry(4, 1)], 5);
        c.put(5, 0);
        assert_eq!(c.dist, [3, INF, 7, INF, 1, 0]);
        c.begin();
        assert!(c.dist.iter().all(|&d| d == INF), "{:?}", c.dist);
        // A fill resets first, and keeps the hub's own slot unset.
        c.fill(&[entry(1, 2), entry(3, 0)], 3);
        c.fill(&[entry(0, 4), entry(3, 0)], 3);
        assert_eq!(c.dist, [4, INF, INF, INF, INF, INF]);
    }

    #[test]
    fn hub_cache_grows() {
        let mut c = HubCache::new(1);
        c.ensure(8);
        c.fill(&[entry(6, 2)], 7);
        c.put(7, 0);
        assert_eq!(c.covered(&[entry(6, 1), entry(7, 5)], 7), 3);
        c.ensure(4); // never shrinks
        assert_eq!(c.dist.len(), 8);
    }

    #[test]
    fn hub_cache_covered_matches_a_naive_minimum() {
        let n = 24u32;
        let mut s: u64 = 0x5eed;
        let mut next = |m: u64| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (s >> 33) % m
        };
        let mut c = HubCache::new(n as usize);
        for _ in 0..500 {
            // A random rank-sorted list (possibly empty) and a random fill
            // over a random subset of ranks (unset slots included).
            let mut list = Vec::new();
            let mut slots = Vec::new();
            for r in 0..n {
                if next(3) == 0 {
                    list.push(entry(r, next(40) as u32));
                }
                if next(2) == 0 {
                    slots.push((r, next(40) as u32));
                }
            }
            let own: Vec<LabelEntry> = slots.iter().map(|&(r, d)| entry(r, d)).collect();
            c.fill(&own, n);
            // `max_rank` ranges over the whole rank space and past its end.
            let max_rank = next(u64::from(n) + 2) as u32;
            let naive = list
                .iter()
                .filter(|e| e.hub_rank() <= max_rank)
                .filter_map(|e| {
                    let (_, d) = slots.iter().find(|&&(r, _)| r == e.hub_rank())?;
                    Some(d + e.dist())
                })
                .min()
                .unwrap_or(INF);
            assert_eq!(c.covered(&list, max_rank), naive, "{list:?} ≤ {max_rank}");
        }
        // The corners the random lists may miss.
        c.fill(&[entry(0, 1), entry(5, 1)], n);
        assert_eq!(c.covered(&[], n), INF, "empty list");
        assert_eq!(
            c.covered(&[entry(5, 2)], 4),
            INF,
            "max_rank below the first rank"
        );
        assert_eq!(c.covered(&[entry(3, 2)], n), INF, "unset slot");
        assert_eq!(c.covered(&[entry(0, 2), entry(5, 0)], 5), 1);
    }

    #[test]
    fn queue_reset() {
        let mut s = SearchState::new(3);
        s.queue.push_back(1);
        s.queue.push_back(2);
        s.reset();
        assert!(s.queue.is_empty());
    }
}
