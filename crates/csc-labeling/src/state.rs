//! Reusable search state for the pruned-BFS label constructions.
//!
//! One labeling run performs `n` BFS traversals; allocating distance/count
//! arrays per hub would dominate the runtime. [`SearchState`] keeps the
//! arrays alive and resets only the entries touched by the previous
//! traversal (the classic "timestamp-free" sparse reset). [`HubCache`] is
//! the dense scatter of one hub's own label, reset the same way, and
//! [`HubCache::scan`] is the prune test every label traversal runs at each
//! dequeue: one pass over the dequeued vertex's list, a scattered-distance
//! read per entry, that stops at the first entry proving a shorter path
//! and otherwise ends at the pass hub's own entry.

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
}

/// What [`HubCache::scan`] found at a dequeued vertex.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scan {
    /// A scattered hub proves a path strictly shorter than the visit's.
    Pruned,
    /// No scattered hub beats the visit.
    Kept {
        /// Some scattered hub matches the visit's distance exactly (a
        /// non-canonical visit).
        tie: bool,
        /// The list's entry for the pass hub, if it holds one.
        own: Option<LabelEntry>,
    },
}

/// Dense scatter of one hub's own label: slot `r` holds the hub's distance
/// to or from the hub ranked `r`, and every slot the hub has no entry for
/// holds [`INF`].
///
/// A traversal from hub `v_k` fills it once with `v_k`'s own label on the
/// opposite side, then [`scan`](Self::scan)s every dequeued vertex `w`'s
/// list: is some scattered hub on a `v_k`–`w` path shorter than the
/// visit's, or as short, and what entry does `w` already hold for `v_k`?
/// A fill un-scatters only the ranks the previous fill set — the sparse
/// reset of [`SearchState`] — so a traversal pays for its hub's label,
/// never for the rank space.
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

    /// The prune test of a visit at distance `dist` from the pass hub
    /// ranked `hub_rank`, over `list`, the visited vertex's rank-sorted
    /// label on the side the pass writes. An entry `(r, d, _)` proves a
    /// path of length `slot[r] + d` through hub `r` (an unset slot reads
    /// [`INF`] and the sum saturates).
    ///
    /// Returns [`Scan::Pruned`] at the first entry whose path is strictly
    /// shorter than `dist`. Otherwise the scan reads every entry up to
    /// `hub_rank`, and [`Scan::Kept`] carries whether some path matched
    /// `dist` exactly and the list's entry at `hub_rank`, which is the
    /// last entry it reads. Every scattered rank is at most
    /// `hub_rank` (a hub's own label holds only higher-ranked hubs and
    /// itself), so no entry past it could prove a path. Only the own
    /// slot's setting decides whether the pass hub's stored entry takes
    /// part: the couple BFS leaves it unset, the resumed repair passes set
    /// it to 0.
    #[inline]
    pub fn scan(&self, list: &[LabelEntry], hub_rank: u32, dist: u32) -> Scan {
        // The slots a scan may read: one lookup per entry both bounds the
        // read and ends the scan past `hub_rank`.
        let slots = &self.dist[..self.dist.len().min(hub_rank as usize + 1)];
        let mut tie = false;
        let mut read = 0;
        for e in list {
            let Some(&slot) = slots.get(e.hub_rank() as usize) else {
                break;
            };
            let through = slot.saturating_add(e.dist());
            if through < dist {
                return Scan::Pruned;
            }
            tie |= through == dist;
            read += 1;
        }
        let own = list[..read].last().filter(|e| e.hub_rank() == hub_rank);
        Scan::Kept {
            tie,
            own: own.copied(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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
        let list = [entry(6, 1), entry(7, 5)];
        assert_eq!(c.scan(&list, 7, 4), Scan::Pruned);
        let own = Some(entry(7, 5));
        assert_eq!(c.scan(&list, 7, 3), Scan::Kept { tie: true, own });
        c.ensure(4); // never shrinks
        assert_eq!(c.dist.len(), 8);
    }

    proptest! {
        /// The scan against a naive minimum of `slot[r] + d` over the
        /// list's entries up to the hub's rank. Fills are random subsets
        /// of the rank space, so the hub's own slot is set in some cases,
        /// as the repair passes set it, and unset in others; hub ranks run
        /// over the rank space and past its end.
        #[test]
        fn hub_cache_scan_matches_a_naive_minimum(
            list in proptest::collection::btree_map(0u32..24, 0u32..40, 0..16),
            slots in proptest::collection::btree_map(0u32..24, 0u32..40, 0..16),
            hub_rank in 0u32..26,
            dist in 0u32..90,
        ) {
            let list: Vec<LabelEntry> = list.iter().map(|(&r, &d)| entry(r, d)).collect();
            let own: Vec<LabelEntry> = slots.iter().map(|(&r, &d)| entry(r, d)).collect();
            let mut c = HubCache::new(24);
            c.fill(&own, 24);
            let naive = list
                .iter()
                .filter(|e| e.hub_rank() <= hub_rank)
                .filter_map(|e| slots.get(&e.hub_rank()).map(|&s| s + e.dist()))
                .min();
            let want = match naive {
                Some(m) if m < dist => Scan::Pruned,
                _ => Scan::Kept {
                    tie: naive == Some(dist),
                    own: list.iter().find(|e| e.hub_rank() == hub_rank).copied(),
                },
            };
            prop_assert_eq!(c.scan(&list, hub_rank, dist), want);
        }
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
