//! Plain BFS primitives, brute-force oracles, and the reusable
//! [`TraversalWorkspace`] behind the dynamic-maintenance hot paths.
//!
//! The free functions ([`bfs_distances`], [`bfs_counts`], the oracles) are
//! deliberately simple, allocation-per-call implementations: the test
//! suites across the workspace use them as *ground truth* against which
//! the pruned/labeled algorithms are validated, so they must be obviously
//! correct rather than fast.
//!
//! [`TraversalWorkspace`] is the fast counterpart for callers that run
//! many endpoint sweeps per operation (deletion classification runs six
//! per deleted edge): a pool of epoch-versioned [`DistMap`]s whose clear
//! is `O(1)`, a preallocated FIFO, a [`bfs_bounded`] variant that stops at
//! the affected cone instead of exhausting the graph, and a recyclable
//! [`BucketQueue`] for the multi-source repair passes in `csc-core`.
//!
//! [`bfs_bounded`]: TraversalWorkspace::bfs_bounded

use crate::digraph::DiGraph;
use crate::vertex::VertexId;
use std::collections::VecDeque;

/// Sentinel distance for "not reached" in [`DistMap`] lookups.
pub const UNREACHED: u32 = u32::MAX;

/// An epoch-versioned distance array: `clear` is a counter bump, not a
/// fill, so a sweep over a tiny cone pays for the cone only.
///
/// Entries written in an older epoch read back as [`UNREACHED`]; the
/// stamp array makes that exact (no sentinel aliasing). The epoch counter
/// lives in the map itself, so maps are independent — a
/// [`TraversalWorkspace`] hands out several at once, all valid until the
/// pool is released.
#[derive(Clone, Debug, Default)]
pub struct DistMap {
    dist: Vec<u32>,
    stamp: Vec<u32>,
    epoch: u32,
    /// Largest distance recorded this epoch (0 when nothing is set).
    max_dist: u32,
}

impl DistMap {
    /// Grows the map to cover at least `n` vertices.
    pub fn ensure(&mut self, n: usize) {
        if self.dist.len() < n {
            self.dist.resize(n, 0);
            self.stamp.resize(n, 0);
        }
    }

    /// Starts a new epoch: previous contents become [`UNREACHED`], in O(1).
    pub fn clear(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Wrapped after 2^32 sweeps: hard-reset so stale stamps cannot
            // alias the new epoch.
            self.stamp.fill(0);
            self.epoch = 1;
        }
        self.max_dist = 0;
    }

    /// The recorded distance of `v`, or [`UNREACHED`].
    #[inline]
    pub fn get(&self, v: VertexId) -> u32 {
        let i = v.index();
        if self.stamp[i] == self.epoch {
            self.dist[i]
        } else {
            UNREACHED
        }
    }

    /// `true` if `v` was reached this epoch.
    #[inline]
    pub fn reached(&self, v: VertexId) -> bool {
        self.stamp[v.index()] == self.epoch
    }

    #[inline]
    fn set(&mut self, v: VertexId, d: u32) {
        let i = v.index();
        self.dist[i] = d;
        self.stamp[i] = self.epoch;
        self.max_dist = self.max_dist.max(d);
    }

    /// Largest finite distance recorded since the last [`clear`](Self::clear)
    /// — the source's eccentricity after a full sweep, and the natural
    /// truncation bound for a follow-up [`bfs_bounded`] over a shrunken
    /// graph (post-deletion distances at the surviving vertices either
    /// match the old ones or exceed this bound).
    ///
    /// [`bfs_bounded`]: TraversalWorkspace::bfs_bounded
    #[inline]
    pub fn max_dist(&self) -> u32 {
        self.max_dist
    }

    /// Heap bytes held by this map (distance + stamp arrays).
    pub fn heap_bytes(&self) -> usize {
        (self.dist.capacity() + self.stamp.capacity()) * std::mem::size_of::<u32>()
    }
}

/// A handle into a [`TraversalWorkspace`]'s map pool, returned by the
/// sweep methods. Plain index semantics: valid until the next
/// [`release_all`](TraversalWorkspace::release_all).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SweepHandle(usize);

/// A reusable pool of [`DistMap`]s plus a shared BFS queue.
///
/// Deletion repair needs several distance maps *alive at once* (pre- and
/// post-deletion sweeps from every affected endpoint), which rules out one
/// shared stamp array. The workspace instead pools whole maps: a sweep
/// claims the next free map (allocating only on first use at each depth),
/// and [`release_all`](Self::release_all) returns every map to the pool
/// without freeing — steady-state windows run allocation-free.
///
/// The epoch counters are owned by the individual maps; the workspace
/// never resets them behind a handle's back, so handles stay valid across
/// further sweeps until the explicit release. A snapshot/rebuild boundary
/// must not retain handles (the maps are sized for the *current* graph);
/// `csc-core` threads one workspace per live index and drops it with the
/// index, which enforces that by construction.
#[derive(Debug, Default)]
pub struct TraversalWorkspace {
    maps: Vec<DistMap>,
    /// Maps handed out since the last release.
    live: usize,
    queue: VecDeque<u32>,
    /// Vertex capacity maps are grown to on claim.
    n: usize,
    buckets: BucketQueue,
}

impl TraversalWorkspace {
    /// Creates a workspace for graphs of up to `n` vertices (grows on
    /// demand either way).
    pub fn new(n: usize) -> Self {
        TraversalWorkspace {
            n,
            ..Default::default()
        }
    }

    /// Grows the vertex capacity applied to subsequently claimed maps.
    pub fn ensure(&mut self, n: usize) {
        if self.n < n {
            self.n = n;
        }
    }

    /// Returns every claimed map to the pool. Outstanding
    /// [`SweepHandle`]s must not be used afterwards.
    pub fn release_all(&mut self) {
        self.live = 0;
    }

    /// Number of maps currently claimed.
    pub fn live(&self) -> usize {
        self.live
    }

    /// The reusable multi-source bucket queue (for `csc-core`'s repair
    /// passes; independent of the map pool).
    pub fn buckets_mut(&mut self) -> &mut BucketQueue {
        &mut self.buckets
    }

    /// Splits the workspace into a read-only view of the claimed maps and
    /// the mutable bucket queue, so a caller can consult earlier sweeps
    /// while running bucket-queue passes.
    pub fn split_mut(&mut self) -> (SweepMaps<'_>, &mut BucketQueue) {
        (SweepMaps { maps: &self.maps }, &mut self.buckets)
    }

    fn claim(&mut self) -> usize {
        if self.live == self.maps.len() {
            self.maps.push(DistMap::default());
        }
        let i = self.live;
        self.live += 1;
        self.maps[i].ensure(self.n);
        self.maps[i].clear();
        i
    }

    /// Full single-source BFS following edges forward (`true`) or
    /// backward, into a pooled map.
    pub fn bfs(&mut self, g: &DiGraph, src: VertexId, forward: bool) -> SweepHandle {
        self.bfs_bounded(g, src, forward, UNREACHED)
    }

    /// Single-source BFS truncated at distance `limit`: vertices farther
    /// than `limit` are left [`UNREACHED`].
    ///
    /// The intended use is cone-bounded re-classification: after a batch
    /// of deletions, a vertex's distance to an endpoint either equals its
    /// pre-deletion value or grew, so sweeping the *post* graph bounded by
    /// the pre-sweep's [`max_dist`](DistMap::max_dist) classifies every
    /// vertex exactly (found-and-equal = unchanged, found-and-larger or
    /// truncated = grown) without walking the long post-deletion tail.
    pub fn bfs_bounded(
        &mut self,
        g: &DiGraph,
        src: VertexId,
        forward: bool,
        limit: u32,
    ) -> SweepHandle {
        self.ensure(g.vertex_count());
        let h = self.claim();
        let map = &mut self.maps[h];
        self.queue.clear();
        map.set(src, 0);
        self.queue.push_back(src.0);
        while let Some(w) = self.queue.pop_front() {
            let dw = map.get(VertexId(w));
            if dw >= limit {
                continue;
            }
            let nbrs = if forward {
                g.nbr_out(VertexId(w))
            } else {
                g.nbr_in(VertexId(w))
            };
            for &u in nbrs {
                if !map.reached(VertexId(u)) {
                    map.set(VertexId(u), dw + 1);
                    self.queue.push_back(u);
                }
            }
        }
        SweepHandle(h)
    }

    /// Approximate heap bytes held by the workspace: every pooled map
    /// (claimed or free), the shared FIFO, and the bucket queue. Feeds
    /// the engine-level memory budget accounting.
    pub fn heap_bytes(&self) -> usize {
        self.maps.iter().map(DistMap::heap_bytes).sum::<usize>()
            + self.queue.capacity() * std::mem::size_of::<u32>()
            + self.buckets.heap_bytes()
    }

    /// The map behind a handle.
    #[inline]
    pub fn map(&self, h: SweepHandle) -> &DistMap {
        &self.maps[h.0]
    }

    /// Full single-source BFS that records the *tree* (discovery parents)
    /// instead of distances — the sampling primitive behind the
    /// coverage-sampled hub order (see `order::coverage_sampling_order`).
    ///
    /// The visited set is a pooled [`DistMap`] claimed and recycled
    /// internally (no handle escapes), so repeated calls on one workspace
    /// run allocation-free apart from the returned tree itself. The tree
    /// is canonical: neighbors are scanned in adjacency order, so the
    /// result depends only on the graph, `src`, and `forward`.
    pub fn bfs_tree(&mut self, g: &DiGraph, src: VertexId, forward: bool) -> BfsTree {
        self.ensure(g.vertex_count());
        let live_before = self.live;
        let h = self.claim();
        let map = &mut self.maps[h];
        let mut nodes: Vec<u32> = vec![src.0];
        let mut parent: Vec<u32> = vec![u32::MAX];
        map.set(src, 0);
        let mut head = 0usize;
        while head < nodes.len() {
            let w = VertexId(nodes[head]);
            let dw = map.get(w);
            let nbrs = if forward { g.nbr_out(w) } else { g.nbr_in(w) };
            for &u in nbrs {
                if !map.reached(VertexId(u)) {
                    map.set(VertexId(u), dw + 1);
                    parent.push(head as u32);
                    nodes.push(u);
                }
            }
            head += 1;
        }
        // BFS appends each popped node's undiscovered neighbors
        // consecutively, so the children of node `i` occupy one contiguous
        // range and the (root-excluded) parent array is non-decreasing:
        // one scan derives every range.
        let len = nodes.len();
        let mut child_start = vec![0u32; len + 1];
        let mut j = 1usize;
        for (i, slot) in child_start.iter_mut().enumerate().take(len) {
            *slot = j as u32;
            while j < len && parent[j] as usize == i {
                j += 1;
            }
        }
        child_start[len] = len as u32;
        // The visited map was scratch only: un-claim it so the caller's
        // outstanding handles and pool occupancy are untouched.
        self.live = live_before;
        BfsTree {
            nodes,
            parent,
            child_start,
        }
    }
}

/// A single-source BFS tree in discovery order, built by
/// [`TraversalWorkspace::bfs_tree`].
///
/// Node `i` is the `i`-th discovered vertex (node 0 is the root). Parents
/// precede children, and each node's children occupy one contiguous index
/// range — the two structural facts the coverage-sampling order exploits
/// for linear-time subtree accumulation and stack-based subtree cuts.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BfsTree {
    /// Vertex ids in discovery (BFS) order.
    nodes: Vec<u32>,
    /// Parent *node index* of each node; `u32::MAX` at the root.
    parent: Vec<u32>,
    /// `child_start[i]..child_start[i + 1]` are node `i`'s children.
    child_start: Vec<u32>,
}

impl BfsTree {
    /// Number of vertices reached (the root is always included).
    #[inline]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` only for a default-constructed tree; a built tree always
    /// holds at least its root.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The vertex at node index `i`.
    #[inline]
    pub fn vertex(&self, i: usize) -> VertexId {
        VertexId(self.nodes[i])
    }

    /// The parent node index of node `i`, or `None` at the root.
    #[inline]
    pub fn parent(&self, i: usize) -> Option<usize> {
        let p = self.parent[i];
        (p != u32::MAX).then_some(p as usize)
    }

    /// The node-index range of node `i`'s children.
    #[inline]
    pub fn children(&self, i: usize) -> std::ops::Range<usize> {
        self.child_start[i] as usize..self.child_start[i + 1] as usize
    }
}

/// A read-only view of a [`TraversalWorkspace`]'s claimed maps (see
/// [`TraversalWorkspace::split_mut`]).
#[derive(Clone, Copy, Debug)]
pub struct SweepMaps<'a> {
    maps: &'a [DistMap],
}

impl<'a> SweepMaps<'a> {
    /// The map behind a handle; the reference lives as long as the view's
    /// borrow of the workspace, not the view value itself.
    #[inline]
    pub fn map(self, h: SweepHandle) -> &'a DistMap {
        &self.maps[h.0]
    }
}

/// A checkout pool of per-worker traversal workspaces for parallel
/// passes.
///
/// The coverage-sampled ordering's tree sweep hands every worker its own
/// [`TraversalWorkspace`]: a worker checks a workspace out, runs its
/// traversals, and the guard returns it on drop for the next task to
/// reuse. Because the pooled workspaces are epoch-stamped ([`DistMap`]
/// reuse is a stamp bump, not a fill), checkout is O(1) and a steady
/// sweep runs allocation-free regardless of which worker previously used
/// a given workspace. The pool itself is `Sync`: checkouts only contend
/// on one short-lived lock around the free list.
#[derive(Debug, Default)]
pub struct WorkspacePool {
    free: std::sync::Mutex<Vec<TraversalWorkspace>>,
}

impl WorkspacePool {
    /// Creates an empty pool; workspaces are built on first checkout.
    pub fn new() -> Self {
        WorkspacePool {
            free: std::sync::Mutex::new(Vec::new()),
        }
    }

    /// Checks out a traversal workspace sized for `n` vertices, building
    /// a fresh one when the free list is empty. The guard returns it on
    /// drop.
    pub fn checkout(&self, n: usize) -> PooledWorkspace<'_> {
        let free = self.free.lock().unwrap().pop();
        let ws = free.unwrap_or_else(|| TraversalWorkspace::new(n));
        let mut guard = PooledWorkspace {
            pool: self,
            ws: Some(ws),
        };
        guard.ensure(n);
        guard
    }
}

/// An exclusive loan of one pooled workspace (see [`WorkspacePool`]).
#[derive(Debug)]
pub struct PooledWorkspace<'a> {
    pool: &'a WorkspacePool,
    ws: Option<TraversalWorkspace>,
}

impl std::ops::Deref for PooledWorkspace<'_> {
    type Target = TraversalWorkspace;
    fn deref(&self) -> &TraversalWorkspace {
        self.ws.as_ref().expect("workspace present until drop")
    }
}

impl std::ops::DerefMut for PooledWorkspace<'_> {
    fn deref_mut(&mut self) -> &mut TraversalWorkspace {
        self.ws.as_mut().expect("workspace present until drop")
    }
}

impl Drop for PooledWorkspace<'_> {
    fn drop(&mut self) {
        if let Some(ws) = self.ws.take() {
            self.pool.free.lock().unwrap().push(ws);
        }
    }
}

/// A monotone bucket queue for multi-source unit-weight traversals,
/// recyclable across passes (bucket capacity is retained).
///
/// Levels are relative: the caller picks a base distance and pushes each
/// vertex at `distance - base`. Stale entries (superseded by a downward
/// relaxation) are the caller's concern — re-check the recorded distance
/// at pop, as `csc-core`'s repair passes do.
#[derive(Debug, Default)]
pub struct BucketQueue {
    levels: Vec<Vec<u32>>,
    /// Levels touched since the last reset (`levels[depth..]` are clean).
    depth: usize,
}

impl BucketQueue {
    /// Empties every touched level, keeping capacity.
    pub fn reset(&mut self) {
        for level in &mut self.levels[..self.depth] {
            level.clear();
        }
        self.depth = 0;
    }

    /// Pushes `v` onto `level`.
    pub fn push(&mut self, level: usize, v: u32) {
        if self.levels.len() <= level {
            self.levels.resize_with(level + 1, Vec::new);
        }
        self.levels[level].push(v);
        self.depth = self.depth.max(level + 1);
    }

    /// One past the deepest non-clean level.
    #[inline]
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Entries in `level` so far (grows while the level is iterated).
    #[inline]
    pub fn len_at(&self, level: usize) -> usize {
        self.levels[level].len()
    }

    /// The `i`-th entry of `level`.
    #[inline]
    pub fn at(&self, level: usize, i: usize) -> u32 {
        self.levels[level][i]
    }

    /// Heap bytes held across all retained levels.
    pub fn heap_bytes(&self) -> usize {
        self.levels
            .iter()
            .map(|l| l.capacity() * std::mem::size_of::<u32>())
            .sum::<usize>()
            + self.levels.capacity() * std::mem::size_of::<Vec<u32>>()
    }
}

/// Unweighted single-source shortest distances; `None` marks unreachable.
pub fn bfs_distances(g: &DiGraph, src: VertexId) -> Vec<Option<u32>> {
    bfs_distances_dir(g, src, true)
}

/// Single-source distances following edges forward (`true`) or backward.
pub fn bfs_distances_dir(g: &DiGraph, src: VertexId, forward: bool) -> Vec<Option<u32>> {
    let mut dist = vec![None; g.vertex_count()];
    dist[src.index()] = Some(0);
    let mut queue = VecDeque::new();
    queue.push_back(src);
    while let Some(w) = queue.pop_front() {
        let dw = dist[w.index()].expect("queued vertices have distances");
        let nbrs = if forward { g.nbr_out(w) } else { g.nbr_in(w) };
        for &u in nbrs {
            if dist[u as usize].is_none() {
                dist[u as usize] = Some(dw + 1);
                queue.push_back(VertexId(u));
            }
        }
    }
    dist
}

/// Single-source shortest distances *and* shortest-path counts.
///
/// Counts use saturating arithmetic: in adversarial layered graphs the
/// number of shortest paths grows exponentially.
pub fn bfs_counts(g: &DiGraph, src: VertexId, forward: bool) -> Vec<(Option<u32>, u64)> {
    let n = g.vertex_count();
    let mut dist: Vec<Option<u32>> = vec![None; n];
    let mut count: Vec<u64> = vec![0; n];
    dist[src.index()] = Some(0);
    count[src.index()] = 1;
    let mut queue = VecDeque::new();
    queue.push_back(src);
    while let Some(w) = queue.pop_front() {
        let dw = dist[w.index()].expect("queued vertices have distances");
        let cw = count[w.index()];
        let nbrs = if forward { g.nbr_out(w) } else { g.nbr_in(w) };
        for &u in nbrs {
            let u = u as usize;
            match dist[u] {
                None => {
                    dist[u] = Some(dw + 1);
                    count[u] = cw;
                    queue.push_back(VertexId(u as u32));
                }
                Some(du) if du == dw + 1 => {
                    count[u] = count[u].saturating_add(cw);
                }
                Some(_) => {}
            }
        }
    }
    dist.into_iter().zip(count).collect()
}

/// Brute-force `SPCnt(s, t)`: `(shortest distance, number of shortest
/// paths)`, or `None` if `t` is unreachable from `s`.
pub fn sp_count_pair(g: &DiGraph, s: VertexId, t: VertexId) -> Option<(u32, u64)> {
    let res = bfs_counts(g, s, true);
    let (d, c) = res[t.index()];
    d.map(|d| (d, c))
}

/// Brute-force `SCCnt(v)`: `(shortest cycle length, number of shortest
/// cycles through v)`, or `None` if no cycle passes through `v`.
///
/// Decomposes each cycle by its unique first edge `v -> w`: a shortest
/// cycle of length `L` through `v` is an edge `v -> w` plus a shortest
/// `w ~> v` path of length `L - 1`, and distinct `(w, path)` pairs are in
/// bijection with distinct cycles. Cost is `O(out_degree(v) * (n + m))`.
pub fn shortest_cycle_oracle(g: &DiGraph, v: VertexId) -> Option<(u32, u64)> {
    let mut best: Option<(u32, u64)> = None;
    for &w in g.nbr_out(v) {
        if let Some((d, c)) = sp_count_pair(g, VertexId(w), v) {
            let len = d + 1;
            match &mut best {
                Some((bl, bc)) => {
                    if len < *bl {
                        *bl = len;
                        *bc = c;
                    } else if len == *bl {
                        *bc = bc.saturating_add(c);
                    }
                }
                None => best = Some((len, c)),
            }
        }
    }
    best
}

/// Vertices reachable from `src` (including `src`), as a boolean mask.
pub fn reachable_from(g: &DiGraph, src: VertexId) -> Vec<bool> {
    bfs_distances(g, src)
        .into_iter()
        .map(|d| d.is_some())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u32) -> VertexId {
        VertexId(i)
    }

    #[test]
    fn distances_on_a_path() {
        let g = DiGraph::from_edges(4, vec![(0, 1), (1, 2), (2, 3)]);
        let d = bfs_distances(&g, v(0));
        assert_eq!(d, vec![Some(0), Some(1), Some(2), Some(3)]);
        let back = bfs_distances_dir(&g, v(3), false);
        assert_eq!(back, vec![Some(3), Some(2), Some(1), Some(0)]);
    }

    #[test]
    fn unreachable_is_none() {
        let g = DiGraph::from_edges(3, vec![(0, 1)]);
        let d = bfs_distances(&g, v(0));
        assert_eq!(d[2], None);
    }

    #[test]
    fn counts_on_a_diamond() {
        // 0 -> {1, 2} -> 3: two shortest paths 0 ~> 3.
        let g = DiGraph::from_edges(4, vec![(0, 1), (0, 2), (1, 3), (2, 3)]);
        let res = bfs_counts(&g, v(0), true);
        assert_eq!(res[3], (Some(2), 2));
        assert_eq!(sp_count_pair(&g, v(0), v(3)), Some((2, 2)));
        // Backward from 3 matches.
        let res = bfs_counts(&g, v(3), false);
        assert_eq!(res[0], (Some(2), 2));
    }

    #[test]
    fn counts_ignore_longer_paths() {
        // 0 -> 1 -> 3 and 0 -> 2 -> 4 -> 3: only the length-2 path counts.
        let g = DiGraph::from_edges(5, vec![(0, 1), (1, 3), (0, 2), (2, 4), (4, 3)]);
        assert_eq!(sp_count_pair(&g, v(0), v(3)), Some((2, 1)));
    }

    #[test]
    fn cycle_oracle_on_triangle_with_chord() {
        // Triangle 0->1->2->0 plus chord 0->2: shortest cycle through 0 has
        // length 2? No — no mutual edges here; cycles through 0:
        // 0->1->2->0 (len 3) and 0->2->0? no edge 2->0... there is (2,0).
        // 0->2->0 needs (0,2) and (2,0): both exist -> length 2.
        let g = DiGraph::from_edges(3, vec![(0, 1), (1, 2), (2, 0), (0, 2)]);
        assert_eq!(shortest_cycle_oracle(&g, v(0)), Some((2, 1)));
        // Through vertex 1 the only cycle is the triangle.
        assert_eq!(shortest_cycle_oracle(&g, v(1)), Some((3, 1)));
    }

    #[test]
    fn cycle_oracle_none_on_dag() {
        let g = DiGraph::from_edges(4, vec![(0, 1), (1, 2), (0, 2), (2, 3)]);
        for i in 0..4 {
            assert_eq!(shortest_cycle_oracle(&g, v(i)), None);
        }
    }

    #[test]
    fn cycle_oracle_counts_parallel_cycles() {
        // Two vertex-disjoint length-3 cycles through 0.
        let g = DiGraph::from_edges(5, vec![(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)]);
        assert_eq!(shortest_cycle_oracle(&g, v(0)), Some((3, 2)));
    }

    #[test]
    fn figure2_cycle_counts_match_example_1() {
        // Example 1: SCCnt(v7) = 3 with cycle length 6.
        let g = crate::fixtures::figure2();
        let v7 = crate::fixtures::pv(7);
        assert_eq!(shortest_cycle_oracle(&g, v7), Some((6, 3)));
    }

    #[test]
    fn figure2_spcnt_matches_example_2_and_3() {
        let g = crate::fixtures::figure2();
        let pv = crate::fixtures::pv;
        // Example 2: SPCnt(v10, v8) = 3 with length 4.
        assert_eq!(sp_count_pair(&g, pv(10), pv(8)), Some((4, 3)));
        // Example 3: SPCnt(v7, v4) = 2 @ 5; (v7, v5) = 1 @ 5; (v7, v6) = 1 @ 6.
        assert_eq!(sp_count_pair(&g, pv(7), pv(4)), Some((5, 2)));
        assert_eq!(sp_count_pair(&g, pv(7), pv(5)), Some((5, 1)));
        assert_eq!(sp_count_pair(&g, pv(7), pv(6)), Some((6, 1)));
    }

    #[test]
    fn reachability_mask() {
        let g = DiGraph::from_edges(4, vec![(0, 1), (1, 2)]);
        assert_eq!(reachable_from(&g, v(0)), vec![true, true, true, false]);
    }

    #[test]
    fn workspace_sweeps_match_plain_bfs() {
        let g = crate::generators::gnm(30, 90, 5);
        let mut ws = TraversalWorkspace::new(g.vertex_count());
        for src in [v(0), v(7), v(29)] {
            for forward in [true, false] {
                let h = ws.bfs(&g, src, forward);
                let reference = bfs_distances_dir(&g, src, forward);
                let mut max = 0;
                for x in g.vertices() {
                    let got = ws.map(h).get(x);
                    match reference[x.index()] {
                        Some(d) => {
                            assert_eq!(got, d, "{src}->{x} fwd={forward}");
                            max = max.max(d);
                        }
                        None => assert_eq!(got, UNREACHED),
                    }
                }
                assert_eq!(ws.map(h).max_dist(), max);
            }
        }
        // Six sweeps claimed six maps; release recycles them all.
        assert_eq!(ws.live(), 6);
        ws.release_all();
        assert_eq!(ws.live(), 0);
        let h = ws.bfs(&g, v(3), true);
        assert_eq!(ws.live(), 1);
        assert_eq!(ws.map(h).get(v(3)), 0);
    }

    #[test]
    fn pooled_maps_stay_valid_together() {
        // Two concurrent sweeps must not clobber each other.
        let g = DiGraph::from_edges(4, vec![(0, 1), (1, 2), (2, 3), (3, 0)]);
        let mut ws = TraversalWorkspace::new(4);
        let fwd = ws.bfs(&g, v(0), true);
        let bwd = ws.bfs(&g, v(0), false);
        assert_eq!(ws.map(fwd).get(v(3)), 3);
        assert_eq!(ws.map(bwd).get(v(3)), 1);
    }

    #[test]
    fn bounded_bfs_truncates_at_the_limit() {
        let g = DiGraph::from_edges(6, vec![(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]);
        let mut ws = TraversalWorkspace::new(6);
        let h = ws.bfs_bounded(&g, v(0), true, 2);
        assert_eq!(ws.map(h).get(v(2)), 2, "the limit itself is recorded");
        assert_eq!(ws.map(h).get(v(3)), UNREACHED, "beyond the limit is not");
        assert_eq!(ws.map(h).max_dist(), 2);
    }

    #[test]
    fn bfs_tree_shape_on_a_diamond() {
        // 0 -> {1, 2} -> 3: node order 0, 1, 2, 3; 3 is discovered via 1.
        let g = DiGraph::from_edges(4, vec![(0, 1), (0, 2), (1, 3), (2, 3)]);
        let mut ws = TraversalWorkspace::new(4);
        let t = ws.bfs_tree(&g, v(0), true);
        assert_eq!(t.len(), 4);
        assert!(!t.is_empty());
        assert_eq!(
            (0..4).map(|i| t.vertex(i).0).collect::<Vec<_>>(),
            vec![0, 1, 2, 3]
        );
        assert_eq!(t.parent(0), None);
        assert_eq!(t.parent(1), Some(0));
        assert_eq!(t.parent(2), Some(0));
        assert_eq!(t.parent(3), Some(1), "first discovery wins");
        assert_eq!(t.children(0), 1..3);
        assert_eq!(t.children(1), 3..4);
        assert_eq!(t.children(2), 4..4);
        assert_eq!(t.children(3), 4..4);
        // The scratch map was recycled: no live handles remain.
        assert_eq!(ws.live(), 0);
        // Backward tree from 3 mirrors the structure.
        let b = ws.bfs_tree(&g, v(3), false);
        assert_eq!(b.vertex(0), v(3));
        assert_eq!(b.len(), 4);
        assert_eq!(b.parent(3), Some(1), "0 discovered via 1 (adjacency order)");
    }

    #[test]
    fn bfs_tree_matches_bfs_distances() {
        let g = crate::generators::gnm(40, 120, 9);
        let mut ws = TraversalWorkspace::new(g.vertex_count());
        for src in [v(0), v(13), v(39)] {
            for forward in [true, false] {
                let t = ws.bfs_tree(&g, src, forward);
                let reference = bfs_distances_dir(&g, src, forward);
                let reached = reference.iter().filter(|d| d.is_some()).count();
                assert_eq!(t.len(), reached, "tree spans exactly the reachable set");
                // Depth along parent pointers equals the BFS distance.
                for i in 0..t.len() {
                    let mut depth = 0u32;
                    let mut a = i;
                    while let Some(p) = t.parent(a) {
                        depth += 1;
                        a = p;
                    }
                    assert_eq!(Some(depth), reference[t.vertex(i).index()]);
                }
                // Child ranges partition 1..len and invert parent().
                let mut seen = vec![false; t.len()];
                for i in 0..t.len() {
                    for c in t.children(i) {
                        assert!(!seen[c]);
                        seen[c] = true;
                        assert_eq!(t.parent(c), Some(i));
                    }
                }
                assert!(seen[1..].iter().all(|&s| s));
            }
        }
    }

    #[test]
    fn distmap_epoch_clear_is_exact() {
        let mut m = DistMap::default();
        m.ensure(3);
        m.clear();
        m.set(v(1), 7);
        assert_eq!(m.get(v(1)), 7);
        assert!(m.reached(v(1)));
        assert_eq!(m.max_dist(), 7);
        m.clear();
        assert_eq!(m.get(v(1)), UNREACHED);
        assert!(!m.reached(v(1)));
        assert_eq!(m.max_dist(), 0);
    }

    #[test]
    fn bucket_queue_recycles_capacity() {
        let mut q = BucketQueue::default();
        q.push(2, 9);
        q.push(0, 4);
        q.push(2, 5);
        assert_eq!(q.depth(), 3);
        assert_eq!(q.len_at(0), 1);
        assert_eq!(q.len_at(1), 0);
        assert_eq!((q.at(2, 0), q.at(2, 1)), (9, 5));
        q.reset();
        assert_eq!(q.depth(), 0);
        q.push(1, 3);
        assert_eq!(q.depth(), 2);
        assert_eq!(q.len_at(0), 0, "reset cleared the old level 0");
        assert_eq!(q.at(1, 0), 3);
    }
}
