//! Total vertex orders (ranks) for the labeling cover constraint.
//!
//! Hub labeling requires a total order `<` over vertices; a label `(v, d, c)`
//! is only ever stored at vertices ranked *below* `v`. Orders that put
//! "central" vertices first produce dramatically smaller indexes, and the
//! paper (Example 4) uses the classic degree order. Ranks are dense `u32`s
//! with **smaller rank = higher importance**.

use crate::digraph::DiGraph;
use crate::traversal::{BfsTree, TraversalWorkspace};
use crate::vertex::VertexId;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicUsize, Ordering as AtomicOrdering};

/// A rank (position in the total order); rank 0 is the most important hub.
pub type Rank = u32;

/// Default `samples_per_log_n` for [`OrderingStrategy::CoverageSampling`]
/// (lviennot's `const_log_n`): enough trees that the coverage estimate is
/// stable, few enough that sampling stays a small fraction of build time.
pub const DEFAULT_SAMPLES_PER_LOG_N: u32 = 32;

/// Strategy for computing the total vertex order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum OrderingStrategy {
    /// Total degree (in + out) descending, vertex id ascending on ties.
    /// This is the paper's order (Example 4) and the default.
    #[default]
    Degree,
    /// `(in_degree + 1) * (out_degree + 1)` descending — favors vertices
    /// that lie on many through-paths; a common PLL variant.
    DegreeProduct,
    /// Vertex id order. Deterministic and cheap; useful for tests.
    Identity,
    /// A seeded random permutation. Exists to let property tests confirm
    /// that correctness is order-independent (index *size* is not).
    Random(u64),
    /// Greedy coverage order estimated from sampled BFS trees: rank
    /// vertices by covered-pairs-per-label-entry, measured on
    /// `samples_per_log_n * log2(n)` forward plus as many backward
    /// shortest-path trees. Slower to compute than the degree orders but
    /// produces markedly smaller labelings on graphs whose degree
    /// distribution is a poor centrality proxy. Deterministic given
    /// `seed`, at any thread width. See [`coverage_sampling_order`].
    CoverageSampling {
        /// Seeds the root permutations for the sampled trees.
        seed: u64,
        /// Trees per direction per `log2(n)`; clamped to at least 1.
        /// [`DEFAULT_SAMPLES_PER_LOG_N`] is the recommended setting.
        samples_per_log_n: u32,
    },
}

impl OrderingStrategy {
    /// [`CoverageSampling`](Self::CoverageSampling) with the recommended
    /// sampling budget ([`DEFAULT_SAMPLES_PER_LOG_N`]).
    pub fn coverage(seed: u64) -> Self {
        OrderingStrategy::CoverageSampling {
            seed,
            samples_per_log_n: DEFAULT_SAMPLES_PER_LOG_N,
        }
    }
}

/// A bijection between vertices and ranks.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RankTable {
    rank_of: Vec<Rank>,
    vertex_at: Vec<u32>,
}

impl RankTable {
    /// Computes the order of `g` under `strategy`.
    ///
    /// The result depends only on the *current* degrees (plus vertex-id
    /// tie-breaks), so recomputing it on a long-lived dynamic graph — one
    /// full of churn holes: appended bottom-ranked vertices, retired
    /// (fully disconnected) ones — re-derives the order a fresh build of
    /// the same graph would use. Isolated vertices carry the minimum key
    /// and sink to the bottom deterministically. The maintenance plane's
    /// rejuvenation pass relies on exactly this.
    pub fn build(g: &DiGraph, strategy: OrderingStrategy) -> Self {
        let n = g.vertex_count();
        match strategy {
            OrderingStrategy::Degree => Self::build_by_key(n, |v| g.degree(v) as u64),
            OrderingStrategy::DegreeProduct => Self::build_by_key(n, |v| {
                (g.in_degree(v) as u64 + 1) * (g.out_degree(v) as u64 + 1)
            }),
            OrderingStrategy::Identity => Self::from_order_ids((0..n as u32).collect()),
            OrderingStrategy::Random(seed) => {
                let mut order: Vec<u32> = (0..n as u32).collect();
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
                order.shuffle(&mut rng);
                Self::from_order_ids(order)
            }
            OrderingStrategy::CoverageSampling {
                seed,
                samples_per_log_n,
            } => coverage_sampling_order(
                g,
                seed,
                samples_per_log_n,
                rayon::current_num_threads().max(1),
            ),
        }
    }

    /// Builds a table over `n` vertices from explicit importance keys:
    /// descending key, ties broken by ascending vertex id (the stable
    /// tie-break every built-in strategy uses). This is the primitive
    /// behind [`build`](Self::build)'s degree orders; callers that already
    /// hold derived degree information (e.g. an original-graph order
    /// recomputed from a live bipartite view) can rank without
    /// materializing a graph.
    pub fn build_by_key(n: usize, mut key: impl FnMut(VertexId) -> u64) -> Self {
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.sort_by_key(|&v| (std::cmp::Reverse(key(VertexId(v))), v));
        Self::from_order_ids(order)
    }

    /// Builds a table from an explicit order (highest rank first).
    ///
    /// # Panics
    ///
    /// Panics if `order` is not a permutation of `0..n`.
    pub fn from_order(order: &[VertexId]) -> Self {
        Self::from_order_ids(order.iter().map(|v| v.0).collect())
    }

    fn from_order_ids(vertex_at: Vec<u32>) -> Self {
        let n = vertex_at.len();
        let mut rank_of = vec![u32::MAX; n];
        for (rank, &v) in vertex_at.iter().enumerate() {
            assert!((v as usize) < n, "order contains out-of-range vertex {v}");
            assert!(
                rank_of[v as usize] == u32::MAX,
                "order contains vertex {v} twice"
            );
            rank_of[v as usize] = rank as u32;
        }
        RankTable { rank_of, vertex_at }
    }

    /// Number of ranked vertices.
    #[inline]
    pub fn len(&self) -> usize {
        self.vertex_at.len()
    }

    /// `true` if the table is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.vertex_at.is_empty()
    }

    /// The rank of `v` (0 = most important).
    #[inline]
    pub fn rank(&self, v: VertexId) -> Rank {
        self.rank_of[v.index()]
    }

    /// The vertex occupying `rank`.
    #[inline]
    pub fn vertex_at_rank(&self, rank: Rank) -> VertexId {
        VertexId(self.vertex_at[rank as usize])
    }

    /// `true` if `a` strictly outranks `b` (the paper's `a < b`).
    #[inline]
    pub fn outranks(&self, a: VertexId, b: VertexId) -> bool {
        self.rank_of[a.index()] < self.rank_of[b.index()]
    }

    /// Iterates vertices from highest to lowest rank.
    pub fn by_rank(&self) -> impl Iterator<Item = VertexId> + '_ {
        self.vertex_at.iter().map(|&v| VertexId(v))
    }

    /// Derives the bipartite-graph order from an original-graph order.
    ///
    /// Couple `(v_i, v_o)` of the original vertex at rank `k` occupies ranks
    /// `2k` (`v_i`) and `2k + 1` (`v_o`): couples are consecutive with `v_i`
    /// on top, exactly the precondition of couple-vertex skipping
    /// (Section IV-B).
    pub fn bipartite_order(&self) -> RankTable {
        let mut vertex_at = Vec::with_capacity(self.vertex_at.len() * 2);
        for &v in &self.vertex_at {
            vertex_at.push(2 * v); // v_i
            vertex_at.push(2 * v + 1); // v_o
        }
        Self::from_order_ids(vertex_at)
    }

    /// Extends the order with a fresh lowest-ranked vertex (dynamic graphs
    /// grow; new vertices join at the bottom of the order).
    pub fn push_lowest(&mut self) {
        let v = self.rank_of.len() as u32;
        self.rank_of.push(self.vertex_at.len() as u32);
        self.vertex_at.push(v);
    }
}

// ---------------------------------------------------------------------------
// Coverage-sampled ordering
// ---------------------------------------------------------------------------

/// Computes the [`CoverageSampling`](OrderingStrategy::CoverageSampling)
/// order with an explicit worker width (tests pin widths 1/2/4 to prove
/// the result is width-independent; [`RankTable::build`] passes
/// `rayon::current_num_threads()`: `CSC_THREADS`, else available
/// parallelism).
///
/// The recipe is lviennot's `covers_more` sampling order, adapted to
/// directed graphs. Sample `samples_per_log_n * log2(n)` forward and as
/// many backward BFS trees from seeded random roots; a tree from root `r`
/// witnesses, for every vertex `v` it contains, that picking `v` as a hub
/// would cover the `|subtree(v)|` pairs `(r, x)` whose shortest paths run
/// through `v`, at the price of one label entry per tree containing `v`.
/// Greedily select the vertex maximizing covered-pairs-per-entry
/// (`n_pairs[v] / n_labs[v]`, compared integer-only as
/// `n_pairs[u] * n_labs[v] > n_pairs[v] * n_labs[u]`), cut its subtrees
/// from every sampled tree, and repeat until the best remaining vertex
/// covers nothing beyond itself — past that point the samples carry no
/// path-cover signal, only noise.
/// Selection position becomes a descending importance key emitted through
/// [`RankTable::build_by_key`]; the unranked tail (vertices in no sampled
/// tree, or cut down to singleton coverage) falls back to the plain
/// degree order, so a thin sampling budget degrades toward
/// [`Degree`](OrderingStrategy::Degree) rather than toward an arbitrary
/// id order.
///
/// Tree sampling fans out over up to `width` workers (each owning one
/// [`TraversalWorkspace`]); each tree keeps its sample index, and the
/// greedy phase is sequential, so the output depends only on `(g, seed,
/// samples_per_log_n)` — never on `width` or scheduling.
pub fn coverage_sampling_order(
    g: &DiGraph,
    seed: u64,
    samples_per_log_n: u32,
    width: usize,
) -> RankTable {
    let n = g.vertex_count();
    if n == 0 {
        return RankTable::from_order_ids(Vec::new());
    }
    let samples = sample_roots(n, seed, samples_per_log_n);
    let trees = sample_trees(g, &samples, width);
    let key = coverage_keys(n, &trees);
    // Coverage key in the high half, degree in the low half: vertices the
    // greedy ranked (key >= 1) stay in selection order above everything
    // else; the unranked tail — vertices the samples never saw, or saw
    // only as singleton subtrees — falls back to exactly the degree
    // order. Coverage keys are at most n + 1 < 2^32 and degrees are
    // clamped, so the halves cannot collide.
    RankTable::build_by_key(n, |v| {
        (key[v.index()] << 32) | (g.degree(v).min(u32::MAX as usize) as u64)
    })
}

/// Seeded sample roots: the first `samples_per_log_n * floor(log2 n)`
/// entries (clamped to `n`) of one random permutation per direction.
/// Distinct roots per direction avoid wasting budget on duplicate trees.
fn sample_roots(n: usize, seed: u64, samples_per_log_n: u32) -> Vec<(VertexId, bool)> {
    let log2n = (usize::BITS - 1 - n.leading_zeros()).max(1) as usize;
    let per_dir = (samples_per_log_n.max(1) as usize * log2n).min(n);
    let mut out = Vec::with_capacity(per_dir * 2);
    for (forward, stream) in [(true, 0u64), (false, 0x9E37_79B9_7F4A_7C15)] {
        let mut ids: Vec<u32> = (0..n as u32).collect();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ stream);
        ids.shuffle(&mut rng);
        out.extend(ids[..per_dir].iter().map(|&v| (VertexId(v), forward)));
    }
    out
}

/// Builds the sampled BFS trees on `width` workers (at least one, at most
/// one per sample): the calling thread and `width - 1` scoped threads.
///
/// Workers pull sample indexes from a shared counter and return each tree
/// with its index, so the returned vector is in sample order no matter
/// which worker built which tree. Each worker owns one
/// [`TraversalWorkspace`], so a sweep allocates nothing beyond the trees
/// and one workspace per worker. A worker's panic reaches the caller with
/// its original payload.
fn sample_trees(g: &DiGraph, samples: &[(VertexId, bool)], width: usize) -> Vec<BfsTree> {
    let n = g.vertex_count();
    // Relaxed: the counter publishes no data; a worker's trees reach the
    // caller through its join.
    let next = AtomicUsize::new(0);
    let work = || {
        let mut ws = TraversalWorkspace::new(n);
        let mut built = Vec::new();
        loop {
            let i = next.fetch_add(1, AtomicOrdering::Relaxed);
            let Some(&(root, forward)) = samples.get(i) else {
                return built;
            };
            built.push((i, ws.bfs_tree(g, root, forward)));
        }
    };
    let mut trees = std::thread::scope(|s| {
        let workers: Vec<_> = (1..width.max(1).min(samples.len()))
            .map(|_| s.spawn(work))
            .collect();
        let mut trees = work();
        for worker in workers {
            match worker.join() {
                Ok(built) => trees.extend(built),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        trees
    });
    trees.sort_unstable_by_key(|&(i, _)| i);
    trees.into_iter().map(|(_, tree)| tree).collect()
}

/// A lazy-heap entry caching the coverage counters a vertex had when it
/// was (re)pushed; a popped entry whose cache disagrees with the live
/// counters is stale and re-enters with fresh values.
#[derive(PartialEq, Eq)]
struct CoverageEntry {
    pairs: u64,
    labs: u64,
    v: u32,
}

impl Ord for CoverageEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // The benefit ratio pairs/labs, compared without division:
        // self > other  iff  self.pairs * other.labs > other.pairs * self.labs.
        // u128 keeps the cross products exact (pairs <= trees * n, labs <=
        // trees). Ties break toward the smaller vertex id, mirroring
        // `build_by_key`; the trailing fields only make the order total.
        (self.pairs as u128 * other.labs as u128)
            .cmp(&(other.pairs as u128 * self.labs as u128))
            .then_with(|| other.v.cmp(&self.v))
            .then_with(|| self.pairs.cmp(&other.pairs))
            .then_with(|| self.labs.cmp(&other.labs))
    }
}

impl PartialOrd for CoverageEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The greedy coverage engine: exact `n_pairs`/`n_labs` maintenance over
/// the sampled trees, lazy-heap selection, and descending keys by
/// selection position. Selection stops as soon as the best live vertex
/// only covers itself (`pairs == labs`); it and everything after it keep
/// key 0 for the caller to order by fallback.
///
/// Selection is *lazily* re-evaluated: popped entries whose cached
/// counters disagree with the live ones re-enter with fresh values
/// instead of the heap being rebuilt per round. Because a cut can remove
/// a vertex's least profitable occurrence, a stale cache may
/// *under*-state the live ratio, so a tied fresh entry with a smaller id
/// can be selected first — the standard, deterministic approximation this
/// family of sampling orders accepts in exchange for `O(M log M)` total
/// heap work.
fn coverage_keys(n: usize, trees: &[BfsTree]) -> Vec<u64> {
    // Flatten every tree into global node arrays: vertex, parent index,
    // child range, current subtree size, alive flag. Parents precede
    // children within each tree, so one reverse pass accumulates sizes.
    let total: usize = trees.iter().map(|t| t.len()).sum();
    assert!(
        total < u32::MAX as usize,
        "sampled forest exceeds u32 nodes"
    );
    let mut vert = vec![0u32; total];
    let mut par = vec![u32::MAX; total];
    let mut kid_lo = vec![0u32; total];
    let mut kid_hi = vec![0u32; total];
    let mut size = vec![0u64; total];
    let mut alive = vec![true; total];
    let mut off = 0usize;
    for tree in trees {
        for i in 0..tree.len() {
            let gi = off + i;
            vert[gi] = tree.vertex(i).0;
            par[gi] = tree.parent(i).map_or(u32::MAX, |p| (off + p) as u32);
            let r = tree.children(i);
            kid_lo[gi] = (off + r.start) as u32;
            kid_hi[gi] = (off + r.end) as u32;
        }
        for i in (0..tree.len()).rev() {
            let gi = off + i;
            size[gi] += 1;
            if let Some(p) = tree.parent(i) {
                size[off + p] += size[gi];
            }
        }
        off += tree.len();
    }

    // Per-vertex coverage counters plus a CSR of tree occurrences.
    let mut n_pairs = vec![0u64; n];
    let mut n_labs = vec![0u64; n];
    let mut occ_start = vec![0usize; n + 1];
    for gi in 0..total {
        let v = vert[gi] as usize;
        n_pairs[v] += size[gi];
        n_labs[v] += 1;
        occ_start[v + 1] += 1;
    }
    for v in 0..n {
        occ_start[v + 1] += occ_start[v];
    }
    let mut occ = vec![0u32; total];
    let mut cursor = occ_start.clone();
    for (gi, &v) in vert.iter().enumerate() {
        let v = v as usize;
        occ[cursor[v]] = gi as u32;
        cursor[v] += 1;
    }

    let mut heap = BinaryHeap::with_capacity(n);
    for v in 0..n {
        if n_labs[v] > 0 {
            heap.push(CoverageEntry {
                pairs: n_pairs[v],
                labs: n_labs[v],
                v: v as u32,
            });
        }
    }
    let mut key = vec![0u64; n];
    let mut next_key = n as u64 + 1;
    let mut stack: Vec<u32> = Vec::new();
    while let Some(e) = heap.pop() {
        let v = e.v as usize;
        if n_labs[v] == 0 {
            continue; // fully covered since it was queued
        }
        if e.pairs != n_pairs[v] || e.labs != n_labs[v] {
            heap.push(CoverageEntry {
                pairs: n_pairs[v],
                labs: n_labs[v],
                v: e.v,
            });
            continue;
        }
        if e.pairs == e.labs {
            // Every remaining occurrence is a singleton subtree: the
            // samples hold no path-cover evidence beyond self-coverage,
            // and the heap top bounds every other live vertex. Ranking
            // the tail on this noise loses to plain degree, so stop and
            // let the caller's fallback key order the rest.
            break;
        }
        key[v] = next_key;
        next_key -= 1;
        for &o in &occ[occ_start[v]..occ_start[v + 1]] {
            let o = o as usize;
            if !alive[o] {
                continue;
            }
            // Ancestors lose v's whole subtree from their own subtrees
            // (and from their vertices' pair counts)...
            let sz = size[o];
            let mut a = par[o];
            while a != u32::MAX {
                let ai = a as usize;
                size[ai] -= sz;
                n_pairs[vert[ai] as usize] -= sz;
                a = par[ai];
            }
            // ...and the subtree itself is cut: every still-alive node in
            // it stops contributing its (current) size and one label.
            // Earlier cuts inside this subtree already settled their own
            // accounting, so skipping dead regions keeps counters exact.
            stack.push(o as u32);
            while let Some(x) = stack.pop() {
                let xi = x as usize;
                if !alive[xi] {
                    continue;
                }
                alive[xi] = false;
                let xv = vert[xi] as usize;
                n_pairs[xv] -= size[xi];
                n_labs[xv] -= 1;
                stack.extend(kid_lo[xi]..kid_hi[xi]);
            }
        }
        debug_assert_eq!(n_labs[v], 0, "selection covers every live occurrence");
    }
    key
}

#[cfg(test)]
mod tests {
    use super::*;

    fn star() -> DiGraph {
        // 0 is the hub of a star: high degree.
        DiGraph::from_edges(5, vec![(0, 1), (0, 2), (0, 3), (4, 0)])
    }

    #[test]
    fn degree_order_puts_hub_first() {
        let ranks = RankTable::build(&star(), OrderingStrategy::Degree);
        assert_eq!(ranks.vertex_at_rank(0), VertexId(0));
        assert_eq!(ranks.rank(VertexId(0)), 0);
        assert!(ranks.outranks(VertexId(0), VertexId(3)));
    }

    #[test]
    fn ties_break_by_vertex_id() {
        // Vertices 1, 2, 3 all have degree 1.
        let ranks = RankTable::build(&star(), OrderingStrategy::Degree);
        assert!(ranks.outranks(VertexId(1), VertexId(2)));
        assert!(ranks.outranks(VertexId(2), VertexId(3)));
    }

    #[test]
    fn identity_order() {
        let ranks = RankTable::build(&star(), OrderingStrategy::Identity);
        for i in 0..5u32 {
            assert_eq!(ranks.rank(VertexId(i)), i);
            assert_eq!(ranks.vertex_at_rank(i), VertexId(i));
        }
    }

    #[test]
    fn random_order_is_a_seeded_permutation() {
        let a = RankTable::build(&star(), OrderingStrategy::Random(7));
        let b = RankTable::build(&star(), OrderingStrategy::Random(7));
        let c = RankTable::build(&star(), OrderingStrategy::Random(8));
        assert_eq!(a, b, "same seed, same order");
        assert_eq!(a.len(), 5);
        // All vertices present exactly once.
        let mut seen: Vec<u32> = a.by_rank().map(|v| v.0).collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3, 4]);
        // Different seed almost surely differs on 5 elements; don't assert
        // inequality strictly — just that it is a valid permutation.
        assert_eq!(c.len(), 5);
    }

    #[test]
    fn degree_product_prefers_through_vertices() {
        // 1 -> 0 -> 2 : vertex 0 has in*out product 4; 3 has degree 2 both out.
        let g = DiGraph::from_edges(4, vec![(1, 0), (0, 2), (3, 1), (3, 2)]);
        let ranks = RankTable::build(&g, OrderingStrategy::DegreeProduct);
        assert_eq!(ranks.vertex_at_rank(0), VertexId(0));
    }

    #[test]
    fn bipartite_order_interleaves_couples() {
        let g = star();
        let ranks = RankTable::build(&g, OrderingStrategy::Degree);
        let b = ranks.bipartite_order();
        assert_eq!(b.len(), 10);
        // Original rank 0 is vertex 0 -> bipartite ranks 0, 1 are (0_i, 0_o).
        assert_eq!(b.vertex_at_rank(0), VertexId(0)); // 0_i
        assert_eq!(b.vertex_at_rank(1), VertexId(1)); // 0_o
        for k in 0..5u32 {
            let vi = b.vertex_at_rank(2 * k);
            let vo = b.vertex_at_rank(2 * k + 1);
            assert_eq!(vo.0, vi.0 + 1, "couples stay adjacent");
            assert!(b.outranks(vi, vo));
        }
    }

    #[test]
    fn build_by_key_matches_degree_build_and_sinks_holes() {
        let g = star();
        assert_eq!(
            RankTable::build_by_key(g.vertex_count(), |v| g.degree(v) as u64),
            RankTable::build(&g, OrderingStrategy::Degree)
        );
        // A churned graph: vertex 5 appended then never connected, vertex 1
        // retired (all edges gone). Both are holes; a recomputed order puts
        // them at the bottom, id-ascending.
        let mut g = star();
        g.add_vertex();
        g.try_remove_edge(VertexId(0), VertexId(1)).unwrap();
        let ranks = RankTable::build(&g, OrderingStrategy::Degree);
        assert_eq!(ranks.vertex_at_rank(4), VertexId(1));
        assert_eq!(ranks.vertex_at_rank(5), VertexId(5));
    }

    #[test]
    fn push_lowest_appends() {
        let mut ranks = RankTable::build(&star(), OrderingStrategy::Degree);
        ranks.push_lowest();
        assert_eq!(ranks.len(), 6);
        assert_eq!(ranks.rank(VertexId(5)), 5);
        assert_eq!(ranks.vertex_at_rank(5), VertexId(5));
    }

    #[test]
    #[should_panic(expected = "twice")]
    fn duplicate_order_panics() {
        RankTable::from_order(&[VertexId(0), VertexId(0)]);
    }

    #[test]
    fn coverage_order_puts_star_hub_first() {
        // With the sample budget clamped to n, every vertex roots a tree in
        // both directions and the center's covered-pairs-per-entry ratio
        // dominates.
        let ranks = RankTable::build(&star(), OrderingStrategy::coverage(11));
        assert_eq!(ranks.vertex_at_rank(0), VertexId(0));
        assert_eq!(ranks.len(), 5);
    }

    #[test]
    fn coverage_order_is_width_independent_and_seeded() {
        let g = crate::generators::gnm(60, 180, 3);
        let w1 = coverage_sampling_order(&g, 42, 4, 1);
        let w2 = coverage_sampling_order(&g, 42, 4, 2);
        let w4 = coverage_sampling_order(&g, 42, 4, 4);
        assert_eq!(w1, w2, "width 2 must replay the width-1 order");
        assert_eq!(w1, w4, "width 4 must replay the width-1 order");
        let other = coverage_sampling_order(&g, 43, 4, 1);
        assert_eq!(other.len(), 60);
        // A different seed samples different roots; the orders are both
        // valid permutations either way.
        let mut seen: Vec<u32> = w1.by_rank().map(|v| v.0).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..60).collect::<Vec<_>>());
    }

    #[test]
    fn coverage_handles_empty_and_singleton_graphs() {
        let empty = DiGraph::new(0);
        assert_eq!(
            RankTable::build(&empty, OrderingStrategy::coverage(0)).len(),
            0
        );
        let one = DiGraph::new(1);
        let ranks = RankTable::build(&one, OrderingStrategy::coverage(0));
        assert_eq!(ranks.rank(VertexId(0)), 0);
    }

    #[test]
    fn coverage_sinks_isolated_vertices_below_the_cycle() {
        // Triangle 0 -> 1 -> 2 -> 0 plus six isolated vertices. Every
        // vertex roots sampled trees (budget clamps to n); the isolated
        // ones cover only themselves (ratio 1) so the cycle outranks them,
        // and equal ratios fall back to ascending vertex id.
        let mut g = DiGraph::from_edges(3, vec![(0, 1), (1, 2), (2, 0)]);
        for _ in 0..6 {
            g.add_vertex();
        }
        let ranks = RankTable::build(&g, OrderingStrategy::coverage(5));
        for iso in 3..9u32 {
            for cyc in 0..3u32 {
                assert!(
                    ranks.outranks(VertexId(cyc), VertexId(iso)),
                    "cycle vertex {cyc} must outrank isolated {iso}"
                );
            }
        }
        for iso in 3..8u32 {
            assert!(ranks.outranks(VertexId(iso), VertexId(iso + 1)));
        }
    }

    #[test]
    fn coverage_keys_cut_whole_tree_on_root_selection() {
        // One forward tree spanning a 5-path inside a 7-vertex universe:
        // selecting the root covers everything, so only the root earns a
        // key; vertices 5 and 6 never appear in a sample (`n_labs == 0`)
        // and keep key 0 alongside the covered-but-unselected path tail.
        let g = crate::generators::directed_path(5);
        let mut ws = TraversalWorkspace::new(5);
        let tree = ws.bfs_tree(&g, VertexId(0), true);
        let key = coverage_keys(7, &[tree]);
        assert_eq!(key[0], 8, "first selection takes key n + 1");
        assert_eq!(&key[1..], &[0; 6], "everything else was covered or absent");
    }

    #[test]
    fn coverage_counter_bookkeeping_across_partial_cuts() {
        // Forward tree from 0 and backward tree from 4 on the same 5-path:
        // every vertex starts at ratio 3 (pairs 6 / labs 2), so vertex 0 is
        // selected on the id tie-break. That cuts the whole forward tree
        // and a leaf of the backward one, leaving exactly the backward
        // chain with per-vertex counters (v1 .. v4) = (1,1) (2,1) (3,1)
        // (4,1). Lazy re-evaluation then pops the stale ratio-3 caches in
        // id order and selects v3 the moment its fresh (3,1) entry ties
        // v4's stale (6,2) cache — pinning the documented approximation.
        // v3's cut leaves v4 at (1,1), pure self-coverage, which halts
        // selection: v4 joins v1/v2 in the key-0 tail for the caller's
        // degree fallback.
        let g = crate::generators::directed_path(5);
        let mut ws = TraversalWorkspace::new(5);
        let fwd = ws.bfs_tree(&g, VertexId(0), true);
        let bwd = ws.bfs_tree(&g, VertexId(4), false);
        let key = coverage_keys(5, &[fwd, bwd]);
        assert_eq!(key[0], 6, "tie at ratio 3 breaks toward vertex 0");
        assert_eq!(
            key[3], 5,
            "fresh (3,1) ties v4's stale (6,2) and wins by id"
        );
        assert_eq!(
            &[key[1], key[2], key[4]],
            &[0, 0, 0],
            "v1/v2 are covered and v4's self-coverage entry halts selection"
        );
        // And the emitted table reflects the keys: 0, 3, then the tail.
        let ranks = RankTable::build_by_key(5, |v| key[v.index()]);
        let order: Vec<u32> = ranks.by_rank().map(|v| v.0).collect();
        assert_eq!(order, vec![0, 3, 1, 2, 4]);
    }
}
