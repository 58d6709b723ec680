//! Seeded synthetic graph generators.
//!
//! These stand in for the paper's SNAP/Konect datasets (the
//! `csc-bench::datasets` module docs give the substitution rationale).
//! Each family targets the structural property that drives the
//! corresponding experiment: degree skew for the query-time clusters,
//! small-world distances for update locality, planted rings for the fraud
//! case study. Every generator takes an explicit seed and is fully
//! deterministic.

use crate::digraph::DiGraph;
use crate::vertex::VertexId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// Directed Erdős–Rényi `G(n, m)`: exactly `m` distinct non-loop edges
/// drawn uniformly. Models the paper's p2p graphs (G04, G30), whose degree
/// distribution is comparatively flat.
///
/// # Panics
///
/// Panics if `m > n * (n - 1)` (more edges than a simple digraph can hold).
pub fn gnm(n: usize, m: usize, seed: u64) -> DiGraph {
    let max = n.saturating_mul(n.saturating_sub(1));
    assert!(m <= max, "G(n={n}, m={m}) exceeds the {max} possible edges");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = DiGraph::new(n);
    // Dense fallback: enumerate and sample when m is a large fraction.
    if n > 1 && m * 3 > max * 2 {
        let mut all: Vec<(u32, u32)> = Vec::with_capacity(max);
        for u in 0..n as u32 {
            for v in 0..n as u32 {
                if u != v {
                    all.push((u, v));
                }
            }
        }
        rand::seq::SliceRandom::shuffle(&mut all[..], &mut rng);
        for &(u, v) in all.iter().take(m) {
            g.try_add_edge(VertexId(u), VertexId(v))
                .expect("unique by construction");
        }
        return g;
    }
    let mut seen: HashSet<(u32, u32)> = HashSet::with_capacity(m * 2);
    while g.edge_count() < m {
        let u = rng.gen_range(0..n as u32);
        let v = rng.gen_range(0..n as u32);
        if u != v && seen.insert((u, v)) {
            g.try_add_edge(VertexId(u), VertexId(v))
                .expect("deduplicated");
        }
    }
    g
}

/// Directed preferential attachment with optional reciprocal edges.
///
/// Vertex `v` joins with up to `k` out-edges whose targets are drawn
/// proportionally to in-degree + 1 among `0..v` (classic rich-get-richer, so
/// the in-degree distribution is heavy-tailed like the paper's email/wiki
/// graphs). With probability `reciprocal_prob` each new edge is mirrored,
/// which is what creates 2-cycles and, combined, longer cycles — wiki-talk
/// style graphs are full of reciprocal interactions.
pub fn preferential_attachment(n: usize, k: usize, reciprocal_prob: f64, seed: u64) -> DiGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = DiGraph::new(n);
    // The urn holds one entry per (in-edge + 1 baseline) per vertex.
    let mut urn: Vec<u32> = Vec::with_capacity(n * (k + 1));
    for v in 1..n as u32 {
        urn.push(v - 1); // baseline entry for the previous vertex
        let tries = k.min(v as usize);
        for _ in 0..tries {
            let t = urn[rng.gen_range(0..urn.len())];
            if t != v && g.try_add_edge(VertexId(v), VertexId(t)).is_ok() {
                urn.push(t);
                if rng.gen_bool(reciprocal_prob) && g.try_add_edge(VertexId(t), VertexId(v)).is_ok()
                {
                    urn.push(v);
                }
            }
        }
    }
    g
}

/// Directed small-world (Watts–Strogatz style) graph.
///
/// Vertices sit on a ring; each has out-edges to its `k` clockwise
/// successors, and every edge is rewired to a uniform random target with
/// probability `rewire_prob`. Models the web graphs' combination of local
/// structure and long-range shortcuts (WBN/WBB analogs).
pub fn small_world(n: usize, k: usize, rewire_prob: f64, seed: u64) -> DiGraph {
    assert!(n > k, "ring needs n > k");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = DiGraph::new(n);
    for v in 0..n as u32 {
        for i in 1..=k as u32 {
            let mut t = (v + i) % n as u32;
            if rewire_prob > 0.0 && rng.gen_bool(rewire_prob) {
                t = rng.gen_range(0..n as u32);
            }
            if t != v {
                let _ = g.try_add_edge(VertexId(v), VertexId(t));
            }
        }
    }
    g
}

/// Random communities stitched by a sparse bidirectional bridge ring.
///
/// Each of the `communities` blocks of `size` vertices gets `intra_edges`
/// uniform random internal edges; block `c`'s first vertex is linked both
/// ways to block `c + 1`'s. Degrees are nearly flat, so degree orders are
/// uninformative here while the bridge vertices dominate inter-community
/// shortest paths — the fixture where coverage-sampled hub orders beat
/// degree orders most clearly.
pub fn bridged_communities(
    communities: usize,
    size: usize,
    intra_edges: usize,
    seed: u64,
) -> DiGraph {
    assert!(communities >= 2 && size >= 2, "need at least 2x2 vertices");
    let n = communities * size;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = DiGraph::new(n);
    for c in 0..communities {
        let base = (c * size) as u32;
        let mut added = 0;
        let mut attempts = 0usize;
        let max_attempts = intra_edges.saturating_mul(20) + 100;
        while added < intra_edges && attempts < max_attempts {
            attempts += 1;
            let u = base + rng.gen_range(0..size as u32);
            let v = base + rng.gen_range(0..size as u32);
            if u != v && g.try_add_edge(VertexId(u), VertexId(v)).is_ok() {
                added += 1;
            }
        }
        let next = (((c + 1) % communities) * size) as u32;
        let _ = g.try_add_edge(VertexId(base), VertexId(next));
        let _ = g.try_add_edge(VertexId(next), VertexId(base));
    }
    g
}

/// Adds `count` uniform random extra edges to `g` (skipping duplicates and
/// self-loops; gives up after a bounded number of rejections so callers can
/// sprinkle noise onto dense graphs safely). Returns the number added.
pub fn sprinkle_random_edges(g: &mut DiGraph, count: usize, seed: u64) -> usize {
    let n = g.vertex_count() as u32;
    if n < 2 {
        return 0;
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut added = 0;
    let mut attempts = 0usize;
    let max_attempts = count.saturating_mul(20) + 100;
    while added < count && attempts < max_attempts {
        attempts += 1;
        let u = rng.gen_range(0..n);
        let v = rng.gen_range(0..n);
        if u != v && g.try_add_edge(VertexId(u), VertexId(v)).is_ok() {
            added += 1;
        }
    }
    added
}

/// Deterministic directed cycle `0 -> 1 -> ... -> n-1 -> 0`.
pub fn directed_cycle(n: usize) -> DiGraph {
    assert!(n >= 2, "a directed cycle needs at least 2 vertices");
    let mut g = DiGraph::new(n);
    for v in 0..n as u32 {
        g.try_add_edge(VertexId(v), VertexId((v + 1) % n as u32))
            .expect("cycle edges are valid");
    }
    g
}

/// Deterministic directed path `0 -> 1 -> ... -> n-1`.
pub fn directed_path(n: usize) -> DiGraph {
    let mut g = DiGraph::new(n);
    for v in 1..n as u32 {
        g.try_add_edge(VertexId(v - 1), VertexId(v))
            .expect("path edges are valid");
    }
    g
}

/// Complete digraph on `n` vertices (every ordered pair, no loops).
pub fn complete(n: usize) -> DiGraph {
    let mut g = DiGraph::new(n);
    for u in 0..n as u32 {
        for v in 0..n as u32 {
            if u != v {
                g.try_add_edge(VertexId(u), VertexId(v)).expect("valid");
            }
        }
    }
    g
}

/// A layered DAG with full bipartite connections between consecutive layers,
/// closed into a cycle by connecting the last layer back to the first.
///
/// The number of shortest cycles through a first-layer vertex is the product
/// of the layer widths — this is the stress fixture for counting overflow.
pub fn layered_cycle(widths: &[usize]) -> DiGraph {
    assert!(widths.len() >= 2, "need at least two layers");
    let n: usize = widths.iter().sum();
    let mut starts = Vec::with_capacity(widths.len());
    let mut acc = 0;
    for &w in widths {
        assert!(w >= 1, "layers must be non-empty");
        starts.push(acc);
        acc += w;
    }
    let mut g = DiGraph::new(n);
    for (i, &w) in widths.iter().enumerate() {
        let next = (i + 1) % widths.len();
        for a in 0..w {
            for b in 0..widths[next] {
                g.try_add_edge(
                    VertexId((starts[i] + a) as u32),
                    VertexId((starts[next] + b) as u32),
                )
                .expect("layer edges are valid");
            }
        }
    }
    g
}

/// A synthetic money-laundering network with planted criminal rings
/// (the Figure 1 / Figure 13 scenario).
#[derive(Clone, Debug)]
pub struct LaunderingNetwork {
    /// The transaction graph.
    pub graph: DiGraph,
    /// The planted criminal accounts, one per ring.
    pub criminals: Vec<VertexId>,
    /// Length of every planted cycle.
    pub cycle_len: u32,
    /// Number of cycles planted through each criminal.
    pub cycles_per_criminal: usize,
}

/// Parameters for [`laundering_network`].
#[derive(Clone, Copy, Debug)]
pub struct LaunderingParams {
    /// Total number of accounts.
    pub accounts: usize,
    /// Number of background (legitimate) transactions.
    pub background_edges: usize,
    /// Number of criminal accounts to plant.
    pub criminals: usize,
    /// Cycles planted through each criminal.
    pub cycles_per_criminal: usize,
    /// Length of each planted cycle (>= 3: criminal -> agent -> middleman
    /// chain -> criminal).
    pub cycle_len: u32,
}

impl Default for LaunderingParams {
    fn default() -> Self {
        LaunderingParams {
            accounts: 2_000,
            background_edges: 6_000,
            criminals: 5,
            cycles_per_criminal: 8,
            cycle_len: 4,
        }
    }
}

/// Generates a laundering network: a sparse random background of
/// transactions plus, for each planted criminal account, many short cycles
/// routed through dedicated intermediary accounts (mirroring the paper's
/// Figure 1: criminal -> agents -> middle-men -> criminal).
///
/// Each planted cycle uses fresh intermediaries, so the criminal's
/// shortest-cycle count is at least `cycles_per_criminal` unless background
/// noise happens to create an even shorter cycle through it (kept unlikely
/// by planting length-`cycle_len` cycles with `cycle_len` small).
pub fn laundering_network(params: LaunderingParams, seed: u64) -> LaunderingNetwork {
    let LaunderingParams {
        accounts,
        background_edges,
        criminals,
        cycles_per_criminal,
        cycle_len,
    } = params;
    assert!(cycle_len >= 3, "planted cycles need length >= 3");
    let intermediaries_per_cycle = (cycle_len - 1) as usize;
    let planted_vertices = criminals * (1 + cycles_per_criminal * intermediaries_per_cycle);
    assert!(
        accounts >= planted_vertices,
        "need at least {planted_vertices} accounts to plant the rings"
    );

    let mut g = gnm(accounts, background_edges, seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15);

    // The planted structure lives on the highest-numbered vertices. As in
    // the paper's Figure 1, ring members only *send* funds along the ring
    // (their incoming decoy transactions are kept), so background noise
    // cannot create a shorter cycle through a criminal than the planted
    // ones: strip the ring members' background out-edges first.
    let first_planted = accounts - planted_vertices;
    for v in first_planted..accounts {
        let v = VertexId(v as u32);
        for w in g.nbr_out(v).to_vec() {
            g.try_remove_edge(v, VertexId(w))
                .expect("listed edge exists");
        }
    }
    let mut next = first_planted;
    let mut criminal_ids = Vec::with_capacity(criminals);
    for _ in 0..criminals {
        let c = VertexId(next as u32);
        next += 1;
        criminal_ids.push(c);
        for _ in 0..cycles_per_criminal {
            let mut prev = c;
            for _ in 0..intermediaries_per_cycle {
                let mid = VertexId(next as u32);
                next += 1;
                let _ = g.try_add_edge(prev, mid);
                prev = mid;
            }
            let _ = g.try_add_edge(prev, c);
        }
        // A few incoming decoy transactions so the criminal's degree is not
        // trivially identifying. Sources come from the background region
        // only — a decoy from a ring member would shortcut a planted cycle.
        for _ in 0..3 {
            if first_planted > 0 {
                let other = VertexId(rng.gen_range(0..first_planted as u32));
                let _ = g.try_add_edge(other, c);
            }
        }
    }
    LaunderingNetwork {
        graph: g,
        criminals: criminal_ids,
        cycle_len,
        cycles_per_criminal,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traversal::shortest_cycle_oracle;

    #[test]
    fn gnm_has_exact_edges_and_is_deterministic() {
        let g1 = gnm(100, 500, 42);
        let g2 = gnm(100, 500, 42);
        let g3 = gnm(100, 500, 43);
        assert_eq!(g1.edge_count(), 500);
        assert_eq!(g1, g2);
        assert_ne!(g1, g3);
        g1.validate().unwrap();
    }

    #[test]
    fn gnm_dense_path() {
        let g = complete(5);
        assert_eq!(g.edge_count(), 20);
        let dense = gnm(6, 28, 1); // 28 of 30 possible -> dense sampler
        assert_eq!(dense.edge_count(), 28);
        dense.validate().unwrap();
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn gnm_rejects_impossible_m() {
        gnm(3, 7, 0);
    }

    #[test]
    fn preferential_attachment_is_skewed() {
        let g = preferential_attachment(2_000, 3, 0.3, 7);
        g.validate().unwrap();
        assert!(g.edge_count() > 2_000);
        let max_deg = g.vertices().map(|v| g.degree(v)).max().unwrap();
        let avg = 2.0 * g.edge_count() as f64 / g.vertex_count() as f64;
        assert!(
            max_deg as f64 > 5.0 * avg,
            "expected a heavy tail: max {max_deg} vs avg {avg:.1}"
        );
    }

    #[test]
    fn preferential_attachment_reciprocity_creates_two_cycles() {
        let g = preferential_attachment(300, 2, 1.0, 11);
        let mutual = g.edges().filter(|&(u, v)| g.has_edge(v, u)).count();
        assert!(mutual > 100, "reciprocal edges should dominate: {mutual}");
    }

    #[test]
    fn small_world_shape() {
        let g = small_world(100, 3, 0.1, 5);
        g.validate().unwrap();
        assert!(g.edge_count() <= 300);
        assert!(g.edge_count() >= 250);
        // Without rewiring the ring is exact.
        let ring = small_world(10, 1, 0.0, 0);
        assert_eq!(ring.edge_count(), 10);
        assert_eq!(shortest_cycle_oracle(&ring, VertexId(0)), Some((10, 1)));
    }

    #[test]
    fn deterministic_fixtures() {
        assert_eq!(directed_cycle(5).edge_count(), 5);
        assert_eq!(directed_path(5).edge_count(), 4);
        assert_eq!(complete(4).edge_count(), 12);
        let g = layered_cycle(&[2, 3, 2]);
        // 2*3 + 3*2 + 2*2 edges.
        assert_eq!(g.edge_count(), 16);
        // Shortest cycles through a layer-0 vertex: one per choice of the
        // other layers' vertices = 3 * 2.
        assert_eq!(shortest_cycle_oracle(&g, VertexId(0)), Some((3, 6)));
    }

    #[test]
    fn bridged_communities_shape() {
        let g = bridged_communities(4, 25, 60, 7);
        g.validate().unwrap();
        assert_eq!(g.vertex_count(), 100);
        // 4 * 60 intra + 8 bridge edges (minus rare duplicate rejections).
        assert!(g.edge_count() >= 240 && g.edge_count() <= 248);
        assert_eq!(g, bridged_communities(4, 25, 60, 7), "seeded");
        // The bridge ring is bidirectional: community heads form 2-cycles.
        for c in 0..4u32 {
            let a = VertexId(c * 25);
            let b = VertexId(((c + 1) % 4) * 25);
            assert!(g.has_edge(a, b) && g.has_edge(b, a));
        }
        // Non-bridge edges stay inside their community.
        for (u, v) in g.edges() {
            if u.0 % 25 != 0 || v.0 % 25 != 0 {
                assert_eq!(u.0 / 25, v.0 / 25, "edge {u}->{v} crosses communities");
            }
        }
    }

    #[test]
    fn sprinkle_adds_edges() {
        let mut g = DiGraph::new(50);
        let added = sprinkle_random_edges(&mut g, 100, 3);
        assert_eq!(added, 100);
        assert_eq!(g.edge_count(), 100);
        // Saturated graph: cannot add anything.
        let mut k = complete(3);
        assert_eq!(sprinkle_random_edges(&mut k, 5, 3), 0);
    }

    #[test]
    fn laundering_network_plants_verifiable_rings() {
        let params = LaunderingParams {
            accounts: 500,
            background_edges: 400,
            criminals: 3,
            cycles_per_criminal: 6,
            cycle_len: 4,
        };
        let net = laundering_network(params, 99);
        net.graph.validate().unwrap();
        assert_eq!(net.criminals.len(), 3);
        for &c in &net.criminals {
            let (len, count) =
                shortest_cycle_oracle(&net.graph, c).expect("criminal must sit on cycles");
            // Ring members send funds only along the rings, so the planted
            // cycles are exactly the shortest ones through each criminal.
            assert_eq!(
                (len, count),
                (4, 6),
                "criminal {c} should carry exactly the planted cycles"
            );
        }
    }

    #[test]
    #[should_panic(expected = "at least")]
    fn laundering_rejects_tiny_account_pool() {
        laundering_network(
            LaunderingParams {
                accounts: 10,
                criminals: 5,
                cycles_per_criminal: 10,
                ..Default::default()
            },
            0,
        );
    }
}
