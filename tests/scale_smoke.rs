//! Medium-scale smoke tests: the full pipeline on thousands-of-edges
//! graphs, sampled against the BFS baseline (full oracle sweeps would
//! dominate CI time).

use csc::graph::generators;
use csc::graph::properties::{degree_clusters, DegreeCluster};
use csc::prelude::*;

fn spot_check(g: &DiGraph, index: &CscIndex, sample_every: usize) {
    let mut bfs = BfsCycleEngine::new(g.vertex_count());
    for v in g.vertices().step_by(sample_every) {
        assert_eq!(
            index.query(v),
            bfs.query(g, v),
            "SCCnt({v}) diverged from BFS"
        );
    }
}

#[test]
fn five_thousand_edge_power_law() {
    let g = generators::preferential_attachment(2_000, 2, 0.3, 404);
    let index = CscIndex::build(&g, CscConfig::default()).unwrap();
    assert!(index.total_entries() > 0);
    spot_check(&g, &index, 7);
}

#[test]
fn p2p_flat_graph_with_update_batch() {
    let mut g = generators::gnm(1_200, 4_800, 21);
    let mut index = CscIndex::build(&g, CscConfig::default()).unwrap();
    // Paper protocol in miniature: remove 25 random edges, re-insert.
    let victims: Vec<_> = g.edge_vec().into_iter().step_by(191).take(25).collect();
    for &(u, w) in &victims {
        g.try_remove_edge(VertexId(u), VertexId(w)).unwrap();
        index.remove_edge(VertexId(u), VertexId(w)).unwrap();
    }
    for &(u, w) in &victims {
        g.try_add_edge(VertexId(u), VertexId(w)).unwrap();
        index.insert_edge(VertexId(u), VertexId(w)).unwrap();
    }
    spot_check(&g, &index, 11);
}

#[test]
fn small_world_ring_has_long_cycles() {
    let g = generators::small_world(800, 2, 0.05, 5);
    let index = CscIndex::build(&g, CscConfig::default()).unwrap();
    // Rewiring leaves most vertices on short local cycles or the long ring;
    // every answer must match BFS regardless.
    spot_check(&g, &index, 13);
}

#[test]
fn degree_clusters_all_answer() {
    // The Figure 10 protocol end-to-end: every cluster must produce
    // consistent answers.
    let g = generators::preferential_attachment(1_500, 3, 0.4, 9);
    let index = CscIndex::build(&g, CscConfig::default()).unwrap();
    let clusters = degree_clusters(&g);
    let mut bfs = BfsCycleEngine::new(g.vertex_count());
    for target in DegreeCluster::ALL {
        let mut checked = 0;
        for v in g.vertices() {
            if clusters[v.index()] == target {
                assert_eq!(
                    index.query(v),
                    bfs.query(&g, v),
                    "cluster {target:?} at {v}"
                );
                checked += 1;
                if checked >= 25 {
                    break;
                }
            }
        }
    }
}

#[test]
fn serialization_at_scale() {
    let g = generators::preferential_attachment(1_000, 2, 0.2, 31);
    let index = CscIndex::build(&g, CscConfig::default()).unwrap();
    let bytes = index.to_bytes().unwrap();
    // 8 bytes per stored entry plus headers/adjacency: sanity-check the
    // ballpark. A checkpoint stores the query lists, the snapshot arena's
    // entries.
    assert!(bytes.len() > index.freeze().labels().total_entries() * 8);
    let restored = CscIndex::from_bytes(&bytes).unwrap();
    spot_check(&g, &restored, 17);
}

#[test]
fn concurrent_screening_under_churn() {
    use std::sync::Arc;
    let g = generators::preferential_attachment(800, 2, 0.5, 12);
    let shared = Arc::new(ConcurrentIndex::new(
        CscIndex::build(&g, CscConfig::default()).unwrap(),
    ));
    let readers: Vec<_> = (0..3)
        .map(|t| {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                let mut hits = 0;
                for i in 0..3_000u32 {
                    if shared.query(VertexId((i * 31 + t) % 800)).is_some() {
                        hits += 1;
                    }
                }
                hits
            })
        })
        .collect();
    let mut live = g.clone();
    let mut s = 5u64;
    for _ in 0..20 {
        s = s.wrapping_mul(48271);
        let a = VertexId((s % 800) as u32);
        let b = VertexId(((s >> 11) % 800) as u32);
        if a != b && !live.has_edge(a, b) {
            live.try_add_edge(a, b).unwrap();
            shared.insert_edge(a, b).unwrap();
        }
    }
    for r in readers {
        assert!(r.join().unwrap() > 0);
    }
    let final_index = CscIndex::build(&live, CscConfig::default()).unwrap();
    shared.with_read(|idx| {
        for v in live.vertices().step_by(9) {
            assert_eq!(idx.query(v), final_index.query(v));
        }
    });
}
