//! Property-based validation of dynamic maintenance: an index maintained
//! through an arbitrary interleaving of insertions and deletions must
//! answer exactly like an index built from scratch on the final graph —
//! and like the BFS oracle — under both update strategies.

use csc::graph::generators;
use csc::graph::traversal::shortest_cycle_oracle;
use csc::index::verify::{check_integrity, verify_index};
use csc::prelude::*;
use proptest::prelude::*;

/// A scripted update: insert or delete, with index-driven operand choice.
#[derive(Clone, Debug)]
enum Op {
    Insert(u64),
    Delete(u64),
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        any::<u64>().prop_map(Op::Insert),
        any::<u64>().prop_map(Op::Delete)
    ]
}

fn arb_ops(len: usize) -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(arb_op(), 1..len)
}

/// Turns `op` into an update that is valid on `g` and applies it there;
/// `None` when the op finds nothing to do.
fn next_update(g: &mut DiGraph, op: &Op) -> Option<GraphUpdate> {
    let n = g.vertex_count() as u64;
    match *op {
        Op::Insert(seed) => {
            // Derive a fresh non-edge deterministically from the seed.
            let mut s = seed;
            for _ in 0..20 {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                let a = VertexId((s % n) as u32);
                let b = VertexId(((s >> 17) % n) as u32);
                if a != b && !g.has_edge(a, b) {
                    g.try_add_edge(a, b).unwrap();
                    return Some(GraphUpdate::InsertEdge(a, b));
                }
            }
            None
        }
        Op::Delete(seed) => {
            if g.edge_count() == 0 {
                return None;
            }
            let edges = g.edge_vec();
            let (u, w) = edges[(seed % edges.len() as u64) as usize];
            let (u, w) = (VertexId(u), VertexId(w));
            g.try_remove_edge(u, w).unwrap();
            Some(GraphUpdate::RemoveEdge(u, w))
        }
    }
}

/// Applies an op script to both a plain graph and a maintained index, one
/// update at a time.
fn apply_ops(g: &mut DiGraph, index: &mut CscIndex, ops: &[Op]) {
    for op in ops {
        match next_update(g, op) {
            Some(GraphUpdate::InsertEdge(a, b)) => {
                index.insert_edge(a, b).unwrap();
            }
            Some(GraphUpdate::RemoveEdge(a, b)) => {
                index.remove_edge(a, b).unwrap();
            }
            _ => {}
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn maintained_index_equals_rebuild(
        n in 6usize..20,
        m_seed in any::<u64>(),
        ops in arb_ops(16),
    ) {
        let m = (m_seed as usize) % (n * (n - 1) / 2 + 1);
        let mut g = generators::gnm(n, m, m_seed);
        let mut index = CscIndex::build(&g, CscConfig::default()).unwrap();
        apply_ops(&mut g, &mut index, &ops);

        let rebuilt = CscIndex::build(&g, CscConfig::default()).unwrap();
        for v in g.vertices() {
            let got = index.query(v);
            prop_assert_eq!(got, rebuilt.query(v), "vs rebuild at {}", v);
            prop_assert_eq!(
                got.map(|c| (c.length, c.count)),
                shortest_cycle_oracle(&g, v),
                "vs oracle at {}", v
            );
        }
        prop_assert_eq!(index.original_graph(), g);
    }

    #[test]
    fn every_window_stays_exact_under_both_strategies(
        n in 6usize..17,
        m_seed in any::<u64>(),
        minimality in any::<bool>(),
        windows in proptest::collection::vec(proptest::collection::vec(arb_op(), 2..5), 10..11),
    ) {
        // Mixed windows through `apply_batch`, checked after *every*
        // window: a script checked only at its end lets a later window's
        // re-label heal labels an earlier window left wrong. The
        // index stores only the two lists a query reads, and so does a
        // checkpoint, so its round trip must return the stored lists and
        // the four-list entry counts, which the decoder recounts from the
        // cycle closures the writers maintain. The structural sweep runs
        // after every window as well, so a closure count, a copy slot or
        // an inverted index built on demand that drifts from the labels
        // fails at the window where it drifts.
        let m = n + (m_seed as usize) % (2 * n + 1);
        let mut g = generators::gnm(n, m, m_seed);
        let strategy = if minimality {
            UpdateStrategy::Minimality
        } else {
            UpdateStrategy::Redundancy
        };
        let config = CscConfig::default().with_update_strategy(strategy);
        let mut index = CscIndex::build(&g, config).unwrap();
        for (k, ops) in windows.iter().enumerate() {
            let window: Vec<GraphUpdate> =
                ops.iter().filter_map(|op| next_update(&mut g, op)).collect();
            index.apply_batch(&window).unwrap();
            for v in g.vertices() {
                prop_assert_eq!(
                    index.query(v).map(|c| (c.length, c.count)),
                    shortest_cycle_oracle(&g, v),
                    "{:?} window {} ({:?}) at {}", strategy, k, window, v
                );
            }
            let restored = CscIndex::from_bytes(&index.to_bytes().unwrap()).unwrap();
            prop_assert!(
                restored.labels() == index.labels(),
                "{:?} window {} ({:?}) broke the couple pairing", strategy, k, window
            );
            prop_assert_eq!(
                restored.health(),
                index.health(),
                "{:?} window {} ({:?}): entry counts", strategy, k, window
            );
            let sweep = check_integrity(&index);
            prop_assert!(
                sweep.is_ok(),
                "{:?} window {} ({:?}): {:?}", strategy, k, window, sweep
            );
        }
    }

    #[test]
    fn minimality_strategy_full_invariants(
        n in 6usize..16,
        m_seed in any::<u64>(),
        ops in arb_ops(10),
    ) {
        let m = (m_seed as usize) % (n * 2 + 1);
        let mut g = generators::gnm(n, m, m_seed);
        let config = CscConfig::default().with_update_strategy(UpdateStrategy::Minimality);
        let mut index = CscIndex::build(&g, config).unwrap();
        apply_ops(&mut g, &mut index, &ops);
        // verify_index checks minimality (no dominated entries), inverted
        // consistency, and oracle equivalence in one sweep.
        prop_assert!(verify_index(&index).is_ok(), "{:?}", verify_index(&index));
    }

    #[test]
    fn redundancy_strategy_oracle_equivalence_under_storm(
        ops in arb_ops(24),
        seed in any::<u64>(),
    ) {
        // A denser, cycle-rich starting point.
        let mut g = generators::preferential_attachment(14, 2, 0.6, seed);
        let mut index = CscIndex::build(&g, CscConfig::default()).unwrap();
        apply_ops(&mut g, &mut index, &ops);
        prop_assert!(verify_index(&index).is_ok(), "{:?}", verify_index(&index));
    }

    #[test]
    fn every_ordering_strategy_survives_churn(
        n in 6usize..16,
        m_seed in any::<u64>(),
        ops in arb_ops(12),
        seed in any::<u64>(),
    ) {
        // The repair paths consult ranks on every hop; an index built
        // under any strategy — the sampled coverage order included —
        // must stay oracle-exact through arbitrary churn.
        let m = (m_seed as usize) % (n * 2 + 1);
        let orders = [
            OrderingStrategy::Degree,
            OrderingStrategy::DegreeProduct,
            OrderingStrategy::Identity,
            OrderingStrategy::Random(seed),
            OrderingStrategy::coverage(seed),
        ];
        for order in orders {
            let mut g = generators::gnm(n, m, m_seed);
            let mut index =
                CscIndex::build(&g, CscConfig::default().with_order(order)).unwrap();
            apply_ops(&mut g, &mut index, &ops);
            for v in g.vertices() {
                prop_assert_eq!(
                    index.query(v).map(|c| (c.length, c.count)),
                    shortest_cycle_oracle(&g, v),
                    "order {:?} diverged from oracle at {}", order, v
                );
            }
        }
    }

    #[test]
    fn vertex_growth_interleaves_with_updates(
        ops in arb_ops(10),
        extra in 1usize..4,
        seed in any::<u64>(),
    ) {
        let mut g = generators::gnm(8, 16, seed);
        let mut index = CscIndex::build(&g, CscConfig::default()).unwrap();
        for _ in 0..extra {
            let nv = index.add_vertex();
            let gv = g.add_vertex();
            prop_assert_eq!(nv, gv);
            // Wire the new vertex into a cycle.
            let t = VertexId(seed as u32 % (nv.0));
            g.try_add_edge(nv, t).unwrap();
            index.insert_edge(nv, t).unwrap();
            g.try_add_edge(t, nv).unwrap();
            index.insert_edge(t, nv).unwrap();
        }
        apply_ops(&mut g, &mut index, &ops);
        let rebuilt = CscIndex::build(&g, CscConfig::default()).unwrap();
        for v in g.vertices() {
            prop_assert_eq!(index.query(v), rebuilt.query(v), "at {}", v);
        }
    }
}

/// Deterministic long-haul: 150 interleaved updates on a mid-size graph,
/// audited against a rebuild at the end (kept out of proptest so the
/// runtime stays bounded).
#[test]
fn long_update_storm_matches_rebuild() {
    let mut g = generators::preferential_attachment(60, 2, 0.4, 77);
    let mut index = CscIndex::build(&g, CscConfig::default()).unwrap();
    let mut s: u64 = 0xC5C;
    let mut inserted = 0;
    let mut deleted = 0;
    while inserted + deleted < 150 {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        if s.is_multiple_of(2) && g.edge_count() > 30 {
            let edges = g.edge_vec();
            let (u, w) = edges[(s >> 8) as usize % edges.len()];
            g.try_remove_edge(VertexId(u), VertexId(w)).unwrap();
            index.remove_edge(VertexId(u), VertexId(w)).unwrap();
            deleted += 1;
        } else {
            let a = VertexId(((s >> 13) % 60) as u32);
            let b = VertexId(((s >> 29) % 60) as u32);
            if a != b && !g.has_edge(a, b) {
                g.try_add_edge(a, b).unwrap();
                index.insert_edge(a, b).unwrap();
                inserted += 1;
            }
        }
    }
    assert!(inserted > 30 && deleted > 30, "storm exercised both paths");
    let rebuilt = CscIndex::build(&g, CscConfig::default()).unwrap();
    for v in g.vertices() {
        assert_eq!(index.query(v), rebuilt.query(v), "diverged at {v}");
    }
    // The maintained index may carry dominated entries (redundancy mode),
    // so sizes may differ; behaviour may not.
    assert_eq!(index.stats().insertions, inserted);
    assert_eq!(index.stats().deletions, deleted);
}
