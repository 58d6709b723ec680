//! Property-based cross-validation: on arbitrary random graphs, the CSC
//! index, the HP-SPC + neighborhood baseline, and the BFS baseline must
//! return identical `SCCnt` answers for every vertex, under any vertex
//! ordering.

use csc::graph::bipartite::{in_vertex, out_vertex};
use csc::graph::generators;
use csc::graph::traversal::shortest_cycle_oracle;
use csc::prelude::*;
use proptest::prelude::*;

/// Strategy: an arbitrary simple digraph with up to `max_n` vertices.
fn arb_graph(max_n: usize, max_m: usize) -> impl Strategy<Value = DiGraph> {
    (2..max_n, any::<u64>()).prop_map(move |(n, seed)| {
        let cap = (n * (n - 1)).min(max_m);
        let m = (seed as usize) % (cap + 1);
        generators::gnm(n, m, seed)
    })
}

/// Strategy: graphs rich in short cycles (reciprocal preferential
/// attachment), stressing the counting rather than reachability.
fn arb_cyclic_graph() -> impl Strategy<Value = DiGraph> {
    (8usize..40, 1usize..4, any::<u64>())
        .prop_map(|(n, k, seed)| generators::preferential_attachment(n, k, 0.7, seed))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn csc_matches_oracle_on_random_graphs(g in arb_graph(24, 140)) {
        let index = CscIndex::build(&g, CscConfig::default()).unwrap();
        for v in g.vertices() {
            prop_assert_eq!(
                index.query(v).map(|c| (c.length, c.count)),
                shortest_cycle_oracle(&g, v),
                "SCCnt({}) diverged", v
            );
        }
    }

    #[test]
    fn all_three_algorithms_agree(g in arb_cyclic_graph()) {
        let hp = HpSpcIndex::build(&g, OrderingStrategy::Degree).unwrap();
        let index = CscIndex::build(&g, CscConfig::default()).unwrap();
        let mut bfs = BfsCycleEngine::new(g.vertex_count());
        for v in g.vertices() {
            let a = bfs.query(&g, v).map(|c| (c.length, c.count));
            let b = csc::labeling::scc_baseline::scc_count(&hp, &g, v)
                .map(|c| (c.length, c.count));
            let c = index.query(v).map(|c| (c.length, c.count));
            prop_assert_eq!(a, b, "BFS vs HP-SPC at {}", v);
            prop_assert_eq!(b, c, "HP-SPC vs CSC at {}", v);
        }
    }

    #[test]
    fn correctness_is_order_independent(
        g in arb_graph(18, 90),
        seed in any::<u64>(),
    ) {
        // Index size depends on the order; answers must not.
        let orders = [
            OrderingStrategy::Degree,
            OrderingStrategy::DegreeProduct,
            OrderingStrategy::Identity,
            OrderingStrategy::Random(seed),
            OrderingStrategy::coverage(seed),
        ];
        let indexes: Vec<_> = orders
            .iter()
            .map(|&o| CscIndex::build(&g, CscConfig::default().with_order(o)).unwrap())
            .collect();
        for v in g.vertices() {
            let reference = indexes[0].query(v);
            for (idx, order) in indexes.iter().zip(&orders).skip(1) {
                prop_assert_eq!(
                    idx.query(v), reference,
                    "order {:?} diverged at {}", order, v
                );
            }
        }
    }

    #[test]
    fn hpspc_pair_counts_match_bfs(g in arb_graph(20, 120)) {
        let hp = HpSpcIndex::build(&g, OrderingStrategy::Degree).unwrap();
        for s in g.vertices() {
            let truth = csc::graph::traversal::bfs_counts(&g, s, true);
            for t in g.vertices() {
                if s == t { continue; }
                let want = truth[t.index()].0.map(|d| (d, truth[t.index()].1));
                let got = hp.sp_count(s, t).map(|dc| (dc.dist, dc.count));
                prop_assert_eq!(got, want, "SPCnt({}, {})", s, t);
            }
        }
    }

    #[test]
    fn serialization_preserves_answers(g in arb_graph(20, 100)) {
        // The checkpoint holds only the two lists a cycle query reads;
        // decoding derives the other two.
        let index = CscIndex::build(&g, CscConfig::default()).unwrap();
        let bytes = index.to_bytes().unwrap();
        let restored = CscIndex::from_bytes(&bytes).unwrap();
        prop_assert!(restored.labels() == index.labels(), "the couple copies derive exactly");
        for v in g.vertices() {
            prop_assert_eq!(restored.query(v), index.query(v), "restored SCCnt({})", v);
        }
    }

    #[test]
    fn reduced_index_answers_match(g in arb_graph(20, 100)) {
        // The snapshot arena is the reduced index: it packs exactly the
        // query lists and answers every cycle query as the full index does.
        let index = CscIndex::build(&g, CscConfig::default()).unwrap();
        let query_entries: usize = g
            .vertices()
            .map(|v| {
                let (vi, vo) = (in_vertex(v), out_vertex(v));
                index.labels().in_of(vi).len() + index.labels().out_of(vo).len()
            })
            .sum();
        let snapshot = index.freeze();
        prop_assert_eq!(snapshot.labels().total_entries(), query_entries);
        prop_assert!(query_entries <= index.total_entries());
        for v in g.vertices() {
            prop_assert_eq!(snapshot.query(v), index.query(v), "snapshot SCCnt({})", v);
        }
    }
}
