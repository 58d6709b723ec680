//! Property-based validation of the maintenance plane: a churned index
//! that rejuvenates — with further updates landing *mid-rebuild* in the
//! write-ahead replay queue — must answer every `dist_count`, `SCCnt`,
//! and `girth` query identically to a `CscIndex::build` from scratch on
//! the final graph. Both the raw `MaintenanceEngine` state machine and
//! the `ConcurrentIndex` facade (snapshot publication included) are
//! exercised.

use csc::graph::generators;
use csc::graph::traversal::shortest_cycle_oracle;
use csc::prelude::*;
use proptest::prelude::*;

/// A raw scripted update, resolved against the evolving graph (same
/// scheme as `batch_equivalence`): seeds stay meaningful whatever the
/// generated topology is.
#[derive(Clone, Debug)]
enum RawOp {
    Insert(u64),
    Remove(u64),
    Flap(u64),
    Grow,
}

fn arb_script(len: usize) -> impl Strategy<Value = Vec<RawOp>> {
    proptest::collection::vec(
        prop_oneof![
            any::<u64>().prop_map(RawOp::Insert),
            any::<u64>().prop_map(RawOp::Remove),
            any::<u64>().prop_map(RawOp::Flap),
            Just(RawOp::Grow),
        ],
        1..len,
    )
}

/// Resolves a script into concrete updates against a simulated graph.
fn resolve(g: &DiGraph, script: &[RawOp]) -> Vec<GraphUpdate> {
    let mut sim = g.clone();
    let mut updates = Vec::new();
    for op in script {
        match *op {
            RawOp::Insert(seed) => {
                let n = sim.vertex_count() as u64;
                let a = VertexId((seed % n) as u32);
                let b = VertexId(((seed >> 17) % n) as u32);
                updates.push(GraphUpdate::InsertEdge(a, b));
                if a != b && !sim.has_edge(a, b) {
                    sim.try_add_edge(a, b).unwrap();
                }
            }
            RawOp::Remove(seed) => {
                if sim.edge_count() == 0 {
                    continue;
                }
                let edges = sim.edge_vec();
                let (u, w) = edges[(seed % edges.len() as u64) as usize];
                updates.push(GraphUpdate::RemoveEdge(VertexId(u), VertexId(w)));
                sim.try_remove_edge(VertexId(u), VertexId(w)).unwrap();
            }
            RawOp::Flap(seed) => {
                let n = sim.vertex_count() as u64;
                let a = VertexId((seed % n) as u32);
                let b = VertexId(((seed >> 31) % n) as u32);
                if a == b {
                    continue;
                }
                if sim.has_edge(a, b) {
                    updates.push(GraphUpdate::RemoveEdge(a, b));
                    updates.push(GraphUpdate::InsertEdge(a, b));
                } else {
                    updates.push(GraphUpdate::InsertEdge(a, b));
                    updates.push(GraphUpdate::RemoveEdge(a, b));
                }
            }
            RawOp::Grow => {
                sim.add_vertex();
                updates.push(GraphUpdate::AddVertex);
            }
        }
    }
    updates
}

/// Every query surface must agree with a from-scratch build on the same
/// final graph: per-vertex `SCCnt` (cycle length and count), the raw
/// bipartite `dist_count` behind it, the whole-graph `girth`, and the BFS
/// oracle as the independent referee.
fn assert_equivalent(rejuvenated: &CscIndex, context: &str) {
    let g = rejuvenated.original_graph();
    let fresh = CscIndex::build(&g, *rejuvenated.config()).unwrap();
    for v in g.vertices() {
        assert_eq!(
            rejuvenated.query_raw(v),
            fresh.query_raw(v),
            "{context}: dist_count({v})"
        );
        let got = rejuvenated.query(v);
        assert_eq!(got, fresh.query(v), "{context}: SCCnt({v})");
        assert_eq!(
            got.map(|c| (c.length, c.count)),
            shortest_cycle_oracle(&g, v),
            "{context}: oracle SCCnt({v})"
        );
    }
    assert_eq!(rejuvenated.girth(), fresh.girth(), "{context}: girth");
}

/// Order migration: a live index built under the degree order can switch
/// to coverage sampling with `set_order` and have the next rejuvenation
/// re-rank under it — no restart, no downtime. On a bridged-communities
/// topology (whose inter-community hubs a degree order under-ranks) the
/// migrated index must both stay scratch-equivalent and come out
/// *strictly smaller* than the drifted degree-ordered labels it replaces.
#[test]
fn rejuvenation_migrates_degree_index_to_coverage_order() {
    let g = generators::bridged_communities(4, 16, 48, 9);
    let config = CscConfig::default();
    assert_eq!(config.order, OrderingStrategy::Degree, "seed order");
    let mut engine = MaintenanceEngine::new(CscIndex::build(&g, config).unwrap());

    // Churn: flap a spread of existing edges and wire in one fresh
    // vertex, so the rebuild starts from drifted labels.
    let edges = g.edge_vec();
    let mut churn: Vec<GraphUpdate> = Vec::new();
    for &(a, b) in edges.iter().step_by(7) {
        churn.push(GraphUpdate::RemoveEdge(VertexId(a), VertexId(b)));
        churn.push(GraphUpdate::InsertEdge(VertexId(a), VertexId(b)));
    }
    churn.push(GraphUpdate::AddVertex);
    let nv = VertexId(g.vertex_count() as u32);
    churn.push(GraphUpdate::InsertEdge(nv, VertexId(0)));
    churn.push(GraphUpdate::InsertEdge(VertexId(1), nv));
    engine.apply_batch(&churn).unwrap();
    let drifted_entries = engine.index().total_entries();

    engine.set_order(OrderingStrategy::coverage(9)).unwrap();
    assert!(
        matches!(
            engine.index().config().order,
            OrderingStrategy::CoverageSampling { .. }
        ),
        "set_order takes effect immediately in config"
    );
    engine.begin_rejuvenation(RebuildReason::Manual).unwrap();
    while engine.step(16).unwrap() != MaintenanceStatus::Serving {}

    assert_equivalent(engine.index(), "coverage migration");
    let migrated_entries = engine.index().total_entries();
    assert!(
        migrated_entries < drifted_entries,
        "coverage rejuvenation must shrink the index \
         ({migrated_entries} vs {drifted_entries})"
    );
}

/// A rebuild held in flight while more than two replay chunks of writes
/// queue behind it. Each `add_vertex` hands out the next id, and later
/// queued edges wire that id to the old graph and to an added vertex
/// queued half the queue earlier, so many edges name endpoints that
/// replay in an earlier chunk; some of those edges are removed again
/// chunks later. Draining with small step budgets must replay every
/// acknowledged write onto the vertices it named, and drop none.
#[test]
fn a_deep_replay_queue_keeps_every_acknowledged_write() {
    use csc::index::maintain::REPLAY_CHUNK;

    let g = generators::gnm(40, 120, 5);
    let n0 = g.vertex_count() as u32;
    let mut engine = MaintenanceEngine::new(CscIndex::build(&g, CscConfig::default()).unwrap());
    engine.begin_rejuvenation(RebuildReason::Manual).unwrap();
    engine.step(1).unwrap();

    let mut want = g.clone();
    let mut added: Vec<VertexId> = Vec::new();
    let mut queued = 0usize;
    let mut k = 0u32;
    while queued <= 2 * REPLAY_CHUNK + 64 {
        let nv = engine.add_vertex().unwrap();
        assert_eq!(nv, want.add_vertex(), "the next id, acknowledged");
        added.push(nv);
        let mut edges = vec![(VertexId(k % n0), nv), (nv, VertexId((k * 7 + 3) % n0))];
        if added.len() > 1 {
            edges.push((nv, added[added.len() / 2 - 1]));
        }
        for (a, b) in edges {
            assert_eq!(engine.insert_edge(a, b).unwrap(), None, "queued");
            want.try_add_edge(a, b).unwrap();
        }
        queued += 1 + 2 + usize::from(added.len() > 1);
        if k % 5 == 4 {
            // Undo the wiring of a vertex queued half the queue earlier.
            let (a, b) = (VertexId((k / 2) % n0), added[k as usize / 2]);
            assert_eq!(engine.remove_edge(a, b).unwrap(), None, "queued");
            want.try_remove_edge(a, b).unwrap();
            queued += 1;
        }
        k += 1;
    }
    assert!(engine.is_rebuilding());
    assert_eq!(engine.health().replay_queued, queued);
    assert!(queued > 2 * REPLAY_CHUNK);
    let consecutive: Vec<VertexId> = (n0..n0 + added.len() as u32).map(VertexId).collect();
    assert_eq!(added, consecutive, "distinct, consecutive ids");

    while engine.step(3).unwrap() != MaintenanceStatus::Serving {}
    assert_eq!(engine.maintenance_stats().updates_replayed, queued);
    assert_eq!(
        engine.index().original_vertex_count(),
        (n0 as usize) + added.len()
    );
    assert_eq!(engine.index().original_graph(), want, "every write landed");
    assert_equivalent(engine.index(), "deep replay queue");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn rejuvenation_with_midflight_updates_equals_scratch_build(
        n in 8usize..18,
        seed in any::<u64>(),
        churn in arb_script(18),
        tail in arb_script(10),
        chunk in 1usize..9,
    ) {
        let g = generators::gnm(n, n * 2, seed);
        let churn_updates = resolve(&g, &churn);
        let mut engine =
            MaintenanceEngine::new(CscIndex::build(&g, CscConfig::default()).unwrap());
        engine.apply_batch(&churn_updates).unwrap();

        // Rejuvenate, injecting the tail mid-rebuild: it lands in the
        // write-ahead replay queue, not on the old labels.
        engine.begin_rejuvenation(RebuildReason::Manual).unwrap();
        engine.step(chunk).unwrap();
        let tail_updates = resolve(&engine.index().original_graph(), &tail);
        for &u in &tail_updates {
            match u {
                GraphUpdate::InsertEdge(a, b) => {
                    prop_assert!(engine.insert_edge(a, b).unwrap().is_none());
                }
                GraphUpdate::RemoveEdge(a, b) => {
                    prop_assert!(engine.remove_edge(a, b).unwrap().is_none());
                }
                GraphUpdate::AddVertex => {
                    engine.add_vertex().unwrap();
                }
            }
        }
        prop_assert!(engine.is_rebuilding());
        prop_assert_eq!(engine.health().replay_queued, tail_updates.len());
        while engine.step(chunk).unwrap() != MaintenanceStatus::Serving {}

        prop_assert_eq!(engine.health().rejuvenations, 1);
        assert_equivalent(engine.index(), "engine");
    }

    #[test]
    fn facade_rejuvenation_snapshot_equals_scratch_build(
        n in 8usize..16,
        seed in any::<u64>(),
        churn in arb_script(14),
        tail in arb_script(6),
    ) {
        let g = generators::gnm(n, n * 2, seed);
        let churn_updates = resolve(&g, &churn);
        let config = CscConfig::default().with_snapshot_every(1);
        let shared = ConcurrentIndex::new(CscIndex::build(&g, config).unwrap());
        shared.apply_batch(&churn_updates).unwrap();

        shared.begin_rejuvenation().unwrap();
        shared.maintain(1).unwrap();
        let tail_updates = resolve(&shared.with_read(|idx| idx.original_graph()), &tail);
        // Mid-rebuild writes go through the public facade paths; each one
        // also cooperatively advances the rebuild.
        for &u in &tail_updates {
            shared.apply_batch(&[u]).unwrap();
        }
        while shared.maintain(usize::MAX).unwrap() != MaintenanceStatus::Serving {}

        // The *published snapshot* — what readers actually see after the
        // atomic swap — must match the from-scratch build.
        let snap = shared.snapshot();
        let g_final = shared.with_read(|idx| idx.original_graph());
        let fresh = CscIndex::build(&g_final, config).unwrap();
        for v in g_final.vertices() {
            prop_assert_eq!(snap.query_raw(v), fresh.query_raw(v), "dist_count({})", v);
            prop_assert_eq!(snap.query(v), fresh.query(v), "SCCnt({})", v);
        }
        prop_assert_eq!(snap.girth(), fresh.girth(), "girth");
        // No entry-count assertion: updates replayed *after* the rebuild
        // add entries the from-scratch build never stores (answers still
        // match — that is the point of the equivalence above).
        assert_equivalent(&shared.into_inner(), "facade");
    }
}
