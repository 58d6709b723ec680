//! Property-based validation of the batch update engine: `apply_batch` of
//! an arbitrary update sequence — duplicate edges, insert/delete flapping,
//! invalid operations, vertex additions, the lot — must leave an index
//! that answers exactly like applying the same sequence one update at a
//! time (skipping individually-invalid operations), like an index rebuilt
//! from scratch on the final graph, and like the BFS oracle. The
//! publication pipeline is covered too: a `ConcurrentIndex` fed the same
//! batches must serve snapshots that match a full freeze.

use csc::graph::generators;
use csc::graph::traversal::shortest_cycle_oracle;
use csc::index::verify::check_integrity;
use csc::prelude::*;
use proptest::prelude::*;

/// A raw scripted update; seeds are resolved against the evolving graph
/// so scripts stay meaningful whatever the generated topology is.
#[derive(Clone, Debug)]
enum RawOp {
    /// Insert an edge derived from the seed — may collide with a present
    /// edge (exercising rejection) or re-insert a removed one.
    Insert(u64),
    /// Remove the seed-chosen edge among those currently present.
    Remove(u64),
    /// Remove an edge that is (almost surely) absent: a rejection case.
    RemoveAbsent(u64),
    /// Re-insert then remove the same edge, or vice versa (cancellation).
    Flap(u64),
    /// Append a vertex and maybe wire it in later via Insert seeds.
    Grow,
}

fn arb_script(len: usize) -> impl Strategy<Value = Vec<RawOp>> {
    proptest::collection::vec(
        prop_oneof![
            any::<u64>().prop_map(RawOp::Insert),
            any::<u64>().prop_map(RawOp::Remove),
            any::<u64>().prop_map(RawOp::RemoveAbsent),
            any::<u64>().prop_map(RawOp::Flap),
            Just(RawOp::Grow),
        ],
        1..len,
    )
}

/// Resolves a script into concrete `GraphUpdate`s against a *simulated*
/// graph state, so the same update slice can be replayed on any index.
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
            RawOp::RemoveAbsent(seed) => {
                let n = sim.vertex_count() as u64;
                let a = VertexId((seed % n) as u32);
                let b = VertexId(((seed >> 23) % (n + 2)) as u32); // may be out of range
                if !sim.has_edge(a, b) {
                    updates.push(GraphUpdate::RemoveEdge(a, b));
                }
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

/// The reference semantics: one update at a time, failures skipped.
/// Returns how many updates were applied.
fn apply_one_by_one(index: &mut CscIndex, updates: &[GraphUpdate]) -> usize {
    let mut applied = 0;
    for u in updates {
        let ok = match *u {
            GraphUpdate::InsertEdge(a, b) => index.insert_edge(a, b).is_ok(),
            GraphUpdate::RemoveEdge(a, b) => index.remove_edge(a, b).is_ok(),
            GraphUpdate::AddVertex => {
                index.add_vertex();
                true
            }
        };
        applied += usize::from(ok);
    }
    applied
}

/// A deletion-heavy script: mostly removals with occasional reinsertions
/// and absent-edge rejections, for the windowed decremental engine.
fn arb_delete_heavy_script(len: usize) -> impl Strategy<Value = Vec<RawOp>> {
    proptest::collection::vec(
        prop_oneof![
            4 => any::<u64>().prop_map(RawOp::Remove),
            1 => any::<u64>().prop_map(RawOp::Insert),
            1 => any::<u64>().prop_map(RawOp::RemoveAbsent),
            1 => any::<u64>().prop_map(RawOp::Flap),
        ],
        1..len,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn batched_equals_one_by_one(
        n in 6usize..18,
        m_seed in any::<u64>(),
        script in arb_script(20),
    ) {
        let m = (m_seed as usize) % (n * 2 + 1);
        let g = generators::gnm(n, m, m_seed);
        let updates = resolve(&g, &script);
        let base = CscIndex::build(&g, CscConfig::default()).unwrap();

        let mut batched = base.clone();
        let report = batched.apply_batch(&updates).unwrap();
        let mut sequential = base;
        let applied = apply_one_by_one(&mut sequential, &updates);

        // Accounting: every submitted update is applied, cancelled, or
        // rejected; applied + cancelled is what sequential accepted.
        prop_assert_eq!(
            report.applied_updates() + report.cancelled,
            applied,
            "accepted-op accounting"
        );
        prop_assert_eq!(
            report.applied_updates() + report.cancelled + report.rejected,
            updates.len(),
            "total accounting"
        );

        let g_final = sequential.original_graph();
        prop_assert_eq!(&batched.original_graph(), &g_final, "net graphs diverge");
        for v in g_final.vertices() {
            let got = batched.query(v);
            prop_assert_eq!(got, sequential.query(v), "vs sequential at {}", v);
            prop_assert_eq!(
                got.map(|c| (c.length, c.count)),
                shortest_cycle_oracle(&g_final, v),
                "vs oracle at {}",
                v
            );
        }
    }

    #[test]
    fn batched_minimality_equals_one_by_one(
        script in arb_script(12),
        seed in any::<u64>(),
    ) {
        let g = generators::preferential_attachment(12, 2, 0.5, seed);
        let updates = resolve(&g, &script);
        let config = CscConfig::default().with_update_strategy(UpdateStrategy::Minimality);
        let base = CscIndex::build(&g, config).unwrap();
        let mut batched = base.clone();
        batched.apply_batch(&updates).unwrap();
        let mut sequential = base;
        apply_one_by_one(&mut sequential, &updates);
        // The one-by-one reference runs one-op windows of the same engine, so
        // the oracle is the independent check.
        let g_final = sequential.original_graph();
        prop_assert_eq!(&batched.original_graph(), &g_final, "net graphs diverge");
        for v in g_final.vertices() {
            let got = batched.query(v);
            prop_assert_eq!(got, sequential.query(v), "at {}", v);
            prop_assert_eq!(
                got.map(|c| (c.length, c.count)),
                shortest_cycle_oracle(&g_final, v),
                "vs oracle at {}",
                v
            );
        }
    }

    #[test]
    fn windowed_replay_equals_single_batch(
        n in 8usize..16,
        seed in any::<u64>(),
        script in arb_script(24),
        window in 1usize..7,
    ) {
        // Chopping one stream into windows of any size must not change
        // where the index ends up (only what cancels inside a window).
        let g = generators::gnm(n, n * 2, seed);
        let updates = resolve(&g, &script);
        let base = CscIndex::build(&g, CscConfig::default()).unwrap();
        let mut whole = base.clone();
        whole.apply_batch(&updates).unwrap();
        let mut windowed = base;
        for chunk in updates.chunks(window) {
            windowed.apply_batch(chunk).unwrap();
        }
        prop_assert_eq!(&whole.original_graph(), &windowed.original_graph());
        for v in whole.original_graph().vertices() {
            prop_assert_eq!(whole.query(v), windowed.query(v), "at {}", v);
        }
    }

    #[test]
    fn delete_only_batched_equals_sequential_and_oracle(
        n in 8usize..18,
        seed in any::<u64>(),
        take in 2usize..14,
    ) {
        // Dense start so the windowed engine sees real cones; one batch
        // removes a spread-out slice of the edges.
        let g = generators::gnm(n, n * 4, seed);
        let edges = g.edge_vec();
        let updates: Vec<GraphUpdate> = edges
            .iter()
            .step_by((edges.len() / take.min(edges.len()).max(1)).max(1))
            .map(|&(a, b)| GraphUpdate::RemoveEdge(VertexId(a), VertexId(b)))
            .collect();
        prop_assume!(!updates.is_empty());
        let base = CscIndex::build(&g, CscConfig::default()).unwrap();
        let mut batched = base.clone();
        let report = batched.apply_batch(&updates).unwrap();
        prop_assert_eq!(report.edges_removed, updates.len());
        let mut sequential = base;
        apply_one_by_one(&mut sequential, &updates);

        let g_final = sequential.original_graph();
        prop_assert_eq!(&batched.original_graph(), &g_final);
        for v in g_final.vertices() {
            let got = batched.query(v);
            prop_assert_eq!(got, sequential.query(v), "vs sequential at {}", v);
            prop_assert_eq!(
                got.map(|c| (c.length, c.count)),
                shortest_cycle_oracle(&g_final, v),
                "vs oracle at {}",
                v
            );
        }
    }

    #[test]
    fn delete_then_reinsert_windows_restore_the_index(
        n in 8usize..16,
        seed in any::<u64>(),
        window in 1usize..6,
    ) {
        // A deletion window followed by the mirror insertion window must
        // answer exactly like the untouched graph — the decremental and
        // incremental engines must be true inverses at the query level.
        let g = generators::gnm(n, n * 3, seed);
        let victims: Vec<(u32, u32)> = g.edge_vec().into_iter().step_by(3).collect();
        prop_assume!(!victims.is_empty());
        let removals: Vec<GraphUpdate> = victims
            .iter()
            .map(|&(a, b)| GraphUpdate::RemoveEdge(VertexId(a), VertexId(b)))
            .collect();
        let reinserts: Vec<GraphUpdate> = victims
            .iter()
            .map(|&(a, b)| GraphUpdate::InsertEdge(VertexId(a), VertexId(b)))
            .collect();
        let base = CscIndex::build(&g, CscConfig::default()).unwrap();
        let mut idx = base.clone();
        for chunk in removals.chunks(window) {
            idx.apply_batch(chunk).unwrap();
        }
        for chunk in reinserts.chunks(window) {
            idx.apply_batch(chunk).unwrap();
        }
        prop_assert_eq!(&idx.original_graph(), &g);
        for v in g.vertices() {
            prop_assert_eq!(idx.query(v), base.query(v), "at {}", v);
        }
    }

    #[test]
    fn delete_heavy_windowing_is_invariant(
        n in 8usize..16,
        seed in any::<u64>(),
        script in arb_delete_heavy_script(24),
        window in 1usize..7,
    ) {
        // Chopping a deletion-dominated stream into windows of any size
        // must not change where the index ends up, however many hub sides
        // each window demotes.
        let g = generators::gnm(n, n * 3, seed);
        let updates = resolve(&g, &script);
        let base = CscIndex::build(&g, CscConfig::default()).unwrap();
        let mut whole = base.clone();
        whole.apply_batch(&updates).unwrap();
        let mut windowed = base.clone();
        for chunk in updates.chunks(window) {
            windowed.apply_batch(chunk).unwrap();
        }
        let mut sequential = base;
        apply_one_by_one(&mut sequential, &updates);
        prop_assert_eq!(&whole.original_graph(), &windowed.original_graph());
        let g_final = sequential.original_graph();
        for v in g_final.vertices() {
            let got = whole.query(v);
            prop_assert_eq!(got, windowed.query(v), "windowed at {}", v);
            prop_assert_eq!(got, sequential.query(v), "sequential at {}", v);
            prop_assert_eq!(
                got.map(|c| (c.length, c.count)),
                shortest_cycle_oracle(&g_final, v),
                "oracle at {}",
                v
            );
        }
    }

    #[test]
    fn concurrent_batches_publish_exact_snapshots(
        script in arb_script(16),
        seed in any::<u64>(),
        every in 0usize..4,
    ) {
        let g = generators::gnm(10, 24, seed);
        let updates = resolve(&g, &script);
        let config = CscConfig::default().with_snapshot_every(every);
        let shared = ConcurrentIndex::new(CscIndex::build(&g, config).unwrap());
        for chunk in updates.chunks(3) {
            shared.apply_batch(chunk).unwrap();
        }
        shared.refresh();
        let snap = shared.snapshot();
        shared.with_read(|idx| {
            for v in 0..idx.original_vertex_count() as u32 {
                let v = VertexId(v);
                assert_eq!(snap.query(v), idx.query(v), "snapshot at {v}");
            }
            assert_eq!(snap.total_entries(), idx.total_entries());
        });
    }
}

#[test]
fn saturated_count_demotion_inside_a_batch() {
    // 2^26 shortest cycles saturate the 24-bit counts, so the merged
    // subtraction pass must refuse and demote to the re-label regime —
    // with *two* deletions in one window, exercising the windowed demotion
    // path. Lengths must match the one-by-one application and the oracle.
    let widths = vec![2usize; 27];
    let g = generators::layered_cycle(&widths);
    let updates = [
        GraphUpdate::RemoveEdge(VertexId(2), VertexId(4)),
        GraphUpdate::RemoveEdge(VertexId(5), VertexId(7)),
    ];
    let base = CscIndex::build(&g, CscConfig::default()).unwrap();
    assert!(base.query(VertexId(0)).unwrap().count >= (1 << 24) - 1);
    let mut batched = base.clone();
    batched.apply_batch(&updates).unwrap();
    let mut sequential = base;
    apply_one_by_one(&mut sequential, &updates);
    let g_final = sequential.original_graph();
    for v in g_final.vertices() {
        assert_eq!(batched.query(v), sequential.query(v), "SCCnt({v})");
    }
    let oracle = shortest_cycle_oracle(&g_final, VertexId(0)).unwrap();
    assert_eq!(batched.query(VertexId(0)).unwrap().length, oracle.0);
}

#[test]
fn batched_deletions_take_the_indexed_carrier_path() {
    // The inverted index is built on demand: a build and an
    // insertion-and-new-vertex window leave it unbuilt, the first deletion
    // window builds it, every later window maintains it, and the answers
    // stay oracle-exact.
    let mirrored = |idx: &CscIndex| check_integrity(idx).unwrap().inverted_checked;
    let g = generators::gnm(18, 60, 23);
    let updates: Vec<GraphUpdate> = g
        .edge_vec()
        .into_iter()
        .step_by(4)
        .map(|(a, b)| GraphUpdate::RemoveEdge(VertexId(a), VertexId(b)))
        .collect();
    let mut idx = CscIndex::build(&g, CscConfig::default()).unwrap();
    assert!(!mirrored(&idx));
    let report = idx
        .apply_batch(&[
            GraphUpdate::AddVertex,
            GraphUpdate::InsertEdge(VertexId(18), VertexId(0)),
        ])
        .unwrap();
    assert_eq!(report.edges_inserted, 1);
    assert!(!mirrored(&idx), "no insertion reads carriers");
    let report = idx.apply_batch(&updates).unwrap();
    assert_eq!(report.edges_removed, updates.len());
    assert!(mirrored(&idx), "the first deletion window builds it");
    // Follow-up deletions keep using (and maintaining) the built index.
    let g_now = idx.original_graph();
    let victim = g_now.edge_vec()[0];
    let report = idx
        .apply_batch(&[GraphUpdate::RemoveEdge(
            VertexId(victim.0),
            VertexId(victim.1),
        )])
        .unwrap();
    assert_eq!(report.edges_removed, 1);
    assert!(mirrored(&idx), "later deletions keep it built");
    let g_final = idx.original_graph();
    for v in g_final.vertices() {
        assert_eq!(
            idx.query(v).map(|c| (c.length, c.count)),
            shortest_cycle_oracle(&g_final, v),
            "SCCnt({v})"
        );
    }
}

#[test]
fn overwhelming_windows_stay_exact() {
    // Removing half of a dense graph in one window demotes nearly every
    // hub; repairing them all in place must still answer exactly like
    // the one-by-one application.
    let g = generators::gnm(16, 64, 31);
    let updates: Vec<GraphUpdate> = g
        .edge_vec()
        .into_iter()
        .step_by(2)
        .map(|(a, b)| GraphUpdate::RemoveEdge(VertexId(a), VertexId(b)))
        .collect();
    let base = CscIndex::build(&g, CscConfig::default()).unwrap();
    let mut batched = base.clone();
    batched.apply_batch(&updates).unwrap();
    let mut sequential = base;
    apply_one_by_one(&mut sequential, &updates);
    let g_final = sequential.original_graph();
    for v in g_final.vertices() {
        let got = batched.query(v);
        assert_eq!(got, sequential.query(v), "vs sequential at {v}");
        assert_eq!(
            got.map(|c| (c.length, c.count)),
            shortest_cycle_oracle(&g_final, v),
            "vs oracle at {v}"
        );
    }
}
