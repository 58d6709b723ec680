//! Determinism contract of the parallel write & build plane: with
//! `deterministic: true` (the default), the wave-parallel paths commit in
//! hub-rank order with validated prunes, so the label store an index ends
//! up with is *byte-identical* — via the `to_bytes` checkpoint format —
//! whatever worker width produced it. That holds for fresh builds, for
//! churned indexes (batched inserts and deletions), and for full
//! rejuvenation traces. The parallelism knobs themselves are a
//! non-semantic runtime field, so they are normalized before comparing.
//!
//! The relaxed mode (`deterministic: false`) trades that reproducibility
//! for fewer validation scans on append-only builds; its weaker contract —
//! query-exactness, not byte-identity — is pinned here too.

use csc::graph::generators;
use csc::graph::traversal::shortest_cycle_oracle;
use csc::prelude::*;
use proptest::prelude::*;

/// Widths compared against the width-1 serial reference.
const PARALLEL_WIDTHS: [u32; 2] = [2, 4];

/// Checkpoint bytes with the (non-semantic) parallelism knobs normalized,
/// so indexes that differ only in worker width serialize identically.
fn canonical_bytes(index: &CscIndex) -> Vec<u8> {
    let mut index = index.clone();
    index.set_parallelism(ParallelismConfig::default());
    index.to_bytes().unwrap().to_vec()
}

/// A deterministic churn trace: windowed removals of every third edge
/// followed by seeded reinsertions and a few fresh edges.
fn churn_trace(g: &DiGraph, seed: u64) -> Vec<GraphUpdate> {
    let edges = g.edge_vec();
    let mut updates: Vec<GraphUpdate> = edges
        .iter()
        .step_by(3)
        .map(|&(a, b)| GraphUpdate::RemoveEdge(VertexId(a), VertexId(b)))
        .collect();
    updates.extend(
        edges
            .iter()
            .step_by(3)
            .take(updates.len() / 2)
            .map(|&(a, b)| GraphUpdate::InsertEdge(VertexId(a), VertexId(b))),
    );
    let n = g.vertex_count() as u64;
    let mut state = seed | 1;
    for _ in 0..8 {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let a = VertexId((state % n) as u32);
        let b = VertexId(((state >> 23) % n) as u32);
        if a != b {
            updates.push(GraphUpdate::InsertEdge(a, b));
        }
    }
    updates
}

#[test]
fn fresh_builds_are_byte_identical_across_widths() {
    let graphs = [
        generators::gnm(30, 120, 7),
        generators::preferential_attachment(24, 3, 0.4, 11),
        generators::layered_cycle(&[3usize; 9]),
    ];
    for (i, g) in graphs.iter().enumerate() {
        let reference =
            canonical_bytes(&CscIndex::build(g, CscConfig::default().with_threads(1)).unwrap());
        for &w in &PARALLEL_WIDTHS {
            let parallel =
                canonical_bytes(&CscIndex::build(g, CscConfig::default().with_threads(w)).unwrap());
            assert_eq!(
                parallel, reference,
                "graph {i}: build at width {w} diverges from serial bytes"
            );
        }
    }
}

#[test]
fn churned_indexes_are_byte_identical_across_widths() {
    // Under Minimality the insertion passes run one at a time at every
    // width while its re-labels and rebuild fallbacks run in wider waves;
    // the bytes must still match the serial engine's.
    for strategy in [UpdateStrategy::Redundancy, UpdateStrategy::Minimality] {
        for seed in [3u64, 17, 29] {
            let g = generators::gnm(22, 66, seed);
            let trace = churn_trace(&g, seed);
            let run = |threads: u32| {
                let config = CscConfig::default()
                    .with_threads(threads)
                    .with_update_strategy(strategy);
                let mut idx = CscIndex::build(&g, config).unwrap();
                for window in trace.chunks(5) {
                    idx.apply_batch(window).unwrap();
                }
                canonical_bytes(&idx)
            };
            let reference = run(1);
            for &w in &PARALLEL_WIDTHS {
                assert_eq!(
                    run(w),
                    reference,
                    "seed {seed}, {strategy:?}: churn at width {w} diverges from serial bytes"
                );
            }
        }
    }
}

#[test]
fn rejuvenation_traces_are_byte_identical_across_widths() {
    for seed in [5u64, 13] {
        let g = generators::gnm(18, 54, seed);
        let trace = churn_trace(&g, seed);
        let run = |threads: u32| {
            let mut engine = MaintenanceEngine::new(
                CscIndex::build(&g, CscConfig::default().with_threads(threads)).unwrap(),
            );
            engine.apply_batch(&trace).unwrap();
            engine.begin_rejuvenation(RebuildReason::Manual).unwrap();
            // Interleave a mid-rebuild write so the replay queue is part of
            // the trace, then drive the incremental rebuild to completion.
            engine.step(3).unwrap();
            let (a, b) = engine.index().original_graph().edge_vec()[0];
            engine.remove_edge(VertexId(a), VertexId(b)).unwrap();
            engine.insert_edge(VertexId(a), VertexId(b)).unwrap();
            while engine.step(3).unwrap() != MaintenanceStatus::Serving {}
            canonical_bytes(engine.index())
        };
        let reference = run(1);
        for &w in &PARALLEL_WIDTHS {
            assert_eq!(
                run(w),
                reference,
                "seed {seed}: rejuvenation at width {w} diverges from serial bytes"
            );
        }
    }
}

#[test]
fn relaxed_mode_is_query_exact_even_when_bytes_may_drift() {
    // `deterministic: false` skips the validated commit on append-only
    // builds: extra (strictly covered) entries may survive, so the bytes
    // are not pinned — but every query must still match the oracle.
    let g = generators::gnm(26, 104, 41);
    for &w in &PARALLEL_WIDTHS {
        let config = CscConfig::default()
            .with_threads(w)
            .with_deterministic(false);
        let idx = CscIndex::build(&g, config).unwrap();
        for v in g.vertices() {
            assert_eq!(
                idx.query(v).map(|c| (c.length, c.count)),
                shortest_cycle_oracle(&g, v),
                "relaxed build at width {w}: SCCnt({v})"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Coverage sampling fans its BFS trees out over the worker pool, but
    /// the greedy consumes them in sample order: for a fixed seed the
    /// entire index — ranks, labels, checkpoint bytes — is identical at
    /// every width, on arbitrary graphs.
    #[test]
    fn coverage_sampled_builds_are_byte_identical_across_widths(
        n in 10usize..30,
        seed in any::<u64>(),
    ) {
        let g = generators::gnm(n, n * 3, seed);
        let config = |w: u32| {
            CscConfig::default()
                .with_threads(w)
                .with_order(OrderingStrategy::coverage(seed))
        };
        let reference = canonical_bytes(&CscIndex::build(&g, config(1)).unwrap());
        for &w in &PARALLEL_WIDTHS {
            let parallel = canonical_bytes(&CscIndex::build(&g, config(w)).unwrap());
            prop_assert_eq!(
                &parallel,
                &reference,
                "coverage build at width {} diverges from serial bytes (seed {})",
                w,
                seed
            );
        }
    }
}

#[test]
fn checkpoint_roundtrip_preserves_parallel_built_labels() {
    // A checkpoint written by a parallel build must reload into an index
    // that re-serializes to the same bytes and answers identically.
    let g = generators::gnm(20, 80, 19);
    let idx = CscIndex::build(&g, CscConfig::default().with_threads(4)).unwrap();
    let bytes = idx.to_bytes().unwrap();
    let back = CscIndex::from_bytes(&bytes).unwrap();
    assert_eq!(back.config().parallelism, idx.config().parallelism);
    assert_eq!(back.to_bytes().unwrap(), bytes);
    for v in g.vertices() {
        assert_eq!(back.query(v), idx.query(v), "SCCnt({v})");
    }
}
