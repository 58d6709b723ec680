//! Determinism contract of the parallel build plane: the wave-parallel
//! label builds commit in hub-rank order with validated prunes, and label
//! repair runs serially at every width, so the label store an index ends
//! up with is *byte-identical* — via the `to_bytes` checkpoint format —
//! whatever worker width produced it. That holds for fresh builds, for
//! churned indexes (batched inserts and deletions), and for full
//! rejuvenation traces; and repair does the same work at every width. The
//! parallelism knob itself is a non-semantic runtime field, so it is
//! normalized before comparing.

use csc::graph::generators;
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
    // Repair is serial at every width, but the rebuild fallbacks run in
    // wider build waves; under both strategies the bytes must still match
    // the serial engine's.
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
fn repair_does_the_same_work_at_every_width() {
    // Outside a rebuild fallback, which runs build waves, a window's repair
    // never touches the pool: it visits exactly as many vertices at every
    // width, and ends on the same bytes.
    for seed in [3u64, 5, 8, 13] {
        let g = generators::gnm(60, 240, seed);
        let mut sim = g.clone();
        let mut state = seed;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        let windows: Vec<Vec<GraphUpdate>> = (0..10)
            .map(|_| {
                let edges = sim.edge_vec();
                let (a, b) = edges[next() as usize % edges.len()];
                let (a, b) = (VertexId(a), VertexId(b));
                sim.try_remove_edge(a, b).unwrap();
                let mut window = vec![GraphUpdate::RemoveEdge(a, b)];
                for _ in 0..6 {
                    let (a, b) = (VertexId(next() % 60), VertexId(next() % 60));
                    if a != b && !sim.has_edge(a, b) {
                        sim.try_add_edge(a, b).unwrap();
                        window.push(GraphUpdate::InsertEdge(a, b));
                    }
                }
                window
            })
            .collect();
        let run = |threads: u32| {
            let mut idx = CscIndex::build(&g, CscConfig::default().with_threads(threads)).unwrap();
            let work: Vec<(usize, usize)> = windows
                .iter()
                .map(|window| {
                    let report = idx.apply_batch(window).unwrap();
                    let repair = report.repair;
                    (repair.rebuild_fallbacks, repair.vertices_visited)
                })
                .collect();
            (work, canonical_bytes(&idx))
        };
        let (reference, reference_bytes) = run(1);
        for &w in &PARALLEL_WIDTHS {
            let (work, bytes) = run(w);
            for (k, (got, want)) in work.iter().zip(&reference).enumerate() {
                if want.0 == 0 {
                    assert_eq!(
                        got, want,
                        "seed {seed}, window {k}: repair work at width {w}"
                    );
                }
            }
            assert_eq!(bytes, reference_bytes, "seed {seed}: bytes at width {w}");
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
