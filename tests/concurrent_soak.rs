//! Soak test for the write and rebuild paths under reader pressure: four
//! reader threads hammer a [`ConcurrentIndex`]'s snapshot pipeline while
//! the writer churns the graph and drives chunked rejuvenation rebuilds.
//! Every pinned snapshot must stay internally consistent, the publication
//! watermark must never run backwards (no lost snapshots), and the live
//! index must pass full structural + semantic verification at the end.
//!
//! `#[ignore]` by default — it is a soak, not a unit check. CI runs it in
//! the thread-matrix job with `cargo test -- --ignored`; locally:
//! `cargo test --test concurrent_soak -- --ignored`.

use csc::graph::generators;
use csc::index::verify::verify_index;
use csc::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;

const READERS: usize = 4;
const ROUNDS: usize = 240;
const REJUVENATE_EVERY: usize = 40;

#[test]
#[ignore = "soak test: run with -- --ignored (CI thread-matrix job does)"]
fn readers_survive_churn_and_parallel_rebuilds() {
    let g = generators::gnm(48, 192, 97);
    let config = CscConfig::default().with_snapshot_every(1);
    let shared = Arc::new(ConcurrentIndex::new(CscIndex::build(&g, config).unwrap()));
    let stop = Arc::new(AtomicBool::new(false));

    let readers: Vec<_> = (0..READERS)
        .map(|r| {
            let shared = Arc::clone(&shared);
            let stop = Arc::clone(&stop);
            thread::spawn(move || {
                let mut watermark = 0u64;
                let mut grabbed = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let snap = shared.snapshot();
                    // No lost snapshots: publication only moves forward.
                    let applied = snap.updates_applied();
                    assert!(
                        applied >= watermark,
                        "reader {r}: watermark ran backwards ({applied} < {watermark})"
                    );
                    watermark = applied;
                    // A pinned snapshot answers from one frozen arena: the
                    // batch surface and per-vertex queries must agree with
                    // each other no matter what the writer is doing.
                    let all = snap.query_all();
                    assert_eq!(all.len(), snap.original_vertex_count(), "reader {r}");
                    for v in (0..all.len()).step_by(5) {
                        assert_eq!(
                            snap.query(VertexId(v as u32)),
                            all[v],
                            "reader {r}: SCCnt({v}) disagrees inside one snapshot"
                        );
                    }
                    grabbed += 1;
                }
                grabbed
            })
        })
        .collect();

    // Writer: seeded churn windows, with a rejuvenation driven in small
    // cooperative steps every `REJUVENATE_EVERY` rounds — mid-rebuild
    // windows land in the replay queue while the rebuild runs under full
    // reader load.
    let mut s = 0x51C7_u64;
    let mut rng = move |m: u64| {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (s >> 33) % m.max(1)
    };
    for round in 0..ROUNDS {
        let mut window = Vec::new();
        let n = shared.with_read(|idx| idx.original_vertex_count()) as u64;
        for _ in 0..3 {
            let (a, b) = (VertexId(rng(n) as u32), VertexId(rng(n) as u32));
            if a != b {
                window.push(GraphUpdate::InsertEdge(a, b));
            }
        }
        let edges = shared.with_read(|idx| idx.original_graph().edge_vec());
        if !edges.is_empty() {
            let (a, b) = edges[rng(edges.len() as u64) as usize];
            window.push(GraphUpdate::RemoveEdge(VertexId(a), VertexId(b)));
        }
        shared.apply_batch(&window).unwrap();

        if round % REJUVENATE_EVERY == REJUVENATE_EVERY - 1 {
            shared.begin_rejuvenation().unwrap();
            while shared.maintain(2).unwrap() != MaintenanceStatus::Serving {
                // One extra queued write per step, so replay is non-empty.
                let v = VertexId(rng(n) as u32);
                let w = VertexId(rng(n) as u32);
                if v != w {
                    shared
                        .apply_batch(&[GraphUpdate::InsertEdge(v, w)])
                        .unwrap();
                }
            }
        }
    }

    // Drain: the final published snapshot must carry *every* applied
    // write (nothing lost between the engine and the snapshot slot) and
    // the live index must verify clean, structurally and semantically.
    shared.refresh();
    assert_eq!(shared.snapshot_stats().pending_updates, 0);
    let snap = shared.snapshot();
    shared.with_read(|idx| {
        assert_eq!(
            snap.updates_applied(),
            (idx.stats().insertions + idx.stats().deletions) as u64,
            "published watermark lags the engine"
        );
        for v in idx.original_graph().vertices() {
            assert_eq!(snap.query(v), idx.query(v), "final snapshot SCCnt({v})");
        }
        verify_index(idx).unwrap();
    });

    stop.store(true, Ordering::Relaxed);
    for (r, handle) in readers.into_iter().enumerate() {
        let grabbed = handle.join().expect("reader thread panicked");
        assert!(grabbed > 0, "reader {r} never observed a snapshot");
    }
}
