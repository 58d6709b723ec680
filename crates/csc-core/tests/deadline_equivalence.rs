//! Property suite for the deadline plane: an aborted query or write must
//! never corrupt the index.
//!
//! Each case generates a churn trace (windows of inserts, deletes, and
//! vertex additions over a random `gnm` base) and replays it through
//! [`CscIndex::apply_batch_deadline`] in three trials, each on a fresh
//! index. Every window first runs under a generated deadline — roomy,
//! already expired, or a nanosecond-tight one that may fire mid-flight,
//! and so at a different point in each trial — and any `DeadlineExceeded`
//! refusal is retried unbounded. Expired-deadline queries are interleaved
//! between windows so read-path aborts land on live state too.
//!
//! The invariants, per the contract in `src/deadline.rs`:
//!
//! * a refused batch has **no observable effect**, so the retry leaves all
//!   three indexes oracle-exact against the mirror graph, and
//! * the final serialized images (`to_bytes`) are **byte-identical**
//!   across the trials — where a deadline fires leaves no trace.

use csc_core::verify::verify_index;
use csc_core::{CscConfig, CscError, CscIndex, Deadline, GraphUpdate};
use csc_graph::generators::gnm;
use csc_graph::traversal::shortest_cycle_oracle;
use csc_graph::{DiGraph, VertexId};
use proptest::collection::vec;
use proptest::prelude::*;
use std::time::{Duration, Instant};

const TRIALS: usize = 3;

fn expired() -> Deadline {
    Deadline::at(Instant::now() - Duration::from_millis(1))
}

fn roomy() -> Deadline {
    Deadline::within(Duration::from_secs(3600))
}

/// The generated deadline for one window's first attempt.
fn window_deadline(flag: u8, nanos: u64) -> Deadline {
    match flag {
        0 => roomy(),
        1 => expired(),
        // Tight enough to plausibly fire mid-window, but a race either
        // way is fine: success and refused-then-retried converge.
        _ => Deadline::within(Duration::from_nanos(nanos)),
    }
}

/// Resolves one abstract op against the mirror graph so the concrete
/// update is always valid, mutating the mirror in step. Returns `None`
/// when the op has no valid target (e.g. a delete on an edgeless graph).
fn resolve(mirror: &mut DiGraph, kind: u8, a: u32, b: u32) -> Option<GraphUpdate> {
    let n = mirror.vertex_count() as u32;
    match kind {
        0 => {
            let u = VertexId(a % n);
            let mut v = VertexId(b % n);
            if u == v {
                v = VertexId((b + 1) % n);
            }
            if u == v || mirror.has_edge(u, v) {
                return None;
            }
            mirror.try_add_edge(u, v).unwrap();
            Some(GraphUpdate::InsertEdge(u, v))
        }
        1 => {
            let m = mirror.edge_count();
            if m == 0 {
                return None;
            }
            let (u, v) = mirror.edges().nth(a as usize % m).unwrap();
            mirror.try_remove_edge(u, v).unwrap();
            Some(GraphUpdate::RemoveEdge(u, v))
        }
        _ => {
            mirror.add_vertex();
            Some(GraphUpdate::AddVertex)
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn deadline_aborts_leave_state_oracle_exact_and_width_identical(
        n in 8u32..20,
        seed in 0u64..1_000,
        windows in vec(
            (
                0u8..3,                         // deadline flag for the window
                50u64..5_000,                   // tight-deadline width in ns
                vec((0u8..3, any::<u32>(), any::<u32>()), 1..5),
            ),
            1..6,
        ),
    ) {
        let m = n as usize * 2;
        let base = gnm(n as usize, m, seed);
        let mut mirror = base.clone();

        // Resolve the abstract trace once, against a single mirror, so
        // every trial replays the exact same concrete windows.
        let concrete: Vec<(u8, u64, Vec<GraphUpdate>)> = windows
            .iter()
            .map(|(flag, nanos, ops)| {
                let mut w: Vec<GraphUpdate> = ops
                    .iter()
                    .filter_map(|&(kind, a, b)| resolve(&mut mirror, kind, a, b))
                    .collect();
                if w.is_empty() {
                    mirror.add_vertex();
                    w.push(GraphUpdate::AddVertex);
                }
                (*flag, *nanos, w)
            })
            .collect();

        let mut images = Vec::new();
        for trial in 0..TRIALS {
            let mut idx = CscIndex::build(&base, CscConfig::default()).unwrap();
            for (flag, nanos, window) in &concrete {
                match idx.apply_batch_deadline(window, window_deadline(*flag, *nanos)) {
                    Ok(_) => {}
                    Err(CscError::DeadlineExceeded) => {
                        // A refused window left no trace; the unbounded
                        // retry must apply it cleanly.
                        idx.apply_batch_deadline(window, Deadline::NONE).unwrap();
                    }
                    Err(e) => return Err(TestCaseError::fail(format!("batch failed: {e}"))),
                }
                // Read-path aborts on live state are refusals, not damage.
                prop_assert_eq!(
                    idx.query_deadline(VertexId(0), expired()),
                    Err(CscError::DeadlineExceeded)
                );
            }

            prop_assert!(verify_index(&idx).is_ok());
            for v in mirror.vertices() {
                prop_assert_eq!(
                    idx.query_deadline(v, roomy()).unwrap().map(|c| (c.length, c.count)),
                    shortest_cycle_oracle(&mirror, v),
                    "trial {}: SCCnt({})", trial, v
                );
            }
            images.push(idx.to_bytes().unwrap());
        }

        prop_assert_eq!(&images[0], &images[1], "trials 0 and 1 diverged");
        prop_assert_eq!(&images[0], &images[2], "trials 0 and 2 diverged");
    }
}
