//! Timestamped update traces and their windowed replay.
//!
//! [`build_trace`] turns a graph into a deterministic insert/delete
//! stream, valid at every position; perfbench's `serve` workload draws
//! its arrival windows from it (insert share 100). [`replay`] applies a
//! trace in fixed-size windows through
//! [`ConcurrentIndex::apply_batch`] while one thread hammers the
//! published snapshot, and reports the write side (per-window latency,
//! amortized per-update cost, publications, deletion-phase attribution)
//! next to the reader's latency percentiles.
//! [`deletion_churn`](super::deletion_churn) sweeps it over batch sizes.
//!
//! The reader shares the cores with the writer, so its throughput
//! measures the scheduler as much as the index; the latency percentiles
//! are the signal.

use csc_core::{ConcurrentIndex, CscIndex, GraphUpdate};
use csc_graph::{DiGraph, VertexId};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// One element of a timestamped update trace.
#[derive(Clone, Copy, Debug)]
pub struct TraceOp {
    /// Synthetic event time (monotone ticks; windowing policies batch by
    /// count today, but the timestamps keep the trace format honest).
    pub timestamp: u64,
    /// The update itself.
    pub update: GraphUpdate,
}

/// Builds a deterministic insert/delete trace of `ops` operations against
/// `g`: `held_out` edges are removed from the starting graph and become
/// the insertion pool, and each step pseudo-randomly inserts an absent
/// pool edge (with probability `insert_pct`%) or deletes a present one —
/// every operation is valid at its position. `insert_pct = 100` models a
/// pure arrival stream (the paper's incremental scenario);
/// 50 models steady churn. Returns the reduced starting graph and the
/// trace.
pub fn build_trace(
    g: &DiGraph,
    held_out: usize,
    ops: usize,
    insert_pct: u32,
    seed: u64,
) -> (DiGraph, Vec<TraceOp>) {
    let edges = g.edge_vec();
    let stride = (edges.len() / held_out.max(1)).max(1);
    let mut absent: Vec<(u32, u32)> = edges
        .iter()
        .step_by(stride)
        .copied()
        .take(held_out)
        .collect();
    let mut reduced = g.clone();
    for &(a, b) in &absent {
        reduced
            .try_remove_edge(VertexId(a), VertexId(b))
            .expect("held-out edge exists");
    }
    // The deletion pool: a disjoint sample of surviving edges.
    let mut present: Vec<(u32, u32)> = reduced
        .edge_vec()
        .into_iter()
        .step_by(stride.max(2))
        .take(held_out)
        .collect();

    let mut s = seed ^ 0x5eed_bead;
    let mut trace = Vec::with_capacity(ops);
    for t in 0..ops as u64 {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let insert = if absent.is_empty() {
            false
        } else if present.is_empty() {
            true
        } else {
            ((s >> 7) % 100) < u64::from(insert_pct)
        };
        let update = if insert {
            let (a, b) = absent.swap_remove((s >> 16) as usize % absent.len());
            present.push((a, b));
            GraphUpdate::InsertEdge(VertexId(a), VertexId(b))
        } else {
            let (a, b) = present.swap_remove((s >> 16) as usize % present.len());
            absent.push((a, b));
            GraphUpdate::RemoveEdge(VertexId(a), VertexId(b))
        };
        trace.push(TraceOp {
            timestamp: t,
            update,
        });
    }
    (reduced, trace)
}

/// What one replay (one batch size) measured.
#[derive(Clone, Debug)]
pub struct ReplayStats {
    /// The caller's label for the trace that ran (e.g. `"delete"`).
    pub trace: &'static str,
    /// Updates per `apply_batch` call.
    pub batch_size: usize,
    /// Batches replayed.
    pub batches: usize,
    /// Graph updates actually applied (net of normalization).
    pub applied: usize,
    /// Operations normalization cancelled or rejected across the replay.
    pub normalized_away: usize,
    /// Snapshot publications during the replay.
    pub publishes: usize,
    /// Whole-replay wall time.
    pub total: Duration,
    /// Mean per-batch write latency.
    pub batch_mean: Duration,
    /// p99 per-batch write latency.
    pub batch_p99: Duration,
    /// Amortized cost per *applied* update (`total / applied`). Does not
    /// credit normalization: cancelled ops shrink the denominator too.
    pub per_update: Duration,
    /// Amortized cost per *submitted* trace operation (`total / ops`) —
    /// the stream consumer's view, where work normalization avoids is a
    /// win like any other.
    pub per_op: Duration,
    /// Reader p50 latency under the write load, microseconds.
    pub reader_p50_us: f64,
    /// Reader p99 latency under the write load, microseconds.
    pub reader_p99_us: f64,
    /// Snapshot queries the reader answered during the replay.
    pub reader_queries: usize,
    /// Deletion-repair time classifying windows (endpoint sweeps + regime
    /// assignment), summed across batches.
    pub classify: Duration,
    /// Deletion-repair time in merged count-subtraction passes.
    pub subtract: Duration,
    /// Deletion-repair time in the re-label regime (per-hub upsert BFS
    /// and sweep).
    pub relabel: Duration,
}

/// Replays `trace` in `batch_size` windows against a fresh clone of
/// `base`, with one snapshot reader running for the duration.
///
/// The reader times every 16th query (the rest still issue, keeping the
/// contention realistic) so a long replay doesn't drown in latency
/// samples.
pub fn replay(
    kind: &'static str,
    base: &CscIndex,
    trace: &[TraceOp],
    batch_size: usize,
) -> ReplayStats {
    let shared = ConcurrentIndex::new(base.clone());
    let n = base.original_vertex_count() as u32;
    let stop = AtomicBool::new(false);
    let published_before = shared.snapshot_stats().published;

    let (replay_side, reader_lat_us) = std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            let mut lat = Vec::with_capacity(1 << 14);
            let mut x = 0x9E37_79B9u32;
            let mut i = 0u64;
            while !stop.load(Ordering::Relaxed) {
                x = x.wrapping_mul(1664525).wrapping_add(1013904223);
                let v = VertexId(x % n.max(1));
                if i.is_multiple_of(16) {
                    let t0 = Instant::now();
                    let _ = shared.query(v);
                    lat.push(t0.elapsed().as_nanos() as f64 / 1e3);
                } else {
                    let _ = shared.query(v);
                }
                i += 1;
            }
            lat
        });

        let mut batch_times = Vec::with_capacity(trace.len() / batch_size + 1);
        let mut applied = 0usize;
        let mut normalized_away = 0usize;
        let mut phases = (Duration::ZERO, Duration::ZERO, Duration::ZERO);
        let start = Instant::now();
        for window in trace.chunks(batch_size) {
            let updates: Vec<GraphUpdate> = window.iter().map(|op| op.update).collect();
            let t0 = Instant::now();
            let report = shared.apply_batch(&updates).expect("trace ops are valid");
            batch_times.push(t0.elapsed());
            applied += report.applied_updates();
            normalized_away += report.cancelled + report.rejected;
            phases.0 += report.repair.classify_time;
            phases.1 += report.repair.subtract_time;
            phases.2 += report.repair.relabel_time;
        }
        let total = start.elapsed();
        stop.store(true, Ordering::Relaxed);
        let lat = reader.join().expect("reader thread");
        ((batch_times, applied, normalized_away, phases, total), lat)
    });
    let (batch_times, applied, normalized_away, phases, total) = replay_side;

    let mut sorted_us: Vec<f64> = reader_lat_us;
    sorted_us.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let pick = |p: f64| {
        sorted_us
            .get(((sorted_us.len().saturating_sub(1)) as f64 * p) as usize)
            .copied()
            .unwrap_or(0.0)
    };
    ReplayStats {
        trace: kind,
        batch_size,
        batches: batch_times.len(),
        applied,
        normalized_away,
        publishes: shared.snapshot_stats().published - published_before,
        total,
        batch_mean: crate::measure::mean(&batch_times),
        batch_p99: crate::measure::percentile(&batch_times, 0.99),
        per_update: total / applied.max(1) as u32,
        per_op: total / trace.len().max(1) as u32,
        reader_p50_us: pick(0.5),
        reader_p99_us: pick(0.99),
        reader_queries: sorted_us.len(),
        classify: phases.0,
        subtract: phases.1,
        relabel: phases.2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csc_core::CscConfig;
    use csc_graph::generators::gnm;
    use csc_graph::traversal::shortest_cycle_oracle;

    #[test]
    fn trace_is_valid_and_deterministic() {
        let g = gnm(40, 140, 3);
        let (reduced, trace) = build_trace(&g, 16, 64, 50, 9);
        let (reduced2, trace2) = build_trace(&g, 16, 64, 50, 9);
        assert_eq!(reduced, reduced2);
        assert_eq!(trace.len(), trace2.len());
        assert!(trace
            .iter()
            .zip(&trace2)
            .all(|(a, b)| a.update == b.update && a.timestamp == b.timestamp));
        // Valid in sequence: replay against the plain graph never errors.
        let mut sim = reduced.clone();
        let mut timestamps = Vec::new();
        for op in &trace {
            timestamps.push(op.timestamp);
            match op.update {
                GraphUpdate::InsertEdge(a, b) => sim.try_add_edge(a, b).unwrap(),
                GraphUpdate::RemoveEdge(a, b) => {
                    sim.try_remove_edge(a, b).unwrap();
                }
                GraphUpdate::AddVertex => unreachable!("traces are edge-only"),
            }
        }
        assert!(timestamps.windows(2).all(|w| w[0] < w[1]), "monotone time");
    }

    #[test]
    fn insert_only_trace_has_no_deletions() {
        let g = gnm(40, 140, 3);
        let (reduced, trace) = build_trace(&g, 32, 32, 100, 7);
        assert!(trace
            .iter()
            .all(|op| matches!(op.update, GraphUpdate::InsertEdge(..))));
        let mut sim = reduced;
        for op in &trace {
            let GraphUpdate::InsertEdge(a, b) = op.update else {
                unreachable!()
            };
            sim.try_add_edge(a, b).unwrap();
        }
    }

    #[test]
    fn replay_measures_and_stays_exact() {
        let g = gnm(60, 220, 5);
        let (reduced, trace) = build_trace(&g, 12, 48, 50, 5);
        let config = CscConfig::default().with_snapshot_every(1);
        let base = CscIndex::build(&reduced, config).unwrap();
        let whole = replay("mixed", &base, &trace, 16);
        assert_eq!(whole.batches, 3);
        assert!(whole.applied > 0);
        assert!(whole.publishes >= 1 && whole.publishes <= whole.batches);
        assert!(whole.per_update <= whole.total);

        // The replayed index must end exactly where the trace says.
        let mut sim = reduced.clone();
        for op in &trace {
            match op.update {
                GraphUpdate::InsertEdge(a, b) => sim.try_add_edge(a, b).unwrap(),
                GraphUpdate::RemoveEdge(a, b) => {
                    sim.try_remove_edge(a, b).unwrap();
                }
                GraphUpdate::AddVertex => unreachable!(),
            }
        }
        let mut check = base.clone();
        for window in trace.chunks(16) {
            let updates: Vec<GraphUpdate> = window.iter().map(|op| op.update).collect();
            check.apply_batch(&updates).unwrap();
        }
        for v in sim.vertices() {
            assert_eq!(
                check.query(v).map(|c| (c.length, c.count)),
                shortest_cycle_oracle(&sim, v),
                "SCCnt({v})"
            );
        }
    }
}
