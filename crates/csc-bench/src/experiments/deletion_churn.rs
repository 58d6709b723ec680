//! Extension experiment: the decremental fast path under sustained
//! deletion churn.
//!
//! The paper measures isolated single-edge deletions; a serving system
//! sees deletion *windows* (expiring edges, compliance purges, churny
//! peers). This experiment replays a delete-only trace on the G04 analog
//! through [`ConcurrentIndex::apply_batch`](csc_core::ConcurrentIndex) at
//! batch sizes 1 / 8 / 64 and measures, per size:
//!
//! * amortized per-op cost, with the **phase attribution** the windowed
//!   engine reports (classify / subtract / re-label, plus how many
//!   windows took the from-scratch rebuild fallback);
//! * reader p50/p99 under the deletion load, from a thread hammering the
//!   published snapshot for the whole replay (the reader shares the cores
//!   with the writer, so latency percentiles, not throughput, are the
//!   signal);
//! * snapshot publications (at most one per batch).
//!
//! A separate pass times plain [`CscIndex::remove_edge`] over the same
//! edges — the scalar number the windowed engine is judged against.
//! perfbench's `churn` workload mixes arrivals into every window, so this
//! is the one pure-deletion regime the repository measures.

use super::stream_replay::{replay, ReplayStats, TraceOp};
use super::ExpContext;
use crate::datasets::{by_code, generate};
use crate::measure::{fmt_duration, warm_up};
use crate::table::Table;
use csc_core::{CscConfig, CscIndex, GraphUpdate};
use csc_graph::{DiGraph, VertexId};
use std::time::{Duration, Instant};

/// Builds a delete-only trace of (up to) `ops` operations: a spread-out
/// sample of `g`'s edges, each removed exactly once, valid in sequence.
pub fn build_delete_trace(g: &DiGraph, ops: usize) -> Vec<TraceOp> {
    let edges = g.edge_vec();
    let stride = (edges.len() / ops.max(1)).max(1);
    edges
        .iter()
        .step_by(stride)
        .take(ops)
        .enumerate()
        .map(|(t, &(a, b))| TraceOp {
            timestamp: t as u64,
            update: GraphUpdate::RemoveEdge(VertexId(a), VertexId(b)),
        })
        .collect()
}

/// Mean and p99 of plain `remove_edge` over the trace's first `ops` edges.
pub struct ScalarStats {
    /// Deletions timed.
    pub ops: usize,
    /// Mean per-deletion wall time.
    pub mean: Duration,
    /// p99 per-deletion wall time.
    pub p99: Duration,
}

/// Times the scalar deletion path on a fresh clone of `base`.
pub fn measure_scalar(base: &CscIndex, trace: &[TraceOp], ops: usize) -> ScalarStats {
    let mut idx = base.clone();
    let mut times = Vec::with_capacity(ops);
    for op in trace.iter().take(ops) {
        let GraphUpdate::RemoveEdge(a, b) = op.update else {
            unreachable!("delete traces only remove");
        };
        let t0 = Instant::now();
        idx.remove_edge(a, b).expect("trace edges are present");
        times.push(t0.elapsed());
    }
    ScalarStats {
        ops: times.len(),
        mean: crate::measure::mean(&times),
        p99: crate::measure::percentile(&times, 0.99),
    }
}

/// Runs the batch-size sweep and the scalar pass on the G04 analog.
pub fn measure(ctx: &ExpContext, batch_sizes: &[usize]) -> (Vec<ReplayStats>, ScalarStats) {
    let spec = by_code("G04").expect("G04 exists");
    let g = generate(spec, ctx.scale, ctx.seed);
    let ops = if ctx.quick { 64 } else { 192 };
    let trace = build_delete_trace(&g, ops);
    // `snapshot_every = 1`: publish as eagerly as the batch size allows,
    // so reader staleness is bounded by one batch in every configuration.
    let config = CscConfig::default().with_snapshot_every(1);
    let mut base = CscIndex::build(&g, config).expect("build");
    // Every pass clones the warmed `base`.
    if let Some((a, b)) = g.edges().next() {
        warm_up(&mut base, a, b);
    }
    let stats = batch_sizes
        .iter()
        .map(|&b| replay("delete", &base, &trace, b))
        .collect();
    let scalar_ops = if ctx.quick { 16 } else { 48 };
    let scalar = measure_scalar(&base, &trace, scalar_ops);
    (stats, scalar)
}

/// Runs the experiment and returns the rendered report.
pub fn run(ctx: &ExpContext) -> String {
    let sizes = [1, 8, 64];
    let (stats, scalar) = measure(ctx, &sizes);
    let mut table = Table::new([
        "batch size",
        "batches",
        "applied",
        "per-op",
        "classify",
        "subtract",
        "re-label",
        "rebuilds",
        "publishes",
        "reader p50",
        "reader p99",
    ]);
    for s in &stats {
        table.row([
            s.batch_size.to_string(),
            s.batches.to_string(),
            s.applied.to_string(),
            fmt_duration(s.per_op),
            fmt_duration(s.classify),
            fmt_duration(s.subtract),
            fmt_duration(s.relabel),
            s.rebuild_fallbacks.to_string(),
            s.publishes.to_string(),
            format!("{:.1} us", s.reader_p50_us),
            format!("{:.1} us", s.reader_p99_us),
        ]);
    }
    ctx.save_csv("deletion_churn", &table);
    format!(
        "Extension — deletion churn through the windowed decremental engine \
         (G04 analog, delete-only trace, snapshot_every = 1, one snapshot reader):\n\n{}\n\n\
         scalar remove_edge over {} deletions: mean {}, p99 {}",
        table.render(),
        scalar.ops,
        fmt_duration(scalar.mean),
        fmt_duration(scalar.p99),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use csc_graph::generators::gnm;
    use csc_graph::traversal::shortest_cycle_oracle;

    #[test]
    fn delete_trace_is_valid_and_delete_only() {
        let g = gnm(30, 100, 3);
        let trace = build_delete_trace(&g, 24);
        assert_eq!(trace.len(), 24);
        let mut sim = g.clone();
        for op in &trace {
            let GraphUpdate::RemoveEdge(a, b) = op.update else {
                panic!("non-deletion in a delete trace");
            };
            sim.try_remove_edge(a, b).unwrap();
        }
        assert!(trace.windows(2).all(|w| w[0].timestamp < w[1].timestamp));
    }

    #[test]
    fn replay_and_scalar_agree_with_the_oracle() {
        let g = gnm(40, 150, 9);
        let trace = build_delete_trace(&g, 20);
        let base = CscIndex::build(&g, CscConfig::default().with_snapshot_every(1)).unwrap();
        let stats = replay("delete", &base, &trace, 8);
        assert_eq!(stats.applied, 20);
        assert!(stats.classify + stats.subtract + stats.relabel <= stats.total);

        let scalar = measure_scalar(&base, &trace, 8);
        assert_eq!(scalar.ops, 8);
        assert!(scalar.p99 >= scalar.mean / 2);

        // The batched replay ends exactly where the trace says.
        let mut check = base.clone();
        let mut sim = g.clone();
        for window in trace.chunks(8) {
            let ups: Vec<GraphUpdate> = window.iter().map(|o| o.update).collect();
            check.apply_batch(&ups).unwrap();
        }
        for op in &trace {
            let GraphUpdate::RemoveEdge(a, b) = op.update else {
                unreachable!()
            };
            sim.try_remove_edge(a, b).unwrap();
        }
        for v in sim.vertices() {
            assert_eq!(
                check.query(v).map(|c| (c.length, c.count)),
                shortest_cycle_oracle(&sim, v),
                "SCCnt({v})"
            );
        }
    }

    #[test]
    fn smoke_measure_runs_all_batch_sizes() {
        let ctx = ExpContext {
            scale: 0.03,
            quick: true,
            ..ExpContext::smoke()
        };
        let (stats, scalar) = measure(&ctx, &[1, 8]);
        assert_eq!(stats.len(), 2);
        assert!(stats.iter().all(|s| s.applied > 0));
        assert_eq!(
            stats[0].applied, stats[1].applied,
            "delete-only traces never normalize ops away"
        );
        assert!(stats[1].publishes < stats[0].publishes);
        assert!(scalar.ops > 0);
    }
}
