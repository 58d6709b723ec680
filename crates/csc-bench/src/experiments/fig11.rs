//! Figure 11: incremental maintenance — average update time (a) and index
//! growth (b), minimality vs redundancy.
//!
//! Protocol (Section VI-A): remove a batch of random edges from the graph,
//! build the index on the reduced graph, then insert them back one at a
//! time under each update strategy, measuring per-insertion latency and
//! label-entry growth.

use super::ExpContext;
use crate::datasets::generate;
use crate::measure::{fmt_duration, mean, warm_up};
use crate::table::Table;
use csc_core::{CscConfig, CscIndex, UpdateStrategy};
use csc_graph::{DiGraph, VertexId};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::time::Duration;

/// Measurements for one dataset under one strategy.
#[derive(Clone, Debug)]
pub struct Fig11Row {
    /// Dataset code.
    pub code: String,
    /// Update strategy measured.
    pub strategy: UpdateStrategy,
    /// Edges inserted.
    pub updates: usize,
    /// Mean per-insertion latency.
    pub mean_time: Duration,
    /// Mean label entries added per insertion (Figure 11(b)).
    pub mean_entries_added: f64,
}

/// Removes `count` random edges, returning the reduced graph and the batch.
pub fn hold_out_edges(g: &DiGraph, count: usize, seed: u64) -> (DiGraph, Vec<(u32, u32)>) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut edges = g.edge_vec();
    edges.shuffle(&mut rng);
    edges.truncate(count);
    let mut reduced = g.clone();
    for &(u, v) in &edges {
        reduced
            .try_remove_edge(VertexId(u), VertexId(v))
            .expect("edge came from the graph");
    }
    (reduced, edges)
}

/// Measures one dataset under one strategy, on an index warmed up (see
/// `measure::warm_up`) with an edge of the reduced graph.
pub fn measure_dataset(
    code: &str,
    g: &DiGraph,
    batch: usize,
    strategy: UpdateStrategy,
    seed: u64,
) -> Fig11Row {
    let (reduced, edges) = hold_out_edges(g, batch, seed);
    let config = CscConfig::default().with_update_strategy(strategy);
    let mut index = CscIndex::build(&reduced, config).expect("build reduced index");
    if let Some((u, v)) = reduced.edges().next() {
        warm_up(&mut index, u, v);
    }
    let mut times = Vec::with_capacity(edges.len());
    let mut added = 0usize;
    for &(u, v) in &edges {
        let report = index
            .insert_edge(VertexId(u), VertexId(v))
            .expect("insertion succeeds");
        times.push(report.duration);
        added += report.entries_inserted;
    }
    Fig11Row {
        code: code.to_string(),
        strategy,
        updates: edges.len(),
        mean_time: mean(&times),
        mean_entries_added: added as f64 / edges.len().max(1) as f64,
    }
}

/// Runs the experiment and returns the rendered report.
pub fn run(ctx: &ExpContext) -> String {
    // The paper removes and re-inserts 200-500 random edges per graph.
    let mut table = Table::new([
        "Graph",
        "updates",
        "Minimality time",
        "Redundancy time",
        "slowdown",
        "Min +entries",
        "Red +entries",
    ]);
    for spec in &ctx.datasets {
        let g = generate(spec, ctx.scale, ctx.seed);
        let batch = if ctx.quick { 50 } else { 200 }
            .min(g.edge_count() / 4)
            .max(1);
        let red = measure_dataset(
            spec.code,
            &g,
            batch,
            UpdateStrategy::Redundancy,
            ctx.seed ^ 0x11,
        );
        // The paper omits minimality on its two largest graphs (too slow);
        // we mirror that by skipping it in quick mode on the big analogs.
        let min = if ctx.quick && spec.paper_m > 20_000_000 {
            None
        } else {
            Some(measure_dataset(
                spec.code,
                &g,
                batch,
                UpdateStrategy::Minimality,
                ctx.seed ^ 0x11,
            ))
        };
        let (min_time, min_entries, slowdown) = match &min {
            Some(m) => (
                fmt_duration(m.mean_time),
                format!("{:.1}", m.mean_entries_added),
                format!(
                    "{:.0}x",
                    m.mean_time.as_secs_f64() / red.mean_time.as_secs_f64().max(1e-9)
                ),
            ),
            None => ("(skipped)".into(), "-".into(), "-".into()),
        };
        table.row([
            spec.code.to_string(),
            red.updates.to_string(),
            min_time,
            fmt_duration(red.mean_time),
            slowdown,
            min_entries,
            format!("{:.1}", red.mean_entries_added),
        ]);
    }
    ctx.save_csv("fig11", &table);
    format!(
        "Figure 11 — incremental update time and index growth:\n\n{}\n\
         Paper expectation: minimality is 58x-678x slower than redundancy for a \
         nearly identical index growth, which is why redundancy is the default.\n",
        table.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::by_code;

    #[test]
    fn hold_out_then_reinsert_preserves_graph() {
        let g = generate(by_code("G04").unwrap(), 0.03, 5);
        let (mut reduced, edges) = hold_out_edges(&g, 20, 9);
        assert_eq!(reduced.edge_count(), g.edge_count() - 20);
        for (u, v) in edges {
            reduced.try_add_edge(VertexId(u), VertexId(v)).unwrap();
        }
        assert_eq!(reduced, g);
    }

    #[test]
    fn both_strategies_measured() {
        let g = generate(by_code("G04").unwrap(), 0.03, 5);
        let red = measure_dataset("G04", &g, 10, UpdateStrategy::Redundancy, 3);
        let min = measure_dataset("G04", &g, 10, UpdateStrategy::Minimality, 3);
        assert_eq!(red.updates, 10);
        assert_eq!(min.updates, 10);
        assert!(red.mean_time > Duration::ZERO);
        assert!(min.mean_time > Duration::ZERO);
    }

    #[test]
    fn report_structure() {
        let mut ctx = ExpContext::smoke();
        ctx.datasets.truncate(1);
        let report = run(&ctx);
        assert!(report.contains("Figure 11"));
        assert!(report.contains("Redundancy time"));
    }
}
