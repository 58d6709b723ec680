//! Figure 12: decremental maintenance on the G04 analog — average deletion
//! time (a) and index shrinkage (b) by edge-degree cluster.
//!
//! The paper defines the degree of an edge `(v, w)` as
//! `in_degree(v) + out_degree(w)` and splits 500 sampled edges into five
//! clusters over that range; deleting high-degree edges touches more
//! shortest paths and therefore costs more and removes more entries.

use super::ExpContext;
use crate::datasets::{by_code, generate};
use crate::measure::{fmt_duration, mean, warm_up};
use crate::table::Table;
use csc_core::{CscConfig, CscIndex};
use csc_graph::{DiGraph, VertexId};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::time::Duration;

/// Per-cluster deletion measurements.
#[derive(Clone, Debug)]
pub struct Fig12Row {
    /// Cluster name (High .. Bottom).
    pub cluster: &'static str,
    /// Edges deleted in this cluster.
    pub deletions: usize,
    /// Mean deletion latency.
    pub mean_time: Duration,
    /// Mean label entries removed per deletion (Figure 12(b)).
    pub mean_entries_removed: f64,
}

/// The paper's edge-degree metric for `(v, w)`.
pub fn edge_degree(g: &DiGraph, u: VertexId, w: VertexId) -> usize {
    g.in_degree(u) + g.out_degree(w)
}

/// Splits `edges` into the five clusters by evenly dividing the
/// edge-degree range (mirroring the vertex clustering of Section VI-A).
pub fn cluster_edges(g: &DiGraph, edges: &[(u32, u32)]) -> Vec<(&'static str, Vec<(u32, u32)>)> {
    let degrees: Vec<usize> = edges
        .iter()
        .map(|&(u, w)| edge_degree(g, VertexId(u), VertexId(w)))
        .collect();
    let lo = degrees.iter().copied().min().unwrap_or(0);
    let hi = degrees.iter().copied().max().unwrap_or(0);
    let span = (hi - lo).max(1) as f64;
    let names = ["Bottom", "Low", "Mid-low", "Mid-high", "High"];
    let mut buckets: Vec<Vec<(u32, u32)>> = vec![Vec::new(); 5];
    for (&e, &d) in edges.iter().zip(&degrees) {
        let frac = (d - lo) as f64 / span;
        let b = (frac * 5.0).min(4.999) as usize;
        buckets[b].push(e);
    }
    // Present High first, like the paper's x-axis.
    names
        .iter()
        .zip(buckets)
        .rev()
        .map(|(&n, b)| (n, b))
        .collect()
}

/// Measures deletions on `g`: each sampled edge is removed (timed) and
/// re-inserted so every deletion starts from an equivalent index, after
/// a `measure::warm_up` with the first sampled edge.
pub fn measure(g: &DiGraph, sample: usize, seed: u64) -> Vec<Fig12Row> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut edges = g.edge_vec();
    edges.shuffle(&mut rng);
    edges.truncate(sample);
    let clusters = cluster_edges(g, &edges);

    let mut index = CscIndex::build(g, CscConfig::default()).expect("build");
    if let Some(&(u, w)) = edges.first() {
        warm_up(&mut index, VertexId(u), VertexId(w));
    }
    clusters
        .into_iter()
        .map(|(cluster, batch)| {
            let mut times = Vec::with_capacity(batch.len());
            let mut removed = 0usize;
            for &(u, w) in &batch {
                let report = index
                    .remove_edge(VertexId(u), VertexId(w))
                    .expect("sampled edge exists");
                times.push(report.duration);
                removed += report.entries_removed;
                index
                    .insert_edge(VertexId(u), VertexId(w))
                    .expect("restore edge");
            }
            Fig12Row {
                cluster,
                deletions: batch.len(),
                mean_time: mean(&times),
                mean_entries_removed: removed as f64 / batch.len().max(1) as f64,
            }
        })
        .collect()
}

/// Runs the experiment and returns the rendered report.
pub fn run(ctx: &ExpContext) -> String {
    // The paper runs this on G04 with 500 edges.
    let spec = by_code("G04").expect("G04 exists");
    let g = generate(spec, ctx.scale, ctx.seed);
    let sample = if ctx.quick { 50 } else { 500 }.min(g.edge_count());
    let rows = measure(&g, sample, ctx.seed ^ 0x12);
    let mut table = Table::new([
        "Edge cluster",
        "deletions",
        "avg update time",
        "avg -entries",
    ]);
    for r in &rows {
        table.row([
            r.cluster.to_string(),
            r.deletions.to_string(),
            fmt_duration(r.mean_time),
            format!("{:.1}", r.mean_entries_removed),
        ]);
    }
    ctx.save_csv("fig12", &table);
    format!(
        "Figure 12 — decremental updates on {} (n={}, m={}, {} sampled edges):\n\n{}\n\
         Paper expectation: deletion cost grows with edge degree (~10x from Bottom \
         to High) and sits orders of magnitude above insertion cost.\n",
        spec.code,
        g.vertex_count(),
        g.edge_count(),
        sample,
        table.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_clusters_partition_the_sample() {
        let g = generate(by_code("G04").unwrap(), 0.03, 2);
        let edges: Vec<_> = g.edge_vec().into_iter().take(40).collect();
        let clusters = cluster_edges(&g, &edges);
        assert_eq!(clusters.len(), 5);
        assert_eq!(clusters[0].0, "High");
        let total: usize = clusters.iter().map(|(_, b)| b.len()).sum();
        assert_eq!(total, 40);
    }

    #[test]
    fn deletions_measured_and_restored() {
        let g = generate(by_code("G04").unwrap(), 0.02, 2);
        let rows = measure(&g, 10, 7);
        let total: usize = rows.iter().map(|r| r.deletions).sum();
        assert_eq!(total, 10);
    }

    #[test]
    fn report_structure() {
        let ctx = ExpContext {
            scale: 0.02,
            quick: true,
            ..ExpContext::smoke()
        };
        let report = run(&ctx);
        assert!(report.contains("Figure 12"));
        assert!(report.contains("Edge cluster"));
    }
}
