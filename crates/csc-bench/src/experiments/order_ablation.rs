//! Extension experiment: what does coverage-sampled ordering buy?
//!
//! The [`ablation`](super::ablation) experiment shows that *bad* orders
//! (identity, random) inflate the index by large factors. This one asks
//! the sharper question: among the *good* orders — degree, degree
//! product, and the coverage-sampled order introduced with
//! [`OrderingStrategy::CoverageSampling`] — which produces the smallest
//! labels, and what does the sampling pass cost at build time?
//!
//! Every later phase pays for the ordering decision: label entries set
//! the memory footprint, and query latency scales with the label rows a
//! lookup scans. So the comparison reports, per strategy and graph:
//!
//! * **entries** — total label entries of a fresh build;
//! * **build** — wall time of the build (sampling included);
//! * **query p50/p99** — point-query percentiles on the frozen snapshot,
//!   measured with the same sampling discipline as `churn_drift`.
//!
//! Graphs: the G04 analog (the paper's smallest real dataset, run at
//! full size) and a `bridged_communities` synthetic, whose community
//! bridges are exactly the hubs a degree order under-ranks — the
//! structure coverage sampling is built to find.
//!
//! Machine-readable results, one line per strategy × graph, land in the
//! `BENCH_JSON` file (see [`ExpContext::save_json`]); the repo records
//! them in `BENCH_order.json`.

use super::churn_drift::query_latency;
use super::ExpContext;
use crate::datasets::{by_code, generate};
use crate::measure::{fmt_duration, time_it};
use crate::table::Table;
use csc_core::{CscConfig, CscIndex};
use csc_graph::generators::bridged_communities;
use csc_graph::{DiGraph, OrderingStrategy, DEFAULT_SAMPLES_PER_LOG_N};
use std::time::Duration;

/// One strategy's measurements on one graph.
#[derive(Clone, Debug)]
pub struct OrderRow {
    /// Graph label (`"G04"` or `"BRC"`).
    pub graph: &'static str,
    /// Strategy under test.
    pub order: OrderingStrategy,
    /// Total label entries after a fresh build.
    pub entries: usize,
    /// Construction time, sampling pass included.
    pub build_time: Duration,
    /// Median point-query latency, microseconds.
    pub q_p50_us: f64,
    /// p99 point-query latency, microseconds.
    pub q_p99_us: f64,
}

/// Sampling budget for the dense coverage row: at experiment scales this
/// saturates the root permutation (every vertex roots a tree in each
/// direction), showing the ceiling of the estimator; the default-budget
/// row shows what the recommended cheap setting retains of it.
pub const DENSE_SAMPLES_PER_LOG_N: u32 = 256;

/// The strategies under comparison, in report order. Degree is first so
/// it anchors the "vs degree" ratio column.
pub fn strategies(seed: u64) -> [OrderingStrategy; 4] {
    [
        OrderingStrategy::Degree,
        OrderingStrategy::DegreeProduct,
        OrderingStrategy::CoverageSampling {
            seed,
            samples_per_log_n: DEFAULT_SAMPLES_PER_LOG_N,
        },
        OrderingStrategy::CoverageSampling {
            seed,
            samples_per_log_n: DENSE_SAMPLES_PER_LOG_N,
        },
    ]
}

fn measure_graph(
    graph: &'static str,
    g: &DiGraph,
    ctx: &ExpContext,
    samples: usize,
) -> Vec<OrderRow> {
    strategies(ctx.seed)
        .into_iter()
        .map(|order| {
            let (index, build_time) = time_it(|| {
                CscIndex::build(g, CscConfig::default().with_order(order)).expect("build")
            });
            let snap = index.freeze();
            let entries = snap.health().total_entries;
            let (q_p50_us, q_p99_us) = query_latency(&snap, samples, ctx.seed);
            OrderRow {
                graph,
                order,
                entries,
                build_time,
                q_p50_us,
                q_p99_us,
            }
        })
        .collect()
}

/// Builds each graph under every strategy and measures.
pub fn measure(ctx: &ExpContext) -> Vec<OrderRow> {
    let samples = if ctx.quick { 512 } else { 4096 };
    let mut rows = Vec::new();

    let spec = by_code("G04").expect("G04 exists");
    let g04 = generate(spec, ctx.scale, ctx.seed);
    rows.extend(measure_graph("G04", &g04, ctx, samples));

    // Four communities joined by a bridge ring: the bridge endpoints
    // cover most inter-community shortest paths but have unremarkable
    // degrees, so degree-based orders bury them mid-ranking.
    let size = ((400.0 * ctx.scale) as usize).max(8);
    let brc = bridged_communities(4, size, size * 3, ctx.seed);
    rows.extend(measure_graph("BRC", &brc, ctx, samples));

    rows
}

/// Appends one machine-readable line per row to the `BENCH_JSON` file.
pub fn record_json(ctx: &ExpContext, rows: &[OrderRow]) {
    let threads = csc_core::ParallelismConfig::default().width();
    ctx.save_json(rows.iter().map(|r| {
        let (name, samples_per_log_n) = match r.order {
            OrderingStrategy::CoverageSampling {
                samples_per_log_n, ..
            } => ("coverage_sampling", samples_per_log_n),
            OrderingStrategy::Degree => ("degree", 0),
            OrderingStrategy::DegreeProduct => ("degree_product", 0),
            _ => ("other", 0),
        };
        format!(
            "{{\"group\":\"order_ablation\",\"graph\":\"{}\",\"threads\":{threads},\
             \"order\":\"{name}\",\"samples_per_log_n\":{samples_per_log_n},\
             \"entries\":{},\"build_ms\":{:.2},\
             \"query_p50_us\":{:.2},\"query_p99_us\":{:.2}}}",
            r.graph,
            r.entries,
            r.build_time.as_secs_f64() * 1e3,
            r.q_p50_us,
            r.q_p99_us,
        )
    }));
}

/// Runs the experiment and returns the rendered report.
pub fn run(ctx: &ExpContext) -> String {
    let rows = measure(ctx);
    record_json(ctx, &rows);
    let mut table = Table::new([
        "graph",
        "ordering",
        "entries",
        "vs degree",
        "build",
        "query p50",
        "query p99",
    ]);
    let mut degree_entries = 0usize;
    for r in &rows {
        if matches!(r.order, OrderingStrategy::Degree) {
            degree_entries = r.entries;
        }
        let name = match r.order {
            OrderingStrategy::CoverageSampling {
                samples_per_log_n, ..
            } => format!("coverage@{samples_per_log_n}"),
            other => format!("{other:?}").to_ascii_lowercase(),
        };
        table.row([
            r.graph.to_string(),
            name,
            r.entries.to_string(),
            format!("{:.3}x", r.entries as f64 / degree_entries.max(1) as f64),
            fmt_duration(r.build_time),
            format!("{:.2} us", r.q_p50_us),
            format!("{:.2} us", r.q_p99_us),
        ]);
    }
    ctx.save_csv("order_ablation", &table);
    format!(
        "Extension — coverage-sampled vs degree-based ordering:\n\n{}\n\
         Expectation: coverage sampling trades a sampling pass at build time \
         for the smallest labels, and the entry savings carry to query latency; \
         the gap widens on BRC, whose bridge hubs a degree order cannot see.\n",
        table.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_ctx() -> ExpContext {
        ExpContext {
            scale: 0.03,
            ..ExpContext::smoke()
        }
    }

    #[test]
    fn coverage_is_never_larger_than_degree() {
        let rows = measure(&smoke_ctx());
        assert_eq!(rows.len(), 8, "4 strategies x 2 graphs");
        for graph in ["G04", "BRC"] {
            let of = |pred: fn(&OrderingStrategy) -> bool| {
                rows.iter()
                    .find(|r| r.graph == graph && pred(&r.order))
                    .unwrap()
                    .entries
            };
            let degree = of(|o| matches!(o, OrderingStrategy::Degree));
            let coverage = of(|o| matches!(o, OrderingStrategy::CoverageSampling { .. }));
            let dense = of(|o| {
                matches!(o, OrderingStrategy::CoverageSampling { samples_per_log_n, .. }
                    if *samples_per_log_n == DENSE_SAMPLES_PER_LOG_N)
            });
            assert!(
                coverage <= degree,
                "{graph}: coverage ({coverage}) must not exceed degree ({degree})"
            );
            // The greedy is a heuristic, so a sparser sample can luckily
            // edge out the saturated one — but never by much.
            assert!(
                dense as f64 <= coverage as f64 * 1.02,
                "{graph}: a denser sample ({dense}) must not lose to the default ({coverage})"
            );
        }
    }

    #[test]
    fn report_structure() {
        let report = run(&smoke_ctx());
        assert!(report.contains("coverage"));
        assert!(report.contains("G04"));
        assert!(report.contains("BRC"));
    }
}
