//! Extension experiment: long-lived churn drift and online rejuvenation.
//!
//! The paper's dynamic experiments measure isolated updates against a
//! fresh index. A *long-lived* index is different: every `AddVertex`
//! lands at the bottom of the rank order, deletions leave redundant
//! entries, and label size only ratchets upward — so after sustained
//! churn the index drifts away from the one a from-scratch build over
//! the same graph would produce, in size and in query latency.
//!
//! This experiment quantifies that drift and what rejuvenation buys back.
//! Three phases over the G04 analog:
//!
//! 1. **drifted** — replay a sustained mixed trace (inserts, deletes, and
//!    wired-in vertex additions) through a [`ConcurrentIndex`], then
//!    measure label entries (total and per side), health, and query
//!    latency percentiles on the served snapshot;
//! 2. **rejuvenated** — migrate the hub order (`set_order` to the
//!    coverage-sampled strategy: the drifted index was built and repaired
//!    under the default degree order), then run an online rejuvenation
//!    (chunked rebuild under the migrated order + write-ahead replay +
//!    atomic swap) with a snapshot reader hammering queries *throughout
//!    the rebuild+replay window* and a tail of updates landing
//!    mid-rebuild, then measure again;
//! 3. **scratch** — `CscIndex::build` from scratch on the same final
//!    graph under the same (migrated) order: the yardstick. The
//!    acceptance bar is rejuvenated-vs-scratch within 10% on entries and
//!    on median/p99 query latency, with reader p99 staying bounded (no
//!    stop-the-world) through the window.
//!
//! Machine-readable results, one line per phase plus one for the rebuild
//! window, land in the `BENCH_JSON` file (see [`ExpContext::save_json`]);
//! the repo records them in `BENCH_rejuvenate.json`.

use super::stream_replay::build_trace;
use super::ExpContext;
use crate::datasets::{by_code, generate};
use crate::measure::fmt_duration;
use crate::table::Table;
use csc_core::{
    ConcurrentIndex, CscConfig, CscIndex, GraphUpdate, MaintenanceStatus, SnapshotIndex,
};
use csc_graph::{DiGraph, OrderingStrategy, VertexId};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

#[inline]
fn lcg(s: u64) -> u64 {
    s.wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407)
}

/// Builds a sustained churn trace: the 50/50 insert/delete edge stream of
/// [`build_trace`], with a wired-in vertex addition (one `AddVertex`
/// followed by one outgoing and one incoming edge) spliced in every
/// eighth edge op — the bottom-ranked churn that degrades order quality.
/// Every op is valid at its position. Returns the reduced starting graph
/// and the trace.
pub fn build_churn_trace(
    g: &DiGraph,
    held_out: usize,
    ops: usize,
    seed: u64,
) -> (DiGraph, Vec<GraphUpdate>) {
    let (reduced, edge_trace) = build_trace(g, held_out, ops, 50, seed);
    let n0 = g.vertex_count() as u64;
    let mut next_vertex = g.vertex_count() as u32;
    let mut s = seed ^ 0x00d1_f7ed;
    let mut trace = Vec::with_capacity(edge_trace.len() + edge_trace.len() / 2);
    for (k, op) in edge_trace.iter().enumerate() {
        trace.push(op.update);
        if k % 8 == 7 && n0 > 1 {
            s = lcg(s);
            let a = VertexId(((s >> 16) % n0) as u32);
            s = lcg(s);
            let b = VertexId(((s >> 16) % n0) as u32);
            let nv = VertexId(next_vertex);
            next_vertex += 1;
            trace.push(GraphUpdate::AddVertex);
            trace.push(GraphUpdate::InsertEdge(nv, a));
            trace.push(GraphUpdate::InsertEdge(b, nv));
        }
    }
    (reduced, trace)
}

/// A tail of updates valid against `g` regardless of interleaving:
/// remove-then-reinsert flaps of present edges plus one wired vertex.
/// Injected *mid-rebuild* so the write-ahead replay queue is exercised.
fn build_tail(g: &DiGraph, flaps: usize, seed: u64) -> Vec<GraphUpdate> {
    let edges = g.edge_vec();
    let stride = (edges.len() / flaps.max(1)).max(1);
    let mut tail = Vec::with_capacity(flaps * 2 + 3);
    for &(a, b) in edges.iter().step_by(stride).take(flaps) {
        tail.push(GraphUpdate::RemoveEdge(VertexId(a), VertexId(b)));
        tail.push(GraphUpdate::InsertEdge(VertexId(a), VertexId(b)));
    }
    let n = g.vertex_count() as u64;
    if n > 1 {
        let s = lcg(seed);
        let nv = VertexId(g.vertex_count() as u32);
        tail.push(GraphUpdate::AddVertex);
        tail.push(GraphUpdate::InsertEdge(
            nv,
            VertexId(((s >> 16) % n) as u32),
        ));
        tail.push(GraphUpdate::InsertEdge(
            VertexId(((s >> 40) % n) as u32),
            nv,
        ));
    }
    tail
}

/// What one phase measured.
#[derive(Clone, Debug)]
pub struct PhaseStats {
    /// `"drifted"`, `"rejuvenated"`, or `"scratch"`.
    pub phase: &'static str,
    /// Live label entries in the measured snapshot.
    pub entries: usize,
    /// In-side entries.
    pub in_entries: usize,
    /// Out-side entries.
    pub out_entries: usize,
    /// Entry growth vs. the index's own baseline (100 = at baseline).
    pub growth_percent: u32,
    /// Bottom-ranked vertices appended since the baseline.
    pub churned: usize,
    /// Dead fraction of the measured arena.
    pub dead_fraction: f64,
    /// Median single-query latency, microseconds.
    pub q_p50_us: f64,
    /// p99 single-query latency, microseconds.
    pub q_p99_us: f64,
}

/// The rebuild+replay window, as experienced by a concurrent reader.
#[derive(Clone, Debug)]
pub struct RejuvenationWindow {
    /// Wall time from `begin_rejuvenation` to the post-swap publication.
    pub duration: Duration,
    /// Updates that landed in the write-ahead queue and were replayed.
    pub replayed: usize,
    /// Cooperative `maintain` calls the driver made.
    pub maintain_calls: usize,
    /// Reader p50 latency during the window, microseconds.
    pub reader_p50_us: f64,
    /// Reader p99 latency during the window, microseconds.
    pub reader_p99_us: f64,
    /// Snapshot queries the reader answered during the window.
    pub reader_queries: usize,
}

fn percentile_us(sorted: &[f64], p: f64) -> f64 {
    sorted
        .get(((sorted.len().saturating_sub(1)) as f64 * p) as usize)
        .copied()
        .unwrap_or(0.0)
}

/// Times `samples` point queries against the snapshot (uniform over the
/// vertex range) and returns `(p50, p99)` in microseconds. Shared with
/// the `order_ablation` experiment so strategy comparisons use the same
/// sampling discipline.
pub fn query_latency(snap: &SnapshotIndex, samples: usize, seed: u64) -> (f64, f64) {
    let n = snap.original_vertex_count().max(1) as u64;
    let mut lat = Vec::with_capacity(samples);
    let mut s = seed | 1;
    for _ in 0..samples {
        s = lcg(s);
        let v = VertexId(((s >> 33) % n) as u32);
        let t0 = Instant::now();
        std::hint::black_box(snap.query(v));
        lat.push(t0.elapsed().as_nanos() as f64 / 1e3);
    }
    lat.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    (percentile_us(&lat, 0.5), percentile_us(&lat, 0.99))
}

fn measure_phase(
    phase: &'static str,
    snap: &SnapshotIndex,
    samples: usize,
    seed: u64,
) -> PhaseStats {
    let h = snap.health();
    let (q_p50_us, q_p99_us) = query_latency(snap, samples, seed);
    PhaseStats {
        phase,
        entries: h.total_entries,
        in_entries: h.in_entries,
        out_entries: h.out_entries,
        growth_percent: h.growth_percent,
        churned: h.churned_vertices,
        dead_fraction: h.dead_fraction,
        q_p50_us,
        q_p99_us,
    }
}

/// Runs the three phases and returns `(phases, window)`.
pub fn measure(ctx: &ExpContext) -> (Vec<PhaseStats>, RejuvenationWindow) {
    let spec = by_code("G04").expect("G04 exists");
    let g = generate(spec, ctx.scale, ctx.seed);
    let ops = if ctx.quick { 96 } else { 384 };
    // `.min` then `.max`, not `clamp`: at tiny scales edge_count/4 can
    // drop below 8 and `clamp(8, <8)` panics on min > max.
    let pool = (ops / 2).min(g.edge_count() / 4).max(1);
    let (reduced, trace) = build_churn_trace(&g, pool, ops, ctx.seed);
    let samples = if ctx.quick { 512 } else { 4096 };

    let config = CscConfig::default().with_snapshot_every(8);
    let shared = ConcurrentIndex::new(CscIndex::build(&reduced, config).expect("build"));

    // Phase 1: sustained churn, then measure the drifted index.
    for window in trace.chunks(16) {
        shared
            .apply_batch(window)
            .expect("churn trace ops are valid");
    }
    shared.refresh();
    let drifted = measure_phase("drifted", &shared.snapshot(), samples, ctx.seed);

    // Phase 2 also migrates the hub order: the drifted labels were built
    // and repaired under the default degree order; switching strategies
    // here makes the rejuvenation re-rank under the coverage-sampled
    // order — the long-lived-index payoff `order_ablation` quantifies
    // statically. The scratch yardstick below uses the migrated order
    // too, so the within-10% bar compares like with like.
    let migrated = OrderingStrategy::coverage(ctx.seed);
    shared.set_order(migrated).expect("serving, not rebuilding");
    let config = config.with_order(migrated);

    // Online rejuvenation under a live reader, with a tail of updates
    // landing mid-rebuild (write-ahead queue + replay).
    let tail = build_tail(&shared.with_read(|idx| idx.original_graph()), 8, ctx.seed);
    let stop = AtomicBool::new(false);
    let (window, reader_lat_us) = std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            let mut lat = Vec::with_capacity(1 << 14);
            let mut s = ctx.seed ^ 0x5eed;
            let mut i = 0u64;
            let n = shared.snapshot().original_vertex_count().max(1) as u64;
            while !stop.load(Ordering::Relaxed) {
                s = lcg(s);
                let v = VertexId(((s >> 33) % n) as u32);
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

        let replayed_before = shared.maintenance_stats().updates_replayed;
        let t0 = Instant::now();
        shared.begin_rejuvenation().expect("not poisoned");
        let mut maintain_calls = 0usize;
        let mut tail_it = tail.iter();
        loop {
            // Interleave tail writes with cooperative chunks: while the
            // rebuild is in flight they queue, afterwards they apply
            // directly — both paths must serve readers unblocked.
            if let Some(&u) = tail_it.next() {
                shared.apply_batch(&[u]).expect("tail ops are valid");
            }
            maintain_calls += 1;
            if shared.maintain(256).expect("rebuild healthy") == MaintenanceStatus::Serving
                && tail_it.len() == 0
            {
                break;
            }
        }
        let duration = t0.elapsed();
        stop.store(true, Ordering::Relaxed);
        let lat = reader.join().expect("reader thread");
        (
            RejuvenationWindow {
                duration,
                replayed: shared.maintenance_stats().updates_replayed - replayed_before,
                maintain_calls,
                reader_p50_us: 0.0,
                reader_p99_us: 0.0,
                reader_queries: 0,
            },
            lat,
        )
    });
    let mut sorted = reader_lat_us;
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let window = RejuvenationWindow {
        reader_p50_us: percentile_us(&sorted, 0.5),
        reader_p99_us: percentile_us(&sorted, 0.99),
        reader_queries: sorted.len(),
        ..window
    };
    shared.refresh();
    let rejuvenated = measure_phase("rejuvenated", &shared.snapshot(), samples, ctx.seed);

    // Phase 3: the yardstick — a from-scratch build on the same final
    // graph (tail included).
    let g_final = shared.with_read(|idx| idx.original_graph());
    let scratch_idx = CscIndex::build(&g_final, config).expect("scratch build");
    let scratch = measure_phase("scratch", &scratch_idx.freeze(), samples, ctx.seed);

    (vec![drifted, rejuvenated, scratch], window)
}

/// Appends one machine-readable line per phase, plus one for the
/// rebuild window, to the `BENCH_JSON` file.
pub fn record_json(
    ctx: &ExpContext,
    phases: &[PhaseStats],
    window: &RejuvenationWindow,
    graph: &str,
) {
    // The effective worker-pool width: results at different widths are
    // not comparable (see BENCHMARKING.md), so every line carries it.
    let threads = csc_core::ParallelismConfig::default().width();
    let phase_lines = phases.iter().map(|p| {
        format!(
            "{{\"group\":\"churn_drift\",\"graph\":\"{graph}\",\"threads\":{threads},\"phase\":\"{}\",\
             \"entries\":{},\"in_entries\":{},\"out_entries\":{},\"growth_percent\":{},\
             \"churned_vertices\":{},\"dead_fraction\":{:.4},\
             \"query_p50_us\":{:.2},\"query_p99_us\":{:.2}}}",
            p.phase,
            p.entries,
            p.in_entries,
            p.out_entries,
            p.growth_percent,
            p.churned,
            p.dead_fraction,
            p.q_p50_us,
            p.q_p99_us,
        )
    });
    let window_line = format!(
        "{{\"group\":\"rejuvenate_window\",\"graph\":\"{graph}\",\"threads\":{threads},\
         \"duration_ms\":{:.2},\"replayed\":{},\"maintain_calls\":{},\
         \"reader_p50_us\":{:.1},\"reader_p99_us\":{:.1},\"reader_queries\":{}}}",
        window.duration.as_secs_f64() * 1e3,
        window.replayed,
        window.maintain_calls,
        window.reader_p50_us,
        window.reader_p99_us,
        window.reader_queries,
    );
    ctx.save_json(phase_lines.chain(std::iter::once(window_line)));
}

/// Runs the experiment and returns the rendered report.
pub fn run(ctx: &ExpContext) -> String {
    let (phases, window) = measure(ctx);
    record_json(ctx, &phases, &window, "G04");
    let mut table = Table::new([
        "phase",
        "entries",
        "in/out",
        "growth",
        "churned",
        "dead",
        "query p50",
        "query p99",
    ]);
    for p in &phases {
        table.row([
            p.phase.to_string(),
            p.entries.to_string(),
            format!("{}/{}", p.in_entries, p.out_entries),
            format!("{}%", p.growth_percent),
            p.churned.to_string(),
            format!("{:.1}%", p.dead_fraction * 100.0),
            format!("{:.2} us", p.q_p50_us),
            format!("{:.2} us", p.q_p99_us),
        ]);
    }
    ctx.save_csv("churn_drift", &table);
    format!(
        "Extension — churn drift and online rejuvenation (G04 analog):\n\n{}\n\
         rebuild+replay window: {} ({} maintain calls, {} updates replayed), \
         reader p50 {:.1} us / p99 {:.1} us over {} queries (never blocked)",
        table.render(),
        fmt_duration(window.duration),
        window.maintain_calls,
        window.replayed,
        window.reader_p50_us,
        window.reader_p99_us,
        window.reader_queries,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use csc_graph::generators::gnm;

    #[test]
    fn churn_trace_is_valid_in_sequence() {
        let g = gnm(40, 140, 3);
        let (reduced, trace) = build_churn_trace(&g, 12, 64, 9);
        let mut sim = reduced;
        for u in &trace {
            match *u {
                GraphUpdate::InsertEdge(a, b) => sim.try_add_edge(a, b).unwrap(),
                GraphUpdate::RemoveEdge(a, b) => {
                    sim.try_remove_edge(a, b).unwrap();
                }
                GraphUpdate::AddVertex => {
                    sim.add_vertex();
                }
            }
        }
        assert!(
            trace.contains(&GraphUpdate::AddVertex),
            "vertex churn present"
        );
        assert!(sim.vertex_count() > 40);
    }

    #[test]
    fn tail_is_valid_and_exercises_the_queue() {
        let g = gnm(30, 90, 5);
        let tail = build_tail(&g, 4, 7);
        let mut sim = g;
        for u in &tail {
            match *u {
                GraphUpdate::InsertEdge(a, b) => sim.try_add_edge(a, b).unwrap(),
                GraphUpdate::RemoveEdge(a, b) => {
                    sim.try_remove_edge(a, b).unwrap();
                }
                GraphUpdate::AddVertex => {
                    sim.add_vertex();
                }
            }
        }
    }

    #[test]
    fn smoke_rejuvenation_restores_scratch_size() {
        // The acceptance criterion at smoke scale: after churn the index
        // has drifted above the from-scratch size; rejuvenation brings
        // entries back to within 10% of scratch. Latency bounds are left
        // to the real bench run (timings on 1 core are too noisy for CI).
        let ctx = ExpContext {
            scale: 0.02,
            quick: true,
            ..ExpContext::smoke()
        };
        let (phases, window) = measure(&ctx);
        let by_name = |n: &str| phases.iter().find(|p| p.phase == n).unwrap();
        let (drifted, rejuvenated, scratch) = (
            by_name("drifted"),
            by_name("rejuvenated"),
            by_name("scratch"),
        );
        assert!(
            drifted.entries >= scratch.entries,
            "churn must not shrink below scratch ({} vs {})",
            drifted.entries,
            scratch.entries
        );
        assert!(drifted.churned > 0, "trace adds churn vertices");
        let ratio = rejuvenated.entries as f64 / scratch.entries as f64;
        assert!(
            (0.9..=1.1).contains(&ratio),
            "rejuvenated entries {} vs scratch {} (ratio {ratio:.3})",
            rejuvenated.entries,
            scratch.entries
        );
        // The swap publishes the rebuilt arena, packed in one segment;
        // the tail updates applied *after* it copy lists on top of it, so
        // some dead space may have re-accumulated — but always under the
        // publication bound.
        assert!(
            rejuvenated.dead_fraction <= 0.5,
            "{}",
            rejuvenated.dead_fraction
        );
        assert!(window.replayed > 0, "tail landed in the replay queue");
        assert!(window.reader_queries > 0, "reader ran through the window");
    }
}
