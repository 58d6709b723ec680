//! One run, end to end: generate the inputs, run untraced or traced,
//! derive the metrics, and format what the benchmark prints.

use crate::composite::{self, Composite};
use crate::inputs::{Epoch, Spec};
use crate::layered::{self, Layered};
use crate::spans::{check_spans, self_times, write_spans, Span, NONE};
use crate::sys::{self, WorkDir};
use crate::Tally;
use csc_core::ParallelismConfig;
use std::path::Path;
use std::time::Instant;

/// One printed metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name, as declared in `BENCHMARK.json`.
    pub name: &'static str,
    /// The value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples (or calls) the value summarizes.
    pub samples: usize,
}

/// What one run produced.
#[derive(Debug)]
pub struct Outcome {
    /// Lines printed before the result: environment, inputs, fingerprint,
    /// each metric with its unit and sample count, problems.
    pub lines: Vec<String>,
    /// The end-to-end metrics (untraced run) or the per-layer metrics
    /// (traced run).
    pub metrics: Vec<Metric>,
    /// Operations and checks.
    pub tally: Tally,
}

impl Outcome {
    /// `true` when nothing failed.
    pub fn correct(&self) -> bool {
        self.tally.failed == 0 && self.tally.attempted > 0
    }

    /// The result line: one JSON object.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.tally.attempted.max(1),
            self.tally.failed,
            metrics.join(", ")
        )
    }
}

/// Runs `spec` with `seed`, untraced or traced, keeping its files under
/// `out_dir` (a work directory removed at the end, and the span file of a
/// traced run).
pub fn run(spec: &Spec, seed: u64, trace: bool, out_dir: &Path) -> Outcome {
    let wall = Instant::now();
    let steal_before = sys::steal_seconds();
    let mut tally = Tally::default();
    let mut lines = vec![format!(
        "# perfbench workload={} seed={seed} trace={}",
        spec.workload.name(),
        u8::from(trace)
    )];
    let mut metrics = Vec::new();
    let name = spec.workload.name();
    let result = WorkDir::create(out_dir.join(format!("work-{name}-{}", std::process::id())))
        .map_err(|e| format!("creating the work directory: {e}"))
        .and_then(|work| {
            let epochs = (0..spec.epochs.max(1))
                .map(|e| Epoch::generate(spec, seed, e))
                .collect::<Result<Vec<_>, _>>()?;
            let first = &epochs[0].inputs;
            lines.push(format!(
                "# input epochs={} vertices={} edges={} windows={} window_ops={} reads_per_window={} checkpoint_every={} final_vertices={} final_edges={}",
                spec.epochs,
                first.graph.vertex_count(),
                first.graph.edge_count(),
                spec.windows,
                spec.window_ops,
                spec.reads_per_window,
                spec.checkpoint_every,
                first.final_graph().vertex_count(),
                first.final_graph().edge_count()
            ));
            if !trace {
                let c = composite::run(spec, &epochs, &work.0, &mut tally)?;
                lines.push(format!("# fingerprint {}", c.fingerprint));
                metrics = end_to_end(&c);
                return Ok(());
            }
            // The traced run repeats the untraced work first (one cold
            // start per epoch and one recovery per crash image) to check
            // the fingerprints match and to state the tracing overhead.
            let base = Spec {
                setups: 1,
                recoveries: 1,
                ..spec.clone()
            };
            let c = composite::run(&base, &epochs, &work.0, &mut tally)?;
            lines.push(format!("# fingerprint {}", c.fingerprint));
            for m in end_to_end(&c) {
                lines.push(format!("# untraced {}", metric_line(&m)));
            }
            let l = layered::run(spec, &epochs, &work.0, &mut tally)?;
            lines.push(format!("# traced fingerprint {}", l.fingerprint));
            tally.check(
                "the traced run's fingerprint differs from the untraced run's",
                l.fingerprint == c.fingerprint,
            );
            for problem in check_spans(l.tracer.spans()) {
                tally.check(&problem, false);
            }
            let path = out_dir.join(format!("spans-{name}-seed{seed}.jsonl"));
            match write_spans(l.tracer.spans(), &path) {
                Ok(()) => lines.push(format!(
                    "# spans {} written to {}",
                    l.tracer.spans().len(),
                    path.display()
                )),
                Err(e) => tally.check(&format!("writing spans: {e}"), false),
            }
            metrics = per_layer(&l, &c);
            Ok(())
        });
    if let Err(e) = result {
        lines.push(format!("# error: {e}"));
        if tally.failed == 0 {
            tally.check(&e, false);
        }
    }
    for m in &mut metrics {
        if !m.value.is_finite() {
            tally.check(&format!("{} is not a finite number", m.name), false);
            // JSON has no NaN or infinity; the run already counts as failed.
            m.value = 0.0;
        }
    }
    for problem in tally.problems.iter().take(20) {
        lines.push(format!("# problem: {problem}"));
    }
    let steal = match (steal_before, sys::steal_seconds()) {
        (Some(a), Some(b)) => format!("{:.2}", b - a),
        _ => "unknown".into(),
    };
    lines.push(format!(
        "# env rev={} nproc={} pool_width={} pool_threads={} steal_s={steal} wall_s={:.2}",
        sys::git_rev(Path::new(".")),
        std::thread::available_parallelism().map_or(0, usize::from),
        spec.config().parallelism.width(),
        ParallelismConfig::default().width(),
        wall.elapsed().as_secs_f64()
    ));
    lines.extend(metrics.iter().map(metric_line));
    Outcome {
        lines,
        metrics,
        tally,
    }
}

fn metric_line(m: &Metric) -> String {
    format!("{} {} {} (n={})", m.name, m.value, m.unit, m.samples)
}

fn metric(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric {
        name,
        value,
        unit,
        samples,
    }
}

/// The value at quantile `q` of ascending `sorted` (lower nearest rank).
fn quantile<T: Copy>(sorted: &[T], q: f64) -> T {
    sorted[((sorted.len() - 1) as f64 * q) as usize]
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(c: &Composite) -> Vec<Metric> {
    let mut queries = c.query_ns.clone();
    queries.sort_unstable();
    let writes = sorted(&c.write_ms);
    // The highest percentile with ten windows beyond it: p(1 - 10/N).
    let tail = writes[writes.len().saturating_sub(11)];
    let write_s: f64 = c.write_ms.iter().sum::<f64>() / 1e3;
    vec![
        metric(
            "setup_s",
            quantile(&sorted(&c.setup_s), 0.5),
            "s",
            c.setup_s.len(),
        ),
        metric(
            "query_p50_us",
            f64::from(quantile(&queries, 0.5)) / 1e3,
            "us",
            queries.len(),
        ),
        metric(
            "query_p99_us",
            f64::from(quantile(&queries, 0.99)) / 1e3,
            "us",
            queries.len(),
        ),
        metric("write_p50_ms", quantile(&writes, 0.5), "ms", writes.len()),
        metric("write_tail_ms", tail, "ms", writes.len()),
        metric(
            "write_ops_per_s",
            c.submitted as f64 / write_s,
            "1/s",
            writes.len(),
        ),
        metric(
            "recover_s",
            quantile(&sorted(&c.recover_s), 0.5),
            "s",
            c.recover_s.len(),
        ),
        metric(
            "index_bytes_per_edge",
            c.bytes_per_edge_sum / writes.len() as f64,
            "B/edge",
            writes.len(),
        ),
    ]
}

/// Span names making up each timed layer (leaf spans only).
const LAYERS: [(&str, &[&str]); 8] = [
    ("build", &["order", "build.index", "snapshot.freeze"]),
    ("log", &["wal.append", "wal.create"]),
    ("repair", &["batch.apply"]),
    ("publish", &["snapshot.publish"]),
    (
        "checkpoint",
        &["checkpoint.encode", "checkpoint.write", "checkpoint.rotate"],
    ),
    ("read", &["snapshot.query"]),
    ("kernel", &["frozen.intersect"]),
    (
        "recovery",
        &[
            "recover.decode",
            "recover.log_read",
            "recover.record",
            "recover.reanchor",
            "recover.freeze",
        ],
    ),
];

/// `<layer>.busy_ms` and `<layer>.wait_ms` names, in `LAYERS` order.
const SCHED_NAMES: [(&str, &str); 8] = [
    ("build.busy_ms", "build.wait_ms"),
    ("log.busy_ms", "log.wait_ms"),
    ("repair.busy_ms", "repair.wait_ms"),
    ("publish.busy_ms", "publish.wait_ms"),
    ("checkpoint.busy_ms", "checkpoint.wait_ms"),
    ("read.busy_ms", "read.wait_ms"),
    ("kernel.busy_ms", "kernel.wait_ms"),
    ("recovery.busy_ms", "recovery.wait_ms"),
];

/// The per-layer metrics of a traced run (`c` is its untraced twin).
pub fn per_layer(l: &Layered, c: &Composite) -> Vec<Metric> {
    let spans = l.tracer.spans();
    let k = &l.counters;
    let named = |name: &'static str| spans.iter().filter(move |s| s.name == name);
    let total_ms = |name: &'static str| {
        named(name)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .sum::<f64>()
    };
    let calls = |name: &'static str| named(name).count();
    let windows = l.fingerprint.windows.max(1) as f64;
    let reads = k.reads.max(1) as f64;
    let per_window = |name: &'static str, span: &'static str| {
        metric(name, total_ms(span) / windows, "ms", calls(span))
    };
    let per_checkpoint = |name: &'static str, span: &'static str| {
        let n = named(span).filter(|s| s.window != NONE).count();
        let ms: f64 = named(span)
            .filter(|s| s.window != NONE)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .sum();
        metric(name, ms / n.max(1) as f64, "ms", n)
    };
    // Set-up happens once per epoch and recovery once per crash image:
    // their metrics are means per call.
    let per_call = |name: &'static str, span: &'static str| {
        let n = calls(span);
        metric(name, total_ms(span) / n.max(1) as f64, "ms", n)
    };
    let recoveries = calls("recover");
    let per_recovery = |name: &'static str, total: usize| {
        metric(
            name,
            total as f64 / recoveries.max(1) as f64,
            "count",
            recoveries,
        )
    };
    let report_ms = |name: &'static str, s: f64| metric(name, s * 1e3 / windows, "ms", k.publishes);
    let own = self_times(spans);
    // A phase's unattributed remainder: its root span's self time, the
    // harness's own work between layer calls, as a mean per phase.
    let unattributed = |name: &'static str, root: &str| {
        let (sum, n) = spans
            .iter()
            .zip(&own)
            .filter(|(s, _)| s.parent == NONE && s.name == root)
            .fold((0u64, 0usize), |(sum, n), (_, &o)| (sum + o, n + 1));
        metric(name, sum as f64 / 1e6 / n.max(1) as f64, "ms", n)
    };

    let mut m = vec![
        // kernel
        metric(
            "frozen.intersect_ns",
            total_ms("frozen.intersect") * 1e6 / reads,
            "ns",
            k.reads,
        ),
        metric(
            "frozen.entries_per_query",
            k.read_entries as f64 / reads,
            "count",
            k.reads,
        ),
        metric(
            "frozen.gallop_share",
            k.gallop_reads as f64 / reads,
            "share",
            k.reads,
        ),
        // read
        metric(
            "snapshot.query_ns",
            total_ms("snapshot.query") * 1e6 / reads,
            "ns",
            k.reads,
        ),
        // publish
        per_window("snapshot.publish_ms", "snapshot.publish"),
        metric(
            "snapshot.dirty_slots",
            k.dirty_slots as f64 / k.publishes.max(1) as f64,
            "count",
            k.publishes,
        ),
        metric(
            "snapshot.arena_mb",
            k.arena_bytes as f64 / 1e6 / k.epochs.max(1) as f64,
            "MB",
            k.epochs,
        ),
        metric(
            "snapshot.dead_fraction",
            k.dead_fraction_sum / windows,
            "share",
            l.fingerprint.windows,
        ),
        // repair
        per_window("batch.apply_ms", "batch.apply"),
        metric(
            "batch.fallback_share",
            k.fallback_windows as f64 / windows,
            "share",
            l.fingerprint.windows,
        ),
        metric(
            "batch.cancelled_share",
            k.cancelled as f64 / k.submitted.max(1) as f64,
            "share",
            k.submitted,
        ),
        metric(
            "batch.hub_passes",
            k.hub_passes as f64 / windows,
            "count",
            l.fingerprint.windows,
        ),
        report_ms("batch.classify_ms", k.classify_s),
        report_ms("batch.subtract_ms", k.subtract_s),
        report_ms("batch.relabel_ms", k.relabel_s),
        // log
        per_window("wal.append_ms", "wal.append"),
        metric(
            "wal.bytes_per_window",
            k.wal_bytes as f64 / windows,
            "B",
            l.fingerprint.windows,
        ),
        // checkpoint
        per_checkpoint("checkpoint.encode_ms", "checkpoint.encode"),
        per_checkpoint("checkpoint.write_ms", "checkpoint.write"),
        per_checkpoint("checkpoint.rotate_ms", "checkpoint.rotate"),
        metric(
            "checkpoint.mb",
            k.checkpoint_bytes as f64 / 1e6 / k.checkpoints.max(1) as f64,
            "MB",
            k.checkpoints,
        ),
        // recovery
        per_call("recover.decode_ms", "recover.decode"),
        per_call("recover.log_read_ms", "recover.log_read"),
        per_call("recover.replay_ms", "recover.replay"),
        per_recovery("recover.records", k.recover_records),
        per_recovery("recover.updates", k.recover_updates),
        per_call("recover.reanchor_ms", "recover.reanchor"),
        per_call("recover.freeze_ms", "recover.freeze"),
        // build
        per_call("order.ms", "order"),
        per_call("build.ms", "build.index"),
        metric(
            "build.entries",
            k.build_entries as f64 / k.epochs.max(1) as f64,
            "count",
            k.epochs,
        ),
        per_call("snapshot.freeze_ms", "snapshot.freeze"),
    ];
    for ((_, members), (busy_name, wait_name)) in LAYERS.iter().zip(SCHED_NAMES) {
        let in_layer: Vec<&Span> = spans.iter().filter(|s| members.contains(&s.name)).collect();
        let busy: u64 = in_layer.iter().map(|s| s.busy_ns).sum();
        let wait: u64 = in_layer.iter().map(|s| s.wait_ns).sum();
        m.push(metric(busy_name, busy as f64 / 1e6, "ms", in_layer.len()));
        m.push(metric(wait_name, wait as f64 / 1e6, "ms", in_layer.len()));
    }
    m.extend([
        unattributed("unattributed_ms", "window"),
        unattributed("setup.unattributed_ms", "setup"),
        unattributed("reads.unattributed_ms", "reads"),
        unattributed("recover.unattributed_ms", "recover"),
        metric(
            "trace.overhead_share",
            l.work_s / c.work_s - 1.0,
            "share",
            1,
        ),
        metric(
            "process.peak_rss_mb",
            sys::peak_rss_mb().unwrap_or(0.0),
            "MB",
            1,
        ),
    ]);
    m
}
