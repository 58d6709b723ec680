//! Extension experiment: reader latency under write overload, deadline
//! hit rates, and recovery under I/O faults.
//!
//! The resource-guard plane (see `docs/ARCHITECTURE.md`, "Resource guards
//! & overload") promises that overload is absorbed by the *write* side:
//! snapshot readers never wait on admission control. This experiment
//! measures that promise on the G04 analog:
//!
//! * **reader latency under surge** — per-query wall times for reader
//!   threads hammering lock-free snapshots, first against an idle index,
//!   then while a writer floods the engine mid-rejuvenation under each
//!   [`OverloadPolicy`]. The headline number is the `Reject` p99, which
//!   the repo's acceptance bar keeps within 2x of idle.
//! * **deadline hit rates** — repeated girth sweeps under budgets from
//!   "already expired" to "effectively unbounded", counting
//!   [`CscError::DeadlineExceeded`](csc_core::CscError)
//!   refusals per tier.
//! * **recovery timing** — [`MaintenanceEngine::recover`] on a durable
//!   churn directory; with the `fault-injection` feature on, the same
//!   recovery is also timed with transient I/O errors armed on the
//!   checkpoint and WAL read sites, so the jittered-backoff retry cost
//!   shows up as a separate line.
//!
//! Machine-readable lines land in the `BENCH_JSON` file (see
//! [`ExpContext::save_json`]); the repo records them in
//! `BENCH_overload.json`, and `docs/BENCHMARKING.md` defines the fields.

use super::ExpContext;
use crate::datasets::{by_code, generate};
use crate::measure::{fmt_duration, percentile, time_it};
use crate::table::Table;
use csc_core::{
    ConcurrentIndex, CscConfig, CscError, CscIndex, Deadline, FsyncPolicy, GraphUpdate,
    MaintenanceEngine, OverloadPolicy,
};
use csc_graph::VertexId;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Reader-side percentiles for one surge configuration.
pub struct SurgeStats {
    /// `"idle"`, `"block"`, `"reject"`, or `"shed-oldest"`.
    pub policy: &'static str,
    /// Queries answered across all reader threads.
    pub queries: usize,
    /// Median per-query latency.
    pub p50: Duration,
    /// 99th-percentile per-query latency.
    pub p99: Duration,
    /// Writes acknowledged during the reader window.
    pub writes_ok: usize,
    /// Writes refused with `Overloaded` during the reader window.
    pub writes_rejected: u64,
    /// Queued writes dropped by `ShedOldest` during the reader window.
    pub writes_shed: u64,
}

/// Refusal counts for one deadline budget tier.
pub struct DeadlineStats {
    /// Per-sweep budget; `None` is the unbounded control tier.
    pub budget: Option<Duration>,
    /// Girth sweeps issued.
    pub issued: usize,
    /// Sweeps refused with `DeadlineExceeded`.
    pub exceeded: usize,
}

/// One timed recovery pass.
pub struct RecoveryStats {
    /// Whether transient I/O errors were armed on the read sites.
    pub io_faults: bool,
    /// Wall time of [`MaintenanceEngine::recover`].
    pub recover_time: Duration,
    /// WAL records replayed on top of the checkpoint.
    pub records_replayed: usize,
}

fn temp_dir(tag: &str) -> PathBuf {
    use std::sync::atomic::AtomicU64;
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "csc-overload-bench-{}-{tag}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// Runs reader threads against lock-free snapshots for a fixed query
/// count each, returning every per-query latency.
fn reader_pass(index: &ConcurrentIndex, threads: usize, per_thread: usize) -> Vec<Duration> {
    let mut all = Vec::with_capacity(threads * per_thread);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                scope.spawn(move || {
                    let mut lat = Vec::with_capacity(per_thread);
                    let mut x = (t as u32).wrapping_mul(2654435761).wrapping_add(1);
                    for _ in 0..per_thread {
                        x = x.wrapping_mul(1664525).wrapping_add(1013904223);
                        let snap = index.snapshot();
                        let n = snap.original_vertex_count() as u32;
                        let v = VertexId(x % n.max(1));
                        let (_, t) = time_it(|| snap.query(v));
                        lat.push(t);
                    }
                    lat
                })
            })
            .collect();
        for h in handles {
            all.extend(h.join().expect("reader thread"));
        }
    });
    all
}

/// One surge pass: readers measure latency while a writer floods the
/// engine mid-rejuvenation under `policy` (`None` = idle baseline).
fn surge_pass(
    ctx: &ExpContext,
    base: &csc_graph::DiGraph,
    policy: Option<(&'static str, OverloadPolicy)>,
    readers: usize,
    per_thread: usize,
) -> SurgeStats {
    // Publication is amortized so the surge writer isn't rate-limited by
    // per-write snapshot refreezes — the point is to flood the admission
    // queue, not the publisher.
    let mut config = CscConfig::default().with_snapshot_every(256);
    // Watermarks sit well below the queue depth a rebuild survives:
    // queued writes co-operatively advance the rebuild, so a high
    // watermark must be reachable before the rebuild drains itself.
    if let Some((_, p)) = policy {
        config = config.with_overload_policy(p, 4, 1);
    }
    let index = ConcurrentIndex::new(CscIndex::build(base, config).expect("build"));
    // Enter Rebuilding before the measured window opens: with a tiny step
    // budget the rebuild stays in flight, the replay queue fills, and the
    // policy actually engages while the readers measure.
    if policy.is_some() {
        index.begin_rejuvenation().expect("begin");
    }
    let stop = AtomicBool::new(false);
    let mut writes_ok = 0usize;

    let latencies = std::thread::scope(|scope| {
        let writer = policy.map(|_| {
            let index = &index;
            let stop = &stop;
            scope.spawn(move || {
                // AddVertex stays valid no matter which queued ops a
                // `ShedOldest` run later drops.
                let mut ok = 0usize;
                let mut i = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    match index.add_vertex() {
                        Ok(_) => ok += 1,
                        Err(CscError::Overloaded { .. }) => {}
                        Err(e) => panic!("surge write failed: {e}"),
                    }
                    i += 1;
                    if i.is_multiple_of(256) {
                        let _ = index.maintain(1);
                    }
                }
                ok
            })
        });
        let lat = reader_pass(&index, readers, per_thread);
        stop.store(true, Ordering::Relaxed);
        if let Some(w) = writer {
            writes_ok = w.join().expect("writer thread");
        }
        lat
    });

    // Drain any in-flight rebuild so the health counters are final.
    while matches!(
        index.status(),
        csc_core::MaintenanceStatus::Rebuilding { .. }
    ) {
        index.maintain(usize::MAX).expect("drain");
    }
    let health = index.health();
    let _ = ctx;
    SurgeStats {
        policy: policy.map_or("idle", |(name, _)| name),
        queries: latencies.len(),
        p50: percentile(&latencies, 0.50),
        p99: percentile(&latencies, 0.99),
        writes_ok,
        writes_rejected: health.writes_rejected,
        writes_shed: health.writes_shed,
    }
}

/// Counts `DeadlineExceeded` refusals for girth sweeps per budget tier.
fn deadline_pass(base: &csc_graph::DiGraph, repeats: usize) -> Vec<DeadlineStats> {
    let idx = CscIndex::build(base, CscConfig::default()).expect("build");
    let snap = idx.freeze();
    let tiers: [Option<Duration>; 3] = [
        Some(Duration::ZERO),            // refused at admission
        Some(Duration::from_micros(20)), // typically aborts mid-sweep
        None,                            // unbounded control
    ];
    tiers
        .into_iter()
        .map(|budget| {
            let mut exceeded = 0usize;
            for _ in 0..repeats {
                let deadline = budget.map_or(Deadline::NONE, Deadline::within);
                match snap.girth_deadline(deadline) {
                    Ok(_) => {}
                    Err(CscError::DeadlineExceeded) => exceeded += 1,
                    Err(e) => panic!("girth sweep failed: {e}"),
                }
            }
            DeadlineStats {
                budget,
                issued: repeats,
                exceeded,
            }
        })
        .collect()
}

/// Times recovery of a durable churn directory — clean, and (with the
/// `fault-injection` feature) with transient I/O read errors armed.
fn recovery_pass(base: &csc_graph::DiGraph, windows: &[Vec<GraphUpdate>]) -> Vec<RecoveryStats> {
    let dir = temp_dir("recovery");
    let config = CscConfig::default()
        .with_fsync(FsyncPolicy::Always)
        .with_checkpoint_every(u32::MAX);
    let mut engine = MaintenanceEngine::new(CscIndex::build(base, config).expect("build"));
    engine.attach_durability(&dir).expect("attach");
    for w in windows {
        engine.apply_batch(w).expect("windows are valid");
    }
    drop(engine); // simulated crash

    // Recovery may change the directory it opens (a dropped torn tail, a
    // fresh log, or a re-anchor after a fallback), so each timed pass gets
    // its own pristine copy of the crash state.
    let fault_dir = temp_dir("recovery-faults");
    for entry in std::fs::read_dir(&dir).expect("read crash dir") {
        let entry = entry.expect("dir entry");
        std::fs::copy(entry.path(), fault_dir.join(entry.file_name())).expect("copy crash state");
    }

    let mut stats = Vec::new();
    let ((_, report), recover_time) =
        time_it(|| MaintenanceEngine::recover(&dir).expect("recovery"));
    stats.push(RecoveryStats {
        io_faults: false,
        recover_time,
        records_replayed: report.records_replayed,
    });

    #[cfg(feature = "fault-injection")]
    {
        use std::io::ErrorKind;
        csc_core::fault::reset();
        csc_core::fault::arm_io("io.checkpoint.read", 1, ErrorKind::Interrupted, 2);
        csc_core::fault::arm_io("io.wal.read", 1, ErrorKind::Interrupted, 2);
        let ((_, report), recover_time) =
            time_it(|| MaintenanceEngine::recover(&fault_dir).expect("retried recovery"));
        csc_core::fault::reset();
        stats.push(RecoveryStats {
            io_faults: true,
            recover_time,
            records_replayed: report.records_replayed,
        });
    }

    #[cfg(not(feature = "fault-injection"))]
    let _ = &fault_dir;

    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&fault_dir).ok();
    stats
}

/// Runs the full sweep: idle baseline, one surge per policy, deadline
/// tiers, and the recovery timings.
pub fn measure(ctx: &ExpContext) -> (Vec<SurgeStats>, Vec<DeadlineStats>, Vec<RecoveryStats>) {
    let spec = by_code("G04").expect("G04 exists");
    let g = generate(spec, ctx.scale, ctx.seed);
    let readers = 2;
    let per_thread = if ctx.quick { 100_000 } else { 400_000 };

    let mut surges = vec![surge_pass(ctx, &g, None, readers, per_thread)];
    for (name, policy) in [
        ("block", OverloadPolicy::Block),
        ("reject", OverloadPolicy::Reject),
        ("shed-oldest", OverloadPolicy::ShedOldest),
    ] {
        surges.push(surge_pass(
            ctx,
            &g,
            Some((name, policy)),
            readers,
            per_thread,
        ));
    }

    let deadlines = deadline_pass(&g, if ctx.quick { 32 } else { 128 });

    let n = g.vertex_count() as u32;
    let windows: Vec<Vec<GraphUpdate>> = (0..8)
        .map(|i| {
            vec![
                GraphUpdate::AddVertex,
                GraphUpdate::InsertEdge(VertexId(i % n), VertexId(n + i)),
            ]
        })
        .collect();
    let recoveries = recovery_pass(&g, &windows);

    (surges, deadlines, recoveries)
}

/// Appends one machine-readable line per surge, deadline tier and
/// recovery pass to the `BENCH_JSON` file.
pub fn record_json(
    ctx: &ExpContext,
    surges: &[SurgeStats],
    deadlines: &[DeadlineStats],
    recoveries: &[RecoveryStats],
    graph: &str,
) {
    let surge_lines = surges.iter().map(|s| {
        format!(
            "{{\"group\":\"overload_surge\",\"kind\":\"readers\",\"graph\":\"{graph}\",\
             \"policy\":\"{}\",\"queries\":{},\"p50_us\":{:.3},\"p99_us\":{:.3},\
             \"writes_ok\":{},\"writes_rejected\":{},\"writes_shed\":{}}}",
            s.policy,
            s.queries,
            s.p50.as_secs_f64() * 1e6,
            s.p99.as_secs_f64() * 1e6,
            s.writes_ok,
            s.writes_rejected,
            s.writes_shed,
        )
    });
    let deadline_lines = deadlines.iter().map(|d| {
        format!(
            "{{\"group\":\"overload_surge\",\"kind\":\"deadline\",\"graph\":\"{graph}\",\
             \"budget_us\":{},\"issued\":{},\"exceeded\":{}}}",
            d.budget
                .map_or("null".into(), |b| format!("{:.1}", b.as_secs_f64() * 1e6)),
            d.issued,
            d.exceeded,
        )
    });
    let recovery_lines = recoveries.iter().map(|r| {
        format!(
            "{{\"group\":\"overload_surge\",\"kind\":\"recovery\",\"graph\":\"{graph}\",\
             \"io_faults\":{},\"recover_ms\":{:.2},\"records_replayed\":{}}}",
            r.io_faults,
            r.recover_time.as_secs_f64() * 1e3,
            r.records_replayed,
        )
    });
    ctx.save_json(surge_lines.chain(deadline_lines).chain(recovery_lines));
}

/// Runs the experiment and returns the rendered report.
pub fn run(ctx: &ExpContext) -> String {
    let (surges, deadlines, recoveries) = measure(ctx);
    record_json(ctx, &surges, &deadlines, &recoveries, "G04");

    let idle_p99 = surges[0].p99;
    let mut readers = Table::new([
        "policy",
        "queries",
        "p50",
        "p99",
        "vs idle",
        "writes ok",
        "rejected",
        "shed",
    ]);
    for s in &surges {
        readers.row([
            s.policy.to_string(),
            s.queries.to_string(),
            fmt_duration(s.p50),
            fmt_duration(s.p99),
            format!(
                "{:.2}x",
                s.p99.as_secs_f64() / idle_p99.as_secs_f64().max(1e-12)
            ),
            s.writes_ok.to_string(),
            s.writes_rejected.to_string(),
            s.writes_shed.to_string(),
        ]);
    }
    ctx.save_csv("overload_surge", &readers);

    let mut dl = Table::new(["sweep budget", "issued", "exceeded"]);
    for d in &deadlines {
        dl.row([
            d.budget.map_or("unbounded".into(), fmt_duration),
            d.issued.to_string(),
            d.exceeded.to_string(),
        ]);
    }

    let mut rec = Table::new(["I/O faults", "recover", "records replayed"]);
    for r in &recoveries {
        rec.row([
            if r.io_faults { "armed" } else { "none" }.to_string(),
            fmt_duration(r.recover_time),
            r.records_replayed.to_string(),
        ]);
    }

    format!(
        "Extension — overload & resource guards (G04 analog):\n\n\
         Reader latency, idle vs write surge per overload policy:\n{}\n\
         Deadline hit rates (girth sweeps):\n{}\n\
         Recovery timing:\n{}",
        readers.render(),
        dl.render(),
        rec.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn surge_sweep_runs_and_reject_bounds_reader_latency() {
        let ctx = ExpContext {
            scale: 0.02,
            quick: true,
            ..ExpContext::smoke()
        };
        let (surges, deadlines, recoveries) = measure(&ctx);
        assert_eq!(surges.len(), 4);
        assert_eq!(surges[0].policy, "idle");
        assert!(surges.iter().all(|s| s.queries > 0));
        let reject = surges.iter().find(|s| s.policy == "reject").unwrap();
        assert!(
            reject.writes_ok > 0 || reject.writes_rejected > 0,
            "the surge engaged the engine"
        );

        // Tier 0 (zero budget) is refused at admission every time; the
        // unbounded control never is.
        assert_eq!(deadlines[0].exceeded, deadlines[0].issued);
        assert_eq!(deadlines.last().unwrap().exceeded, 0);

        assert!(!recoveries.is_empty());
        assert!(recoveries[0].records_replayed > 0);
    }
}
