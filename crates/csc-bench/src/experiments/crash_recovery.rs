//! Extension experiment: crash-recovery cost and the checkpoint-cadence
//! tradeoff.
//!
//! The durability plane (see `docs/ARCHITECTURE.md`) gives the serving
//! system two knobs: every update window is WAL-logged before it
//! applies, and every `checkpoint_every` windows the index is
//! checkpointed and the log rotated. This experiment quantifies both
//! sides of that cadence on the G04 analog:
//!
//! * **write-side overhead** — wall time of the same churn replay with
//!   checkpoints taken frequently, rarely, or never (WAL-only);
//! * **recovery cost** — after a simulated crash (the engine is dropped
//!   with no clean shutdown), wall time of
//!   [`MaintenanceEngine::recover`]: loading the newest checkpoint and
//!   replaying the WAL suffix the cadence left behind, as one merged
//!   window;
//! * **the yardstick** — a cold `CscIndex::build` on the final graph,
//!   the restart cost durability exists to avoid.
//!
//! Machine-readable lines land in the `CRITERION_JSON` file (the repo
//! records them in `BENCH_recover.json`); see `docs/BENCHMARKING.md` for
//! the field reference.

use super::churn_drift::build_churn_trace;
use super::ExpContext;
use crate::datasets::{by_code, generate};
use crate::measure::{fmt_bytes, fmt_duration, time_it};
use crate::table::Table;
use csc_core::{CscConfig, CscIndex, FsyncPolicy, GraphUpdate, MaintenanceEngine};
use std::io::Write as _;
use std::path::PathBuf;
use std::time::Duration;

/// Updates per logged window (one `apply_batch` call = one WAL record).
const WINDOW_SIZE: usize = 8;

/// One cadence point of the sweep.
pub struct CadenceStats {
    /// `checkpoint_every` (windows); `u32::MAX` means "never after the
    /// initial one" — the whole run stays in the WAL.
    pub cadence: u32,
    /// Update windows applied (and WAL-logged) before the crash.
    pub windows: usize,
    /// Wall time of the whole durable replay, WAL appends and cadence
    /// checkpoints included.
    pub run_time: Duration,
    /// WAL bytes on disk at the crash.
    pub wal_bytes: u64,
    /// Newest checkpoint's size at the crash.
    pub checkpoint_bytes: u64,
    /// WAL records recovery replayed on top of the checkpoint.
    pub records_replayed: usize,
    /// Individual updates inside those records.
    pub updates_replayed: usize,
    /// Wall time of [`MaintenanceEngine::recover`].
    pub recover_time: Duration,
}

fn temp_dir(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "csc-recover-bench-{}-{tag}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// Runs the cadence sweep. Returns the per-cadence stats and the
/// cold-rebuild yardstick on the final graph.
pub fn measure(ctx: &ExpContext, cadences: &[u32]) -> (Vec<CadenceStats>, Duration) {
    let spec = by_code("G04").expect("G04 exists");
    let g = generate(spec, ctx.scale, ctx.seed);
    let ops = if ctx.quick { 96 } else { 256 };
    let (reduced, trace) = build_churn_trace(&g, 8, ops, ctx.seed);
    let windows: Vec<&[GraphUpdate]> = trace.chunks(WINDOW_SIZE).collect();

    let mut stats = Vec::with_capacity(cadences.len());
    let mut final_graph = None;
    for &cadence in cadences {
        let dir = temp_dir(&format!("cadence-{cadence}"));
        let config = CscConfig::default()
            .with_fsync(FsyncPolicy::Always)
            .with_checkpoint_every(cadence);
        let mut engine = MaintenanceEngine::new(CscIndex::build(&reduced, config).expect("build"));
        engine.attach_durability(&dir).expect("attach");
        let (_, run_time) = time_it(|| {
            for w in &windows {
                engine.apply_batch(w).expect("trace windows are valid");
            }
        });
        final_graph.get_or_insert_with(|| engine.index().original_graph());
        drop(engine); // the crash: no clean shutdown, no final checkpoint

        let wal_bytes = std::fs::metadata(dir.join(csc_core::wal::WAL_FILE)).map_or(0, |m| m.len());
        let checkpoint_bytes = csc_core::wal::list_checkpoints(&dir)
            .first()
            .and_then(|(_, p)| std::fs::metadata(p).ok())
            .map_or(0, |m| m.len());

        let ((recovered, report), recover_time) =
            time_it(|| MaintenanceEngine::recover(&dir).expect("recovery"));
        assert_eq!(
            recovered.index().original_graph(),
            *final_graph.as_ref().expect("set above"),
            "recovered state diverges at cadence {cadence}"
        );
        stats.push(CadenceStats {
            cadence,
            windows: windows.len(),
            run_time,
            wal_bytes,
            checkpoint_bytes,
            records_replayed: report.records_replayed,
            updates_replayed: report.updates_replayed,
            recover_time,
        });
        std::fs::remove_dir_all(&dir).ok();
    }

    let final_graph = final_graph.expect("at least one cadence");
    let config = CscConfig::default();
    let (_, rebuild_time) = time_it(|| CscIndex::build(&final_graph, config).expect("build"));
    (stats, rebuild_time)
}

fn fmt_cadence(c: u32) -> String {
    if c == u32::MAX {
        "never".into()
    } else {
        c.to_string()
    }
}

/// Appends one machine-readable line per cadence to the `CRITERION_JSON`
/// file — the repo records these in `BENCH_recover.json`.
pub fn record_json(stats: &[CadenceStats], rebuild: Duration, graph: &str) {
    let Ok(path) = std::env::var("CRITERION_JSON") else {
        return;
    };
    let Ok(mut f) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
    else {
        return;
    };
    for s in stats {
        let _ = writeln!(
            f,
            "{{\"group\":\"crash_recovery\",\"graph\":\"{graph}\",\"cadence\":\"{}\",\
             \"windows\":{},\"run_ms\":{:.2},\"wal_bytes\":{},\"checkpoint_bytes\":{},\
             \"records_replayed\":{},\"updates_replayed\":{},\"recover_ms\":{:.2},\
             \"cold_rebuild_ms\":{:.2}}}",
            fmt_cadence(s.cadence),
            s.windows,
            s.run_time.as_secs_f64() * 1e3,
            s.wal_bytes,
            s.checkpoint_bytes,
            s.records_replayed,
            s.updates_replayed,
            s.recover_time.as_secs_f64() * 1e3,
            rebuild.as_secs_f64() * 1e3,
        );
    }
}

/// Runs the experiment and returns the rendered report.
pub fn run(ctx: &ExpContext) -> String {
    let cadences: &[u32] = if ctx.quick {
        &[4, u32::MAX]
    } else {
        &[4, 16, 64, u32::MAX]
    };
    let (stats, rebuild) = measure(ctx, cadences);
    record_json(&stats, rebuild, "G04");
    let mut table = Table::new([
        "cadence",
        "windows",
        "run time",
        "WAL size",
        "ckpt size",
        "replayed",
        "recover",
    ]);
    for s in &stats {
        table.row([
            fmt_cadence(s.cadence),
            s.windows.to_string(),
            fmt_duration(s.run_time),
            fmt_bytes(s.wal_bytes as usize),
            fmt_bytes(s.checkpoint_bytes as usize),
            format!("{} rec / {} ops", s.records_replayed, s.updates_replayed),
            fmt_duration(s.recover_time),
        ]);
    }
    ctx.save_csv("crash_recovery", &table);
    format!(
        "Extension — crash recovery vs checkpoint cadence (G04 analog, churn \
         windows of {WINDOW_SIZE} updates, fsync=always, crash after the last \
         window):\n\n{}\n\ncold rebuild of the final graph (the restart cost \
         durability avoids): {}",
        table.render(),
        fmt_duration(rebuild),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_recovers_identically_at_every_cadence() {
        // measure() itself asserts the recovered graph matches the
        // pre-crash one at every cadence; run it small.
        let ctx = ExpContext {
            scale: 0.02,
            quick: true,
            ..Default::default()
        };
        let (stats, rebuild) = measure(&ctx, &[2, u32::MAX]);
        assert_eq!(stats.len(), 2);
        assert!(rebuild > Duration::ZERO);
        // Tight cadence: the WAL suffix is at most 2 windows long.
        assert!(stats[0].records_replayed <= 2);
        // No cadence: every window is still in the log at the crash.
        assert_eq!(stats[1].records_replayed, stats[1].windows);
        assert!(stats.iter().all(|s| s.checkpoint_bytes > 0));
    }
}
