//! Crash-recovery equivalence under deterministic fault injection.
//!
//! Only compiled with `--features fault-injection`. The scheme is the
//! two-pass one described in `csc_core::fault`: run a write trace once
//! unarmed while counting faultpoint hits, then re-run it once per hit
//! index with a global trigger armed there, let the injected panic tear
//! the engine down exactly as a crash would, recover from the files left
//! behind, and prove the recovered index equivalent to an oracle.
//!
//! The equivalence is *dual*: a window that was logged but whose ack
//! never returned may legitimately either survive (it reached the WAL)
//! or vanish (the tail was torn mid-append). The recovered graph must
//! equal the oracle over the acked prefix, or that plus the one
//! in-flight window — nothing else, and the index over it must pass full
//! semantic verification.

#![cfg(feature = "fault-injection")]

use csc_core::fault;
use csc_core::verify::verify_index;
use csc_core::{
    ConcurrentIndex, CscConfig, CscError, CscIndex, FsyncPolicy, GraphUpdate, MaintenanceEngine,
    MaintenanceStatus,
};
use csc_graph::generators::gnm;
use csc_graph::{DiGraph, VertexId};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

fn temp_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "csc-crash-test-{}-{tag}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn base_graph() -> DiGraph {
    gnm(12, 30, 5)
}

fn durable_config(checkpoint_every: u32) -> CscConfig {
    CscConfig::default()
        .with_fsync(FsyncPolicy::Never)
        .with_checkpoint_every(checkpoint_every)
        .with_integrity_check(true)
}

/// A deterministic trace of windows, each valid in sequence against the
/// base graph: edge flips between existing vertices plus vertex growth.
fn trace() -> Vec<Vec<GraphUpdate>> {
    use GraphUpdate::*;
    let g = base_graph();
    let mut windows = Vec::new();
    let mut sim = g.clone();
    let mut s = 0xC5C5_C5C5u64;
    let mut rng = move || {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (s >> 33) as u32
    };
    for k in 0..8 {
        let mut window = Vec::new();
        for _ in 0..=(k % 3) {
            let n = sim.vertex_count() as u32;
            match rng() % 4 {
                0 => {
                    window.push(AddVertex);
                    sim.add_vertex();
                }
                1 => {
                    // Remove some existing edge, if any.
                    if let Some(&(a, b)) = sim.edge_vec().get(rng() as usize % 8) {
                        sim.try_remove_edge(VertexId(a), VertexId(b)).unwrap();
                        window.push(RemoveEdge(VertexId(a), VertexId(b)));
                    }
                }
                _ => {
                    let (a, b) = (VertexId(rng() % n), VertexId(rng() % n));
                    if a != b && !sim.has_edge(a, b) {
                        sim.try_add_edge(a, b).unwrap();
                        window.push(InsertEdge(a, b));
                    }
                }
            }
        }
        if !window.is_empty() {
            windows.push(window);
        }
    }
    windows
}

fn apply_to_sim(sim: &mut DiGraph, window: &[GraphUpdate]) {
    for u in window {
        match *u {
            GraphUpdate::InsertEdge(a, b) => {
                sim.try_add_edge(a, b).unwrap();
            }
            GraphUpdate::RemoveEdge(a, b) => {
                sim.try_remove_edge(a, b).unwrap();
            }
            GraphUpdate::AddVertex => {
                sim.add_vertex();
            }
        }
    }
}

/// How a [`run_trace`] pass ended.
struct TraceOutcome {
    /// Windows whose `apply_batch` returned `Ok`.
    acked: usize,
    /// Whether an injected crash fired anywhere.
    crashed: bool,
    /// Whether `attach_durability` completed — before that, there is no
    /// durable state at all, and recovery refusing is the right answer.
    attached: bool,
}

/// Runs the trace against a fresh durable engine in `dir`.
fn run_trace(dir: &PathBuf, checkpoint_every: u32) -> TraceOutcome {
    let done = |acked, crashed, attached| TraceOutcome {
        acked,
        crashed,
        attached,
    };
    let engine_result = fault::quiet_catch(|| {
        MaintenanceEngine::new(
            CscIndex::build(&base_graph(), durable_config(checkpoint_every)).unwrap(),
        )
    });
    let Ok(mut engine) = engine_result else {
        return done(0, true, false);
    };
    if fault::quiet_catch(|| engine.attach_durability(dir)).map(|r| r.is_err()) != Ok(false) {
        return done(0, true, false);
    }
    for (k, window) in trace().iter().enumerate() {
        match fault::quiet_catch(|| engine.apply_batch(window)) {
            // Acked: the window is durable and applied.
            Ok(Ok(_)) => {}
            // The engine caught an injected panic inside the write path
            // and degraded — from the outside this is the crash.
            Ok(Err(CscError::Poisoned { .. })) => return done(k, true, true),
            Ok(Err(e)) => panic!("unexpected write error: {e}"),
            // The panic unwound through the engine (WAL/checkpoint
            // points are not under its catch_unwind): a hard crash.
            Err(_) => return done(k, true, true),
        }
    }
    done(trace().len(), false, true)
}

/// The recovered graph must equal the acked-prefix oracle or that plus
/// the single in-flight window.
fn assert_dual_oracle(recovered: &MaintenanceEngine, acked: usize, crashed: bool, context: &str) {
    let mut sim = base_graph();
    let windows = trace();
    for w in windows.iter().take(acked) {
        apply_to_sim(&mut sim, w);
    }
    let got = recovered.index().original_graph();
    let matches_acked = got == sim;
    let matches_inflight = crashed && acked < windows.len() && {
        let mut plus = sim.clone();
        apply_to_sim(&mut plus, &windows[acked]);
        got == plus
    };
    assert!(
        matches_acked || matches_inflight,
        "{context}: recovered graph matches neither the acked prefix \
         ({acked} windows) nor acked+in-flight"
    );
    verify_index(recovered.index()).unwrap();
}

#[test]
fn crash_at_every_faultpoint_recovers_to_oracle_state() {
    let _guard = fault::test_lock();

    // Pass 1: count the faultpoint hits of a clean run.
    fault::reset();
    let clean_dir = temp_dir("clean");
    let clean = run_trace(&clean_dir, 3);
    assert!(!clean.crashed, "unarmed run must not crash");
    assert_eq!(clean.acked, trace().len());
    let hits = fault::total_hits();
    assert!(hits > 20, "trace too small to be interesting: {hits} hits");
    std::fs::remove_dir_all(&clean_dir).unwrap();

    // Pass 2: crash at every single instrumented point, recover, verify.
    for crash_at in 1..=hits {
        fault::reset();
        fault::arm_global(crash_at);
        let dir = temp_dir(&format!("crash-{crash_at}"));
        let outcome = run_trace(&dir, 3);
        fault::reset();
        assert!(outcome.crashed, "trigger {crash_at}/{hits} must fire");

        match MaintenanceEngine::recover(&dir) {
            Ok((recovered, _report)) => {
                assert_eq!(recovered.status(), MaintenanceStatus::Serving);
                assert_dual_oracle(
                    &recovered,
                    outcome.acked,
                    outcome.crashed,
                    &format!("crash {crash_at}/{hits}"),
                );
            }
            // A crash during attach_durability may legitimately leave no
            // (complete) checkpoint behind: nothing durable was ever
            // promised, and recovery must refuse rather than guess.
            Err(CscError::Corrupt { .. }) if !outcome.attached => {}
            Err(e) => panic!("recovery after crash {crash_at}/{hits} failed: {e}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn double_crash_during_recovery_replay_is_survivable() {
    let _guard = fault::test_lock();
    fault::reset();
    let dir = temp_dir("double-replay");
    // Cadence above the trace: every window stays in the WAL suffix.
    let outcome = run_trace(&dir, 1000);
    assert!(!outcome.crashed);
    let acked = outcome.acked;

    // First recovery attempt crashes while replaying the third record.
    fault::arm("recover.replay", 3);
    let err = match fault::quiet_catch(|| MaintenanceEngine::recover(&dir)) {
        Err(msg) => msg,
        Ok(_) => panic!("the armed recovery must crash"),
    };
    assert!(err.contains("recover.replay"), "{err}");
    fault::reset();

    // read_all never mutates and the re-anchor was not reached: the
    // directory is exactly as the first crash left it, so the second
    // attempt succeeds on the same state.
    let (recovered, report) = MaintenanceEngine::recover(&dir).unwrap();
    assert_eq!(report.records_replayed, acked);
    assert_dual_oracle(&recovered, acked, false, "after double crash");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn crash_during_the_recovery_reanchor_checkpoint_is_survivable() {
    let _guard = fault::test_lock();
    fault::reset();
    let dir = temp_dir("double-anchor");
    let outcome = run_trace(&dir, 1000);
    assert!(!outcome.crashed);
    let acked = outcome.acked;
    // An unreadable newest generation over a log that still starts below
    // it (a crash between a checkpoint's rename and the log rotation,
    // plus bit rot): recovery falls back, and only then re-anchors.
    std::fs::write(csc_core::wal::checkpoint_path(&dir, 1_000), b"garbage").unwrap();

    // Crash mid-write of the re-anchor checkpoint: a torn .tmp is left
    // behind, the previous checkpoint and the full WAL are intact.
    fault::arm("checkpoint.torn", 1);
    let err = match fault::quiet_catch(|| MaintenanceEngine::recover(&dir)) {
        Err(msg) => msg,
        Ok(_) => panic!("the armed recovery must crash"),
    };
    assert!(err.contains("checkpoint.torn"), "{err}");
    fault::reset();

    let (recovered, report) = MaintenanceEngine::recover(&dir).unwrap();
    assert_eq!(report.records_replayed, acked);
    assert_dual_oracle(&recovered, acked, false, "after re-anchor crash");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Copies every file of `from` into a fresh `to`.
fn copy_dir(from: &PathBuf, to: &PathBuf) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), to.join(entry.file_name())).unwrap();
    }
}

/// The recovered graph must equal the oracle over exactly `windows`
/// windows of the trace.
fn assert_exact_prefix(recovered: &MaintenanceEngine, windows: usize, context: &str) {
    let mut sim = base_graph();
    for w in trace().iter().take(windows) {
        apply_to_sim(&mut sim, w);
    }
    assert!(
        recovered.index().original_graph() == sim,
        "{context}: recovered graph is not the {windows}-window prefix"
    );
    verify_index(recovered.index()).unwrap();
}

#[test]
fn crash_while_continuing_a_torn_log_recovers_the_acked_prefix() {
    let _guard = fault::test_lock();
    fault::reset();
    // Every window stays in the log; then its last record is torn, as a
    // crash mid-append leaves it. The acked prefix is every window
    // before the torn one.
    let torn = temp_dir("continue-torn");
    let outcome = run_trace(&torn, 1000);
    assert!(!outcome.crashed);
    let acked = outcome.acked - 1;
    let wal_path = torn.join(csc_core::wal::WAL_FILE);
    let bytes = std::fs::read(&wal_path).unwrap();
    std::fs::write(&wal_path, &bytes[..bytes.len() - 5]).unwrap();

    // Pass 1: count the faultpoint hits of a clean recovery.
    let clean = temp_dir("continue-clean");
    copy_dir(&torn, &clean);
    fault::reset();
    let (_, report) = MaintenanceEngine::recover(&clean).unwrap();
    assert!(report.wal_truncated_bytes > 0, "the tail was torn");
    let hits = fault::total_hits();
    assert!(
        hits > 5,
        "recovery too small to be interesting: {hits} hits"
    );
    std::fs::remove_dir_all(&clean).unwrap();

    // Pass 2: crash the recovery at every hit, recover again, write one
    // more window, crash, and recover once more.
    for crash_at in 1..=hits {
        let ctx = format!("recovery crash {crash_at}/{hits}");
        let dir = temp_dir(&format!("continue-{crash_at}"));
        copy_dir(&torn, &dir);
        fault::reset();
        fault::arm_global(crash_at);
        let crashed = fault::quiet_catch(|| MaintenanceEngine::recover(&dir));
        fault::reset();
        assert!(
            !matches!(crashed, Ok(Ok(_))),
            "{ctx}: the trigger must fire"
        );

        let (mut recovered, report) = MaintenanceEngine::recover(&dir)
            .unwrap_or_else(|e| panic!("{ctx}: second recovery failed: {e}"));
        assert_eq!(report.records_replayed, acked, "{ctx}");
        assert_exact_prefix(&recovered, acked, &ctx);
        recovered.apply_batch(&trace()[acked]).unwrap();
        drop(recovered); // crash after the ack

        let (recovered, report) = MaintenanceEngine::recover(&dir)
            .unwrap_or_else(|e| panic!("{ctx}: third recovery failed: {e}"));
        assert_eq!(report.records_replayed, acked + 1, "{ctx}");
        assert_exact_prefix(
            &recovered,
            acked + 1,
            &format!("{ctx}, after one more window"),
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
    std::fs::remove_dir_all(&torn).unwrap();
}

#[test]
fn poisoned_writer_keeps_serving_readers_until_recovery() {
    let _guard = fault::test_lock();
    fault::reset();

    let g = base_graph();
    let shared = ConcurrentIndex::new(CscIndex::build(&g, CscConfig::default()).unwrap());
    let before: Vec<_> = g.vertices().map(|v| shared.query(v)).collect();
    let pinned = shared.snapshot();

    // Panic mid-batch, after the graph mutated but before label repair.
    fault::arm("batch.insert.graphed", 1);
    let err = shared
        .apply_batch(&[GraphUpdate::InsertEdge(VertexId(0), VertexId(7))])
        .unwrap_err();
    fault::reset();
    assert!(matches!(err, CscError::Poisoned { .. }), "{err:?}");
    assert_eq!(shared.status(), MaintenanceStatus::Degraded);

    // Readers: both the held snapshot and fresh queries keep answering
    // the pre-crash state.
    for (v, want) in g.vertices().zip(&before) {
        assert_eq!(shared.query(v), *want, "degraded read of SCCnt({v})");
        assert_eq!(pinned.query(v), *want, "pinned snapshot SCCnt({v})");
    }
    // Writers: refused, with the poisoning context.
    let refused = shared.insert_edge(VertexId(1), VertexId(5)).unwrap_err();
    assert!(matches!(refused, CscError::Poisoned { .. }), "{refused:?}");

    // Recover in place: without durability this rebuilds from the live
    // graph — which already carries the crashed window's edge insert
    // (the graph mutates before label repair), so the write survives.
    let report = shared.recover().unwrap();
    assert_eq!(report.checkpoint_seq, 0);
    assert_eq!(shared.status(), MaintenanceStatus::Serving);
    assert_eq!(shared.maintenance_stats().recoveries, 1);
    shared.with_read(|idx| {
        assert!(idx.original_graph().has_edge(VertexId(0), VertexId(7)));
        verify_index(idx).unwrap();
    });
    // And the facade is fully writable again, republishing as it goes.
    shared.insert_edge(VertexId(7), VertexId(0)).unwrap();
    shared.refresh();
    assert_eq!(shared.query(VertexId(0)).unwrap().length, 2);
}

#[test]
fn parallel_wave_worker_panic_degrades_instead_of_aborting() {
    let _guard = fault::test_lock();
    fault::reset();

    // Width 4: a window that demotes most hub sides falls back to a label
    // rebuild, whose build waves run on pool worker threads. A panic
    // injected *inside a worker* must cross the work-stealing scope join,
    // reach the engine's degradation catch on the calling thread, and
    // poison the writer — never abort the process or hang the pool.
    let g = base_graph();
    let config = CscConfig::default().with_threads(4);
    let index = CscIndex::build(&g, config).unwrap();
    let removed: Vec<(u32, u32)> = g.edge_vec()[..2].to_vec();
    let window: Vec<GraphUpdate> = removed
        .iter()
        .map(|&(a, b)| GraphUpdate::RemoveEdge(VertexId(a), VertexId(b)))
        .collect();
    // Unarmed, the window reaches the pool — so the armed run cannot
    // silently stop exercising a worker.
    let report = index.clone().apply_batch(&window).unwrap();
    assert_eq!(report.repair.rebuild_fallbacks, 1);
    assert!(fault::hits("build.wave.worker") > 0);
    fault::reset();

    let shared = ConcurrentIndex::new(index);
    let before: Vec<_> = g.vertices().map(|v| shared.query(v)).collect();
    fault::arm("build.wave.worker", 2);
    let err = shared.apply_batch(&window).unwrap_err();
    fault::reset();
    assert!(matches!(err, CscError::Poisoned { .. }), "{err:?}");
    assert_eq!(shared.status(), MaintenanceStatus::Degraded);

    // Readers stay on the pre-crash snapshot; the pool is still usable.
    for (v, want) in g.vertices().zip(&before) {
        assert_eq!(shared.query(v), *want, "degraded read of SCCnt({v})");
    }

    // In-place recovery rebuilds from the live graph — with the same
    // parallel config, so through the same build waves — and the facade
    // serves and writes again.
    shared.recover().unwrap();
    assert_eq!(shared.status(), MaintenanceStatus::Serving);
    shared.with_read(|idx| verify_index(idx).unwrap());
    let reinsert: Vec<GraphUpdate> = removed
        .iter()
        .map(|&(a, b)| GraphUpdate::InsertEdge(VertexId(a), VertexId(b)))
        .collect();
    shared.apply_batch(&reinsert).unwrap();
    shared.refresh();
    shared.with_read(|idx| verify_index(idx).unwrap());
}

#[test]
fn concurrent_open_resumes_from_a_crashed_durable_facade() {
    let _guard = fault::test_lock();
    fault::reset();
    let dir = temp_dir("facade-open");

    let g = base_graph();
    let shared = ConcurrentIndex::new(CscIndex::build(&g, durable_config(1000)).unwrap());
    shared.attach_durability(&dir).unwrap();
    shared.insert_edge(VertexId(0), VertexId(7)).unwrap();
    shared.add_vertex().unwrap();
    shared.insert_edge(VertexId(12), VertexId(1)).unwrap();
    let want: Vec<_> = g.vertices().map(|v| shared.query_fresh(v)).collect();
    drop(shared); // crash: no clean shutdown

    let (reopened, report) = ConcurrentIndex::open(&dir).unwrap();
    assert_eq!(report.records_replayed, 3);
    for (v, want) in g.vertices().zip(&want) {
        assert_eq!(reopened.query(v), *want, "reopened SCCnt({v})");
    }
    reopened.with_read(|idx| verify_index(idx).unwrap());
    std::fs::remove_dir_all(&dir).unwrap();
}
