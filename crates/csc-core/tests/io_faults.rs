//! I/O-error fault injection across every instrumented durability site.
//!
//! Only compiled with `--features fault-injection`. Where the crash suite
//! (`crash_recovery.rs`) tears the process down with panics, this suite
//! makes the *disk* lie: each instrumented WAL / checkpoint site returns
//! an injected `io::Error` instead of performing its operation. The
//! contract under test, for every site:
//!
//! * a **transient** failure (e.g. `Interrupted`) is retried under the
//!   configured [`RetryPolicy`] and absorbed — the caller never sees it;
//! * a **persistent** failure (e.g. `StorageFull`, the `ENOSPC` kind) is
//!   not retried forever: the durability plane degrades to *loud*
//!   in-memory-only mode, recorded in [`IndexHealth`], while the engine
//!   keeps serving reads and accepting writes;
//! * in no case does an injected I/O error panic the engine, hang it, or
//!   silently lose an acknowledged write.

#![cfg(feature = "fault-injection")]

use csc_core::fault;
use csc_core::verify::verify_index;
use csc_core::{
    CscConfig, CscIndex, FsyncPolicy, GraphUpdate, MaintenanceEngine, MaintenanceStatus,
    RetryPolicy,
};
use csc_graph::generators::gnm;
use csc_graph::{DiGraph, VertexId};
use std::io::ErrorKind;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

fn temp_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "csc-io-fault-{}-{tag}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn base_graph() -> DiGraph {
    gnm(12, 30, 9)
}

/// Durable config exercising every I/O site on a short trace: fsync on
/// every append, checkpoint every 2 windows, zero-sleep retries so the
/// per-site sweep stays fast.
fn durable_config() -> CscConfig {
    CscConfig::default()
        .with_checkpoint_every(2)
        .with_fsync(FsyncPolicy::Always)
        .with_integrity_check(true)
        .with_io_retry(RetryPolicy::new(4, Duration::ZERO, Duration::ZERO))
}

/// A deterministic valid window trace against [`base_graph`].
fn trace() -> Vec<Vec<GraphUpdate>> {
    use GraphUpdate::*;
    vec![
        vec![InsertEdge(VertexId(0), VertexId(6)), AddVertex],
        vec![InsertEdge(VertexId(12), VertexId(3))],
        vec![InsertEdge(VertexId(3), VertexId(12)), AddVertex],
        vec![RemoveEdge(VertexId(0), VertexId(6))],
        vec![InsertEdge(VertexId(13), VertexId(0))],
        vec![InsertEdge(VertexId(0), VertexId(13))],
    ]
}

fn oracle_graph(windows: usize) -> DiGraph {
    let mut g = base_graph();
    for w in trace().iter().take(windows) {
        for u in w {
            match *u {
                GraphUpdate::InsertEdge(a, b) => {
                    g.try_add_edge(a, b).unwrap();
                }
                GraphUpdate::RemoveEdge(a, b) => {
                    g.try_remove_edge(a, b).unwrap();
                }
                GraphUpdate::AddVertex => {
                    g.add_vertex();
                }
            }
        }
    }
    g
}

#[test]
fn transient_error_at_every_io_site_never_fails_a_write_or_loses_state() {
    let _guard = fault::test_lock();

    // Pass 1: count the I/O-site hits of a clean durable run.
    fault::reset();
    let clean_dir = temp_dir("clean");
    {
        let mut engine =
            MaintenanceEngine::new(CscIndex::build(&base_graph(), durable_config()).unwrap());
        engine.attach_durability(&clean_dir).unwrap();
        for w in &trace() {
            engine.apply_batch(w).unwrap();
        }
    }
    let hits = fault::io_total_hits();
    assert!(
        hits > 15,
        "trace too small to be interesting: {hits} I/O hits"
    );
    std::fs::remove_dir_all(&clean_dir).unwrap();

    // Pass 2: inject one transient error at every single I/O site hit.
    // Whatever the site, every write must still be acked, the final state
    // must equal the oracle, and the engine must either keep its
    // durability (retry absorbed the blip) or have refused the
    // attachment cleanly up front.
    for inject_at in 1..=hits {
        fault::reset();
        fault::arm_io_global(inject_at, ErrorKind::Interrupted);
        let dir = temp_dir(&format!("transient-{inject_at}"));

        let mut engine =
            MaintenanceEngine::new(CscIndex::build(&base_graph(), durable_config()).unwrap());
        let attached = engine.attach_durability(&dir).is_ok();
        for (k, w) in trace().iter().enumerate() {
            engine
                .apply_batch(w)
                .unwrap_or_else(|e| panic!("hit {inject_at}/{hits}, window {k}: {e}"));
        }
        fault::reset();

        let ctx = format!("transient injection at I/O hit {inject_at}/{hits}");
        assert_eq!(engine.status(), MaintenanceStatus::Serving, "{ctx}");
        assert_eq!(
            engine.index().original_graph(),
            oracle_graph(usize::MAX),
            "{ctx}"
        );
        verify_index(engine.index()).unwrap();
        let health = engine.health();
        if attached {
            assert!(
                !health.durability_degraded,
                "{ctx}: one transient blip must be absorbed by the retries"
            );
            // The durable trail is complete: recovery reproduces the
            // exact final state.
            drop(engine);
            let (recovered, _report) = MaintenanceEngine::recover(&dir).unwrap();
            assert_eq!(
                recovered.index().original_graph(),
                oracle_graph(usize::MAX),
                "{ctx}: recovery"
            );
            verify_index(recovered.index()).unwrap();
        } else {
            // The attach path makes no durability promise until it
            // returns Ok; a refusal is loud and leaves a fully serving
            // in-memory engine.
            assert!(!health.durability_degraded, "{ctx}: nothing was attached");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn persistent_enospc_on_wal_append_degrades_loudly_and_reattach_clears() {
    let _guard = fault::test_lock();
    fault::reset();
    let dir = temp_dir("enospc-wal");

    let mut engine =
        MaintenanceEngine::new(CscIndex::build(&base_graph(), durable_config()).unwrap());
    engine.attach_durability(&dir).unwrap();
    engine.apply_batch(&trace()[0]).unwrap();

    // The disk fills: every append attempt fails with ENOSPC, past the
    // retry budget. The write itself must still be acked — the engine
    // drops to loud in-memory-only mode instead of failing or poisoning.
    fault::arm_io("io.wal.append", 1, ErrorKind::StorageFull, 1_000);
    engine.apply_batch(&trace()[1]).unwrap();
    fault::reset();

    assert_eq!(engine.status(), MaintenanceStatus::Serving);
    let health = engine.health();
    assert!(health.durability_degraded, "{health}");
    let detail = engine.durability_degraded_detail().unwrap().to_string();
    assert!(detail.contains("wal append failed"), "{detail}");

    // Readers and writers are unaffected; nothing further is logged.
    verify_index(engine.index()).unwrap();
    engine.apply_batch(&trace()[2]).unwrap();
    assert_eq!(engine.index().original_graph(), oracle_graph(3));

    // Re-attaching (e.g. to a drained disk) writes a fresh full
    // checkpoint, re-covering the state the outage left unlogged, and
    // clears the degradation flag.
    let fresh = temp_dir("enospc-reattach");
    engine.attach_durability(&fresh).unwrap();
    assert!(!engine.health().durability_degraded);
    engine.apply_batch(&trace()[3]).unwrap();
    drop(engine);

    let (recovered, _report) = MaintenanceEngine::recover(&fresh).unwrap();
    assert_eq!(recovered.index().original_graph(), oracle_graph(4));
    verify_index(recovered.index()).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&fresh).unwrap();
}

#[test]
fn persistent_checkpoint_failure_degrades_but_preserves_the_durable_prefix() {
    let _guard = fault::test_lock();
    fault::reset();
    let dir = temp_dir("enospc-ckpt");

    let mut engine =
        MaintenanceEngine::new(CscIndex::build(&base_graph(), durable_config()).unwrap());
    engine.attach_durability(&dir).unwrap();
    engine.apply_batch(&trace()[0]).unwrap();

    // checkpoint_every = 2: the second window triggers a checkpoint,
    // whose write persistently fails. The window itself was WAL-logged
    // *before* the checkpoint attempt, so the durable prefix on disk
    // covers both windows; only post-degradation writes are in-memory.
    fault::arm_io("io.checkpoint.write", 1, ErrorKind::StorageFull, 1_000);
    engine.apply_batch(&trace()[1]).unwrap();
    fault::reset();

    assert_eq!(engine.status(), MaintenanceStatus::Serving);
    assert!(engine.health().durability_degraded);
    let detail = engine.durability_degraded_detail().unwrap().to_string();
    assert!(detail.contains("checkpoint"), "{detail}");

    // Unlogged tail: applied live, not durable — the documented loss
    // mode of degraded durability (loud, bounded, never silent).
    engine.apply_batch(&trace()[2]).unwrap();
    assert_eq!(engine.index().original_graph(), oracle_graph(3));
    drop(engine);

    let (recovered, report) = MaintenanceEngine::recover(&dir).unwrap();
    assert_eq!(report.records_replayed, 2, "both logged windows replayed");
    assert_eq!(recovered.index().original_graph(), oracle_graph(2));
    verify_index(recovered.index()).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn transient_read_errors_during_recovery_are_retried_to_success() {
    let _guard = fault::test_lock();
    fault::reset();
    let dir = temp_dir("recover-transient");
    {
        let mut engine =
            MaintenanceEngine::new(CscIndex::build(&base_graph(), durable_config()).unwrap());
        engine.attach_durability(&dir).unwrap();
        for w in trace().iter().take(3) {
            engine.apply_batch(w).unwrap();
        }
    }

    // Both recovery read sites hiccup twice each; the bounded retries
    // absorb them without burning a checkpoint generation.
    fault::arm_io("io.checkpoint.read", 1, ErrorKind::Interrupted, 2);
    fault::arm_io("io.wal.read", 1, ErrorKind::Interrupted, 2);
    let (recovered, report) = MaintenanceEngine::recover(&dir).unwrap();
    fault::reset();

    assert_eq!(report.checkpoints_skipped, 0, "retried, not skipped");
    assert_eq!(recovered.index().original_graph(), oracle_graph(3));
    assert!(!recovered.health().durability_degraded);
    verify_index(recovered.index()).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn persistent_reanchor_failure_recovers_in_memory_with_degraded_durability() {
    let _guard = fault::test_lock();
    fault::reset();
    let dir = temp_dir("recover-reanchor");
    {
        // Checkpoint cadence above the trace, then one checkpoint whose
        // log rotation is undone and whose file rots: an unreadable
        // newest generation over a log that still starts below it. So
        // recovery falls back, replays the WAL, and — only after a
        // fallback — re-anchors with a fresh checkpoint.
        let config = durable_config().with_checkpoint_every(1_000);
        let mut engine = MaintenanceEngine::new(CscIndex::build(&base_graph(), config).unwrap());
        engine.attach_durability(&dir).unwrap();
        for w in trace().iter().take(3) {
            engine.apply_batch(w).unwrap();
        }
        let wal_path = dir.join(csc_core::wal::WAL_FILE);
        let log = std::fs::read(&wal_path).unwrap();
        let seq = engine.checkpoint().unwrap().unwrap();
        std::fs::write(&wal_path, log).unwrap();
        std::fs::write(csc_core::wal::checkpoint_path(&dir, seq), b"garbage").unwrap();
    }

    // The state is recovered fine, but the disk refuses the re-anchor
    // checkpoint. Recovery still succeeds — serving, correct, loudly
    // in-memory-only — rather than failing after the hard part worked.
    fault::arm_io("io.checkpoint.write", 1, ErrorKind::StorageFull, 1_000);
    let (mut recovered, report) = MaintenanceEngine::recover(&dir).unwrap();
    fault::reset();

    assert_eq!(report.records_replayed, 3);
    assert_eq!(recovered.status(), MaintenanceStatus::Serving);
    assert_eq!(recovered.index().original_graph(), oracle_graph(3));
    let detail = recovered.durability_degraded_detail().unwrap().to_string();
    assert!(detail.contains("re-anchor"), "{detail}");
    assert!(recovered.health().durability_degraded);
    // Still writable; the untouched on-disk generation is still valid
    // for a later recovery of the pre-outage state.
    recovered.apply_batch(&trace()[3]).unwrap();
    verify_index(recovered.index()).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn persistent_error_reopening_the_log_recovers_in_memory_with_degraded_durability() {
    let _guard = fault::test_lock();
    fault::reset();
    let dir = temp_dir("recover-reopen");
    {
        let config = durable_config().with_checkpoint_every(1_000);
        let mut engine = MaintenanceEngine::new(CscIndex::build(&base_graph(), config).unwrap());
        engine.attach_durability(&dir).unwrap();
        for w in trace().iter().take(3) {
            engine.apply_batch(w).unwrap();
        }
    }

    // The replay succeeds, but the log cannot be reopened for appends.
    fault::arm_io("io.wal.open", 1, ErrorKind::StorageFull, 1_000);
    let (mut recovered, report) = MaintenanceEngine::recover(&dir).unwrap();
    fault::reset();

    assert_eq!(report.records_replayed, 3);
    assert_eq!(recovered.status(), MaintenanceStatus::Serving);
    assert_eq!(recovered.index().original_graph(), oracle_graph(3));
    assert!(!recovered.is_durable());
    assert!(recovered.health().durability_degraded);
    let detail = recovered.durability_degraded_detail().unwrap().to_string();
    assert!(detail.contains("reopening the log"), "{detail}");
    // Still writable; the on-disk state still recovers the logged prefix.
    recovered.apply_batch(&trace()[3]).unwrap();
    verify_index(recovered.index()).unwrap();
    drop(recovered);
    let (again, report) = MaintenanceEngine::recover(&dir).unwrap();
    assert_eq!(report.records_replayed, 3);
    assert_eq!(again.index().original_graph(), oracle_graph(3));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn torn_wal_tail_truncation_is_surfaced_in_health() {
    let _guard = fault::test_lock();
    fault::reset();
    let dir = temp_dir("torn-tail");
    {
        let config = durable_config().with_checkpoint_every(1_000);
        let mut engine = MaintenanceEngine::new(CscIndex::build(&base_graph(), config).unwrap());
        engine.attach_durability(&dir).unwrap();
        for w in trace().iter().take(2) {
            engine.apply_batch(w).unwrap();
        }
    }
    // A crash mid-append leaves a torn record at the tail.
    let wal_path = dir.join(csc_core::wal::WAL_FILE);
    let mut bytes = std::fs::read(&wal_path).unwrap();
    bytes.extend_from_slice(&[0xAB; 17]);
    std::fs::write(&wal_path, &bytes).unwrap();

    let (recovered, report) = MaintenanceEngine::recover(&dir).unwrap();
    assert_eq!(report.wal_truncated_bytes, 17);
    assert_eq!(
        recovered.health().wal_truncated_bytes,
        17,
        "the dropped torn bytes stay visible in health, not just the one-shot report"
    );
    assert_eq!(recovered.index().original_graph(), oracle_graph(2));
    verify_index(recovered.index()).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}
