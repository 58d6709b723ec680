//! The traced run: the untraced run's work, done one layer down. Each
//! composite call is replaced by the public calls it is made of, and each
//! of those runs inside a span:
//!
//! * set-up: `CscIndex::build`, `MaintenanceEngine::publish_from(None)`,
//!   `CscIndex::to_bytes`, `wal::write_checkpoint`, `WriteAheadLog::create`;
//! * write window: `WriteAheadLog::append`, `MaintenanceEngine::apply_batch`
//!   on an engine without durability, and `MaintenanceEngine::publish_from`;
//!   every cadence, `to_bytes`, `write_checkpoint` and a log rotation;
//! * read batch: once through `SnapshotIndex::query` and once through
//!   `intersect_adaptive` on the same label slices;
//! * recovery, on a copy of each crash image: `wal::read_file` +
//!   `CscIndex::from_bytes`, `WriteAheadLog::read_all`, `apply_batch` per
//!   record, then `to_bytes` + `write_checkpoint` + `WriteAheadLog::create`
//!   to re-anchor, and the first snapshot freeze.

use crate::composite::{crash_images, take_image};
use crate::inputs::{same_graph, wrong_answers, Epoch, Spec};
use crate::spans::{Span, Tracer, NONE};
use crate::sys::copy_dir;
use crate::{Fingerprint, Tally};
use csc_core::wal::{self, WriteAheadLog, WAL_FILE};
use csc_core::{CscConfig, CscIndex, CycleCount, MaintenanceEngine, SnapshotIndex};
use csc_graph::bipartite::{in_vertex, out_vertex};
use csc_graph::{RankTable, VertexId};
use csc_labeling::frozen::GALLOP_SKEW;
use csc_labeling::{intersect_adaptive, LabelStore};
use std::hint::black_box;
use std::path::Path;

/// Counts the traced run takes at the layer boundaries, beside its spans,
/// summed over its epochs.
#[derive(Clone, Debug, Default)]
pub struct Counters {
    /// Epochs run.
    pub epochs: usize,
    /// Write windows run, and the id of the next one.
    pub windows: usize,
    /// Label entries right after each build.
    pub build_entries: usize,
    /// Snapshot publications in the write phase.
    pub publishes: usize,
    /// Dirty label slots drained by those publications.
    pub dirty_slots: usize,
    /// Dead arena fraction after each window, summed.
    pub dead_fraction_sum: f64,
    /// Arena bytes of each epoch's last published snapshot.
    pub arena_bytes: usize,
    /// Updates submitted / cancelled by normalization.
    pub submitted: usize,
    /// See `submitted`.
    pub cancelled: usize,
    /// Windows that took the full-rebuild fallback.
    pub fallback_windows: usize,
    /// Hub repair passes (insert plus delete hub unions).
    pub hub_passes: usize,
    /// Deletion-repair phase times reported by `apply_batch`, seconds.
    pub classify_s: f64,
    /// See `classify_s`.
    pub subtract_s: f64,
    /// See `classify_s`.
    pub relabel_s: f64,
    /// Bytes the write phase appended to the log.
    pub wal_bytes: u64,
    /// Checkpoints taken in the write phases, and their total size.
    pub checkpoints: usize,
    /// See `checkpoints`.
    pub checkpoint_bytes: usize,
    /// Point reads, the label entries their intersections spanned, and
    /// how many took the galloping kernel.
    pub reads: usize,
    /// See `reads`.
    pub read_entries: usize,
    /// See `reads`.
    pub gallop_reads: usize,
    /// WAL records and updates the recovery replayed.
    pub recover_records: usize,
    /// See `recover_records`.
    pub recover_updates: usize,
}

/// What the traced run recorded.
pub struct Layered {
    /// Every span.
    pub tracer: Tracer,
    /// Counts at the layer boundaries.
    pub counters: Counters,
    /// The work done; must equal the untraced run's.
    pub fingerprint: Fingerprint,
    /// Service time of the traced set-up, windows, read batches and
    /// recovery.
    pub work_s: f64,
}

/// Runs the traced workload in `work`, one epoch after another.
pub fn run(
    spec: &Spec,
    epochs: &[Epoch],
    work: &Path,
    tally: &mut Tally,
) -> Result<Layered, String> {
    let mut t = Tracer::new()?;
    let mut c = Counters::default();
    let mut fingerprint = Fingerprint::default();
    for epoch in epochs {
        fingerprint.absorb(&run_epoch(spec, epoch, work, &mut t, &mut c, tally)?);
    }
    // Service time of the traced phases, leaving out the order probe and
    // the kernel pass: extra work the untraced run does not do.
    let service = |s: &Span| s.busy_ns + s.wait_ns;
    let spans = t.spans();
    let roots: u64 = spans.iter().filter(|s| s.parent == NONE).map(service).sum();
    let extra: u64 = spans
        .iter()
        .filter(|s| s.name == "order" || s.name == "frozen.intersect")
        .map(service)
        .sum();
    let work_s = (roots - extra) as f64 / 1e9;
    Ok(Layered {
        tracer: t,
        counters: c,
        fingerprint,
        work_s,
    })
}

/// One epoch, layer by layer; returns the work it did.
fn run_epoch(
    spec: &Spec,
    epoch: &Epoch,
    work: &Path,
    t: &mut Tracer,
    c: &mut Counters,
    tally: &mut Tally,
) -> Result<Fingerprint, String> {
    let inputs = &epoch.inputs;
    let config = spec.config();
    let fsync = config.durability.fsync;
    let keep = config.durability.keep_checkpoints as usize;
    let dir = work.join("layered");
    let wal_path = dir.join(WAL_FILE);
    let mut fingerprint = Fingerprint {
        windows: inputs.windows.len(),
        ..Fingerprint::default()
    };
    c.epochs += 1;

    // csc-graph::order on its own; CscIndex::build repeats it inside.
    t.leaf("order", NONE, || {
        black_box(RankTable::build(&inputs.graph, config.order));
    });

    let setup = t.begin("setup", NONE);
    let built = t.leaf("build.index", NONE, || {
        CscIndex::build(&inputs.graph, config)
    });
    let index = tally.op("CscIndex::build", built)?;
    c.build_entries += index.total_entries();
    let mut engine = MaintenanceEngine::new(index);
    let mut snapshot = t.leaf("snapshot.freeze", NONE, || engine.publish_from(None));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let bytes = t.leaf("checkpoint.encode", NONE, || engine.index().to_bytes());
    let bytes = tally.op("to_bytes", bytes)?;
    let written = t.leaf("checkpoint.write", NONE, || {
        wal::write_checkpoint(&dir, 0, &bytes)
    });
    tally.op("write_checkpoint", written)?;
    drop(bytes);
    let created = t.leaf("wal.create", NONE, || {
        WriteAheadLog::create(&wal_path, 0, fsync)
    });
    let mut log = tally.op("WriteAheadLog::create", created)?;
    wal::prune_checkpoints(&dir, keep);
    t.end(setup);

    let mut rng = epoch.read_rng();
    let mut vertices = Vec::with_capacity(spec.reads_per_window);
    let mut answers: Vec<Option<CycleCount>> = Vec::with_capacity(spec.reads_per_window);
    let mut kernel: Vec<Option<CycleCount>> = Vec::with_capacity(spec.reads_per_window);
    let images = crash_images(spec, work);
    let mut wal_len = file_len(&wal_path);
    let mut since_checkpoint = 0u32;
    for (w, (window, &n)) in inputs
        .windows
        .iter()
        .zip(&inputs.vertices_after)
        .enumerate()
    {
        let wid = (c.windows + w) as u32;
        let root = t.begin("window", wid);
        let seq = w as u64 + 1;
        let appended = t.leaf("wal.append", wid, || log.append(seq, window));
        tally.op("WriteAheadLog::append", appended)?;
        let len = file_len(&wal_path);
        c.wal_bytes += len.saturating_sub(wal_len);
        wal_len = len;
        since_checkpoint += 1;
        let applied = t.leaf("batch.apply", wid, || engine.apply_batch(window));
        let report = tally.op("MaintenanceEngine::apply_batch", applied)?;
        if since_checkpoint >= spec.checkpoint_every {
            let checkpoint = t.begin("checkpoint", wid);
            let bytes = t.leaf("checkpoint.encode", wid, || engine.index().to_bytes());
            let bytes = tally.op("to_bytes", bytes)?;
            let written = t.leaf("checkpoint.write", wid, || {
                wal::write_checkpoint(&dir, seq, &bytes)
            });
            tally.op("write_checkpoint", written)?;
            let rotated = t.leaf("checkpoint.rotate", wid, || log.rotate(seq));
            tally.op("WriteAheadLog::rotate", rotated)?;
            wal::prune_checkpoints(&dir, keep);
            t.end(checkpoint);
            c.checkpoints += 1;
            c.checkpoint_bytes += bytes.len();
            since_checkpoint = 0;
            wal_len = file_len(&wal_path);
        }
        // `ConcurrentIndex` republishes only when the window changed the
        // graph.
        if report.applied_updates() > 0 {
            c.dirty_slots += engine.index().labels().dirty_len();
            t.leaf("snapshot.publish", wid, || {
                // Replacing the previous snapshot frees its arena, as
                // `ConcurrentIndex` does inside its write call.
                snapshot = engine.publish_from(Some(&snapshot));
            });
            c.publishes += 1;
        }
        t.end(root);

        c.submitted += window.len();
        c.cancelled += report.cancelled;
        c.fallback_windows += usize::from(report.repair.rebuild_fallbacks > 0);
        c.hub_passes += report.insert_hub_union + report.delete_hub_union;
        c.classify_s += report.repair.classify_time.as_secs_f64();
        c.subtract_s += report.repair.subtract_time.as_secs_f64();
        c.relabel_s += report.repair.relabel_time.as_secs_f64();
        c.dead_fraction_sum += snapshot.labels().dead_fraction();
        fingerprint.count(&report);

        vertices.clear();
        vertices.extend((0..spec.reads_per_window).map(|_| VertexId(rng.below(n))));
        answers.clear();
        kernel.clear();
        let labels = snapshot.labels();
        let covered = snapshot.original_vertex_count();
        let reads = t.begin("reads", wid);
        t.leaf("snapshot.query", wid, || {
            answers.extend(vertices.iter().map(|&v| snapshot.query(black_box(v))));
        });
        t.leaf("frozen.intersect", wid, || {
            kernel.extend(vertices.iter().map(|&v| {
                if v.index() >= covered {
                    return None;
                }
                let dc = intersect_adaptive(
                    labels.out_of(out_vertex(black_box(v))),
                    labels.in_of(in_vertex(v)),
                )?;
                Some(CycleCount::new(dc.dist.div_ceil(2), dc.count))
            }));
        });
        t.end(reads);
        tally.attempted += vertices.len() as u64;
        let disagree = answers.iter().zip(&kernel).filter(|(a, b)| a != b).count();
        tally.check(
            &format!("window {wid}: {disagree} kernel answers differ from SnapshotIndex::query"),
            disagree == 0,
        );
        for &v in vertices.iter().filter(|v| v.index() < covered) {
            let (a, b) = (
                labels.out_of(out_vertex(v)).len(),
                labels.in_of(in_vertex(v)).len(),
            );
            c.read_entries += a + b;
            c.gallop_reads += usize::from(a.min(b) > 0 && a.max(b) >= GALLOP_SKEW * a.min(b));
        }
        c.reads += vertices.len();
        take_image(spec, w, &dir, &images)?;
    }
    c.windows += inputs.windows.len();
    c.arena_bytes += snapshot.index_bytes();
    fingerprint.entries = snapshot.total_entries();
    fingerprint.index_bytes = snapshot.index_bytes();
    let expected = epoch.expected.last().expect("one sample per crash point");
    let wrong = wrong_answers(expected, |v| snapshot.query(v));
    tally.check(
        &format!(
            "traced: {wrong} of {} sampled answers wrong after the write phase",
            expected.len()
        ),
        wrong == 0,
    );
    // The crash.
    drop((engine, snapshot, log));
    let _ = std::fs::remove_dir_all(&dir);

    let checked = images.iter().zip(&epoch.expected).zip(&inputs.crash_graphs);
    for ((image, expected), graph) in checked {
        let copy = work.join("layered-recover");
        copy_dir(image, &copy).map_err(|e| format!("copying a crash image: {e}"))?;
        let recovered = recover(&copy, config, t, c, tally);
        let _ = std::fs::remove_dir_all(&copy);
        let _ = std::fs::remove_dir_all(image);
        let (engine, snapshot, records) = recovered?;
        fingerprint.replayed_records += records;
        let wrong = wrong_answers(expected, |v| snapshot.query(v));
        tally.check(
            &format!(
                "traced: {wrong} of {} sampled answers wrong after recovery",
                expected.len()
            ),
            wrong == 0,
        );
        tally.check(
            "traced: recovered graph differs from the graph at the crash",
            same_graph(engine.index(), graph),
        );
    }
    Ok(fingerprint)
}

/// The steps of `MaintenanceEngine::recover` on the crash directory `dir`,
/// each in a span under one `recover` root. Returns the recovered engine,
/// its first snapshot, and the WAL records replayed.
fn recover(
    dir: &Path,
    config: CscConfig,
    t: &mut Tracer,
    c: &mut Counters,
    tally: &mut Tally,
) -> Result<(MaintenanceEngine, SnapshotIndex, usize), String> {
    let wal_path = dir.join(WAL_FILE);
    let root = t.begin("recover", NONE);
    let (checkpoint_seq, checkpoint_path) = wal::list_checkpoints(dir)
        .into_iter()
        .next()
        .ok_or("no checkpoint in the crash directory")?;
    let decoded = t.leaf("recover.decode", NONE, || {
        wal::read_file(&checkpoint_path).and_then(|bytes| CscIndex::from_bytes(&bytes))
    });
    let mut index = tally.op("checkpoint decode", decoded)?;
    let read = t.leaf("recover.log_read", NONE, || {
        WriteAheadLog::read_all(&wal_path)
    });
    let (_, mut records, _) = tally.op("WriteAheadLog::read_all", read)?;
    records.retain(|r| r.seq > checkpoint_seq);
    let replay = t.begin("recover.replay", NONE);
    for record in &records {
        let applied = t.leaf("recover.record", NONE, || {
            index.apply_batch(&record.updates)
        });
        tally.op("replay apply_batch", applied)?;
        c.recover_updates += record.updates.len();
    }
    t.end(replay);
    c.recover_records += records.len();
    let last_seq = records.last().map_or(checkpoint_seq, |r| r.seq);
    let reanchored = t.leaf("recover.reanchor", NONE, || {
        let bytes = index.to_bytes()?;
        wal::write_checkpoint(dir, last_seq, &bytes)?;
        WriteAheadLog::create(&wal_path, last_seq, config.durability.fsync)
    });
    tally.op("re-anchor", reanchored)?;
    wal::prune_checkpoints(dir, config.durability.keep_checkpoints as usize);
    let mut engine = MaintenanceEngine::new(index);
    let snapshot = t.leaf("recover.freeze", NONE, || engine.publish_from(None));
    t.end(root);
    Ok((engine, snapshot, records.len()))
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}
