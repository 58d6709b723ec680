//! The untraced run: one client thread drives the composite public API
//! (`ConcurrentIndex`) in a closed loop. Every end-to-end metric comes
//! from here.
//!
//! Set-up, write and recovery calls are timed in service time — the
//! client thread's on-CPU time plus its run-queue wait (see
//! [`ThreadClock`]) — because hypervisor steal on the reference VM ran
//! from 2% to 50% of a vCPU between runs and moved wall-clock write
//! medians of one seed by 30%. What service time leaves out is blocking
//! I/O: the WAL fsync (2-3% of a write window's wall time) and the
//! checkpoint fsyncs, which the traced run times as `wal.append_ms`,
//! `checkpoint.write_ms` and `recover.reanchor_ms`. Point reads are short
//! enough that steal touches a negligible share of them, so they are
//! timed by the wall clock, which costs no system call.

use crate::inputs::{same_graph, wrong_answers, Epoch, Spec};
use crate::sys::{copy_dir, ThreadClock};
use crate::{Fingerprint, Tally};
use csc_core::{ConcurrentIndex, CscIndex};
use csc_graph::VertexId;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// What the untraced run measured, over all its epochs.
#[derive(Default)]
pub struct Composite {
    /// Service time of each cold start, seconds.
    pub setup_s: Vec<f64>,
    /// Service time of one `apply_batch` call per window, milliseconds.
    pub write_ms: Vec<f64>,
    /// Wall time of one `query` call each, nanoseconds.
    pub query_ns: Vec<u32>,
    /// Service time of one `ConcurrentIndex::open` per copy of a crash
    /// image, seconds.
    pub recover_s: Vec<f64>,
    /// Updates submitted to write calls.
    pub submitted: usize,
    /// The published snapshot's `index_bytes()` per live edge after each
    /// window, summed over the windows. The arena carries relocation holes
    /// until a compaction, so its size at any one moment is a sawtooth;
    /// the metric is the average.
    pub bytes_per_edge_sum: f64,
    /// The work done, which every run of the seed must repeat.
    pub fingerprint: Fingerprint,
    /// Service time of one cold start, the write-and-read loop, and one
    /// recovery of each crash image per epoch: the base the traced run's
    /// overhead is stated against.
    pub work_s: f64,
}

/// Runs the untraced workload in `work`, one epoch after another,
/// counting every operation and check in `tally`. Returns `Err` when an
/// operation fails (the run cannot go on) after recording it.
pub fn run(
    spec: &Spec,
    epochs: &[Epoch],
    work: &Path,
    tally: &mut Tally,
) -> Result<Composite, String> {
    let mut clock = ThreadClock::open()?;
    let mut c = Composite::default();
    for epoch in epochs {
        run_epoch(spec, epoch, work, &mut clock, &mut c, tally)?;
    }
    Ok(c)
}

/// One epoch: cold starts, the closed loop with its crash images, the
/// crash, and recoveries of every image.
fn run_epoch(
    spec: &Spec,
    epoch: &Epoch,
    work: &Path,
    clock: &mut ThreadClock,
    c: &mut Composite,
    tally: &mut Tally,
) -> Result<(), String> {
    let inputs = &epoch.inputs;
    let config = spec.config();
    let since = |clock: &mut ThreadClock, start: u64| clock.service_ns() - start;

    // Set-up: graph in hand to the first durable, published snapshot.
    let mut live: Option<ConcurrentIndex> = None;
    let mut last_setup = 0;
    let dir = work.join("durable");
    for _ in 0..spec.setups.max(1) {
        drop(live.take());
        let _ = std::fs::remove_dir_all(&dir);
        let start = clock.service_ns();
        let index = tally.op("CscIndex::build", CscIndex::build(&inputs.graph, config))?;
        let shared = ConcurrentIndex::new(index);
        tally.op("attach_durability", shared.attach_durability(&dir))?;
        last_setup = since(clock, start);
        c.setup_s.push(last_setup as f64 / 1e9);
        live = Some(shared);
    }
    let shared = live.expect("at least one set-up ran");

    // The closed loop: a write window, then its reads, then the next.
    let mut rng = epoch.read_rng();
    let mut fingerprint = Fingerprint {
        windows: inputs.windows.len(),
        ..Fingerprint::default()
    };
    let images = crash_images(spec, work);
    let mut imaging_ns = 0;
    let loop_start = clock.service_ns();
    for (w, ((window, &n), &edges)) in inputs
        .windows
        .iter()
        .zip(&inputs.vertices_after)
        .zip(&inputs.edges_after)
        .enumerate()
    {
        let start = clock.service_ns();
        let report = shared.apply_batch(window);
        let took = since(clock, start);
        let report = tally.op("apply_batch", report)?;
        c.write_ms.push(took as f64 / 1e6);
        c.bytes_per_edge_sum += shared.snapshot().index_bytes() as f64 / edges.max(1) as f64;
        c.submitted += window.len();
        fingerprint.count(&report);
        for _ in 0..spec.reads_per_window {
            let v = VertexId(rng.below(n));
            let start = Instant::now();
            black_box(shared.query(black_box(v)));
            c.query_ns
                .push(u32::try_from(start.elapsed().as_nanos()).unwrap_or(u32::MAX));
        }
        tally.attempted += spec.reads_per_window as u64;
        let start = clock.service_ns();
        take_image(spec, w, &dir, &images)?;
        imaging_ns += since(clock, start);
    }
    let loop_ns = since(clock, loop_start) - imaging_ns;

    let snapshot = shared.snapshot();
    fingerprint.entries = snapshot.total_entries();
    fingerprint.index_bytes = snapshot.index_bytes();
    let expected = epoch.expected.last().expect("one sample per crash point");
    let wrong = wrong_answers(expected, |v| shared.query(v));
    tally.check(
        &format!(
            "{wrong} of {} sampled answers wrong after the write phase",
            expected.len()
        ),
        wrong == 0,
    );
    tally.check(
        "live graph differs from the replayed trace after the write phase",
        shared.with_read(|index| same_graph(index, inputs.final_graph())),
    );
    drop(snapshot);
    // The crash: every acknowledged window is already fsynced, and nothing
    // else is flushed on the way down.
    drop(shared);
    let _ = std::fs::remove_dir_all(&dir);

    let mut first_recoveries = 0;
    let checked = images.iter().zip(&epoch.expected).zip(&inputs.crash_graphs);
    for ((image, expected), graph) in checked {
        let mut replayed = None;
        for _ in 0..spec.recoveries.max(1) {
            // Recovery re-anchors the directory it opens, so each attempt
            // gets an untouched copy.
            let copy = work.join("recover");
            copy_dir(image, &copy).map_err(|e| format!("copying a crash image: {e}"))?;
            let start = clock.service_ns();
            let opened = ConcurrentIndex::open(&copy);
            let took = since(clock, start);
            let (recovered, report) = tally.op("ConcurrentIndex::open", opened)?;
            c.recover_s.push(took as f64 / 1e9);
            if replayed.is_none() {
                first_recoveries += took;
                fingerprint.replayed_records += report.records_replayed;
            }
            let records = *replayed.get_or_insert(report.records_replayed);
            tally.check(
                "recoveries of one crash image replayed different record counts",
                report.records_replayed == records,
            );
            let wrong = wrong_answers(expected, |v| recovered.query(v));
            tally.check(
                &format!(
                    "{wrong} of {} sampled answers wrong after recovery",
                    expected.len()
                ),
                wrong == 0,
            );
            tally.check(
                "recovered graph differs from the graph at the crash",
                recovered.with_read(|index| same_graph(index, graph)),
            );
            drop(recovered);
            let _ = std::fs::remove_dir_all(&copy);
        }
        let _ = std::fs::remove_dir_all(image);
    }

    c.work_s += (last_setup + loop_ns + first_recoveries) as f64 / 1e9;
    c.fingerprint.absorb(&fingerprint);
    Ok(())
}

/// Where the crash images of an epoch go, one per [`Spec::crash_points`].
pub(crate) fn crash_images(spec: &Spec, work: &Path) -> Vec<PathBuf> {
    (0..spec.crash_points().len())
        .map(|k| work.join(format!("image-{k}")))
        .collect()
}

/// After window `w` (from 0), copies the durability directory `dir` to
/// the crash image due there, if any. Between windows nothing is in
/// flight, so the directory as it stands is exactly what a crash at that
/// point leaves.
pub(crate) fn take_image(
    spec: &Spec,
    w: usize,
    dir: &Path,
    images: &[PathBuf],
) -> Result<(), String> {
    match spec.crash_points().iter().position(|&p| p == w + 1) {
        Some(k) => copy_dir(dir, &images[k]).map_err(|e| format!("taking a crash image: {e}")),
        None => Ok(()),
    }
}
