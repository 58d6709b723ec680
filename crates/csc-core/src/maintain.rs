//! The maintenance plane: one state machine over every write path.
//!
//! Every write — scalar or batched — is an
//! [`apply_batch`](CscIndex::apply_batch) window, and reaches the index
//! through the engine's one write routine (admit → log → queue or apply →
//! checkpoint). [`MaintenanceEngine`] puts that routine, snapshot
//! publication with its compaction policy, and the full rebuild behind
//! one state machine:
//!
//! ```text
//!            writes apply directly, publishes seal the label arena
//!           ┌───────────┐
//!           │  Serving  │◄───────────────────────────────┐
//!           └─────┬─────┘                                │
//!                 │ begin_rejuvenation                   │ replay queue
//!                 ▼                                      │ drained: swap
//!         ┌──────────────┐  labels complete     ┌────────┴───────┐
//!         │  Rebuilding  ├─────────────────────►│   Replaying    │
//!         └──────────────┘  (fresh ranks over   └────────────────┘
//!           writes queue      the live graph,     writes still queue,
//!           (write-ahead),    chunked BFS)        queue drains in
//!           readers serve                         batches onto the
//!           the old state                         rejuvenated index
//!
//!   any state ──panic caught──► ┌──────────┐  recover_in_place  ┌────────────┐
//!   (write path, rebuild chunk, │ Degraded │ ──────────────────►│ Recovering │
//!    queue replay)              └──────────┘                    └──────┬─────┘
//!     writes refused (Poisoned),  readers keep                        │ swap
//!     last published snapshot     answering                           ▼
//!     still serves                                                 Serving
//! ```
//!
//! **Rejuvenation** exists because dynamic maintenance preserves
//! correctness, not quality: added vertices always rank at the bottom,
//! deletions leave redundant entries, and label size only ratchets up. A
//! long-lived index drifts away from the fresh-build one — rejuvenation
//! rebuilds labels over the *current* graph under a *freshly computed*
//! ordering, cooperatively (a bounded number of hub ranks per
//! [`step`](MaintenanceEngine::step)), while:
//!
//! * readers keep whatever [`SnapshotIndex`] they hold — nothing here
//!   ever blocks them;
//! * incoming writes are accepted optimistically into a write-ahead
//!   **replay queue** (their validity is resolved at replay with the
//!   skip-invalid semantics of [`apply_batch`](CscIndex::apply_batch));
//! * on completion the queue is replayed onto the new index and the
//!   engine swaps it in; the next publication shares the new index's
//!   label arena, which the rebuild compacted into one segment.
//!
//! [`ConcurrentIndex`](crate::ConcurrentIndex) is a thin facade over this
//! engine: it adds the lock layout and the publication slot, nothing else.

use crate::batch::{BatchReport, GraphUpdate};
use crate::build::{CoupleBfs, LabelBuildTask};
use crate::error::CscError;
use crate::guard::{Deadline, RetryPolicy};
use crate::health::{HealthBaseline, IndexHealth};
use crate::index::CscIndex;
use crate::snapshot::SnapshotIndex;
use crate::stats::{IndexStats, UpdateReport};
use crate::verify::check_integrity;
use crate::wal::{self, ScannedLog, WriteAheadLog};
use csc_graph::{Csr, RankTable, VertexId};
use csc_labeling::BuildStats;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Renders a caught panic payload as a human-readable message (panics
/// raised with `panic!("...")` carry a `&str` or `String`; anything else
/// is opaque).
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// `AddVertex` ops in `window`: what queueing or replaying it moves
/// between the live vertex count and the queued-vertex offset.
fn count_vertex_adds(window: &[GraphUpdate]) -> usize {
    window
        .iter()
        .filter(|u| **u == GraphUpdate::AddVertex)
        .count()
}

/// Replay drains at most this many queued updates per
/// [`step`](MaintenanceEngine::step), so one step stays bounded even
/// after a long rebuild accumulated a deep queue.
pub const REPLAY_CHUNK: usize = 256;

/// Default hub-rank budget per cooperative step (what the
/// [`ConcurrentIndex`](crate::ConcurrentIndex) facade advances per write
/// while a rebuild is in flight).
pub const DEFAULT_STEP_RANKS: usize = 64;

/// Where the engine's state machine currently is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MaintenanceStatus {
    /// No rebuild in flight; writes apply directly.
    Serving,
    /// Label construction over the rebuild-start graph is in progress.
    Rebuilding {
        /// Hub ranks processed so far.
        ranks_done: usize,
        /// Hub ranks total (2 × vertices at rebuild start).
        ranks_total: usize,
        /// Updates waiting in the write-ahead replay queue.
        queued: usize,
    },
    /// Labels are built and swapped in; the replay queue is draining.
    Replaying {
        /// Updates still waiting in the replay queue.
        queued: usize,
    },
    /// A write-path panic (or a failed post-swap integrity check) tore
    /// the live index. Writes are refused with [`CscError::Poisoned`];
    /// readers keep being served the last published snapshot. Leave via
    /// [`recover_in_place`](MaintenanceEngine::recover_in_place) (or
    /// [`ConcurrentIndex::recover`](crate::ConcurrentIndex::recover)).
    Degraded,
    /// A recovery is rebuilding the index from checkpoint + WAL (or from
    /// the live graph) before atomically swapping it back in. Reported
    /// by the concurrent facade while
    /// [`recover`](crate::ConcurrentIndex::recover) runs; readers keep
    /// the last published snapshot throughout.
    Recovering,
}

/// Counters for the engine's lifetime.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MaintenanceStats {
    /// Rejuvenations started.
    pub rejuvenations_started: u32,
    /// Rejuvenations that completed and swapped.
    pub rejuvenations_completed: u32,
    /// Rejuvenations abandoned on a build error (the previous index kept
    /// serving and the queue was replayed onto it).
    pub rejuvenations_failed: u32,
    /// Updates drained from the replay queue onto a rejuvenated index.
    pub updates_replayed: usize,
    /// Cooperative steps taken across all rebuilds.
    pub rebuild_steps: usize,
    /// Times the engine entered the `Degraded` state (write-path panic
    /// or failed integrity check).
    pub degradations: u32,
    /// Successful recoveries back to `Serving`.
    pub recoveries: u32,
}

/// What a recovery ([`MaintenanceEngine::recover`] /
/// [`recover_in_place`](MaintenanceEngine::recover_in_place)) did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Sequence number of the checkpoint the recovery started from
    /// (`0` with no WAL-backed durability — the index was rebuilt from
    /// the live graph instead).
    pub checkpoint_seq: u64,
    /// Newer checkpoint generations that were skipped as unreadable
    /// (torn or bit-flipped) before one loaded.
    pub checkpoints_skipped: usize,
    /// WAL records (update windows) replayed on top of the checkpoint.
    pub records_replayed: usize,
    /// Individual updates contained in those windows (or, without
    /// durability, replayed from the in-memory queue).
    pub updates_replayed: usize,
    /// Bytes of torn tail / trailing corruption dropped from the WAL.
    pub wal_truncated_bytes: u64,
    /// Whether the post-recovery [`check_integrity`] sweep ran (it is
    /// gated by [`DurabilityConfig::check_integrity`](crate::DurabilityConfig)).
    pub integrity_checked: bool,
}

/// The engine's attachment to a durability directory: the live
/// write-ahead log plus checkpoint bookkeeping.
struct Durability {
    dir: PathBuf,
    wal: WriteAheadLog,
    /// Update windows logged since the last checkpoint; compared against
    /// [`DurabilityConfig::checkpoint_every`](crate::DurabilityConfig).
    windows_since_checkpoint: u32,
}

/// What one completed rejuvenation did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RejuvenationReport {
    /// Label entries before the rebuild began.
    pub entries_before: usize,
    /// Label entries after the swap and replay.
    pub entries_after: usize,
    /// Updates replayed from the write-ahead queue.
    pub replayed: usize,
    /// Wall-clock time from this driving call to completion.
    pub duration: std::time::Duration,
}

/// An in-flight rebuild: fresh ranks and an adjacency snapshot captured at
/// rebuild start (the live graph cannot change underneath — writes queue).
struct RebuildTask {
    ranks: RankTable,
    csr: Csr,
    build: LabelBuildTask,
    labels_done: bool,
}

/// The write plane: owns the live [`CscIndex`] and runs the
/// rebuild/replay state machine described in the [module docs](self).
/// A rejuvenation starts only when the caller asks for one.
///
/// Single-threaded by design — concurrency (locks, snapshot publication)
/// is [`ConcurrentIndex`](crate::ConcurrentIndex)'s job. Standalone use:
///
/// ```
/// use csc_core::{CscConfig, CscIndex, MaintenanceEngine};
/// use csc_graph::{DiGraph, VertexId};
///
/// let g = DiGraph::from_edges(4, vec![(0, 1), (1, 2), (2, 0)]);
/// let mut engine =
///     MaintenanceEngine::new(CscIndex::build(&g, CscConfig::default()).unwrap());
///
/// // Writes go through the engine; while serving they apply directly.
/// engine.insert_edge(VertexId(0), VertexId(3)).unwrap();
/// engine.insert_edge(VertexId(3), VertexId(0)).unwrap();
///
/// // Rejuvenate: rebuild with a freshly computed ordering, replay, swap.
/// let report = engine.rejuvenate().unwrap();
/// assert_eq!(report.replayed, 0);
/// assert_eq!(engine.index().query(VertexId(3)).unwrap().length, 2);
/// assert_eq!(engine.health().rejuvenations, 1);
/// ```
pub struct MaintenanceEngine {
    index: CscIndex,
    rebuild: Option<RebuildTask>,
    replay: VecDeque<GraphUpdate>,
    /// `AddVertex` ops currently queued — the offset for virtual ids
    /// handed out by [`add_vertex`](Self::add_vertex) mid-rebuild.
    queued_vertices: usize,
    /// The encoding of the last checkpoint: every checkpoint encodes into
    /// this allocation, so it writes pages already resident instead of
    /// faulting in a fresh buffer.
    checkpoint_buffer: Vec<u8>,
    /// `Some(detail)` after a write-path panic (or failed integrity
    /// check): the engine refuses writes and publication until
    /// [`recover_in_place`](Self::recover_in_place).
    degraded: Option<String>,
    /// WAL + checkpoint attachment; `None` runs the engine exactly as
    /// before the durability plane existed.
    durability: Option<Durability>,
    /// `Some(detail)` after persistent I/O failure forced the durability
    /// plane into in-memory-only mode (the attachment was dropped but
    /// the engine keeps serving and accepting writes). Cleared by a
    /// successful [`attach_durability`](Self::attach_durability).
    durability_degraded: Option<String>,
    /// Torn-tail WAL bytes dropped by recoveries, lifetime.
    wal_truncated_total: u64,
    stats: MaintenanceStats,
}

impl MaintenanceEngine {
    /// Wraps an index. The engine assumes ownership of the write plane;
    /// mutate only through it.
    pub fn new(index: CscIndex) -> Self {
        MaintenanceEngine {
            index,
            rebuild: None,
            replay: VecDeque::new(),
            queued_vertices: 0,
            checkpoint_buffer: Vec::new(),
            degraded: None,
            durability: None,
            durability_degraded: None,
            wal_truncated_total: 0,
            stats: MaintenanceStats::default(),
        }
    }

    /// The live index (reads are always valid; during a rebuild window it
    /// lags by the queued updates).
    pub fn index(&self) -> &CscIndex {
        &self.index
    }

    /// Retargets the ordering strategy (see [`CscIndex::set_order`]): the
    /// next rejuvenation recomputes the order under the new strategy and
    /// migrates the labeling to it. A rebuild already in flight keeps the
    /// order it captured when it began.
    pub fn set_order(&mut self, order: csc_graph::OrderingStrategy) -> Result<(), CscError> {
        self.index.set_order(order)
    }

    /// Engine lifetime counters.
    pub fn maintenance_stats(&self) -> &MaintenanceStats {
        &self.stats
    }

    /// `true` while a rebuild or replay is in flight.
    pub fn is_rebuilding(&self) -> bool {
        self.rebuild.is_some()
    }

    /// `true` after a write-path panic degraded the engine; writes are
    /// refused until [`recover_in_place`](Self::recover_in_place).
    pub fn is_degraded(&self) -> bool {
        self.degraded.is_some()
    }

    /// Why the engine is degraded, when it is.
    pub fn degraded_detail(&self) -> Option<&str> {
        self.degraded.as_deref()
    }

    /// `true` when a durability directory is attached (writes are
    /// WAL-logged and periodically checkpointed).
    pub fn is_durable(&self) -> bool {
        self.durability.is_some()
    }

    /// The attached durability directory, if any.
    pub fn durability_dir(&self) -> Option<&Path> {
        self.durability.as_ref().map(|d| d.dir.as_path())
    }

    /// Where the state machine currently is.
    pub fn status(&self) -> MaintenanceStatus {
        if self.degraded.is_some() {
            return MaintenanceStatus::Degraded;
        }
        match &self.rebuild {
            None => MaintenanceStatus::Serving,
            Some(task) if !task.labels_done => MaintenanceStatus::Rebuilding {
                ranks_done: task.build.ranks_done() as usize,
                ranks_total: task.ranks.len(),
                queued: self.replay.len(),
            },
            Some(_) => MaintenanceStatus::Replaying {
                queued: self.replay.len(),
            },
        }
    }

    /// The live drift report, with the maintenance-plane fields (replay
    /// queue depth, rebuild flag, durability degradation) filled in.
    pub fn health(&self) -> IndexHealth {
        IndexHealth {
            replay_queued: self.replay.len(),
            rebuilding: self.is_rebuilding(),
            durability_degraded: self.durability_degraded.is_some(),
            wal_truncated_bytes: self.wal_truncated_total,
            ..self.index.health()
        }
    }

    /// Why the durability plane was dropped into in-memory-only mode,
    /// when it was (persistent I/O failure after exhausted retries).
    pub fn durability_degraded_detail(&self) -> Option<&str> {
        self.durability_degraded.as_deref()
    }

    /// Inserts an edge. While serving it applies immediately and returns
    /// `Ok(Some(report))`; during a rebuild window it is queued
    /// (write-ahead) and returns `Ok(None)` — validity is then resolved at
    /// replay with the skip-invalid semantics of
    /// [`apply_batch`](CscIndex::apply_batch).
    ///
    /// # Errors
    ///
    /// The admission errors of [`add_vertex`](Self::add_vertex); while
    /// serving, also the [`CscIndex::insert_edge`] error of a refused op,
    /// which never reaches the WAL.
    pub fn insert_edge(
        &mut self,
        a: VertexId,
        b: VertexId,
    ) -> Result<Option<UpdateReport>, CscError> {
        let report = self.write(&[GraphUpdate::InsertEdge(a, b)], true, Deadline::NONE)?;
        Ok((report.queued == 0).then_some(report.repair))
    }

    /// Removes an edge; same serving/queued split and errors as
    /// [`insert_edge`](Self::insert_edge).
    pub fn remove_edge(
        &mut self,
        a: VertexId,
        b: VertexId,
    ) -> Result<Option<UpdateReport>, CscError> {
        let report = self.write(&[GraphUpdate::RemoveEdge(a, b)], true, Deadline::NONE)?;
        Ok((report.queued == 0).then_some(report.repair))
    }

    /// Appends a fresh vertex and returns its id. During a rebuild window
    /// the op is queued and the returned id is *virtual* — it is the id
    /// the replay will create (current count plus queued `AddVertex`
    /// ops), so later queued edge ops may reference it. The queue is
    /// unbounded and keeps every op in order, so each call gets the next
    /// id and the replay creates exactly the vertices it handed out.
    ///
    /// # Errors
    ///
    /// A degraded engine refuses the write ([`CscError::Poisoned`]).
    pub fn add_vertex(&mut self) -> Result<VertexId, CscError> {
        self.write(&[GraphUpdate::AddVertex], false, Deadline::NONE)?;
        Ok(self.newest_vertex())
    }

    /// Applies a whole update window. While serving this is
    /// [`CscIndex::apply_batch`]; during a rebuild the window is queued
    /// and the returned report only carries
    /// [`updates_submitted`](BatchReport::updates_submitted) and
    /// [`queued`](BatchReport::queued).
    pub fn apply_batch(&mut self, updates: &[GraphUpdate]) -> Result<BatchReport, CscError> {
        self.write(updates, false, Deadline::NONE)
    }

    /// [`apply_batch`](Self::apply_batch) under a wall-clock deadline.
    ///
    /// At the engine level the deadline is an **admission** check only:
    /// it is evaluated before the window is WAL-logged, so a refused
    /// batch leaves no trace anywhere — retry it verbatim later. Once
    /// admitted the batch runs to completion, because a window that has
    /// reached the log must also reach the index (aborting between the
    /// two would make recovery resurrect an op the caller saw fail).
    pub fn apply_batch_deadline(
        &mut self,
        updates: &[GraphUpdate],
        deadline: Deadline,
    ) -> Result<BatchReport, CscError> {
        self.write(updates, false, deadline)
    }

    /// The one write routine behind every engine write (and, under its
    /// lock, every [`ConcurrentIndex`](crate::ConcurrentIndex) write):
    /// deadline and admission → log → queue or apply → checkpoint.
    /// Admission refuses a write only on a past deadline or a degraded
    /// engine, both before the log; mid-rebuild every admitted window
    /// joins the unbounded replay queue, whatever its depth. A `strict`
    /// window is one scalar op that, while serving, must pass
    /// [`CscIndex::check_strict`] before it is logged; mid-rebuild its
    /// validity is resolved at replay like any queued op. A queued
    /// window's report carries only `updates_submitted` and `queued`.
    pub(crate) fn write(
        &mut self,
        window: &[GraphUpdate],
        strict: bool,
        deadline: Deadline,
    ) -> Result<BatchReport, CscError> {
        deadline.admit()?;
        self.check_writable()?;
        if strict && !self.is_rebuilding() {
            debug_assert_eq!(window.len(), 1, "strict writes are scalar");
            self.index.check_strict(window[0])?;
        }
        if !window.is_empty() {
            self.log_window(window)?;
        }
        if self.is_rebuilding() {
            self.queued_vertices += count_vertex_adds(window);
            self.replay.extend(window);
            return Ok(BatchReport {
                updates_submitted: window.len(),
                queued: window.len(),
                ..Default::default()
            });
        }
        let report = self.protected("apply_batch", |idx| idx.apply_batch(window))?;
        self.maybe_checkpoint()?;
        Ok(report)
    }

    /// The id of the most recently accepted vertex — *virtual* while
    /// `AddVertex` ops sit in the replay queue.
    pub(crate) fn newest_vertex(&self) -> VertexId {
        VertexId((self.index.original_vertex_count() + self.queued_vertices - 1) as u32)
    }

    /// A degraded engine refuses every write until recovery.
    fn check_writable(&self) -> Result<(), CscError> {
        match &self.degraded {
            Some(detail) => Err(CscError::poisoned(detail.clone())),
            None => Ok(()),
        }
    }

    /// Runs a write-path operation under `catch_unwind`. A panic
    /// poisons the index (its in-memory invariants may be torn
    /// mid-repair) and degrades the engine: subsequent writes are
    /// refused, while readers keep whatever snapshot they were last
    /// published. An `Err` that left the index poisoned (label-capacity
    /// overflow mid-repair) degrades the same way.
    fn protected<R>(
        &mut self,
        op: &str,
        f: impl FnOnce(&mut CscIndex) -> Result<R, CscError>,
    ) -> Result<R, CscError> {
        let index = &mut self.index;
        match catch_unwind(AssertUnwindSafe(|| f(index))) {
            Ok(Ok(r)) => Ok(r),
            Ok(Err(e)) => {
                if self.index.is_poisoned() && self.degraded.is_none() {
                    self.degrade(
                        self.index
                            .poison_detail()
                            .unwrap_or("write failure")
                            .to_string(),
                    );
                }
                Err(e)
            }
            Err(payload) => {
                let detail = format!("panic during {op}: {}", panic_message(&*payload));
                self.index.poison(detail.clone());
                self.degrade(detail.clone());
                Err(CscError::poisoned(detail))
            }
        }
    }

    fn degrade(&mut self, detail: String) {
        self.degraded = Some(detail);
        self.stats.degradations += 1;
    }

    /// Write-ahead: appends the window to the WAL (when attached)
    /// *before* it is applied or queued. Transient I/O failures are
    /// retried under [`DurabilityConfig::io_retry`](crate::DurabilityConfig)
    /// (each failed attempt's partial bytes rolled back — see
    /// [`WriteAheadLog::append_retrying`]); a persistent failure (e.g.
    /// `ENOSPC`) drops the durability plane into loud in-memory-only
    /// mode — recorded in [`health`](Self::health) — and the write
    /// proceeds unlogged rather than poisoning the engine.
    fn log_window(&mut self, window: &[GraphUpdate]) -> Result<(), CscError> {
        let retry = self.index.config().durability.io_retry;
        let Some(d) = self.durability.as_mut() else {
            return Ok(());
        };
        let seq = d.wal.last_seq() + 1;
        match d.wal.append_retrying(seq, window, &retry) {
            Ok(()) => {
                d.windows_since_checkpoint += 1;
                Ok(())
            }
            Err(e) => {
                self.degrade_durability(format!("wal append failed: {e}"));
                Ok(())
            }
        }
    }

    /// Persistent I/O failure: drop the durability attachment and record
    /// it. The engine keeps serving and accepting writes; nothing is
    /// logged or checkpointed until an operator re-attaches durability
    /// (after which a fresh checkpoint re-covers the full state).
    fn degrade_durability(&mut self, detail: String) {
        self.durability = None;
        self.durability_degraded = Some(detail);
    }

    /// Checkpoints when the cadence says so. Deferred while a
    /// rejuvenation is in flight: queued (logged but unapplied) windows
    /// must stay in the WAL suffix, and rotating the log at a checkpoint
    /// would drop them.
    fn maybe_checkpoint(&mut self) -> Result<(), CscError> {
        if self.degraded.is_some() || self.is_rebuilding() {
            return Ok(());
        }
        let Some(d) = self.durability.as_ref() else {
            return Ok(());
        };
        if d.windows_since_checkpoint >= self.index.config().durability.checkpoint_every {
            self.checkpoint()?;
        }
        Ok(())
    }

    /// Writes a checkpoint of the live index now (atomic
    /// temp-write-and-rename), rotates the WAL behind it, and prunes old
    /// generations. Returns the covered sequence number, or `None` when
    /// skipped — no durability attached, or a rejuvenation in flight
    /// (deferred until the replay queue drains, so queued-but-unapplied
    /// writes always stay inside the WAL suffix a recovery would replay).
    /// Transient I/O failures in the checkpoint write or the log
    /// rotation are retried under
    /// [`DurabilityConfig::io_retry`](crate::DurabilityConfig); a
    /// persistent failure degrades durability to in-memory-only mode
    /// (recorded in [`health`](Self::health)) and returns `Ok(None)` —
    /// the previous checkpoint + WAL on disk stay valid.
    pub fn checkpoint(&mut self) -> Result<Option<u64>, CscError> {
        if self.durability.is_none() || self.is_rebuilding() {
            return Ok(None);
        }
        self.index.encode_into(&mut self.checkpoint_buffer)?;
        let bytes = &self.checkpoint_buffer;
        let keep = self.index.config().durability.keep_checkpoints as usize;
        let retry = self.index.config().durability.io_retry;
        let d = self.durability.as_mut().expect("checked above");
        let seq = d.wal.last_seq();
        let outcome = retry
            .run(seq, |_| {
                wal::write_checkpoint(&d.dir, seq, bytes).map(|_| ())
            })
            .and_then(|()| retry.run(seq ^ 1, |_| d.wal.rotate(seq)));
        match outcome {
            Ok(()) => {
                d.windows_since_checkpoint = 0;
                wal::prune_checkpoints(&d.dir, keep);
                Ok(Some(seq))
            }
            Err(e) => {
                self.degrade_durability(format!("checkpoint at seq {seq} failed: {e}"));
                Ok(None)
            }
        }
    }

    /// Attaches a durability directory: writes an initial checkpoint of
    /// the current index and opens a fresh WAL behind it, so every
    /// subsequent write is logged before it applies and
    /// [`recover`](Self::recover) can reconstruct the index after a
    /// crash. Returns the initial checkpoint's sequence number.
    ///
    /// To *resume* from an existing directory, use
    /// [`recover`](Self::recover) instead — attaching starts a new
    /// checkpoint generation above whatever the directory already holds.
    ///
    /// # Errors
    ///
    /// Fails on a poisoned index, during a rejuvenation window (the
    /// in-memory replay queue predates the log and could not be
    /// recovered), or on I/O errors.
    pub fn attach_durability(&mut self, dir: impl AsRef<Path>) -> Result<u64, CscError> {
        let dir = dir.as_ref();
        self.check_writable()?;
        self.index.check_ready()?;
        if self.is_rebuilding() {
            return Err(CscError::Config(
                "attach_durability during a rejuvenation window: the queued updates predate the log; finish the rejuvenation first".into(),
            ));
        }
        std::fs::create_dir_all(dir).map_err(|e| {
            CscError::corrupt(
                "checkpoint",
                format!("cannot create {}: {e}", dir.display()),
            )
        })?;
        // Start above any leftover generation so stale files can never
        // shadow this engine's checkpoints on a later recovery.
        let seq = wal::list_checkpoints(dir).first().map_or(0, |(s, _)| s + 1);
        self.index.encode_into(&mut self.checkpoint_buffer)?;
        wal::write_checkpoint(dir, seq, &self.checkpoint_buffer)?;
        let log = WriteAheadLog::create(
            &dir.join(wal::WAL_FILE),
            seq,
            self.index.config().durability.fsync,
        )?;
        wal::prune_checkpoints(
            dir,
            self.index.config().durability.keep_checkpoints as usize,
        );
        self.durability = Some(Durability {
            dir: dir.to_path_buf(),
            wal: log,
            windows_since_checkpoint: 0,
        });
        // A fresh attachment re-covers the full state: any earlier
        // in-memory-only degradation is over.
        self.durability_degraded = None;
        Ok(seq)
    }

    /// Starts a rejuvenation: captures fresh ranks (recomputed from the
    /// *current* graph under the configured ordering strategy, so churn
    /// vertices get re-ranked on merit) and an adjacency snapshot, and
    /// flips the machine to `Rebuilding`. Idempotent while one is already
    /// in flight. Drive it with [`step`](Self::step) or
    /// [`rejuvenate`](Self::rejuvenate).
    ///
    /// # Errors
    ///
    /// Fails on a poisoned index, or if the graph exceeds labeling
    /// capacity.
    pub fn begin_rejuvenation(&mut self) -> Result<(), CscError> {
        self.index.check_ready()?;
        if self.is_rebuilding() {
            return Ok(());
        }
        let original = self.index.original_graph();
        let ranks = RankTable::build(&original, self.index.config().order).bipartite_order();
        let csr = Csr::from_digraph(self.index.bipartite().graph());
        let build = LabelBuildTask::new(csr.vertex_count())?;
        self.rebuild = Some(RebuildTask {
            ranks,
            csr,
            build,
            labels_done: false,
        });
        self.stats.rejuvenations_started += 1;
        Ok(())
    }

    /// Advances an in-flight rejuvenation by a bounded amount of work: up
    /// to `rank_budget` hub ranks of label construction, or (once labels
    /// are complete and swapped) up to [`REPLAY_CHUNK`] queued updates of
    /// replay. Returns the state after the step; `Serving` means the
    /// rejuvenation finished. A no-op returning `Serving` when nothing is
    /// in flight.
    ///
    /// # Errors
    ///
    /// A label-capacity overflow during the rebuild abandons it: the
    /// previous index keeps serving, the queue is replayed onto it, and
    /// the error is returned ([`MaintenanceStats::rejuvenations_failed`]
    /// counts it). An overflow during *replay* poisons the index exactly
    /// like a failed [`apply_batch`](CscIndex::apply_batch).
    pub fn step(&mut self, rank_budget: usize) -> Result<MaintenanceStatus, CscError> {
        self.check_writable()?;
        let Some(task) = self.rebuild.as_mut() else {
            return Ok(MaintenanceStatus::Serving);
        };
        self.stats.rebuild_steps += 1;
        if !task.labels_done {
            faultpoint!("rebuild.advance");
            let advanced = catch_unwind(AssertUnwindSafe(|| {
                task.build.advance(&task.csr, &task.ranks, rank_budget)
            }));
            match advanced {
                Ok(Ok(true)) => {
                    task.labels_done = true;
                    self.swap_rebuilt();
                    self.integrity_check_after("rejuvenation swap")?;
                }
                Ok(Ok(false)) => {}
                Ok(Err(e)) => {
                    // Abandon: the old index is untouched and fully valid.
                    self.abandon_rebuild()?;
                    return Err(e.into());
                }
                Err(payload) => {
                    // The live index is actually untouched here, but the
                    // replay queue's relationship to it is now suspect;
                    // degrade and let recovery re-establish it.
                    let detail = format!(
                        "panic during rejuvenation build: {}",
                        panic_message(&*payload)
                    );
                    self.index.poison(detail.clone());
                    self.degrade(detail.clone());
                    return Err(CscError::poisoned(detail));
                }
            }
        } else {
            faultpoint!("replay.chunk");
            self.replay_chunk()?;
        }
        if !self.is_rebuilding() {
            // The queue just drained: take the checkpoint that was
            // deferred for the whole rejuvenation window.
            self.maybe_checkpoint()?;
        }
        Ok(self.status())
    }

    /// Drops the in-flight task, counts the failure, and replays the
    /// queue onto the current (still fully valid) index, as one window,
    /// so no accepted write is lost.
    fn abandon_rebuild(&mut self) -> Result<(), CscError> {
        self.rebuild = None;
        self.stats.rejuvenations_failed += 1;
        self.stats.updates_replayed += self.replay_queued(usize::MAX, "replay")?;
        Ok(())
    }

    /// Runs the config-gated structural sweep after a swap or recovery,
    /// degrading the engine instead of serving a broken index.
    fn integrity_check_after(&mut self, what: &str) -> Result<(), CscError> {
        if !self.index.config().durability.check_integrity {
            return Ok(());
        }
        if let Err(e) = check_integrity(&self.index) {
            let detail = format!("integrity check failed after {what}: {e}");
            self.index.poison(detail.clone());
            self.degrade(detail.clone());
            return Err(CscError::poisoned(detail));
        }
        Ok(())
    }

    /// Runs an in-flight (or else a fresh) rejuvenation to completion and
    /// reports what it did. This is the synchronous driver; cooperative
    /// callers use [`begin_rejuvenation`](Self::begin_rejuvenation) +
    /// [`step`](Self::step) instead.
    pub fn rejuvenate(&mut self) -> Result<RejuvenationReport, CscError> {
        let started = Instant::now();
        let entries_before = self.index.total_entries();
        let replayed_before = self.stats.updates_replayed;
        self.begin_rejuvenation()?;
        while self.step(usize::MAX)? != MaintenanceStatus::Serving {}
        Ok(RejuvenationReport {
            entries_before,
            entries_after: self.index.total_entries(),
            replayed: self.stats.updates_replayed - replayed_before,
            duration: started.elapsed(),
        })
    }

    /// Labels finished: assemble the rejuvenated index and swap it in.
    /// The lifetime counters carry over (see
    /// [`CscIndex::inherit_counters`]); the build statistics and the drift
    /// baseline are re-anchored.
    fn swap_rebuilt(&mut self) {
        let task = self.rebuild.as_mut().expect("called with a task in flight");
        let build = std::mem::replace(
            &mut task.build,
            LabelBuildTask::new(0).expect("empty task is always in capacity"),
        );
        let (labels, closures, counters) = build.finish();
        let config = *self.index.config();
        let n = self.index.bipartite().graph().vertex_count();
        let stats = IndexStats {
            build: BuildStats {
                canonical: counters.canonical,
                non_canonical: counters.non_canonical,
                pruned: counters.pruned,
                dequeues: counters.dequeues,
                saturated_counts: counters.saturated,
                build_time: self.index.stats.build.build_time,
            },
            ..IndexStats::default()
        };
        let mut fresh = CscIndex {
            gb: self.index.gb.clone(),
            ranks: std::mem::replace(&mut task.ranks, RankTable::from_order(&[])),
            labels,
            closures,
            inverted: None,
            config,
            stats,
            baseline: HealthBaseline::default(),
            poisoned: None,
            workspace: CoupleBfs::new(n),
            // Reuse the retired index's pooled sweep maps and bucket queue:
            // they are graph-shape scratch, already sized right.
            sweeps: std::mem::take(&mut self.index.sweeps),
        };
        fresh.inherit_counters(&self.index);
        fresh.rebaseline(self.index.baseline.rejuvenations + 1);
        // The baseline is the post-rebuild state; replayed updates then
        // count as ordinary drift on top of it.
        self.index = fresh;
        self.stats.rejuvenations_completed += 1;
    }

    /// Drains up to [`REPLAY_CHUNK`] updates onto the (rejuvenated) index;
    /// finishing the queue returns the machine to `Serving`. The bound
    /// keeps one cooperative [`step`](Self::step) short.
    fn replay_chunk(&mut self) -> Result<(), CscError> {
        self.stats.updates_replayed += self.replay_queued(REPLAY_CHUNK, "replay")?;
        if self.replay.is_empty() {
            self.rebuild = None;
        }
        Ok(())
    }

    /// Applies up to `limit` queued updates, oldest first, as one
    /// [`apply_batch`](CscIndex::apply_batch) window (equal to applying
    /// them one by one), and returns how many it took.
    fn replay_queued(&mut self, limit: usize, op: &str) -> Result<usize, CscError> {
        let take = self.replay.len().min(limit);
        let window: Vec<GraphUpdate> = self.replay.drain(..take).collect();
        self.queued_vertices -= count_vertex_adds(&window);
        if !window.is_empty() {
            self.protected(op, |idx| idx.apply_batch(&window))?;
        }
        Ok(window.len())
    }

    /// Produces the next snapshot to publish: seals the index's label
    /// arena and shares it, compacting it first when the compaction policy
    /// says so (see [`SnapshotIndex`]'s module docs). The snapshot is the
    /// arena's current state whatever `prev`, the snapshot it replaces,
    /// was; `prev` is not read, so a swap or a recovery needs no special
    /// first publish.
    pub fn publish_from(&mut self, _prev: Option<&SnapshotIndex>) -> SnapshotIndex {
        SnapshotIndex::publish(&mut self.index)
    }

    /// Reconstructs an engine from a durability directory: loads the
    /// newest *readable* checkpoint (falling back over torn or
    /// bit-flipped generations), replays the WAL records past it as **one
    /// merged window** with the skip-invalid batch semantics, and goes on
    /// appending to the log it replayed. The returned engine is `Serving`
    /// with durability attached, and the replayed records count toward
    /// its next cadence checkpoint.
    ///
    /// Recovery writes no checkpoint in the common case. Its only disk
    /// changes come after the replay: dropping a torn log tail, or
    /// starting a fresh log at the checkpoint when the old one is missing,
    /// has a destroyed header, or ends below the checkpoint (its tail was
    /// lost under [`FsyncPolicy::Every`](crate::FsyncPolicy::Every) or
    /// `Never`; the next window appended there would be numbered at or
    /// below the checkpoint and dropped by the next recovery). Only a
    /// recovery that fell back past an unreadable generation re-anchors
    /// in full: a fresh checkpoint of the recovered state, a fresh log
    /// behind it.
    ///
    /// The recovered graph is exactly the one record-by-record replay
    /// would build, and every query answers exactly; the labels are
    /// *query-exact*, not byte-identical to the crashed writer's. Ops that
    /// cancel across records (an insert undone by a later record) cost no
    /// repair, which makes replaying a long log cheaper than a cold build.
    ///
    /// A persistent I/O error after the replay — reopening the log, or the
    /// re-anchor — does not fail the recovery: the engine serves with
    /// durability degraded to in-memory-only mode.
    ///
    /// # Errors
    ///
    /// * [`CscError::Corrupt`] — no readable checkpoint, or the WAL
    ///   provably continues from a checkpoint newer than any readable
    ///   one (the windows in between are unrecoverable; refusing loudly
    ///   beats silently serving a stale state).
    /// * [`CscError::Io`] — the log exists but stays unreadable through
    ///   the retries; nothing on disk is changed.
    /// * [`CscError::Poisoned`] — replay itself panicked or overflowed
    ///   label capacity (the on-disk state stays untouched for another
    ///   attempt).
    pub fn recover(dir: impl AsRef<Path>) -> Result<(Self, RecoveryReport), CscError> {
        let dir = dir.as_ref();
        faultpoint!("recover.begin");
        let ckpts = wal::list_checkpoints(dir);
        if ckpts.is_empty() {
            return Err(CscError::corrupt(
                "recovery",
                format!("no checkpoint found in {}", dir.display()),
            ));
        }
        let mut skipped = 0usize;
        let mut loaded: Option<(u64, CscIndex)> = None;
        for (seq, path) in &ckpts {
            // A transient read error must not burn a generation (the
            // next-older checkpoint loses every WAL record in between);
            // retry it before falling back. Persistent I/O errors and
            // corruption fall back exactly as before.
            let read = RetryPolicy::DEFAULT_IO.run(*seq, |_| wal::read_file(path));
            match read.and_then(|b| CscIndex::from_bytes(&b)) {
                Ok(idx) => {
                    loaded = Some((*seq, idx));
                    break;
                }
                Err(_) => skipped += 1,
            }
        }
        let Some((ckpt_seq, mut index)) = loaded else {
            return Err(CscError::corrupt(
                "recovery",
                format!(
                    "all {} checkpoint generations in {} are unreadable",
                    ckpts.len(),
                    dir.display()
                ),
            ));
        };
        let durability = index.config().durability;
        let retry = durability.io_retry;

        // The log, read once. Its suffix — the records with a sequence
        // past the checkpoint — is what gets replayed.
        let wal_path = dir.join(wal::WAL_FILE);
        let mut log = None;
        let mut truncated = 0u64;
        if wal_path.exists() {
            match retry.run(ckpt_seq, |_| ScannedLog::read(&wal_path)) {
                Ok(scanned) => {
                    if scanned.base_seq > ckpt_seq {
                        return Err(CscError::corrupt(
                            "recovery",
                            format!(
                                "the log continues from checkpoint {}, but the newest \
                                 readable checkpoint is {ckpt_seq}: the windows in between \
                                 are unrecoverable",
                                scanned.base_seq
                            ),
                        ));
                    }
                    truncated = scanned.report.truncated_bytes;
                    log = Some(scanned);
                }
                Err(CscError::Corrupt { .. }) => {
                    // A destroyed header — e.g. a crash between the
                    // checkpoint rename and the log rotation, which
                    // leaves a truncated file. Everything the log held
                    // is covered by the checkpoint; count the file as
                    // dropped so the report is honest about it.
                    truncated = std::fs::metadata(&wal_path).map_or(0, |m| m.len());
                }
                Err(e) => return Err(e),
            }
        }
        let records = log.as_ref().map_or(&[][..], |l| &l.records[..]);
        let suffix = &records[records.partition_point(|r| r.seq <= ckpt_seq)..];

        // One merged window: the skip-invalid semantics decides op by op,
        // in order, so it builds the graph per-record replay would (see
        // the doc comment for what the labels guarantee).
        let mut window = Vec::new();
        for record in suffix {
            faultpoint!("recover.replay");
            window.extend_from_slice(&record.updates);
        }
        let last_seq = suffix.last().map_or(ckpt_seq, |r| r.seq);
        if let Some(first) = suffix.first() {
            match catch_unwind(AssertUnwindSafe(|| index.apply_batch(&window))) {
                Ok(Ok(_)) => {}
                Ok(Err(e)) => return Err(e),
                Err(payload) => {
                    return Err(CscError::poisoned(format!(
                        "panic while replaying log records {}..={last_seq} during recovery: {}",
                        first.seq,
                        panic_message(&*payload)
                    )));
                }
            }
        }

        // Attach the log the next window appends to. Transient I/O
        // failures retry; a persistent one must not fail the whole
        // recovery — the state is already reconstructed — so the engine
        // comes back serving with durability degraded instead. (A crash
        // anywhere in here leaves a checkpoint and a log that still
        // recover the same state.)
        let attached = if skipped > 0 {
            // Fell back past an unreadable generation: re-anchor, so the
            // next recovery need not fall back again.
            let bytes = index.to_bytes()?;
            retry
                .run(last_seq, |_| {
                    wal::write_checkpoint(dir, last_seq, &bytes).map(|_| ())
                })
                .and_then(|()| {
                    retry.run(last_seq ^ 1, |_| {
                        WriteAheadLog::create(&wal_path, last_seq, durability.fsync)
                    })
                })
                .map(|log| {
                    wal::prune_checkpoints(dir, durability.keep_checkpoints as usize);
                    (log, 0)
                })
                .map_err(|e| format!("re-anchor after recovery failed: {e}"))
        } else {
            match &log {
                // Continue the log past its last valid record.
                Some(log) if log.last_seq() >= ckpt_seq => {
                    retry.run(ckpt_seq, |_| log.reopen(durability.fsync))
                }
                // Missing, destroyed, or ending below the checkpoint: the
                // checkpoint is the whole state, and a fresh log follows it.
                _ => retry.run(ckpt_seq, |_| {
                    WriteAheadLog::create(&wal_path, ckpt_seq, durability.fsync)
                }),
            }
            .map(|log| (log, suffix.len() as u32))
            .map_err(|e| format!("reopening the log after recovery failed: {e}"))
        };

        let mut engine = MaintenanceEngine::new(index);
        engine.wal_truncated_total = truncated;
        match attached {
            Ok((wal, windows_since_checkpoint)) => {
                engine.durability = Some(Durability {
                    dir: dir.to_path_buf(),
                    wal,
                    windows_since_checkpoint,
                });
            }
            Err(detail) => engine.durability_degraded = Some(detail),
        }
        engine.integrity_check_after("recovery")?;
        let integrity_checked = engine.index().config().durability.check_integrity;
        Ok((
            engine,
            RecoveryReport {
                checkpoint_seq: ckpt_seq,
                checkpoints_skipped: skipped,
                records_replayed: suffix.len(),
                updates_replayed: window.len(),
                wal_truncated_bytes: truncated,
                integrity_checked,
            },
        ))
    }

    /// Recovers a degraded (or merely suspect) engine in place,
    /// transitioning `Degraded` → `Serving` while the caller's readers
    /// keep whatever snapshot was last published.
    ///
    /// * **With durability attached**: rebuilds from checkpoint + WAL via
    ///   [`recover`](Self::recover). The in-memory replay queue is
    ///   *dropped* — every queued op was WAL-logged before it was
    ///   accepted, and replaying it twice would double-apply
    ///   (`AddVertex` is not idempotent). Lifetime counters carry over.
    /// * **Without durability**: rebuilds from the live graph (which
    ///   mutates *before* label repair, so it is intact even when the
    ///   labels are torn), then replays the in-memory queue onto it as one
    ///   window.
    ///
    /// Either way the next publication shares the brand-new label store,
    /// and the recovered index keeps the retired one's lifetime counters:
    /// updates applied (so snapshots stay ordered) and rejuvenations
    /// completed.
    pub fn recover_in_place(&mut self) -> Result<RecoveryReport, CscError> {
        if let Some(d) = &self.durability {
            let dir = d.dir.clone();
            let stats = self.stats;
            let (mut fresh, report) = Self::recover(&dir)?;
            fresh.index.inherit_counters(&self.index);
            fresh.stats = stats;
            fresh.stats.recoveries += 1;
            // The lifetime torn-tail count survives the swap.
            fresh.wal_truncated_total = fresh
                .wal_truncated_total
                .saturating_add(self.wal_truncated_total);
            *self = fresh;
            return Ok(report);
        }
        // Rebuild from the live graph, then replay the queue.
        let g = self.index.original_graph();
        let config = *self.index.config();
        let mut rebuilt = match catch_unwind(AssertUnwindSafe(|| CscIndex::build(&g, config))) {
            Ok(r) => r?,
            Err(payload) => {
                return Err(CscError::poisoned(format!(
                    "panic while rebuilding during recovery: {}",
                    panic_message(&*payload)
                )));
            }
        };
        rebuilt.inherit_counters(&self.index);
        self.index = rebuilt;
        self.rebuild = None;
        self.degraded = None;
        let updates_replayed = self.replay_queued(usize::MAX, "recovery replay")?;
        self.integrity_check_after("recovery")?;
        self.stats.recoveries += 1;
        Ok(RecoveryReport {
            updates_replayed,
            integrity_checked: config.durability.check_integrity,
            ..RecoveryReport::default()
        })
    }

    /// Unwraps back into the plain index. An in-flight rebuild is
    /// abandoned (never half-applied): the current index is kept and the
    /// write-ahead queue is replayed onto it, so no accepted write is
    /// lost. If that replay overflows label capacity the returned index is
    /// poisoned, exactly as a failed `apply_batch` would leave it. A
    /// *degraded* engine's queue is not replayed — the index is poisoned
    /// and would refuse it; the index is returned as-is for inspection.
    pub fn into_index(mut self) -> CscIndex {
        if self.is_rebuilding() && !self.is_degraded() {
            let _ = self.abandon_rebuild();
        }
        self.index
    }
}

impl From<CscIndex> for MaintenanceEngine {
    fn from(index: CscIndex) -> Self {
        MaintenanceEngine::new(index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CscConfig;
    use crate::verify::verify_index;
    use csc_graph::generators::{directed_cycle, gnm};
    use csc_graph::traversal::shortest_cycle_oracle;
    use csc_graph::{DiGraph, GraphError};
    use std::sync::Arc;

    fn assert_matches_fresh(engine: &MaintenanceEngine, context: &str) {
        let g = engine.index().original_graph();
        let fresh = CscIndex::build(&g, *engine.index().config()).unwrap();
        for v in g.vertices() {
            assert_eq!(
                engine.index().query(v),
                fresh.query(v),
                "{context}: SCCnt({v})"
            );
            assert_eq!(
                engine.index().query(v).map(|c| (c.length, c.count)),
                shortest_cycle_oracle(&g, v),
                "{context}: oracle SCCnt({v})"
            );
        }
    }

    #[test]
    fn serving_writes_pass_through() {
        let g = directed_cycle(5);
        let mut engine = MaintenanceEngine::new(CscIndex::build(&g, CscConfig::default()).unwrap());
        assert_eq!(engine.status(), MaintenanceStatus::Serving);
        let report = engine.insert_edge(VertexId(2), VertexId(0)).unwrap();
        assert!(report.is_some(), "serving writes apply immediately");
        assert!(
            engine.insert_edge(VertexId(2), VertexId(0)).is_err(),
            "duplicate rejected while serving"
        );
        assert_eq!(engine.index().query(VertexId(0)).unwrap().length, 3);
    }

    #[test]
    fn manual_rejuvenation_restores_fresh_build_labels() {
        // Drift: grow the graph through churn vertices (bottom-ranked) and
        // edge flapping, then rejuvenate and compare against a fresh build
        // on the same final graph — labels and ranks must match exactly.
        let g = gnm(20, 55, 7);
        let mut engine = MaintenanceEngine::new(CscIndex::build(&g, CscConfig::default()).unwrap());
        for k in 0..4u32 {
            let nv = engine.add_vertex().unwrap();
            engine.insert_edge(VertexId(k), nv).unwrap().unwrap();
            engine.insert_edge(nv, VertexId(k + 5)).unwrap().unwrap();
        }
        let victims: Vec<_> = g.edge_vec().into_iter().step_by(9).take(4).collect();
        for &(a, b) in &victims {
            engine.remove_edge(VertexId(a), VertexId(b)).unwrap();
        }
        let drifted = engine.health();
        assert_eq!(drifted.churned_vertices, 4);

        let report = engine.rejuvenate().unwrap();
        assert_eq!(report.replayed, 0);
        assert_eq!(engine.status(), MaintenanceStatus::Serving);

        let final_graph = engine.index().original_graph();
        let fresh = CscIndex::build(&final_graph, CscConfig::default()).unwrap();
        assert_eq!(engine.index().labels(), fresh.labels());
        assert_eq!(engine.index().ranks(), fresh.ranks());
        assert_eq!(report.entries_after, fresh.total_entries());
        let h = engine.health();
        assert_eq!(
            (h.growth_percent, h.churned_vertices, h.rejuvenations),
            (100, 0, 1)
        );
        verify_index(engine.index()).unwrap();
    }

    #[test]
    fn writes_queue_during_rebuild_and_replay_applies_them() {
        let g = gnm(18, 48, 3);
        let mut engine = MaintenanceEngine::new(CscIndex::build(&g, CscConfig::default()).unwrap());
        engine.begin_rejuvenation().unwrap();
        // A budget of 2 makes progress but leaves the rebuild in flight.
        let st = engine.step(2).unwrap();
        assert!(
            matches!(st, MaintenanceStatus::Rebuilding { ranks_done: 2, .. }),
            "{st:?}"
        );

        // Mid-rebuild writes: all queued, including a virtual-id vertex.
        let nv = engine.add_vertex().unwrap();
        assert_eq!(nv, VertexId(18), "virtual id = current n + queued adds");
        assert_eq!(engine.insert_edge(VertexId(0), nv).unwrap(), None);
        assert_eq!(engine.insert_edge(nv, VertexId(1)).unwrap(), None);
        let br = engine
            .apply_batch(&[GraphUpdate::InsertEdge(VertexId(1), VertexId(0))])
            .unwrap();
        assert_eq!((br.queued, br.applied_updates()), (1, 0));
        assert_eq!(engine.health().replay_queued, 4);
        assert_eq!(
            engine.index().original_vertex_count(),
            18,
            "live index untouched while queued"
        );

        while engine.step(16).unwrap() != MaintenanceStatus::Serving {}
        assert_eq!(engine.index().original_vertex_count(), 19);
        assert_eq!(engine.maintenance_stats().updates_replayed, 4);
        assert_eq!(engine.health().replay_queued, 0);
        assert_matches_fresh(&engine, "after replay");
        verify_index(engine.index()).unwrap();
    }

    #[test]
    fn publish_after_swap_shares_the_rebuilt_arena() {
        let g = directed_cycle(16);
        let mut engine = MaintenanceEngine::new(CscIndex::build(&g, CscConfig::default()).unwrap());
        let first = engine.publish_from(None);

        // Steady state: each publish shares the arena as it stands.
        engine.insert_edge(VertexId(0), VertexId(9)).unwrap();
        engine.insert_edge(VertexId(9), VertexId(0)).unwrap();
        let second = engine.publish_from(Some(&first));
        assert_eq!(second.total_entries(), engine.index().total_entries());

        // Rejuvenate: the rebuilt index brings its own compacted arena,
        // which the next publish shares whole.
        engine.rejuvenate().unwrap();
        let third = engine.publish_from(Some(&second));
        assert_eq!(third.total_entries(), engine.index().total_entries());
        let arena = third.labels();
        assert_eq!((arena.segment_count(), arena.dead_entries()), (1, 0));
        for v in 0..16u32 {
            let v = VertexId(v);
            assert_eq!(third.query(v), engine.index().query(v), "SCCnt({v})");
        }
        // The publications after that seal onto the new arena, and the
        // old snapshots keep answering for their own points in time.
        engine.remove_edge(VertexId(0), VertexId(9)).unwrap();
        let fourth = engine.publish_from(Some(&third));
        assert_eq!(fourth.total_entries(), engine.index().total_entries());
        assert_eq!(first.query(VertexId(0)).unwrap().length, 16);
        assert_eq!(second.query(VertexId(0)).unwrap().length, 2);
        assert_eq!(fourth.query(VertexId(0)), engine.index().query(VertexId(0)));
    }

    #[test]
    fn compactions_refill_what_retired_snapshots_gave_back() {
        let g = gnm(30, 90, 11);
        let mut engine = MaintenanceEngine::new(CscIndex::build(&g, CscConfig::default()).unwrap());
        let mut served = Arc::new(engine.publish_from(None));
        // A reader's snapshot: it shares the first arena, which must never
        // be handed back while the reader holds it.
        let reader = Arc::clone(&served);
        let answers: Vec<_> = (0..30).map(|v| reader.query(VertexId(v))).collect();
        let (mut compactions, mut refills) = (0, 0);
        for step in 0..60u32 {
            let (a, b) = (VertexId(step % 30), VertexId((step * 7 + 3) % 30));
            if engine.index().original_graph().has_edge(a, b) {
                engine.remove_edge(a, b).unwrap();
            } else if a != b {
                engine.insert_edge(a, b).unwrap();
            }
            // A compaction refills the spare when it has room for the lists.
            let labels = engine.index().labels();
            let spare = labels.spare_capacity() >= labels.total_entries();
            let fresh = Arc::new(engine.publish_from(Some(&served)));
            if fresh.labels().segment_count() == 1 {
                compactions += 1;
                refills += usize::from(spare);
            }
            for v in 0..30 {
                let v = VertexId(v);
                assert_eq!(
                    fresh.query(v),
                    engine.index().query(v),
                    "step {step}: SCCnt({v})"
                );
            }
            served = fresh;
        }
        assert!(compactions >= 3, "{compactions} compactions");
        assert!(
            refills >= 2,
            "{refills} of {compactions} compactions refilled a buffer"
        );
        let still: Vec<_> = (0..30).map(|v| reader.query(VertexId(v))).collect();
        assert_eq!(still, answers, "a held snapshot is never refilled");
    }

    #[test]
    fn into_index_abandons_rebuild_without_losing_writes() {
        let g = directed_cycle(7);
        let mut engine = MaintenanceEngine::new(CscIndex::build(&g, CscConfig::default()).unwrap());
        engine.begin_rejuvenation().unwrap();
        engine.step(1).unwrap();
        engine.insert_edge(VertexId(3), VertexId(0)).unwrap();
        let index = engine.into_index();
        assert!(!index.is_poisoned());
        assert_eq!(
            index.query(VertexId(0)).unwrap().length,
            4,
            "queued write replayed onto the abandoned-state index"
        );
    }

    #[test]
    fn empty_graph_rejuvenates() {
        let g = DiGraph::new(0);
        let mut engine = MaintenanceEngine::new(CscIndex::build(&g, CscConfig::default()).unwrap());
        let report = engine.rejuvenate().unwrap();
        assert_eq!(report.entries_after, 0);
        assert_eq!(engine.status(), MaintenanceStatus::Serving);
    }

    // ---- durability ----------------------------------------------------

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "csc-maintain-test-{}-{tag}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// A durable engine over `gnm(16, 40, seed)` with the given cadence,
    /// fsync off for test speed.
    fn durable_engine(dir: &std::path::Path, checkpoint_every: u32) -> MaintenanceEngine {
        let g = gnm(16, 40, 11);
        let config = CscConfig::default()
            .with_fsync(crate::config::FsyncPolicy::Never)
            .with_checkpoint_every(checkpoint_every)
            .with_integrity_check(true);
        let mut engine = MaintenanceEngine::new(CscIndex::build(&g, config).unwrap());
        engine.attach_durability(dir).unwrap();
        engine
    }

    fn churn_windows() -> Vec<Vec<GraphUpdate>> {
        use GraphUpdate::*;
        vec![
            vec![InsertEdge(VertexId(0), VertexId(9)), AddVertex],
            vec![InsertEdge(VertexId(16), VertexId(3))],
            vec![InsertEdge(VertexId(5), VertexId(16)), AddVertex],
            vec![RemoveEdge(VertexId(0), VertexId(9))],
            vec![
                InsertEdge(VertexId(17), VertexId(0)),
                InsertEdge(VertexId(2), VertexId(17)),
            ],
        ]
    }

    #[test]
    fn recovery_replays_the_wal_suffix() {
        let dir = temp_dir("wal-suffix");
        // Cadence far above the write count: everything stays in the WAL.
        let mut engine = durable_engine(&dir, 1000);
        for w in churn_windows() {
            engine.apply_batch(&w).unwrap();
        }
        let want = engine.index().original_graph();
        drop(engine); // "crash": no clean shutdown, no final checkpoint

        let (recovered, report) = MaintenanceEngine::recover(&dir).unwrap();
        assert_eq!(report.checkpoint_seq, 0, "initial checkpoint only");
        assert_eq!(report.records_replayed, 5);
        assert_eq!(report.updates_replayed, 8);
        assert_eq!(report.wal_truncated_bytes, 0);
        assert!(report.integrity_checked);
        assert_eq!(recovered.index().original_graph(), want);
        assert_eq!(recovered.status(), MaintenanceStatus::Serving);
        assert!(recovered.is_durable());
        verify_index(recovered.index()).unwrap();
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn replaying_insertions_leaves_the_inverted_index_unbuilt() {
        // Insertions and new vertices read no carriers, live or replayed;
        // the first deletion after recovery builds an exact mirror.
        let dir = temp_dir("unbuilt-inverted");
        let mut engine = durable_engine(&dir, 1000);
        for w in &churn_windows()[..3] {
            engine.apply_batch(w).unwrap();
        }
        assert!(engine.index().inverted.is_none());
        drop(engine); // crash

        let (mut recovered, report) = MaintenanceEngine::recover(&dir).unwrap();
        assert_eq!((report.records_replayed, report.updates_replayed), (3, 5));
        assert!(recovered.index().inverted.is_none());
        let report = recovered
            .apply_batch(&[GraphUpdate::RemoveEdge(VertexId(0), VertexId(9))])
            .unwrap();
        assert_eq!(report.repair.rebuild_fallbacks, 0);
        let index = recovered.index();
        let inv = index.inverted.as_ref().expect("the deletion built it");
        inv.validate_against(index.labels()).unwrap();
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn merged_replay_cancels_and_rejects_across_records() {
        use GraphUpdate::*;
        let dir = temp_dir("merged-replay");
        let mut engine = durable_engine(&dir, 1000);
        let base = engine.index().clone();
        let g = base.original_graph();
        let a = VertexId(0);
        let b = (1..16).map(VertexId).find(|&b| !g.has_edge(a, b)).unwrap();
        let records = [
            vec![InsertEdge(a, b), AddVertex], // creates vertex 16
            // Uses vertex 16; (a, b) is a duplicate only after record 1.
            vec![InsertEdge(VertexId(16), a), InsertEdge(a, b)],
            vec![RemoveEdge(a, b), InsertEdge(a, VertexId(16))], // undoes record 1
        ];
        let mut per_record = base.clone();
        for record in &records {
            engine.apply_batch(record).unwrap();
            per_record.apply_batch(record).unwrap();
        }
        drop(engine); // crash
        let merged = base.clone().apply_batch(&records.concat()).unwrap();
        assert_eq!((merged.cancelled, merged.rejected), (2, 1));

        let (recovered, report) = MaintenanceEngine::recover(&dir).unwrap();
        assert_eq!((report.records_replayed, report.updates_replayed), (3, 6));
        let g_final = per_record.original_graph();
        assert_eq!(recovered.index().original_graph(), g_final);
        for x in g_final.vertices() {
            let got = recovered.index().query(x);
            assert_eq!(got, per_record.query(x), "vs per-record at {x}");
            let oracle = shortest_cycle_oracle(&g_final, x);
            assert_eq!(got.map(|c| (c.length, c.count)), oracle, "at {x}");
        }
        verify_index(recovered.index()).unwrap();
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn refused_scalar_writes_never_reach_the_wal() {
        let dir = temp_dir("refused-scalar");
        let mut engine = durable_engine(&dir, 1000);
        let (a, b) = engine.index().original_graph().edge_vec()[0];
        let (a, b, far) = (VertexId(a), VertexId(b), VertexId(99));
        let logged = |e: &MaintenanceEngine| {
            let d = e.durability.as_ref().unwrap();
            (
                d.wal.last_seq() - d.wal.base_seq(),
                d.windows_since_checkpoint,
            )
        };
        let refused = [
            engine.insert_edge(a, b).map(drop),
            engine.insert_edge(a, a).map(drop),
            engine.remove_edge(a, a).map(drop),
            engine.remove_edge(a, far).map(drop),
        ];
        let want = [
            GraphError::DuplicateEdge(a, b),
            GraphError::SelfLoop(a),
            GraphError::MissingEdge(a, a),
            GraphError::VertexOutOfRange { vertex: far, n: 16 },
        ];
        assert_eq!(refused, want.map(|e| Err(CscError::Graph(e))));
        assert_eq!(logged(&engine), (0, 0), "refused ops are never logged");

        engine.remove_edge(a, b).unwrap().unwrap();
        assert_eq!(logged(&engine), (1, 1));
        drop(engine);
        let (_, records, _) = WriteAheadLog::read_all(&dir.join(wal::WAL_FILE)).unwrap();
        assert_eq!(records.len(), 1);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn checkpoint_cadence_rotates_the_log() {
        let dir = temp_dir("cadence");
        let mut engine = durable_engine(&dir, 2);
        for w in churn_windows() {
            engine.apply_batch(&w).unwrap();
        }
        let want = engine.index().original_graph();
        drop(engine);

        let (recovered, report) = MaintenanceEngine::recover(&dir).unwrap();
        // 5 windows at cadence 2: checkpoints after windows 2 and 4, so
        // recovery loads seq 4 and replays only window 5.
        assert_eq!(report.checkpoint_seq, 4);
        assert_eq!(report.records_replayed, 1);
        assert_eq!(recovered.index().original_graph(), want);
        verify_index(recovered.index()).unwrap();
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn torn_wal_tail_is_dropped_and_reported() {
        let dir = temp_dir("torn-tail");
        let mut engine = durable_engine(&dir, 1000);
        for w in churn_windows() {
            engine.apply_batch(&w).unwrap();
        }
        drop(engine);
        // Tear the tail: chop the last 5 bytes off the final record, as a
        // crash mid-append would.
        let wal_path = dir.join(wal::WAL_FILE);
        let bytes = std::fs::read(&wal_path).unwrap();
        std::fs::write(&wal_path, &bytes[..bytes.len() - 5]).unwrap();

        let (recovered, report) = MaintenanceEngine::recover(&dir).unwrap();
        assert_eq!(report.records_replayed, 4, "the torn final record is gone");
        assert!(report.wal_truncated_bytes > 0);
        // The recovered state is the acknowledged prefix: windows 1-4.
        let mut sim = gnm(16, 40, 11);
        for w in churn_windows().iter().take(4).flatten() {
            match *w {
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
        assert_eq!(recovered.index().original_graph(), sim);
        verify_index(recovered.index()).unwrap();
        std::fs::remove_dir_all(dir).unwrap();
    }

    /// The acked-prefix oracle: `gnm(16, 40, 11)` after the first `k`
    /// [`churn_windows`].
    fn churn_prefix(k: usize) -> DiGraph {
        let mut sim = gnm(16, 40, 11);
        for w in churn_windows().iter().take(k).flatten() {
            match *w {
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
        sim
    }

    /// Every file name in `dir`, sorted.
    fn dir_listing(dir: &std::path::Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn recovery_continues_the_log_it_replayed() {
        let dir = temp_dir("continue");
        let mut engine = durable_engine(&dir, 1000);
        for w in &churn_windows()[..3] {
            engine.apply_batch(w).unwrap();
        }
        drop(engine); // crash
        let before = dir_listing(&dir);

        let (mut recovered, report) = MaintenanceEngine::recover(&dir).unwrap();
        assert_eq!(report.records_replayed, 3);
        assert_eq!(
            dir_listing(&dir),
            before,
            "recovery wrote no checkpoint (nor a temp file)"
        );
        for w in &churn_windows()[3..] {
            recovered.apply_batch(w).unwrap();
        }
        drop(recovered); // crash again

        let (again, report) = MaintenanceEngine::recover(&dir).unwrap();
        assert_eq!(report.checkpoint_seq, 0);
        assert_eq!(
            report.records_replayed,
            3 + 2,
            "one log across both recoveries"
        );
        assert_eq!(again.index().original_graph(), churn_prefix(5));
        verify_index(again.index()).unwrap();
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn replayed_records_count_toward_the_next_checkpoint() {
        let dir = temp_dir("continue-cadence");
        let cadence = 4;
        let mut engine = durable_engine(&dir, cadence);
        for w in &churn_windows()[..2] {
            engine.apply_batch(w).unwrap();
        }
        drop(engine);

        let (mut recovered, report) = MaintenanceEngine::recover(&dir).unwrap();
        let replayed = report.records_replayed;
        assert_eq!(replayed, 2);
        let newest = |dir: &std::path::Path| wal::list_checkpoints(dir)[0].0;
        // The checkpoint lands after cadence - replayed windows, not after
        // a whole cadence counted from the recovery.
        let due = cadence as usize - replayed;
        for (k, w) in churn_windows()[2..2 + due].iter().enumerate() {
            assert_eq!(newest(&dir), 0, "no checkpoint before window {k}");
            recovered.apply_batch(w).unwrap();
        }
        assert_eq!(newest(&dir), cadence as u64);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn a_log_ending_below_the_checkpoint_is_rotated_before_appending() {
        let dir = temp_dir("log-below-checkpoint");
        let wal_path = dir.join(wal::WAL_FILE);
        let mut engine = durable_engine(&dir, 1000);
        for w in &churn_windows()[..2] {
            engine.apply_batch(w).unwrap();
        }
        let saved = std::fs::read(&wal_path).unwrap();
        engine.apply_batch(&churn_windows()[2]).unwrap();
        assert_eq!(engine.checkpoint().unwrap(), Some(3));
        drop(engine);
        // The log's tail was lost (e.g. unsynced under FsyncPolicy::Never)
        // after the checkpoint covering it became durable.
        std::fs::write(&wal_path, saved).unwrap();

        let (mut recovered, report) = MaintenanceEngine::recover(&dir).unwrap();
        assert_eq!((report.checkpoint_seq, report.records_replayed), (3, 0));
        assert_eq!(recovered.index().original_graph(), churn_prefix(3));
        // Appended to the old log, this window would take seq 3 — at the
        // checkpoint — and the next recovery would drop it.
        recovered.apply_batch(&churn_windows()[3]).unwrap();
        drop(recovered);

        let (again, report) = MaintenanceEngine::recover(&dir).unwrap();
        assert_eq!(report.records_replayed, 1);
        assert_eq!(again.index().original_graph(), churn_prefix(4));
        verify_index(again.index()).unwrap();
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn an_unreadable_log_fails_recovery_and_changes_nothing() {
        let dir = temp_dir("unreadable-log");
        let wal_path = dir.join(wal::WAL_FILE);
        let mut engine = durable_engine(&dir, 1000);
        engine.apply_batch(&churn_windows()[0]).unwrap();
        drop(engine);
        // An OS read error (here EISDIR) is not a destroyed header: the
        // acknowledged window is still somewhere, so recovery must not
        // serve the checkpoint without it, nor replace the log.
        std::fs::remove_file(&wal_path).unwrap();
        std::fs::create_dir(&wal_path).unwrap();
        let before = wal::list_checkpoints(&dir);

        let err = match MaintenanceEngine::recover(&dir) {
            Err(e) => e,
            Ok(_) => panic!("recovery over an unreadable log must fail"),
        };
        assert!(matches!(err, CscError::Io { .. }), "want Io, got {err:?}");
        assert_eq!(wal::list_checkpoints(&dir), before);
        assert!(wal_path.is_dir(), "the log is left as it was");
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn bit_rotted_newest_checkpoint_refuses_loudly_when_the_log_moved_past() {
        let dir = temp_dir("bitrot-gap");
        let mut engine = durable_engine(&dir, 2);
        for w in churn_windows() {
            engine.apply_batch(&w).unwrap();
        }
        drop(engine);
        // Flip a byte in the newest checkpoint. The WAL was rotated at its
        // seq, so the older generation cannot cover the gap — recovery
        // must refuse rather than silently serve a stale state.
        let (_, newest) = wal::list_checkpoints(&dir).into_iter().next().unwrap();
        let mut bytes = std::fs::read(&newest).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&newest, &bytes).unwrap();

        let err = match MaintenanceEngine::recover(&dir) {
            Err(e) => e,
            Ok(_) => panic!("recovery over the gap must refuse"),
        };
        assert!(
            matches!(err, CscError::Corrupt { .. }),
            "want Corrupt, got {err:?}"
        );
        assert!(err.to_string().contains("unrecoverable"), "{err}");
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn recovery_falls_back_over_a_corrupt_generation_when_the_log_allows() {
        let dir = temp_dir("fallback");
        let mut engine = durable_engine(&dir, 1000);
        engine
            .apply_batch(&[GraphUpdate::InsertEdge(VertexId(0), VertexId(9))])
            .unwrap();
        engine.checkpoint().unwrap(); // generation at seq 1
        let want = engine.index().original_graph();
        drop(engine);
        // Corrupt the newest generation, and replace the (empty) rotated
        // log with nothing at all — e.g. lost along with the torn
        // checkpoint. The older generation plus no log is recoverable.
        let ckpts = wal::list_checkpoints(&dir);
        assert_eq!(ckpts.len(), 2);
        std::fs::write(&ckpts[0].1, b"garbage").unwrap();
        std::fs::remove_file(dir.join(wal::WAL_FILE)).unwrap();

        let (recovered, report) = MaintenanceEngine::recover(&dir).unwrap();
        assert_eq!(report.checkpoints_skipped, 1);
        assert_eq!(report.checkpoint_seq, 0);
        // The fallback generation predates the insert; with the log gone
        // the recovered state is the older checkpoint, minus that edge.
        let mut older = want;
        older.try_remove_edge(VertexId(0), VertexId(9)).unwrap();
        assert_eq!(recovered.index().original_graph(), older);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn recover_refuses_a_directory_without_checkpoints() {
        let dir = temp_dir("empty");
        let err = match MaintenanceEngine::recover(&dir) {
            Err(e) => e,
            Ok(_) => panic!("recovery of an empty directory must refuse"),
        };
        assert!(matches!(err, CscError::Corrupt { .. }));
        assert!(err.to_string().contains("no checkpoint"), "{err}");
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn queued_writes_survive_a_crash_through_the_wal() {
        let dir = temp_dir("queued");
        let mut engine = durable_engine(&dir, 1000);
        engine.begin_rejuvenation().unwrap();
        engine.step(2).unwrap();
        assert!(engine.is_rebuilding());
        // Logged *and* queued — applied to no index yet.
        let nv = engine.add_vertex().unwrap();
        engine.insert_edge(VertexId(0), nv).unwrap();
        engine.insert_edge(nv, VertexId(1)).unwrap();
        let mut want = engine.index().original_graph();
        let gv = want.add_vertex();
        want.try_add_edge(VertexId(0), gv).unwrap();
        want.try_add_edge(gv, VertexId(1)).unwrap();
        drop(engine); // crash mid-rejuvenation, queue lost

        let (recovered, report) = MaintenanceEngine::recover(&dir).unwrap();
        assert_eq!(report.updates_replayed, 3);
        assert_eq!(recovered.index().original_graph(), want);
        verify_index(recovered.index()).unwrap();
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn durable_recover_in_place_carries_lifetime_stats() {
        let dir = temp_dir("in-place");
        let mut engine = durable_engine(&dir, 1000);
        engine.insert_edge(VertexId(0), VertexId(9)).unwrap();
        let want = engine.index().original_graph();
        let report = engine.recover_in_place().unwrap();
        assert_eq!(report.updates_replayed, 1);
        assert_eq!(engine.maintenance_stats().recoveries, 1);
        assert_eq!(engine.index().original_graph(), want);
        assert!(engine.is_durable());
        assert_eq!(engine.status(), MaintenanceStatus::Serving);
        // Fully usable again, and the re-anchored log keeps working.
        engine.insert_edge(VertexId(9), VertexId(0)).unwrap();
        verify_index(engine.index()).unwrap();
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn saturated_counts_count_update_writes_and_survive_recovery() {
        // 2^26 shortest cycles through vertex 0: re-inserting an edge of
        // the first layer pair stores entries whose counts cap at 2^24 - 1.
        let dir = temp_dir("saturated");
        let g = csc_graph::generators::layered_cycle(&[2; 27]);
        let config = CscConfig::default()
            .with_fsync(crate::config::FsyncPolicy::Never)
            .with_checkpoint_every(1000);
        let mut engine = MaintenanceEngine::new(CscIndex::build(&g, config).unwrap());
        engine.attach_durability(&dir).unwrap();
        let (a, b) = (VertexId(2), VertexId(4));
        engine.remove_edge(a, b).unwrap();
        engine.checkpoint().unwrap();
        let removed = engine.index().stats().saturated_counts;
        let report = engine.insert_edge(a, b).unwrap().expect("applied now");
        let saturated = engine.index().stats().saturated_counts;
        assert_eq!(saturated - removed, report.saturated_counts);
        assert_eq!(report.saturated_counts, 6);

        // A cold recovery replays the insertion onto the checkpoint's
        // labels and stores the same entries; an in-place one keeps the
        // lifetime count.
        let (cold, _) = MaintenanceEngine::recover(&dir).unwrap();
        assert_eq!(cold.index().stats().saturated_counts, saturated - removed);
        drop(cold);
        engine.recover_in_place().unwrap();
        assert_eq!(engine.index().stats().saturated_counts, saturated);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn non_durable_recover_in_place_rebuilds_and_replays_the_queue() {
        let g = gnm(14, 36, 4);
        let mut engine = MaintenanceEngine::new(CscIndex::build(&g, CscConfig::default()).unwrap());
        engine.begin_rejuvenation().unwrap();
        engine.step(1).unwrap();
        let nv = engine.add_vertex().unwrap();
        engine.insert_edge(VertexId(0), nv).unwrap();
        let report = engine.recover_in_place().unwrap();
        assert_eq!(report.updates_replayed, 2);
        assert_eq!(engine.status(), MaintenanceStatus::Serving);
        assert_eq!(engine.maintenance_stats().recoveries, 1);
        assert_eq!(
            engine.index().original_vertex_count(),
            15,
            "queued AddVertex replayed"
        );
        assert_matches_fresh(&engine, "after in-place recovery");
        verify_index(engine.index()).unwrap();
    }

    #[test]
    fn attach_durability_is_refused_mid_rejuvenation() {
        let g = directed_cycle(8);
        let mut engine = MaintenanceEngine::new(CscIndex::build(&g, CscConfig::default()).unwrap());
        engine.begin_rejuvenation().unwrap();
        let dir = temp_dir("mid-rebuild");
        let err = engine.attach_durability(&dir).unwrap_err();
        assert!(matches!(err, CscError::Config(_)), "{err:?}");
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn attach_to_a_dirty_directory_starts_above_leftover_generations() {
        let dir = temp_dir("dirty-attach");
        let mut first = durable_engine(&dir, 1000);
        first
            .apply_batch(&[GraphUpdate::InsertEdge(VertexId(0), VertexId(9))])
            .unwrap();
        first.checkpoint().unwrap(); // leaves checkpoint seq 1
        drop(first);

        let g = directed_cycle(5);
        let mut second = MaintenanceEngine::new(CscIndex::build(&g, CscConfig::default()).unwrap());
        let seq = second.attach_durability(&dir).unwrap();
        assert_eq!(seq, 2, "starts above the leftover generation");
        drop(second);
        let (recovered, _) = MaintenanceEngine::recover(&dir).unwrap();
        assert_eq!(
            recovered.index().original_vertex_count(),
            5,
            "the new engine's state wins, never the stale leftover"
        );
        std::fs::remove_dir_all(dir).unwrap();
    }
}
