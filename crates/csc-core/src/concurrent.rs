//! A thread-safe wrapper for live monitoring workloads, built on snapshot
//! publication.
//!
//! The motivating applications (fraud screening, P2P routing) query
//! continuously while a single writer applies the edge stream. The naive
//! design — one `RwLock` around the whole index, shared read locks per
//! query — makes every reader contend with the writer: one long deletion
//! stalls all query traffic.
//!
//! [`ConcurrentIndex`] instead splits the two roles:
//!
//! * **Writers** hold the index lock, apply `insert_edge` / `remove_edge`,
//!   and periodically *publish* an immutable [`SnapshotIndex`] (which
//!   seals the label arena's open segment and copies the span table,
//!   amortized by
//!   [`CscConfig::snapshot_every`](crate::CscConfig::snapshot_every)).
//! * **Readers** grab the current `Arc<SnapshotIndex>` — the only shared
//!   state they touch is the publication slot, whose critical section is a
//!   single `Arc` clone / pointer swap, never held across label
//!   maintenance — and then query it entirely lock-free. A reader that
//!   keeps its `Arc` issues any number of queries against one consistent
//!   state with **zero** synchronization, no matter what the writer is
//!   doing.
//!
//! Snapshot reads may lag the writer by up to `snapshot_every - 1`
//! updates; use [`query_fresh`](ConcurrentIndex::query_fresh) or
//! [`with_read`](ConcurrentIndex::with_read) when read-your-writes
//! semantics are required (those take the index read lock like the old
//! design did).
//!
//! Publication copies no label list: the label store writes each list it
//! changes copy-on-write into an open segment, and a republish seals that
//! segment and shares every segment with the new snapshot
//! ([`MaintenanceEngine::publish_from`]). A snapshot a reader still holds
//! shares its memory with the new one and with the store. Batches
//! ([`apply_batch`](ConcurrentIndex::apply_batch)) publish at most once
//! per call, no matter how many updates they carry.
//!
//! The writer side is a thin facade over the
//! [`MaintenanceEngine`] state machine, which
//! also owns **rejuvenation**: a chunked online rebuild (fresh ordering
//! over the current graph) with a write-ahead replay queue, swapped in as
//! a single atomic snapshot publication while readers keep serving the
//! old `Arc` unblocked. See [`health`](ConcurrentIndex::health),
//! [`rejuvenate`](ConcurrentIndex::rejuvenate), and
//! [`maintain`](ConcurrentIndex::maintain).

use crate::batch::{BatchReport, GraphUpdate};
use crate::error::CscError;
use crate::guard::Deadline;
use crate::health::IndexHealth;
use crate::index::CscIndex;
use crate::maintain::{MaintenanceEngine, MaintenanceStatus, RecoveryReport, RejuvenationReport};
use crate::snapshot::SnapshotIndex;
use crate::stats::{SnapshotStats, UpdateReport};
use csc_graph::VertexId;
use csc_labeling::CycleCount;
use parking_lot::RwLock;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

/// A read-mostly, single-writer handle around a [`CscIndex`] that serves
/// queries from lock-free snapshots.
///
/// ```
/// use csc_core::{ConcurrentIndex, CscConfig, CscIndex, GraphUpdate};
/// use csc_graph::{DiGraph, VertexId};
/// use std::sync::Arc;
///
/// let g = DiGraph::from_edges(4, vec![(0, 1), (1, 2), (2, 0)]);
/// let config = CscConfig::default().with_snapshot_every(1);
/// let shared = Arc::new(ConcurrentIndex::new(
///     CscIndex::build(&g, config).unwrap(),
/// ));
///
/// // Readers clone the published snapshot and query it lock-free; any
/// // number of queries see one consistent state.
/// let snapshot = shared.snapshot();
/// assert_eq!(snapshot.query(VertexId(0)).unwrap().length, 3);
///
/// // The writer streams updates — whole batches publish exactly once.
/// shared
///     .apply_batch(&[
///         GraphUpdate::InsertEdge(VertexId(1), VertexId(0)),
///         GraphUpdate::InsertEdge(VertexId(0), VertexId(3)),
///         GraphUpdate::InsertEdge(VertexId(3), VertexId(0)),
///     ])
///     .unwrap();
/// assert_eq!(shared.query(VertexId(0)).unwrap().length, 2);
/// assert_eq!(snapshot.query(VertexId(0)).unwrap().length, 3, "held Arc pinned");
/// ```
pub struct ConcurrentIndex {
    /// Writer state: the maintenance engine owning the live index (see
    /// [`MaintenanceEngine`] — the state machine behind every write path,
    /// including rejuvenation).
    inner: RwLock<MaintenanceEngine>,
    /// Publication slot. Critical sections are O(1) (`Arc` clone / swap),
    /// so readers never wait on label maintenance happening under `inner`.
    snapshot: RwLock<Arc<SnapshotIndex>>,
    /// Successful updates since the last publication.
    pending: AtomicUsize,
    /// Snapshots published (including the initial freeze).
    published: AtomicUsize,
    /// `CscConfig::snapshot_every` captured at construction.
    refresh_every: usize,
    /// Set for the duration of [`recover`](Self::recover), so
    /// [`status`](Self::status) can report `Recovering` without waiting
    /// on the engine lock the recovery holds.
    recovering: AtomicBool,
}

impl ConcurrentIndex {
    /// Wraps an index, freezing and publishing its initial snapshot.
    pub fn new(index: CscIndex) -> Self {
        Self::from_engine(MaintenanceEngine::new(index))
    }

    /// Reopens an index from a durability directory (newest readable
    /// checkpoint + WAL replay — see [`MaintenanceEngine::recover`]) and
    /// publishes its initial snapshot.
    pub fn open(dir: impl AsRef<Path>) -> Result<(Self, RecoveryReport), CscError> {
        let (engine, report) = MaintenanceEngine::recover(dir)?;
        Ok((Self::from_engine(engine), report))
    }

    /// Publishes `engine`'s initial snapshot and wraps both. The snapshot
    /// baselines the dirty tracking: it covers everything, so only
    /// post-construction mutations matter.
    fn from_engine(mut engine: MaintenanceEngine) -> Self {
        let snapshot = Arc::new(engine.publish_from(None));
        ConcurrentIndex {
            refresh_every: engine.index().config().snapshot_every,
            inner: RwLock::new(engine),
            snapshot: RwLock::new(snapshot),
            pending: AtomicUsize::new(0),
            published: AtomicUsize::new(1),
            recovering: AtomicBool::new(false),
        }
    }

    /// Attaches a durability directory (initial checkpoint + fresh WAL)
    /// under the write lock; see
    /// [`MaintenanceEngine::attach_durability`].
    pub fn attach_durability(&self, dir: impl AsRef<Path>) -> Result<u64, CscError> {
        self.inner.write().attach_durability(dir)
    }

    /// Forces a checkpoint now (when durability is attached and no
    /// rejuvenation is in flight); see [`MaintenanceEngine::checkpoint`].
    pub fn checkpoint(&self) -> Result<Option<u64>, CscError> {
        self.inner.write().checkpoint()
    }

    /// Where the maintenance state machine is, including the degradation
    /// lifecycle: `Degraded` after a write-path panic, `Recovering`
    /// while [`recover`](Self::recover) runs.
    pub fn status(&self) -> MaintenanceStatus {
        if self.recovering.load(Ordering::Relaxed) {
            return MaintenanceStatus::Recovering;
        }
        self.inner.read().status()
    }

    /// Recovers a degraded writer in place (checkpoint + WAL replay with
    /// durability attached, graph rebuild + queue replay without) and
    /// republishes. Readers keep the last published snapshot for the
    /// whole duration — [`status`](Self::status) reports `Recovering`,
    /// and the swap to the recovered state is one atomic publication.
    pub fn recover(&self) -> Result<RecoveryReport, CscError> {
        self.recovering.store(true, Ordering::SeqCst);
        let result = (|| {
            let mut guard = self.inner.write();
            let report = guard.recover_in_place()?;
            self.publish(&mut guard);
            Ok(report)
        })();
        self.recovering.store(false, Ordering::SeqCst);
        result
    }

    /// The currently published snapshot. Cheap (`Arc` clone); hold on to
    /// the result to issue many queries against one consistent state with
    /// no further synchronization.
    pub fn snapshot(&self) -> Arc<SnapshotIndex> {
        self.snapshot.read().clone()
    }

    /// `SCCnt(v)` on the published snapshot — the lock-free serving path.
    ///
    /// May lag the writer by up to `snapshot_every - 1` updates; see
    /// [`query_fresh`](Self::query_fresh) for read-your-writes.
    pub fn query(&self, v: VertexId) -> Option<CycleCount> {
        self.snapshot.read().query(v)
    }

    /// `SCCnt(v)` against the live index under its read lock. Exact, but
    /// contends with the writer — reserve for read-your-writes needs.
    /// During a rejuvenation window the live index lags by the queued
    /// updates (they apply at replay).
    pub fn query_fresh(&self, v: VertexId) -> Option<CycleCount> {
        self.inner.read().index().query(v)
    }

    /// [`query`](Self::query) under a wall-clock deadline (see
    /// [`SnapshotIndex::query_deadline`]). Lock-free like `query`; the
    /// deadline only bounds the label intersection itself.
    pub fn query_deadline(
        &self,
        v: VertexId,
        deadline: Deadline,
    ) -> Result<Option<CycleCount>, CscError> {
        self.snapshot.read().query_deadline(v, deadline)
    }

    /// Evaluates `f` over the live index under its read lock (for batch
    /// reads that need the very latest consistent state).
    pub fn with_read<R>(&self, f: impl FnOnce(&CscIndex) -> R) -> R {
        f(self.inner.read().index())
    }

    /// Inserts an edge under the write lock, republishing the snapshot
    /// when the refresh policy says so.
    ///
    /// During a rejuvenation window the write is queued (write-ahead) and
    /// an empty report is returned; validity is resolved at replay with
    /// the skip-invalid batch semantics.
    pub fn insert_edge(&self, a: VertexId, b: VertexId) -> Result<UpdateReport, CscError> {
        let op = [GraphUpdate::InsertEdge(a, b)];
        self.write(&op, true, Deadline::NONE, |_, report| report.repair)
    }

    /// Removes an edge under the write lock, republishing the snapshot
    /// when the refresh policy says so. Queued (with an empty report)
    /// during a rejuvenation window, like
    /// [`insert_edge`](Self::insert_edge).
    pub fn remove_edge(&self, a: VertexId, b: VertexId) -> Result<UpdateReport, CscError> {
        let op = [GraphUpdate::RemoveEdge(a, b)];
        self.write(&op, true, Deadline::NONE, |_, report| report.repair)
    }

    /// Applies a whole update batch under one write-lock acquisition (see
    /// [`CscIndex::apply_batch`]) and republishes the snapshot *at most
    /// once* — when the batch's applied updates push the pending count
    /// over [`snapshot_every`](crate::CscConfig::snapshot_every).
    ///
    /// This is the preferred write path for streaming workloads: readers
    /// see whole batches atomically (never a half-applied window), and
    /// the per-update publication cost shrinks with the batch size.
    /// During a rejuvenation window the whole batch is queued
    /// ([`BatchReport::queued`]).
    pub fn apply_batch(&self, updates: &[GraphUpdate]) -> Result<BatchReport, CscError> {
        self.write(updates, false, Deadline::NONE, |_, report| report)
    }

    /// [`apply_batch`](Self::apply_batch) under a wall-clock deadline.
    ///
    /// The deadline is checked before contending for the write lock and
    /// again at engine admission once the lock is held — so a batch that
    /// spent its whole budget queueing behind other writers is refused
    /// with no observable effect (in particular, never WAL-logged). Once
    /// admitted the batch runs to completion; see
    /// [`MaintenanceEngine::apply_batch_deadline`](crate::MaintenanceEngine::apply_batch_deadline).
    pub fn apply_batch_deadline(
        &self,
        updates: &[GraphUpdate],
        deadline: Deadline,
    ) -> Result<BatchReport, CscError> {
        self.write(updates, false, deadline, |_, report| report)
    }

    /// Appends a fresh vertex under the write lock. Counts as an update
    /// toward the refresh policy; until the next publication, snapshot
    /// readers simply answer `None` for the not-yet-covered vertex.
    pub fn add_vertex(&self) -> Result<VertexId, CscError> {
        let op = [GraphUpdate::AddVertex];
        self.write(&op, false, Deadline::NONE, |engine, _| {
            engine.newest_vertex()
        })
    }

    /// The one write routine behind every facade write: lock → the
    /// engine's write routine → [`after_updates`](Self::after_updates)
    /// (the deadline is also checked before contending for the lock).
    /// `finish` shapes the result under the same lock hold.
    fn write<R>(
        &self,
        window: &[GraphUpdate],
        strict: bool,
        deadline: Deadline,
        finish: impl FnOnce(&MaintenanceEngine, BatchReport) -> R,
    ) -> Result<R, CscError> {
        deadline.admit()?;
        let mut guard = self.inner.write();
        let report = guard.write(window, strict, deadline)?;
        let applied = report.applied_updates();
        let out = finish(&guard, report);
        self.after_updates(&mut guard, applied);
        Ok(out)
    }

    /// Retargets the ordering strategy under the write lock (see
    /// [`CscIndex::set_order`]): the next rejuvenation migrates the
    /// labeling to the new order; queries keep serving the current labels
    /// until that swap.
    pub fn set_order(&self, order: csc_graph::OrderingStrategy) -> Result<(), CscError> {
        self.inner.write().set_order(order)
    }

    /// Freezes and publishes a snapshot of the current state now,
    /// regardless of the refresh policy.
    pub fn refresh(&self) {
        // The write lock: publication seals the label store's open
        // segment.
        let mut guard = self.inner.write();
        self.publish(&mut guard);
    }

    /// Publication statistics: how many snapshots have been published and
    /// how stale the served one is.
    pub fn snapshot_stats(&self) -> SnapshotStats {
        SnapshotStats {
            published: self.published.load(Ordering::Relaxed),
            pending_updates: self.pending.load(Ordering::Relaxed),
            snapshot_updates_applied: self.snapshot.read().updates_applied(),
        }
    }

    /// The live drift report: label growth vs. the post-build baseline,
    /// the served arena's dead space, churned (bottom-ranked) vertices,
    /// and the maintenance-plane state (replay queue depth, rebuild flag).
    pub fn health(&self) -> IndexHealth {
        let health = self.inner.read().health();
        IndexHealth {
            dead_fraction: self.snapshot.read().labels().dead_fraction(),
            ..health
        }
    }

    /// Maintenance-plane lifetime counters (rejuvenations started /
    /// completed / failed, updates replayed, cooperative steps).
    pub fn maintenance_stats(&self) -> crate::maintain::MaintenanceStats {
        *self.inner.read().maintenance_stats()
    }

    /// Starts a rejuvenation (online rebuild) without driving it: the
    /// rebuild advances cooperatively — a bounded chunk per subsequent
    /// write, or explicitly via [`maintain`](Self::maintain). Readers are
    /// never blocked; writes queue into the write-ahead replay log until
    /// the swap. No-op if a rebuild is already in flight.
    pub fn begin_rejuvenation(&self) -> Result<(), CscError> {
        self.inner.write().begin_rejuvenation()
    }

    /// Advances an in-flight rejuvenation by up to `rank_budget` hub ranks
    /// (or one replay chunk), publishing the rejuvenated snapshot in one
    /// atomic swap when it completes. Returns the maintenance state, so
    /// callers can drive with `while maintain(..)? != Serving {}` between
    /// their own work. A no-op returning `Serving` when nothing is in
    /// flight.
    pub fn maintain(&self, rank_budget: usize) -> Result<MaintenanceStatus, CscError> {
        let mut guard = self.inner.write();
        let was_rebuilding = guard.is_rebuilding();
        let status = guard.step(rank_budget)?;
        if was_rebuilding && status == MaintenanceStatus::Serving {
            self.publish(&mut guard);
        }
        Ok(status)
    }

    /// Rejuvenates synchronously: rebuild with a freshly computed
    /// ordering, replay the write-ahead queue, swap, and publish — all
    /// under one write-lock hold. Snapshot readers keep serving the old
    /// `Arc` unblocked throughout; `query_fresh` / new writes block for
    /// the duration (use [`begin_rejuvenation`](Self::begin_rejuvenation)
    /// + [`maintain`](Self::maintain) to interleave them instead).
    pub fn rejuvenate(&self) -> Result<RejuvenationReport, CscError> {
        let mut guard = self.inner.write();
        let report = guard.rejuvenate()?;
        self.publish(&mut guard);
        Ok(report)
    }

    /// Unwraps back into the plain index. An in-flight rejuvenation is
    /// abandoned with its queue replayed (see
    /// [`MaintenanceEngine::into_index`]).
    pub fn into_inner(self) -> CscIndex {
        self.inner.into_inner().into_index()
    }

    fn after_updates(&self, engine: &mut MaintenanceEngine, applied: usize) {
        if engine.is_degraded() {
            // Nothing to advance or publish from a degraded writer; the
            // published snapshot stays pinned until recover().
            return;
        }
        // Cooperative maintenance first: an in-flight rejuvenation
        // advances a bounded chunk on the writer's dime.
        if engine.is_rebuilding() {
            match engine.step(crate::maintain::DEFAULT_STEP_RANKS) {
                // Completion swap: publish the rejuvenated index.
                Ok(MaintenanceStatus::Serving) => self.publish(engine),
                // Still rebuilding / replaying: publication resumes at the
                // swap.
                Ok(_) => {}
                // Failed rebuild: the engine abandoned it and replayed the
                // write-ahead queue onto the old (still valid) index —
                // publish so those writes reach snapshot readers instead
                // of lingering unpublished. The ride-along write itself
                // succeeded; the failure is recorded in
                // `maintenance_stats().rejuvenations_failed`.
                Err(_) => self.publish(engine),
            }
            return;
        }
        let pending = self.pending.fetch_add(applied, Ordering::Relaxed) + applied;
        if applied > 0 && self.refresh_every > 0 && pending >= self.refresh_every {
            self.publish(engine);
        }
    }

    /// Publishes through the engine ([`MaintenanceEngine::publish_from`]):
    /// seals the label arena's open segment, compacting the arena first
    /// when its policy says so, under the write lock.
    fn publish(&self, engine: &mut MaintenanceEngine) {
        if engine.is_degraded() {
            // Freezing a poisoned index would publish torn labels; the
            // last good snapshot keeps serving instead.
            return;
        }
        let prev = self.snapshot.read().clone();
        let fresh = Arc::new(engine.publish_from(Some(&prev)));
        *self.snapshot.write() = fresh;
        self.pending.store(0, Ordering::Relaxed);
        self.published.fetch_add(1, Ordering::Relaxed);
    }
}

impl From<CscIndex> for ConcurrentIndex {
    fn from(index: CscIndex) -> Self {
        ConcurrentIndex::new(index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CscConfig, FsyncPolicy};
    use csc_graph::generators::{directed_cycle, gnm};
    use csc_graph::traversal::shortest_cycle_oracle;
    use std::sync::Arc;

    #[test]
    fn recovery_never_turns_the_lifetime_counters_back() {
        // Snapshots are ordered by `updates_applied`, and `rejuvenations`
        // counts a lifetime's passes: neither may fall when a recovery
        // swaps in a new index, from checkpoint + log or from the live
        // graph. The cadence checkpoints the last window, so the log has
        // nothing to replay, and the rejuvenation comes after it.
        for durable in [false, true] {
            let g = gnm(20, 60, 1);
            let config = CscConfig::default()
                .with_fsync(FsyncPolicy::Never)
                .with_checkpoint_every(4);
            let shared = ConcurrentIndex::new(CscIndex::build(&g, config).unwrap());
            let dir = std::env::temp_dir().join(format!(
                "csc-concurrent-test-{}-counters",
                std::process::id()
            ));
            if durable {
                std::fs::create_dir_all(&dir).unwrap();
                shared.attach_durability(&dir).unwrap();
            }
            for &(a, b) in g.edge_vec().iter().take(20) {
                shared.remove_edge(VertexId(a), VertexId(b)).unwrap();
            }
            shared.rejuvenate().unwrap();
            let counters = || {
                (
                    shared.snapshot().updates_applied(),
                    shared.health().rejuvenations,
                )
            };
            assert_eq!(counters(), (20, 1), "durable: {durable}");
            shared.recover().unwrap();
            assert_eq!(counters(), (20, 1), "durable: {durable}");
            let (a, b) = g.edge_vec()[20];
            shared.remove_edge(VertexId(a), VertexId(b)).unwrap();
            shared.refresh();
            assert_eq!(counters(), (21, 1), "durable: {durable}");
            if durable {
                std::fs::remove_dir_all(&dir).unwrap();
            }
        }
    }

    #[test]
    fn readers_and_writer_interleave() {
        let g = directed_cycle(8);
        let idx = CscIndex::build(&g, CscConfig::default()).unwrap();
        let shared = Arc::new(ConcurrentIndex::new(idx));

        let readers: Vec<_> = (0..4)
            .map(|t| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || {
                    let mut answered = 0usize;
                    for i in 0..200u32 {
                        let v = VertexId((i + t) % 8);
                        // Either the 8-cycle or the post-chord state: both
                        // are valid snapshots.
                        if let Some(c) = shared.query(v) {
                            assert!(c.length == 8 || c.length <= 5, "length {}", c.length);
                            answered += 1;
                        }
                    }
                    answered
                })
            })
            .collect();

        // Writer: add a chord, halving some cycle lengths.
        shared.insert_edge(VertexId(4), VertexId(0)).unwrap();

        for r in readers {
            assert!(r.join().unwrap() > 0);
        }

        // Final state matches the oracle — via the exact read path, and
        // via the snapshot once the pending updates are published.
        let mut g2 = directed_cycle(8);
        g2.try_add_edge(VertexId(4), VertexId(0)).unwrap();
        shared.with_read(|idx| {
            for v in g2.vertices() {
                assert_eq!(
                    idx.query(v).map(|c| (c.length, c.count)),
                    shortest_cycle_oracle(&g2, v)
                );
            }
        });
        shared.refresh();
        let snap = shared.snapshot();
        for v in g2.vertices() {
            assert_eq!(
                snap.query(v).map(|c| (c.length, c.count)),
                shortest_cycle_oracle(&g2, v),
                "snapshot at {v}"
            );
        }
        let back = Arc::try_unwrap(shared).ok().unwrap().into_inner();
        assert_eq!(back.original_edge_count(), 9);
    }

    #[test]
    fn add_vertex_through_wrapper() {
        let g = directed_cycle(3);
        let shared: ConcurrentIndex = CscIndex::build(&g, CscConfig::default()).unwrap().into();
        let nv = shared.add_vertex().unwrap();
        shared.insert_edge(VertexId(0), nv).unwrap();
        // Whether or not these two updates crossed the refresh interval,
        // an isolated / not-yet-covered vertex answers None.
        assert_eq!(shared.query(nv), None);
        assert_eq!(shared.query_fresh(nv), None);
    }

    #[test]
    fn add_vertex_respects_manual_publication() {
        let g = directed_cycle(3);
        let config = CscConfig::default().with_snapshot_every(0);
        let shared = ConcurrentIndex::new(CscIndex::build(&g, config).unwrap());
        shared.add_vertex().unwrap();
        let stats = shared.snapshot_stats();
        assert_eq!(
            (stats.published, stats.pending_updates),
            (1, 1),
            "snapshot_every = 0 must never auto-publish, even for add_vertex"
        );
        assert_eq!(shared.snapshot().original_vertex_count(), 3, "pinned");
        shared.refresh();
        assert_eq!(shared.snapshot().original_vertex_count(), 4);
    }

    #[test]
    fn refresh_policy_amortizes_publication() {
        let g = directed_cycle(8);
        let config = CscConfig::default().with_snapshot_every(3);
        let shared = ConcurrentIndex::new(CscIndex::build(&g, config).unwrap());
        assert_eq!(shared.snapshot_stats().published, 1);

        // Two updates: below the interval, snapshot still the original.
        shared.insert_edge(VertexId(4), VertexId(0)).unwrap();
        shared.insert_edge(VertexId(6), VertexId(0)).unwrap();
        let stats = shared.snapshot_stats();
        assert_eq!((stats.published, stats.pending_updates), (1, 2));
        assert_eq!(shared.query(VertexId(0)).unwrap().length, 8, "stale read");
        assert_eq!(
            shared.query_fresh(VertexId(0)).unwrap().length,
            5,
            "fresh read sees the 0..4 chord"
        );

        // Third update crosses the interval: auto-republish.
        shared.insert_edge(VertexId(2), VertexId(0)).unwrap();
        let stats = shared.snapshot_stats();
        assert_eq!((stats.published, stats.pending_updates), (2, 0));
        assert_eq!(stats.snapshot_updates_applied, 3);
        assert_eq!(shared.query(VertexId(0)).unwrap().length, 3);
    }

    #[test]
    fn manual_refresh_and_disabled_auto() {
        let g = directed_cycle(5);
        let config = CscConfig::default().with_snapshot_every(0);
        let shared = ConcurrentIndex::new(CscIndex::build(&g, config).unwrap());
        shared.insert_edge(VertexId(2), VertexId(0)).unwrap();
        shared.insert_edge(VertexId(3), VertexId(0)).unwrap();
        assert_eq!(shared.query(VertexId(0)).unwrap().length, 5, "never auto");
        shared.refresh();
        assert_eq!(shared.query(VertexId(0)).unwrap().length, 3);
        assert_eq!(shared.snapshot_stats().published, 2);
    }

    #[test]
    fn held_snapshot_stays_consistent_across_updates() {
        let g = directed_cycle(6);
        let config = CscConfig::default().with_snapshot_every(1);
        let shared = ConcurrentIndex::new(CscIndex::build(&g, config).unwrap());
        let held = shared.snapshot();
        shared.insert_edge(VertexId(3), VertexId(0)).unwrap();
        // The held Arc still answers from its freeze point...
        assert_eq!(held.query(VertexId(0)).unwrap().length, 6);
        // ...while new snapshot grabs see the update.
        assert_eq!(shared.snapshot().query(VertexId(0)).unwrap().length, 4);
    }

    #[test]
    fn batch_publishes_at_most_once() {
        let g = directed_cycle(8);
        let config = CscConfig::default().with_snapshot_every(1);
        let shared = ConcurrentIndex::new(CscIndex::build(&g, config).unwrap());
        let report = shared
            .apply_batch(&[
                GraphUpdate::InsertEdge(VertexId(2), VertexId(0)),
                GraphUpdate::InsertEdge(VertexId(4), VertexId(0)),
                GraphUpdate::InsertEdge(VertexId(6), VertexId(0)),
            ])
            .unwrap();
        assert_eq!(report.applied_updates(), 3);
        let stats = shared.snapshot_stats();
        assert_eq!(
            (stats.published, stats.pending_updates),
            (2, 0),
            "three updates at snapshot_every = 1: still one batch publish"
        );
        assert_eq!(shared.query(VertexId(0)).unwrap().length, 3);
    }

    #[test]
    fn batch_updates_honor_snapshot_every_in_update_units() {
        let g = directed_cycle(10);
        let config = CscConfig::default().with_snapshot_every(8);
        let shared = ConcurrentIndex::new(CscIndex::build(&g, config).unwrap());

        // 5 applied updates: below the interval, no publication.
        let five: Vec<GraphUpdate> = (2..7)
            .map(|k| GraphUpdate::InsertEdge(VertexId(k), VertexId(0)))
            .collect();
        shared.apply_batch(&five).unwrap();
        let stats = shared.snapshot_stats();
        assert_eq!((stats.published, stats.pending_updates), (1, 5));
        assert_eq!(shared.query(VertexId(0)).unwrap().length, 10, "stale");

        // A fully-cancelled batch adds no pending weight.
        shared
            .apply_batch(&[
                GraphUpdate::InsertEdge(VertexId(8), VertexId(0)),
                GraphUpdate::RemoveEdge(VertexId(8), VertexId(0)),
            ])
            .unwrap();
        assert_eq!(shared.snapshot_stats().pending_updates, 5);

        // 3 more cross the 8-update interval: publish.
        let three = [
            GraphUpdate::InsertEdge(VertexId(7), VertexId(0)),
            GraphUpdate::InsertEdge(VertexId(8), VertexId(0)),
            GraphUpdate::InsertEdge(VertexId(1), VertexId(0)),
        ];
        shared.apply_batch(&three).unwrap();
        let stats = shared.snapshot_stats();
        assert_eq!((stats.published, stats.pending_updates), (2, 0));
        assert_eq!(
            shared.query(VertexId(0)).unwrap().length,
            2,
            "snapshot sees the 0 <-> 1 two-cycle"
        );
    }

    #[test]
    fn incremental_publication_serves_exact_results() {
        // Stream single updates and batches through every publication
        // path; after each publish the served snapshot must answer like a
        // from-scratch freeze of the live index.
        let g = csc_graph::generators::gnm(24, 70, 13);
        let config = CscConfig::default().with_snapshot_every(2);
        let shared = ConcurrentIndex::new(CscIndex::build(&g, config).unwrap());
        let edges: Vec<_> = g.edge_vec().into_iter().step_by(6).take(8).collect();
        for (k, &(a, b)) in edges.iter().enumerate() {
            if k % 2 == 0 {
                shared.remove_edge(VertexId(a), VertexId(b)).unwrap();
            } else {
                shared
                    .apply_batch(&[
                        GraphUpdate::RemoveEdge(VertexId(a), VertexId(b)),
                        GraphUpdate::InsertEdge(VertexId(a), VertexId(b)),
                        GraphUpdate::RemoveEdge(VertexId(a), VertexId(b)),
                    ])
                    .unwrap();
            }
            shared.refresh();
            let snap = shared.snapshot();
            shared.with_read(|idx| {
                for x in 0..idx.original_vertex_count() as u32 {
                    let x = VertexId(x);
                    assert_eq!(snap.query(x), idx.query(x), "step {k}: SCCnt({x})");
                }
                assert_eq!(snap.total_entries(), idx.total_entries());
            });
        }
    }

    #[test]
    fn cooperative_rejuvenation_queues_writes_and_swaps_once() {
        // 200 vertices = 400 bipartite ranks: three ride-along chunks of
        // DEFAULT_STEP_RANKS cannot finish the rebuild, so the queueing
        // window is observable deterministically.
        let g = csc_graph::generators::gnm(200, 600, 17);
        let config = CscConfig::default().with_snapshot_every(1);
        let shared = ConcurrentIndex::new(CscIndex::build(&g, config).unwrap());
        let published_before = shared.snapshot_stats().published;
        let held = shared.snapshot();

        shared.begin_rejuvenation().unwrap();
        // Mid-rebuild writes ride along: each advances the rebuild a chunk
        // and lands in the replay queue, never on the old labels.
        let nv = shared.add_vertex().unwrap();
        shared.insert_edge(VertexId(0), nv).unwrap();
        shared.insert_edge(nv, VertexId(1)).unwrap();
        let h = shared.health();
        assert!(h.rebuilding);
        assert_eq!(h.replay_queued, 3);

        // Drive to completion; the swap publishes exactly once.
        while shared.maintain(usize::MAX).unwrap() != crate::MaintenanceStatus::Serving {}
        let h = shared.health();
        assert!(!h.rebuilding);
        assert_eq!((h.replay_queued, h.rejuvenations), (0, 1));

        // Readers: the held Arc kept answering the old state the whole
        // time; fresh grabs see the rejuvenated index with replay applied.
        assert_eq!(held.query(nv), None);
        let snap = shared.snapshot();
        shared.with_read(|idx| {
            for v in 0..idx.original_vertex_count() as u32 {
                assert_eq!(snap.query(VertexId(v)), idx.query(VertexId(v)));
            }
        });
        let g2 = shared.with_read(|idx| idx.original_graph());
        for v in g2.vertices() {
            assert_eq!(
                snap.query(v).map(|c| (c.length, c.count)),
                shortest_cycle_oracle(&g2, v),
                "SCCnt({v})"
            );
        }
        assert!(shared.snapshot_stats().published > published_before);
    }

    #[test]
    fn synchronous_rejuvenate_publishes_atomically() {
        let g = directed_cycle(6);
        let config = CscConfig::default().with_snapshot_every(0);
        let shared = ConcurrentIndex::new(CscIndex::build(&g, config).unwrap());
        shared.insert_edge(VertexId(3), VertexId(0)).unwrap();
        assert_eq!(
            shared.query(VertexId(0)).unwrap().length,
            6,
            "manual mode: stale"
        );
        let report = shared.rejuvenate().unwrap();
        assert_eq!(report.replayed, 0);
        // Rejuvenation *must* publish even under snapshot_every = 0: the
        // old arena is retired with the old label store.
        assert_eq!(shared.query(VertexId(0)).unwrap().length, 4);
        assert_eq!(shared.snapshot_stats().published, 2);
    }

    #[test]
    fn failed_updates_do_not_count_toward_refresh() {
        let g = directed_cycle(4);
        let config = CscConfig::default().with_snapshot_every(2);
        let shared = ConcurrentIndex::new(CscIndex::build(&g, config).unwrap());
        assert!(shared.insert_edge(VertexId(0), VertexId(0)).is_err());
        assert!(shared.insert_edge(VertexId(0), VertexId(1)).is_err());
        let stats = shared.snapshot_stats();
        assert_eq!((stats.published, stats.pending_updates), (1, 0));
    }
}
