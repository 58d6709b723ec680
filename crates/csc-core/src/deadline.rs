//! Deadline-bounded query entry points on [`CscIndex`] and
//! [`SnapshotIndex`].
//!
//! Every variant here mirrors its unbounded twin exactly — same
//! arguments, same panics, same answers — wrapped in a `Result` whose
//! error is [`CscError::DeadlineExceeded`]. Each whole-graph or batch
//! sweep (`girth`, `top_k_by_cycle_count`, and the snapshot's
//! `query_batch` and `query_all`) has one implementation, here: its
//! unbounded twin runs it under [`Deadline::NONE`], whose every check is
//! one branch. The contract is:
//!
//! * **Admission**: an already-expired [`Deadline`] is refused before any
//!   work happens. A point query is one label intersection, so after
//!   admission it runs to the end.
//! * **A clock check every [`CHECK_EVERY`] vertices**: a sweep calls
//!   [`Deadline::admit`] again before every 16th vertex, between
//!   intersections, never inside one. A bounded sweep therefore
//!   overshoots its deadline by at most 16 intersections per worker, and
//!   reads the clock once per 16 queries instead of at each.
//! * **No observable effect on abort**: queries are read-only, so an
//!   aborted sweep simply returns the error; the index and any snapshot
//!   stay fully reusable.
//!
//! A snapshot sweep runs on the pool, and every worker checks the one
//! shared `Deadline`. The pool runs every item of a parallel iterator,
//! so an item's error cannot stop the others. The first failed check
//! raises a flag instead: every later vertex sees it and skips its
//! intersection, and the sweep returns the error once the pool is done.
//!
//! The deadline-bounded **write** paths live next to their unbounded
//! twins: [`CscIndex::apply_batch_deadline`] (admission + a checkpoint
//! after the read-only planning pass),
//! [`MaintenanceEngine::apply_batch_deadline`](crate::MaintenanceEngine::apply_batch_deadline)
//! and [`MaintenanceEngine::step_deadline`](crate::MaintenanceEngine::step_deadline)
//! (admission-only: a WAL-logged window must run to completion), and
//! [`ConcurrentIndex`](crate::ConcurrentIndex) facade variants.

use crate::analytics::{girth_fold, rank_by_cycle_count, VertexCycles};
use crate::error::CscError;
use crate::guard::Deadline;
use crate::index::CscIndex;
use crate::snapshot::SnapshotIndex;
use csc_graph::VertexId;
use csc_labeling::CycleCount;
use rayon::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};

/// Why an unbounded twin cannot fail: [`Deadline::NONE`] never passes.
pub(crate) const UNBOUNDED: &str = "a sweep without a deadline never exceeds it";

/// Vertices a read sweep evaluates per clock check.
const CHECK_EVERY: usize = 16;

/// The check a read sweep runs before its `i`th vertex: a clock check
/// ([`Deadline::admit`]) before every [`CHECK_EVERY`]th vertex, nothing
/// before the others.
fn check(deadline: Deadline, i: usize) -> Result<(), CscError> {
    if i.is_multiple_of(CHECK_EVERY) {
        deadline.admit()
    } else {
        Ok(())
    }
}

impl CscIndex {
    /// [`query`](Self::query) under a wall-clock deadline, checked at
    /// admission.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not a vertex of the indexed graph, like
    /// [`query`](Self::query).
    pub fn query_deadline(
        &self,
        v: VertexId,
        deadline: Deadline,
    ) -> Result<Option<CycleCount>, CscError> {
        deadline.admit()?;
        Ok(self.query(v))
    }

    /// Every vertex's `SCCnt` under one deadline, in id order.
    fn sweep_deadline(&self, deadline: Deadline) -> Result<Vec<Option<CycleCount>>, CscError> {
        deadline.admit()?;
        (0..self.original_vertex_count())
            .map(|i| {
                check(deadline, i)?;
                Ok(self.query(VertexId(i as u32)))
            })
            .collect()
    }

    /// [`girth`](Self::girth) under a wall-clock deadline: the `O(n)`
    /// sweep aborts at the first clock check past the cut-off.
    pub fn girth_deadline(&self, deadline: Deadline) -> Result<Option<(u32, usize)>, CscError> {
        Ok(girth_fold(self.sweep_deadline(deadline)?.into_iter()))
    }

    /// [`top_k_by_cycle_count`](Self::top_k_by_cycle_count) under a
    /// wall-clock deadline.
    pub fn top_k_by_cycle_count_deadline(
        &self,
        k: usize,
        max_length: u32,
        deadline: Deadline,
    ) -> Result<Vec<VertexCycles>, CscError> {
        Ok(rank_by_cycle_count(
            self.sweep_deadline(deadline)?.into_iter(),
            k,
            max_length,
        ))
    }
}

impl SnapshotIndex {
    /// [`query`](Self::query) under a wall-clock deadline, checked at
    /// admission. Out-of-range vertices still answer `Ok(None)`
    /// (stale-but-safe), never panic.
    pub fn query_deadline(
        &self,
        v: VertexId,
        deadline: Deadline,
    ) -> Result<Option<CycleCount>, CscError> {
        deadline.admit()?;
        Ok(self.query(v))
    }

    /// The `SCCnt` of `vertex(i)` for every `i` in `0..len`, in order,
    /// evaluated in parallel under one deadline.
    fn sweep_deadline(
        &self,
        len: usize,
        vertex: impl Fn(usize) -> VertexId + Sync,
        deadline: Deadline,
    ) -> Result<Vec<Option<CycleCount>>, CscError> {
        deadline.admit()?;
        // Relaxed: the flag publishes no data, and `into_inner` reads it
        // after the pool has joined every worker.
        let passed = AtomicBool::new(false);
        let answers = (0..len)
            .into_par_iter()
            .map(|i| {
                if passed.load(Ordering::Relaxed) || check(deadline, i).is_err() {
                    passed.store(true, Ordering::Relaxed);
                    return None;
                }
                self.query(vertex(i))
            })
            .collect();
        if passed.into_inner() {
            return Err(CscError::DeadlineExceeded);
        }
        Ok(answers)
    }

    /// [`query_batch`](Self::query_batch) under a wall-clock deadline,
    /// evaluated in parallel.
    pub fn query_batch_deadline(
        &self,
        vertices: &[VertexId],
        deadline: Deadline,
    ) -> Result<Vec<Option<CycleCount>>, CscError> {
        self.sweep_deadline(vertices.len(), |i| vertices[i], deadline)
    }

    /// [`query_all`](Self::query_all) under a wall-clock deadline,
    /// evaluated in parallel.
    pub fn query_all_deadline(
        &self,
        deadline: Deadline,
    ) -> Result<Vec<Option<CycleCount>>, CscError> {
        self.sweep_deadline(
            self.original_vertex_count(),
            |i| VertexId(i as u32),
            deadline,
        )
    }

    /// [`girth`](Self::girth) under a wall-clock deadline.
    pub fn girth_deadline(&self, deadline: Deadline) -> Result<Option<(u32, usize)>, CscError> {
        Ok(girth_fold(self.query_all_deadline(deadline)?.into_iter()))
    }

    /// [`top_k_by_cycle_count`](Self::top_k_by_cycle_count) under a
    /// wall-clock deadline.
    pub fn top_k_by_cycle_count_deadline(
        &self,
        k: usize,
        max_length: u32,
        deadline: Deadline,
    ) -> Result<Vec<VertexCycles>, CscError> {
        Ok(rank_by_cycle_count(
            self.query_all_deadline(deadline)?.into_iter(),
            k,
            max_length,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::GraphUpdate;
    use crate::config::CscConfig;
    use csc_graph::generators::gnm;
    use std::time::Duration;

    fn expired() -> Deadline {
        Deadline::at(std::time::Instant::now() - Duration::from_millis(1))
    }

    fn roomy() -> Deadline {
        Deadline::within(Duration::from_secs(3600))
    }

    #[test]
    fn deadline_queries_match_unbounded_and_expire() {
        let g = gnm(40, 140, 5);
        let idx = CscIndex::build(&g, CscConfig::default()).unwrap();
        let snap = idx.freeze();
        for v in g.vertices() {
            assert_eq!(idx.query_deadline(v, roomy()).unwrap(), idx.query(v));
            assert_eq!(idx.query_deadline(v, Deadline::NONE).unwrap(), idx.query(v));
            assert_eq!(snap.query_deadline(v, roomy()).unwrap(), snap.query(v));
        }
        assert_eq!(
            idx.query_deadline(VertexId(0), expired()),
            Err(CscError::DeadlineExceeded)
        );
        // An aborted query has no observable effect: the same index
        // answers the retry exactly.
        assert_eq!(
            idx.query_deadline(VertexId(0), roomy()).unwrap(),
            idx.query(VertexId(0))
        );
    }

    #[test]
    fn deadline_sweeps_match_unbounded_and_expire() {
        let g = gnm(50, 190, 6);
        let idx = CscIndex::build(&g, CscConfig::default()).unwrap();
        let snap = idx.freeze();
        assert_eq!(idx.girth_deadline(roomy()).unwrap(), idx.girth());
        assert_eq!(snap.girth_deadline(roomy()).unwrap(), snap.girth());
        assert_eq!(
            idx.top_k_by_cycle_count_deadline(7, u32::MAX, roomy())
                .unwrap(),
            idx.top_k_by_cycle_count(7, u32::MAX)
        );
        assert_eq!(
            snap.top_k_by_cycle_count_deadline(7, 5, roomy()).unwrap(),
            snap.top_k_by_cycle_count(7, 5)
        );
        assert_eq!(snap.query_all_deadline(roomy()).unwrap(), snap.query_all());
        let some: Vec<VertexId> = g.vertices().step_by(3).collect();
        assert_eq!(
            snap.query_batch_deadline(&some, roomy()).unwrap(),
            snap.query_batch(&some)
        );

        assert_eq!(
            idx.girth_deadline(expired()),
            Err(CscError::DeadlineExceeded)
        );
        assert_eq!(
            snap.query_all_deadline(expired()),
            Err(CscError::DeadlineExceeded)
        );
        assert_eq!(
            snap.top_k_by_cycle_count_deadline(3, 4, expired()),
            Err(CscError::DeadlineExceeded)
        );
    }

    #[test]
    fn a_deadline_passing_mid_sweep_aborts_and_leaves_no_trace() {
        // Each deadline is a twentieth of an unbounded sweep of the same
        // input, so at any machine speed it passes after admission and
        // before the sweep ends: a clock check inside the sweep refuses it.
        let g = gnm(1500, 6000, 9);
        let idx = CscIndex::build(&g, CscConfig::default()).unwrap();
        let snap = idx.freeze();
        let girth = idx.girth();
        let all = snap.query_all();
        assert_eq!(snap.girth(), girth);

        let start = std::time::Instant::now();
        assert_eq!(idx.girth(), girth);
        let tight = Deadline::within(start.elapsed() / 20);
        assert_eq!(idx.girth_deadline(tight), Err(CscError::DeadlineExceeded));
        assert_eq!(idx.girth(), girth, "the index answers as before");

        let start = std::time::Instant::now();
        assert_eq!(snap.query_all(), all);
        let tight = Deadline::within(start.elapsed() / 20);
        assert_eq!(
            snap.query_all_deadline(tight),
            Err(CscError::DeadlineExceeded)
        );
        assert_eq!(snap.query_all(), all, "the snapshot answers as before");
        assert_eq!(snap.girth(), girth);
    }

    #[test]
    fn snapshot_deadline_query_is_stale_safe_out_of_range() {
        let g = gnm(10, 30, 1);
        let idx = CscIndex::build(&g, CscConfig::default()).unwrap();
        let snap = idx.freeze();
        assert_eq!(snap.query_deadline(VertexId(99), roomy()).unwrap(), None);
    }

    #[test]
    fn aborted_batch_has_no_observable_effect() {
        let g = gnm(20, 55, 7);
        let mut idx = CscIndex::build(&g, CscConfig::default()).unwrap();
        let before = idx.to_bytes().unwrap();
        let updates = [
            GraphUpdate::AddVertex,
            GraphUpdate::InsertEdge(VertexId(0), VertexId(20)),
        ];
        assert_eq!(
            idx.apply_batch_deadline(&updates, expired()),
            Err(CscError::DeadlineExceeded)
        );
        assert_eq!(
            idx.to_bytes().unwrap(),
            before,
            "refused batch left no trace"
        );
        // The identical retry under a live deadline applies normally and
        // matches the unbounded path on a pristine clone.
        let mut twin = CscIndex::from_bytes(&before).unwrap();
        let r1 = idx.apply_batch_deadline(&updates, roomy()).unwrap();
        let r2 = twin.apply_batch(&updates).unwrap();
        assert_eq!(r1.edges_inserted, r2.edges_inserted);
        assert_eq!(idx.to_bytes().unwrap(), twin.to_bytes().unwrap());
    }

    #[test]
    fn engine_batch_deadline_is_admission_only() {
        use crate::maintain::MaintenanceEngine;
        let g = gnm(16, 40, 2);
        let mut engine = MaintenanceEngine::new(CscIndex::build(&g, CscConfig::default()).unwrap());
        let updates = [GraphUpdate::AddVertex];
        assert_eq!(
            engine.apply_batch_deadline(&updates, expired()),
            Err(CscError::DeadlineExceeded)
        );
        assert_eq!(
            engine.index().original_vertex_count(),
            16,
            "refused before logging or applying"
        );
        let report = engine.apply_batch_deadline(&updates, roomy()).unwrap();
        assert_eq!(report.vertices_added, 1);
        assert_eq!(engine.index().original_vertex_count(), 17);
    }
}
