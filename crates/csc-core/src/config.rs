//! Index configuration.

use crate::error::CscError;
use crate::guard::RetryPolicy;
use crate::health::RebuildPolicy;
use csc_graph::OrderingStrategy;

/// How incremental updates treat label entries that new shortest paths have
/// made redundant (Section V-B, "Efficiency Trade-off").
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum UpdateStrategy {
    /// Leave dominated entries in place. They can never win the
    /// minimum-distance selection at query time, so correctness is
    /// unaffected, and skipping the redundancy checks makes updates 58–678x
    /// faster in the paper's measurements. This is the paper's (and our)
    /// recommended default.
    #[default]
    Redundancy,
    /// Eagerly remove dominated entries after every label change
    /// (Algorithm 8, `CLEAN_LABEL`), keeping the index minimal at a high
    /// per-update cost. `CLEAN_LABEL` reads the inverted hub indexes, so
    /// the first insertion window builds them if no deletion has.
    Minimality,
}

/// When the write-ahead log flushes its file to stable storage.
///
/// The WAL always *writes* every record before the update applies; this
/// knob only controls how often those writes are `fsync`ed. A crash
/// between syncs can lose at most the unsynced suffix of acknowledged
/// windows — recovery still lands on a consistent prefix state.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum FsyncPolicy {
    /// `fsync` after every appended record: an acknowledged update is
    /// durable. The default — this is the durability plane's reason to
    /// exist.
    #[default]
    Always,
    /// `fsync` every `n` appended records (`n >= 1`; rejected at `0` by
    /// [`CscConfig::validate`]). Bounds loss to the last `n - 1`
    /// acknowledged windows while amortizing the sync cost.
    Every(u32),
    /// Never `fsync` from the WAL path (the OS flushes on its own
    /// schedule; rotation still syncs). For workloads where process
    /// death, not power loss, is the failure model.
    Never,
}

/// Durability knobs: write-ahead logging, checkpoint cadence, and the
/// post-swap/post-recovery integrity check. Only consulted once a
/// directory is attached via
/// [`MaintenanceEngine::attach_durability`](crate::MaintenanceEngine::attach_durability)
/// (or [`ConcurrentIndex::attach_durability`](crate::ConcurrentIndex::attach_durability));
/// an unattached engine runs exactly as before.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DurabilityConfig {
    /// WAL fsync cadence (see [`FsyncPolicy`]).
    pub fsync: FsyncPolicy,
    /// Write a fresh checkpoint (and rotate the WAL) every this many
    /// logged update windows. Smaller values bound recovery time (less
    /// WAL to replay); larger values amortize the serialize-and-rename
    /// cost. Must be `>= 1`; checkpoints are deferred while a
    /// rejuvenation is in flight (the WAL suffix must cover the queued
    /// writes) and taken at the next serving-state window.
    pub checkpoint_every: u32,
    /// How many checkpoint generations to keep on disk. The newest is
    /// the recovery fast path; older ones are the fallback when the
    /// newest is torn or bit-flipped. Must be `>= 1`; `2` (the default)
    /// survives a crash *during* checkpointing.
    pub keep_checkpoints: u32,
    /// Run [`check_integrity`](crate::verify::check_integrity) — the
    /// `O(entries)` structural sweep — after every rejuvenation swap and
    /// at the end of every recovery, degrading the engine instead of
    /// serving a structurally broken index.
    pub check_integrity: bool,
    /// Retry schedule for transient I/O failures on the durability plane
    /// (WAL append/fsync, checkpoint write/rename/dir-sync, recovery
    /// reads). When every attempt fails — or the failure is persistent
    /// (`ENOSPC`-class) — the engine degrades durability to a loud
    /// in-memory-only mode instead of poisoning the writer. Persisted at
    /// microsecond resolution.
    pub io_retry: RetryPolicy,
}

impl Default for DurabilityConfig {
    fn default() -> Self {
        DurabilityConfig {
            fsync: FsyncPolicy::Always,
            checkpoint_every: 64,
            keep_checkpoints: 2,
            check_integrity: false,
            io_retry: RetryPolicy::DEFAULT_IO,
        }
    }
}

impl DurabilityConfig {
    /// Rejects degenerate cadences; called from [`CscConfig::validate`].
    pub fn validate(&self) -> Result<(), String> {
        if self.checkpoint_every == 0 {
            return Err("durability.checkpoint_every must be >= 1 (a zero cadence would checkpoint never or always, both degenerate)".into());
        }
        if self.keep_checkpoints == 0 {
            return Err(
                "durability.keep_checkpoints must be >= 1 (recovery needs at least one)".into(),
            );
        }
        if self.fsync == FsyncPolicy::Every(0) {
            return Err(
                "durability.fsync Every(0) is degenerate; use Always or Every(n >= 1)".into(),
            );
        }
        if self.io_retry.max_attempts == 0 {
            return Err("durability.io_retry.max_attempts must be >= 1 (the first try)".into());
        }
        if self.io_retry.base > self.io_retry.cap && self.io_retry.max_attempts > 1 {
            return Err("durability.io_retry.base must be <= cap when retries are enabled".into());
        }
        Ok(())
    }
}

/// A recorded worker width, which steers no work.
///
/// Label builds (the static build and rejuvenation's rebuild) and label
/// repair run serially whatever `threads` says, and
/// the read sweeps and the coverage-sampled ordering run on the global
/// pool at its own width (`CSC_THREADS`, else available parallelism). So
/// the labels never depend on it. Checkpoints still persist `threads`,
/// and loading one still validates it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ParallelismConfig {
    /// The recorded width: `0` (the default) stands for the pool width,
    /// any other value for itself.
    pub threads: u32,
}

/// Ceiling on [`ParallelismConfig::threads`]: wide enough for any real
/// machine, small enough to catch garbage (and to fit the serialized
/// form's validation budget).
pub(crate) const MAX_THREADS: u32 = 4096;

impl ParallelismConfig {
    /// Rejects degenerate widths; called from [`CscConfig::validate`].
    pub fn validate(&self) -> Result<(), String> {
        if self.threads > MAX_THREADS {
            return Err(format!(
                "parallelism.threads must be <= {MAX_THREADS} (0 = pool default), got {}",
                self.threads
            ));
        }
        Ok(())
    }

    /// The recorded width: `threads` when set, else the global pool width
    /// (`CSC_THREADS` / available parallelism). Benchmark records report
    /// it; the index does not read it.
    pub fn width(&self) -> usize {
        if self.threads == 0 {
            rayon::current_num_threads()
        } else {
            self.threads as usize
        }
    }
}

/// Configuration for building a [`CscIndex`](crate::CscIndex).
///
/// The paper's inverted hub indexes are not configured here: an index
/// builds them from its labels the first time a deletion or Minimality's
/// `CLEAN_LABEL` reads carriers, and maintains them from then on. Nor is
/// any limit on load: like the paper's index, this one repairs every
/// update in place and never refuses or drops a write because it is
/// busy (a rejuvenation queues writes in an unbounded replay queue).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CscConfig {
    /// Vertex-ordering strategy, applied to the *original* graph; couples in
    /// the bipartite graph inherit the order with `v_i` directly above
    /// `v_o` (the couple-vertex-skipping precondition).
    ///
    /// The strategy is persisted in checkpoints and re-applied whenever the
    /// maintenance plane recomputes the order, so switching a live index to
    /// [`OrderingStrategy::CoverageSampling`] (see
    /// [`set_order`](crate::CscIndex::set_order)) migrates the labeling to
    /// the smaller order during its next rejuvenation.
    pub order: OrderingStrategy,
    /// Redundancy vs. minimality on updates.
    pub update_strategy: UpdateStrategy,
    /// How often [`ConcurrentIndex`](crate::ConcurrentIndex) republishes
    /// its read snapshot, counted in *update units*: every successful
    /// `insert_edge` / `remove_edge` / `add_vertex` weighs 1, and an
    /// [`apply_batch`](crate::ConcurrentIndex::apply_batch) weighs its
    /// applied update count — but a batch publishes at most once, at its
    /// end.
    ///
    /// Publication seals the label arena's open segment, where the writes
    /// since the last snapshot copied each list they changed, and copies
    /// the span table (12 bytes per stored list); every segment is shared
    /// (see [`MaintenanceEngine::publish_from`](crate::MaintenanceEngine::publish_from)).
    /// The span-table copy is `O(n)` however little a window changed, and
    /// every copied list leaves its old copy behind as dead space until a
    /// compaction — so the default of `8` amortizes both over a burst
    /// while bounding snapshot-reader staleness at 7 updates. A list
    /// written by several updates between publishes is copied once.
    /// Set `1` to republish after every update or batch (readers at most
    /// one batch stale), or `0` to disable automatic republication
    /// entirely and call
    /// [`ConcurrentIndex::refresh`](crate::ConcurrentIndex::refresh)
    /// manually.
    ///
    /// `0` is a *defined* value, not a degenerate one:
    /// [`CscConfig::validate`] accepts it and pins the manual-publication
    /// semantics down.
    pub snapshot_every: usize,
    /// When the maintenance plane should rejuvenate (rebuild) the index —
    /// see [`RebuildPolicy`]. Default: trigger measurement at 200% label
    /// growth, automatic rebuild off.
    pub rebuild: RebuildPolicy,
    /// Durability knobs (WAL fsync, checkpoint cadence, integrity
    /// check); inert until a directory is attached. See
    /// [`DurabilityConfig`].
    pub durability: DurabilityConfig,
    /// The recorded worker width. Persisted in checkpoints, but it steers
    /// no work and never changes what the index contains. See
    /// [`ParallelismConfig`].
    pub parallelism: ParallelismConfig,
}

impl Default for CscConfig {
    fn default() -> Self {
        CscConfig {
            order: OrderingStrategy::Degree,
            update_strategy: UpdateStrategy::Redundancy,
            snapshot_every: 8,
            rebuild: RebuildPolicy::default(),
            durability: DurabilityConfig::default(),
            parallelism: ParallelismConfig::default(),
        }
    }
}

impl CscConfig {
    /// The paper's recommended configuration (degree order, redundancy).
    pub fn recommended() -> Self {
        Self::default()
    }

    /// Builder-style: set the ordering strategy.
    pub fn with_order(mut self, order: OrderingStrategy) -> Self {
        self.order = order;
        self
    }

    /// Builder-style: set the update strategy.
    pub fn with_update_strategy(mut self, s: UpdateStrategy) -> Self {
        self.update_strategy = s;
        self
    }

    /// Builder-style: set the snapshot republication interval (see
    /// [`CscConfig::snapshot_every`]).
    pub fn with_snapshot_every(mut self, every: usize) -> Self {
        self.snapshot_every = every;
        self
    }

    /// Builder-style: set the rebuild (rejuvenation) policy.
    pub fn with_rebuild_policy(mut self, policy: RebuildPolicy) -> Self {
        self.rebuild = policy;
        self
    }

    /// Builder-style: set the durability knobs.
    pub fn with_durability(mut self, durability: DurabilityConfig) -> Self {
        self.durability = durability;
        self
    }

    /// Builder-style: set the checkpoint cadence (windows between
    /// checkpoints) without touching the other durability knobs.
    pub fn with_checkpoint_every(mut self, windows: u32) -> Self {
        self.durability.checkpoint_every = windows;
        self
    }

    /// Builder-style: set the WAL fsync policy.
    pub fn with_fsync(mut self, fsync: FsyncPolicy) -> Self {
        self.durability.fsync = fsync;
        self
    }

    /// Builder-style: toggle the post-swap / post-recovery integrity
    /// check.
    pub fn with_integrity_check(mut self, on: bool) -> Self {
        self.durability.check_integrity = on;
        self
    }

    /// Builder-style: record a worker width (`0` = pool width). It is
    /// persisted but steers no work. See [`ParallelismConfig`].
    pub fn with_threads(mut self, threads: u32) -> Self {
        self.parallelism.threads = threads;
        self
    }

    /// Builder-style: set the durability plane's transient-I/O retry
    /// schedule. See [`RetryPolicy`].
    pub fn with_io_retry(mut self, retry: RetryPolicy) -> Self {
        self.durability.io_retry = retry;
        self
    }

    /// Rejects degenerate configurations. Called by `CscIndex::build` and
    /// `CscIndex::from_bytes`, so an invalid configuration can never reach
    /// a live index.
    ///
    /// The pinned semantics of the boundary values:
    ///
    /// * `snapshot_every == 0` is **valid** and means *never auto-publish*
    ///   — [`ConcurrentIndex`](crate::ConcurrentIndex) republishes only on
    ///   an explicit [`refresh`](crate::ConcurrentIndex::refresh) (or at a
    ///   rejuvenation swap, which must publish to stay coherent).
    /// * `rebuild.max_growth_percent` must be `0` (disabled) or `> 100`: a
    ///   threshold at or below 100% would re-trigger immediately after the
    ///   rebuild that satisfied it.
    ///
    /// # Errors
    ///
    /// Returns [`CscError::Config`] naming the offending field.
    pub fn validate(&self) -> Result<(), CscError> {
        self.rebuild.validate().map_err(CscError::Config)?;
        self.durability.validate().map_err(CscError::Config)?;
        self.parallelism.validate().map_err(CscError::Config)?;
        if let OrderingStrategy::CoverageSampling {
            samples_per_log_n, ..
        } = self.order
        {
            if samples_per_log_n == 0 {
                return Err(CscError::Config(
                    "order.samples_per_log_n must be >= 1 (zero trees would rank nothing)".into(),
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_recommendation() {
        let c = CscConfig::default();
        assert_eq!(c.order, OrderingStrategy::Degree);
        assert_eq!(c.update_strategy, UpdateStrategy::Redundancy);
        assert_eq!(c.snapshot_every, 8, "freeze cost amortized by default");
        assert_eq!(CscConfig::recommended(), c);
    }

    #[test]
    fn snapshot_interval_builder() {
        let c = CscConfig::default().with_snapshot_every(64);
        assert_eq!(c.snapshot_every, 64);
        assert_eq!(
            CscConfig::default().with_snapshot_every(0).snapshot_every,
            0
        );
    }

    #[test]
    fn minimality_forces_inverted() {
        // Minimality needs no companion knob: `CLEAN_LABEL` reads the
        // inverted index, so the first insertion window builds it.
        use crate::batch::GraphUpdate::{AddVertex, InsertEdge};
        use csc_graph::VertexId;
        let c = CscConfig::default().with_update_strategy(UpdateStrategy::Minimality);
        assert_eq!(
            c,
            CscConfig {
                update_strategy: UpdateStrategy::Minimality,
                ..CscConfig::default()
            }
        );
        assert!(c.validate().is_ok());
        // A path 0 -> 1 -> 2 -> 3; closing it into a ring writes new
        // entries, and each improving write runs `CLEAN_LABEL`.
        let g = csc_graph::DiGraph::from_edges(4, vec![(0, 1), (1, 2), (2, 3)]);
        let mut idx = crate::CscIndex::build(&g, c).unwrap();
        idx.apply_batch(&[AddVertex]).unwrap();
        assert!(idx.inverted.is_none(), "nothing has read carriers yet");
        let report = idx
            .apply_batch(&[InsertEdge(VertexId(3), VertexId(0))])
            .unwrap();
        assert!(report.repair.entries_inserted > 0);
        let inv = idx.inverted.as_ref().expect("the insertion phase built it");
        inv.validate_against(idx.labels()).unwrap();
        assert_eq!(idx.query(VertexId(0)).map(|c| c.length), Some(4));
    }

    #[test]
    fn validate_pins_snapshot_every_zero_as_manual_only() {
        // `0` is the documented manual-publication mode, not an error; the
        // concurrent tests (`manual_refresh_and_disabled_auto`) pin the
        // runtime behavior, this pins that validation agrees.
        let c = CscConfig::default().with_snapshot_every(0);
        assert!(c.validate().is_ok());
        assert!(CscConfig::default().validate().is_ok());
    }

    #[test]
    fn validate_rejects_degenerate_rebuild_thresholds() {
        let c = CscConfig::default()
            .with_rebuild_policy(RebuildPolicy::default().with_growth_percent(100));
        let err = c.validate().unwrap_err();
        assert!(err.to_string().contains("max_growth_percent"), "{err}");
        // Disabled thresholds stay valid.
        let c = CscConfig::default().with_rebuild_policy(RebuildPolicy::manual_only());
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validate_rejects_degenerate_durability_knobs() {
        let c = CscConfig::default().with_checkpoint_every(0);
        let err = c.validate().unwrap_err();
        assert!(err.to_string().contains("checkpoint_every"), "{err}");

        let c = CscConfig::default().with_durability(DurabilityConfig {
            keep_checkpoints: 0,
            ..Default::default()
        });
        let err = c.validate().unwrap_err();
        assert!(err.to_string().contains("keep_checkpoints"), "{err}");

        let c = CscConfig::default().with_fsync(FsyncPolicy::Every(0));
        let err = c.validate().unwrap_err();
        assert!(err.to_string().contains("Every(0)"), "{err}");

        // The defaults and the legitimate boundary values stay valid.
        assert!(CscConfig::default().validate().is_ok());
        assert!(CscConfig::default()
            .with_checkpoint_every(1)
            .with_fsync(FsyncPolicy::Every(1))
            .validate()
            .is_ok());
        assert!(CscConfig::default()
            .with_fsync(FsyncPolicy::Never)
            .with_integrity_check(true)
            .validate()
            .is_ok());
    }

    #[test]
    fn durability_defaults_favor_safety() {
        let d = DurabilityConfig::default();
        assert_eq!(d.fsync, FsyncPolicy::Always, "acknowledged == durable");
        assert_eq!(d.keep_checkpoints, 2, "survive a crash mid-checkpoint");
        assert!(d.checkpoint_every >= 1);
    }

    #[test]
    fn parallelism_defaults_and_builders() {
        let c = CscConfig::default();
        assert_eq!(c.parallelism.threads, 0, "0 = follow the pool default");

        let c = CscConfig::default().with_threads(4);
        assert_eq!(c.parallelism.threads, 4);
        assert!(c.validate().is_ok());
        assert!(c.parallelism.width() == 4);
        assert!(CscConfig::default().with_threads(0).parallelism.width() >= 1);
    }

    #[test]
    fn validate_rejects_zero_sampling_budget() {
        let c = CscConfig::default().with_order(OrderingStrategy::CoverageSampling {
            seed: 1,
            samples_per_log_n: 0,
        });
        let err = c.validate().unwrap_err();
        assert!(err.to_string().contains("samples_per_log_n"), "{err}");
        assert!(CscConfig::default()
            .with_order(OrderingStrategy::coverage(1))
            .validate()
            .is_ok());
    }

    #[test]
    fn validate_rejects_absurd_thread_widths() {
        let c = CscConfig::default().with_threads(MAX_THREADS + 1);
        let err = c.validate().unwrap_err();
        assert!(err.to_string().contains("parallelism.threads"), "{err}");
        assert!(CscConfig::default()
            .with_threads(MAX_THREADS)
            .validate()
            .is_ok());
    }

    #[test]
    fn memory_budget_and_io_retry_builders() {
        let r = crate::guard::RetryPolicy::new(
            3,
            std::time::Duration::from_millis(1),
            std::time::Duration::from_millis(8),
        );
        let c = CscConfig::default().with_io_retry(r);
        assert_eq!(c.durability.io_retry, r);
        assert!(c.validate().is_ok());

        let bad = CscConfig::default().with_io_retry(crate::guard::RetryPolicy {
            max_attempts: 2,
            base: std::time::Duration::from_millis(9),
            cap: std::time::Duration::from_millis(1),
        });
        let err = bad.validate().unwrap_err();
        assert!(err.to_string().contains("io_retry"), "{err}");
    }

    #[test]
    fn builder_chains() {
        let c = CscConfig::default()
            .with_order(OrderingStrategy::Identity)
            .with_update_strategy(UpdateStrategy::Minimality)
            .with_snapshot_every(3);
        assert_eq!(c.order, OrderingStrategy::Identity);
        assert_eq!(c.update_strategy, UpdateStrategy::Minimality);
        assert_eq!(c.snapshot_every, 3);
    }
}
