//! Index health reporting and the rebuild (rejuvenation) policy.
//!
//! Dynamic maintenance preserves *correctness* but not *quality*: every
//! added vertex lands at the bottom of the rank order, deletions leave
//! redundant entries behind (under the default redundancy strategy), and
//! incremental snapshots accumulate relocation dead space. A long-lived
//! index therefore drifts away from the one a fresh build over the same
//! graph would produce — and with it query latency and memory.
//!
//! [`IndexHealth`] quantifies that drift against the *baseline* captured
//! at the last full (re)build, and [`RebuildPolicy`] decides when drift
//! has gone far enough to be worth a rejuvenation pass (see
//! `csc_core::maintain`). The policy thresholds are integer percentages so
//! the configuration stays `Copy + Eq` and serializes exactly.

use std::fmt;

/// Why a rejuvenation pass started.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RebuildReason {
    /// Total label entries grew past
    /// [`RebuildPolicy::max_growth_percent`] of the baseline.
    LabelGrowth,
    /// More than [`RebuildPolicy::max_churned_vertices`] vertices were
    /// appended (bottom-ranked) since the baseline.
    Churn,
    /// An explicit caller request.
    Manual,
}

impl fmt::Display for RebuildReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            RebuildReason::LabelGrowth => "label growth over baseline",
            RebuildReason::Churn => "bottom-ranked churn vertices",
            RebuildReason::Manual => "manual trigger",
        })
    }
}

/// When the maintenance plane should rejuvenate (rebuild) the index.
///
/// Every threshold uses `0` for *disabled*; the policy as a whole only
/// fires automatically when [`auto`](RebuildPolicy::auto) is set —
/// otherwise the thresholds still drive [`IndexHealth::triggered`] (so
/// operators can alert on them) but nothing rebuilds without an explicit
/// `rejuvenate` call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RebuildPolicy {
    /// Rebuild when `total_entries * 100 / baseline_entries` meets or
    /// exceeds this. Must exceed 100 when enabled (100 would re-trigger
    /// immediately after every rebuild). `0` disables. Default `200`
    /// (entries doubled).
    pub max_growth_percent: u32,
    /// Rebuild when this many vertices have been appended (all of them
    /// bottom-ranked) since the baseline. `0` disables. Default `0`.
    pub max_churned_vertices: u32,
    /// Rebuild automatically from the write path when a threshold trips.
    /// Off by default: callers opt in to background rebuild work.
    pub auto: bool,
}

impl Default for RebuildPolicy {
    fn default() -> Self {
        RebuildPolicy {
            max_growth_percent: 200,
            max_churned_vertices: 0,
            auto: false,
        }
    }
}

impl RebuildPolicy {
    /// A policy that never triggers on its own: rejuvenation only via the
    /// explicit call.
    pub fn manual_only() -> Self {
        RebuildPolicy {
            max_growth_percent: 0,
            max_churned_vertices: 0,
            auto: false,
        }
    }

    /// Checks the thresholds for internal consistency (degenerate values
    /// would either never fire or fire on every update).
    pub fn validate(&self) -> Result<(), String> {
        if self.max_growth_percent != 0 && self.max_growth_percent <= 100 {
            return Err(format!(
                "rebuild max_growth_percent must be 0 (disabled) or > 100, got {}",
                self.max_growth_percent
            ));
        }
        Ok(())
    }

    /// Builder-style: set the growth threshold.
    pub fn with_growth_percent(mut self, percent: u32) -> Self {
        self.max_growth_percent = percent;
        self
    }

    /// Builder-style: set the churned-vertex threshold.
    pub fn with_churned_vertices(mut self, count: u32) -> Self {
        self.max_churned_vertices = count;
        self
    }

    /// Builder-style: toggle automatic rejuvenation from the write path.
    pub fn with_auto(mut self, auto: bool) -> Self {
        self.auto = auto;
        self
    }
}

/// The drift baseline captured at build / load / rejuvenation time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HealthBaseline {
    /// Total label entries right after the (re)build.
    pub entries: usize,
    /// In-side entries right after the (re)build.
    pub in_entries: usize,
    /// Out-side entries right after the (re)build.
    pub out_entries: usize,
    /// Original-graph vertices covered by the (re)build's rank order;
    /// vertices appended later are bottom-ranked churn.
    pub vertices: usize,
    /// Rejuvenation passes completed over the index's lifetime.
    pub rejuvenations: u32,
}

/// A point-in-time drift report for an index or snapshot.
///
/// Produced by `CscIndex::health`, `SnapshotIndex::health`, and (with the
/// maintenance-plane fields — replay queue, rebuild flag, durability
/// state — filled in) `MaintenanceEngine::health` and
/// `ConcurrentIndex::health`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct IndexHealth {
    /// Label entries currently stored.
    pub total_entries: usize,
    /// In-side entries currently stored.
    pub in_entries: usize,
    /// Out-side entries currently stored.
    pub out_entries: usize,
    /// Total entries at the baseline (post-build / post-rejuvenation).
    pub baseline_entries: usize,
    /// In-side entries at the baseline.
    pub baseline_in_entries: usize,
    /// Out-side entries at the baseline.
    pub baseline_out_entries: usize,
    /// `total_entries * 100 / baseline_entries` (`100` = exactly at
    /// baseline; saturates at `u32::MAX`; `100` when the baseline is 0).
    pub growth_percent: u32,
    /// Dead fraction of the measured arena, `0.0..=1.0`. Always `0.0` from
    /// [`CscIndex::health`](crate::CscIndex::health); meaningful for
    /// published snapshots, whose publication compacts past
    /// [`MAX_DEAD_FRACTION`](crate::snapshot::MAX_DEAD_FRACTION).
    pub dead_fraction: f64,
    /// Vertices appended — all bottom-ranked — since the baseline.
    pub churned_vertices: usize,
    /// Rejuvenation passes completed so far.
    pub rejuvenations: u32,
    /// Updates sitting in the write-ahead replay queue (non-zero only
    /// while a rejuvenation is in flight).
    pub replay_queued: usize,
    /// `true` while a rejuvenation rebuild/replay is in flight.
    pub rebuilding: bool,
    /// `true` after persistent I/O failure forced the durability plane
    /// into in-memory-only mode: the engine keeps serving and accepting
    /// writes, but nothing is logged or checkpointed until an operator
    /// re-attaches durability.
    pub durability_degraded: bool,
    /// Torn-tail bytes dropped from the WAL by recoveries over this
    /// engine's lifetime (each drop was an unacknowledged-or-unsynced
    /// suffix; surfacing the count keeps the loss visible).
    pub wal_truncated_bytes: u64,
}

impl IndexHealth {
    /// Computes the growth percentage for the report. An empty baseline
    /// with stored entries is *infinite* growth (saturated) — an index
    /// built over an empty graph that later grows must still be able to
    /// trip the growth threshold — while empty-on-empty is flat 100%.
    pub(crate) fn growth(total: usize, baseline: usize) -> u32 {
        match total.saturating_mul(100).checked_div(baseline) {
            Some(pct) => u32::try_from(pct).unwrap_or(u32::MAX),
            None if total == 0 => 100,
            None => u32::MAX,
        }
    }

    /// Which policy threshold (if any) this report trips, checked in
    /// growth → churn order. Ignores
    /// [`RebuildPolicy::auto`] — this is the *measurement*; whether
    /// anything acts on it is the caller's business.
    pub fn triggered(&self, policy: &RebuildPolicy) -> Option<RebuildReason> {
        if policy.max_growth_percent != 0 && self.growth_percent >= policy.max_growth_percent {
            return Some(RebuildReason::LabelGrowth);
        }
        if policy.max_churned_vertices != 0
            && self.churned_vertices >= policy.max_churned_vertices as usize
        {
            return Some(RebuildReason::Churn);
        }
        None
    }
}

impl fmt::Display for IndexHealth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "entries {} (in {} / out {}) vs baseline {} ({}%), dead {:.1}%, \
             churned {}, rejuvenations {}, replay queue {}{}",
            self.total_entries,
            self.in_entries,
            self.out_entries,
            self.baseline_entries,
            self.growth_percent,
            self.dead_fraction * 100.0,
            self.churned_vertices,
            self.rejuvenations,
            self.replay_queued,
            if self.rebuilding { " [rebuilding]" } else { "" },
        )?;
        if self.durability_degraded {
            f.write_str(" [durability degraded: in-memory only]")?;
        }
        if self.wal_truncated_bytes > 0 {
            write!(f, " [wal dropped {} torn bytes]", self.wal_truncated_bytes)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn health(growth_percent: u32, dead: f64, churned: usize) -> IndexHealth {
        IndexHealth {
            total_entries: 0,
            in_entries: 0,
            out_entries: 0,
            baseline_entries: 0,
            baseline_in_entries: 0,
            baseline_out_entries: 0,
            growth_percent,
            dead_fraction: dead,
            churned_vertices: churned,
            rejuvenations: 0,
            replay_queued: 0,
            rebuilding: false,
            durability_degraded: false,
            wal_truncated_bytes: 0,
        }
    }

    #[test]
    fn growth_percent_math() {
        assert_eq!(IndexHealth::growth(150, 100), 150);
        assert_eq!(IndexHealth::growth(99, 100), 99);
        assert_eq!(IndexHealth::growth(0, 0), 100, "empty on empty is flat");
        assert_eq!(
            IndexHealth::growth(5, 0),
            u32::MAX,
            "growth from an empty baseline is infinite, not hidden"
        );
        assert_eq!(IndexHealth::growth(usize::MAX, 1), u32::MAX, "saturates");
    }

    #[test]
    fn trigger_order_and_disabling() {
        let p = RebuildPolicy {
            max_growth_percent: 150,
            max_churned_vertices: 10,
            auto: false,
        };
        assert_eq!(
            health(150, 0.5, 20).triggered(&p),
            Some(RebuildReason::LabelGrowth),
            "growth checked first"
        );
        assert_eq!(
            health(149, 0.39, 10).triggered(&p),
            Some(RebuildReason::Churn)
        );
        assert_eq!(health(149, 0.39, 9).triggered(&p), None);
        assert_eq!(
            health(u32::MAX, 1.0, usize::MAX).triggered(&RebuildPolicy::manual_only()),
            None,
            "disabled thresholds never fire"
        );
    }

    #[test]
    fn policy_validation() {
        assert!(RebuildPolicy::default().validate().is_ok());
        assert!(RebuildPolicy::manual_only().validate().is_ok());
        assert!(RebuildPolicy::default()
            .with_growth_percent(100)
            .validate()
            .is_err());
        assert!(RebuildPolicy::default()
            .with_growth_percent(101)
            .validate()
            .is_ok());
    }

    #[test]
    fn display_mentions_the_load_bearing_numbers() {
        let mut h = health(123, 0.25, 7);
        h.total_entries = 41;
        h.rebuilding = true;
        let s = h.to_string();
        assert!(s.contains("123%") && s.contains("25.0%") && s.contains("[rebuilding]"));
    }
}
