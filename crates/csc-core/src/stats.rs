//! Index statistics and per-update reports.

use csc_labeling::BuildStats;
use std::time::Duration;

/// Cumulative statistics for a [`CscIndex`](crate::CscIndex).
#[derive(Clone, Debug, Default)]
pub struct IndexStats {
    /// Statistics of the initial construction.
    pub build: BuildStats,
    /// Number of edge insertions applied.
    pub insertions: usize,
    /// Number of edge deletions applied.
    pub deletions: usize,
    /// Net label entries added by incremental updates.
    pub entries_added: usize,
    /// Net label entries removed by updates (deletions and cleaning).
    pub entries_removed: usize,
    /// Label entries whose count saturated during updates.
    pub saturated_counts: usize,
}

/// One window's label-repair counters
/// ([`BatchReport::repair`](crate::BatchReport::repair)); for a scalar
/// `insert_edge` / `remove_edge`, a one-op window, the measurements behind
/// the paper's Figures 11(b) and 12(b). Entries are counted in the two
/// lists per couple the index stores, the paper's reduced index; the
/// couple copies the index derives change with them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct UpdateReport {
    /// Brand-new label entries inserted.
    pub entries_inserted: usize,
    /// Existing entries overwritten (shorter distance or added counts).
    pub entries_updated: usize,
    /// Entries removed (stale deletion, redundancy cleaning).
    pub entries_removed: usize,
    /// Affected hubs that started a maintenance traversal.
    pub affected_hubs: usize,
    /// Total vertices dequeued across all maintenance traversals.
    pub vertices_visited: usize,
    /// Wall-clock time of the window.
    pub duration: Duration,
    /// Deletion repair: time classifying the window (endpoint BFS sweeps
    /// + per-hub regime assignment). Zero when the window removes no edge.
    pub classify_time: Duration,
    /// Deletion repair: time in the merged count-subtraction passes.
    pub subtract_time: Duration,
    /// Deletion repair: time in the re-label regime (each demoted hub
    /// side's upsert BFS and the sweep of the entries it did not produce)
    /// — historically the dominant share.
    pub relabel_time: Duration,
    /// Always 0: every deletion window repairs in place, however much of
    /// the index it demotes. Kept only because perfbench still reads it.
    pub rebuild_fallbacks: usize,
}

impl UpdateReport {
    /// Net change in the stored entry count.
    pub fn net_entries(&self) -> isize {
        self.entries_inserted as isize - self.entries_removed as isize
    }
}

/// Publication-side statistics of a
/// [`ConcurrentIndex`](crate::ConcurrentIndex)'s snapshot pipeline.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SnapshotStats {
    /// Snapshots published since construction (including the initial one).
    pub published: usize,
    /// Successful updates applied since the last publication — how stale
    /// the currently served snapshot is, in updates.
    pub pending_updates: usize,
    /// Updates the source index had applied when the served snapshot was
    /// frozen.
    pub snapshot_updates_applied: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn net_entries_signs() {
        let r = UpdateReport {
            entries_inserted: 5,
            entries_removed: 8,
            ..Default::default()
        };
        assert_eq!(r.net_entries(), -3);
        let r = UpdateReport {
            entries_inserted: 8,
            entries_removed: 5,
            ..Default::default()
        };
        assert_eq!(r.net_entries(), 3);
    }
}
