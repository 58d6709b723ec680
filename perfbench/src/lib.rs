//! Benchmark of the CSC index: two workloads, each driven through the
//! public API by one client thread in a closed loop, with an untraced run
//! for the end-to-end metrics and a traced run that splits them by layer.
//! `README.md` in this directory describes the workloads, the metrics and
//! the rules that keep the figures steady.

pub mod composite;
pub mod inputs;
pub mod layered;
pub mod report;
pub mod spans;
pub mod sys;

pub use inputs::{Spec, Workload};
pub use report::{run, Outcome};

use csc_core::{BatchReport, CscError};
use std::fmt;

/// Operations attempted and failed, with what went wrong.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations and checks attempted.
    pub attempted: u64,
    /// Those that errored, were refused or gave a wrong answer.
    pub failed: u64,
    /// One line per failure.
    pub problems: Vec<String>,
}

impl Tally {
    /// Counts one operation, recording it when it failed.
    pub fn op<T>(&mut self, what: &str, result: Result<T, CscError>) -> Result<T, String> {
        self.attempted += 1;
        result.map_err(|e| {
            let problem = format!("{what}: {e}");
            self.failed += 1;
            self.problems.push(problem.clone());
            problem
        })
    }

    /// Counts one check, recording `what` when it failed.
    pub fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.problems.push(what.to_string());
        }
    }
}

/// The work one run did, summed over its epochs. Every run of one seed
/// must print the same.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Fingerprint {
    /// Write windows submitted.
    pub windows: usize,
    /// Updates that changed the graph.
    pub applied: usize,
    /// Updates normalization cancelled within their window.
    pub cancelled: usize,
    /// Full-rebuild fallbacks taken by deletion repair.
    pub fallbacks: usize,
    /// Label entries in the snapshot each epoch published last.
    pub entries: usize,
    /// `index_bytes()` of those snapshots.
    pub index_bytes: usize,
    /// WAL records replayed by each epoch's recovery.
    pub replayed_records: usize,
}

impl Fingerprint {
    /// Adds one window's report.
    pub fn count(&mut self, report: &BatchReport) {
        self.applied += report.applied_updates();
        self.cancelled += report.cancelled;
        self.fallbacks += report.repair.rebuild_fallbacks;
    }

    /// Adds one epoch's work: every field is a sum over the epochs.
    pub fn absorb(&mut self, epoch: &Fingerprint) {
        self.windows += epoch.windows;
        self.applied += epoch.applied;
        self.cancelled += epoch.cancelled;
        self.fallbacks += epoch.fallbacks;
        self.entries += epoch.entries;
        self.index_bytes += epoch.index_bytes;
        self.replayed_records += epoch.replayed_records;
    }
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "windows={} applied={} cancelled={} fallbacks={} entries={} index_bytes={} replayed_records={}",
            self.windows,
            self.applied,
            self.cancelled,
            self.fallbacks,
            self.entries,
            self.index_bytes,
            self.replayed_records
        )
    }
}
