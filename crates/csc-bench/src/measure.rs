//! Timing helpers for the experiment harness.

use csc_core::CscIndex;
use csc_graph::VertexId;
use std::time::{Duration, Instant};

/// Times a closure, returning its result and the elapsed wall-clock time.
pub fn time_it<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let start = Instant::now();
    let r = f();
    (r, start.elapsed())
}

/// Removes and re-inserts the indexed edge `(u, w)`, untimed. The index
/// builds its inverted hub index at its first deletion, a one-time
/// `O(entries)` pass; an experiment that times single updates from a
/// fresh build runs this first, so its timed updates measure repair.
pub(crate) fn warm_up(index: &mut CscIndex, u: VertexId, w: VertexId) {
    index.remove_edge(u, w).expect("warm-up edge is indexed");
    index.insert_edge(u, w).expect("warm-up edge goes back");
}

/// Mean duration of a set of per-operation measurements.
pub fn mean(durations: &[Duration]) -> Duration {
    if durations.is_empty() {
        return Duration::ZERO;
    }
    let total: Duration = durations.iter().sum();
    total / durations.len() as u32
}

/// The `p`-th percentile (0.0..=1.0) of the measurements.
pub fn percentile(durations: &[Duration], p: f64) -> Duration {
    if durations.is_empty() {
        return Duration::ZERO;
    }
    let mut sorted = durations.to_vec();
    sorted.sort_unstable();
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

/// Formats a duration at microsecond/millisecond/second granularity the
/// way the paper's axes do.
pub fn fmt_duration(d: Duration) -> String {
    let us = d.as_secs_f64() * 1e6;
    if us < 1_000.0 {
        format!("{us:.2} us")
    } else if us < 1_000_000.0 {
        format!("{:.2} ms", us / 1_000.0)
    } else {
        format!("{:.2} s", us / 1_000_000.0)
    }
}

/// Formats a byte count as the paper reports index sizes (MB).
pub fn fmt_bytes(bytes: usize) -> String {
    let mb = bytes as f64 / (1024.0 * 1024.0);
    if mb < 0.01 {
        format!("{:.1} KB", bytes as f64 / 1024.0)
    } else {
        format!("{mb:.2} MB")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_it_returns_result() {
        let (x, d) = time_it(|| 21 * 2);
        assert_eq!(x, 42);
        assert!(d < Duration::from_secs(1));
    }

    #[test]
    fn mean_and_percentile() {
        let ds: Vec<Duration> = (1..=10).map(Duration::from_millis).collect();
        assert_eq!(mean(&ds), Duration::from_micros(5_500));
        assert_eq!(percentile(&ds, 0.0), Duration::from_millis(1));
        assert_eq!(percentile(&ds, 1.0), Duration::from_millis(10));
        assert_eq!(mean(&[]), Duration::ZERO);
        assert_eq!(percentile(&[], 0.5), Duration::ZERO);
    }

    #[test]
    fn formatting() {
        assert_eq!(fmt_duration(Duration::from_micros(5)), "5.00 us");
        assert_eq!(fmt_duration(Duration::from_millis(5)), "5.00 ms");
        assert_eq!(fmt_duration(Duration::from_secs(5)), "5.00 s");
        assert_eq!(fmt_bytes(3 * 1024 * 1024), "3.00 MB");
        assert!(fmt_bytes(100).contains("KB"));
    }
}
