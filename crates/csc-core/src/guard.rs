//! Resource guards: wall-clock deadlines and bounded retry with backoff.
//!
//! The query and write planes accept an optional [`Deadline`]; each
//! deadline-aware read derives one [`OpBudget`] per worker from it and
//! threads the budget down to the cooperative cancellation checkpoints
//! in the `csc-labeling` intersection kernels. A write checks its
//! deadline only at admission (`CscIndex::apply_batch_deadline` once
//! more after planning), never inside a traversal. An exceeded deadline
//! surfaces as [`CscError::DeadlineExceeded`] and the aborted operation
//! has no observable effect (queries write nothing shared; writes abort
//! only before their commit point).
//!
//! [`RetryPolicy`] is the durability plane's answer to transient I/O
//! failures: bounded exponential backoff with deterministic jitter, so a
//! flaky `fsync` is retried a few times before the engine degrades
//! loudly instead of poisoning itself.

use crate::error::CscError;
use csc_graph::OpBudget;
use std::time::{Duration, Instant};

/// An optional wall-clock deadline for one index operation.
///
/// `Deadline` is `Copy` and cheap to pass by value; it is the *shared*
/// cut-off, while [`OpBudget`] (derived via [`Deadline::budget`]) is the
/// per-worker, `Cell`-based countdown that actually meters checkpoints.
/// Parallel entry points derive one budget per rayon worker from the
/// same `Deadline`, so every worker observes the same cut-off instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Deadline(Option<Instant>);

impl Deadline {
    /// No deadline: derived budgets are unbounded and never read the clock.
    pub const NONE: Deadline = Deadline(None);

    /// A deadline at the given instant.
    pub fn at(when: Instant) -> Self {
        Deadline(Some(when))
    }

    /// A deadline `limit` from now.
    pub fn within(limit: Duration) -> Self {
        Deadline(Some(Instant::now() + limit))
    }

    /// The cut-off instant, if any.
    pub fn instant(&self) -> Option<Instant> {
        self.0
    }

    /// `true` if there is a cut-off and it is already in the past.
    ///
    /// Used by admission control: refusing an already-dead operation up
    /// front is cheaper than letting it fail at its first checkpoint.
    pub fn is_past(&self) -> bool {
        matches!(self.0, Some(t) if Instant::now() >= t)
    }

    /// Derives a fresh per-worker [`OpBudget`] observing this deadline.
    pub fn budget(&self) -> OpBudget {
        match self.0 {
            None => OpBudget::unbounded(),
            Some(t) => OpBudget::until(t),
        }
    }

    /// Admission checkpoint: fail fast if the deadline has already passed.
    pub fn admit(&self) -> Result<(), CscError> {
        if self.is_past() {
            Err(CscError::DeadlineExceeded)
        } else {
            Ok(())
        }
    }
}

impl Default for Deadline {
    fn default() -> Self {
        Deadline::NONE
    }
}

impl From<Option<Instant>> for Deadline {
    fn from(t: Option<Instant>) -> Self {
        Deadline(t)
    }
}

/// Bounded exponential backoff for retrying transient failures.
///
/// Attempt `k` (0-based) sleeps `base * 2^k`, capped at `cap`, scaled by
/// a deterministic jitter in `[0.5, 1.0)` derived from the attempt
/// number and a caller-supplied salt — deterministic so the
/// fault-injection suites see reproducible schedules, jittered so
/// concurrent retriers do not thundering-herd a recovering disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts including the first (1 = no retries).
    pub max_attempts: u32,
    /// Backoff before the first retry.
    pub base: Duration,
    /// Upper bound on any single backoff sleep.
    pub cap: Duration,
}

impl RetryPolicy {
    /// The durability plane's default: 4 attempts, 2ms base, 50ms cap.
    /// Worst-case added latency ≈ 2 + 4 + 8 ms ≈ 14ms before degrading.
    pub const DEFAULT_IO: RetryPolicy = RetryPolicy {
        max_attempts: 4,
        base: Duration::from_millis(2),
        cap: Duration::from_millis(50),
    };

    /// A policy that never retries.
    pub const NONE: RetryPolicy = RetryPolicy {
        max_attempts: 1,
        base: Duration::ZERO,
        cap: Duration::ZERO,
    };

    /// Builds a policy; `max_attempts` is clamped to at least 1.
    pub fn new(max_attempts: u32, base: Duration, cap: Duration) -> Self {
        RetryPolicy {
            max_attempts: max_attempts.max(1),
            base,
            cap,
        }
    }

    /// The sleep before retrying after failed attempt `attempt`
    /// (0-based), or `None` when the attempt budget is exhausted.
    pub fn backoff(&self, attempt: u32, salt: u64) -> Option<Duration> {
        if attempt + 1 >= self.max_attempts {
            return None;
        }
        let exp = self
            .base
            .saturating_mul(1u32.checked_shl(attempt).unwrap_or(u32::MAX))
            .min(self.cap);
        // splitmix64 of (attempt, salt) -> jitter factor in [0.5, 1.0).
        let mut z = salt
            .wrapping_add(u64::from(attempt))
            .wrapping_mul(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        let frac = 0.5 + (z >> 11) as f64 / (1u64 << 53) as f64 / 2.0;
        Some(exp.mul_f64(frac))
    }

    /// Runs `op` until it succeeds, fails with a non-transient error, or
    /// exhausts the attempt budget. Only errors for which
    /// [`CscError::is_transient_io`] holds are retried; the final error
    /// is returned as-is.
    pub fn run<T>(
        &self,
        salt: u64,
        mut op: impl FnMut(u32) -> Result<T, CscError>,
    ) -> Result<T, CscError> {
        let mut attempt = 0;
        loop {
            match op(attempt) {
                Ok(v) => return Ok(v),
                Err(e) if e.is_transient_io() => match self.backoff(attempt, salt) {
                    Some(sleep) => {
                        if !sleep.is_zero() {
                            std::thread::sleep(sleep);
                        }
                        attempt += 1;
                    }
                    None => return Err(e),
                },
                Err(e) => return Err(e),
            }
        }
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::DEFAULT_IO
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_deadline_admits_and_derives_an_unbounded_budget() {
        let d = Deadline::NONE;
        assert!(d.admit().is_ok());
        assert!(!d.is_past());
        let b = d.budget();
        for _ in 0..10_000 {
            b.checkpoint().unwrap();
        }
    }

    #[test]
    fn past_deadline_is_refused_at_admission() {
        let d = Deadline::at(Instant::now() - Duration::from_millis(1));
        assert!(d.is_past());
        assert_eq!(d.admit(), Err(CscError::DeadlineExceeded));
        assert!(d.budget().consume(1).is_err());
    }

    #[test]
    fn backoff_grows_caps_and_exhausts() {
        let p = RetryPolicy::new(4, Duration::from_millis(10), Duration::from_millis(25));
        let b0 = p.backoff(0, 7).unwrap();
        let b1 = p.backoff(1, 7).unwrap();
        let b2 = p.backoff(2, 7).unwrap();
        assert!(p.backoff(3, 7).is_none(), "4 attempts = 3 backoffs");
        // Jitter keeps each sleep within [0.5, 1.0) of the nominal value.
        assert!(b0 >= Duration::from_millis(5) && b0 < Duration::from_millis(10));
        assert!(b1 >= Duration::from_millis(10) && b1 < Duration::from_millis(20));
        assert!(b2 >= Duration::from_micros(12_500) && b2 < Duration::from_millis(25));
        // Deterministic: same (attempt, salt) -> same sleep.
        assert_eq!(p.backoff(1, 7), Some(b1));
        assert_ne!(p.backoff(1, 8), Some(b1), "salt perturbs the jitter");
    }

    #[test]
    fn run_retries_transient_io_only() {
        let p = RetryPolicy::new(3, Duration::ZERO, Duration::ZERO);
        let mut calls = 0;
        let out: Result<u32, _> = p.run(0, |attempt| {
            calls += 1;
            if attempt < 2 {
                Err(CscError::io(
                    "wal.append",
                    &std::io::Error::new(std::io::ErrorKind::Interrupted, "flaky"),
                ))
            } else {
                Ok(42)
            }
        });
        assert_eq!(out, Ok(42));
        assert_eq!(calls, 3);

        let mut calls = 0;
        let out: Result<u32, _> = p.run(0, |_| {
            calls += 1;
            Err(CscError::corrupt("wal-record", "crc mismatch"))
        });
        assert!(matches!(out, Err(CscError::Corrupt { .. })));
        assert_eq!(calls, 1, "deterministic failures are not retried");
    }

    #[test]
    fn run_gives_up_after_max_attempts() {
        let p = RetryPolicy::new(2, Duration::ZERO, Duration::ZERO);
        let mut calls = 0;
        let out: Result<(), _> = p.run(0, |_| {
            calls += 1;
            Err(CscError::io(
                "wal.fsync",
                &std::io::Error::new(std::io::ErrorKind::TimedOut, "hung"),
            ))
        });
        assert!(matches!(out, Err(CscError::Io { .. })));
        assert_eq!(calls, 2);
    }
}
