//! Cooperative operation budgets for bounded-latency reads.
//!
//! The query and analytics paths above this crate run loops whose length
//! depends on the graph, not the caller: one intersection is as long as
//! the two labels it merges, and a whole-graph cycle sweep is `O(n)` of
//! them. Under overload, "run to completion" is the wrong
//! contract — a serving system needs every operation to either finish
//! within its latency budget or fail fast and leave the structure
//! untouched.
//!
//! [`OpBudget`] is the cooperative half of that contract: long loops
//! call [`checkpoint`](OpBudget::checkpoint) (or the cost-weighted
//! [`consume`](OpBudget::consume)) at safe abort points, and the budget
//! answers `Err(BudgetExceeded)` once its wall-clock deadline has
//! passed. Clock reads are amortized: the budget only consults
//! [`Instant::now`] every [`stride`](OpBudget::with_stride) work units,
//! so a checkpoint in a hot loop costs a counter decrement and a
//! well-predicted branch.
//!
//! The budget is deliberately *not* `Sync` (it counts through
//! [`Cell`]s): parallel passes derive one budget per worker from the
//! shared deadline instant ([`OpBudget::deadline`] +
//! [`OpBudget::until`]), which also keeps expiry checks contention-free.

use std::cell::Cell;
use std::fmt;
use std::time::{Duration, Instant};

/// Work units between wall-clock reads on a deadline-carrying budget.
pub const DEFAULT_STRIDE: u32 = 1024;

/// The error a budgeted operation returns when its deadline passes at a
/// cancellation checkpoint. Carries no payload: the aborted operation is
/// specified to have no observable effect, so there is nothing to report
/// beyond the fact.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BudgetExceeded;

impl fmt::Display for BudgetExceeded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("operation budget exceeded at a cancellation checkpoint")
    }
}

impl std::error::Error for BudgetExceeded {}

/// A cooperative wall-clock budget threaded through the label
/// intersection kernels.
///
/// ```
/// use csc_graph::budget::OpBudget;
/// use std::time::Duration;
///
/// let unbounded = OpBudget::unbounded();
/// assert!(unbounded.checkpoint().is_ok());
///
/// let expired = OpBudget::within(Duration::ZERO);
/// assert!(expired.checkpoint().is_err());
/// assert!(expired.is_expired());
/// ```
#[derive(Debug)]
pub struct OpBudget {
    deadline: Option<Instant>,
    stride: u32,
    countdown: Cell<u32>,
    expired: Cell<bool>,
}

impl Default for OpBudget {
    fn default() -> Self {
        OpBudget::unbounded()
    }
}

impl OpBudget {
    /// A budget that never expires: every checkpoint is a single branch.
    pub fn unbounded() -> Self {
        OpBudget {
            deadline: None,
            stride: DEFAULT_STRIDE,
            countdown: Cell::new(u32::MAX),
            expired: Cell::new(false),
        }
    }

    /// A budget expiring at `deadline`.
    pub fn until(deadline: Instant) -> Self {
        OpBudget {
            deadline: Some(deadline),
            stride: DEFAULT_STRIDE,
            // First checkpoint reads the clock: an already-expired
            // deadline must fail fast rather than survive a stride.
            countdown: Cell::new(0),
            expired: Cell::new(false),
        }
    }

    /// A budget expiring `limit` from now.
    pub fn within(limit: Duration) -> Self {
        Self::until(Instant::now() + limit)
    }

    /// Overrides the work units between clock reads (clamped to ≥ 1).
    /// Smaller strides bound overshoot tighter at the cost of more
    /// `Instant::now` calls.
    pub fn with_stride(mut self, stride: u32) -> Self {
        self.stride = stride.max(1);
        if self.deadline.is_some() {
            self.countdown.set(0);
        }
        self
    }

    /// The wall-clock deadline, if bounded — the piece parallel passes
    /// share to derive per-worker budgets.
    #[inline]
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// `true` once a checkpoint has observed the deadline in the past.
    /// Sticky: an expired budget never un-expires.
    #[inline]
    pub fn is_expired(&self) -> bool {
        self.expired.get()
    }

    /// One cancellation checkpoint (a single work unit).
    #[inline]
    pub fn checkpoint(&self) -> Result<(), BudgetExceeded> {
        self.consume(1)
    }

    /// A cost-weighted cancellation checkpoint: `units` of work are about
    /// to run (or just ran) as an atomic step. The clock is consulted
    /// once at most every [`with_stride`](Self::with_stride) units.
    #[inline]
    pub fn consume(&self, units: usize) -> Result<(), BudgetExceeded> {
        if self.deadline.is_none() {
            return Ok(());
        }
        let left = self.countdown.get();
        let units = u32::try_from(units).unwrap_or(u32::MAX);
        if units < left {
            self.countdown.set(left - units);
            return Ok(());
        }
        self.check_clock()
    }

    #[cold]
    fn check_clock(&self) -> Result<(), BudgetExceeded> {
        if self.expired.get() {
            return Err(BudgetExceeded);
        }
        let deadline = self.deadline.expect("bounded budgets reach the clock");
        if Instant::now() >= deadline {
            self.expired.set(true);
            return Err(BudgetExceeded);
        }
        self.countdown.set(self.stride);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbounded_never_expires() {
        let b = OpBudget::unbounded();
        for _ in 0..10_000 {
            b.checkpoint().unwrap();
        }
        b.consume(usize::MAX).unwrap();
        assert!(!b.is_expired());
        assert_eq!(b.deadline(), None);
    }

    #[test]
    fn zero_deadline_fails_the_first_checkpoint() {
        let b = OpBudget::within(Duration::ZERO);
        assert_eq!(b.checkpoint(), Err(BudgetExceeded));
        assert!(b.is_expired());
        // Sticky across further checkpoints.
        assert_eq!(b.consume(1), Err(BudgetExceeded));
    }

    #[test]
    fn generous_deadline_allows_work_then_expires() {
        let b = OpBudget::within(Duration::from_secs(3600)).with_stride(4);
        for _ in 0..100 {
            b.checkpoint().unwrap();
        }
        assert!(!b.is_expired());
        // A budget pinned to an instant already in the past expires as
        // soon as the stride forces a clock read.
        let past = OpBudget::until(Instant::now() - Duration::from_millis(1)).with_stride(8);
        let mut failed = false;
        for _ in 0..16 {
            if past.checkpoint().is_err() {
                failed = true;
                break;
            }
        }
        assert!(failed, "stride must force a clock read within 16 units");
    }

    #[test]
    fn consume_weights_work_against_the_stride() {
        let b = OpBudget::until(Instant::now() - Duration::from_millis(1)).with_stride(1000);
        // A single heavy step crosses the stride in one call.
        assert_eq!(b.consume(5000), Err(BudgetExceeded));
    }

    #[test]
    fn derived_budget_shares_the_deadline() {
        let b = OpBudget::within(Duration::from_secs(10));
        let worker = OpBudget::until(b.deadline().unwrap());
        assert_eq!(worker.deadline(), b.deadline());
        worker.checkpoint().unwrap();
        assert!(!b.is_expired(), "workers expire independently");
    }
}
