//! Offline shim for the [`rayon`](https://crates.io/crates/rayon) crate.
//!
//! Implements exactly what this workspace calls:
//!
//! * [`current_num_threads`] — `CSC_THREADS` when set to a positive
//!   integer, otherwise `available_parallelism`, read once;
//! * `(0..n).into_par_iter().map(f).collect()` over `Range<usize>`, into a
//!   `Vec` in index order, or into a `Result<Vec<_>, E>` that stops
//!   handing out work at the first `Err`.
//!
//! Divergence from the real crate: there is no pool. A collect runs on the
//! calling thread plus at most `current_num_threads() - 1` threads of a
//! [`std::thread::scope`], spawned for that call and joined before it
//! returns, so no thread outlives it. The threads take chunks of 64
//! indexes from one atomic cursor. A collect with fewer than 512 items
//! per thread runs inline, and a thread's panic reaches the caller with
//! its original payload.

#![forbid(unsafe_code)]

use std::convert::Infallible;
use std::ops::Range;
use std::panic;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// A collect spawns no more threads than keep this many items each: below
/// it a spawn costs more than the work it takes over.
const SEQUENTIAL_CUTOFF: usize = 512;

/// Indexes a thread takes from the cursor at a time. Small, so that the
/// threads finish together, and a failed item stops each other thread
/// within the one chunk it holds.
const CHUNK: usize = 64;

/// The width of a collect: `CSC_THREADS` when set to a positive integer,
/// otherwise `available_parallelism`. Read once, at first use.
pub fn current_num_threads() -> usize {
    static WIDTH: OnceLock<usize> = OnceLock::new();
    *WIDTH.get_or_init(|| {
        std::env::var("CSC_THREADS")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
    })
}

/// The common import surface (`use rayon::prelude::*`).
pub mod prelude {
    pub use crate::IntoParallelIterator;
}

/// Conversion into a parallel iterator (`(0..n).into_par_iter()`).
pub trait IntoParallelIterator {
    /// The resulting iterator.
    type Iter;

    /// Consumes `self` into a parallel iterator.
    fn into_par_iter(self) -> Self::Iter;
}

impl IntoParallelIterator for Range<usize> {
    type Iter = Iter;

    fn into_par_iter(self) -> Iter {
        Iter { range: self }
    }
}

/// A parallel iterator over a `Range<usize>`.
pub struct Iter {
    range: Range<usize>,
}

impl Iter {
    /// Maps every index through `f` when the result is collected.
    pub fn map<F>(self, f: F) -> Map<F> {
        Map {
            range: self.range,
            f,
        }
    }
}

/// A range mapped through `f`.
pub struct Map<F> {
    range: Range<usize>,
    f: F,
}

impl<T: Send, F: Fn(usize) -> T + Sync> Map<F> {
    /// Evaluates every item at [`current_num_threads`] and collects them
    /// in index order.
    pub fn collect<C: FromParallelIterator<T>>(self) -> C {
        let Range { start, end } = self.range;
        let f = self.f;
        C::from_par_iter(end.saturating_sub(start), |i| f(start + i))
    }
}

/// What a [`Map`] collects into: a `Vec<T>`, or a `Result<Vec<T>, E>`
/// from items of type `Result<T, E>`.
pub trait FromParallelIterator<T> {
    /// Collects `item(i)` for every `i` in `0..len`, in index order.
    fn from_par_iter(len: usize, item: impl Fn(usize) -> T + Sync) -> Self;
}

impl<T: Send> FromParallelIterator<T> for Vec<T> {
    fn from_par_iter(len: usize, item: impl Fn(usize) -> T + Sync) -> Self {
        drive_ok(len, current_num_threads(), item)
    }
}

impl<T: Send, E: Send> FromParallelIterator<Result<T, E>> for Result<Vec<T>, E> {
    fn from_par_iter(len: usize, item: impl Fn(usize) -> Result<T, E> + Sync) -> Self {
        drive(len, current_num_threads(), item)
    }
}

/// [`drive`] over items that cannot fail.
fn drive_ok<T: Send>(len: usize, width: usize, item: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let Ok(items) = drive(len, width, |i| Ok::<T, Infallible>(item(i)));
    items
}

/// Evaluates `item(i)` for every `i` in `0..len` on the calling thread
/// plus at most `width - 1` scoped threads, and returns the outputs in
/// index order.
///
/// The first `Err` ends the chunk it falls in, and no chunk is handed out
/// after it. Chunks leave the cursor in index order, so every chunk below
/// a failed one is evaluated in full: the error returned is the one at
/// the lowest failed index, as a serial collect would return.
fn drive<T: Send, E: Send>(
    len: usize,
    width: usize,
    item: impl Fn(usize) -> Result<T, E> + Sync,
) -> Result<Vec<T>, E> {
    let threads = width.min(len / SEQUENTIAL_CUTOFF);
    if threads <= 1 {
        return evaluate(0..len, item);
    }
    let chunks = len.div_ceil(CHUNK);
    // Relaxed: the cursor publishes no data; a thread's outputs reach the
    // caller through its join.
    let cursor = AtomicUsize::new(0);
    let work = || {
        let mut pieces = Vec::new();
        loop {
            let c = cursor.fetch_add(1, Ordering::Relaxed);
            if c >= chunks {
                return pieces;
            }
            let piece = evaluate(c * CHUNK..len.min((c + 1) * CHUNK), &item);
            if piece.is_err() {
                cursor.fetch_max(chunks, Ordering::Relaxed);
            }
            pieces.push((c, piece));
        }
    };
    let mut pieces = std::thread::scope(|s| {
        let spawned: Vec<_> = (1..threads).map(|_| s.spawn(work)).collect();
        let mut pieces = work();
        for thread in spawned {
            match thread.join() {
                Ok(more) => pieces.extend(more),
                Err(payload) => panic::resume_unwind(payload),
            }
        }
        pieces
    });
    pieces.sort_unstable_by_key(|&(c, _)| c);
    let mut out = Vec::with_capacity(len);
    for (_, piece) in pieces {
        out.extend(piece?);
    }
    Ok(out)
}

/// `item(i)` for every `i` in `range`, in order, up to the first `Err`.
fn evaluate<T, E>(range: Range<usize>, item: impl Fn(usize) -> Result<T, E>) -> Result<Vec<T>, E> {
    let mut out = Vec::with_capacity(range.len());
    for i in range {
        out.push(item(i)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicBool;
    use std::sync::Mutex;

    #[test]
    fn collect_keeps_index_order_at_every_width() {
        for width in 1..=4 {
            for len in [0, 1, 511, 512, 513, 5_000] {
                let expected: Vec<usize> = (0..len).map(|i| i * 7).collect();
                assert_eq!(
                    drive_ok(len, width, |i| i * 7),
                    expected,
                    "{len} at {width}"
                );
                let ok: Result<Vec<usize>, ()> = drive(len, width, |i| Ok(i * 7));
                assert_eq!(ok, Ok(expected), "{len} items at width {width}");
            }
        }
    }

    #[test]
    fn range_into_par_iter() {
        let squares: Vec<usize> = (0usize..5_000).into_par_iter().map(|i| i * i).collect();
        assert_eq!(squares[4_999], 4_999 * 4_999);
        let tail: Vec<usize> = (4_000usize..5_000).into_par_iter().map(|i| i * i).collect();
        assert_eq!(tail[..], squares[4_000..]);
    }

    #[test]
    fn at_most_width_threads_evaluate_items() {
        for width in 1..=4 {
            let seen = Mutex::new(HashSet::new());
            drive_ok(5_000, width, |_| {
                let id = std::thread::current().id();
                seen.lock().expect("no item panics").insert(id);
            });
            let seen = seen.into_inner().expect("no item panics").len();
            assert!(
                (1..=width).contains(&seen),
                "{seen} threads at width {width}"
            );
        }
    }

    #[test]
    fn a_failed_item_stops_the_hand_out() {
        const FAILS_AT: usize = 10;
        for width in 1..=4 {
            let failed = AtomicBool::new(false);
            let evaluated = AtomicUsize::new(0);
            let out: Result<Vec<usize>, usize> = drive(1_000_000, width, |i| {
                evaluated.fetch_add(1, Ordering::Relaxed);
                if i == FAILS_AT {
                    failed.store(true, Ordering::SeqCst);
                    return Err(i);
                }
                // Later items wait for the failure, so every other thread
                // holds one chunk when it happens, however they are
                // scheduled.
                while i > FAILS_AT && !failed.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
                Ok(i)
            });
            assert_eq!(out, Err(FAILS_AT));
            let evaluated = evaluated.into_inner();
            assert!(evaluated < 10_000, "{evaluated} items at width {width}");
        }
    }

    #[test]
    fn panic_propagates_with_original_payload() {
        for width in 2..=4 {
            let caller = std::thread::current().id();
            let raised = AtomicBool::new(false);
            let caught = panic::catch_unwind(panic::AssertUnwindSafe(|| {
                drive_ok(5_000, width, |_| {
                    if std::thread::current().id() != caller {
                        raised.store(true, Ordering::SeqCst);
                        panic!("injected fault 17");
                    }
                    // The calling thread waits, so a spawned thread takes
                    // a chunk and panics.
                    while !raised.load(Ordering::SeqCst) {
                        std::thread::yield_now();
                    }
                })
            }));
            let payload = caught.expect_err("the collect re-raises the thread's panic");
            let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
            assert!(msg.contains("injected fault 17"), "got {msg:?}");
        }
    }

    #[test]
    fn current_num_threads_is_positive() {
        assert!(current_num_threads() >= 1);
    }
}
