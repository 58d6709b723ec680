//! Fan-out helper for the parallel build plane.
//!
//! Label builds parallelize across *hubs*: a wave of per-hub traversals is
//! computed concurrently against an immutable label snapshot, then the
//! results are committed in hub-rank order (see `build.rs`). Label repair
//! never fans out: its passes run serially at every width. The items
//! are few and heavy — far below the data-parallel iterator cutoff — so
//! the fan-out here spawns one scope task per worker and lets the tasks
//! pull indexes from a shared counter, which load-balances skewed hub
//! cones without caring which pool worker runs what.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Maps `f` over `0..len` with up to `width` concurrent workers, returning
/// the results in index order. `width <= 1` (or a single item) runs inline
/// on the caller. A panic inside `f` propagates to the caller with its
/// original payload once all in-flight items have settled, so the
/// engine's `catch_unwind` degradation path sees worker faults exactly
/// like sequential ones.
pub(crate) fn par_map_indexed<T, F>(width: usize, len: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if width <= 1 || len <= 1 {
        return (0..len).map(f).collect();
    }
    let slots: Vec<Mutex<Option<T>>> = (0..len).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    rayon::scope(|s| {
        for _ in 0..width.min(len) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::SeqCst);
                if i >= len {
                    break;
                }
                let value = f(i);
                let prev = slots[i].lock().expect("slot lock poisoned").replace(value);
                debug_assert!(prev.is_none(), "each index is claimed exactly once");
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("slot lock poisoned")
                .expect("scope settled every claimed index")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_in_order_at_any_width() {
        for width in [0, 1, 2, 4, 9] {
            let out = par_map_indexed(width, 23, |i| i * i);
            assert_eq!(out, (0..23).map(|i| i * i).collect::<Vec<_>>());
        }
        assert!(par_map_indexed(4, 0, |i| i).is_empty());
    }

    #[test]
    fn panics_propagate_from_workers() {
        let caught = std::panic::catch_unwind(|| {
            par_map_indexed(3, 16, |i| {
                if i == 7 {
                    panic!("hub 7 exploded");
                }
                i
            })
        });
        let payload = caught.unwrap_err();
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert!(msg.contains("hub 7 exploded"), "got {msg:?}");
    }
}
