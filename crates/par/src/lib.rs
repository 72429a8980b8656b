//! Deterministic scoped parallelism for the workspace.
//!
//! Every parallel stage of the atlas build — corpus generation, per-cuisine
//! mining, elbow-sweep k values — is a *map over an index range* whose
//! per-index results are pure functions of the index.
//! This crate provides exactly that shape on `std::thread::scope`:
//!
//! * results come back **in index order** regardless of which worker
//!   computed what, so a parallel map is drop-in byte-identical to its
//!   sequential counterpart;
//! * workers **claim indices from a shared atomic counter**, optionally
//!   through a caller-supplied priority order so the costliest indices
//!   start first (longest-processing-time-first scheduling — the claim
//!   order changes wall-clock, never results);
//! * `threads <= 1` (or a single index) short-circuits to a plain
//!   sequential loop with no thread spawns at all.
//!
//! The scheduling guarantee callers rely on: **the output of
//! [`map_claiming`] depends only on `f` and the index range, never on the
//! thread count or the claim order.**

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicUsize, Ordering};

/// The machine's available parallelism (1 when it cannot be determined).
pub fn available() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Resolve a user-facing thread knob: `0` means "use all available
/// parallelism", anything else is taken as-is (minimum 1).
pub fn resolve(requested: usize) -> usize {
    if requested == 0 {
        available()
    } else {
        requested
    }
}

/// Parallel map over the index set in `claim_order` (a permutation of
/// `0..n`): workers claim positions of `claim_order` from an atomic
/// counter, so earlier entries start first, but the returned vector is
/// always `[f(0), ..., f(n-1)]` in index order — identical to the
/// sequential result for any thread count and any claim order.
///
/// # Panics
/// If `claim_order` is not a permutation of `0..claim_order.len()`, or a
/// worker panics (the panic is propagated).
pub fn map_claiming<T, F>(threads: usize, claim_order: &[usize], f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let n = claim_order.len();
    // Validate before spawning anything, so a bad claim order panics on
    // the calling thread with a diagnosable message instead of surfacing
    // as a wrapped worker/scope panic.
    let mut seen = vec![false; n];
    for &idx in claim_order {
        assert!(
            idx < n && !std::mem::replace(&mut seen[idx], true),
            "claim_order must be a permutation of 0..{n}"
        );
    }
    let threads = threads.max(1).min(n.max(1));
    if threads <= 1 || n <= 1 {
        // Sequential fast path: index order (the claim order is a
        // scheduling hint only and must not affect results).
        return (0..n).map(f).collect();
    }

    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut local: Vec<(usize, T)> = Vec::new();
                    loop {
                        let pos = next.fetch_add(1, Ordering::Relaxed);
                        if pos >= n {
                            break;
                        }
                        let idx = claim_order[pos];
                        local.push((idx, f(idx)));
                    }
                    local
                })
            })
            .collect();
        for handle in handles {
            // Re-raise a worker's panic with its original payload.
            let local = handle
                .join()
                .unwrap_or_else(|payload| std::panic::resume_unwind(payload));
            for (idx, value) in local {
                debug_assert!(slots[idx].is_none(), "index {idx} claimed twice");
                slots[idx] = Some(value);
            }
        }
    });

    slots
        .into_iter()
        .map(|s| s.expect("claim_order must cover every index"))
        .collect()
}

/// Indices `0..costs.len()` sorted by descending cost (ties by ascending
/// index): the canonical claim order for [`map_claiming`] when per-index
/// costs are known or estimable.
pub fn descending_cost_order<C: Ord + Copy>(costs: &[C]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..costs.len()).collect();
    order.sort_by(|&a, &b| costs[b].cmp(&costs[a]).then(a.cmp(&b)));
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    fn ascending(n: usize) -> Vec<usize> {
        (0..n).collect()
    }

    #[test]
    fn map_returns_index_order_for_any_thread_count() {
        let expect: Vec<usize> = (0..37).map(|i| i * i).collect();
        for threads in [0, 1, 2, 3, 8, 64] {
            assert_eq!(
                map_claiming(threads, &ascending(37), |i| i * i),
                expect,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn claim_order_never_changes_results() {
        let reversed: Vec<usize> = (0..20).rev().collect();
        let expect: Vec<usize> = (0..20).map(|i| i + 100).collect();
        for threads in [1, 2, 7] {
            assert_eq!(map_claiming(threads, &reversed, |i| i + 100), expect);
        }
    }

    #[test]
    fn every_index_runs_exactly_once() {
        let calls = AtomicUsize::new(0);
        let out = map_claiming(4, &ascending(100), |i| {
            calls.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(out.len(), 100);
        assert_eq!(calls.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn empty_and_single_inputs() {
        assert!(map_claiming(4, &ascending(0), |i| i).is_empty());
        assert_eq!(map_claiming(4, &ascending(1), |i| i + 1), vec![1]);
    }

    #[test]
    fn descending_cost_order_sorts_with_stable_ties() {
        assert_eq!(descending_cost_order(&[3u64, 9, 1, 9]), vec![1, 3, 0, 2]);
        assert!(descending_cost_order::<u64>(&[]).is_empty());
    }

    #[test]
    fn resolve_zero_means_available() {
        assert_eq!(resolve(0), available());
        assert_eq!(resolve(5), 5);
        assert!(available() >= 1);
    }

    #[test]
    #[should_panic(expected = "worker 3 failed")]
    fn worker_panic_reaches_the_caller() {
        let _ = map_claiming(2, &ascending(8), |i| {
            if i == 3 {
                panic!("worker {i} failed");
            }
            i
        });
    }

    #[test]
    #[should_panic(expected = "permutation")]
    fn duplicate_claim_indices_rejected() {
        let _ = map_claiming(2, &[0, 0, 1], |i| i);
    }
}
