//! Ordered fan-out: the workspace's one worker-pool primitive.
//!
//! Every parallel loop in the reproduction — day simulation and vantage
//! observation, the sharded world generator, the analysis stage's per-day
//! and per-row comparisons — has the same shape: independent work items
//! `0..n` whose results must reach the caller in index order, so the output
//! is byte-identical at any worker count. [`for_each_ordered`] is that
//! shape, with the sequential semantics as its inline path:
//!
//! - each of `min(workers, n)` scoped threads builds its own state once with
//!   `init`, and reuses it for every index it claims (warmed scratch
//!   capacity survives across items without a shared pool);
//! - workers claim indices from one atomic counter and run
//!   `work(&mut state, i)`;
//! - `fold(i, result)` runs on the calling thread in strictly ascending `i`;
//! - a worker starts index `i` only while `i < folded + 2·workers`, so at
//!   most `2·workers` results ever wait for the fold, however slow one item
//!   is;
//! - `workers <= 1 || n <= 1` runs inline with one state and no threads.
//!
//! A panic in `init`, `work` or `fold` stops the other workers and
//! propagates to the caller instead of leaving the fold waiting.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Condvar, Mutex, MutexGuard, PoisonError};

/// Runs `work` over `0..n` on up to `workers` threads, folding each result
/// on the calling thread in ascending index order.
///
/// `init` builds one state per worker (at most `min(workers, n)` calls);
/// `work` must not depend on which state it is handed beyond what `init`
/// put there, which is what makes the result independent of scheduling.
pub fn for_each_ordered<S, T, I, W, F>(n: usize, workers: usize, init: I, work: W, mut fold: F)
where
    T: Send,
    I: Fn() -> S + Sync,
    W: Fn(&mut S, usize) -> T + Sync,
    F: FnMut(usize, T),
{
    if n == 0 {
        return;
    }
    if workers <= 1 || n <= 1 {
        let mut state = init();
        for i in 0..n {
            fold(i, work(&mut state, i));
        }
        return;
    }

    let workers = workers.min(n);
    let window = 2 * workers;
    let next = AtomicUsize::new(0);
    let gate = Gate::default();
    let (tx, rx) = mpsc::channel::<(usize, T)>();
    std::thread::scope(|s| {
        for _ in 0..workers {
            let tx = tx.clone();
            let (next, gate, init, work) = (&next, &gate, &init, &work);
            s.spawn(move || {
                let _abort = AbortOnPanic(gate);
                let mut state = init();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n || !gate.admit(i, window) {
                        break;
                    }
                    // The receiver only disappears if the fold is unwinding;
                    // the remaining work is moot then.
                    if tx.send((i, work(&mut state, i))).is_err() {
                        break;
                    }
                }
            });
        }
        drop(tx); // the fold loop's recv() must not wait on this clone

        // Admission keeps every unfolded result inside
        // `folded..folded + window`, so a ring of `window` slots reorders
        // arrivals without collisions.
        let _abort = AbortOnPanic(&gate);
        let mut slots: Vec<Option<T>> = Vec::with_capacity(window);
        slots.resize_with(window, || None);
        let mut folded = 0usize;
        while folded < n {
            let Ok((i, t)) = rx.recv() else {
                // Every worker exited early; a worker panic is about to be
                // propagated by the scope itself.
                break;
            };
            slots[i % window] = Some(t);
            while let Some(t) = slots[folded % window].take() {
                fold(folded, t);
                folded += 1;
                gate.advance(folded);
            }
        }
    });
}

/// Computes `f(0..n)` on up to `workers` threads, returning the results in
/// index order: the collecting form of [`for_each_ordered`].
pub fn map_ordered<T, F>(n: usize, workers: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let mut out = Vec::with_capacity(n);
    for_each_ordered(n, workers, || (), |(), i| f(i), |_, t| out.push(t));
    out
}

/// The fold's progress, which admission waits on.
#[derive(Default)]
struct Gate {
    progress: Mutex<Progress>,
    moved: Condvar,
}

#[derive(Default)]
struct Progress {
    folded: usize,
    aborted: bool,
}

impl Gate {
    /// The lock is never held across caller code and every update is one
    /// field store, so a poisoned guard still holds valid progress.
    fn lock(&self) -> MutexGuard<'_, Progress> {
        self.progress.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Blocks until index `i` lies inside the window ahead of the fold;
    /// `false` if the fan-out is being abandoned instead.
    fn admit(&self, i: usize, window: usize) -> bool {
        let mut p = self.lock();
        while !p.aborted && i >= p.folded + window {
            p = self.moved.wait(p).unwrap_or_else(PoisonError::into_inner);
        }
        !p.aborted
    }

    fn advance(&self, folded: usize) {
        self.lock().folded = folded;
        self.moved.notify_all();
    }

    fn abort(&self) {
        self.lock().aborted = true;
        self.moved.notify_all();
    }
}

/// Releases every waiting worker if the thread holding it unwinds, so a
/// panic anywhere ends the fan-out instead of deadlocking the scope's join.
struct AbortOnPanic<'a>(&'a Gate);

impl Drop for AbortOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.abort();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::time::Duration;

    const WIDTHS: [usize; 5] = [1, 2, 3, 8, 64];

    #[test]
    fn matches_sequential_at_any_width() {
        for n in [0, 1, 37] {
            let expected: Vec<usize> = (0..n).map(|i| i * i).collect();
            for workers in WIDTHS {
                assert_eq!(
                    map_ordered(n, workers, |i| i * i),
                    expected,
                    "n={n} workers={workers}"
                );
            }
        }
    }

    #[test]
    fn folds_in_index_order_even_when_completion_is_reversed() {
        // Early indices sleep longest, so completion order runs backwards
        // within each admission window; the fold must still see 0, 1, 2, ...
        for workers in WIDTHS {
            let mut seen = Vec::new();
            for_each_ordered(
                12,
                workers,
                || (),
                |(), i| {
                    std::thread::sleep(Duration::from_millis(
                        crate::cast::u64_from_usize(12 - i) * 2,
                    ));
                    i
                },
                |i, v| {
                    assert_eq!(i, v);
                    seen.push(i);
                },
            );
            assert_eq!(seen, (0..12).collect::<Vec<_>>(), "workers={workers}");
        }
    }

    #[test]
    fn one_state_per_worker_reused_across_indices() {
        for n in [0, 1, 37] {
            for workers in WIDTHS {
                let made = AtomicUsize::new(0);
                let mut uses: Vec<usize> = Vec::new();
                for_each_ordered(
                    n,
                    workers,
                    || made.fetch_add(1, Ordering::Relaxed),
                    |id, _| *id,
                    |_, id| {
                        if uses.len() <= id {
                            uses.resize(id + 1, 0);
                        }
                        uses[id] += 1;
                    },
                );
                let made = made.load(Ordering::Relaxed);
                assert!(made <= workers.min(n), "n={n} workers={workers}: {made}");
                assert_eq!(uses.iter().sum::<usize>(), n);
                if n > workers {
                    // More indices than states: some state served several.
                    assert!(uses.iter().any(|&u| u > 1), "n={n} workers={workers}");
                }
            }
        }
    }

    #[test]
    fn a_slow_index_bounds_the_results_awaiting_the_fold() {
        // Index 0 holds back until every other index is done or 200 ms have
        // passed, so every later result must wait for it. Without admission
        // control the other workers would run to the end and park all 63
        // results in the reorder buffer.
        const N: usize = 64;
        for workers in [2, 3, 4] {
            let produced = AtomicUsize::new(0);
            let folded = AtomicUsize::new(0);
            let peak = AtomicUsize::new(0);
            for_each_ordered(
                N,
                workers,
                || (),
                |(), i| {
                    if i == 0 {
                        for _ in 0..200 {
                            if produced.load(Ordering::SeqCst) == N - 1 {
                                break;
                            }
                            std::thread::sleep(Duration::from_millis(1));
                        }
                    }
                    let made = produced.fetch_add(1, Ordering::SeqCst) + 1;
                    let waiting = made - folded.load(Ordering::SeqCst);
                    peak.fetch_max(waiting, Ordering::SeqCst);
                },
                |_, ()| {
                    folded.fetch_add(1, Ordering::SeqCst);
                },
            );
            let peak = peak.load(Ordering::SeqCst);
            assert!(
                peak <= 2 * workers,
                "workers={workers}: {peak} results awaited the fold at once"
            );
        }
    }

    #[test]
    fn a_panicking_work_item_propagates() {
        for workers in [1, 2, 3, 8] {
            let outcome = catch_unwind(|| {
                map_ordered(40, workers, |i| {
                    if i == 5 {
                        panic!("work item {i} failed");
                    }
                    i
                })
            });
            assert!(outcome.is_err(), "workers={workers}");
        }
    }

    #[test]
    fn a_panicking_fold_propagates() {
        for workers in [1, 2, 8] {
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                for_each_ordered(
                    40,
                    workers,
                    || (),
                    |(), i| i,
                    |i, _| {
                        if i == 3 {
                            panic!("fold {i} failed");
                        }
                    },
                );
            }));
            assert!(outcome.is_err(), "workers={workers}");
        }
    }
}
