//! Order-preserving parallel sweeps for independent experiment points.
//!
//! The scenario batch runner fans a manifest's runs (one COCA year per V
//! value, one OPT plan per budget) out over this pool; on multicore
//! machines this cuts wall-clock time roughly by the core count. Built on
//! crossbeam scoped threads with a per-item channel send instead of a
//! shared results lock — results come back in input order, and a panic in
//! any worker propagates.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Process-wide default worker count used when a sweep requests `0`
/// workers. `0` (the initial value) means "use all available cores"; the
/// benchmark tracer (`perfbench/tracer`) overrides it once at startup.
/// `repro --workers N` passes its count to each batch explicitly instead.
static DEFAULT_WORKERS: AtomicUsize = AtomicUsize::new(0);

/// Sets the process-wide default worker count consulted by
/// [`effective_workers`] (and therefore by every `workers == 0` sweep).
/// `n == 0` restores the "all available cores" behavior.
pub fn set_default_workers(n: usize) {
    // audit:atomic(Relaxed store: config cell written once at startup before any sweep; no other memory published through it)
    DEFAULT_WORKERS.store(n, Ordering::Relaxed);
}

/// Resolves a requested worker count: explicit requests pass through,
/// `0` falls back to the process-wide default set by
/// [`set_default_workers`], and a zero default means all available cores.
pub fn effective_workers(requested: usize) -> usize {
    if requested != 0 {
        return requested;
    }
    // audit:atomic(Relaxed load: pairs with the startup-time Relaxed store in set_default_workers; value-only config)
    let default = DEFAULT_WORKERS.load(Ordering::Relaxed);
    if default != 0 {
        return default;
    }
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Applies `f` to every item, running up to `workers` items concurrently,
/// and returns outputs in input order.
///
/// `workers == 0` means "use the process default" — the value set via
/// [`set_default_workers`], or all available cores
/// (`std::thread::available_parallelism()`) when no default was set.
///
/// Each worker sends `(index, output)` pairs over a channel sized to hold
/// every result, so finished items never contend on a shared lock and sends
/// never block; the results vector is assembled once after the scope joins.
pub fn sweep<T, R, F>(items: Vec<T>, workers: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let workers = effective_workers(workers);
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let workers = workers.min(n);
    if workers == 1 {
        return items.into_iter().map(f).collect();
    }

    let queue: crossbeam::queue::SegQueue<(usize, T)> = crossbeam::queue::SegQueue::new();
    for pair in items.into_iter().enumerate() {
        queue.push(pair);
    }
    // Capacity n: every send succeeds immediately even if the receiver only
    // drains after all workers have exited.
    let (tx, rx) = crossbeam::channel::bounded::<(usize, R)>(n);
    let f = &f;
    let queue = &queue;
    crossbeam::thread::scope(|scope| {
        for _ in 0..workers {
            let tx = tx.clone();
            scope.spawn(move |_| {
                while let Some((idx, item)) = queue.pop() {
                    let out = f(item);
                    assert!(tx.send((idx, out)).is_ok(), "receiver outlives the scope");
                }
            });
        }
    })
    .expect("sweep worker panicked");
    drop(tx);
    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    // audit:ordered(every message carries its item index and lands in its slot; arrival order cannot reach the result vector)
    while let Ok((idx, out)) = rx.try_recv() {
        slots[idx] = Some(out);
    }
    slots.into_iter().map(|r| r.expect("every slot filled")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let out = sweep((0..50).collect(), 4, |x: i32| x * x);
        assert_eq!(out, (0..50).map(|x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn single_worker_sequential_path() {
        let out = sweep(vec![3, 1, 4], 1, |x: i32| x + 1);
        assert_eq!(out, vec![4, 2, 5]);
    }

    #[test]
    fn empty_input() {
        let out: Vec<i32> = sweep(Vec::<i32>::new(), 4, |x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn more_workers_than_items() {
        let out = sweep(vec![10, 20], 16, |x: i32| x / 10);
        assert_eq!(out, vec![1, 2]);
    }

    #[test]
    fn actually_runs_concurrently_when_possible() {
        // Not a timing assertion (single-core CI), just checks that work is
        // pulled from a shared queue by multiple threads without loss.
        use std::sync::atomic::{AtomicUsize, Ordering};
        let counter = AtomicUsize::new(0);
        let out = sweep((0..200).collect(), 8, |x: usize| {
            counter.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(counter.load(Ordering::Relaxed), 200);
        assert_eq!(out.len(), 200);
    }

    #[test]
    fn zero_workers_defaults_to_available_parallelism() {
        let out = sweep((0..20).collect(), 0, |x: i32| x * 2);
        assert_eq!(out, (0..20).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn default_workers_override_resolves_zero_requests() {
        // Serialized with the other tests only through the global cell, so
        // restore the default before returning either way.
        set_default_workers(3);
        assert_eq!(effective_workers(0), 3);
        assert_eq!(effective_workers(5), 5, "explicit requests win over the default");
        let out = sweep((0..20).collect(), 0, |x: i32| x + 1);
        set_default_workers(0);
        assert_eq!(out, (1..21).collect::<Vec<_>>());
        assert!(effective_workers(0) >= 1, "zero default falls back to the core count");
    }
}
