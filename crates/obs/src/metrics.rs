//! The metrics registry: counters, gauges, and fixed-bucket histograms.
//!
//! Handles ([`Counter`], [`Gauge`], [`Histogram`]) are `Arc`-shared and
//! internally atomic, so hot-path updates never take a lock; the
//! registry's `RwLock` guards only the name → handle tables and is touched
//! at registration and snapshot time. Gauges additionally record an
//! optional `(t, value)` trajectory (used for the carbon-deficit queue
//! q(t) of paper eq. 17) behind a `Mutex` — trajectory points are appended
//! once per slot, not per proposal, so the lock is far off the hot path.
//!
//! Floating-point accumulation (histogram sums, gauge values) is stored as
//! `f64::to_bits` in an `AtomicU64` and updated with a compare-exchange
//! loop, keeping the whole registry `Send + Sync` without wider locks.
//!
//! ## The `Relaxed`-only memory contract
//!
//! Every atomic in this module uses `Ordering::Relaxed`, and that is a
//! *contract*, not an oversight: each atomic is an **independent
//! statistic** — no code anywhere reads one metric to decide whether
//! another metric's write has happened, so there is no cross-variable
//! ordering to pay for. Two disciplines keep that sound:
//!
//! 1. **No check-then-act across atomics.** Read-modify-write is always a
//!    single `fetch_*` or a `compare_exchange_weak` retry loop on *one*
//!    cell (`atomic_f64_add`); nothing loads cell A to guard a store to
//!    cell B.
//! 2. **Snapshot reads order `count` before `buckets`.** The one
//!    cross-cell *consistency* (not ordering) guarantee we expose is
//!    `count ≤ Σ buckets` in a [`Histogram`] snapshot; see
//!    [`Histogram::consistent_read`] for why the read order delivers it.
//!
//! Both disciplines are pinned dynamically: `tests/loom.rs` model-checks
//! the primitives under every interleaving (`RUSTFLAGS="--cfg loom"`), and
//! the `atomic-ordering` audit lint statically requires the
//! `// audit:atomic(<contract>)` annotations below on every atomic op.
//! The atomics come from the private `sync` module, which swaps in loom's
//! instrumented mocks under `--cfg loom`.

use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use crate::snapshot::{CounterSnapshot, GaugeSnapshot, HistogramSnapshot, MetricsSnapshot};
use crate::sync::{AtomicU64, Ordering};

/// Adds `v` to an f64 stored as bits in an atomic, lock-free.
///
/// The retry loop uses `compare_exchange_weak` (not the strong variant):
/// the loop re-reads and retries on failure anyway, so a spurious failure
/// costs one extra iteration and the weak form compiles to the cheaper
/// LL/SC loop on ARM. Failure ordering matches success ordering
/// (`Relaxed`/`Relaxed`) — the loop derives nothing from the failed read
/// beyond the refreshed value, so a stronger failure ordering would buy
/// no correctness, only fence traffic.
fn atomic_f64_add(bits: &AtomicU64, v: f64) {
    // audit:atomic(relaxed seed read; CAS loop below revalidates)
    let mut cur = bits.load(Ordering::Relaxed);
    loop {
        let next = (f64::from_bits(cur) + v).to_bits();
        // audit:atomic(single-cell RMW retry loop; relaxed success==failure)
        match bits.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(seen) => cur = seen,
        }
    }
}

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Increments by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increments by `n`.
    pub fn add(&self, n: u64) {
        // audit:atomic(independent statistic; single-cell RMW, relaxed)
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        // audit:atomic(diagnostic read; no cross-variable ordering)
        self.value.load(Ordering::Relaxed)
    }
}

/// A last-write-wins instantaneous value with an optional recorded
/// `(t, value)` trajectory.
#[derive(Debug)]
pub struct Gauge {
    bits: AtomicU64,
    trajectory: Mutex<Vec<(u64, f64)>>,
}

impl Default for Gauge {
    fn default() -> Self {
        Self { bits: AtomicU64::new(0f64.to_bits()), trajectory: Mutex::new(Vec::new()) }
    }
}

impl Gauge {
    /// Sets the instantaneous value (no trajectory point). Last write
    /// wins; a torn value is impossible because the full f64 bit pattern
    /// moves in one atomic store.
    pub fn set(&self, v: f64) {
        // audit:atomic(last-write-wins publish of a whole f64; relaxed)
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        // audit:atomic(diagnostic read; no cross-variable ordering)
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }

    /// Sets the value *and* appends a `(t, v)` trajectory point.
    pub fn record(&self, t: usize, v: f64) {
        self.set(v);
        self.trajectory.lock().push((t as u64, v));
    }

    /// Copy of the recorded trajectory, in record order.
    pub fn trajectory(&self) -> Vec<(u64, f64)> {
        self.trajectory.lock().clone()
    }
}

/// A fixed-bucket cumulative-style histogram.
///
/// `bounds` are the inclusive upper bounds of the finite buckets
/// (Prometheus `le` semantics: an observation equal to a bound lands in
/// that bound's bucket); one extra overflow bucket catches everything
/// above the last bound, including non-finite observations. Non-finite
/// observations are counted but excluded from `sum`.
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<f64>,
    buckets: Vec<AtomicU64>,
    sum_bits: AtomicU64,
    count: AtomicU64,
}

impl Histogram {
    /// Creates a histogram. Bounds must be non-empty, finite, and strictly
    /// increasing.
    pub fn new(bounds: &[f64]) -> Result<Self, String> {
        if bounds.is_empty() {
            return Err("histogram needs at least one bucket bound".into());
        }
        if bounds.iter().any(|b| !b.is_finite()) {
            return Err("histogram bounds must be finite (overflow bucket is implicit)".into());
        }
        for w in bounds.windows(2) {
            if w[0] >= w[1] {
                return Err(format!("histogram bounds not strictly increasing: {w:?}"));
            }
        }
        let buckets = (0..bounds.len() + 1).map(|_| AtomicU64::new(0)).collect();
        Ok(Self {
            bounds: bounds.to_vec(),
            buckets,
            sum_bits: AtomicU64::new(0f64.to_bits()),
            count: AtomicU64::new(0),
        })
    }

    /// Records one observation.
    pub fn observe(&self, v: f64) {
        let idx = if v.is_finite() {
            // First bucket whose upper bound covers v; overflow otherwise.
            self.bounds.iter().position(|&b| v <= b).unwrap_or(self.bounds.len())
        } else {
            self.bounds.len()
        };
        // Bucket before count: with snapshot reads going count-first
        // ([`Histogram::consistent_read`]), every observation included in
        // a read `count` has already landed in its bucket.
        // audit:atomic(independent statistic; bucket incremented before count)
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        // audit:atomic(independent statistic; count incremented after bucket)
        self.count.fetch_add(1, Ordering::Relaxed);
        if v.is_finite() {
            atomic_f64_add(&self.sum_bits, v);
        }
    }

    /// The finite bucket upper bounds.
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Per-bucket observation counts; the last entry is the overflow
    /// bucket (`> bounds.last()`).
    pub fn bucket_counts(&self) -> Vec<u64> {
        // audit:atomic(diagnostic reads; consistency via consistent_read)
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect()
    }

    /// Sum of all finite observations.
    pub fn sum(&self) -> f64 {
        // audit:atomic(diagnostic read; no cross-variable ordering)
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        // audit:atomic(diagnostic read; no cross-variable ordering)
        self.count.load(Ordering::Relaxed)
    }

    /// Reads `(count, buckets, sum)` with the cross-cell consistency
    /// guarantee `count ≤ Σ buckets`.
    ///
    /// The guarantee comes purely from read/write order, not memory
    /// ordering: [`Histogram::observe`] increments the bucket *before*
    /// `count`, and this method reads `count` *before* the buckets, so
    /// every observation included in the returned `count` has already
    /// made its bucket increment visible, while observations racing the
    /// snapshot can at worst appear in a bucket without being counted
    /// yet. (Reading buckets first would allow the reverse — a snapshot
    /// claiming more observations than its buckets hold — which is the
    /// inconsistency the loom model test pins.) `sum` is read last and is
    /// only monotonically related to `count`: it may include finite
    /// observations newer than the returned counts.
    pub fn consistent_read(&self) -> (u64, Vec<u64>, f64) {
        let count = self.count();
        let buckets = self.bucket_counts();
        let sum = self.sum();
        (count, buckets, sum)
    }
}

/// The name → handle registry. Cheap to share (`Arc<MetricsRegistry>`);
/// snapshotting copies every metric's current state into a serializable
/// [`MetricsSnapshot`].
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: RwLock<Vec<(String, Arc<Counter>)>>,
    gauges: RwLock<Vec<(String, Arc<Gauge>)>>,
    histograms: RwLock<Vec<(String, Arc<Histogram>)>>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the counter named `name`, registering it on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        if let Some((_, c)) = self.counters.read().iter().find(|(n, _)| n == name) {
            return Arc::clone(c);
        }
        let mut table = self.counters.write();
        if let Some((_, c)) = table.iter().find(|(n, _)| n == name) {
            return Arc::clone(c);
        }
        let c = Arc::new(Counter::default());
        table.push((name.to_string(), Arc::clone(&c)));
        c
    }

    /// Returns the gauge named `name`, registering it on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        if let Some((_, g)) = self.gauges.read().iter().find(|(n, _)| n == name) {
            return Arc::clone(g);
        }
        let mut table = self.gauges.write();
        if let Some((_, g)) = table.iter().find(|(n, _)| n == name) {
            return Arc::clone(g);
        }
        let g = Arc::new(Gauge::default());
        table.push((name.to_string(), Arc::clone(&g)));
        g
    }

    /// Returns the histogram named `name`, registering it with `bounds` on
    /// first use. A second registration under the same name returns the
    /// existing histogram (its original bounds win) so shared observers can
    /// race on startup without coordination.
    pub fn histogram(&self, name: &str, bounds: &[f64]) -> Result<Arc<Histogram>, String> {
        if let Some((_, h)) = self.histograms.read().iter().find(|(n, _)| n == name) {
            return Ok(Arc::clone(h));
        }
        let mut table = self.histograms.write();
        if let Some((_, h)) = table.iter().find(|(n, _)| n == name) {
            return Ok(Arc::clone(h));
        }
        let h = Arc::new(Histogram::new(bounds)?);
        table.push((name.to_string(), Arc::clone(&h)));
        Ok(h)
    }

    /// Copies the current state of every registered metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = self
            .counters
            .read()
            .iter()
            .map(|(n, c)| CounterSnapshot { name: n.clone(), value: c.get() })
            .collect();
        let gauges = self
            .gauges
            .read()
            .iter()
            .map(|(n, g)| GaugeSnapshot {
                name: n.clone(),
                value: g.get(),
                trajectory: g.trajectory(),
            })
            .collect();
        let histograms = self
            .histograms
            .read()
            .iter()
            .map(|(n, h)| {
                // `consistent_read` — not ad-hoc field reads — so a
                // snapshot racing live observers keeps count ≤ Σ buckets
                // (struct-literal order used to read buckets first, which
                // allowed the reverse; the loom model pins this).
                let (count, buckets, sum) = h.consistent_read();
                HistogramSnapshot {
                    name: n.clone(),
                    bounds: h.bounds().to_vec(),
                    buckets,
                    sum,
                    count,
                }
            })
            .collect();
        MetricsSnapshot { counters, gauges, histograms }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("hits");
        c.inc();
        c.add(4);
        assert_eq!(reg.counter("hits").get(), 5, "same handle under one name");
        let g = reg.gauge("q");
        g.set(2.5);
        assert!((reg.gauge("q").get() - 2.5).abs() < 1e-12);
        g.record(7, 3.5);
        assert_eq!(g.trajectory(), vec![(7, 3.5)]);
        assert!((g.get() - 3.5).abs() < 1e-12, "record also sets the value");
    }

    #[test]
    fn histogram_bucket_boundaries() {
        // `le` semantics: an observation equal to a bound lands in that
        // bound's bucket; above the last bound goes to overflow.
        let h = Histogram::new(&[1.0, 2.0, 5.0]).unwrap();
        for v in [0.0, 1.0, 1.0000001, 2.0, 5.0, 5.0000001, 1e12] {
            h.observe(v);
        }
        assert_eq!(h.bucket_counts(), vec![2, 2, 1, 2]);
        assert_eq!(h.count(), 7);
        // Negative values land in the first bucket.
        h.observe(-3.0);
        assert_eq!(h.bucket_counts()[0], 3);
        // Non-finite observations count, but do not poison the sum.
        let before = h.sum();
        h.observe(f64::NAN);
        h.observe(f64::INFINITY);
        assert_eq!(h.count(), 10);
        assert!((h.sum() - before).abs() < 1e-9);
        assert_eq!(*h.bucket_counts().last().unwrap(), 4);
    }

    #[test]
    fn histogram_rejects_bad_bounds() {
        assert!(Histogram::new(&[]).is_err());
        assert!(Histogram::new(&[1.0, 1.0]).is_err());
        assert!(Histogram::new(&[2.0, 1.0]).is_err());
        assert!(Histogram::new(&[1.0, f64::INFINITY]).is_err());
        assert!(Histogram::new(&[f64::NAN]).is_err());
    }

    #[test]
    fn histogram_reregistration_keeps_original_bounds() {
        let reg = MetricsRegistry::new();
        let a = reg.histogram("lat", &[1.0, 2.0]).unwrap();
        let b = reg.histogram("lat", &[99.0]).unwrap();
        assert_eq!(b.bounds(), &[1.0, 2.0]);
        a.observe(1.5);
        assert_eq!(b.count(), 1, "same underlying histogram");
    }

    #[test]
    fn concurrent_updates_are_lossless() {
        // Scaled down under miri: the interpreter runs each iteration a
        // few orders of magnitude slower, and losing an update would show
        // up just as surely over 50 iterations as over 1000.
        let iters: u64 = if cfg!(miri) { 50 } else { 1000 };
        let reg = Arc::new(MetricsRegistry::new());
        let c = reg.counter("n");
        let h = reg.histogram("v", &[0.5]).unwrap();
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let (c, h) = (Arc::clone(&c), Arc::clone(&h));
                std::thread::spawn(move || {
                    for _ in 0..iters {
                        c.inc();
                        h.observe(0.25);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(c.get(), 4 * iters);
        assert_eq!(h.count(), 4 * iters);
        assert!((h.sum() - iters as f64).abs() < 1e-6);
    }

    #[test]
    fn consistent_read_orders_count_before_buckets() {
        let h = Histogram::new(&[1.0]).unwrap();
        h.observe(0.5);
        h.observe(2.0);
        let (count, buckets, sum) = h.consistent_read();
        assert_eq!(count, 2);
        assert_eq!(buckets, vec![1, 1]);
        assert!((sum - 2.5).abs() < 1e-12);
        assert!(count <= buckets.iter().sum::<u64>());
    }

    #[test]
    fn snapshot_reflects_registry_state() {
        let reg = MetricsRegistry::new();
        reg.counter("a").add(3);
        reg.gauge("b").record(1, 9.0);
        reg.histogram("c", &[10.0]).unwrap().observe(4.0);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("a"), Some(3));
        assert_eq!(snap.gauge("b").unwrap().trajectory, vec![(1, 9.0)]);
        assert_eq!(snap.histogram("c").unwrap().count, 1);
        assert!(snap.counter("missing").is_none());
    }
}
