//! Shared timers: a total, a call count and (optionally) every sample.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One timed layer call site. Totals are relaxed atomics: they are
/// statistics read after every thread that adds to them has been joined.
#[derive(Debug, Default)]
pub struct Timer {
    nanos: AtomicU64,
    calls: AtomicU64,
    samples: Option<Mutex<Vec<f64>>>,
}

impl Timer {
    /// A timer that keeps only its total and count.
    pub fn total() -> Self {
        Self::default()
    }

    /// A timer that also keeps every sample (seconds), for percentiles.
    pub fn sampled() -> Self {
        Self {
            samples: Some(Mutex::new(Vec::new())),
            ..Self::default()
        }
    }

    /// Adds one call of duration `d`.
    pub fn add(&self, d: Duration) {
        self.nanos.fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        if let Some(samples) = &self.samples {
            samples
                .lock()
                .expect("a timer holder panicked")
                .push(d.as_secs_f64());
        }
    }

    /// Times `f` and returns its result.
    pub fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.add(start.elapsed());
        out
    }

    /// Total seconds.
    pub fn secs(&self) -> f64 {
        self.nanos.load(Ordering::Relaxed) as f64 * 1e-9
    }

    /// Number of calls.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Every recorded sample (seconds), in call order.
    pub fn samples(&self) -> Vec<f64> {
        self.samples
            .as_ref()
            .map(|s| s.lock().expect("a timer holder panicked").clone())
            .unwrap_or_default()
    }
}

/// A plain relaxed counter for byte and event totals.
#[derive(Debug, Default)]
pub struct Count(AtomicU64);

impl Count {
    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current total.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}
