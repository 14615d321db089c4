//! Serializable point-in-time snapshots of a [`MetricsRegistry`]
//! (`MetricsRegistry::snapshot`), their JSON and Prometheus-text
//! exporters, and the checked-in-schema validator CI runs against
//! `repro --metrics` output.
//!
//! [`MetricsRegistry`]: crate::MetricsRegistry

use std::fmt::Write as _;

use serde::{Deserialize, Serialize};

/// A counter's snapshot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CounterSnapshot {
    /// Metric name.
    pub name: String,
    /// Value at snapshot time.
    pub value: u64,
}

/// A gauge's snapshot, including its recorded trajectory.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GaugeSnapshot {
    /// Metric name.
    pub name: String,
    /// Instantaneous value at snapshot time.
    pub value: f64,
    /// Recorded `(t, value)` points, in record order.
    pub trajectory: Vec<(u64, f64)>,
}

/// A histogram's snapshot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Metric name.
    pub name: String,
    /// Finite bucket upper bounds (`le` semantics).
    pub bounds: Vec<f64>,
    /// Per-bucket counts; one more entry than `bounds` (overflow last).
    pub buckets: Vec<u64>,
    /// Sum of finite observations.
    pub sum: f64,
    /// Total observations.
    pub count: u64,
}

/// Snapshot of a whole registry.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// All registered counters.
    pub counters: Vec<CounterSnapshot>,
    /// All registered gauges.
    pub gauges: Vec<GaugeSnapshot>,
    /// All registered histograms.
    pub histograms: Vec<HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Looks up a counter value by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|c| c.name == name).map(|c| c.value)
    }

    /// Looks up a gauge by name.
    pub fn gauge(&self, name: &str) -> Option<&GaugeSnapshot> {
        self.gauges.iter().find(|g| g.name == name)
    }

    /// Looks up a histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Serializes to JSON.
    pub fn to_json(&self) -> Result<String, String> {
        serde_json::to_string(self).map_err(|e| format!("snapshot serialization failed: {e}"))
    }

    /// Parses a snapshot previously produced by [`Self::to_json`].
    pub fn from_json(json: &str) -> Result<Self, String> {
        serde_json::from_str(json).map_err(|e| format!("snapshot parse failed: {e}"))
    }

    /// Renders the snapshot in the Prometheus text exposition format
    /// (counters as `_total`-style samples, gauges as plain samples,
    /// histograms as cumulative `_bucket{le=…}` series plus `_sum` and
    /// `_count`). Trajectories are a snapshot-JSON-only feature and are
    /// not rendered here — Prometheus gets the instantaneous value.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for c in &self.counters {
            let _ = writeln!(out, "# TYPE {} counter", c.name);
            let _ = writeln!(out, "{} {}", c.name, c.value);
        }
        for g in &self.gauges {
            let _ = writeln!(out, "# TYPE {} gauge", g.name);
            let _ = writeln!(out, "{} {}", g.name, g.value);
        }
        for h in &self.histograms {
            let _ = writeln!(out, "# TYPE {} histogram", h.name);
            let mut cumulative = 0u64;
            for (i, n) in h.buckets.iter().enumerate() {
                cumulative += n;
                match h.bounds.get(i) {
                    Some(b) => {
                        let _ = writeln!(out, "{}_bucket{{le=\"{b}\"}} {cumulative}", h.name);
                    }
                    None => {
                        let _ =
                            writeln!(out, "{}_bucket{{le=\"+Inf\"}} {cumulative}", h.name);
                    }
                }
            }
            let _ = writeln!(out, "{}_sum {}", h.name, h.sum);
            let _ = writeln!(out, "{}_count {}", h.name, h.count);
        }
        out
    }
}

/// A counter requirement in a [`MetricsSchema`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SchemaCounter {
    /// Required metric name.
    pub name: String,
    /// Minimum acceptable value.
    pub min: u64,
}

/// A gauge requirement in a [`MetricsSchema`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SchemaGauge {
    /// Required metric name.
    pub name: String,
    /// Minimum number of recorded trajectory points.
    pub min_trajectory_len: u64,
}

/// A histogram requirement in a [`MetricsSchema`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SchemaHistogram {
    /// Required metric name.
    pub name: String,
    /// Minimum total observation count.
    pub min_count: u64,
}

/// The checked-in schema `repro --metrics` snapshots are validated
/// against in CI (`schemas/metrics.schema.json`): a list of metrics that
/// must be present, with minimum-content thresholds so an accidentally
/// unwired observer (all zeros / empty trajectory) fails loudly instead
/// of shipping an empty-but-well-formed snapshot.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsSchema {
    /// Required counters.
    pub counters: Vec<SchemaCounter>,
    /// Required gauges.
    pub gauges: Vec<SchemaGauge>,
    /// Required histograms.
    pub histograms: Vec<SchemaHistogram>,
}

impl MetricsSchema {
    /// Parses a schema document.
    pub fn from_json(json: &str) -> Result<Self, String> {
        serde_json::from_str(json).map_err(|e| format!("schema parse failed: {e}"))
    }

    /// Validates `snapshot` against this schema; the error lists every
    /// failed requirement, not just the first.
    pub fn validate(&self, snapshot: &MetricsSnapshot) -> Result<(), String> {
        let mut problems = Vec::new();
        for req in &self.counters {
            match snapshot.counter(&req.name) {
                None => problems.push(format!("missing counter `{}`", req.name)),
                Some(v) if v < req.min => problems.push(format!(
                    "counter `{}` = {v}, below required minimum {}",
                    req.name, req.min
                )),
                Some(_) => {}
            }
        }
        for req in &self.gauges {
            match snapshot.gauge(&req.name) {
                None => problems.push(format!("missing gauge `{}`", req.name)),
                Some(g) if (g.trajectory.len() as u64) < req.min_trajectory_len => {
                    problems.push(format!(
                        "gauge `{}` trajectory has {} points, below required {}",
                        req.name,
                        g.trajectory.len(),
                        req.min_trajectory_len
                    ));
                }
                Some(_) => {}
            }
        }
        for req in &self.histograms {
            match snapshot.histogram(&req.name) {
                None => problems.push(format!("missing histogram `{}`", req.name)),
                Some(h) if h.count < req.min_count => problems.push(format!(
                    "histogram `{}` has {} observations, below required {}",
                    req.name, h.count, req.min_count
                )),
                Some(h) if h.buckets.len() != h.bounds.len() + 1 => problems.push(format!(
                    "histogram `{}` is malformed: {} buckets for {} bounds",
                    req.name,
                    h.buckets.len(),
                    h.bounds.len()
                )),
                Some(_) => {}
            }
        }
        if problems.is_empty() {
            Ok(())
        } else {
            Err(problems.join("; "))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRegistry;

    fn sample() -> MetricsSnapshot {
        let reg = MetricsRegistry::new();
        reg.counter("gsd_batched_candidates_total").add(42);
        reg.counter("gsd_bisection_evals_total").add(7);
        let g = reg.gauge("coca_deficit_queue_kwh");
        g.record(0, 0.0);
        g.record(1, 3.25);
        let h = reg.histogram("gsd_acceptance_ratio", &[0.25, 0.5, 0.75, 1.0]).unwrap();
        h.observe(0.4);
        h.observe(0.9);
        reg.snapshot()
    }

    #[test]
    fn json_round_trip_preserves_every_field() {
        let snap = sample();
        let json = snap.to_json().unwrap();
        let back = MetricsSnapshot::from_json(&json).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.counter("gsd_batched_candidates_total"), Some(42));
        assert_eq!(
            back.gauge("coca_deficit_queue_kwh").unwrap().trajectory,
            vec![(0, 0.0), (1, 3.25)]
        );
        assert_eq!(back.histogram("gsd_acceptance_ratio").unwrap().count, 2);
    }

    #[test]
    fn prometheus_rendering_is_cumulative() {
        let text = sample().to_prometheus();
        assert!(text.contains("# TYPE gsd_batched_candidates_total counter"));
        assert!(text.contains("gsd_batched_candidates_total 42"));
        assert!(text.contains("coca_deficit_queue_kwh 3.25"));
        // 0.4 → le=0.5; cumulative counts: 0, 1, 1, 2, 2.
        assert!(text.contains("gsd_acceptance_ratio_bucket{le=\"0.5\"} 1"));
        assert!(text.contains("gsd_acceptance_ratio_bucket{le=\"1\"} 2"));
        assert!(text.contains("gsd_acceptance_ratio_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("gsd_acceptance_ratio_count 2"));
    }

    #[test]
    fn schema_validation_accepts_and_rejects() {
        let snap = sample();
        let schema = MetricsSchema::from_json(
            r#"{
                "counters": [{"name": "gsd_batched_candidates_total", "min": 1}],
                "gauges": [{"name": "coca_deficit_queue_kwh", "min_trajectory_len": 2}],
                "histograms": [{"name": "gsd_acceptance_ratio", "min_count": 2}]
            }"#,
        )
        .unwrap();
        assert!(schema.validate(&snap).is_ok());

        let strict = MetricsSchema {
            counters: vec![SchemaCounter { name: "nope".into(), min: 0 }],
            gauges: vec![SchemaGauge {
                name: "coca_deficit_queue_kwh".into(),
                min_trajectory_len: 99,
            }],
            histograms: vec![SchemaHistogram {
                name: "gsd_acceptance_ratio".into(),
                min_count: 99,
            }],
        };
        let err = strict.validate(&snap).unwrap_err();
        assert!(err.contains("missing counter `nope`"), "{err}");
        assert!(err.contains("trajectory has 2 points"), "{err}");
        assert!(err.contains("2 observations"), "{err}");
    }
}
