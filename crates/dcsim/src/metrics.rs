//! Per-slot records and aggregate outcomes of a simulation run.
//!
//! These types carry everything the paper's figures plot: hourly costs
//! (Fig. 2(a), 3(a), 5), hourly carbon deficits (Fig. 2(b), 3(b)), their
//! cumulative and 45-day moving averages (Fig. 2(c)(d), Fig. 3), plus the
//! energy totals behind the carbon-neutrality check (eq. 10).

use serde::{Deserialize, Serialize};

use coca_traces::stats;

/// Everything measured in one simulated slot.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SlotRecord {
    /// Slot index.
    pub t: usize,
    /// Realized arrival rate λ(t) (req/s).
    pub arrival_rate: f64,
    /// Electricity price w(t) ($/kWh).
    pub price: f64,
    /// On-site renewable r(t) (kWh).
    pub onsite: f64,
    /// Off-site renewable f(t) (kWh).
    pub offsite: f64,
    /// Facility energy including switching (kWh).
    pub facility_energy: f64,
    /// Brown (grid) energy `y(t)` including switching (kWh).
    pub brown_energy: f64,
    /// Energy spent on server power-state transitions (kWh).
    pub switching_energy: f64,
    /// Electricity cost `e(t) = w·y` ($).
    pub electricity_cost: f64,
    /// Weighted delay cost `β·d(t)` ($-equivalent).
    pub delay_cost: f64,
    /// Total cost `g(t) = e(t) + β·d(t)` ($).
    pub total_cost: f64,
    /// Unweighted delay `d(t)` (mean jobs in system).
    pub delay: f64,
    /// Servers powered on during the slot.
    pub servers_on: usize,
}

/// Result of simulating a policy over a whole trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[must_use]
pub struct SimOutcome {
    /// Policy identifier.
    pub policy: String,
    /// Per-slot records, in order.
    pub records: Vec<SlotRecord>,
    /// Total RECs Z available for the budgeting period (kWh).
    pub rec_total: f64,
}

impl SimOutcome {
    /// Number of slots J.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when no slots were simulated.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Average hourly total cost `ḡ` (paper eq. 6).
    pub fn avg_hourly_cost(&self) -> f64 {
        stats::summarize(&self.cost_series()).mean
    }

    /// Total brown energy `Σ y(t)` (kWh).
    pub fn total_brown_energy(&self) -> f64 {
        self.records.iter().map(|r| r.brown_energy).sum()
    }

    /// Total carbon allowance `Σ f(t) + Z` (kWh).
    pub fn total_allowance(&self) -> f64 {
        self.records.iter().map(|r| r.offsite).sum::<f64>() + self.rec_total
    }

    /// Average hourly carbon deficit: mean of `y(t) − (f(t) + Z/J)` (kWh).
    /// Negative means the allowance exceeded the usage (paper Fig. 2(b)).
    pub fn avg_hourly_deficit(&self) -> f64 {
        stats::summarize(&self.deficit_series()).mean
    }

    /// Whether long-term carbon neutrality (eq. 10 with α = 1) held.
    pub fn is_carbon_neutral(&self) -> bool {
        self.total_brown_energy() <= self.total_allowance() * (1.0 + 1e-9)
    }

    /// Hourly total-cost series g(t).
    pub fn cost_series(&self) -> Vec<f64> {
        self.records.iter().map(|r| r.total_cost).collect()
    }

    /// Hourly carbon-deficit series `y(t) − f(t) − Z/J`.
    pub fn deficit_series(&self) -> Vec<f64> {
        let z = if self.records.is_empty() { 0.0 } else { self.rec_total / self.records.len() as f64 };
        self.records.iter().map(|r| r.brown_energy - r.offsite - z).collect()
    }

    /// Cumulative average of the cost series (paper Fig. 3(a)).
    pub fn cumavg_cost(&self) -> Vec<f64> {
        stats::cumulative_average(&self.cost_series())
    }

    /// Cumulative average of the deficit series (paper Fig. 3(b)).
    pub fn cumavg_deficit(&self) -> Vec<f64> {
        stats::cumulative_average(&self.deficit_series())
    }

    /// Moving average of the cost series over `window` slots
    /// (paper Fig. 2(c): 45 days = 1080 hours).
    pub fn movavg_cost(&self, window: usize) -> Vec<f64> {
        stats::moving_average(&self.cost_series(), window)
    }

    /// Moving average of the deficit series over `window` slots (Fig. 2(d)).
    pub fn movavg_deficit(&self, window: usize) -> Vec<f64> {
        stats::moving_average(&self.deficit_series(), window)
    }

    /// Total electricity cost ($).
    pub fn total_electricity_cost(&self) -> f64 {
        self.records.iter().map(|r| r.electricity_cost).sum()
    }

    /// Total weighted delay cost ($-equivalent).
    pub fn total_delay_cost(&self) -> f64 {
        self.records.iter().map(|r| r.delay_cost).sum()
    }

    /// Total cost over the horizon ($).
    pub fn total_cost(&self) -> f64 {
        self.records.iter().map(|r| r.total_cost).sum()
    }

    /// Minimum hourly cost observed (a lower proxy for the paper's
    /// `g_min` in Theorem 2).
    pub fn min_hourly_cost(&self) -> f64 {
        self.records.iter().map(|r| r.total_cost).fold(f64::INFINITY, f64::min)
    }

    /// Additional RECs (kWh) that would have to be purchased *after* the
    /// budgeting period to restore exact carbon neutrality — the paper's
    /// Sec. 4.3 remark that "data centers may purchase additional RECs at
    /// the end of a budgeting period to offset the remaining electricity
    /// usage". Zero when the run was already neutral.
    pub fn rec_shortfall(&self) -> f64 {
        (self.total_brown_energy() - self.total_allowance()).max(0.0)
    }

    /// The corresponding top-up cost at a given REC price ($/kWh).
    pub fn rec_topup_cost(&self, rec_price_per_kwh: f64) -> f64 {
        assert!(rec_price_per_kwh >= 0.0);
        self.rec_shortfall() * rec_price_per_kwh
    }
}

/// The control decision behind a [`SlotRecord`], as seen by a sink.
///
/// The record carries the *accounting* of a slot; protocol sinks (the
/// `coca-serve` wire writer) also need the *decision itself* — the speed
/// vector, the dispatched load split, and whatever telemetry the policy
/// exposes (COCA: deficit queue, frame position, V). Borrowed from the
/// engine for the duration of one [`RecordSink::record_decision`] call.
#[derive(Debug, Clone, Copy)]
pub struct DecisionContext<'a> {
    /// Per-group speed indices the policy chose (0 = off).
    pub levels: &'a [usize],
    /// Per-group dispatched arrival rates after re-dispatch onto the
    /// realized workload (req/s).
    pub loads: &'a [f64],
    /// Controller internals, when the policy exposes them
    /// ([`Policy::telemetry`](crate::policy::Policy::telemetry)).
    pub telemetry: Option<crate::policy::PolicyTelemetry>,
}

/// Consumer of the engine's per-slot record stream.
///
/// Figures, reports, and tests all read the same [`SlotRecord`] stream; a
/// sink decides what to keep. [`VecSink`] materializes every record (the
/// default, and the only sink here whose history engine checkpoints carry,
/// so a resumed batch run still yields a whole-run [`SimOutcome`]);
/// [`SummarySink`] keeps O(1) running totals for unbounded generator
/// traces that must not be materialized (its totals cover the slots since
/// it was created, restore or not); protocol sinks override
/// [`record_decision`](Self::record_decision) to also see the control
/// decision they must serialize.
pub trait RecordSink {
    /// Receives the record for one completed slot. Records arrive in slot
    /// order, exactly once per slot.
    fn record(&mut self, rec: &SlotRecord) -> Result<(), String>;

    /// Receives the record *plus* the decision context. This is what the
    /// engine actually calls; the default discards the context and
    /// forwards to [`record`](Self::record), so existing sinks are
    /// unaffected.
    fn record_decision(
        &mut self,
        rec: &SlotRecord,
        _ctx: &DecisionContext<'_>,
    ) -> Result<(), String> {
        self.record(rec)
    }

    /// The history this sink wants persisted: `Some` makes every engine
    /// checkpoint carry these records (one per slot since slot 0) and
    /// every restore hand them back through
    /// [`restore_records`](Self::restore_records). `None` (the default)
    /// means the sink's history lives elsewhere — on the wire, in a
    /// running summary — so the lane is checkpointed with its controller
    /// state only, and the checkpoint's size does not grow with `t`.
    fn collected(&self) -> Option<&[SlotRecord]> {
        None
    }

    /// Takes the records this sink kept out of it, if it keeps any; the
    /// engine builds a lane's `SimOutcome` from them.
    fn take_records(&mut self) -> Option<Vec<SlotRecord>> {
        None
    }

    /// Replaces the sink's history with checkpointed records. The engine
    /// calls it on restore only for sinks whose
    /// [`collected`](Self::collected) is `Some`; the default refuses.
    fn restore_records(&mut self, _records: &[SlotRecord]) -> Result<(), String> {
        Err("this RecordSink does not support checkpoint restore".to_string())
    }
}

/// The default sink: keeps every record in memory, in slot order.
#[derive(Debug, Default, Clone)]
pub struct VecSink {
    records: Vec<SlotRecord>,
}

impl VecSink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Self::default()
    }
}

impl RecordSink for VecSink {
    fn record(&mut self, rec: &SlotRecord) -> Result<(), String> {
        self.records.push(*rec);
        Ok(())
    }
    fn collected(&self) -> Option<&[SlotRecord]> {
        Some(&self.records)
    }
    fn take_records(&mut self) -> Option<Vec<SlotRecord>> {
        Some(std::mem::take(&mut self.records))
    }
    fn restore_records(&mut self, records: &[SlotRecord]) -> Result<(), String> {
        self.records = records.to_vec();
        Ok(())
    }
}

/// O(1)-memory sink: running totals only. For unbounded generator traces.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct SummarySink {
    /// Slots consumed.
    pub slots: usize,
    /// Σ g(t) ($).
    pub total_cost: f64,
    /// Σ y(t) (kWh).
    pub total_brown_energy: f64,
    /// Σ f(t) (kWh).
    pub total_offsite: f64,
    /// Σ facility energy (kWh).
    pub total_facility_energy: f64,
}

impl SummarySink {
    /// Creates a zeroed summary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Average hourly total cost over the consumed slots.
    pub fn avg_hourly_cost(&self) -> f64 {
        if self.slots == 0 { 0.0 } else { self.total_cost / self.slots as f64 }
    }
}

impl RecordSink for SummarySink {
    fn record(&mut self, rec: &SlotRecord) -> Result<(), String> {
        self.slots += 1;
        self.total_cost += rec.total_cost;
        self.total_brown_energy += rec.brown_energy;
        self.total_offsite += rec.offsite;
        self.total_facility_energy += rec.facility_energy;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(t: usize, brown: f64, offsite: f64, cost: f64) -> SlotRecord {
        SlotRecord {
            t,
            arrival_rate: 1.0,
            price: 0.05,
            onsite: 0.0,
            offsite,
            facility_energy: brown,
            brown_energy: brown,
            switching_energy: 0.0,
            electricity_cost: cost / 2.0,
            delay_cost: cost / 2.0,
            total_cost: cost,
            delay: 1.0,
            servers_on: 10,
        }
    }

    fn outcome() -> SimOutcome {
        SimOutcome {
            policy: "test".into(),
            records: vec![record(0, 10.0, 4.0, 2.0), record(1, 6.0, 4.0, 4.0)],
            rec_total: 4.0,
        }
    }

    #[test]
    fn aggregates_match_hand_computation() {
        let o = outcome();
        assert_eq!(o.len(), 2);
        assert!((o.avg_hourly_cost() - 3.0).abs() < 1e-12);
        assert_eq!(o.total_brown_energy(), 16.0);
        assert_eq!(o.total_allowance(), 12.0);
        assert!(!o.is_carbon_neutral());
        // Deficits: z = 2; [10−4−2, 6−4−2] = [4, 0]; mean 2.
        assert_eq!(o.deficit_series(), vec![4.0, 0.0]);
        assert!((o.avg_hourly_deficit() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn neutral_when_allowance_covers_usage() {
        let mut o = outcome();
        o.rec_total = 100.0;
        assert!(o.is_carbon_neutral());
        assert!(o.avg_hourly_deficit() < 0.0);
    }

    #[test]
    fn series_helpers() {
        let o = outcome();
        assert_eq!(o.cost_series(), vec![2.0, 4.0]);
        assert_eq!(o.cumavg_cost(), vec![2.0, 3.0]);
        assert_eq!(o.movavg_cost(1), vec![2.0, 4.0]);
        assert_eq!(o.cumavg_deficit(), vec![4.0, 2.0]);
        assert_eq!(o.min_hourly_cost(), 2.0);
        assert_eq!(o.total_cost(), 6.0);
        assert_eq!(o.total_electricity_cost(), 3.0);
        assert_eq!(o.total_delay_cost(), 3.0);
    }

    #[test]
    fn empty_outcome_is_sane() {
        let o = SimOutcome { policy: "e".into(), records: vec![], rec_total: 0.0 };
        assert!(o.is_empty());
        assert_eq!(o.avg_hourly_cost(), 0.0);
        assert_eq!(o.deficit_series(), Vec::<f64>::new());
        assert!(o.is_carbon_neutral());
    }

    #[test]
    fn serde_roundtrip() {
        let o = outcome();
        let json = serde_json::to_string(&o).unwrap();
        let back: SimOutcome = serde_json::from_str(&json).unwrap();
        assert_eq!(o, back);
    }

    #[test]
    fn vec_sink_collects_and_restores() {
        let mut sink = VecSink::new();
        let r0 = record(0, 10.0, 4.0, 2.0);
        let r1 = record(1, 6.0, 4.0, 4.0);
        sink.record(&r0).unwrap();
        sink.record(&r1).unwrap();
        assert_eq!(sink.collected().unwrap().len(), 2);
        let taken = sink.take_records().unwrap();
        assert_eq!(taken, vec![r0, r1]);
        assert!(sink.collected().unwrap().is_empty());
        sink.restore_records(&taken).unwrap();
        assert_eq!(sink.collected().unwrap(), &[r0, r1]);
    }

    #[test]
    fn summary_sink_aggregates_without_materializing() {
        let mut sink = SummarySink::new();
        sink.record(&record(0, 10.0, 4.0, 2.0)).unwrap();
        sink.record(&record(1, 6.0, 4.0, 4.0)).unwrap();
        assert_eq!(sink.slots, 2);
        assert!((sink.avg_hourly_cost() - 3.0).abs() < 1e-12);
        assert_eq!(sink.total_brown_energy, 16.0);
        assert!(sink.collected().is_none());
        assert!(sink.take_records().is_none());
        assert!(sink.restore_records(&[]).is_err());
    }

    #[test]
    fn rec_shortfall_and_topup() {
        let o = outcome();
        // brown 16, allowance 12 → shortfall 4.
        assert_eq!(o.rec_shortfall(), 4.0);
        assert_eq!(o.rec_topup_cost(0.02), 0.08);
        let mut neutral = outcome();
        neutral.rec_total = 100.0;
        assert_eq!(neutral.rec_shortfall(), 0.0);
        assert_eq!(neutral.rec_topup_cost(1.0), 0.0);
    }
}
