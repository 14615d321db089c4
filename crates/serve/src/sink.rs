//! [`WireSink`]: the [`RecordSink`] that turns completed slots into wire
//! messages.
//!
//! It overrides [`RecordSink::record_decision`] — the context-carrying
//! hook added for exactly this purpose — to publish one decision line per
//! slot: record fields for the realized costs, [`DecisionContext`] for
//! the speed vector and the actually-dispatched load split, and the
//! policy's [`telemetry`](coca_dcsim::Policy::telemetry) for controller
//! internals. The line is encoded straight from the borrowed record and
//! context into a buffer the sink keeps from slot to slot (no
//! [`DecisionMsg`](crate::DecisionMsg) is built), and goes to each
//! subscriber with its newline in one write. A NaN or an infinity in the
//! decision has no JSON text: `record_decision` returns the error, which
//! the engine reports as [`SimError::Internal`](coca_dcsim::SimError).
//!
//! The decision history already went out on the wire, so the sink does
//! not offer it to engine checkpoints ([`RecordSink::collected`] stays
//! `None`): a service checkpoint holds controller state only and stays the
//! same size for the life of the fleet. The sink keeps the records decided
//! by *this process* so [`SimEngine::into_outcomes`] can report on them;
//! nothing checkpoints or restores them.
//!
//! [`SimEngine::into_outcomes`]: coca_dcsim::SimEngine::into_outcomes

use std::sync::Arc;

use coca_dcsim::{DecisionContext, RecordSink, SlotRecord};

use crate::proto::DecisionView;
use crate::publish::Publisher;

/// Record sink that publishes each slot's decision to a [`Publisher`].
pub struct WireSink {
    /// Records decided by this process (not since slot 0 after a resume).
    records: Vec<SlotRecord>,
    policy: String,
    publisher: Arc<Publisher>,
    /// The line being published, reused so a warm sink encodes without
    /// allocating.
    line: String,
}

impl WireSink {
    /// Creates a sink publishing decisions under `policy`'s name.
    pub fn new(policy: impl Into<String>, publisher: Arc<Publisher>) -> Self {
        Self { records: Vec::new(), policy: policy.into(), publisher, line: String::new() }
    }
}

impl RecordSink for WireSink {
    fn record(&mut self, rec: &SlotRecord) -> Result<(), String> {
        self.records.push(*rec);
        Ok(())
    }

    fn record_decision(
        &mut self,
        rec: &SlotRecord,
        ctx: &DecisionContext<'_>,
    ) -> Result<(), String> {
        self.line.clear();
        DecisionView {
            t: rec.t,
            policy: &self.policy,
            levels: ctx.levels,
            loads: ctx.loads,
            servers_on: rec.servers_on,
            total_cost: rec.total_cost,
            brown_energy: rec.brown_energy,
            telemetry: ctx.telemetry,
        }
        .encode(&mut self.line)
        .map_err(|e| format!("decision for slot {}: {e}", rec.t))?;
        self.line.push('\n');
        self.publisher.publish_encoded(&self.line);
        self.records.push(*rec);
        Ok(())
    }

    fn take_records(&mut self) -> Option<Vec<SlotRecord>> {
        Some(std::mem::take(&mut self.records))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::proto::tests::oracle_out;
    use crate::proto::{DecisionMsg, OutMsg};
    use coca_dcsim::PolicyTelemetry;
    use std::io::Write;
    use std::sync::Mutex;

    /// A publisher subscriber that appends everything it is sent to a
    /// shared buffer.
    pub(crate) struct SharedBuf(pub(crate) Arc<Mutex<Vec<u8>>>);
    impl Write for SharedBuf {
        fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(data);
            Ok(data.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn record(t: usize) -> SlotRecord {
        SlotRecord {
            t,
            arrival_rate: 10.0,
            price: 0.05,
            onsite: 1.0,
            offsite: 2.0,
            facility_energy: 3.0,
            brown_energy: 2.5,
            switching_energy: 0.0,
            electricity_cost: 0.125,
            delay_cost: 0.5,
            total_cost: 0.625,
            delay: 0.05,
            servers_on: 8,
        }
    }

    #[test]
    fn publishes_one_decision_per_slot_and_keeps_history_out_of_checkpoints() {
        let publisher = Publisher::new();
        let buf = Arc::new(Mutex::new(Vec::new()));
        publisher.subscribe(Box::new(SharedBuf(Arc::clone(&buf))));
        let mut sink = WireSink::new("coca", Arc::clone(&publisher));

        let levels = [2usize, 0];
        let loads = [10.0, 0.0];
        let ctx = DecisionContext { levels: &levels, loads: &loads, telemetry: None };
        sink.record_decision(&record(0), &ctx).unwrap();
        sink.record_decision(&record(1), &ctx).unwrap();

        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let msgs: Vec<OutMsg> =
            text.lines().map(|l| OutMsg::parse(l).unwrap()).collect();
        assert_eq!(msgs.len(), 2);
        let OutMsg::Decision(d) = &msgs[0] else { panic!("not a decision: {:?}", msgs[0]) };
        assert_eq!(d.t, 0);
        assert_eq!(d.levels, vec![2, 0]);
        assert_eq!(d.loads, vec![10.0, 0.0]);
        assert_eq!(d.servers_on, 8);

        // The history went out on the wire: checkpoints get none of it,
        // and the process-local records are still there for the report.
        assert!(sink.collected().is_none());
        assert!(sink.restore_records(&[record(0)]).is_err());
        assert_eq!(sink.take_records().unwrap(), vec![record(0), record(1)]);
    }

    /// A subscriber that keeps every `write` call's bytes separately.
    struct Writes(Arc<Mutex<Vec<Vec<u8>>>>);
    impl Write for Writes {
        fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().push(data.to_vec());
            Ok(data.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn each_decision_is_one_write_ending_in_its_newline() {
        let publisher = Publisher::new();
        let writes = Arc::new(Mutex::new(Vec::new()));
        publisher.subscribe(Box::new(Writes(Arc::clone(&writes))));
        let mut sink = WireSink::new("coca", Arc::clone(&publisher));

        let levels = vec![3usize; 200];
        let mut loads = vec![40.25; 120];
        loads.extend([0.0; 80]);
        let telemetry = Some(PolicyTelemetry { deficit_kwh: 12.5, frame_pos: 7, v: 100.0 });
        for t in 0..3 {
            let ctx = DecisionContext { levels: &levels, loads: &loads, telemetry };
            sink.record_decision(&record(t), &ctx).unwrap();
        }
        publisher.publish(&OutMsg::End { slots: 3 });

        let writes = writes.lock().unwrap();
        assert_eq!(writes.len(), 4, "one write per line");
        for (t, w) in writes[..3].iter().enumerate() {
            let line = std::str::from_utf8(w).unwrap();
            let body = line.strip_suffix('\n').expect("the write ends in the newline");
            assert!(!body.contains('\n'));
            let expected = OutMsg::Decision(DecisionMsg {
                t,
                policy: "coca".into(),
                levels: levels.clone(),
                loads: loads.clone(),
                servers_on: 8,
                total_cost: 0.625,
                brown_energy: 2.5,
                telemetry,
            });
            assert_eq!(body, oracle_out(&expected));
        }
        assert_eq!(writes[3], b"{\"type\":\"end\",\"slots\":3}\n");
    }

    #[test]
    fn a_non_finite_decision_is_an_error_and_publishes_nothing() {
        let publisher = Publisher::new();
        let buf = Arc::new(Mutex::new(Vec::new()));
        publisher.subscribe(Box::new(SharedBuf(Arc::clone(&buf))));
        let mut sink = WireSink::new("coca", Arc::clone(&publisher));

        let levels = [1usize, 1];
        let ctx = DecisionContext { levels: &levels, loads: &[5.0, 5.0], telemetry: None };
        sink.record_decision(&record(0), &ctx).unwrap();
        let ctx = DecisionContext { levels: &levels, loads: &[5.0, f64::NAN], telemetry: None };
        let err = sink.record_decision(&record(1), &ctx).unwrap_err();
        assert!(err.contains("slot 1") && err.contains("non-finite"), "{err}");
        let mut rec = record(2);
        rec.total_cost = f64::INFINITY;
        let ctx = DecisionContext { levels: &levels, loads: &[5.0, 5.0], telemetry: None };
        assert!(sink.record_decision(&rec, &ctx).is_err());

        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        assert_eq!(text.lines().count(), 1, "only the finite decision went out: {text}");
        assert_eq!(sink.take_records().unwrap(), vec![record(0)]);
    }
}
