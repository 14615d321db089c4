//! [`WireSink`]: the [`RecordSink`] that turns completed slots into wire
//! messages.
//!
//! It overrides [`RecordSink::record_decision`] — the context-carrying
//! hook added for exactly this purpose — to publish a
//! [`DecisionMsg`](crate::proto::DecisionMsg) per slot: record fields for
//! the realized costs, [`DecisionContext`] for the speed vector and the
//! actually-dispatched load split, and the policy's
//! [`telemetry`](coca_dcsim::Policy::telemetry) for controller internals.
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

use crate::proto::{DecisionMsg, OutMsg};
use crate::publish::Publisher;

/// Record sink that publishes each slot's decision to a [`Publisher`].
pub struct WireSink {
    /// Records decided by this process (not since slot 0 after a resume).
    records: Vec<SlotRecord>,
    policy: String,
    publisher: Arc<Publisher>,
}

impl WireSink {
    /// Creates a sink publishing decisions under `policy`'s name.
    pub fn new(policy: impl Into<String>, publisher: Arc<Publisher>) -> Self {
        Self { records: Vec::new(), policy: policy.into(), publisher }
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
        self.records.push(*rec);
        self.publisher.publish(&OutMsg::Decision(DecisionMsg {
            t: rec.t,
            policy: self.policy.clone(),
            levels: ctx.levels.to_vec(),
            loads: ctx.loads.to_vec(),
            servers_on: rec.servers_on,
            total_cost: rec.total_cost,
            brown_energy: rec.brown_energy,
            telemetry: ctx.telemetry,
        }));
        Ok(())
    }

    fn take_records(&mut self) -> Option<Vec<SlotRecord>> {
        Some(std::mem::take(&mut self.records))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
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
}
