//! The serve wire protocol: newline-delimited JSON, one message per line.
//!
//! Two directions share the `"type"`-tagged envelope:
//!
//! * **Ingest** (operator → service): [`InMsg`] —
//!   `{"type":"slot","t":0,"workload":…,"onsite":…,"price":…,"offsite":…}`
//!   per slot, then `{"type":"end"}` when the stream is complete.
//! * **Publish** (service → subscribers): [`OutMsg`] — one
//!   `{"type":"hello",…}` banner per connection, a
//!   `{"type":"decision",…}` per simulated slot carrying the speed
//!   vector, load split and controller telemetry, and a final
//!   `{"type":"end","slots":N}`.
//!
//! Messages are hand-encoded rather than derived: the derive shim emits
//! externally-tagged enums, and the wire format pins an
//! *internally*-tagged shape (the `"type"` field lives beside the
//! payload) so `schemas/serve.schema.json` stays the single description
//! of what is on the wire. The encoders append straight to a caller's
//! buffer — no [`Value`] tree, no per-number `String` — through the
//! vendored `serde_json` scalar writers, the same ones its `to_string`
//! uses. Floats are written with the shortest round-tripping
//! representation, which is what makes the byte-identity checks in the
//! resume tests sound; a NaN or an infinity has no JSON text and is an
//! encoding error.

use coca_dcsim::PolicyTelemetry;
use coca_traces::SlotEnv;
use serde::Value;
use serde_json::{write_f64, write_i64, write_str};

/// Wire protocol version, carried in every hello banner.
pub const PROTO_VERSION: i64 = 1;

/// A message on the ingest stream.
#[derive(Debug, Clone, PartialEq)]
pub enum InMsg {
    /// One environment slot, in order.
    Slot(SlotEnv),
    /// The stream is complete; no more slots will arrive.
    End,
}

/// Decision payload published after each simulated slot.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionMsg {
    /// Slot index `t`.
    pub t: usize,
    /// Policy that produced the decision.
    pub policy: String,
    /// Per-group speed indices (0 = off).
    pub levels: Vec<usize>,
    /// Per-group dispatched arrival rates (req/s).
    pub loads: Vec<f64>,
    /// Servers powered on during the slot.
    pub servers_on: usize,
    /// Realized total cost g(t) ($).
    pub total_cost: f64,
    /// Realized brown-energy draw (kWh).
    pub brown_energy: f64,
    /// Controller internals (deficit queue, frame position, V), when the
    /// policy exposes them.
    pub telemetry: Option<PolicyTelemetry>,
}

/// A message on the publish stream.
#[derive(Debug, Clone, PartialEq)]
pub enum OutMsg {
    /// Per-connection banner: protocol version, policy name, group count.
    Hello {
        /// Policy that will produce the decisions.
        policy: String,
        /// Number of server groups (length of `levels`/`loads`).
        groups: usize,
    },
    /// One decision per simulated slot.
    Decision(DecisionMsg),
    /// The run ended after `slots` simulated slots.
    End {
        /// Number of slots simulated.
        slots: usize,
    },
}

fn int_field(v: &Value, name: &str) -> Result<i64, String> {
    match v.get_field(name) {
        Some(Value::Int(i)) => Ok(*i),
        Some(other) => Err(format!("field `{name}` is not an integer: {other:?}")),
        None => Err(format!("missing field `{name}`")),
    }
}

fn usize_field(v: &Value, name: &str) -> Result<usize, String> {
    let i = int_field(v, name)?;
    usize::try_from(i).map_err(|_| format!("field `{name}` = {i} is negative"))
}

fn float_field(v: &Value, name: &str) -> Result<f64, String> {
    match v.get_field(name) {
        Some(Value::Float(x)) => Ok(*x),
        Some(Value::Int(i)) => Ok(*i as f64),
        Some(other) => Err(format!("field `{name}` is not a number: {other:?}")),
        None => Err(format!("missing field `{name}`")),
    }
}

fn str_field<'v>(v: &'v Value, name: &str) -> Result<&'v str, String> {
    match v.get_field(name) {
        Some(Value::Str(s)) => Ok(s),
        Some(other) => Err(format!("field `{name}` is not a string: {other:?}")),
        None => Err(format!("missing field `{name}`")),
    }
}

fn msg_type(v: &Value) -> Result<&str, String> {
    str_field(v, "type")
}

/// The fields of one decision line, borrowed: [`WireSink`](crate::WireSink)
/// fills one straight from the engine's record and
/// [`DecisionContext`](coca_dcsim::DecisionContext), and
/// [`OutMsg::encode`] lends one from a [`DecisionMsg`].
#[derive(Debug)]
pub(crate) struct DecisionView<'a> {
    pub(crate) t: usize,
    pub(crate) policy: &'a str,
    pub(crate) levels: &'a [usize],
    pub(crate) loads: &'a [f64],
    pub(crate) servers_on: usize,
    pub(crate) total_cost: f64,
    pub(crate) brown_energy: f64,
    pub(crate) telemetry: Option<PolicyTelemetry>,
}

impl DecisionView<'_> {
    /// Appends the decision line (no trailing newline) to `out`. Only
    /// growing `out` allocates. A non-finite number is an error and leaves
    /// a partial line in `out`.
    pub(crate) fn encode(&self, out: &mut String) -> Result<(), serde_json::Error> {
        out.push_str("{\"type\":\"decision\",\"t\":");
        write_usize(out, self.t);
        out.push_str(",\"policy\":");
        write_str(out, self.policy);
        out.push_str(",\"levels\":");
        write_array(out, self.levels, |l| l as u64, |out, l| {
            write_usize(out, l);
            Ok(())
        })?;
        out.push_str(",\"loads\":");
        write_array(out, self.loads, f64::to_bits, write_f64)?;
        out.push_str(",\"servers_on\":");
        write_usize(out, self.servers_on);
        out.push_str(",\"total_cost\":");
        write_f64(out, self.total_cost)?;
        out.push_str(",\"brown_energy\":");
        write_f64(out, self.brown_energy)?;
        if let Some(tele) = &self.telemetry {
            out.push_str(",\"telemetry\":{\"deficit_kwh\":");
            write_f64(out, tele.deficit_kwh)?;
            out.push_str(",\"frame_pos\":");
            write_usize(out, tele.frame_pos);
            out.push_str(",\"v\":");
            write_f64(out, tele.v)?;
            out.push('}');
        }
        out.push('}');
        Ok(())
    }
}

/// Wire integers are `i64`s, as the parser reads them; a count past
/// `i64::MAX` (out of reach for slots, groups and levels) wraps.
fn write_usize(out: &mut String, x: usize) {
    write_i64(out, x as i64);
}

// audit:hot-path: begin — the per-element loop of every decision line
/// Appends `[x0,x1,…]`, writing each element with `write` unless it has
/// the same `bits` as the element before it, whose text is copied
/// instead. The groups of one partition get the same level and the same
/// load, so a paper-fleet line (200 levels, 200 loads) formats only a
/// handful of its numbers.
fn write_array<T: Copy>(
    out: &mut String,
    items: &[T],
    bits: impl Fn(T) -> u64,
    write: impl Fn(&mut String, T) -> Result<(), serde_json::Error>,
) -> Result<(), serde_json::Error> {
    out.push('[');
    let mut prev = None;
    let (mut from, mut to) = (0, 0);
    for (i, &x) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let key = bits(x);
        if prev == Some(key) {
            out.extend_from_within(from..to);
        } else {
            from = out.len();
            write(out, x)?;
            to = out.len();
            prev = Some(key);
        }
    }
    out.push(']');
    Ok(())
}
// audit:hot-path: end

fn encode_slot(out: &mut String, env: &SlotEnv) -> Result<(), serde_json::Error> {
    out.push_str("{\"type\":\"slot\",\"t\":");
    write_usize(out, env.t);
    out.push_str(",\"workload\":");
    write_f64(out, env.arrival_rate)?;
    out.push_str(",\"onsite\":");
    write_f64(out, env.onsite)?;
    out.push_str(",\"price\":");
    write_f64(out, env.price)?;
    out.push_str(",\"offsite\":");
    write_f64(out, env.offsite)?;
    out.push('}');
    Ok(())
}

impl InMsg {
    /// Appends this ingest line (no trailing newline) to `out`. A
    /// non-finite number is an error and leaves a partial line in `out`.
    pub fn encode(&self, out: &mut String) -> Result<(), String> {
        match self {
            InMsg::Slot(env) => encode_slot(out, env).map_err(|e| e.to_string()),
            InMsg::End => {
                out.push_str("{\"type\":\"end\"}");
                Ok(())
            }
        }
    }

    /// Encodes one ingest line (no trailing newline).
    ///
    /// # Panics
    /// On a non-finite number, which has no JSON text; [`Self::encode`]
    /// reports it as an error instead.
    pub fn to_line(&self) -> String {
        let mut out = String::new();
        self.encode(&mut out).expect("ingest lines carry finite numbers");
        out
    }

    /// Parses one ingest line.
    pub fn parse(line: &str) -> Result<InMsg, String> {
        let v: Value = serde_json::from_str(line).map_err(|e| e.to_string())?;
        match msg_type(&v)? {
            "slot" => Ok(InMsg::Slot(SlotEnv {
                t: usize_field(&v, "t")?,
                arrival_rate: float_field(&v, "workload")?,
                onsite: float_field(&v, "onsite")?,
                price: float_field(&v, "price")?,
                offsite: float_field(&v, "offsite")?,
            })),
            "end" => Ok(InMsg::End),
            other => Err(format!("unknown ingest message type `{other}`")),
        }
    }
}

impl OutMsg {
    /// Appends this publish line (no trailing newline) to `out`. Only
    /// growing `out` allocates. A non-finite number is an error and leaves
    /// a partial line in `out`.
    pub fn encode(&self, out: &mut String) -> Result<(), String> {
        match self {
            OutMsg::Hello { policy, groups } => {
                out.push_str("{\"type\":\"hello\",\"proto\":");
                write_i64(out, PROTO_VERSION);
                out.push_str(",\"policy\":");
                write_str(out, policy);
                out.push_str(",\"groups\":");
                write_usize(out, *groups);
                out.push('}');
                Ok(())
            }
            OutMsg::Decision(d) => DecisionView {
                t: d.t,
                policy: &d.policy,
                levels: &d.levels,
                loads: &d.loads,
                servers_on: d.servers_on,
                total_cost: d.total_cost,
                brown_energy: d.brown_energy,
                telemetry: d.telemetry,
            }
            .encode(out)
            .map_err(|e| e.to_string()),
            OutMsg::End { slots } => {
                out.push_str("{\"type\":\"end\",\"slots\":");
                write_usize(out, *slots);
                out.push('}');
                Ok(())
            }
        }
    }

    /// Encodes one publish line (no trailing newline).
    ///
    /// # Panics
    /// On a non-finite number, which has no JSON text; [`Self::encode`]
    /// reports it as an error instead.
    pub fn to_line(&self) -> String {
        let mut out = String::new();
        self.encode(&mut out).expect("publish lines carry finite numbers");
        out
    }

    /// Parses one publish line.
    pub fn parse(line: &str) -> Result<OutMsg, String> {
        let v: Value = serde_json::from_str(line).map_err(|e| e.to_string())?;
        match msg_type(&v)? {
            "hello" => {
                let proto = int_field(&v, "proto")?;
                if proto != PROTO_VERSION {
                    return Err(format!("protocol version {proto}, this build speaks {PROTO_VERSION}"));
                }
                Ok(OutMsg::Hello {
                    policy: str_field(&v, "policy")?.to_string(),
                    groups: usize_field(&v, "groups")?,
                })
            }
            "decision" => {
                let levels = match v.get_field("levels") {
                    Some(Value::Seq(items)) => items
                        .iter()
                        .map(|x| match x {
                            Value::Int(i) => usize::try_from(*i)
                                .map_err(|_| format!("negative level {i}")),
                            other => Err(format!("level is not an integer: {other:?}")),
                        })
                        .collect::<Result<Vec<_>, _>>()?,
                    _ => return Err("missing/invalid field `levels`".into()),
                };
                let loads = match v.get_field("loads") {
                    Some(Value::Seq(items)) => items
                        .iter()
                        .map(|x| match x {
                            Value::Float(f) => Ok(*f),
                            Value::Int(i) => Ok(*i as f64),
                            other => Err(format!("load is not a number: {other:?}")),
                        })
                        .collect::<Result<Vec<_>, _>>()?,
                    _ => return Err("missing/invalid field `loads`".into()),
                };
                let telemetry = match v.get_field("telemetry") {
                    None | Some(Value::Null) => None,
                    Some(tele) => Some(PolicyTelemetry {
                        deficit_kwh: float_field(tele, "deficit_kwh")?,
                        frame_pos: usize_field(tele, "frame_pos")?,
                        v: float_field(tele, "v")?,
                    }),
                };
                Ok(OutMsg::Decision(DecisionMsg {
                    t: usize_field(&v, "t")?,
                    policy: str_field(&v, "policy")?.to_string(),
                    levels,
                    loads,
                    servers_on: usize_field(&v, "servers_on")?,
                    total_cost: float_field(&v, "total_cost")?,
                    brown_energy: float_field(&v, "brown_energy")?,
                    telemetry,
                }))
            }
            "end" => Ok(OutMsg::End { slots: usize_field(&v, "slots")? }),
            other => Err(format!("unknown publish message type `{other}`")),
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The encoding the wire had before the direct encoder: a `Value`
    /// tree handed to `serde_json::to_string`. Every line the encoder
    /// writes must equal this one byte for byte.
    pub(crate) fn oracle_out(m: &OutMsg) -> String {
        let float = Value::Float;
        let int = |x: usize| Value::Int(x as i64);
        let entries: Vec<(&str, Value)> = match m {
            OutMsg::Hello { policy, groups } => vec![
                ("type", Value::Str("hello".into())),
                ("proto", Value::Int(PROTO_VERSION)),
                ("policy", Value::Str(policy.clone())),
                ("groups", int(*groups)),
            ],
            OutMsg::Decision(d) => {
                let mut entries = vec![
                    ("type", Value::Str("decision".into())),
                    ("t", int(d.t)),
                    ("policy", Value::Str(d.policy.clone())),
                    ("levels", Value::Seq(d.levels.iter().map(|&l| int(l)).collect())),
                    ("loads", Value::Seq(d.loads.iter().map(|&l| float(l)).collect())),
                    ("servers_on", int(d.servers_on)),
                    ("total_cost", float(d.total_cost)),
                    ("brown_energy", float(d.brown_energy)),
                ];
                if let Some(tele) = &d.telemetry {
                    entries.push((
                        "telemetry",
                        Value::Map(vec![
                            ("deficit_kwh".into(), float(tele.deficit_kwh)),
                            ("frame_pos".into(), int(tele.frame_pos)),
                            ("v".into(), float(tele.v)),
                        ]),
                    ));
                }
                entries
            }
            OutMsg::End { slots } => vec![("type", Value::Str("end".into())), ("slots", int(*slots))],
        };
        oracle(entries)
    }

    fn oracle_in(m: &InMsg) -> String {
        match m {
            InMsg::Slot(env) => oracle(vec![
                ("type", Value::Str("slot".into())),
                ("t", Value::Int(env.t as i64)),
                ("workload", Value::Float(env.arrival_rate)),
                ("onsite", Value::Float(env.onsite)),
                ("price", Value::Float(env.price)),
                ("offsite", Value::Float(env.offsite)),
            ]),
            InMsg::End => oracle(vec![("type", Value::Str("end".into()))]),
        }
    }

    fn oracle(entries: Vec<(&str, Value)>) -> String {
        let v = Value::Map(entries.into_iter().map(|(k, x)| (k.to_string(), x)).collect());
        serde_json::to_string(&v).unwrap()
    }

    /// Values whose text takes every path of `{:?}`: zeros, subnormals,
    /// the exponent forms at both ends, integral floats and the extremes.
    const SPECIAL: &[f64] = &[
        0.0,
        -0.0,
        1.0,
        0.1,
        -2.75,
        1e15,
        1e16,
        1.5e16,
        1e-4,
        9.999e-5,
        1e-7,
        1e300,
        f64::MAX,
        f64::MIN,
        f64::MIN_POSITIVE,
        5e-324,
        f64::from_bits(0x000f_ffff_ffff_ffff), // the largest subnormal
    ];

    /// Finite floats: a special value, any finite bit pattern, or a short
    /// decimal scaled into every notation range.
    fn float() -> impl Strategy<Value = f64> {
        (0usize..3 * SPECIAL.len(), 0u64..u64::MAX, -12i32..20).prop_map(|(pick, bits, exp)| {
            if pick < SPECIAL.len() {
                SPECIAL[pick]
            } else if pick % 2 == 0 {
                let x = f64::from_bits(bits);
                if x.is_finite() { x } else { 0.5 }
            } else {
                (bits % 10_000) as f64 * 10f64.powi(exp)
            }
        })
    }

    /// Runs of equal values, as the groups of one partition get.
    fn runs<S: Strategy>(value: S) -> impl Strategy<Value = Vec<S::Value>>
    where
        S::Value: Clone,
    {
        proptest::collection::vec((value, 1usize..6), 0..40).prop_map(|runs| {
            runs.into_iter().flat_map(|(x, n)| std::iter::repeat_n(x, n)).collect()
        })
    }

    /// Policy names with quotes, backslashes, control and non-ASCII
    /// characters.
    fn name() -> impl Strategy<Value = String> {
        const POOL: &[char] =
            &['a', 'Z', ' ', '/', '"', '\\', '\n', '\r', '\t', '\u{0}', '\u{1f}', '\u{7f}', 'é', '😀'];
        proptest::collection::vec(0..POOL.len(), 0..12)
            .prop_map(|picks| picks.into_iter().map(|i| POOL[i]).collect())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn decision_lines_match_the_value_tree_oracle(
            t in 0usize..1_000_000,
            policy in name(),
            levels in runs(0usize..12),
            loads in runs(float()),
            costs in (float(), float(), 0usize..1_000_000),
            telemetry in (proptest::bool::ANY, float(), 0usize..48, float()),
        ) {
            let (total_cost, brown_energy, servers_on) = costs;
            let (on, deficit_kwh, frame_pos, v) = telemetry;
            let m = OutMsg::Decision(DecisionMsg {
                t,
                policy,
                levels,
                loads,
                servers_on,
                total_cost,
                brown_energy,
                telemetry: on.then_some(PolicyTelemetry { deficit_kwh, frame_pos, v }),
            });
            prop_assert_eq!(m.to_line(), oracle_out(&m));
        }

        #[test]
        fn hello_end_and_ingest_lines_match_the_oracle(
            policy in name(),
            n in 0usize..usize::MAX,
            env in (float(), float(), float(), float()),
        ) {
            let hello = OutMsg::Hello { policy, groups: n };
            prop_assert_eq!(hello.to_line(), oracle_out(&hello));
            let end = OutMsg::End { slots: n };
            prop_assert_eq!(end.to_line(), oracle_out(&end));
            let (arrival_rate, onsite, price, offsite) = env;
            let slot = InMsg::Slot(SlotEnv { t: n, arrival_rate, onsite, price, offsite });
            prop_assert_eq!(slot.to_line(), oracle_in(&slot));
            prop_assert_eq!(InMsg::End.to_line(), oracle_in(&InMsg::End));
        }
    }

    #[test]
    fn non_finite_numbers_are_encoding_errors() {
        let ok = DecisionMsg {
            t: 3,
            policy: "coca".into(),
            levels: vec![1, 1, 2],
            loads: vec![4.0, 4.0, 4.0],
            servers_on: 12,
            total_cost: 1.0,
            brown_energy: 0.5,
            telemetry: Some(PolicyTelemetry { deficit_kwh: 2.0, frame_pos: 3, v: 100.0 }),
        };
        let breaks: [fn(&mut DecisionMsg, f64); 7] = [
            |d, x| d.loads[0] = x,
            |d, x| d.loads[1] = x,
            |d, x| d.loads[2] = x,
            |d, x| d.total_cost = x,
            |d, x| d.brown_energy = x,
            |d, x| d.telemetry.as_mut().unwrap().deficit_kwh = x,
            |d, x| d.telemetry.as_mut().unwrap().v = x,
        ];
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for set in breaks {
                let mut d = ok.clone();
                set(&mut d, bad);
                let err = OutMsg::Decision(d).encode(&mut String::new()).unwrap_err();
                assert!(err.contains("non-finite"), "{err}");
            }
            let slot = InMsg::Slot(SlotEnv { price: bad, ..env(0) });
            let err = slot.encode(&mut String::new()).unwrap_err();
            assert!(err.contains("non-finite"), "{err}");
        }
        let mut out = String::new();
        OutMsg::Decision(ok.clone()).encode(&mut out).unwrap();
        assert_eq!(out, oracle_out(&OutMsg::Decision(ok)));
    }

    #[test]
    fn encode_appends_to_the_buffer() {
        let mut out = String::from("x");
        OutMsg::End { slots: 2 }.encode(&mut out).unwrap();
        InMsg::End.encode(&mut out).unwrap();
        assert_eq!(out, "x{\"type\":\"end\",\"slots\":2}{\"type\":\"end\"}");
    }

    fn env(t: usize) -> SlotEnv {
        SlotEnv { t, arrival_rate: 120.5, onsite: 3.25, price: 0.05, offsite: 4.5 }
    }

    #[test]
    fn ingest_roundtrip() {
        let m = InMsg::Slot(env(7));
        assert_eq!(InMsg::parse(&m.to_line()).unwrap(), m);
        assert_eq!(InMsg::parse(&InMsg::End.to_line()).unwrap(), InMsg::End);
    }

    #[test]
    fn publish_roundtrip_with_and_without_telemetry() {
        let hello = OutMsg::Hello { policy: "coca".into(), groups: 3 };
        assert_eq!(OutMsg::parse(&hello.to_line()).unwrap(), hello);

        let mut d = DecisionMsg {
            t: 4,
            policy: "coca".into(),
            levels: vec![2, 0, 1],
            loads: vec![60.0, 0.0, 60.5],
            servers_on: 20,
            total_cost: 1.25,
            brown_energy: 0.5,
            telemetry: Some(PolicyTelemetry { deficit_kwh: 1.5, frame_pos: 4, v: 100.0 }),
        };
        let m = OutMsg::Decision(d.clone());
        assert_eq!(OutMsg::parse(&m.to_line()).unwrap(), m);
        d.telemetry = None;
        let m = OutMsg::Decision(d);
        let line = m.to_line();
        assert!(!line.contains("telemetry"));
        assert_eq!(OutMsg::parse(&line).unwrap(), m);

        let end = OutMsg::End { slots: 72 };
        assert_eq!(OutMsg::parse(&end.to_line()).unwrap(), end);
    }

    #[test]
    fn lines_carry_the_type_tag_inline() {
        let line = InMsg::Slot(env(0)).to_line();
        assert!(line.starts_with("{\"type\":\"slot\","), "{line}");
        let line = OutMsg::End { slots: 3 }.to_line();
        assert_eq!(line, "{\"type\":\"end\",\"slots\":3}");
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(InMsg::parse("not json").is_err());
        assert!(InMsg::parse("{\"type\":\"mystery\"}").is_err());
        assert!(InMsg::parse("{\"t\":0}").is_err(), "missing type tag");
        assert!(OutMsg::parse("{\"type\":\"decision\",\"t\":0}").is_err(), "missing fields");
        let wrong_proto = "{\"type\":\"hello\",\"proto\":99,\"policy\":\"x\",\"groups\":1}";
        assert!(OutMsg::parse(wrong_proto).is_err());
        let neg_t = "{\"type\":\"slot\",\"t\":-1,\"workload\":1,\"onsite\":0,\"price\":0.1,\"offsite\":0}";
        assert!(InMsg::parse(neg_t).is_err());
    }
}
