//! Materialization: spec → deterministic manifest of concrete runs.
//!
//! A manifest lists every concrete run a spec expands to, in a stable
//! order (groups in spec order, sweep axes row-major with the last axis
//! fastest). Each run carries a **stable identity**: `r` + 16 hex digits
//! of the FNV-1a-64 hash of the canonical JSON of its *resolved
//! configuration* — scale numbers, workload, budget fraction, run kind and
//! parameters, but **not** the spec name, group id or figure definitions.
//! Editing a spec (renaming it, adding sweep points, changing figures)
//! therefore preserves the IDs — and the on-disk results — of every run
//! whose resolved configuration is unchanged.
//!
//! Materialization refuses any run kind but the four the runner executes
//! (`workloads`, `lockstep`, `budget_point`, `gsd_trace`), so a spec naming
//! another fails before anything runs.
//!
//! Canonical JSON means recursively key-sorted maps serialized by the
//! vendored `serde_json` (compact separators, shortest-round-trip floats),
//! so materializing the same spec twice yields byte-identical manifests —
//! the golden-manifest test pins this.

use coca_experiments::setup::ExperimentScale;
use serde::Value;

use crate::spec::{GroupSpec, Spec};

/// Recursively sorts every map in the value by key (canonical form).
pub fn canonicalize(v: &Value) -> Value {
    match v {
        Value::Map(entries) => {
            let mut sorted: Vec<(String, Value)> =
                entries.iter().map(|(k, v)| (k.clone(), canonicalize(v))).collect();
            sorted.sort_by(|a, b| a.0.cmp(&b.0));
            Value::Map(sorted)
        }
        Value::Seq(items) => Value::Seq(items.iter().map(canonicalize).collect()),
        other => other.clone(),
    }
}

/// Serializes a value as canonical JSON (recursively key-sorted maps,
/// compact output). The deterministic byte form behind run IDs, manifests
/// and run-result files.
pub fn canonical_json(v: &Value) -> Result<String, String> {
    serde_json::to_string(&canonicalize(v)).map_err(|e| format!("canonical json: {e}"))
}

/// FNV-1a 64-bit over the canonical JSON bytes of `identity`.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Stable run ID for a resolved run-identity value.
pub fn run_id(identity: &Value) -> Result<String, String> {
    Ok(format!("r{:016x}", fnv1a64(canonical_json(identity)?.as_bytes())))
}

/// The scale template as a JSON value (part of every run identity, so IDs
/// are stable under scale-name renames but change with the numbers).
pub fn scale_value(scale: &ExperimentScale) -> Value {
    Value::Map(vec![
        ("groups".to_string(), Value::Int(scale.groups as i64)),
        ("hours".to_string(), Value::Int(scale.hours as i64)),
        ("mean_price".to_string(), Value::Float(scale.mean_price)),
        ("peak_util".to_string(), Value::Float(scale.peak_util)),
        ("seed".to_string(), Value::Int(scale.seed as i64)),
        ("servers_per_group".to_string(), Value::Int(scale.servers_per_group as i64)),
    ])
}

/// Resolves a scale name (`small` / `medium` / `paper`) to its template.
pub fn scale_by_name(name: &str) -> Result<ExperimentScale, String> {
    match name {
        "small" => Ok(ExperimentScale::small()),
        "medium" => Ok(ExperimentScale::medium()),
        "paper" => Ok(ExperimentScale::paper()),
        other => Err(format!("unknown scale {other:?}")),
    }
}

/// One concrete run of a manifest.
#[derive(Debug, Clone)]
pub struct RunEntry {
    /// Stable identity hash (`r` + 16 hex digits).
    pub id: String,
    /// Group the run came from (figure assembly groups by this).
    pub group: String,
    /// Run kind (copied from the group).
    pub kind: String,
    /// Resolved configuration: fixed params merged with this run's sweep
    /// assignment (plus `lanes` for lockstep runs), key-sorted.
    pub config: Value,
}

/// A materialized manifest: the resolved template plus every concrete run.
#[derive(Debug, Clone)]
pub struct Manifest {
    /// Source spec name.
    pub spec: String,
    /// Resolved scale template.
    pub scale: ExperimentScale,
    /// Workload family name (`fiu` / `msr`).
    pub workload: String,
    /// Budget fraction.
    pub budget_fraction: f64,
    /// Concrete runs in deterministic order.
    pub runs: Vec<RunEntry>,
}

/// Expands one group's sweep axes cartesianly (row-major, last axis
/// fastest), yielding each run's axis assignment in spec axis order.
fn expand_sweep(group: &GroupSpec) -> Vec<Vec<(String, Value)>> {
    let mut combos: Vec<Vec<(String, Value)>> = vec![Vec::new()];
    for (axis, values) in &group.sweep {
        let mut next = Vec::with_capacity(combos.len() * values.len());
        for prefix in &combos {
            for v in values {
                let mut combo = prefix.clone();
                combo.push((axis.clone(), v.clone()));
                next.push(combo);
            }
        }
        combos = next;
    }
    combos
}

/// Materializes a spec into a manifest at the given scale. Deterministic:
/// the same spec and scale produce a byte-identical serialized manifest.
pub fn materialize(spec: &Spec, scale: ExperimentScale) -> Result<Manifest, String> {
    let scale = match &spec.scale {
        Some(pinned) => scale_by_name(pinned)?,
        None => scale,
    };
    let mut runs = Vec::new();
    for group in &spec.groups {
        match group.kind.as_str() {
            "workloads" | "lockstep" | "budget_point" | "gsd_trace" => {}
            other => return Err(format!("group {}: unknown run kind {other:?}", group.id)),
        }
        if group.kind == "lockstep" && group.lanes.is_empty() {
            return Err(format!("group {}: lockstep runs need at least one lane", group.id));
        }
        for combo in expand_sweep(group) {
            let mut config: Vec<(String, Value)> = group.params.clone();
            for (axis, value) in combo {
                if config.iter().any(|(k, _)| *k == axis) {
                    return Err(format!(
                        "group {}: sweep axis {axis:?} collides with a fixed param",
                        group.id
                    ));
                }
                config.push((axis, value));
            }
            if !group.lanes.is_empty() {
                config.push(("lanes".to_string(), Value::Seq(group.lanes.clone())));
            }
            let config = canonicalize(&Value::Map(config));
            let identity = Value::Map(vec![
                ("budget_fraction".to_string(), Value::Float(spec.budget_fraction)),
                ("config".to_string(), config.clone()),
                ("kind".to_string(), Value::Str(group.kind.clone())),
                ("scale".to_string(), scale_value(&scale)),
                ("workload".to_string(), Value::Str(spec.workload.clone())),
            ]);
            let id = run_id(&identity)?;
            if runs.iter().any(|r: &RunEntry| r.id == id) {
                return Err(format!(
                    "group {}: duplicate run identity {id} (identical resolved configs)",
                    group.id
                ));
            }
            runs.push(RunEntry { id, group: group.id.clone(), kind: group.kind.clone(), config });
        }
    }
    Ok(Manifest {
        spec: spec.name.clone(),
        scale,
        workload: spec.workload.clone(),
        budget_fraction: spec.budget_fraction,
        runs,
    })
}

impl Manifest {
    /// Serializes the manifest as canonical JSON.
    pub fn to_json(&self) -> Result<String, String> {
        let runs = self
            .runs
            .iter()
            .map(|r| {
                Value::Map(vec![
                    ("config".to_string(), r.config.clone()),
                    ("group".to_string(), Value::Str(r.group.clone())),
                    ("id".to_string(), Value::Str(r.id.clone())),
                    ("kind".to_string(), Value::Str(r.kind.clone())),
                ])
            })
            .collect();
        canonical_json(&Value::Map(vec![
            ("budget_fraction".to_string(), Value::Float(self.budget_fraction)),
            ("runs".to_string(), Value::Seq(runs)),
            ("scale".to_string(), scale_value(&self.scale)),
            ("spec".to_string(), Value::Str(self.spec.clone())),
            ("workload".to_string(), Value::Str(self.workload.clone())),
        ]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_spec(extra_axis: bool) -> Spec {
        let sweep = if extra_axis {
            r#"{"phi": [1.0, 1.1], "switch_kwh": [0.0, 0.01]}"#
        } else {
            r#"{"phi": [1.0, 1.1]}"#
        };
        Spec::from_json(&format!(
            r#"{{"name": "demo", "groups": [
                {{"id": "g", "kind": "lockstep", "sweep": {sweep},
                  "lanes": [{{"label": "coca", "policy": "coca"}}]}}
            ]}}"#
        ))
        .unwrap()
    }

    #[test]
    fn materialization_is_deterministic() {
        let spec = demo_spec(true);
        let a = materialize(&spec, ExperimentScale::small()).unwrap().to_json().unwrap();
        let b = materialize(&spec, ExperimentScale::small()).unwrap().to_json().unwrap();
        assert_eq!(a, b, "same spec, same bytes");
    }

    #[test]
    fn expansion_is_row_major_last_axis_fastest() {
        let spec = demo_spec(true);
        let m = materialize(&spec, ExperimentScale::small()).unwrap();
        assert_eq!(m.runs.len(), 4);
        let sw: Vec<f64> = m
            .runs
            .iter()
            .map(|r| crate::spec::num(r.config.get_field("switch_kwh").unwrap()).unwrap())
            .collect();
        assert_eq!(sw, vec![0.0, 0.01, 0.0, 0.01], "last axis cycles fastest");
    }

    #[test]
    fn editing_a_spec_preserves_unchanged_run_ids() {
        let small = materialize(&demo_spec(false), ExperimentScale::small()).unwrap();
        let big = materialize(&demo_spec(true), ExperimentScale::small()).unwrap();
        // The 1-axis spec's runs have no switch_kwh key, so they are
        // different configurations from every 2-axis run...
        for r in &small.runs {
            assert!(r.config.get_field("switch_kwh").is_none());
        }
        // ...but re-materializing the *same* spec under a different name
        // keeps every ID (identity excludes the spec/group names).
        let mut renamed = demo_spec(true);
        renamed.name = "renamed".into();
        renamed.groups[0].id = "other".into();
        let renamed = materialize(&renamed, ExperimentScale::small()).unwrap();
        let ids: Vec<&String> = big.runs.iter().map(|r| &r.id).collect();
        let renamed_ids: Vec<&String> = renamed.runs.iter().map(|r| &r.id).collect();
        assert_eq!(ids, renamed_ids, "run identity survives spec renames");
    }

    #[test]
    fn scale_changes_run_identity() {
        let spec = demo_spec(false);
        let small = materialize(&spec, ExperimentScale::small()).unwrap();
        let medium = materialize(&spec, ExperimentScale::medium()).unwrap();
        assert_ne!(small.runs[0].id, medium.runs[0].id);
    }

    #[test]
    fn canonical_json_sorts_keys_recursively() {
        let v = Value::Map(vec![
            ("b".to_string(), Value::Int(1)),
            (
                "a".to_string(),
                Value::Map(vec![
                    ("z".to_string(), Value::Int(2)),
                    ("y".to_string(), Value::Int(3)),
                ]),
            ),
        ]);
        assert_eq!(canonical_json(&v).unwrap(), r#"{"a":{"y":3,"z":2},"b":1}"#);
    }
}
