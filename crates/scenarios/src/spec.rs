//! The JSON scenario spec format: parsing, validation and serialization.
//!
//! A spec describes one experiment family — the scale/workload/budget
//! template, a list of **run groups** (each a run kind, fixed parameters,
//! an optional cartesian `sweep`, and for lockstep runs a list of policy
//! lanes), and a list of **figures** assembled from the completed runs.
//! The four run kinds are `workloads`, `lockstep`, `budget_point` and
//! `gsd_trace`; a lockstep run's `trim_frames` splits the horizon into
//! frames, which is all the frame-reset ablation sweeps.
//! The grammar is pinned by `schemas/scenario.schema.json` and documented
//! in DESIGN.md §16; parsing here is stricter than the schema (unknown run
//! kinds and malformed series selectors fail at materialization).
//!
//! Specs round-trip: [`Spec::from_json`] ∘ [`Spec::to_value`] preserves
//! every field, and map-valued fields keep their (spec-file) key order so
//! sweep expansion order is exactly the author's axis order.

use serde::Value;

/// Reads a `f64` out of a JSON number (`Int` or `Float`).
pub fn num(v: &Value) -> Option<f64> {
    match v {
        Value::Int(i) => Some(*i as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    }
}

/// Reads a non-negative integer out of a JSON number.
pub fn uint(v: &Value) -> Option<usize> {
    match v {
        Value::Int(i) if *i >= 0 => Some(*i as usize),
        _ => None,
    }
}

/// Reads a string out of a JSON value.
pub fn str_of(v: &Value) -> Option<&str> {
    match v {
        Value::Str(s) => Some(s.as_str()),
        _ => None,
    }
}

/// One policy lane of a `lockstep` run: a label, a policy name
/// (`coca` / `unaware` / `perfect_hp`) and policy parameters, kept as the
/// raw JSON map so the runner resolves them against the materialized
/// configuration.
pub type Lane = Value;

/// One run group: `sweep` axes expand cartesianly over the fixed `params`.
#[derive(Debug, Clone)]
pub struct GroupSpec {
    /// Group identifier, referenced by figure series.
    pub id: String,
    /// Run kind: `workloads`, `lockstep`, `budget_point` or `gsd_trace`.
    pub kind: String,
    /// Fixed parameters shared by every run of the group (spec key order).
    pub params: Vec<(String, Value)>,
    /// Sweep axes in spec order; expansion is row-major with the **last**
    /// axis fastest.
    pub sweep: Vec<(String, Vec<Value>)>,
    /// Policy lanes (lockstep runs only).
    pub lanes: Vec<Lane>,
}

/// One curve of an assembled figure.
#[derive(Debug, Clone)]
pub struct SeriesSpec {
    /// Series name; `{key}` / `{key:.N}` placeholders are substituted from
    /// the run's parameters and lane scalars (used when a `series:` source
    /// expands to one curve per run).
    pub name: String,
    /// Source group id (optional when `const_y` is set).
    pub group: Option<String>,
    /// Source lane label (default: the run's first lane).
    pub lane: Option<String>,
    /// Y selector: `scalar:<name>` (one point per run) or `series:<name>`
    /// (a recorded per-slot series; one curve per run).
    pub y: Option<String>,
    /// X selector: `param:<key>`, `scalar:<name>`, or `index`.
    pub x: String,
    /// Take x values (and the broadcast length) from this group instead of
    /// the source group — used to stretch a single reference run (e.g. the
    /// carbon-unaware lane) across a sweep.
    pub x_from: Option<String>,
    /// Lane used to resolve `scalar:` x selectors in the x group.
    pub x_lane: Option<String>,
    /// `"first"` divides the series by its first y value.
    pub normalize: Option<String>,
    /// Constant y value (requires `x_from` for the x axis).
    pub const_y: Option<f64>,
}

/// One figure assembled from completed runs.
#[derive(Debug, Clone)]
pub struct FigureSpec {
    /// Output stem (`<out>/<stem>.csv`).
    pub stem: String,
    /// Figure title.
    pub title: String,
    /// X-axis label.
    pub x_label: String,
    /// The curves.
    pub series: Vec<SeriesSpec>,
}

/// A parsed scenario spec.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Spec name (also the batch subdirectory name).
    pub name: String,
    /// Human title (defaults to the name).
    pub title: String,
    /// Pinned scale name (`small` / `medium` / `paper`); `None` defers to
    /// the CLI `--scale`.
    pub scale: Option<String>,
    /// Workload trace family (`fiu` / `msr`).
    pub workload: String,
    /// Carbon budget as a fraction of carbon-unaware brown energy.
    pub budget_fraction: f64,
    /// Run groups.
    pub groups: Vec<GroupSpec>,
    /// Figures assembled from the groups.
    pub figures: Vec<FigureSpec>,
}

fn expect_map<'v>(v: &'v Value, what: &str) -> Result<&'v [(String, Value)], String> {
    v.as_map().ok_or_else(|| format!("{what} must be a JSON object"))
}

fn opt_str(map: &Value, key: &str) -> Result<Option<String>, String> {
    match map.get_field(key) {
        None | Some(Value::Null) => Ok(None),
        Some(v) => {
            str_of(v).map(|s| Some(s.to_string())).ok_or_else(|| format!("{key} must be a string"))
        }
    }
}

fn req_str(map: &Value, key: &str, what: &str) -> Result<String, String> {
    opt_str(map, key)?.ok_or_else(|| format!("{what}: missing required string {key:?}"))
}

impl SeriesSpec {
    fn from_value(v: &Value) -> Result<Self, String> {
        expect_map(v, "series")?;
        let const_y = match v.get_field("const_y") {
            None | Some(Value::Null) => None,
            Some(n) => Some(num(n).ok_or("const_y must be a number")?),
        };
        Ok(Self {
            name: req_str(v, "name", "series")?,
            group: opt_str(v, "group")?,
            lane: opt_str(v, "lane")?,
            y: opt_str(v, "y")?,
            x: opt_str(v, "x")?.unwrap_or_else(|| "index".into()),
            x_from: opt_str(v, "x_from")?,
            x_lane: opt_str(v, "x_lane")?,
            normalize: opt_str(v, "normalize")?,
            const_y,
        })
    }

    fn to_value(&self) -> Value {
        let mut m = vec![("name".to_string(), Value::Str(self.name.clone()))];
        let optional = [
            ("group", &self.group),
            ("lane", &self.lane),
            ("y", &self.y),
            ("x_from", &self.x_from),
            ("x_lane", &self.x_lane),
            ("normalize", &self.normalize),
        ];
        for (k, v) in optional {
            if let Some(s) = v {
                m.push((k.to_string(), Value::Str(s.clone())));
            }
        }
        m.push(("x".to_string(), Value::Str(self.x.clone())));
        if let Some(c) = self.const_y {
            m.push(("const_y".to_string(), Value::Float(c)));
        }
        Value::Map(m)
    }
}

impl FigureSpec {
    fn from_value(v: &Value) -> Result<Self, String> {
        expect_map(v, "figure")?;
        let stem = req_str(v, "stem", "figure")?;
        let series = v
            .get_field("series")
            .and_then(Value::as_seq)
            .ok_or_else(|| format!("figure {stem}: missing series list"))?
            .iter()
            .map(SeriesSpec::from_value)
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("figure {stem}: {e}"))?;
        Ok(Self {
            title: opt_str(v, "title")?.unwrap_or_else(|| stem.clone()),
            x_label: opt_str(v, "x_label")?.unwrap_or_else(|| "x".into()),
            stem,
            series,
        })
    }

    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("stem".to_string(), Value::Str(self.stem.clone())),
            ("title".to_string(), Value::Str(self.title.clone())),
            ("x_label".to_string(), Value::Str(self.x_label.clone())),
            (
                "series".to_string(),
                Value::Seq(self.series.iter().map(SeriesSpec::to_value).collect()),
            ),
        ])
    }
}

impl GroupSpec {
    fn from_value(v: &Value) -> Result<Self, String> {
        expect_map(v, "group")?;
        let id = req_str(v, "id", "group")?;
        let kind = req_str(v, "kind", "group").map_err(|e| format!("group {id}: {e}"))?;
        let params = match v.get_field("params") {
            None => Vec::new(),
            Some(p) => expect_map(p, "params")?.to_vec(),
        };
        let mut sweep = Vec::new();
        if let Some(s) = v.get_field("sweep") {
            for (axis, values) in expect_map(s, "sweep")? {
                let values = values
                    .as_seq()
                    .ok_or_else(|| format!("group {id}: sweep axis {axis:?} must be a list"))?;
                if values.is_empty() {
                    return Err(format!("group {id}: sweep axis {axis:?} is empty"));
                }
                sweep.push((axis.clone(), values.to_vec()));
            }
        }
        let lanes = match v.get_field("lanes") {
            None => Vec::new(),
            Some(l) => l
                .as_seq()
                .ok_or_else(|| format!("group {id}: lanes must be a list"))?
                .to_vec(),
        };
        Ok(Self { id, kind, params, sweep, lanes })
    }

    fn to_value(&self) -> Value {
        let mut m = vec![
            ("id".to_string(), Value::Str(self.id.clone())),
            ("kind".to_string(), Value::Str(self.kind.clone())),
        ];
        if !self.params.is_empty() {
            m.push(("params".to_string(), Value::Map(self.params.clone())));
        }
        if !self.sweep.is_empty() {
            m.push((
                "sweep".to_string(),
                Value::Map(
                    self.sweep
                        .iter()
                        .map(|(k, vs)| (k.clone(), Value::Seq(vs.clone())))
                        .collect(),
                ),
            ));
        }
        if !self.lanes.is_empty() {
            m.push(("lanes".to_string(), Value::Seq(self.lanes.clone())));
        }
        Value::Map(m)
    }

    /// Number of concrete runs this group expands to.
    pub fn run_count(&self) -> usize {
        self.sweep.iter().map(|(_, vs)| vs.len()).product()
    }
}

impl Spec {
    /// Parses a spec from its JSON source.
    pub fn from_json(json: &str) -> Result<Self, String> {
        let v: Value = serde_json::from_str(json).map_err(|e| format!("spec parse: {e}"))?;
        Self::from_value(&v)
    }

    /// Parses a spec from an already-parsed JSON value.
    pub fn from_value(v: &Value) -> Result<Self, String> {
        expect_map(v, "spec")?;
        let name = req_str(v, "name", "spec")?;
        let budget_fraction = match v.get_field("budget_fraction") {
            None => 0.92,
            Some(f) => num(f).ok_or("budget_fraction must be a number")?,
        };
        if !(budget_fraction.is_finite() && budget_fraction > 0.0) {
            return Err(format!("spec {name}: budget_fraction must be positive"));
        }
        let groups = v
            .get_field("groups")
            .and_then(Value::as_seq)
            .ok_or_else(|| format!("spec {name}: missing groups list"))?
            .iter()
            .map(GroupSpec::from_value)
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("spec {name}: {e}"))?;
        if groups.is_empty() {
            return Err(format!("spec {name}: needs at least one group"));
        }
        let mut seen = Vec::new();
        for g in &groups {
            if seen.contains(&&g.id) {
                return Err(format!("spec {name}: duplicate group id {:?}", g.id));
            }
            seen.push(&g.id);
        }
        let figures = match v.get_field("figures") {
            None => Vec::new(),
            Some(f) => f
                .as_seq()
                .ok_or_else(|| format!("spec {name}: figures must be a list"))?
                .iter()
                .map(FigureSpec::from_value)
                .collect::<Result<Vec<_>, _>>()
                .map_err(|e| format!("spec {name}: {e}"))?,
        };
        Ok(Self {
            title: opt_str(v, "title")?.unwrap_or_else(|| name.clone()),
            scale: opt_str(v, "scale")?,
            workload: opt_str(v, "workload")?.unwrap_or_else(|| "fiu".into()),
            budget_fraction,
            name,
            groups,
            figures,
        })
    }

    /// Serializes the spec back into a JSON value (round-trip inverse of
    /// [`Spec::from_value`]).
    pub fn to_value(&self) -> Value {
        let mut m = vec![
            ("name".to_string(), Value::Str(self.name.clone())),
            ("title".to_string(), Value::Str(self.title.clone())),
        ];
        if let Some(scale) = &self.scale {
            m.push(("scale".to_string(), Value::Str(scale.clone())));
        }
        m.push(("workload".to_string(), Value::Str(self.workload.clone())));
        m.push(("budget_fraction".to_string(), Value::Float(self.budget_fraction)));
        m.push(("groups".to_string(), Value::Seq(self.groups.iter().map(GroupSpec::to_value).collect())));
        if !self.figures.is_empty() {
            m.push((
                "figures".to_string(),
                Value::Seq(self.figures.iter().map(FigureSpec::to_value).collect()),
            ));
        }
        Value::Map(m)
    }

    /// Total concrete runs across all groups.
    pub fn run_count(&self) -> usize {
        self.groups.iter().map(GroupSpec::run_count).sum()
    }

    /// Loads and parses a spec file.
    pub fn load(path: &std::path::Path) -> Result<Self, String> {
        let json = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Self::from_json(&json)
    }
}

/// Enumerates the spec files (`*.json`) of a directory in byte-sorted
/// filename order — the deterministic batch order.
pub fn discover(dir: &std::path::Path) -> Result<Vec<std::path::PathBuf>, String> {
    let mut paths = Vec::new();
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot list {}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| format!("cannot list {}: {e}", dir.display()))?.path();
        if path.extension().is_some_and(|e| e == "json") {
            paths.push(path);
        }
    }
    paths.sort();
    Ok(paths)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str = r#"{
        "name": "demo",
        "workload": "fiu",
        "budget_fraction": 0.92,
        "groups": [
            {"id": "g", "kind": "lockstep",
             "params": {"phi": 1.0},
             "sweep": {"switch_kwh": [0.0, 0.01], "trim_frames": [1, 2, 4]},
             "lanes": [{"label": "coca", "policy": "coca", "v_mode": "mult", "v_mult": 1.0}]}
        ],
        "figures": [
            {"stem": "demo_fig", "title": "t", "x_label": "x",
             "series": [{"name": "coca", "group": "g", "lane": "coca",
                         "x": "param:switch_kwh", "y": "scalar:avg_hourly_cost"}]}
        ]
    }"#;

    #[test]
    fn parses_and_counts_runs() {
        let spec = Spec::from_json(SPEC).unwrap();
        assert_eq!(spec.name, "demo");
        assert_eq!(spec.groups.len(), 1);
        assert_eq!(spec.groups[0].sweep.len(), 2);
        assert_eq!(spec.run_count(), 6, "2 x 3 cartesian expansion");
        assert_eq!(spec.figures[0].series[0].x, "param:switch_kwh");
    }

    #[test]
    fn round_trips_through_value() {
        let spec = Spec::from_json(SPEC).unwrap();
        let json = serde_json::to_string(&spec.to_value()).unwrap();
        let again = Spec::from_json(&json).unwrap();
        let json2 = serde_json::to_string(&again.to_value()).unwrap();
        assert_eq!(json, json2, "to_value/from_json must be a fixed point");
        assert_eq!(again.run_count(), 6);
        assert_eq!(again.groups[0].sweep[1].0, "trim_frames", "axis order preserved");
    }

    #[test]
    fn rejects_malformed_specs() {
        assert!(Spec::from_json("[]").is_err(), "spec must be an object");
        assert!(Spec::from_json(r#"{"name": "x", "groups": []}"#).is_err(), "empty groups");
        let dup = r#"{"name":"x","groups":[{"id":"a","kind":"lockstep"},{"id":"a","kind":"lockstep"}]}"#;
        assert!(Spec::from_json(dup).unwrap_err().contains("duplicate group id"));
        let empty_axis = r#"{"name":"x","groups":[{"id":"a","kind":"lockstep","sweep":{"v":[]}}]}"#;
        assert!(Spec::from_json(empty_axis).unwrap_err().contains("empty"));
    }
}
