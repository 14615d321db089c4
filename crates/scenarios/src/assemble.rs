//! Figure assembly: completed run results → [`Figure`]s.
//!
//! A spec's `figures` section declares curves against run groups; this
//! module resolves those declarations over the per-run result files loaded
//! by [`BatchRunner::load_results`](crate::runner::BatchRunner::load_results).
//! Selectors:
//!
//! * `y: "scalar:<name>"` — one point per run of the group, in manifest
//!   (sweep) order; the curve is the whole group.
//! * `y: "series:<name>"` — one curve **per run** from a recorded per-slot
//!   series; `{key}` / `{key:.N}` placeholders in the series name are
//!   substituted from the run's parameters and lane scalars.
//! * `x: "param:<key>" | "scalar:<name>" | "index"`.
//! * `x_from` borrows the x axis (and broadcast length) from another
//!   group — e.g. stretching a single carbon-unaware reference across a
//!   budget sweep — and `const_y` draws a constant line over it.
//! * `normalize: "first"` divides a curve by its first y value.
//!
//! Lanes marked `skipped` in the results (e.g. an infeasible GSD initial
//! point) drop their curves, so Fig. 4(b) shows only feasible starts.

use std::collections::HashMap;

use coca_experiments::figures::Figure;
use coca_experiments::report::Series;
use serde::Value;

use crate::manifest::{Manifest, RunEntry};
use crate::spec::{num, str_of, FigureSpec, SeriesSpec, Spec};

fn lane_of<'v>(result: &'v Value, lane: Option<&str>) -> Result<&'v Value, String> {
    let lanes = result
        .get_field("lanes")
        .and_then(Value::as_seq)
        .ok_or("run result without lanes")?;
    match lane {
        None => lanes.first().ok_or_else(|| "run result with empty lanes".to_string()),
        Some(label) => lanes
            .iter()
            .find(|l| l.get_field("label").and_then(str_of) == Some(label))
            .ok_or_else(|| format!("run result has no lane {label:?}")),
    }
}

fn lane_skipped(lane: &Value) -> bool {
    matches!(lane.get_field("skipped"), Some(Value::Bool(true)))
}

fn lane_scalar(lane: &Value, name: &str) -> Option<f64> {
    lane.get_field("scalars")?.get_field(name).and_then(num)
}

fn lane_series(lane: &Value, name: &str) -> Option<Vec<f64>> {
    let seq = lane.get_field("series")?.get_field(name)?.as_seq()?;
    seq.iter().map(num).collect()
}

/// Formats a numeric placeholder value for a series label: integral
/// floats print without a fractional part (`delta=2g`, not `delta=2.0g`).
fn format_num(v: f64) -> String {
    // audit:allow(float-eq) exact integrality test: fract() of an integral f64 is exactly 0.0
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// Substitutes `{key}` / `{key:.N}` placeholders from the run's resolved
/// config and the selected lane's scalars (config wins for strings,
/// scalars win for derived numbers absent from the config).
fn template_name(
    template: &str,
    entry: &RunEntry,
    lane: &Value,
) -> Result<String, String> {
    let mut out = String::with_capacity(template.len());
    let mut rest = template;
    while let Some(open) = rest.find('{') {
        out.push_str(&rest[..open]);
        let close = rest[open..]
            .find('}')
            .ok_or_else(|| format!("unbalanced {{ in series name {template:?}"))?
            + open;
        let inner = &rest[open + 1..close];
        let (key, precision) = match inner.split_once(":.") {
            Some((k, p)) => (
                k,
                Some(
                    p.parse::<usize>()
                        .map_err(|_| format!("bad precision in placeholder {{{inner}}}"))?,
                ),
            ),
            None => (inner, None),
        };
        let value = entry.config.get_field(key);
        let rendered = match (value, precision) {
            (Some(Value::Str(s)), _) => s.clone(),
            (v, p) => {
                let n = v
                    .and_then(num)
                    .or_else(|| lane_scalar(lane, key))
                    .ok_or_else(|| format!("series name key {key:?} not found in run config or lane scalars"))?;
                match p {
                    Some(p) => format!("{n:.p$}"),
                    None => format_num(n),
                }
            }
        };
        out.push_str(&rendered);
        rest = &rest[close + 1..];
    }
    out.push_str(rest);
    Ok(out)
}

struct Source<'a> {
    entries: Vec<&'a RunEntry>,
    results: Vec<&'a Value>,
}

fn group_source<'a>(
    manifest: &'a Manifest,
    results: &'a HashMap<String, Value>,
    group: &str,
) -> Result<Source<'a>, String> {
    let entries: Vec<&RunEntry> = manifest.runs.iter().filter(|r| r.group == group).collect();
    if entries.is_empty() {
        return Err(format!("figure references unknown group {group:?}"));
    }
    let values = entries
        .iter()
        .map(|e| {
            results
                .get(&e.id)
                .ok_or_else(|| format!("group {group:?}: run {} has no result (incomplete batch)", e.id))
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Source { entries, results: values })
}

fn x_value(sel: &str, entry: &RunEntry, lane: &Value, index: usize) -> Result<f64, String> {
    if sel == "index" {
        return Ok(index as f64);
    }
    if let Some(key) = sel.strip_prefix("param:") {
        return entry
            .config
            .get_field(key)
            .and_then(num)
            .ok_or_else(|| format!("x param {key:?} missing from run config"));
    }
    if let Some(name) = sel.strip_prefix("scalar:") {
        return lane_scalar(lane, name)
            .ok_or_else(|| format!("x scalar {name:?} missing from lane"));
    }
    Err(format!("unknown x selector {sel:?}"))
}

fn apply_normalize(normalize: Option<&str>, mut y: Vec<f64>) -> Result<Vec<f64>, String> {
    match normalize {
        None => Ok(y),
        Some("first") => {
            let first = *y.first().ok_or("cannot normalize an empty series")?;
            for v in &mut y {
                *v /= first;
            }
            Ok(y)
        }
        Some(other) => Err(format!("unknown normalize mode {other:?}")),
    }
}

/// Resolves the x axis of a scalar/const curve: the series' own group, or
/// the `x_from` group when borrowing an axis.
fn x_axis(
    spec: &SeriesSpec,
    manifest: &Manifest,
    results: &HashMap<String, Value>,
) -> Result<Option<Vec<f64>>, String> {
    let Some(group) = spec.x_from.as_deref() else { return Ok(None) };
    let source = group_source(manifest, results, group)?;
    let mut xs = Vec::with_capacity(source.entries.len());
    for (i, (entry, result)) in source.entries.iter().zip(&source.results).enumerate() {
        let lane = lane_of(result, spec.x_lane.as_deref())?;
        xs.push(x_value(&spec.x, entry, lane, i)?);
    }
    Ok(Some(xs))
}

fn assemble_series(
    spec: &SeriesSpec,
    manifest: &Manifest,
    results: &HashMap<String, Value>,
) -> Result<Vec<Series>, String> {
    let borrowed_x = x_axis(spec, manifest, results)?;

    if let Some(const_y) = spec.const_y {
        let xs = borrowed_x
            .ok_or_else(|| format!("series {:?}: const_y needs x_from", spec.name))?;
        let ys = vec![const_y; xs.len()];
        return Ok(vec![Series::new(spec.name.clone(), xs, ys)]);
    }

    let group = spec
        .group
        .as_deref()
        .ok_or_else(|| format!("series {:?}: needs a group (or const_y)", spec.name))?;
    let y_sel = spec
        .y
        .as_deref()
        .ok_or_else(|| format!("series {:?}: needs a y selector (or const_y)", spec.name))?;
    let source = group_source(manifest, results, group)?;

    if let Some(name) = y_sel.strip_prefix("series:") {
        // One curve per run; x is the slot index.
        let mut curves = Vec::new();
        for (entry, result) in source.entries.iter().zip(&source.results) {
            let lane = lane_of(result, spec.lane.as_deref())?;
            if lane_skipped(lane) {
                continue;
            }
            let values = lane_series(lane, name).ok_or_else(|| {
                format!("series {:?}: run {} recorded no series {name:?}", spec.name, entry.id)
            })?;
            let label = template_name(&spec.name, entry, lane)?;
            curves.push(Series::indexed(
                label,
                apply_normalize(spec.normalize.as_deref(), values)?,
            ));
        }
        return Ok(curves);
    }

    let Some(name) = y_sel.strip_prefix("scalar:") else {
        return Err(format!("series {:?}: unknown y selector {y_sel:?}", spec.name));
    };
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for (i, (entry, result)) in source.entries.iter().zip(&source.results).enumerate() {
        let lane = lane_of(result, spec.lane.as_deref())?;
        if lane_skipped(lane) {
            continue;
        }
        ys.push(lane_scalar(lane, name).ok_or_else(|| {
            format!("series {:?}: run {} has no scalar {name:?}", spec.name, entry.id)
        })?);
        if borrowed_x.is_none() {
            xs.push(x_value(&spec.x, entry, lane, i)?);
        }
    }
    if let Some(bx) = borrowed_x {
        // Borrowing an axis: a single-point source broadcasts across it,
        // an equal-length source pairs with it.
        if ys.len() == 1 {
            ys = vec![ys[0]; bx.len()];
        } else if ys.len() != bx.len() {
            return Err(format!(
                "series {:?}: {} points cannot stretch over x_from axis of {}",
                spec.name,
                ys.len(),
                bx.len()
            ));
        }
        xs = bx;
    }
    Ok(vec![Series::new(
        spec.name.clone(),
        xs,
        apply_normalize(spec.normalize.as_deref(), ys)?,
    )])
}

fn assemble_figure(
    fig: &FigureSpec,
    manifest: &Manifest,
    results: &HashMap<String, Value>,
) -> Result<Figure, String> {
    let mut series = Vec::new();
    for s in &fig.series {
        series.extend(
            assemble_series(s, manifest, results)
                .map_err(|e| format!("figure {}: {e}", fig.stem))?,
        );
    }
    Ok(Figure { title: fig.title.clone(), x_label: fig.x_label.clone(), series })
}

/// Assembles every figure of a spec from completed run results, returning
/// `(stem, figure)` pairs in spec order.
pub fn assemble(
    spec: &Spec,
    manifest: &Manifest,
    results: &HashMap<String, Value>,
) -> Result<Vec<(String, Figure)>, String> {
    spec.figures
        .iter()
        .map(|f| Ok((f.stem.clone(), assemble_figure(f, manifest, results)?)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::materialize;
    use coca_experiments::setup::ExperimentScale;

    fn fake_result(id: &str, label: &str, scalars: &[(&str, f64)], series: &[(&str, &[f64])]) -> (String, Value) {
        let lane = Value::Map(vec![
            ("label".into(), Value::Str(label.into())),
            (
                "scalars".into(),
                Value::Map(scalars.iter().map(|(k, v)| ((*k).into(), Value::Float(*v))).collect()),
            ),
            (
                "series".into(),
                Value::Map(
                    series
                        .iter()
                        .map(|(k, vs)| {
                            ((*k).into(), Value::Seq(vs.iter().map(|v| Value::Float(*v)).collect()))
                        })
                        .collect(),
                ),
            ),
            ("skipped".into(), Value::Bool(false)),
        ]);
        (id.to_string(), Value::Map(vec![("lanes".into(), Value::Seq(vec![lane]))]))
    }

    fn sweep_spec() -> Spec {
        Spec::from_json(
            r#"{
            "name": "t",
            "groups": [
                {"id": "sweep", "kind": "lockstep", "sweep": {"phi": [1.0, 1.1, 1.2]},
                 "lanes": [{"label": "coca", "policy": "coca"}]},
                {"id": "ref", "kind": "lockstep",
                 "lanes": [{"label": "coca", "policy": "coca"}]}
            ],
            "figures": [
                {"stem": "f", "title": "T", "x_label": "phi", "series": [
                    {"name": "coca", "group": "sweep", "lane": "coca",
                     "x": "param:phi", "y": "scalar:cost", "normalize": "first"},
                    {"name": "ref", "group": "ref", "lane": "coca",
                     "x": "param:phi", "x_from": "sweep", "x_lane": "coca",
                     "y": "scalar:cost"},
                    {"name": "unit", "x": "param:phi", "x_from": "sweep",
                     "x_lane": "coca", "const_y": 1.0}
                ]}
            ]}"#,
        )
        .unwrap()
    }

    #[test]
    fn scalar_broadcast_and_normalize() {
        let spec = sweep_spec();
        let manifest = materialize(&spec, ExperimentScale::small()).unwrap();
        let mut results = HashMap::new();
        let sweep_ids: Vec<String> = manifest
            .runs
            .iter()
            .filter(|r| r.group == "sweep")
            .map(|r| r.id.clone())
            .collect();
        for (i, id) in sweep_ids.iter().enumerate() {
            let (k, v) = fake_result(id, "coca", &[("cost", 10.0 * (i + 1) as f64)], &[]);
            results.insert(k, v);
        }
        let ref_id = manifest.runs.iter().find(|r| r.group == "ref").unwrap().id.clone();
        let (k, v) = fake_result(&ref_id, "coca", &[("cost", 7.0)], &[]);
        results.insert(k, v);

        let figs = assemble(&spec, &manifest, &results).unwrap();
        assert_eq!(figs.len(), 1);
        let fig = &figs[0].1;
        assert_eq!(fig.series.len(), 3);
        assert_eq!(fig.series[0].x, vec![1.0, 1.1, 1.2]);
        assert_eq!(fig.series[0].y, vec![1.0, 2.0, 3.0], "normalized to first");
        assert_eq!(fig.series[1].x, vec![1.0, 1.1, 1.2], "x borrowed from sweep");
        assert_eq!(fig.series[1].y, vec![7.0, 7.0, 7.0], "single point broadcast");
        assert_eq!(fig.series[2].y, vec![1.0, 1.0, 1.0], "const line");
    }

    #[test]
    fn per_run_series_with_templated_names() {
        let spec = Spec::from_json(
            r#"{
            "name": "t",
            "groups": [
                {"id": "g", "kind": "gsd_trace", "params": {"iterations": 5},
                 "sweep": {"delta_mult": [2, 10]}}
            ],
            "figures": [
                {"stem": "f", "series": [
                    {"name": "delta={delta_mult:.0}g", "group": "g", "y": "series:trace"}
                ]}
            ]}"#,
        )
        .unwrap();
        let manifest = materialize(&spec, ExperimentScale::small()).unwrap();
        let mut results = HashMap::new();
        for (i, r) in manifest.runs.iter().enumerate() {
            let trace: Vec<f64> = vec![1.0 + i as f64, 0.5];
            let (k, v) = fake_result(&r.id, "gsd", &[], &[("trace", &trace)]);
            results.insert(k, v);
        }
        let figs = assemble(&spec, &manifest, &results).unwrap();
        let fig = &figs[0].1;
        assert_eq!(fig.series.len(), 2, "one curve per run");
        assert_eq!(fig.series[0].name, "delta=2g");
        assert_eq!(fig.series[1].name, "delta=10g");
        assert_eq!(fig.series[0].x, vec![0.0, 1.0], "indexed x");
    }

    #[test]
    fn missing_results_and_bad_selectors_error() {
        let spec = sweep_spec();
        let manifest = materialize(&spec, ExperimentScale::small()).unwrap();
        let err = assemble(&spec, &manifest, &HashMap::new()).unwrap_err();
        assert!(err.contains("no result"), "incomplete batch is an error: {err}");
    }
}
