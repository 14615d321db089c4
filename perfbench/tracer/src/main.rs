//! `coca-perfbench-tracer` — the in-process half of the benchmark.
//!
//! ```text
//! coca-perfbench-tracer capacity --groups G --servers-per-group N
//! coca-perfbench-tracer materialize --scenarios DIR --scale S --reps N
//! coca-perfbench-tracer batch --scenarios DIR --scale S --workers N --out DIR
//! coca-perfbench-tracer serve --mode live|backfill --resume-ckpt PATH --input PATH
//!                             --work DIR --groups G --servers-per-group N
//!                             --horizon J --rec-total Z --v V --frame T
//!                             [--checkpoint-every N] --seconds S
//! ```
//!
//! `capacity` reports a homogeneous fleet's capacity and the arrival rate
//! above which the engine refuses a slot (γ × capacity), so inputs can be
//! sized against the fleet and checked before they are served.
//! `materialize` times spec load + manifest materialisation (the batch
//! workload's set-up). `batch` and `serve` are the traced runs: they drive
//! the same library entry points as `repro batch` and `coca-serve run`,
//! wrapping the `Policy`, `RecordSink`, `SlotSource`, reader and subscriber
//! seams with timers. Each subcommand prints one JSON object on its last
//! stdout line; `perfbench/run.py` turns it into per-layer metrics.

mod batch;
mod serve;
mod timing;

use std::collections::HashMap;
use std::process::ExitCode;

use serde::Value;

/// Parsed `--flag value` pairs.
pub struct Flags(HashMap<String, String>);

impl Flags {
    fn parse(args: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut map = HashMap::new();
        let mut it = args;
        while let Some(flag) = it.next() {
            let name = flag
                .strip_prefix("--")
                .ok_or_else(|| format!("expected a --flag, got {flag:?}"))?;
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            map.insert(name.to_string(), value);
        }
        Ok(Self(map))
    }

    /// The string value of a required flag.
    pub fn str(&self, name: &str) -> Result<&str, String> {
        self.0
            .get(name)
            .map(String::as_str)
            .ok_or_else(|| format!("missing --{name}"))
    }

    /// A required flag parsed as `T`.
    pub fn get<T: std::str::FromStr>(&self, name: &str) -> Result<T, String> {
        let raw = self.str(name)?;
        raw.parse()
            .map_err(|_| format!("--{name}: cannot parse {raw:?}"))
    }

    /// An optional flag parsed as `T`.
    pub fn opt<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        match self.0.get(name) {
            None => Ok(None),
            Some(_) => self.get(name).map(Some),
        }
    }
}

/// A JSON object from `(key, value)` pairs, in order.
pub fn object<'k>(fields: impl IntoIterator<Item = (&'k str, Value)>) -> Value {
    Value::Map(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// A JSON array of seconds (or any numbers).
pub fn floats(xs: &[f64]) -> Value {
    Value::Seq(xs.iter().map(|&x| Value::Float(x)).collect())
}

/// A JSON integer count.
pub fn count(n: u64) -> Value {
    Value::Int(i64::try_from(n).unwrap_or(i64::MAX))
}

/// The process-wide paper-invariant evaluation counts, by check name.
pub fn invariant_checks() -> Value {
    object(
        coca_opt::invariant::counts()
            .into_iter()
            .map(|(name, n)| (name, count(n))),
    )
}

fn capacity(flags: &Flags) -> Result<Value, String> {
    let cluster =
        coca_dcsim::Cluster::homogeneous(flags.get("groups")?, flags.get("servers-per-group")?);
    let gamma = coca_dcsim::CostParams::default().gamma;
    Ok(object([
        ("max_capacity", Value::Float(cluster.max_capacity())),
        ("max_servable", Value::Float(gamma * cluster.max_capacity())),
    ]))
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let command = args.next().unwrap_or_default();
    let result = Flags::parse(args).and_then(|flags| match command.as_str() {
        "capacity" => capacity(&flags),
        "materialize" => batch::materialize(&flags),
        "batch" => batch::traced(&flags),
        "serve" => serve::traced(&flags),
        other => Err(format!(
            "unknown command {other:?} (materialize|batch|serve)"
        )),
    });
    match result.and_then(|report| serde_json::to_string(&report).map_err(|e| e.to_string())) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("coca-perfbench-tracer: {e}");
            ExitCode::FAILURE
        }
    }
}
