//! `coca-serve` — the resident control service.
//!
//! ```text
//! coca-serve run     [--mode serve|batch] [--listen ADDR] [--decisions-listen ADDR]
//!                    [--quiet] [--metrics-http ADDR]
//!                    [--checkpoint PATH] [--checkpoint-every N] [--resume]
//!                    [--stop-at-slot N] [--groups N] [--servers-per-group N]
//!                    [--v V] [--frame T] [--horizon J] [--alpha A]
//!                    [--rec-total Z] [--queue-capacity N]
//! coca-serve replay  (--synthetic HOURS | --csv FILE | --azure FILE | --google FILE)
//!                    [--rate SLOTS_PER_SEC] [--seed S] [--peak RATE] [--first-slot K]
//! coca-serve scrape  ADDR [PATH]
//! ```
//!
//! `run` reads slot NDJSON from stdin (or one TCP connection with
//! `--listen`), publishes decision NDJSON to stdout and any
//! `--decisions-listen` subscriber, serves Prometheus metrics on
//! `--metrics-http` (each listener logs the address it bound to stderr,
//! so port 0 picks a free port), and on SIGTERM/SIGINT checkpoints
//! durably and exits;
//! `--resume` continues bit-exactly, and refuses (non-zero exit) a
//! checkpoint of another format version. `replay` turns a trace into
//! the ingest stream, optionally paced by `--rate`. `scrape` is the
//! one-shot metrics client used by the CI smoke test.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpListener;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

use coca_obs::{MetricsObserver, MetricsRegistry};
use coca_serve::service::{run_batch, run_stream, ServeConfig};
use coca_serve::{http_get, replay, spawn_acceptor, spawn_metrics_server, OutMsg, Publisher};
use coca_traces::adapters::{self, azure, google};
use coca_traces::{EnvironmentTrace, TraceConfig};

struct RunArgs {
    batch: bool,
    listen: Option<String>,
    decisions_listen: Option<String>,
    quiet: bool,
    metrics_http: Option<String>,
    cfg: ServeConfig,
}

fn usage() -> String {
    "usage: coca-serve <run|replay|scrape> [flags]; see `coca-serve help`".to_string()
}

fn next_value(it: &mut impl Iterator<Item = String>, flag: &str) -> Result<String, String> {
    it.next().ok_or_else(|| format!("{flag} needs a value"))
}

fn parse<T: std::str::FromStr>(s: &str, flag: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    s.parse().map_err(|e| format!("{flag} {s:?}: {e}"))
}

fn parse_run_args(mut it: impl Iterator<Item = String>) -> Result<RunArgs, String> {
    let mut args = RunArgs {
        batch: false,
        listen: None,
        decisions_listen: None,
        quiet: false,
        metrics_http: None,
        cfg: ServeConfig::default(),
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--mode" => match next_value(&mut it, "--mode")?.as_str() {
                "serve" => args.batch = false,
                "batch" => args.batch = true,
                other => return Err(format!("--mode {other:?}: want serve or batch")),
            },
            "--listen" => args.listen = Some(next_value(&mut it, "--listen")?),
            "--decisions-listen" => {
                args.decisions_listen = Some(next_value(&mut it, "--decisions-listen")?)
            }
            "--quiet" => args.quiet = true,
            "--metrics-http" => args.metrics_http = Some(next_value(&mut it, "--metrics-http")?),
            "--checkpoint" => {
                args.cfg.checkpoint_path =
                    Some(PathBuf::from(next_value(&mut it, "--checkpoint")?))
            }
            "--checkpoint-every" => {
                args.cfg.checkpoint_every =
                    Some(parse(&next_value(&mut it, "--checkpoint-every")?, "--checkpoint-every")?)
            }
            "--resume" => args.cfg.resume = true,
            "--stop-at-slot" => {
                args.cfg.stop_at_slot =
                    Some(parse(&next_value(&mut it, "--stop-at-slot")?, "--stop-at-slot")?)
            }
            "--groups" => args.cfg.groups = parse(&next_value(&mut it, "--groups")?, "--groups")?,
            "--servers-per-group" => {
                args.cfg.servers_per_group =
                    parse(&next_value(&mut it, "--servers-per-group")?, "--servers-per-group")?
            }
            "--v" => args.cfg.v = parse(&next_value(&mut it, "--v")?, "--v")?,
            "--frame" => args.cfg.frame_length = parse(&next_value(&mut it, "--frame")?, "--frame")?,
            "--horizon" => {
                args.cfg.horizon = parse(&next_value(&mut it, "--horizon")?, "--horizon")?
            }
            "--alpha" => args.cfg.alpha = parse(&next_value(&mut it, "--alpha")?, "--alpha")?,
            "--rec-total" => {
                args.cfg.rec_total = parse(&next_value(&mut it, "--rec-total")?, "--rec-total")?
            }
            "--queue-capacity" => {
                args.cfg.queue_capacity =
                    parse(&next_value(&mut it, "--queue-capacity")?, "--queue-capacity")?
            }
            other => return Err(format!("unknown run flag {other:?}")),
        }
    }
    Ok(args)
}

/// The address a listener actually bound — the real port when the
/// request was port 0 — falling back to the requested string.
fn bound_addr(listener: &TcpListener, requested: &str) -> String {
    listener.local_addr().map_or_else(|_| requested.to_string(), |a| a.to_string())
}

fn open_ingest(listen: &Option<String>) -> Result<Box<dyn BufRead + Send>, String> {
    match listen {
        None => Ok(Box::new(BufReader::new(std::io::stdin()))),
        Some(addr) => {
            let listener =
                TcpListener::bind(addr).map_err(|e| format!("bind ingest {addr}: {e}"))?;
            eprintln!("coca-serve: ingest listening on {}", bound_addr(&listener, addr));
            let (conn, peer) =
                listener.accept().map_err(|e| format!("accept ingest on {addr}: {e}"))?;
            eprintln!("coca-serve: ingest connected from {peer}");
            Ok(Box::new(BufReader::new(conn)))
        }
    }
}

fn cmd_run(args: RunArgs) -> Result<(), String> {
    // Before any listener binds or ingest is awaited.
    args.cfg.validate()?;
    let registry = Arc::new(MetricsRegistry::new());
    let publisher = Publisher::new();
    if !args.quiet {
        publisher.subscribe(Box::new(std::io::stdout()));
    }
    if let Some(addr) = &args.decisions_listen {
        let listener =
            TcpListener::bind(addr).map_err(|e| format!("bind decisions {addr}: {e}"))?;
        eprintln!("coca-serve: decisions on {}", bound_addr(&listener, addr));
        spawn_acceptor(
            listener,
            Arc::clone(&publisher),
            OutMsg::Hello { policy: "coca".into(), groups: args.cfg.groups },
        );
    }
    if let Some(addr) = &args.metrics_http {
        let listener =
            TcpListener::bind(addr).map_err(|e| format!("bind metrics {addr}: {e}"))?;
        eprintln!("coca-serve: metrics on http://{}/metrics", bound_addr(&listener, addr));
        spawn_metrics_server(listener, Arc::clone(&registry));
    }

    let stop = Arc::new(AtomicBool::new(false));
    for signal in [signal_hook::consts::SIGTERM, signal_hook::consts::SIGINT] {
        signal_hook::flag::register(signal, Arc::clone(&stop))
            .map_err(|e| format!("register signal {signal}: {e}"))?;
    }

    // Register the engine's metric families before accepting ingest: a
    // scrape that lands before the first slot then reads them at zero
    // instead of an empty body. The service's observer re-uses them.
    let _ = MetricsObserver::new(Arc::clone(&registry));
    let input = open_ingest(&args.listen)?;
    let report = if args.batch {
        run_batch(&args.cfg, input, publisher, registry)?
    } else {
        run_stream(&args.cfg, input, publisher, registry, stop)?
    };
    eprintln!(
        "coca-serve: {:?} at slot {} (avg hourly cost {:.4} over {} slots served by this process)",
        report.exit,
        report.slots,
        report.outcome.avg_hourly_cost(),
        report.outcome.len()
    );
    Ok(())
}

fn parse_replay_args(
    mut it: impl Iterator<Item = String>,
) -> Result<(EnvironmentTrace, usize, f64), String> {
    let mut rate = 0.0f64;
    let mut first_slot = 0usize;
    let mut seed = 2012u64;
    let mut peak: Option<f64> = None;
    let mut source: Option<(String, String)> = None;
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--rate" => rate = parse(&next_value(&mut it, "--rate")?, "--rate")?,
            "--first-slot" => {
                first_slot = parse(&next_value(&mut it, "--first-slot")?, "--first-slot")?
            }
            "--seed" => seed = parse(&next_value(&mut it, "--seed")?, "--seed")?,
            "--peak" => peak = Some(parse(&next_value(&mut it, "--peak")?, "--peak")?),
            "--synthetic" | "--csv" | "--azure" | "--google" => {
                let value = next_value(&mut it, &arg)?;
                if source.is_some() {
                    return Err("pick exactly one of --synthetic/--csv/--azure/--google".into());
                }
                source = Some((arg, value));
            }
            other => return Err(format!("unknown replay flag {other:?}")),
        }
    }
    let (kind, value) =
        source.ok_or_else(|| "replay needs --synthetic/--csv/--azure/--google".to_string())?;
    let synth_cfg = TraceConfig {
        seed,
        onsite_energy_kwh: 500.0,
        offsite_energy_kwh: 500.0,
        ..Default::default()
    };
    let trace = match kind.as_str() {
        "--synthetic" => {
            let hours: usize = parse(&value, "--synthetic")?;
            TraceConfig {
                hours,
                peak_arrival_rate: peak.unwrap_or(500.0),
                ..synth_cfg
            }
            .generate()
        }
        "--csv" => {
            let file = std::fs::File::open(&value).map_err(|e| format!("open {value}: {e}"))?;
            coca_traces::csv::read_trace(file).map_err(|e| format!("read {value}: {e}"))?
        }
        "--azure" | "--google" => {
            let file = std::fs::File::open(&value).map_err(|e| format!("open {value}: {e}"))?;
            let mut workload = if kind == "--azure" {
                azure::read_vm_cpu(file).map_err(|e| format!("read {value}: {e}"))?
            } else {
                google::read_task_usage(file).map_err(|e| format!("read {value}: {e}"))?
            };
            if let Some(peak) = peak {
                adapters::normalize_to_peak(&mut workload, peak);
            }
            adapters::splice_workload(workload, &synth_cfg)?
        }
        _ => unreachable!("matched above"),
    };
    Ok((trace, first_slot, rate))
}

fn cmd_replay(it: impl Iterator<Item = String>) -> Result<(), String> {
    let (trace, first_slot, rate) = parse_replay_args(it)?;
    let stdout = std::io::stdout();
    let n = replay(&trace, first_slot, rate, stdout.lock())
        .map_err(|e| format!("replay: {e}"))?;
    eprintln!("coca-serve: replayed {n} slots");
    Ok(())
}

fn cmd_scrape(mut it: impl Iterator<Item = String>) -> Result<(), String> {
    let addr = it.next().ok_or_else(|| "scrape needs an address".to_string())?;
    let path = it.next().unwrap_or_else(|| "/metrics".to_string());
    let (status, body) =
        http_get(addr.as_str(), &path).map_err(|e| format!("scrape {addr}{path}: {e}"))?;
    if status != 200 {
        return Err(format!("scrape {addr}{path}: HTTP {status}"));
    }
    let mut stdout = std::io::stdout();
    stdout.write_all(body.as_bytes()).and_then(|()| stdout.flush()).map_err(|e| e.to_string())
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let command = args.next().unwrap_or_default();
    let result = match command.as_str() {
        "run" => parse_run_args(args).and_then(cmd_run),
        "replay" => cmd_replay(args),
        "scrape" => cmd_scrape(args),
        "help" | "--help" | "-h" => {
            println!("{}", usage());
            Ok(())
        }
        _ => Err(usage()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("coca-serve: {e}");
            ExitCode::FAILURE
        }
    }
}
