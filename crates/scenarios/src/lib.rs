//! Declarative scenario specs and resumable batch orchestration.
//!
//! Every paper figure is one committed spec; `coca-experiments::figures`
//! keeps only the primitives the runner composes. The ROADMAP north star is
//! thousands-of-scenarios scale (fleets of what-if plans, forecast-error
//! grids). This crate promotes the existing substrate — the lockstep
//! [`SimEngine`](coca_dcsim::SimEngine) with serializable checkpoints and
//! the [`parallel::sweep`](coca_experiments::parallel::sweep) worker pool —
//! into a first-class orchestration layer with three pieces:
//!
//! * **Spec format** ([`spec`]) — a JSON document (vendored `serde_json`;
//!   the registry-less build has no TOML) describing the experiment scale,
//!   workload, policy lanes, per-run parameters and cartesian parameter
//!   sweeps (`"sweep": {"phi": [1.0, 1.1]}`), plus how to assemble the
//!   resulting runs into figures.
//! * **Materializer** ([`manifest`]) — expands a spec into a deterministic
//!   manifest of concrete runs. Run IDs are FNV-1a hashes of the
//!   canonical (recursively key-sorted) JSON of each run's resolved
//!   configuration, so re-materializing an edited spec preserves the
//!   identity — and the on-disk results — of unchanged runs.
//! * **Batch runner** ([`runner`]) — executes one or many manifests
//!   through a single worker queue (longest runs first, one shared setup
//!   and V\* per scale, workload and budget) with per-run atomic result
//!   files, engine checkpoints at frame boundaries for long lockstep runs,
//!   a per-manifest status file, and crash-resume that skips completed
//!   runs and restores in-flight ones from their last checkpoint. Progress
//!   counters flow through the canonical [`coca_obs::BatchMetrics`] names.
//!
//! [`assemble`] turns completed run results back into
//! [`Figure`](coca_experiments::figures::Figure)s, and the `repro` binary
//! in this crate is now just one consumer of the orchestration API: every
//! paper figure lives as a committed spec under `scenarios/` and runs
//! through the same `BatchRunner` path (`repro run <spec>` /
//! `repro batch`). DESIGN.md §16 documents the format, the run-ID hashing
//! and the resume soundness caveats.

#![deny(missing_docs, unsafe_code)]
// Diagnostics go through `coca_obs::logger`; only the binaries print.
#![deny(clippy::print_stdout, clippy::print_stderr)]

pub mod assemble;
pub mod manifest;
pub mod runner;
pub mod spec;

pub use manifest::{canonical_json, Manifest, RunEntry};
pub use runner::{BatchOptions, BatchRunner, BatchSummary};
pub use spec::Spec;
