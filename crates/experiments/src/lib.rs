//! # coca-experiments — the figure-reproduction harness
//!
//! Everything needed to regenerate the paper's evaluation (Sec. 5):
//!
//! * [`setup`] — builds the paper's scenario: the 216 K-server fleet (or a
//!   scaled-down variant), the FIU/MSR year traces, and the carbon budget
//!   calibrated exactly as in Sec. 5.1 (92 % of the carbon-unaware
//!   consumption; 40 % off-site renewables / 60 % RECs; on-site ≈ 20 % of
//!   consumption).
//! * [`figures`] — the primitives each figure's spec is built from (the
//!   COCA policy, V\* calibration, one budget / frame-reset / GSD-trace
//!   point) and the assembled [`figures::Figure`] type. The figures
//!   themselves are declarative specs run by `coca-scenarios`.
//! * [`report`] — plain-text table/series printing and CSV output.
//! * [`parallel`] — order-preserving multi-threaded sweeps for independent
//!   experiment points.
//! * [`runtime`] — checkpointed lockstep runs: frame-boundary snapshots of
//!   the engine state so interrupted reproductions resume with
//!   `repro --resume`.
//!
//! Run `cargo run --release -p coca-scenarios --bin repro -- batch
//! scenarios` to regenerate every figure (`run <spec.json>` for one,
//! `list-scenarios` to list them); see `EXPERIMENTS.md` for recorded
//! results.

#![deny(missing_docs, unsafe_code)]
// Diagnostics go through `coca_obs::logger`; only the binaries print.
#![deny(clippy::print_stdout, clippy::print_stderr)]

pub mod figures;
pub mod parallel;
pub mod report;
pub mod runtime;
pub mod setup;

pub use report::Series;
pub use setup::{ExperimentScale, PaperSetup};
