//! # coca-traces — synthetic environment traces for the COCA reproduction
//!
//! The paper's evaluation (Sec. 5.1) drives the simulator with four
//! real-world hourly series for the year 2012 that we cannot redistribute:
//!
//! 1. the FIU server I/O workload log,
//! 2. the MSR Cambridge block-I/O trace (1 week, repeated with ±40 % noise),
//! 3. CAISO solar/wind renewable generation for Mountain View / California,
//! 4. CAISO hourly electricity prices.
//!
//! This crate synthesizes statistically faithful stand-ins (see `DESIGN.md`
//! §4 for the substitution argument): the generators reproduce the structure
//! that actually stresses the control problem — diurnal/weekly/seasonal
//! cycles, a late-July surge, workload spikes, solar daylight envelopes,
//! multi-day wind ramps, and heavy-tailed price spikes. Everything is
//! deterministic given a seed, so experiments are exactly reproducible.
//!
//! Real traces can be swapped in through the CSV round-trip in [`csv`].
//!
//! Units used throughout the workspace:
//! * one slot = one hour; a year = 8 760 slots,
//! * workload in requests/s,
//! * power in kW (slot energy in kWh is numerically identical),
//! * electricity price in $/kWh.

#![deny(missing_docs, unsafe_code)]
// Diagnostics go through `coca_obs::logger`; only the binaries print.
#![deny(clippy::print_stdout, clippy::print_stderr)]

pub mod adapters;
pub mod csv;
pub mod price;
pub mod renewable;
pub mod rng;
pub mod stats;
pub mod trace;
pub mod workload;

pub use trace::{EnvironmentTrace, SlotEnv, TraceConfig};
pub use workload::{WorkloadKind, WorkloadTrace};

/// Hours in the canonical budgeting period (one non-leap year).
pub const HOURS_PER_YEAR: usize = 8760;

/// Hours in a week.
pub const HOURS_PER_WEEK: usize = 168;

/// Hours in a day.
pub const HOURS_PER_DAY: usize = 24;
