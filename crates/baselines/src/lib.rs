//! # coca-baselines — comparison policies from the paper's evaluation
//!
//! * [`carbon_unaware`] — minimizes the instantaneous cost `g(t)` with no
//!   regard for carbon neutrality; the paper normalizes energy budgets
//!   against this policy's annual consumption (Sec. 5.1) and it is the
//!   `V → ∞` limit of COCA (Fig. 2).
//! * [`perfect_hp`] — **PerfectHP**, the state-of-the-art prediction-based
//!   heuristic COCA is compared against in Fig. 3: perfect 48-hour-ahead
//!   workload prediction, carbon budget allocated to hours in proportion to
//!   predicted workload, per-hour budget enforced when feasible.
//! * [`offline_opt`] — **OPT**, the offline benchmark of Fig. 5: full
//!   trace knowledge, long-term budget enforced via Lagrangian dual
//!   bisection (and a T-step lookahead variant implementing the paper's
//!   **P2** family).
//! * [`budgeted`] — the shared building block: the slot problem
//!   "minimize g(t) + μ·y(t)" that both budgeted baselines hand to the one
//!   multiplier search, [`coca_opt::dual::solve_budget_dual`].

#![deny(missing_docs, unsafe_code)]
// Diagnostics go through `coca_obs::logger`; only the binaries print.
#![deny(clippy::print_stdout, clippy::print_stderr)]

pub mod budgeted;
pub mod carbon_unaware;
pub mod offline_opt;
pub mod perfect_hp;

pub use carbon_unaware::CarbonUnaware;
pub use offline_opt::OfflineOpt;
pub use perfect_hp::PerfectHp;
