//! # coca-core — the COCA online controller and GSD distributed optimizer
//!
//! Reproduction of the primary contribution of Ren & He, *"COCA: online
//! distributed resource management for cost minimization and carbon
//! neutrality in data centers"*, SC 2013:
//!
//! * [`deficit`] — the virtual **carbon-deficit queue** (eq. 17) that turns
//!   the long-term neutrality constraint into an online signal.
//! * [`controller`] — **Algorithm 1 (COCA)**: each slot, minimize
//!   `V·g + q·[p − r]⁺` subject to the per-slot constraints, with the queue
//!   reset and the cost-carbon parameter `V_r` switched at frame boundaries.
//! * [`solver`] — the [`solver::P3Solver`] abstraction over the
//!   per-slot mixed-integer problem **P3**, plus an exhaustive ground-truth
//!   solver for small fleets.
//! * [`gsd`] — **Algorithm 2 (GSD)**: Gibbs-sampling over speed vectors with
//!   the exact water-filling inner solve; convergence per Theorem 1.
//! * [`gsd_distributed`] — GSD as an actual message-passing system: worker
//!   threads own group shards, the load-distribution bisection runs by
//!   broadcast/reduce (dual decomposition), numerically identical to the
//!   sequential engine.
//! * [`symmetric`] — a fast deterministic P3 solver exploiting class
//!   symmetry (coordinate descent over per-class speed/count), used for the
//!   year-long sweeps where GSD would be needlessly slow.
//! * [`vschedule`] — frame-indexed cost-carbon parameter schedules
//!   (constant, per-frame/quarterly — paper Fig. 2(c)(d)).
//! * [`lyapunov`] — the drift constants `B`, `D`, `C(T)` and the Theorem-2
//!   bounds on cost gap and neutrality deviation, computable from trace
//!   bounds so the guarantees can be *checked* against simulation.

#![deny(missing_docs, unsafe_code)]
// Diagnostics go through `coca_obs::logger`; only the binaries print.
#![deny(clippy::print_stdout, clippy::print_stderr)]

pub mod controller;
pub mod deficit;
pub mod gsd;

/// Runtime paper-invariant checks (deficit queue non-negativity and frame
/// resets, load conservation, speed-set membership, water-filling KKT
/// residual, Gibbs acceptance range).
///
/// The machinery lives in [`coca_opt::invariant`] — the bottom of the crate
/// stack — so the solvers, the simulator, and the baselines can all call
/// the same hooks; this alias is the canonical path for users of the
/// controller. Strict mode (violations panic even in release builds) is
/// enabled with `COCA_STRICT_INVARIANTS=1` or
/// [`invariant::force_strict`].
pub mod invariant {
    pub use coca_opt::invariant::*;
}
pub mod gsd_distributed;
pub mod lyapunov;
pub mod solver;
pub mod symmetric;
pub mod vschedule;

pub use controller::{CocaConfig, CocaController};
pub use deficit::DeficitQueue;
pub use gsd::{GsdOptions, GsdSolver};
pub use gsd_distributed::DistributedGsdSolver;
pub use solver::{ExhaustiveSolver, P3Solution, P3Solver, SolveStats};
pub use symmetric::SymmetricSolver;
pub use vschedule::VSchedule;
