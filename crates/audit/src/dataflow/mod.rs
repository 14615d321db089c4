//! Interprocedural dataflow engine (v3 + v4).
//!
//! The per-file engines ([`crate::rules`], [`crate::semantic`]) see one
//! file at a time. This module layers whole-workspace analyses on top of
//! the same AST: a function [`symbols::SymbolTable`] and
//! [`callgraph::CallGraph`] feed a generic [`fixpoint`] worklist solver
//! and one breadth-first reach walk, and five analyses ride on them:
//!
//! - [`unitflow`] (`unit-flow`) — reads kWh / kW / USD tags locally and
//!   propagates them through parameters and returns, catching cross-unit
//!   arithmetic and mis-unitted arguments zero or more calls away from an
//!   annotation;
//! - [`hotreach`] (`hot-path-reach`) — flags allocation, locking, and IO
//!   written on an `audit:hot-path` line, or reachable through the call
//!   graph from a call on one, with the call chain attached as related
//!   locations;
//! - [`snapshot`] (`snapshot-complete`) — cross-checks every struct's
//!   declared fields against its snapshot/restore pair, so no run state
//!   is silently lost or left stale across crash-resume; non-checkpointed
//!   fields are declared `// audit:transient(<reason>)`;
//! - [`nondet`] (`nondet-reach`) — walks the call graph from
//!   state-affecting roots (engine stepping, checkpointing, serializers,
//!   batch orchestration) and flags reachable hash-ordered iteration,
//!   wall-clock reads, and channel receives, waivable sink-by-sink with
//!   `// audit:ordered(<contract>)`;
//! - [`hygiene`] (`stale-waiver`) — flags waivers and annotations that no
//!   longer suppress or tag anything, iterating because staleness
//!   findings are themselves waivable.
//!
//! They run in [`crate::lint_sources`], over one file or the whole
//! workspace alike. Resolution is name/arity-based with no type
//! inference — `DESIGN.md` §14 and §18 spell out the soundness caveats.

pub mod callgraph;
pub mod fixpoint;
pub mod hotreach;
pub mod hygiene;
pub mod nondet;
pub mod snapshot;
pub mod symbols;
pub mod unitflow;

use crate::ast::Ast;
use crate::report::Report;

/// Rule id: cross-unit flow through function parameters or returns.
pub const UNIT_FLOW: &str = "unit-flow";
/// Rule id: hot-path region transitively reaches allocation/locking/IO.
pub const HOT_PATH_REACH: &str = "hot-path-reach";
/// Rule id: snapshot/restore pair missing a declared field.
pub const SNAPSHOT_COMPLETE: &str = "snapshot-complete";
/// Rule id: state-affecting path reaches a nondeterminism source.
pub const NONDET_REACH: &str = "nondet-reach";
/// Rule id: waiver or annotation that no longer does anything.
pub const STALE_WAIVER: &str = "stale-waiver";

/// Runs every interprocedural analysis over the parsed workspace.
/// `report` must already contain the per-file findings — the hygiene pass
/// runs last and reads them (including `snapshot-complete` and
/// `nondet-reach` findings) to decide which waivers and annotations are
/// still earning their keep.
pub fn apply_all(files: &[Ast], report: &mut Report) {
    let symbols = symbols::SymbolTable::build(files);
    let graph = callgraph::CallGraph::build(&symbols);
    let unbound_units = unitflow::check(files, &symbols, report);
    hotreach::check(files, &symbols, &graph, report);
    snapshot::check(files, &symbols, report);
    nondet::check(files, &symbols, &graph, report);
    hygiene::check(files, &unbound_units, crate::ALL_RULES, report);
}
