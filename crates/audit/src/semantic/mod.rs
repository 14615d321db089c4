//! Semantic (AST-backed) lint rules.
//!
//! These rules read expression structure from the token trees in
//! [`crate::ast`]: operand chains, argument lists spanning lines,
//! attribute/item shapes.
//!
//! - [`atomic`] (`atomic-ordering`) — every atomic operation
//!   (`load`/`store`/`swap`/`fetch_*`/`compare_exchange*` with an
//!   explicit `Ordering` argument) must carry an
//!   `// audit:atomic(<contract>)` annotation stating its ordering
//!   contract; CAS calls must not use a failure ordering stronger than
//!   the success ordering, and must not silently drop their `Result`.
//! - [`units`] — the kWh / kW / USD vocabulary and per-file binding
//!   environment that the interprocedural `unit-flow` analysis
//!   ([`crate::dataflow::unitflow`]) reads; it is not a rule of its own.
//!
//! Findings honor the same `// audit:allow(<rule>)` waiver convention as
//! every other rule, resolved through the [`Ast`]'s line facts.

pub mod atomic;
pub mod units;

use crate::ast::Ast;
use crate::report::Report;

/// Rule id: undocumented or contradictory atomic-ordering usage.
pub const ATOMIC_ORDERING: &str = "atomic-ordering";
/// Runs every semantic rule over one parsed file.
pub fn apply_all(ast: &Ast, report: &mut Report) {
    atomic::check(ast, report);
}
