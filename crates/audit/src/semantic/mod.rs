//! Semantic (AST-backed) lint rules.
//!
//! These rules read expression structure from the token trees in
//! [`crate::ast`]: operand chains, argument lists spanning lines,
//! attribute/item shapes. Two families:
//!
//! - [`units`] (`unit-mix`) — a units-of-measure dataflow lint. Identifier
//!   suffixes (`_kwh`, `_kw`, `_usd`), `// audit:unit(<tag>)` annotations,
//!   and known dimension-carrying core types tag terms with kWh / kW /
//!   USD; `+`, `-`, compound assignment, and comparisons between terms of
//!   *different* known units are flagged. The COCA objective deliberately
//!   mixes dimensions in one place (`V·g + q·[p−r]⁺`, eq. 17) — that site
//!   carries a reasoned waiver rather than an exemption in the rule.
//! - [`atomic`] (`atomic-ordering`) — every atomic operation
//!   (`load`/`store`/`swap`/`fetch_*`/`compare_exchange*` with an
//!   explicit `Ordering` argument) must carry an
//!   `// audit:atomic(<contract>)` annotation stating its ordering
//!   contract; CAS calls must not use a failure ordering stronger than
//!   the success ordering, and must not silently drop their `Result`.
//!
//! Both honor the same `// audit:allow(<rule>)` waiver convention as
//! every other rule, resolved through the [`Ast`]'s line facts.

pub mod atomic;
pub mod units;

use crate::ast::Ast;
use crate::report::Report;

/// Rule id: arithmetic/comparison across different units of measure.
pub const UNIT_MIX: &str = "unit-mix";
/// Rule id: undocumented or contradictory atomic-ordering usage.
pub const ATOMIC_ORDERING: &str = "atomic-ordering";
/// Runs every semantic rule over one parsed file.
pub fn apply_all(ast: &Ast, report: &mut Report) {
    units::check(ast, report);
    atomic::check(ast, report);
}
