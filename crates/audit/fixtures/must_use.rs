//! Fixture: solver result types and the `#[must_use]` requirement. Linted
//! by `tests/lint_fixtures.rs` under a pretend `crates/opt` path; never
//! compiled.

/// A result type missing the annotation.
pub struct FixtureSolution {
    /// Payload.
    pub value: f64,
}

/// Properly annotated result type.
#[must_use]
pub struct FixtureOutcome {
    /// Payload.
    pub total: f64,
}

/// Not a result type; no annotation required.
pub struct FixtureConfig {
    /// Payload.
    pub scale: f64,
}

/// Intentionally unannotated; consumed only by fixtures.
// audit:allow(must-use)
pub struct FixtureResult {
    /// Payload.
    pub flag: bool,
}

/// Annotated: the attribute belongs to this struct alone.
#[must_use]
pub struct FixtureAOutcome {
    /// Payload.
    pub a: f64,
}
/// Follows an annotated struct but carries no attribute of its own.
pub struct FixtureBOutcome {
    /// Payload.
    pub b: f64,
}
