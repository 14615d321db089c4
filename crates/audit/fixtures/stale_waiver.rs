//! Stale-waiver fixture: one live waiver, one stale, one unknown rule
//! id, unbound annotations, and a deliberately-kept waiver.

/// Live: the raw comparison below genuinely fires `float-eq`.
pub fn live(a: f64) -> bool {
    a == 0.0 // audit:allow(float-eq)
}

/// Stale: nothing here fires `nan-guard` (wrong file for that rule).
pub fn stale(n: usize) -> usize {
    n + 1 // audit:allow(nan-guard)
}

/// Unknown rule id in the waiver list.
pub fn unknown(n: usize) -> usize {
    n + 2 // audit:allow(not-a-rule)
}

/// Kept: stale but deliberately so, and waived as such.
pub fn kept(n: usize) -> usize {
    n + 3 // audit:allow(hot-alloc) audit:allow(stale-waiver)
}

// audit:unit(kwh)

// audit:atomic(relaxed counter)
pub fn not_atomic(n: usize) -> usize {
    n + 4
}
