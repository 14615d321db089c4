//! Unit-flow fixture, consumer side: every defect here needs the
//! cross-file summaries to be seen.

/// Books a slot's figures; both defects need the call graph.
pub fn book(trace: &[f64], price_usd: f64) -> f64 {
    let spent = add_cost(total_energy(trace), 1.0);
    let gap = total_energy(trace) - price_usd;
    spent + gap
}

/// Feeds `scale` a kWh at one site…
pub fn scale_energy(load_kwh: f64) -> f64 {
    scale(load_kwh, 2.0)
}

/// …and a USD at another: `amount` is inferred to conflicting units.
pub fn scale_cost(fee_usd: f64) -> f64 {
    scale(fee_usd, 2.0)
}

/// A waived call site: the waiver is load-bearing and must not go stale.
pub fn book_waived(trace: &[f64]) -> f64 {
    add_cost(total_energy(trace), 1.0) // audit:allow(unit-flow)
}
