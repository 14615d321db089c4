//! Local unit-flow fixture: suffix inference, annotation binding, ratio
//! names, and both waiver outcomes (honored, and mismatched hence stale).

fn suffix_mix(battery_kwh: f64, total_usd: f64) -> f64 {
    battery_kwh + total_usd
}

fn annotated_binding(cost_usd: f64) -> bool {
    // audit:unit(kwh)
    let drained = 3.0;
    drained < cost_usd
}

fn same_unit_is_quiet(a_kwh: f64, b_kwh: f64) -> f64 {
    a_kwh + b_kwh
}

fn ratios_cancel(price_usd_per_kwh: f64, e_kwh: f64) -> f64 {
    price_usd_per_kwh * e_kwh
}

fn dimensionless_override_is_quiet(b_usd: f64) -> f64 {
    // audit:unit(dimensionless)
    let scale_kwh = 2.0;
    scale_kwh + b_usd
}

fn honored_waiver(a_kwh: f64, b_usd: f64) -> f64 {
    // drift-plus-penalty mixes on purpose: audit:allow(unit-flow)
    a_kwh + b_usd
}

fn mismatched_waiver_stays_unwaived(p_kw: f64, c_usd: f64) -> f64 {
    // audit:allow(float-eq)
    p_kw - c_usd
}
