//! Fixture: allocations written in and out of hot-path regions (zero-hop
//! `hot-path-reach`). Linted by `tests/lint_fixtures.rs`; never compiled.

pub fn build_scratch(n: usize) -> Vec<f64> {
    Vec::with_capacity(n)
}

// audit:hot-path: begin — per-proposal delta update
pub fn delta_update(counts: &mut [usize], state: &[usize]) -> Vec<usize> {
    let snapshot = state.to_vec();
    counts[0] += 1;
    let label = format!("step {}", counts[0]);
    drop(label);
    snapshot
}

pub fn delta_update_clean(counts: &mut [usize], scratch: &mut Vec<f64>) {
    scratch.clear();
    scratch.push(counts[0] as f64);
}

pub fn delta_update_waived(state: &[usize]) -> Vec<usize> {
    // One-time cache insert, not the per-proposal path. audit:allow(hot-path-reach)
    state.to_vec()
}
// audit:hot-path: end

pub fn report(xs: &[f64]) -> String {
    xs.iter().map(|x| x.to_string()).collect::<Vec<_>>().join(",")
}

// audit:hot-path: begin — per-slot publish
pub fn publish(&self) -> usize {
    let guard = self.m.lock();
    guard.len() + helper(&self.m)
}
// audit:hot-path: end

// audit:hot-path: begin — turbofish and map allocations
pub fn regroup(xs: &[f64]) -> usize {
    let owned = xs.iter().copied().collect::<Vec<_>>();
    let index: HashMap<u64, usize> = HashMap::with_capacity(owned.len());
    owned.len() + index.len()
}
// audit:hot-path: end
