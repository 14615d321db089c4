//! Hot-reach fixture: a hot region whose helpers allocate out of sight,
//! plus a mutually recursive pair proving the traversal terminates.

/// Innocent-looking refresh: the allocation is one more call down.
fn refresh(n: usize) -> Vec<f64> {
    rebuild(n)
}

/// The hidden allocation, two calls from the hot region.
fn rebuild(n: usize) -> Vec<f64> {
    Vec::with_capacity(n)
}

/// Mutually recursive pair with a sink; reachability must terminate.
fn ping(n: usize) -> usize {
    if n < 1 {
        return 0;
    }
    pong(n - 1)
}

/// The other half of the cycle.
fn pong(n: usize) -> usize {
    let label = n.to_string();
    label.len() + ping(n - 1)
}

// audit:hot-path: begin — fixture delta update
/// The hot region: the direct allocation belongs to `hot-alloc`; the
/// reachable ones belong to `hot-path-reach`.
pub fn hot_step(n: usize) -> usize {
    let scratch = refresh(n);
    let direct = format!("{n}");
    ping(n) + scratch.len() + direct.len()
}
// audit:hot-path: end

/// A turbofish allocation, one call from the hot region.
fn gather(xs: &[f64]) -> Vec<f64> {
    xs.iter().copied().collect::<Vec<_>>()
}

/// A map allocation by path, one call from the hot region.
fn index(n: usize) -> HashMap<u64, usize> {
    HashMap::with_capacity(n)
}

// audit:hot-path: begin — fixture regroup
pub fn hot_regroup(xs: &[f64]) -> usize {
    let owned = gather(xs);
    let map = index(xs.len());
    owned.len() + map.len()
}
// audit:hot-path: end
