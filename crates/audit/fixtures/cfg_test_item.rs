//! Fixture: `#[cfg(test)]` on a braceless item covers that item only.
//! Linted by `tests/lint_fixtures.rs` under a pretend hot-path name;
//! never compiled.
#[cfg(test)]
use std::collections::HashMap;

pub fn real(x: Option<f64>) -> bool {
    x.unwrap() == 0.0
}

#[cfg(test)]
mod tests {
    fn probe(x: Option<f64>) -> bool {
        x.unwrap() == 0.0
    }
}
