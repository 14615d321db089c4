//! Exhaustive enumeration over small product spaces.
//!
//! Used as a ground-truth oracle in tests (GSD vs exact optimum, Theorem 1
//! validation) and by the offline benchmark on tiny instances. The iterator
//! is lazy, so callers can enumerate spaces that are large-ish but still
//! tractable without materializing every state.

/// Lazy iterator over all states of a product space with the given per-site
/// choice counts, in lexicographic order (site 0 is the most significant).
#[derive(Debug, Clone)]
pub struct CartesianIter {
    counts: Vec<usize>,
    state: Vec<usize>,
    done: bool,
}

impl CartesianIter {
    /// Creates the iterator. Any zero choice count yields an empty iterator.
    pub fn new(counts: &[usize]) -> Self {
        let done = counts.is_empty() || counts.contains(&0);
        Self { counts: counts.to_vec(), state: vec![0; counts.len()], done }
    }
}

impl Iterator for CartesianIter {
    type Item = Vec<usize>;

    fn next(&mut self) -> Option<Vec<usize>> {
        if self.done {
            return None;
        }
        let current = self.state.clone();
        // Odometer increment from the least-significant (last) site.
        let mut i = self.state.len();
        loop {
            if i == 0 {
                self.done = true;
                break;
            }
            i -= 1;
            self.state[i] += 1;
            if self.state[i] < self.counts[i] {
                break;
            }
            self.state[i] = 0;
        }
        Some(current)
    }
}

/// Materializes every state of the product space. Intended for small spaces.
pub fn cartesian_states(counts: &[usize]) -> Vec<Vec<usize>> {
    CartesianIter::new(counts).collect()
}

/// Number of states in the product space (saturating).
pub fn space_size(counts: &[usize]) -> usize {
    if counts.is_empty() {
        return 0;
    }
    counts.iter().fold(1usize, |acc, &c| acc.saturating_mul(c))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enumerates_all_states_once() {
        let states = cartesian_states(&[2, 3]);
        assert_eq!(states.len(), 6);
        let mut sorted = states.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), 6, "no duplicates");
        assert_eq!(states[0], vec![0, 0]);
        assert_eq!(states[5], vec![1, 2]);
    }

    #[test]
    fn lexicographic_order() {
        let states = cartesian_states(&[2, 2]);
        assert_eq!(states, vec![vec![0, 0], vec![0, 1], vec![1, 0], vec![1, 1]]);
    }

    #[test]
    fn empty_and_zero_spaces() {
        assert!(cartesian_states(&[]).is_empty());
        assert!(cartesian_states(&[3, 0, 2]).is_empty());
        assert_eq!(space_size(&[]), 0);
        assert_eq!(space_size(&[3, 0]), 0);
        assert_eq!(space_size(&[4, 5]), 20);
    }

    #[test]
    fn single_site_space() {
        let states = cartesian_states(&[5]);
        assert_eq!(states.len(), 5);
        assert_eq!(states[4], vec![4]);
    }
}
