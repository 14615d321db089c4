use std::fmt;

/// Errors produced by the data-center model and simulators.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// A policy returned a decision that violates the model constraints
    /// (paper constraints 7–9).
    InvalidDecision(String),
    /// Model configuration is inconsistent (empty cluster, bad parameters).
    InvalidConfig(String),
    /// The offered load cannot be served by any speed selection.
    Overload {
        /// Slot index at which the overload occurred.
        slot: usize,
        /// Offered arrival rate.
        arrival_rate: f64,
        /// Maximum servable rate `γ·Σᵢ max-speed capacity`.
        max_capacity: f64,
    },
    /// An optimization subroutine failed.
    Opt(coca_opt::OptError),
    /// An internal worker (e.g. a distributed-solver agent thread) died;
    /// indicates a bug contained at the solver boundary rather than a bad
    /// input.
    Internal(String),
    /// A checkpoint could not be written, read, or restored.
    Checkpoint(crate::checkpoint::CheckpointError),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvalidDecision(msg) => write!(f, "invalid decision: {msg}"),
            SimError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            SimError::Overload { slot, arrival_rate, max_capacity } => write!(
                f,
                "overload at slot {slot}: arrival rate {arrival_rate} exceeds max servable {max_capacity}"
            ),
            SimError::Opt(e) => write!(f, "optimization failure: {e}"),
            SimError::Internal(msg) => write!(f, "internal failure: {msg}"),
            SimError::Checkpoint(e) => write!(f, "checkpoint: {e}"),
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Opt(e) => Some(e),
            SimError::Checkpoint(e) => Some(e),
            _ => None,
        }
    }
}

impl From<coca_opt::OptError> for SimError {
    fn from(e: coca_opt::OptError) -> Self {
        SimError::Opt(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = SimError::Overload { slot: 3, arrival_rate: 10.0, max_capacity: 5.0 };
        assert!(e.to_string().contains("slot 3"));
        let e: SimError = coca_opt::OptError::Infeasible("x".into()).into();
        assert!(std::error::Error::source(&e).is_some());
    }
}
