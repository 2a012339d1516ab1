//! Error type for the protocol layer.

use std::fmt;
use std::time::Duration;

/// Errors produced by the GuanYu protocol and experiment harness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GuanYuError {
    /// The cluster configuration violates the paper's resilience bounds.
    InvalidConfig(String),
    /// A sub-system failed (message carries the source description).
    Aggregation(String),
    /// The neural-network substrate failed.
    Nn(String),
    /// The data substrate failed.
    Data(String),
    /// The transport layer failed (socket setup, handshake, I/O).
    Transport(String),
    /// A wall-clock driver aborted the run after this long.
    WallTimeout(Duration),
}

impl fmt::Display for GuanYuError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GuanYuError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            GuanYuError::Aggregation(msg) => write!(f, "aggregation failure: {msg}"),
            GuanYuError::Nn(msg) => write!(f, "model failure: {msg}"),
            GuanYuError::Data(msg) => write!(f, "data failure: {msg}"),
            GuanYuError::Transport(msg) => write!(f, "transport failure: {msg}"),
            GuanYuError::WallTimeout(limit) => write!(f, "run exceeded wall timeout of {limit:?}"),
        }
    }
}

impl std::error::Error for GuanYuError {}

impl From<aggregation::AggregationError> for GuanYuError {
    fn from(e: aggregation::AggregationError) -> Self {
        GuanYuError::Aggregation(e.to_string())
    }
}

impl From<nn::NnError> for GuanYuError {
    fn from(e: nn::NnError) -> Self {
        GuanYuError::Nn(e.to_string())
    }
}

impl From<data::DatasetError> for GuanYuError {
    fn from(e: data::DatasetError) -> Self {
        GuanYuError::Data(e.to_string())
    }
}

impl From<tensor::TensorError> for GuanYuError {
    fn from(e: tensor::TensorError) -> Self {
        GuanYuError::Aggregation(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_source_message() {
        let e = GuanYuError::InvalidConfig("n too small".into());
        assert!(e.to_string().contains("n too small"));
    }

    #[test]
    fn converts_from_substrate_errors() {
        let e: GuanYuError = aggregation::AggregationError::Empty.into();
        assert!(matches!(e, GuanYuError::Aggregation(_)));
        let e: GuanYuError = tensor::TensorError::Empty.into();
        assert!(matches!(e, GuanYuError::Aggregation(_)));
    }
}
