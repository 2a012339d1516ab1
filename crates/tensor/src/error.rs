//! Error type for tensor operations.

use std::fmt;

/// Errors produced by fallible tensor operations.
///
/// The tensor API is fallible wherever shapes interact: construction from a
/// flat buffer, element-wise binary operations, matrix multiplication and
/// reshaping. Aggregation rules and the neural-network layers rely on these
/// errors to reject malformed (e.g. Byzantine, wrong-dimension) inputs
/// instead of panicking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TensorError {
    /// The number of elements implied by the shape does not match the
    /// provided buffer length.
    LengthMismatch {
        /// Number of elements the shape requires.
        expected: usize,
        /// Number of elements actually provided.
        actual: usize,
    },
    /// Two tensors that must share a shape do not.
    ShapeMismatch {
        /// Shape of the left-hand operand.
        left: Vec<usize>,
        /// Shape of the right-hand operand.
        right: Vec<usize>,
    },
    /// The operation requires a tensor of a specific rank.
    RankMismatch {
        /// Required rank.
        expected: usize,
        /// Actual rank.
        actual: usize,
    },
    /// Inner dimensions disagree in a matrix product.
    MatmulDimMismatch {
        /// Columns of the left operand.
        left_cols: usize,
        /// Rows of the right operand.
        right_rows: usize,
    },
    /// An operation that needs at least one element got an empty tensor.
    Empty,
    /// An index was out of bounds for the tensor's shape.
    IndexOutOfBounds {
        /// The offending index.
        index: Vec<usize>,
        /// The tensor's shape.
        shape: Vec<usize>,
    },
    /// A coordinate range does not fit the flat storage (see
    /// [`crate::Tensor::slice`]).
    InvalidShard {
        /// Start of the offending coordinate range.
        start: usize,
        /// End (exclusive) of the offending coordinate range.
        end: usize,
        /// Length of the flat storage the range must fit.
        len: usize,
    },
}

impl fmt::Display for TensorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TensorError::LengthMismatch { expected, actual } => write!(
                f,
                "buffer length {actual} does not match shape volume {expected}"
            ),
            TensorError::ShapeMismatch { left, right } => {
                write!(f, "shape mismatch: {left:?} vs {right:?}")
            }
            TensorError::RankMismatch { expected, actual } => {
                write!(f, "rank mismatch: expected {expected}, got {actual}")
            }
            TensorError::MatmulDimMismatch {
                left_cols,
                right_rows,
            } => write!(
                f,
                "matmul inner dimensions disagree: {left_cols} vs {right_rows}"
            ),
            TensorError::Empty => write!(f, "operation requires a non-empty tensor"),
            TensorError::IndexOutOfBounds { index, shape } => {
                write!(f, "index {index:?} out of bounds for shape {shape:?}")
            }
            TensorError::InvalidShard { start, end, len } => {
                write!(
                    f,
                    "shard range {start}..{end} invalid for storage of length {len}"
                )
            }
        }
    }
}

impl std::error::Error for TensorError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_length_mismatch() {
        let e = TensorError::LengthMismatch {
            expected: 4,
            actual: 3,
        };
        assert_eq!(
            e.to_string(),
            "buffer length 3 does not match shape volume 4"
        );
    }

    #[test]
    fn display_shape_mismatch() {
        let e = TensorError::ShapeMismatch {
            left: vec![2, 2],
            right: vec![3],
        };
        assert!(e.to_string().contains("[2, 2]"));
        assert!(e.to_string().contains("[3]"));
    }

    #[test]
    fn display_matmul_mismatch() {
        let e = TensorError::MatmulDimMismatch {
            left_cols: 2,
            right_rows: 3,
        };
        assert!(e.to_string().contains("2 vs 3"));
    }

    #[test]
    fn error_is_std_error() {
        fn assert_err<E: std::error::Error>(_: &E) {}
        assert_err(&TensorError::Empty);
    }
}
