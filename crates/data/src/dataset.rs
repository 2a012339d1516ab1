//! The [`Dataset`] container.

use std::fmt;

use tensor::{Tensor, TensorError};

/// Errors produced by dataset construction and access.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DatasetError {
    /// Features and labels disagree on the number of examples.
    LengthMismatch {
        /// Example count implied by the features tensor.
        features: usize,
        /// Number of labels provided.
        labels: usize,
    },
    /// A label is outside `[0, num_classes)`.
    LabelOutOfRange {
        /// The offending label.
        label: usize,
        /// The declared class count.
        num_classes: usize,
    },
    /// The features tensor must have rank ≥ 2 (`[n, ...]`).
    BadFeatureRank(usize),
    /// Requested example index out of range.
    IndexOutOfRange {
        /// Requested index.
        index: usize,
        /// Dataset size.
        len: usize,
    },
    /// An invalid partitioning request (0 workers, more workers than
    /// examples, a non-positive Dirichlet α, 0 classes per worker).
    Io(String),
    /// An underlying tensor operation failed.
    Tensor(TensorError),
}

impl fmt::Display for DatasetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DatasetError::LengthMismatch { features, labels } => {
                write!(f, "{features} feature rows but {labels} labels")
            }
            DatasetError::LabelOutOfRange { label, num_classes } => {
                write!(f, "label {label} out of range for {num_classes} classes")
            }
            DatasetError::BadFeatureRank(r) => {
                write!(f, "features must have rank >= 2, got {r}")
            }
            DatasetError::IndexOutOfRange { index, len } => {
                write!(f, "example {index} out of range for dataset of {len}")
            }
            DatasetError::Io(msg) => write!(f, "dataset I/O error: {msg}"),
            DatasetError::Tensor(e) => write!(f, "tensor error: {e}"),
        }
    }
}

impl std::error::Error for DatasetError {}

impl From<TensorError> for DatasetError {
    fn from(e: TensorError) -> Self {
        DatasetError::Tensor(e)
    }
}

/// A supervised classification dataset: a features tensor `[n, ...]` and
/// `n` integer labels in `[0, num_classes)`.
#[derive(Debug, Clone)]
pub struct Dataset {
    features: Tensor,
    labels: Vec<usize>,
    num_classes: usize,
}

impl Dataset {
    /// Creates a dataset, validating shapes and label ranges.
    ///
    /// # Errors
    ///
    /// Returns [`DatasetError`] variants for rank/length/label violations.
    pub fn new(features: Tensor, labels: Vec<usize>, num_classes: usize) -> crate::Result<Self> {
        if features.rank() < 2 {
            return Err(DatasetError::BadFeatureRank(features.rank()));
        }
        let n = features.dims()[0];
        if labels.len() != n {
            return Err(DatasetError::LengthMismatch {
                features: n,
                labels: labels.len(),
            });
        }
        if let Some(&bad) = labels.iter().find(|&&l| l >= num_classes) {
            return Err(DatasetError::LabelOutOfRange {
                label: bad,
                num_classes,
            });
        }
        Ok(Dataset {
            features,
            labels,
            num_classes,
        })
    }

    /// Number of examples.
    pub fn len(&self) -> usize {
        self.features.dims()[0]
    }

    /// Whether the dataset has no examples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// The full features tensor.
    pub fn features(&self) -> &Tensor {
        &self.features
    }

    /// The full label list.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Shape of a single example (feature dims without the leading `n`).
    pub fn example_dims(&self) -> &[usize] {
        &self.features.dims()[1..]
    }

    /// Gathers the examples at `indices` into a `(features, labels)` batch.
    ///
    /// # Errors
    ///
    /// Returns [`DatasetError::IndexOutOfRange`] for invalid indices.
    pub fn batch(&self, indices: &[usize]) -> crate::Result<(Tensor, Vec<usize>)> {
        let stride: usize = self.example_dims().iter().product();
        let mut data = Vec::with_capacity(indices.len() * stride);
        let mut labels = Vec::with_capacity(indices.len());
        let src = self.features.as_slice();
        for &i in indices {
            if i >= self.len() {
                return Err(DatasetError::IndexOutOfRange {
                    index: i,
                    len: self.len(),
                });
            }
            data.extend_from_slice(&src[i * stride..(i + 1) * stride]);
            labels.push(self.labels[i]);
        }
        let mut dims = vec![indices.len()];
        dims.extend_from_slice(self.example_dims());
        Ok((Tensor::from_vec(data, &dims)?, labels))
    }

    /// Splits into `(first k, rest)` — used for train/test splits.
    ///
    /// # Errors
    ///
    /// Returns [`DatasetError::IndexOutOfRange`] if `k > len`.
    pub fn split_at(&self, k: usize) -> crate::Result<(Dataset, Dataset)> {
        if k > self.len() {
            return Err(DatasetError::IndexOutOfRange {
                index: k,
                len: self.len(),
            });
        }
        let head_idx: Vec<usize> = (0..k).collect();
        let tail_idx: Vec<usize> = (k..self.len()).collect();
        let (hf, hl) = self.batch(&head_idx)?;
        let (tf, tl) = self.batch(&tail_idx)?;
        Ok((
            Dataset::new(hf, hl, self.num_classes)?,
            Dataset::new(tf, tl, self.num_classes)?,
        ))
    }

    /// Per-class example counts (length `num_classes`).
    pub fn class_histogram(&self) -> Vec<usize> {
        let mut hist = vec![0usize; self.num_classes];
        for &l in &self.labels {
            hist[l] += 1;
        }
        hist
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Dataset {
        let features = Tensor::from_vec((0..12).map(|v| v as f32).collect(), &[4, 3]).unwrap();
        Dataset::new(features, vec![0, 1, 0, 1], 2).unwrap()
    }

    #[test]
    fn construction_validates() {
        let f = Tensor::zeros(&[3, 2]);
        assert!(Dataset::new(f.clone(), vec![0, 1], 2).is_err()); // length
        assert!(Dataset::new(f.clone(), vec![0, 1, 5], 2).is_err()); // range
        assert!(Dataset::new(Tensor::zeros(&[3]), vec![0, 0, 0], 1).is_err()); // rank
        assert!(Dataset::new(f, vec![0, 1, 1], 2).is_ok());
    }

    #[test]
    fn batch_gathers_rows() {
        let d = tiny();
        let (x, y) = d.batch(&[2, 0]).unwrap();
        assert_eq!(x.dims(), &[2, 3]);
        assert_eq!(x.as_slice(), &[6.0, 7.0, 8.0, 0.0, 1.0, 2.0]);
        assert_eq!(y, vec![0, 0]);
    }

    #[test]
    fn batch_rejects_out_of_range() {
        let d = tiny();
        assert!(d.batch(&[4]).is_err());
    }

    #[test]
    fn split_sizes() {
        let d = tiny();
        let (train, test) = d.split_at(3).unwrap();
        assert_eq!(train.len(), 3);
        assert_eq!(test.len(), 1);
        assert_eq!(test.labels(), &[1]);
        assert!(d.split_at(5).is_err());
    }

    #[test]
    fn histogram_counts() {
        let d = tiny();
        assert_eq!(d.class_histogram(), vec![2, 2]);
    }

    #[test]
    fn example_dims_multi_rank() {
        let f = Tensor::zeros(&[2, 3, 4, 4]);
        let d = Dataset::new(f, vec![0, 0], 1).unwrap();
        assert_eq!(d.example_dims(), &[3, 4, 4]);
        let (x, _) = d.batch(&[1]).unwrap();
        assert_eq!(x.dims(), &[1, 3, 4, 4]);
    }
}
