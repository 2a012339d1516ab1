//! The dense tensor type and its core arithmetic.

use std::ops::Range;
use std::sync::Arc;

use crate::{Result, Shape, TensorError};

/// A dense, row-major `f32` tensor.
///
/// `Tensor` is the unit of exchange throughout the reproduction: model
/// parameter vectors, stochastic gradients and layer activations are all
/// tensors. Parameter vectors and gradients are rank-1 tensors of dimension
/// `d` (1.75M for the paper's CNN).
///
/// # Storage
///
/// The flat buffer is an `Arc<[f32]>` with copy-on-write mutation:
///
/// * **Cloning is `O(1)`** — a reference-count bump. Broadcasting one model
///   to `n` workers therefore shares a single allocation instead of copying
///   `n · d` floats, which is what makes the per-round fan-out in the
///   protocol engines zero-copy.
/// * **Mutation is copy-on-write** — the first in-place operation on a
///   tensor whose buffer is shared detaches it onto a private copy;
///   uniquely-owned tensors mutate in place with no copy at all.
///
/// Use [`Tensor::shares_storage`] to observe sharing (the zero-copy tests
/// rely on it).
#[derive(Debug, Clone)]
pub struct Tensor {
    shape: Shape,
    data: Arc<[f32]>,
}

impl PartialEq for Tensor {
    fn eq(&self, other: &Self) -> bool {
        self.shape == other.shape
            && (Arc::ptr_eq(&self.data, &other.data) || self.data == other.data)
    }
}

impl Tensor {
    /// Creates a tensor from a flat row-major buffer.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if `data.len()` does not equal
    /// the shape's volume.
    pub fn from_vec(data: Vec<f32>, dims: &[usize]) -> Result<Self> {
        let shape = Shape::new(dims);
        if shape.volume() != data.len() {
            return Err(TensorError::LengthMismatch {
                expected: shape.volume(),
                actual: data.len(),
            });
        }
        Ok(Tensor {
            shape,
            data: data.into(),
        })
    }

    /// Creates a rank-1 tensor from a flat buffer.
    ///
    /// Copies: the `Vec`'s elements move into a freshly allocated shared
    /// buffer (the `Arc` header precedes the elements, so the `Vec`'s
    /// allocation cannot be taken over). Where the values come from an
    /// iterator of known length, collect them into a `Tensor` instead — one
    /// allocation and one pass.
    pub fn from_flat(data: Vec<f32>) -> Self {
        let shape = Shape::new(&[data.len()]);
        Tensor {
            shape,
            data: data.into(),
        }
    }

    /// A tensor filled with zeros.
    pub fn zeros(dims: &[usize]) -> Self {
        Self::full(dims, 0.0)
    }

    /// A tensor filled with ones.
    pub fn ones(dims: &[usize]) -> Self {
        Self::full(dims, 1.0)
    }

    /// A tensor filled with `value`. Collects straight into the shared
    /// buffer (one allocation; a `Vec` → `Arc<[f32]>` conversion would copy).
    pub fn full(dims: &[usize], value: f32) -> Self {
        let shape = Shape::new(dims);
        let data = std::iter::repeat_n(value, shape.volume()).collect();
        Tensor { shape, data }
    }

    /// The `n`×`n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut data = vec![0.0f32; n * n];
        for i in 0..n {
            data[i * n + i] = 1.0;
        }
        Tensor {
            shape: Shape::new(&[n, n]),
            data: data.into(),
        }
    }

    /// A scalar (rank-0) tensor.
    pub fn scalar(value: f32) -> Self {
        Tensor {
            shape: Shape::scalar(),
            data: vec![value].into(),
        }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Dimension sizes, as a slice.
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.shape.rank()
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Read-only view of the flat row-major buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// An owned rank-1 copy of coordinates `range` of the flat buffer — how
    /// one shard group's slice of a parameter vector or gradient is cut.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidShard`] if the range does not fit the
    /// buffer (`start > end` or `end > len`).
    pub fn slice(&self, range: Range<usize>) -> Result<Tensor> {
        match self.data.get(range.clone()) {
            Some(coords) => Ok(Tensor::from_flat(coords.to_vec())),
            None => Err(TensorError::InvalidShard {
                start: range.start,
                end: range.end,
                len: self.len(),
            }),
        }
    }

    /// Mutable view of the flat row-major buffer.
    ///
    /// Copy-on-write: detaches this tensor onto a private buffer first if
    /// the storage is currently shared with other clones.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        if Arc::get_mut(&mut self.data).is_none() {
            self.data = Arc::from(&self.data[..]);
        }
        Arc::get_mut(&mut self.data).expect("buffer is uniquely owned after detach")
    }

    /// Whether `self` and `other` share the same underlying buffer (clones
    /// that have not diverged do; this is what "zero-copy broadcast" means).
    pub fn shares_storage(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.data, &other.data)
    }

    /// Consumes the tensor, returning the flat buffer.
    ///
    /// Always copies: a `Vec` cannot take ownership of an `Arc<[f32]>`
    /// allocation (the Arc header precedes the elements), even when the
    /// tensor is the last clone. Prefer [`Tensor::as_slice`] on hot paths.
    pub fn into_vec(self) -> Vec<f32> {
        self.data.to_vec()
    }

    /// Element at a multi-dimensional index.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] for invalid indices.
    pub fn get(&self, index: &[usize]) -> Result<f32> {
        Ok(self.data[self.shape.offset(index)?])
    }

    /// Sets the element at a multi-dimensional index.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] for invalid indices.
    pub fn set(&mut self, index: &[usize], value: f32) -> Result<()> {
        let off = self.shape.offset(index)?;
        self.as_mut_slice()[off] = value;
        Ok(())
    }

    /// Returns a tensor with a new shape **sharing this tensor's storage**
    /// (reshaping is metadata-only).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if the volumes differ.
    pub fn reshape(&self, dims: &[usize]) -> Result<Self> {
        let shape = Shape::new(dims);
        if shape.volume() != self.data.len() {
            return Err(TensorError::LengthMismatch {
                expected: shape.volume(),
                actual: self.data.len(),
            });
        }
        Ok(Tensor {
            shape,
            data: Arc::clone(&self.data),
        })
    }

    /// Flattens to a rank-1 tensor sharing this tensor's storage.
    pub fn flatten(&self) -> Self {
        Tensor {
            shape: Shape::new(&[self.data.len()]),
            data: Arc::clone(&self.data),
        }
    }

    fn check_same_shape(&self, other: &Self) -> Result<()> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                left: self.dims().to_vec(),
                right: other.dims().to_vec(),
            });
        }
        Ok(())
    }

    /// Element-wise sum.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn add(&self, other: &Self) -> Result<Self> {
        self.zip_with(other, |a, b| a + b)
    }

    /// Element-wise difference.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn sub(&self, other: &Self) -> Result<Self> {
        self.zip_with(other, |a, b| a - b)
    }

    /// Element-wise (Hadamard) product.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn mul(&self, other: &Self) -> Result<Self> {
        self.zip_with(other, |a, b| a * b)
    }

    /// Element-wise quotient.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn div(&self, other: &Self) -> Result<Self> {
        self.zip_with(other, |a, b| a / b)
    }

    /// Applies a binary function element-wise.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn zip_with<F: Fn(f32, f32) -> f32>(&self, other: &Self, f: F) -> Result<Self> {
        self.check_same_shape(other)?;
        let data: Vec<f32> = self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(&a, &b)| f(a, b))
            .collect();
        Ok(Tensor {
            shape: self.shape.clone(),
            data: data.into(),
        })
    }

    /// In-place element-wise addition: `self += other`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn add_assign(&mut self, other: &Self) -> Result<()> {
        self.check_same_shape(other)?;
        for (a, &b) in self.as_mut_slice().iter_mut().zip(other.data.iter()) {
            *a += b;
        }
        Ok(())
    }

    /// In-place AXPY: `self += alpha * other`, the SGD update primitive.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn axpy(&mut self, alpha: f32, other: &Self) -> Result<()> {
        self.check_same_shape(other)?;
        for (a, &b) in self.as_mut_slice().iter_mut().zip(other.data.iter()) {
            *a += alpha * b;
        }
        Ok(())
    }

    /// Applies a unary function element-wise, returning a new tensor.
    pub fn map<F: Fn(f32) -> f32>(&self, f: F) -> Self {
        let data: Vec<f32> = self.data.iter().map(|&a| f(a)).collect();
        Tensor {
            shape: self.shape.clone(),
            data: data.into(),
        }
    }

    /// Applies a unary function element-wise in place.
    pub fn map_inplace<F: Fn(f32) -> f32>(&mut self, f: F) {
        for a in self.as_mut_slice() {
            *a = f(*a);
        }
    }

    /// Multiplies every element by `s`.
    pub fn scale(&self, s: f32) -> Self {
        self.map(|a| a * s)
    }

    /// Adds `s` to every element.
    pub fn shift(&self, s: f32) -> Self {
        self.map(|a| a + s)
    }

    /// Element-wise negation.
    pub fn neg(&self) -> Self {
        self.map(|a| -a)
    }

    /// `true` iff every element is finite (no NaN / ±inf).
    ///
    /// The protocol uses this as a first-line sanity filter on incoming
    /// Byzantine messages: a vector containing NaN would otherwise poison
    /// the coordinate-wise median.
    ///
    /// Runs on every message a node admits, so it checks whole chunks with
    /// no exit inside one: the chunk loop vectorises, and only the verdict
    /// of a finished chunk can end the scan early.
    pub fn is_finite(&self) -> bool {
        let mut chunks = self.data.chunks_exact(FINITE_CHUNK);
        // An all-ones exponent is ±∞ or NaN: `f32::is_finite` on the bits,
        // which vectorises better than the float compare.
        const EXP: u32 = 0x7f80_0000;
        let all_finite = |c: &[f32]| c.iter().fold(true, |ok, a| ok & (a.to_bits() & EXP != EXP));
        chunks.by_ref().all(all_finite) && all_finite(chunks.remainder())
    }
}

/// Elements [`Tensor::is_finite`] checks between early-exit tests.
const FINITE_CHUNK: usize = 256;

/// A rank-1 tensor of the iterator's values. An iterator that reports its
/// exact length (a slice's `chunks_exact(..).map(..)`, say) is collected
/// straight into the shared buffer: one allocation, one pass, no `Vec`.
impl FromIterator<f32> for Tensor {
    fn from_iter<I: IntoIterator<Item = f32>>(iter: I) -> Self {
        let data: Arc<[f32]> = iter.into_iter().collect();
        Tensor {
            shape: Shape::new(&[data.len()]),
            data,
        }
    }
}

impl serde::Serialize for Tensor {
    fn serialize_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            (
                "shape".to_owned(),
                serde::Serialize::serialize_value(&self.shape),
            ),
            (
                "data".to_owned(),
                serde::Serialize::serialize_value(&self.data[..]),
            ),
        ])
    }
}

impl serde::Deserialize for Tensor {
    fn deserialize_value(v: &serde::Value) -> std::result::Result<Self, serde::DeError> {
        let obj = v
            .as_object()
            .ok_or_else(|| serde::DeError::expected("object", "Tensor"))?;
        let shape: Shape = serde::Deserialize::deserialize_value(serde::get_field(obj, "shape")?)?;
        let data: Vec<f32> = serde::Deserialize::deserialize_value(serde::get_field(obj, "data")?)?;
        if shape.volume() != data.len() {
            return Err(serde::DeError::msg(format!(
                "tensor data length {} does not match shape volume {}",
                data.len(),
                shape.volume()
            )));
        }
        Ok(Tensor {
            shape,
            data: data.into(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_validates_length() {
        assert!(Tensor::from_vec(vec![1.0, 2.0], &[3]).is_err());
        assert!(Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).is_ok());
    }

    #[test]
    fn zeros_ones_full() {
        assert_eq!(Tensor::zeros(&[2, 2]).as_slice(), &[0.0; 4]);
        assert_eq!(Tensor::ones(&[3]).as_slice(), &[1.0; 3]);
        assert_eq!(Tensor::full(&[2], 7.5).as_slice(), &[7.5, 7.5]);
    }

    #[test]
    fn eye_is_identity() {
        let i = Tensor::eye(3);
        for r in 0..3 {
            for c in 0..3 {
                let expected = if r == c { 1.0 } else { 0.0 };
                assert_eq!(i.get(&[r, c]).unwrap(), expected);
            }
        }
    }

    #[test]
    fn scalar_tensor() {
        let s = Tensor::scalar(3.5);
        assert_eq!(s.rank(), 0);
        assert_eq!(s.len(), 1);
        assert_eq!(s.as_slice(), &[3.5]);
    }

    #[test]
    fn get_set_roundtrip() {
        let mut t = Tensor::zeros(&[2, 3]);
        t.set(&[1, 2], 9.0).unwrap();
        assert_eq!(t.get(&[1, 2]).unwrap(), 9.0);
        assert_eq!(t.get(&[0, 0]).unwrap(), 0.0);
    }

    #[test]
    fn add_sub_mul_div() {
        let a = Tensor::from_flat(vec![1.0, 2.0, 3.0]);
        let b = Tensor::from_flat(vec![4.0, 5.0, 6.0]);
        assert_eq!(a.add(&b).unwrap().as_slice(), &[5.0, 7.0, 9.0]);
        assert_eq!(b.sub(&a).unwrap().as_slice(), &[3.0, 3.0, 3.0]);
        assert_eq!(a.mul(&b).unwrap().as_slice(), &[4.0, 10.0, 18.0]);
        assert_eq!(b.div(&a).unwrap().as_slice(), &[4.0, 2.5, 2.0]);
    }

    #[test]
    fn binary_ops_reject_shape_mismatch() {
        let a = Tensor::zeros(&[2, 2]);
        let b = Tensor::zeros(&[4]);
        assert!(matches!(a.add(&b), Err(TensorError::ShapeMismatch { .. })));
    }

    #[test]
    fn axpy_matches_manual() {
        let mut a = Tensor::from_flat(vec![1.0, 1.0]);
        let g = Tensor::from_flat(vec![2.0, 4.0]);
        a.axpy(-0.5, &g).unwrap();
        assert_eq!(a.as_slice(), &[0.0, -1.0]);
    }

    #[test]
    fn axpy_on_self_alias_is_safe() {
        // `self += alpha * self` through a clone sharing the same buffer:
        // the copy-on-write detach must snapshot the right-hand side first.
        let mut a = Tensor::from_flat(vec![1.0, 2.0]);
        let alias = a.clone();
        a.axpy(1.0, &alias).unwrap();
        assert_eq!(a.as_slice(), &[2.0, 4.0]);
        assert_eq!(alias.as_slice(), &[1.0, 2.0]);
    }

    #[test]
    fn scale_shift_neg() {
        let a = Tensor::from_flat(vec![1.0, -2.0]);
        assert_eq!(a.scale(2.0).as_slice(), &[2.0, -4.0]);
        assert_eq!(a.shift(1.0).as_slice(), &[2.0, -1.0]);
        assert_eq!(a.neg().as_slice(), &[-1.0, 2.0]);
    }

    #[test]
    fn reshape_preserves_data() {
        let a = Tensor::from_flat(vec![1.0, 2.0, 3.0, 4.0]);
        let m = a.reshape(&[2, 2]).unwrap();
        assert_eq!(m.get(&[1, 0]).unwrap(), 3.0);
        assert!(a.reshape(&[3]).is_err());
    }

    #[test]
    fn flatten_rank() {
        let a = Tensor::zeros(&[2, 3, 4]);
        assert_eq!(a.flatten().dims(), &[24]);
    }

    #[test]
    #[allow(clippy::reversed_empty_ranges)] // the inversion is the point
    fn slice_copies_a_range_and_rejects_one_that_does_not_fit() {
        let a = Tensor::from_flat(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let s = a.slice(2..5).unwrap();
        assert_eq!((s.dims(), s.as_slice()), (&[3][..], &[3.0, 4.0, 5.0][..]));
        assert!(!s.shares_storage(&a), "a slice is an owned copy");
        assert_eq!(a.slice(6..6).unwrap().len(), 0);
        assert_eq!(
            a.slice(2..7),
            Err(TensorError::InvalidShard {
                start: 2,
                end: 7,
                len: 6
            })
        );
        assert!(a.slice(4..2).is_err());
    }

    #[test]
    fn clone_shares_storage_until_mutation() {
        let a = Tensor::from_flat(vec![1.0, 2.0, 3.0]);
        let b = a.clone();
        assert!(a.shares_storage(&b), "clone must be a refcount bump");
        let c = a.reshape(&[3]).unwrap();
        assert!(a.shares_storage(&c), "reshape must share storage");
        assert!(a.shares_storage(&a.flatten()));

        // First mutation detaches the mutated clone only.
        let mut d = a.clone();
        d.set(&[0], 9.0).unwrap();
        assert!(!a.shares_storage(&d), "mutation must copy-on-write");
        assert_eq!(a.as_slice(), &[1.0, 2.0, 3.0]);
        assert_eq!(d.as_slice(), &[9.0, 2.0, 3.0]);
        assert!(a.shares_storage(&b), "other clones keep sharing");
    }

    #[test]
    fn unique_tensor_mutates_without_detach() {
        let mut a = Tensor::from_flat(vec![1.0, 2.0]);
        let before = a.as_slice().as_ptr();
        a.map_inplace(|x| x + 1.0);
        assert_eq!(a.as_slice().as_ptr(), before, "no copy when uniquely owned");
    }

    #[test]
    fn is_finite_detects_nan_and_inf() {
        let ok = Tensor::from_flat(vec![1.0, 2.0]);
        assert!(ok.is_finite());
        let nan = Tensor::from_flat(vec![1.0, f32::NAN]);
        assert!(!nan.is_finite());
        let inf = Tensor::from_flat(vec![f32::INFINITY]);
        assert!(!inf.is_finite());
    }

    #[test]
    fn is_finite_sees_a_bad_value_in_any_chunk_and_in_the_tail() {
        for len in [1, FINITE_CHUNK - 1, FINITE_CHUNK, 3 * FINITE_CHUNK + 5] {
            assert!(Tensor::zeros(&[len]).is_finite(), "len {len}");
            for at in [0, len / 2, len - 1] {
                for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
                    let mut t = Tensor::zeros(&[len]);
                    t.as_mut_slice()[at] = bad;
                    assert!(!t.is_finite(), "len {len}, {bad} at {at}");
                }
            }
        }
        assert!(Tensor::from_flat(vec![]).is_finite());
    }

    #[test]
    fn collecting_builds_a_rank_one_tensor() {
        let t: Tensor = (0..5).map(|i| i as f32 * 0.5).collect();
        assert_eq!(t.dims(), &[5]);
        assert_eq!(t.as_slice(), &[0.0, 0.5, 1.0, 1.5, 2.0]);
        let empty: Tensor = std::iter::empty().collect();
        assert_eq!(empty, Tensor::from_flat(vec![]));
        // An iterator of unknown length collects too.
        let odd: Tensor = (0..7).filter(|i| i % 2 == 1).map(|i| i as f32).collect();
        assert_eq!(odd.as_slice(), &[1.0, 3.0, 5.0]);
    }

    #[test]
    fn serde_roundtrip() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let json = serde_json::to_string(&a).unwrap();
        let back: Tensor = serde_json::from_str(&json).unwrap();
        assert_eq!(a, back);
    }

    #[test]
    fn serde_rejects_inconsistent_shape() {
        let bad = r#"{"shape":[3],"data":[1.0,2.0]}"#;
        assert!(serde_json::from_str::<Tensor>(bad).is_err());
    }

    #[test]
    fn map_inplace_applies() {
        let mut a = Tensor::from_flat(vec![1.0, 4.0, 9.0]);
        a.map_inplace(|x| x.sqrt());
        assert_eq!(a.as_slice(), &[1.0, 2.0, 3.0]);
    }
}
