//! Linear algebra, reductions and vector geometry on [`Tensor`].

use crate::{Result, Tensor, TensorError};

/// Widest register tile of [`gemm_into`]: this many accumulators of one
/// output row stay in registers while the inner dimension is walked.
const TILE: usize = 32;

/// Row-major matrix product on slices: `out (m×n) = a (m×k) · b (k×n)`, or
/// `out += a · b` with `accumulate`.
///
/// Every output element is computed with one fixed operation chain,
/// whatever the shape: start from `+0.0`, then for `p = 0..k` ascending add
/// `a[i][p] * b[p][j]`, **skipping every `p` with `a[i][p] == 0.0`**. The
/// skip is part of the contract, not a shortcut: it keeps `0 · ∞` out of
/// the sum. With `accumulate` the finished sum is added to `out[i][j]`
/// once, so `grad += x · y` keeps its sum-then-add order.
///
/// A row of `out` is produced in register tiles of `TILE` (32) columns, then
/// fixed sub-tiles of 16, 8, 4 and 1 for the remainder, so the accumulators
/// never round-trip through memory and a tile's lanes vectorise. The skip
/// is decided once per row of `a`, not once per value and tile: a row
/// without zeros runs branch-free, any other row is first compacted to its
/// non-zero terms (a data-dependent branch in the inner loop mispredicts on
/// every other term of a post-ReLU gradient).
///
/// # Panics
///
/// Panics if a slice length disagrees with `m`, `k`, `n`.
pub fn gemm_into(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    accumulate: bool,
) {
    assert_eq!(a.len(), m * k, "gemm_into: a is not m×k");
    assert_eq!(b.len(), k * n, "gemm_into: b is not k×n");
    assert_eq!(out.len(), m * n, "gemm_into: out is not m×n");
    if n == 0 {
        return;
    }
    // The non-zero terms of the current row of `a`: value and offset of
    // its row of `b`. Allocated by the first row that has a zero.
    let mut terms: Vec<(f32, usize)> = Vec::new();
    for (i, orow) in out.chunks_exact_mut(n).enumerate() {
        let arow = &a[i * k..(i + 1) * k];
        // Counted, not searched: the count vectorises, an early exit does not.
        if arow.iter().filter(|&&av| av == 0.0).count() == 0 {
            let dense = arow.iter().copied().zip(b.chunks_exact(n));
            row_tiles(dense, orow, accumulate);
        } else {
            terms.resize(k, (0.0, 0));
            let mut kept = 0;
            for (p, &av) in arow.iter().enumerate() {
                terms[kept] = (av, p * n);
                kept += usize::from(av != 0.0);
            }
            let sparse = terms[..kept].iter().map(|&(av, at)| (av, &b[at..at + n]));
            row_tiles(sparse, orow, accumulate);
        }
    }
}

/// One output row of [`gemm_into`], tile by tile. `terms` yields the row's
/// `(a[i][p], row p of b)` pairs in ascending `p`; every tile walks a clone.
#[inline(always)]
fn row_tiles<'b>(
    terms: impl Iterator<Item = (f32, &'b [f32])> + Clone,
    orow: &mut [f32],
    accumulate: bool,
) {
    let n = orow.len();
    let mut j = 0;
    while j + TILE <= n {
        tile::<TILE>(terms.clone(), j, orow, accumulate);
        j += TILE;
    }
    if j + 16 <= n {
        tile::<16>(terms.clone(), j, orow, accumulate);
        j += 16;
    }
    if j + 8 <= n {
        tile::<8>(terms.clone(), j, orow, accumulate);
        j += 8;
    }
    if j + 4 <= n {
        tile::<4>(terms.clone(), j, orow, accumulate);
        j += 4;
    }
    while j < n {
        tile::<1>(terms.clone(), j, orow, accumulate);
        j += 1;
    }
}

/// Columns `j..j + W` of one output row, on `W` register accumulators.
#[inline(always)]
fn tile<'b, const W: usize>(
    terms: impl Iterator<Item = (f32, &'b [f32])>,
    j: usize,
    orow: &mut [f32],
    accumulate: bool,
) {
    let mut acc = [0.0f32; W];
    for (av, brow) in terms {
        let bt: &[f32; W] = brow[j..j + W]
            .try_into()
            .expect("the tile lies inside the row");
        for (s, &bv) in acc.iter_mut().zip(bt) {
            *s += av * bv;
        }
    }
    let ot = &mut orow[j..j + W];
    if accumulate {
        for (o, s) in ot.iter_mut().zip(acc) {
            *o += s;
        }
    } else {
        ot.copy_from_slice(&acc);
    }
}

impl Tensor {
    /// Matrix product of two rank-2 tensors: `(m×k) · (k×n) → (m×n)`.
    ///
    /// A shape-checked shim over [`gemm_into`], which documents the
    /// operation chain every output element is computed with.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] unless both operands are rank 2
    /// and [`TensorError::MatmulDimMismatch`] when inner dimensions differ.
    pub fn matmul(&self, other: &Self) -> Result<Self> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                actual: self.rank(),
            });
        }
        if other.rank() != 2 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                actual: other.rank(),
            });
        }
        let (m, k) = (self.dims()[0], self.dims()[1]);
        let (k2, n) = (other.dims()[0], other.dims()[1]);
        if k != k2 {
            return Err(TensorError::MatmulDimMismatch {
                left_cols: k,
                right_rows: k2,
            });
        }
        let mut out = Tensor::zeros(&[m, n]);
        gemm_into(
            self.as_slice(),
            other.as_slice(),
            out.as_mut_slice(),
            m,
            k,
            n,
            false,
        );
        Ok(out)
    }

    /// Transpose of a rank-2 tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] unless the tensor is rank 2.
    pub fn transpose(&self) -> Result<Self> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                actual: self.rank(),
            });
        }
        let (m, n) = (self.dims()[0], self.dims()[1]);
        let a = self.as_slice();
        let mut out = Tensor::zeros(&[n, m]);
        let o = out.as_mut_slice();
        // Square blocks: a block's source and destination lines all stay in
        // cache, where a plain row walk misses on every strided store.
        const BLOCK: usize = 16;
        for i0 in (0..m).step_by(BLOCK) {
            for j0 in (0..n).step_by(BLOCK) {
                for i in i0..(i0 + BLOCK).min(m) {
                    for j in j0..(j0 + BLOCK).min(n) {
                        o[j * m + i] = a[i * n + j];
                    }
                }
            }
        }
        Ok(out)
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.as_slice().iter().sum()
    }

    /// Arithmetic mean of all elements.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::Empty`] for empty tensors.
    pub fn mean(&self) -> Result<f32> {
        if self.is_empty() {
            return Err(TensorError::Empty);
        }
        Ok(self.sum() / self.len() as f32)
    }

    /// Maximum element.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::Empty`] for empty tensors.
    pub fn max(&self) -> Result<f32> {
        if self.is_empty() {
            return Err(TensorError::Empty);
        }
        Ok(self
            .as_slice()
            .iter()
            .copied()
            .fold(f32::NEG_INFINITY, f32::max))
    }

    /// Minimum element.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::Empty`] for empty tensors.
    pub fn min(&self) -> Result<f32> {
        if self.is_empty() {
            return Err(TensorError::Empty);
        }
        Ok(self
            .as_slice()
            .iter()
            .copied()
            .fold(f32::INFINITY, f32::min))
    }

    /// Index of the maximum element in the flat buffer (first on ties).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::Empty`] for empty tensors.
    pub fn argmax(&self) -> Result<usize> {
        if self.is_empty() {
            return Err(TensorError::Empty);
        }
        let mut best = 0usize;
        let mut best_v = self.as_slice()[0];
        for (i, &v) in self.as_slice().iter().enumerate().skip(1) {
            if v > best_v {
                best = i;
                best_v = v;
            }
        }
        Ok(best)
    }

    /// Inner product of two same-shape tensors viewed as flat vectors.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn dot(&self, other: &Self) -> Result<f32> {
        if self.shape() != other.shape() {
            return Err(TensorError::ShapeMismatch {
                left: self.dims().to_vec(),
                right: other.dims().to_vec(),
            });
        }
        Ok(self
            .as_slice()
            .iter()
            .zip(other.as_slice())
            .map(|(&a, &b)| a * b)
            .sum())
    }

    /// Euclidean (L2) norm of the tensor viewed as a flat vector.
    ///
    /// Uses `f64` accumulation: parameter vectors here have millions of
    /// coordinates, and `f32` accumulation loses several digits at that size.
    pub fn norm(&self) -> f32 {
        self.as_slice()
            .iter()
            .map(|&a| (a as f64) * (a as f64))
            .sum::<f64>()
            .sqrt() as f32
    }

    /// Squared Euclidean norm (avoids the square root).
    pub fn norm_sq(&self) -> f32 {
        self.as_slice()
            .iter()
            .map(|&a| (a as f64) * (a as f64))
            .sum::<f64>() as f32
    }

    /// Euclidean distance between two same-shape tensors: each difference
    /// taken in `f32` and widened, the squares summed in `f64`, the root
    /// rounded to `f32`.
    ///
    /// `GeometricMedian` and `aggregation::properties::diameter` measure
    /// with it. Multi-Krum and Bulyan do not: their pair values come from
    /// `aggregation::kernel::pairwise_distances`, which widens each operand
    /// before subtracting.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn distance(&self, other: &Self) -> Result<f32> {
        if self.shape() != other.shape() {
            return Err(TensorError::ShapeMismatch {
                left: self.dims().to_vec(),
                right: other.dims().to_vec(),
            });
        }
        Ok(self
            .as_slice()
            .iter()
            .zip(other.as_slice())
            .map(|(&a, &b)| {
                let d = (a - b) as f64;
                d * d
            })
            .sum::<f64>()
            .sqrt() as f32)
    }

    /// Cosine similarity `⟨a,b⟩ / (‖a‖‖b‖)`, the quantity reported in the
    /// paper's Table 2 (alignment of difference vectors).
    ///
    /// Returns 0 when either vector is zero.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn cosine_similarity(&self, other: &Self) -> Result<f32> {
        let dot = self.dot(other)? as f64;
        let na = self.norm() as f64;
        let nb = other.norm() as f64;
        if na == 0.0 || nb == 0.0 {
            return Ok(0.0);
        }
        Ok((dot / (na * nb)) as f32)
    }

    /// Arithmetic mean of a non-empty slice of same-shape tensors — the
    /// vulnerable "vanilla" aggregation the paper contrasts against.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::Empty`] for an empty slice and
    /// [`TensorError::ShapeMismatch`] if shapes disagree.
    pub fn mean_of(tensors: &[Tensor]) -> Result<Tensor> {
        let first = tensors.first().ok_or(TensorError::Empty)?;
        let mut acc = first.clone();
        for t in &tensors[1..] {
            acc.add_assign(t)?;
        }
        Ok(acc.scale(1.0 / tensors.len() as f32))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(v: Vec<f32>, d: &[usize]) -> Tensor {
        Tensor::from_vec(v, d).unwrap()
    }

    #[test]
    fn matmul_identity() {
        let a = t(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let i = Tensor::eye(2);
        assert_eq!(a.matmul(&i).unwrap(), a);
        assert_eq!(i.matmul(&a).unwrap(), a);
    }

    #[test]
    fn matmul_known_product() {
        let a = t(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let b = t(vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0], &[3, 2]);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.dims(), &[2, 2]);
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_rejects_bad_shapes() {
        let a = t(vec![1.0, 2.0], &[2, 1]);
        let b = t(vec![1.0, 2.0], &[2, 1]);
        assert!(matches!(
            a.matmul(&b),
            Err(TensorError::MatmulDimMismatch { .. })
        ));
        let v = Tensor::from_flat(vec![1.0]);
        assert!(matches!(
            v.matmul(&a),
            Err(TensorError::RankMismatch { .. })
        ));
    }

    /// The triple loop `Tensor::matmul` was before `gemm_into`: the oracle
    /// for the operation chain, accumulators in memory.
    fn matmul_reference(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for p in 0..k {
                let av = a[i * k + p];
                if av == 0.0 {
                    continue;
                }
                let brow = &b[p * n..(p + 1) * n];
                let orow = &mut out[i * n..(i + 1) * n];
                for (o, &bv) in orow.iter_mut().zip(brow) {
                    *o += av * bv;
                }
            }
        }
        out
    }

    /// Bit equality, except that two NaNs born of arithmetic compare equal:
    /// the language leaves the sign and payload of such a NaN open.
    fn assert_same_bits(got: &[f32], want: &[f32], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert!(
                g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
                "{what}: element {i} is {g:?} ({:#x}), reference {w:?} ({:#x})",
                g.to_bits(),
                w.to_bits()
            );
        }
    }

    /// `len` values in `[-1, 1)`, a `zeros` share of them `0.0` (every third
    /// of those `-0.0`), plus the listed specials at scattered positions.
    fn operand(rng: &mut crate::TensorRng, len: usize, zeros: f32, specials: &[f32]) -> Vec<f32> {
        let mut v: Vec<f32> = (0..len).map(|_| rng.uniform(-1.0, 1.0)).collect();
        for (i, x) in v.iter_mut().enumerate() {
            if rng.uniform(0.0, 1.0) < zeros {
                *x = if i % 3 == 0 { -0.0 } else { 0.0 };
            }
        }
        for (i, &s) in specials.iter().enumerate() {
            if len > 0 {
                v[(i * 7 + 3) % len] = s;
            }
        }
        v
    }

    #[test]
    fn gemm_into_matches_the_triple_loop_bit_for_bit() {
        let mut rng = crate::TensorRng::new(15);
        let inf = f32::INFINITY;
        // (a zeros, a specials, b specials): dense, post-pool sparse, all
        // zero, and non-finite operands next to zeros (the `0 · ∞` skip).
        let modes: [(f32, &[f32], &[f32]); 5] = [
            (0.0, &[], &[]),
            (0.75, &[], &[]),
            (1.0, &[], &[]),
            (0.5, &[], &[inf, -inf, f32::NAN, inf, -0.0]),
            (0.5, &[inf, f32::NAN, -inf], &[0.0, -0.0, inf]),
        ];
        for n in [1, 10, 16, 27, 40, 64, 72, 320] {
            for (m, k) in [(1, 1), (8, 27), (3, 64), (5, 9), (2, 0), (0, 4)] {
                for (zeros, a_specials, b_specials) in modes {
                    let a = operand(&mut rng, m * k, zeros, a_specials);
                    let b = operand(&mut rng, k * n, 0.1, b_specials);
                    let want = matmul_reference(&a, &b, m, k, n);
                    let what = format!("m={m} k={k} n={n} zeros={zeros}");

                    let mut out = operand(&mut rng, m * n, 0.0, &[]);
                    gemm_into(&a, &b, &mut out, m, k, n, false);
                    assert_same_bits(&out, &want, &what);

                    let base = operand(&mut rng, m * n, 0.2, &[]);
                    let mut out = base.clone();
                    gemm_into(&a, &b, &mut out, m, k, n, true);
                    let want: Vec<f32> = base.iter().zip(&want).map(|(o, s)| o + s).collect();
                    assert_same_bits(&out, &want, &format!("{what} accumulate"));
                }
            }
        }
    }

    #[test]
    fn gemm_into_skips_zero_times_infinity() {
        // 0 · ∞ would be NaN; the chain never forms the product.
        let a = [0.0, 2.0, -0.0, 1.0];
        let b = [f32::INFINITY, f32::NAN, 3.0, 4.0];
        let mut out = [9.0; 4];
        gemm_into(&a, &b, &mut out, 2, 2, 2, false);
        assert_eq!(out, [6.0, 8.0, 3.0, 4.0]);
        // ... while a non-zero weight on a non-finite input propagates it.
        let mut out = [9.0; 2];
        gemm_into(&[1.0, 1.0], &b, &mut out, 1, 2, 2, false);
        assert_eq!(out[0], f32::INFINITY);
        assert!(out[1].is_nan());
    }

    #[test]
    #[should_panic(expected = "gemm_into: b is not k×n")]
    fn gemm_into_rejects_a_short_operand() {
        gemm_into(&[1.0; 6], &[1.0; 5], &mut [0.0; 4], 2, 3, 2, false);
    }

    #[test]
    fn transpose_of_a_matrix_wider_than_a_block() {
        let (m, n) = (19, 37);
        let a = t((0..m * n).map(|v| v as f32).collect(), &[m, n]);
        let at = a.transpose().unwrap();
        assert_eq!(at.dims(), &[n, m]);
        for i in 0..m {
            for j in 0..n {
                assert_eq!(at.get(&[j, i]).unwrap(), a.get(&[i, j]).unwrap());
            }
        }
    }

    #[test]
    fn transpose_involution() {
        let a = t(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let at = a.transpose().unwrap();
        assert_eq!(at.dims(), &[3, 2]);
        assert_eq!(at.get(&[2, 1]).unwrap(), 6.0);
        assert_eq!(at.transpose().unwrap(), a);
    }

    #[test]
    fn reductions() {
        let a = Tensor::from_flat(vec![1.0, -2.0, 3.0]);
        assert_eq!(a.sum(), 2.0);
        assert!((a.mean().unwrap() - 2.0 / 3.0).abs() < 1e-6);
        assert_eq!(a.max().unwrap(), 3.0);
        assert_eq!(a.min().unwrap(), -2.0);
        assert_eq!(a.argmax().unwrap(), 2);
    }

    #[test]
    fn argmax_first_on_tie() {
        let a = Tensor::from_flat(vec![5.0, 5.0, 1.0]);
        assert_eq!(a.argmax().unwrap(), 0);
    }

    #[test]
    fn dot_and_norm() {
        let a = Tensor::from_flat(vec![3.0, 4.0]);
        assert_eq!(a.norm(), 5.0);
        assert_eq!(a.norm_sq(), 25.0);
        let b = Tensor::from_flat(vec![1.0, 0.0]);
        assert_eq!(a.dot(&b).unwrap(), 3.0);
    }

    #[test]
    fn distance_symmetry_and_zero() {
        let a = Tensor::from_flat(vec![1.0, 2.0]);
        let b = Tensor::from_flat(vec![4.0, 6.0]);
        assert_eq!(a.distance(&b).unwrap(), 5.0);
        assert_eq!(b.distance(&a).unwrap(), 5.0);
        assert_eq!(a.distance(&a).unwrap(), 0.0);
    }

    #[test]
    fn cosine_similarity_basics() {
        let a = Tensor::from_flat(vec![1.0, 0.0]);
        let b = Tensor::from_flat(vec![0.0, 1.0]);
        assert_eq!(a.cosine_similarity(&b).unwrap(), 0.0);
        assert!((a.cosine_similarity(&a).unwrap() - 1.0).abs() < 1e-6);
        let na = a.neg();
        assert!((a.cosine_similarity(&na).unwrap() + 1.0).abs() < 1e-6);
        let z = Tensor::zeros(&[2]);
        assert_eq!(a.cosine_similarity(&z).unwrap(), 0.0);
    }

    #[test]
    fn mean_of_tensors() {
        let a = Tensor::from_flat(vec![1.0, 2.0]);
        let b = Tensor::from_flat(vec![3.0, 4.0]);
        let m = Tensor::mean_of(&[a, b]).unwrap();
        assert_eq!(m.as_slice(), &[2.0, 3.0]);
        assert!(matches!(Tensor::mean_of(&[]), Err(TensorError::Empty)));
    }

    #[test]
    fn empty_reductions_err() {
        let e = Tensor::zeros(&[0]);
        assert!(e.mean().is_err());
        assert!(e.max().is_err());
        assert!(e.min().is_err());
        assert!(e.argmax().is_err());
    }

    #[test]
    fn norm_large_vector_f64_accumulation() {
        // 4M elements of 1e-3: exact norm is 1e-3 * sqrt(4e6) = 2.0.
        let n = 4_000_000;
        let a = Tensor::full(&[n], 1e-3);
        assert!((a.norm() - 2.0).abs() < 1e-4);
    }
}
