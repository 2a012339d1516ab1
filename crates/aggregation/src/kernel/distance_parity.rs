//! The certified lane-sum distance kernel against the per-pair chain it
//! evaluates, bit for bit.
//!
//! `pairwise_distances` sums each pair's terms in [`LANES`] lanes and keeps
//! the root only under a rounding certificate; the oracle here is the chain
//! that defines the pair value — one `f64` sum in coordinate order, the
//! root rounded to `f32`, widened and squared — kept only for these tests.
//! The comparison is on pair values, not roots: at `d = 0` the chain's
//! `Iterator::sum` starts at `-0.0`, so its root is `-0.0` where the lane
//! sum's is `+0.0`, and both square to `+0.0`.

use proptest::prelude::*;
use tensor::TensorRng;

use super::tiled_parity::{value, ADVERSARIAL};
use super::*;

mod reference {
    fn distance(a: &[f32], b: &[f32]) -> f32 {
        a.iter()
            .zip(b)
            .map(|(&x, &y)| {
                let d = f64::from(x) - f64::from(y);
                d * d
            })
            .sum::<f64>()
            .sqrt() as f32
    }

    pub fn pairwise_distances(inputs: &[&[f32]]) -> Vec<f64> {
        let n = inputs.len();
        let mut dist = vec![0.0f64; n * n];
        for i in 0..n {
            for j in (i + 1)..n {
                let d = f64::from(distance(inputs[i], inputs[j]));
                dist[i * n + j] = d * d;
                dist[j * n + i] = d * d;
            }
        }
        dist
    }
}

/// The row families the oracle runs over.
#[derive(Debug, Clone, Copy)]
enum Rows {
    /// Uniform in `[-2, 2)`.
    Ordinary,
    /// One uniform row, the others equal to it or a few ulps away in a
    /// few coordinates: sums near zero and exact zeros.
    NearEqual,
    /// Half adversarial bit patterns (±0.0, subnormals, ±`f32::MAX`, ±∞,
    /// NaNs), half ordinary values.
    Extreme,
}

fn rows(kind: Rows, seed: u64, n: usize, d: usize) -> Vec<Vec<f32>> {
    let mut rng = TensorRng::new(seed);
    match kind {
        Rows::Ordinary => (0..n)
            .map(|_| (0..d).map(|_| rng.uniform(-2.0, 2.0)).collect())
            .collect(),
        Rows::NearEqual => {
            let base: Vec<f32> = (0..d).map(|_| rng.uniform(-2.0, 2.0)).collect();
            (0..n)
                .map(|_| {
                    let mut row = base.clone();
                    for _ in 0..rng.below(4) {
                        if d > 0 {
                            let c = rng.below(d);
                            let ulps = rng.below(5) as u32;
                            row[c] = f32::from_bits(row[c].to_bits() ^ ulps);
                        }
                    }
                    row
                })
                .collect()
        }
        Rows::Extreme => (0..n)
            .map(|_| (0..d).map(|_| value(&mut rng)).collect())
            .collect(),
    }
}

/// Bit equality of every pair value, except where both are a NaN: a NaN
/// that comes out of arithmetic has no sign or payload the language
/// promises.
fn check(kind: Rows, seed: u64, n: usize, d: usize) {
    let xs = rows(kind, seed, n, d);
    let views: Vec<&[f32]> = xs.iter().map(Vec::as_slice).collect();
    let got = pairwise_distances(&views);
    let want = reference::pairwise_distances(&views);
    for (k, (g, w)) in got.iter().zip(&want).enumerate() {
        assert!(
            g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
            "{kind:?} n={n} d={d} seed={seed}: pair ({}, {}): got {g:?} ({:#018x}), want {w:?} ({:#018x})",
            k / n,
            k % n,
            g.to_bits(),
            w.to_bits()
        );
    }
}

/// Widths around the lane count and the tile of the other kernels, and the
/// `event-switched` fold width.
const WIDTHS: [usize; 9] = [0, 1, 7, 8, 9, 255, 256, 257, 1350];

#[test]
fn lane_kernel_matches_the_chain_on_every_shape() {
    for n in (1..=17).chain([51]) {
        for d in WIDTHS {
            for kind in [Rows::Ordinary, Rows::NearEqual, Rows::Extreme] {
                check(kind, 0xD157 + (n * 1000 + d) as u64, n, d);
            }
        }
    }
}

/// `[1 + 2^-23]` against `[2^-24]`: the root is exactly halfway between
/// `1.0` and the next `f32`, so no interval around the lane sum rounds to
/// one root and the chain decides (round to even: `1.0`).
#[test]
fn round_to_even_tie_takes_the_chain() {
    let a = [1.0 + f32::EPSILON];
    let b = [f32::EPSILON / 2.0];
    assert_eq!(certified_root(lane_sum(&a, &b), 1), None);
    assert_eq!(root(&a, &b).to_bits(), 1.0f32.to_bits());
}

/// A pair whose lane sum rounds to a *different* root than the chain's:
/// the tie's square first, then 1349 terms of `2^-54`, each a quarter of
/// the running sum's ulp. The chain drops every one and stays on the tie
/// (root `1.0`); the lanes add them up among themselves first and land
/// above it (root `1 + 2^-23`). The certificate must refuse the pair.
#[test]
fn reordering_that_moves_the_root_takes_the_chain() {
    let quarter_ulp = 2.0f32.powi(-27); // squares to 2^-54
    let mut a = vec![quarter_ulp; 1350];
    let mut b = vec![0.0f32; 1350];
    a[0] = 1.0 + f32::EPSILON;
    b[0] = f32::EPSILON / 2.0;
    let s = lane_sum(&a, &b);
    assert_eq!(distance(&a, &b).to_bits(), 1.0f32.to_bits());
    assert_eq!(
        s.sqrt() as f32,
        1.0 + f32::EPSILON,
        "the lanes moved the root"
    );
    assert_eq!(certified_root(s, a.len()), None);
    assert_eq!(root(&a, &b).to_bits(), 1.0f32.to_bits());
}

/// Non-finite sums are never certified: the chain decides between `∞` and
/// NaN.
#[test]
fn non_finite_sums_take_the_chain() {
    for bits in ADVERSARIAL {
        let x = f32::from_bits(bits);
        let s = lane_sum(&[x, 1.0], &[0.0, 1.0]);
        if !x.is_finite() {
            assert_eq!(certified_root(s, 2), None, "{x:?}");
        }
    }
}

/// A certificate that never holds is bit-identical and slow: on ordinary
/// data every pair must be certified. A seeded Gaussian batch at the
/// `event-switched` fold shape (13 × 1350, 78 pairs) takes no fallback.
#[test]
fn gaussian_batch_takes_no_fallback() {
    let mut rng = TensorRng::new(0x25_0001);
    let xs: Vec<Vec<f32>> = (0..13)
        .map(|_| rng.normal_tensor(&[1350], 0.0, 1.0).as_slice().to_vec())
        .collect();
    for (i, a) in xs.iter().enumerate() {
        for b in &xs[i + 1..] {
            assert!(certified_root(lane_sum(a, b), 1350).is_some(), "pair {i}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn lane_kernel_matches_the_chain_on_random_shapes(
        seed in any::<u64>(),
        n in 1usize..18,
        d in 0usize..600,
        kind in 0usize..3,
    ) {
        let kind = [Rows::Ordinary, Rows::NearEqual, Rows::Extreme][kind];
        check(kind, seed, n, d);
    }
}
