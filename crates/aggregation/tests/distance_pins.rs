//! Known answers for `kernel::pairwise_distances`, the Krum-family matrix.
//!
//! Every trace fingerprint runs through these bits: a Multi-Krum or Bulyan
//! server scores its inputs from this matrix and selects by those scores.
//! The values below were taken from the per-pair `f64` chain in coordinate
//! order (`distance` → `f32` → `f64` → `d·d`) and pin it as literals, so
//! any faster evaluation of the same definition must reproduce them bit for
//! bit.

use aggregation::kernel::pairwise_distances;
use tensor::TensorRng;

/// FNV-1a over the little-endian bytes of every entry's `to_bits`, row by
/// row.
fn digest(matrix: &[f64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in matrix {
        for b in v.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// `n` standard-normal rows of `d` coordinates from one seeded stream.
fn gaussian_rows(seed: u64, n: usize, d: usize) -> Vec<Vec<f32>> {
    let mut rng = TensorRng::new(seed);
    (0..n)
        .map(|_| rng.normal_tensor(&[d], 0.0, 1.0).as_slice().to_vec())
        .collect()
}

fn matrix(rows: &[Vec<f32>]) -> Vec<f64> {
    let views: Vec<&[f32]> = rows.iter().map(Vec::as_slice).collect();
    pairwise_distances(&views)
}

/// The fold shapes of the benchmark's Multi-Krum workloads: 13 × 1350
/// (`event-switched`), 7 × 2538 (`threaded-byz` / `lockstep-byz`) and
/// 6 × 64,970 (`tcp-wide`).
#[test]
fn seeded_matrices_match_their_digests() {
    let cases: [(u64, usize, usize, u64); 3] = [
        (0x25_0001, 13, 1350, 0x124a_f913_b296_3bed),
        (0x25_0002, 7, 2538, 0xee81_e533_7e6a_945d),
        (0x25_0003, 6, 64_970, 0x8ac6_e622_754a_7b15),
    ];
    for (seed, n, d, want) in cases {
        let got = digest(&matrix(&gaussian_rows(seed, n, d)));
        assert_eq!(got, want, "{n}x{d} seed {seed:#x}: digest {got:#018x}");
    }
}

/// Rows that mix ±0.0, subnormals, ±`f32::MAX`, ±∞ and NaN.
fn crafted_rows() -> Vec<Vec<f32>> {
    let tiny = f32::from_bits(1); // smallest subnormal, 2^-149
    let big_sub = f32::from_bits(0x007F_FFFF); // largest subnormal
    vec![
        vec![0.0, -0.0, tiny, -tiny],
        vec![-0.0, 0.0, -tiny, big_sub],
        vec![1e-20, -1e-30, big_sub, 0.0],
        vec![1e30, -1e30, 1.0, -0.0],
        vec![f32::MAX, 0.0, -1.0, 0.0],
        vec![-f32::MAX / 4.0, tiny, 1.0, -1.0],
        vec![f32::INFINITY, 0.0, 1.0, 0.0],
        vec![f32::INFINITY, -0.0, -1.0, 2.0],
        vec![f32::NEG_INFINITY, tiny, 0.0, 0.0],
        vec![f32::NAN, 1.0, 2.0, 3.0],
    ]
}

/// Upper-triangle pair values of [`crafted_rows`], row-major, as
/// `f64::to_bits`. `None` marks a NaN: a NaN that comes out of arithmetic
/// has no sign or payload the language promises, so it is held as NaN only.
const CRAFTED: [Option<u64>; 45] = [
    // row 0 against rows 1 ..= 9
    Some(0x3030_0000_0000_0000),
    Some(0x37a1_6c26_14ea_0800),
    Some(0x4c73_e9e4_cd74_4000),
    Some(MAX_SQ),
    Some(QUARTER_MAX_SQ),
    Some(INF),
    Some(INF),
    Some(INF),
    None,
    // row 1 against rows 2 ..= 9
    Some(0x37a1_6c26_14ea_0800),
    Some(0x4c73_e9e4_cd74_4000),
    Some(MAX_SQ),
    Some(QUARTER_MAX_SQ),
    Some(INF),
    Some(INF),
    Some(INF),
    None,
    // row 2 against rows 3 ..= 9
    Some(0x4c73_e9e4_cd74_4000),
    Some(MAX_SQ),
    Some(QUARTER_MAX_SQ),
    Some(INF),
    Some(INF),
    Some(INF),
    None,
    // row 3 against rows 4 ..= 9
    Some(MAX_SQ),
    Some(QUARTER_MAX_SQ),
    Some(INF),
    Some(INF),
    Some(INF),
    None,
    // row 4 against rows 5 ..= 9: 1.25 · f32::MAX overflows the f32 root
    Some(INF),
    Some(INF),
    Some(INF),
    Some(INF),
    None,
    // row 5 against rows 6 ..= 9
    Some(INF),
    Some(INF),
    Some(INF),
    None,
    // row 6 against rows 7 ..= 9: ∞ − ∞
    None,
    Some(INF),
    None,
    // row 7 against rows 8, 9
    Some(INF),
    None,
    // row 8 against row 9
    None,
];

/// `f64::from(f32::MAX)²`: the root is exact and rounds to `f32::MAX`.
const MAX_SQ: u64 = 0x4fef_ffff_c000_0020;
/// `f64::from(f32::MAX / 4)²`.
const QUARTER_MAX_SQ: u64 = 0x4faf_ffff_c000_0020;
/// `+∞`.
const INF: u64 = 0x7ff0_0000_0000_0000;

#[test]
fn crafted_pair_values_match_their_literals() {
    let rows = crafted_rows();
    let n = rows.len();
    let dist = matrix(&rows);
    let mut k = 0;
    for i in 0..n {
        assert_eq!(dist[i * n + i].to_bits(), 0, "diagonal {i}");
        for j in (i + 1)..n {
            let got = dist[i * n + j];
            assert_eq!(got.to_bits(), dist[j * n + i].to_bits(), "symmetry {i},{j}");
            match CRAFTED[k] {
                Some(want) => assert_eq!(
                    got.to_bits(),
                    want,
                    "pair {i},{j}: got {got:?} ({:#018x})",
                    got.to_bits()
                ),
                None => assert!(got.is_nan(), "pair {i},{j}: got {got:?}, want NaN"),
            }
            k += 1;
        }
    }
}

/// Zero-width rows: every pair value is `+0.0`.
#[test]
fn empty_rows_have_zero_pair_values() {
    let dist = matrix(&[vec![], vec![], vec![]]);
    assert_eq!(dist.len(), 9);
    assert!(dist.iter().all(|v| v.to_bits() == 0), "{dist:?}");
}

/// `[1 + 2^-23]` against `[2^-24]`: the difference is `1 + 2^-24`, its
/// square `1 + 2^-23 + 2^-48` is exact in `f64`, and so is its root,
/// `1 + 2^-24` — exactly halfway between `1.0` and the next `f32`. The
/// chain rounds it to even, `1.0`, whose square is the pair value.
#[test]
fn round_to_even_tie_pins_the_chain() {
    let a = 1.0 + f32::EPSILON;
    let b = f32::EPSILON / 2.0;
    let dist = matrix(&[vec![a], vec![b]]);
    assert_eq!(dist[1].to_bits(), 1.0f64.to_bits(), "got {:?}", dist[1]);
    assert_eq!(dist[2].to_bits(), 1.0f64.to_bits());
}
