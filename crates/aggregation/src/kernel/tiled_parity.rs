//! The tiled order-statistic kernels against the per-column code they
//! replaced, bit for bit.
//!
//! Every order-statistic kernel runs [`sorted_tiles`]; the oracle here is
//! the old inner loop — gather one column, `sort_unstable_by(f32::total_cmp)`,
//! read the statistic — kept only for these tests.

use proptest::prelude::*;
use tensor::TensorRng;

use super::*;

mod reference {
    fn sorted_column(inputs: &[&[f32]], i: usize) -> Vec<f32> {
        let mut column: Vec<f32> = inputs.iter().map(|input| input[i]).collect();
        column.sort_unstable_by(f32::total_cmp);
        column
    }

    fn column_median(sorted: &[f32]) -> f32 {
        let n = sorted.len();
        if n % 2 == 1 {
            sorted[n / 2]
        } else {
            0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
        }
    }

    fn closest_window(sorted: &[f32], keep: usize, center: f32) -> usize {
        let mut best_start = 0usize;
        let mut best_spread = f32::INFINITY;
        for start in 0..=(sorted.len() - keep) {
            let spread = (sorted[start + keep - 1] - center)
                .abs()
                .max((sorted[start] - center).abs());
            if spread < best_spread {
                best_spread = spread;
                best_start = start;
            }
        }
        best_start
    }

    pub fn median(inputs: &[&[f32]], start: usize, out: &mut [f32]) {
        for (c, o) in out.iter_mut().enumerate() {
            *o = column_median(&sorted_column(inputs, start + c));
        }
    }

    pub fn trimmed_mean(inputs: &[&[f32]], trim: usize, start: usize, out: &mut [f32]) {
        let keep = inputs.len() - 2 * trim;
        for (c, o) in out.iter_mut().enumerate() {
            let column = sorted_column(inputs, start + c);
            *o = column[trim..trim + keep].iter().sum::<f32>() / keep as f32;
        }
    }

    /// MeaMed, and Bulyan's fold.
    pub fn window_mean(inputs: &[&[f32]], keep: usize, start: usize, out: &mut [f32]) {
        for (c, o) in out.iter_mut().enumerate() {
            let column = sorted_column(inputs, start + c);
            let win = closest_window(&column, keep, column_median(&column));
            *o = column[win..win + keep].iter().sum::<f32>() / keep as f32;
        }
    }
}

/// Values the shims reject or that order oddly: the kernels are public and
/// must place them exactly where `total_cmp` does.
pub(super) const ADVERSARIAL: [u32; 20] = [
    0x0000_0000, // +0.0
    0x8000_0000, // -0.0
    0x0000_0001, // smallest subnormals
    0x8000_0001,
    0x007F_FFFF, // largest subnormals
    0x807F_FFFF,
    0x7F7F_FFFF, // ±f32::MAX
    0xFF7F_FFFF,
    0x7F80_0000, // ±∞
    0xFF80_0000,
    0x7FC0_0000, // quiet NaNs, both signs
    0xFFC0_0000,
    0x7FC0_0001, // … with payloads
    0xFFFF_FFFF,
    0x7F80_0001, // signalling NaNs
    0xFFA5_5A5A,
    0x3F80_0000, // 1.0, -1.0 and a neighbour: duplicates and near-ties
    0xBF80_0000,
    0x3F80_0001,
    0x3F80_0000,
];

/// Half adversarial values, half ordinary ones in `[-2, 2)`.
pub(super) fn value(rng: &mut TensorRng) -> f32 {
    if rng.below(2) == 0 {
        f32::from_bits(ADVERSARIAL[rng.below(ADVERSARIAL.len())])
    } else {
        rng.uniform(-2.0, 2.0)
    }
}

/// `n` inputs of `len` coordinates. Column `all_neg_zero` is `-0.0` in every
/// input (a sum over it must keep `Iterator::sum`'s identity) and the next
/// column is one duplicated value.
fn inputs(seed: u64, n: usize, len: usize, all_neg_zero: usize) -> Vec<Vec<f32>> {
    let mut rng = TensorRng::new(seed);
    let mut xs: Vec<Vec<f32>> = (0..n)
        .map(|_| (0..len).map(|_| value(&mut rng)).collect())
        .collect();
    for x in &mut xs {
        x[all_neg_zero] = -0.0;
        if let Some(next) = x.get_mut(all_neg_zero + 1) {
            *next = 0.37;
        }
    }
    xs
}

/// Bit equality, except where both sides are a NaN that came out of
/// arithmetic: the language leaves such a NaN's sign and payload open, so
/// only an order statistic read straight from the column (`exact`) is held
/// to its bits.
fn assert_same(got: &[f32], want: &[f32], exact: bool, what: &str) {
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        let same = g.to_bits() == w.to_bits() || (!exact && g.is_nan() && w.is_nan());
        assert!(
            same,
            "{what}: coordinate {i}: got {g:?} ({:#010x}), want {w:?} ({:#010x})",
            g.to_bits(),
            w.to_bits()
        );
    }
}

/// Widths around the tile, plus one of several tiles with a ragged tail.
const WIDTHS: [usize; 5] = [1, TILE - 1, TILE, TILE + 1, 3 * TILE + 5];

/// All four kernels over the window `start .. start + width` of `n` mixed
/// inputs, every legal shape of trim / keep, against the reference.
fn check(seed: u64, n: usize, width: usize, start: usize) {
    let xs = inputs(seed, n, start + width + 2, start);
    let views: Vec<&[f32]> = xs.iter().map(Vec::as_slice).collect();
    // The kernels fold from offset 0: a shifted window is a slice of every
    // input (an unaligned one for odd `start`).
    let window: Vec<&[f32]> = xs.iter().map(|x| &x[start..start + width]).collect();
    let mut want = vec![0.0f32; width];
    let mut got = vec![0.0f32; width];
    let case = format!("n={n} width={width} start={start} seed={seed}");

    reference::median(&views, start, &mut want);
    median_into(&window, &mut got);
    assert_same(&got, &want, n % 2 == 1, &format!("median {case}"));

    for trim in [0, (n - 1) / 4, (n - 1) / 2] {
        reference::trimmed_mean(&views, trim, start, &mut want);
        trimmed_mean_into(&window, trim, &mut got);
        assert_same(&got, &want, false, &format!("trimmed({trim}) {case}"));
    }

    for keep in [1, n.div_ceil(2), n] {
        reference::window_mean(&views, keep, start, &mut want);
        meamed_into(&window, keep, &mut got);
        assert_same(&got, &want, false, &format!("meamed({keep}) {case}"));
        bulyan_fold_into(&window, keep, &mut got);
        assert_same(&got, &want, false, &format!("bulyan fold({keep}) {case}"));
    }
}

#[test]
fn key_is_total_cmp_order_and_its_own_inverse() {
    for &a in &ADVERSARIAL {
        assert_eq!(unkey(key(f32::from_bits(a))).to_bits(), a);
        for &b in &ADVERSARIAL {
            let (x, y) = (f32::from_bits(a), f32::from_bits(b));
            assert_eq!(key(x).cmp(&key(y)), x.total_cmp(&y), "{a:#x} vs {b:#x}");
        }
    }
}

#[test]
fn tiled_kernels_match_the_per_column_reference() {
    for n in (1..=17).chain([51]) {
        for width in WIDTHS {
            for start in [0, 3] {
                check(0xD1CE + n as u64, n, width, start);
            }
        }
    }
}

#[test]
fn all_negative_zero_column_keeps_the_sum_identity() {
    let xs = vec![vec![-0.0f32; TILE + 1]; 5];
    let views: Vec<&[f32]> = xs.iter().map(Vec::as_slice).collect();
    let mut out = vec![1.0f32; TILE + 1];
    trimmed_mean_into(&views, 1, &mut out);
    assert!(out.iter().all(|o| o.to_bits() == (-0.0f32).to_bits()));
    meamed_into(&views, 3, &mut out);
    assert!(out.iter().all(|o| o.to_bits() == (-0.0f32).to_bits()));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every lane of a sorted tile is that column's `total_cmp` sort, for
    /// arbitrary bit patterns (every NaN payload included): no arithmetic
    /// touches the keys, so this is exact.
    #[test]
    fn sort_rows_sorts_every_lane_like_total_cmp(seed in any::<u64>(), n in 1usize..18, big in any::<bool>()) {
        let n = if big && n == 17 { 51 } else { n };
        let mut rng = TensorRng::new(seed);
        let columns: Vec<Vec<u32>> = (0..TILE)
            .map(|lane| {
                (0..n)
                    .map(|_| match lane % 3 {
                        0 => rng.next_u64() as u32,
                        1 => value(&mut rng).to_bits(),
                        _ => ADVERSARIAL[rng.below(4)], // zeros and tiny subnormals: ties
                    })
                    .collect()
            })
            .collect();
        let mut rows: Vec<KeyRow> = (0..n)
            .map(|r| std::array::from_fn(|lane| key(f32::from_bits(columns[lane][r]))))
            .collect();
        sort_rows(&mut rows);
        for (lane, column) in columns.iter().enumerate() {
            let mut want: Vec<f32> = column.iter().map(|&b| f32::from_bits(b)).collect();
            want.sort_unstable_by(f32::total_cmp);
            let got: Vec<f32> = rows.iter().map(|row| unkey(row[lane])).collect();
            assert_same(&got, &want, true, &format!("lane {lane} of n={n}"));
        }
    }

    #[test]
    fn tiled_kernels_match_the_reference_on_random_windows(
        seed in any::<u64>(),
        n in 1usize..18,
        width in 1usize..(3 * TILE + 6),
        start in 0usize..70,
        big in any::<bool>(),
    ) {
        let n = if big && n == 17 { 51 } else { n };
        check(seed, n, width, start);
    }
}
