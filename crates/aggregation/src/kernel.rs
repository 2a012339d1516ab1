//! Pure slice-level aggregation kernels.
//!
//! Every GAR in this crate is split into two layers:
//!
//! * a **kernel** here — a pure function over `&[&[f32]]` input views and a
//!   preallocated output slice, with no knowledge of [`tensor::Tensor`],
//!   shapes or validation;
//! * a thin [`crate::Gar`] shim that validates inputs, borrows their
//!   buffers and calls the kernel.
//!
//! # The determinism contract
//!
//! The protocol's correctness argument requires every honest node to
//! compute **identical** aggregates from identical input multisets, so each
//! rule has exactly one code path, and it is a pure function per output:
//!
//! * the coordinate-wise rules (median, trimmed mean, MeaMed, Bulyan's
//!   fold, averaging) compute every output coordinate from that coordinate
//!   of the inputs alone, so they commute with slicing: folding a slice of
//!   every input is the same bits as slicing the fold — the identity the
//!   sharded gradient plane rests on (`kernels_commute_with_slicing`). The
//!   order-statistic rules sort `TILE` coordinates at once, see
//!   `sorted_tiles`, but every lane of a tile is still its own column;
//! * each entry of the Krum-family pairwise-distance matrix is a pure
//!   function of its two input vectors, one `f64` chain in coordinate
//!   order.

/// Euclidean distance between two equal-length views, with the same
/// operation chain as `Tensor::distance` (f64 accumulation, f32 root).
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

/// The Krum pair value: the *squared* Euclidean distance of the original
/// Krum definition (Blanchard et al., NeurIPS 2017), taken as [`distance`]
/// rounded to `f32`, widened and squared. The root and the `f32` rounding
/// are not redundant: that chain is in every trace fingerprint.
fn pair_value(a: &[f32], b: &[f32]) -> f64 {
    let d = f64::from(distance(a, b));
    d * d
}

/// The dense `n × n` matrix of pairwise Krum distances (zero diagonal,
/// symmetric). This is the Θ(n²·d) term that dominates Krum-family cost.
pub fn pairwise_distances(inputs: &[&[f32]]) -> Vec<f64> {
    let n = inputs.len();
    let mut dist = vec![0.0f64; n * n];
    for i in 0..n {
        for j in (i + 1)..n {
            let v = pair_value(inputs[i], inputs[j]);
            dist[i * n + j] = v;
            dist[j * n + i] = v;
        }
    }
    dist
}

/// Krum scores from a full distance matrix: the score of input `i` is the
/// sum of its `k` smallest distances to *other* inputs.
pub fn krum_scores(dist: &[f64], n: usize, k: usize) -> Vec<f32> {
    let all: Vec<usize> = (0..n).collect();
    krum_scores_masked(dist, n, &all, k)
}

/// Krum scores restricted to the `active` subset of an `n × n` distance
/// matrix (Bulyan's iterated selection masks out already-selected inputs
/// instead of recomputing the matrix). Returned scores align with `active`.
pub fn krum_scores_masked(dist: &[f64], n: usize, active: &[usize], k: usize) -> Vec<f32> {
    let mut scores = Vec::with_capacity(active.len());
    let mut row = Vec::with_capacity(active.len().saturating_sub(1));
    for &i in active {
        row.clear();
        for &j in active {
            if j != i {
                row.push(dist[i * n + j]);
            }
        }
        row.sort_unstable_by(f64::total_cmp);
        scores.push(row.iter().take(k).sum::<f64>() as f32);
    }
    scores
}

/// Indices of the `m` smallest scores (ties broken by index). Total order
/// via [`f32::total_cmp`]: extreme or non-finite scores reorder, never
/// panic.
pub fn select_smallest(scores: &[f32], m: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..scores.len()).collect();
    idx.sort_by(|&a, &b| scores[a].total_cmp(&scores[b]).then(a.cmp(&b)));
    idx.truncate(m);
    idx
}

/// Coordinates sorted at once by [`sorted_tiles`]. A key row is 256 bytes
/// (sixteen 128-bit vectors per exchange side) and the paper's n = 51 rows
/// stay in L1. Measured against 32 (a third slower per coordinate at n = 3)
/// and 128 (no faster anywhere, twice the scratch).
const TILE: usize = 64;

/// One tile row: [`TILE`] consecutive coordinates of one input, as keys.
type KeyRow = [i32; TILE];

/// The monotone bit map of [`f32::total_cmp`]: signed integer order on the
/// keys is `total_cmp` order on the floats (`-0.0 < +0.0`, NaNs outermost
/// by sign and payload). It flips the low 31 bits of negative patterns and
/// keeps the sign bit, so it is its own inverse and equal keys are equal
/// bit patterns.
#[inline]
fn flip(bits: i32) -> i32 {
    bits ^ (((bits >> 31) as u32) >> 1) as i32
}

#[inline]
fn key(x: f32) -> i32 {
    flip(x.to_bits() as i32)
}

#[inline]
fn unkey(k: i32) -> f32 {
    f32::from_bits(flip(k) as u32)
}

/// Sorts every lane's column (lane `l` of all rows) ascending, all lanes at
/// once, by odd–even transposition: `n` rounds of lane-wise `min`/`max`
/// between neighbouring rows. The exchanges do not depend on the data, so
/// there is no branch to mispredict and each one vectorises. A correct
/// network leaves each column as *the* sorted sequence of its keys, which
/// is unique, so the result is the one a comparison sort by `total_cmp`
/// produces, bit for bit.
fn sort_rows(rows: &mut [KeyRow]) {
    for round in 0..rows.len() {
        for pair in rows[round % 2..].chunks_exact_mut(2) {
            let (a, b) = pair.split_at_mut(1);
            for (x, y) in a[0].iter_mut().zip(&mut b[0]) {
                (*x, *y) = ((*x).min(*y), (*x).max(*y));
            }
        }
    }
}

/// The one primitive under the order-statistic rules: walks the inputs a
/// tile at a time, loads the tile as one key row per input, sorts the rows
/// against each other and hands `emit` the sorted rows plus the output tile
/// to fill (row `r`, lane `l` is the `r`-th order statistic of coordinate
/// `l` of the tile; lanes past a ragged last tile hold stale keys and are
/// not read back).
fn sorted_tiles<F>(inputs: &[&[f32]], out: &mut [f32], emit: F)
where
    F: Fn(&[KeyRow], &mut [f32]),
{
    let mut rows = vec![[0i32; TILE]; inputs.len()];
    for (t, tile) in out.chunks_mut(TILE).enumerate() {
        let at = t * TILE;
        for (row, input) in rows.iter_mut().zip(inputs) {
            for (k, &x) in row.iter_mut().zip(&input[at..at + tile.len()]) {
                *k = key(x);
            }
        }
        sort_rows(&mut rows);
        emit(&rows, tile);
    }
}

/// Median of the sorted column `sorted(0) ..= sorted(n - 1)`: the middle
/// order statistic for odd counts, the mean of the two middle ones for
/// even counts.
#[inline]
fn sorted_median(sorted: impl Fn(usize) -> f32, n: usize) -> f32 {
    if n % 2 == 1 {
        sorted(n / 2)
    } else {
        0.5 * (sorted(n / 2 - 1) + sorted(n / 2))
    }
}

/// Start of the length-`keep` window of a sorted column of `n` values
/// closest to `center` (the windows are contiguous in sorted order; first
/// minimal window wins).
fn closest_window(sorted: impl Fn(usize) -> f32, n: usize, keep: usize, center: f32) -> usize {
    let mut best_start = 0usize;
    let mut best_spread = f32::INFINITY;
    for start in 0..=(n - keep) {
        let spread = (sorted(start + keep - 1) - center)
            .abs()
            .max((sorted(start) - center).abs());
        if spread < best_spread {
            best_spread = spread;
            best_start = start;
        }
    }
    best_start
}

/// Coordinate-wise arithmetic mean (the vulnerable baseline, and the fold
/// applied to Multi-Krum's selection set). Summation order is input order,
/// matching a sequential `add_assign` fold.
pub fn average_into(inputs: &[&[f32]], out: &mut [f32]) {
    let inv = 1.0 / inputs.len() as f32;
    for (i, o) in out.iter_mut().enumerate() {
        let mut acc = inputs[0][i];
        for input in &inputs[1..] {
            acc += input[i];
        }
        *o = acc * inv;
    }
}

/// Coordinate-wise median (`M` in the paper).
pub fn median_into(inputs: &[&[f32]], out: &mut [f32]) {
    sorted_tiles(inputs, out, |rows, tile| {
        for (lane, o) in tile.iter_mut().enumerate() {
            *o = sorted_median(|r| unkey(rows[r][lane]), rows.len());
        }
    });
}

/// Coordinate-wise `trim`-trimmed mean: drop the `trim` smallest and
/// largest values per coordinate, average the rest.
pub fn trimmed_mean_into(inputs: &[&[f32]], trim: usize, out: &mut [f32]) {
    let keep = inputs.len() - 2 * trim;
    sorted_tiles(inputs, out, |rows, tile| {
        let kept = &rows[trim..trim + keep];
        for (lane, o) in tile.iter_mut().enumerate() {
            *o = kept.iter().map(|row| unkey(row[lane])).sum::<f32>() / keep as f32;
        }
    });
}

/// Coordinate-wise mean-around-the-median: average the `keep` values
/// closest to each coordinate's median.
pub fn meamed_into(inputs: &[&[f32]], keep: usize, out: &mut [f32]) {
    let n = inputs.len();
    sorted_tiles(inputs, out, |rows, tile| {
        for (lane, o) in tile.iter_mut().enumerate() {
            let sorted = |r: usize| unkey(rows[r][lane]);
            let win = closest_window(sorted, n, keep, sorted_median(sorted, n));
            *o = (win..win + keep).map(sorted).sum::<f32>() / keep as f32;
        }
    });
}

/// Bulyan's fold over an already-selected set: per coordinate, average the
/// `beta` values closest to the selection's median. This *is*
/// [`meamed_into`] (the two rules differ in the input set they draw their
/// windows from, not in the fold); the name stays for the callers.
pub fn bulyan_fold_into(inputs: &[&[f32]], beta: usize, out: &mut [f32]) {
    meamed_into(inputs, beta, out);
}

/// Borrows the flat buffer of every tensor (the Gar-shim → kernel bridge).
pub fn views(inputs: &[tensor::Tensor]) -> Vec<&[f32]> {
    inputs.iter().map(tensor::Tensor::as_slice).collect()
}

#[cfg(test)]
mod tiled_parity;

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(data: &[&[f32]]) -> Vec<Vec<f32>> {
        data.iter().map(|r| r.to_vec()).collect()
    }

    #[test]
    fn pairwise_distance_matches_tensor_distance() {
        let a = [3.0f32, 0.0];
        let b = [0.0f32, 4.0];
        let views: Vec<&[f32]> = vec![&a, &b];
        assert_eq!(distance(&a, &b), 5.0);
        assert_eq!(pairwise_distances(&views), vec![0.0, 25.0, 25.0, 0.0]);
    }

    #[test]
    fn krum_scores_masked_matches_submatrix() {
        // Distances for 4 points on a line at 0, 1, 2, 10.
        let pts: Vec<Vec<f32>> = [0.0f32, 1.0, 2.0, 10.0].iter().map(|&v| vec![v]).collect();
        let views: Vec<&[f32]> = pts.iter().map(|p| p.as_slice()).collect();
        let dist = pairwise_distances(&views);
        // Mask out index 3 and compare against a fresh 3-point matrix.
        let masked = krum_scores_masked(&dist, 4, &[0, 1, 2], 1);
        let sub: Vec<&[f32]> = views[..3].to_vec();
        let sub_dist = pairwise_distances(&sub);
        let direct = krum_scores(&sub_dist, 3, 1);
        assert_eq!(masked, direct);
    }

    #[test]
    fn select_smallest_total_order_never_panics() {
        // NaN / infinity order deterministically instead of panicking.
        let scores = [f32::NAN, 1.0, f32::INFINITY, -1.0, f32::NEG_INFINITY];
        assert_eq!(select_smallest(&scores, 2), vec![4, 3]);
        assert_eq!(select_smallest(&[1.0, 1.0, 0.5], 2), vec![2, 0]);
    }

    #[test]
    fn median_kernel_basic() {
        let data: Vec<Vec<f32>> = rows(&[&[1.0, 30.0], &[2.0, 10.0], &[3.0, 20.0]]);
        let views: Vec<&[f32]> = data.iter().map(|r| r.as_slice()).collect();
        let mut out = vec![0.0f32; 2];
        median_into(&views, &mut out);
        assert_eq!(out, vec![2.0, 20.0]);
    }

    #[test]
    fn average_kernel_matches_sequential_fold() {
        let data: Vec<Vec<f32>> = rows(&[&[1.0, 2.0], &[3.0, 6.0]]);
        let views: Vec<&[f32]> = data.iter().map(|r| r.as_slice()).collect();
        let mut out = vec![0.0f32; 2];
        average_into(&views, &mut out);
        assert_eq!(out, vec![2.0, 4.0]);
    }

    #[test]
    fn kernels_commute_with_slicing() {
        // Fold-then-slice == slice-then-fold, bit for bit: a shard group's
        // server folds its own slices from offset 0 and the gathered result
        // is the full fold — the identity the sharded gradient plane rests
        // on. Widths: a multiple of the tile, a ragged tail, and one where
        // every eighth is narrower than a tile.
        type Kernel = fn(&[&[f32]], &mut [f32]);
        let kernels: [(&str, Kernel); 4] = [
            ("average", average_into),
            ("median", median_into),
            ("trimmed-mean", |v, o| trimmed_mean_into(v, 2, o)),
            ("meamed", |v, o| meamed_into(v, 5, o)),
        ];
        let mut rng = tensor::TensorRng::new(0x51ED_BEEF);
        for n in [7usize, 10] {
            for d in [16 * TILE, 9001, 257] {
                let data: Vec<Vec<f32>> = (0..n)
                    .map(|_| (0..d).map(|_| rng.uniform(-1.5, 1.5)).collect())
                    .collect();
                let views: Vec<&[f32]> = data.iter().map(Vec::as_slice).collect();
                for (name, kernel) in kernels {
                    let mut full = vec![0.0f32; d];
                    kernel(&views, &mut full);
                    for k in [2usize, 4, 8] {
                        let width = d.div_ceil(k);
                        let mut gathered = vec![0.0f32; d];
                        for (g, part) in gathered.chunks_mut(width).enumerate() {
                            let at = g * width;
                            let slices: Vec<&[f32]> =
                                views.iter().map(|v| &v[at..at + part.len()]).collect();
                            kernel(&slices, part);
                        }
                        let same = gathered
                            .iter()
                            .zip(&full)
                            .all(|(g, f)| g.to_bits() == f.to_bits());
                        assert!(same, "{name}: n={n} d={d} over {k} slices changed bits");
                    }
                }
            }
        }
    }
}
