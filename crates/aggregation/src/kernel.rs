//! Pure slice-level aggregation kernels, serial and parallel.
//!
//! Every GAR in this crate is split into two layers:
//!
//! * a **kernel** here — a pure function over `&[&[f32]]` input views and a
//!   preallocated output slice, with no knowledge of [`tensor::Tensor`],
//!   shapes or validation;
//! * a thin [`crate::Gar`] shim that validates inputs, borrows their
//!   buffers and calls the kernel.
//!
//! # Parallelism and the determinism contract
//!
//! With the `parallel` cargo feature, each kernel can run chunked across
//! threads ([`Exec::Parallel`]). The protocol's correctness argument
//! requires every honest node to compute **identical** aggregates from
//! identical input multisets, so the parallel path is constructed to be
//! **bit-identical** to the serial one:
//!
//! * coordinate-wise rules (median, trimmed mean, MeaMed, Bulyan's fold,
//!   averaging) partition the *output coordinate range* into chunks; the
//!   per-coordinate computation is a pure function, so the partition cannot
//!   change any output bit (the order-statistic rules sort [`TILE`]
//!   coordinates at once, see [`sorted_tiles`], and a chunk is a whole
//!   number of tiles, but every lane of a tile is still its own column);
//! * the Krum-family pairwise-distance matrix partitions the *pair list*;
//!   each distance is a pure function of its two input vectors, computed
//!   with exactly the serial operation order.
//!
//! No floating-point reduction ever crosses a chunk boundary. The
//! `kernel_parity` property tests assert bit-equality between the two paths
//! on random and adversarial inputs.

use crate::ScoreMetric;

/// Chunks smaller than this run serially even under [`Exec::Parallel`]
/// (thread spawn overhead dominates below it). Changing the threshold can
/// never change results — only where the work runs.
#[cfg(feature = "parallel")]
const MIN_PARALLEL_WORK: usize = 1 << 14;

/// Execution policy for a kernel invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exec {
    /// Single-threaded reference path.
    Serial,
    /// Chunked multi-threaded path; outputs are bit-identical to
    /// [`Exec::Serial`].
    #[cfg(feature = "parallel")]
    Parallel,
}

impl Exec {
    /// The policy the [`crate::Gar`] shims use: parallel when the feature is
    /// compiled in, serial otherwise.
    pub fn auto() -> Exec {
        #[cfg(feature = "parallel")]
        {
            Exec::Parallel
        }
        #[cfg(not(feature = "parallel"))]
        {
            Exec::Serial
        }
    }
}

/// Worker threads for [`Exec::Parallel`]: the `GUANYU_KERNEL_THREADS`
/// environment variable when set (useful for benches and for exercising the
/// chunked path on single-core machines), otherwise the host parallelism.
#[cfg(feature = "parallel")]
fn worker_count() -> usize {
    if let Some(n) = std::env::var("GUANYU_KERNEL_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
    {
        return n.max(1);
    }
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Runs `fill(offset, chunk)` over disjoint chunks of `out`.
///
/// `fill` must compute each output coordinate independently (pure per
/// coordinate); under that contract the chunking is unobservable. A
/// parallel chunk is a whole number of [`TILE`]s, so only the last tile of
/// the last chunk is ragged. `weight` is the approximate work per output
/// coordinate (used only to decide whether threads are worth spawning).
fn fill_chunked<F>(exec: Exec, out: &mut [f32], weight: usize, fill: F)
where
    F: Fn(usize, &mut [f32]) + Sync,
{
    match exec {
        Exec::Serial => fill(0, out),
        #[cfg(feature = "parallel")]
        Exec::Parallel => {
            let threads = worker_count();
            if threads <= 1 || out.len().saturating_mul(weight.max(1)) < MIN_PARALLEL_WORK {
                fill(0, out);
                return;
            }
            let chunk = out.len().div_ceil(threads).next_multiple_of(TILE);
            std::thread::scope(|scope| {
                for (t, piece) in out.chunks_mut(chunk).enumerate() {
                    let fill = &fill;
                    scope.spawn(move || fill(t * chunk, piece));
                }
            });
        }
    }
    #[cfg(not(feature = "parallel"))]
    let _ = weight;
}

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

fn pair_value(a: &[f32], b: &[f32], metric: ScoreMetric) -> f64 {
    let d = f64::from(distance(a, b));
    match metric {
        ScoreMetric::SquaredEuclidean => d * d,
        ScoreMetric::Euclidean => d,
    }
}

/// The dense `n × n` matrix of pairwise Krum distances (zero diagonal,
/// symmetric). This is the Θ(n²·d) term that dominates Krum-family cost;
/// under [`Exec::Parallel`] the pair list is partitioned across threads,
/// each pair computed exactly as in the serial path.
pub fn pairwise_distances(exec: Exec, inputs: &[&[f32]], metric: ScoreMetric) -> Vec<f64> {
    let n = inputs.len();
    let d = inputs.first().map_or(0, |v| v.len());
    let mut dist = vec![0.0f64; n * n];
    let pairs: Vec<(usize, usize)> = (0..n)
        .flat_map(|i| ((i + 1)..n).map(move |j| (i, j)))
        .collect();
    let values: Vec<f64> = match exec {
        Exec::Serial => pairs
            .iter()
            .map(|&(i, j)| pair_value(inputs[i], inputs[j], metric))
            .collect(),
        #[cfg(feature = "parallel")]
        Exec::Parallel => {
            let threads = worker_count();
            if threads <= 1 || pairs.len().saturating_mul(d.max(1)) < MIN_PARALLEL_WORK {
                pairs
                    .iter()
                    .map(|&(i, j)| pair_value(inputs[i], inputs[j], metric))
                    .collect()
            } else {
                let chunk = pairs.len().div_ceil(threads);
                let mut values = Vec::with_capacity(pairs.len());
                std::thread::scope(|scope| {
                    let handles: Vec<_> = pairs
                        .chunks(chunk)
                        .map(|piece| {
                            scope.spawn(move || {
                                piece
                                    .iter()
                                    .map(|&(i, j)| pair_value(inputs[i], inputs[j], metric))
                                    .collect::<Vec<f64>>()
                            })
                        })
                        .collect();
                    for h in handles {
                        values.extend(h.join().expect("distance worker panicked"));
                    }
                });
                values
            }
        }
    };
    let _ = d;
    for (&(i, j), v) in pairs.iter().zip(values) {
        dist[i * n + j] = v;
        dist[j * n + i] = v;
    }
    dist
}

/// [`pairwise_distances`] restricted to the coordinate window `range` of
/// every input — the per-shard distance matrix of the blockwise Krum-family
/// rules (see [`crate::blockwise`]). Each distance runs the exact serial
/// operation chain on the subslices, so for
/// [`ScoreMetric::SquaredEuclidean`] the per-range matrices of a tiling sum
/// to the full matrix exactly up to the f64→f32→f64 rounding of the shared
/// `distance` chain.
pub fn pairwise_distances_range(
    exec: Exec,
    inputs: &[&[f32]],
    range: std::ops::Range<usize>,
    metric: ScoreMetric,
) -> Vec<f64> {
    let windows: Vec<&[f32]> = inputs.iter().map(|v| &v[range.clone()]).collect();
    pairwise_distances(exec, &windows, metric)
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

/// The one primitive under the order-statistic rules: walks the window
/// `start .. start + out.len()` of the inputs a tile at a time, loads the
/// tile as one key row per input, sorts the rows against each other and
/// hands `emit` the sorted rows plus the output tile to fill (row `r`,
/// lane `l` is the `r`-th order statistic of coordinate `l` of the tile;
/// lanes past a ragged last tile hold stale keys and are not read back).
fn sorted_tiles<F>(exec: Exec, inputs: &[&[f32]], start: usize, out: &mut [f32], emit: F)
where
    F: Fn(&[KeyRow], &mut [f32]) + Sync,
{
    let n = inputs.len();
    fill_chunked(exec, out, n, |offset, chunk| {
        let mut rows = vec![[0i32; TILE]; n];
        for (t, tile) in chunk.chunks_mut(TILE).enumerate() {
            let at = start + offset + t * TILE;
            for (row, input) in rows.iter_mut().zip(inputs) {
                for (k, &x) in row.iter_mut().zip(&input[at..at + tile.len()]) {
                    *k = key(x);
                }
            }
            sort_rows(&mut rows);
            emit(&rows, tile);
        }
    });
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
pub fn average_into(exec: Exec, inputs: &[&[f32]], out: &mut [f32]) {
    average_range_into(exec, inputs, 0, out);
}

/// [`average_into`] over the coordinate window `start .. start + out.len()`
/// of the inputs: the blockwise form a shard group runs on its range of the
/// full vectors (DESIGN.md §9). Per coordinate it is the *same* operation
/// chain as the full kernel, so `average_range_into` over any tiling is
/// bit-identical to one full `average_into`.
pub fn average_range_into(exec: Exec, inputs: &[&[f32]], start: usize, out: &mut [f32]) {
    let n = inputs.len();
    let inv = 1.0 / n as f32;
    fill_chunked(exec, out, n, |offset, chunk| {
        for (c, o) in chunk.iter_mut().enumerate() {
            let i = start + offset + c;
            let mut acc = inputs[0][i];
            for input in &inputs[1..] {
                acc += input[i];
            }
            *o = acc * inv;
        }
    });
}

/// Coordinate-wise median (`M` in the paper).
pub fn median_into(exec: Exec, inputs: &[&[f32]], out: &mut [f32]) {
    median_range_into(exec, inputs, 0, out);
}

/// [`median_into`] over the window `start .. start + out.len()` (blockwise
/// form; bit-identical per coordinate to the full kernel).
pub fn median_range_into(exec: Exec, inputs: &[&[f32]], start: usize, out: &mut [f32]) {
    sorted_tiles(exec, inputs, start, out, |rows, tile| {
        for (lane, o) in tile.iter_mut().enumerate() {
            *o = sorted_median(|r| unkey(rows[r][lane]), rows.len());
        }
    });
}

/// Coordinate-wise `trim`-trimmed mean: drop the `trim` smallest and
/// largest values per coordinate, average the rest.
pub fn trimmed_mean_into(exec: Exec, inputs: &[&[f32]], trim: usize, out: &mut [f32]) {
    trimmed_mean_range_into(exec, inputs, trim, 0, out);
}

/// [`trimmed_mean_into`] over the window `start .. start + out.len()`
/// (blockwise form; bit-identical per coordinate to the full kernel).
pub fn trimmed_mean_range_into(
    exec: Exec,
    inputs: &[&[f32]],
    trim: usize,
    start: usize,
    out: &mut [f32],
) {
    let keep = inputs.len() - 2 * trim;
    sorted_tiles(exec, inputs, start, out, |rows, tile| {
        let kept = &rows[trim..trim + keep];
        for (lane, o) in tile.iter_mut().enumerate() {
            *o = kept.iter().map(|row| unkey(row[lane])).sum::<f32>() / keep as f32;
        }
    });
}

/// Coordinate-wise mean-around-the-median: average the `keep` values
/// closest to each coordinate's median.
pub fn meamed_into(exec: Exec, inputs: &[&[f32]], keep: usize, out: &mut [f32]) {
    meamed_range_into(exec, inputs, keep, 0, out);
}

/// [`meamed_into`] over the window `start .. start + out.len()` (blockwise
/// form; bit-identical per coordinate to the full kernel).
pub fn meamed_range_into(
    exec: Exec,
    inputs: &[&[f32]],
    keep: usize,
    start: usize,
    out: &mut [f32],
) {
    let n = inputs.len();
    sorted_tiles(exec, inputs, start, out, |rows, tile| {
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
pub fn bulyan_fold_into(exec: Exec, inputs: &[&[f32]], beta: usize, out: &mut [f32]) {
    meamed_into(exec, inputs, beta, out);
}

/// [`bulyan_fold_into`] over the window `start .. start + out.len()`
/// (blockwise form; bit-identical per coordinate to the full kernel).
pub fn bulyan_fold_range_into(
    exec: Exec,
    inputs: &[&[f32]],
    beta: usize,
    start: usize,
    out: &mut [f32],
) {
    meamed_range_into(exec, inputs, beta, start, out);
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
        let dist = pairwise_distances(Exec::Serial, &views, ScoreMetric::Euclidean);
        assert_eq!(dist, vec![0.0, 5.0, 5.0, 0.0]);
        let sq = pairwise_distances(Exec::Serial, &views, ScoreMetric::SquaredEuclidean);
        assert_eq!(sq[1], 25.0);
    }

    #[test]
    fn krum_scores_masked_matches_submatrix() {
        // Distances for 4 points on a line at 0, 1, 2, 10.
        let pts: Vec<Vec<f32>> = [0.0f32, 1.0, 2.0, 10.0].iter().map(|&v| vec![v]).collect();
        let views: Vec<&[f32]> = pts.iter().map(|p| p.as_slice()).collect();
        let dist = pairwise_distances(Exec::Serial, &views, ScoreMetric::SquaredEuclidean);
        // Mask out index 3 and compare against a fresh 3-point matrix.
        let masked = krum_scores_masked(&dist, 4, &[0, 1, 2], 1);
        let sub: Vec<&[f32]> = views[..3].to_vec();
        let sub_dist = pairwise_distances(Exec::Serial, &sub, ScoreMetric::SquaredEuclidean);
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
        median_into(Exec::Serial, &views, &mut out);
        assert_eq!(out, vec![2.0, 20.0]);
    }

    #[test]
    fn average_kernel_matches_sequential_fold() {
        let data: Vec<Vec<f32>> = rows(&[&[1.0, 2.0], &[3.0, 6.0]]);
        let views: Vec<&[f32]> = data.iter().map(|r| r.as_slice()).collect();
        let mut out = vec![0.0f32; 2];
        average_into(Exec::Serial, &views, &mut out);
        assert_eq!(out, vec![2.0, 4.0]);
    }

    #[test]
    fn range_kernels_tile_to_the_full_kernels() {
        // Any tiling of the coordinate space through the *_range_into forms
        // reproduces the full kernel bit-for-bit — the identity the sharded
        // gradient plane rests on.
        let d = 257; // odd, prime-ish: exercises uneven tails
        let mut state = 0x51ED_BEEFu64;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as f32 / (1u32 << 30) as f32) - 1.5
        };
        let data: Vec<Vec<f32>> = (0..7).map(|_| (0..d).map(|_| next()).collect()).collect();
        let views: Vec<&[f32]> = data.iter().map(|r| r.as_slice()).collect();
        let bounds = [0usize, 1, 100, 101, 200, 257];

        type RangeKernel = fn(Exec, &[&[f32]], usize, &mut [f32]);
        let kernels: Vec<(&str, RangeKernel)> = vec![
            ("average", average_range_into),
            ("median", median_range_into),
            ("trimmed", |e, v, s, o| {
                trimmed_mean_range_into(e, v, 1, s, o)
            }),
            ("meamed", |e, v, s, o| meamed_range_into(e, v, 5, s, o)),
            ("bulyan_fold", |e, v, s, o| {
                bulyan_fold_range_into(e, v, 3, s, o)
            }),
        ];
        for (name, kernel) in kernels {
            let mut full = vec![0.0f32; d];
            kernel(Exec::auto(), &views, 0, &mut full);
            let mut tiled = vec![0.0f32; d];
            for w in bounds.windows(2) {
                kernel(Exec::auto(), &views, w[0], &mut tiled[w[0]..w[1]]);
            }
            assert_eq!(tiled, full, "{name}: tiling changed bits");
        }
    }

    #[test]
    fn range_distance_matrix_matches_subslices() {
        let data: Vec<Vec<f32>> = rows(&[&[1.0, 5.0, 9.0], &[2.0, 5.0, 1.0], &[0.0, 0.0, 0.0]]);
        let views: Vec<&[f32]> = data.iter().map(|r| r.as_slice()).collect();
        let ranged =
            pairwise_distances_range(Exec::Serial, &views, 1..3, ScoreMetric::SquaredEuclidean);
        let sliced: Vec<Vec<f32>> = data.iter().map(|r| r[1..3].to_vec()).collect();
        let sliced_views: Vec<&[f32]> = sliced.iter().map(|r| r.as_slice()).collect();
        let direct = pairwise_distances(Exec::Serial, &sliced_views, ScoreMetric::SquaredEuclidean);
        assert_eq!(ranged, direct);
    }

    #[cfg(feature = "parallel")]
    #[test]
    fn parallel_paths_bit_identical_smoke() {
        // Large enough to actually cross the parallel threshold.
        let d = 40_000;
        let mut state = 0x1234_5678u64;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as f32 / (1u32 << 30) as f32) - 1.5
        };
        let data: Vec<Vec<f32>> = (0..9).map(|_| (0..d).map(|_| next()).collect()).collect();
        let views: Vec<&[f32]> = data.iter().map(|r| r.as_slice()).collect();

        let ds = pairwise_distances(Exec::Serial, &views, ScoreMetric::SquaredEuclidean);
        let dp = pairwise_distances(Exec::Parallel, &views, ScoreMetric::SquaredEuclidean);
        assert_eq!(ds, dp);

        let mut serial = vec![0.0f32; d];
        let mut parallel = vec![0.0f32; d];
        median_into(Exec::Serial, &views, &mut serial);
        median_into(Exec::Parallel, &views, &mut parallel);
        assert_eq!(serial, parallel);
        trimmed_mean_into(Exec::Serial, &views, 2, &mut serial);
        trimmed_mean_into(Exec::Parallel, &views, 2, &mut parallel);
        assert_eq!(serial, parallel);
        meamed_into(Exec::Serial, &views, 7, &mut serial);
        meamed_into(Exec::Parallel, &views, 7, &mut parallel);
        assert_eq!(serial, parallel);
        average_into(Exec::Serial, &views, &mut serial);
        average_into(Exec::Parallel, &views, &mut parallel);
        assert_eq!(serial, parallel);
    }
}
