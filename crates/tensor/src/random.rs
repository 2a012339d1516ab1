//! Seeded random tensor generation.
//!
//! All stochasticity in the reproduction flows through [`TensorRng`], a thin
//! wrapper over an in-crate ChaCha8 block cipher keyed by an explicit `u64`
//! seed (the workspace has no registry dependencies, so the usual
//! `rand_chacha` is replaced by the ChaCha core below). Every `repro` table
//! and every `perf` workload takes a seed, so every result is bit-for-bit
//! reproducible.

use crate::Tensor;

/// Normals drawn per pass of [`TensorRng::normal_tensor`]: the uniform
/// pairs of a chunk are drawn first, then Box–Muller runs over the whole
/// chunk, so the cipher and the `ln` / `sqrt` / `cos` calls each get a loop
/// of their own.
const NORMAL_CHUNK: usize = 64;

/// One round of splitmix64 — used only to expand the `u64` seed into a
/// 256-bit ChaCha key.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The cosine half of Box–Muller over the uniforms `(u1, u2)`, scaled to
/// N(`mean`, `std`²).
#[inline(always)]
fn box_muller(u1: f64, u2: f64, mean: f32, std: f32) -> f32 {
    let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    mean + std * z as f32
}

/// ChaCha with 8 rounds: the statistically-strong, fast PRNG core.
#[derive(Debug, Clone)]
struct ChaCha8 {
    key: [u32; 8],
    /// Stream id (the ChaCha nonce): distinct streams under one key are
    /// independent, which is what [`TensorRng::fork`] relies on.
    stream: u64,
    counter: u64,
    block: [u32; 16],
    /// Next unread word in `block`; 16 = exhausted.
    idx: usize,
}

impl ChaCha8 {
    fn new(seed: u64) -> Self {
        let mut s = seed;
        let mut key = [0u32; 8];
        for i in 0..4 {
            let x = splitmix64(&mut s);
            key[2 * i] = x as u32;
            key[2 * i + 1] = (x >> 32) as u32;
        }
        ChaCha8 {
            key,
            stream: 0,
            counter: 0,
            block: [0; 16],
            idx: 16,
        }
    }

    fn set_stream(&mut self, stream: u64) {
        self.stream = stream;
        self.counter = 0;
        self.idx = 16;
    }

    #[inline(always)]
    fn quarter_round(mut a: u32, mut b: u32, mut c: u32, mut d: u32) -> (u32, u32, u32, u32) {
        a = a.wrapping_add(b);
        d = (d ^ a).rotate_left(16);
        c = c.wrapping_add(d);
        b = (b ^ c).rotate_left(12);
        a = a.wrapping_add(b);
        d = (d ^ a).rotate_left(8);
        c = c.wrapping_add(d);
        b = (b ^ c).rotate_left(7);
        (a, b, c, d)
    }

    fn refill(&mut self) {
        let state: [u32; 16] = [
            0x6170_7865,
            0x3320_646E,
            0x7962_2D32,
            0x6B20_6574,
            self.key[0],
            self.key[1],
            self.key[2],
            self.key[3],
            self.key[4],
            self.key[5],
            self.key[6],
            self.key[7],
            self.counter as u32,
            (self.counter >> 32) as u32,
            self.stream as u32,
            (self.stream >> 32) as u32,
        ];
        // Sixteen locals rather than an indexed array: the whole state stays
        // in registers through the eight double rounds.
        let [mut x0, mut x1, mut x2, mut x3, mut x4, mut x5, mut x6, mut x7, mut x8, mut x9, mut x10, mut x11, mut x12, mut x13, mut x14, mut x15] =
            state;
        for _ in 0..4 {
            // Column round.
            (x0, x4, x8, x12) = Self::quarter_round(x0, x4, x8, x12);
            (x1, x5, x9, x13) = Self::quarter_round(x1, x5, x9, x13);
            (x2, x6, x10, x14) = Self::quarter_round(x2, x6, x10, x14);
            (x3, x7, x11, x15) = Self::quarter_round(x3, x7, x11, x15);
            // Diagonal round.
            (x0, x5, x10, x15) = Self::quarter_round(x0, x5, x10, x15);
            (x1, x6, x11, x12) = Self::quarter_round(x1, x6, x11, x12);
            (x2, x7, x8, x13) = Self::quarter_round(x2, x7, x8, x13);
            (x3, x4, x9, x14) = Self::quarter_round(x3, x4, x9, x14);
        }
        let mixed = [
            x0, x1, x2, x3, x4, x5, x6, x7, x8, x9, x10, x11, x12, x13, x14, x15,
        ];
        for (out, (&mixed, &initial)) in self.block.iter_mut().zip(mixed.iter().zip(state.iter())) {
            *out = mixed.wrapping_add(initial);
        }
        self.counter = self.counter.wrapping_add(1);
        self.idx = 0;
    }

    fn next_u32(&mut self) -> u32 {
        if self.idx == 16 {
            self.refill();
        }
        let v = self.block[self.idx];
        self.idx += 1;
        v
    }

    fn next_u64(&mut self) -> u64 {
        if self.idx < 15 {
            let lo = u64::from(self.block[self.idx]);
            let hi = u64::from(self.block[self.idx + 1]);
            self.idx += 2;
            return lo | (hi << 32);
        }
        let lo = u64::from(self.next_u32());
        let hi = u64::from(self.next_u32());
        lo | (hi << 32)
    }
}

/// A deterministic random source for tensors.
#[derive(Debug, Clone)]
pub struct TensorRng {
    rng: ChaCha8,
}

impl TensorRng {
    /// Creates a generator from a seed. Equal seeds yield equal streams.
    pub fn new(seed: u64) -> Self {
        TensorRng {
            rng: ChaCha8::new(seed),
        }
    }

    /// Derives an independent child generator. Used to give each node in a
    /// simulation its own stream so that adding a node does not perturb the
    /// draws of the others.
    pub fn fork(&mut self, stream: u64) -> Self {
        let seed = self.rng.next_u64() ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut child = ChaCha8::new(seed);
        child.set_stream(stream);
        TensorRng { rng: child }
    }

    /// A uniform draw in `[0, 1)` with 53 bits of precision.
    fn unit(&mut self) -> f64 {
        (self.rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform sample in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f32, hi: f32) -> f32 {
        let v = (f64::from(lo) + self.unit() * (f64::from(hi) - f64::from(lo))) as f32;
        // Guard the (rare) upward rounding onto the excluded bound.
        if v >= hi {
            lo
        } else {
            v
        }
    }

    /// A sample of N(`mean`, `std`²) by Box–Muller.
    pub fn normal(&mut self, mean: f32, std: f32) -> f32 {
        let (u1, u2) = self.box_muller_pair();
        box_muller(u1, u2, mean, std)
    }

    /// The two uniforms of one Box–Muller sample, `u1` kept off zero. One
    /// sample per pair (the `sin` half is never used) keeps the stream
    /// simple: every normal costs exactly four words.
    fn box_muller_pair(&mut self) -> (f64, f64) {
        let u1 = f64::EPSILON + self.unit() * (1.0 - f64::EPSILON);
        (u1, self.unit())
    }

    /// A uniform integer in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0) is an empty range");
        (self.rng.next_u64() % n as u64) as usize
    }

    /// A uniform `u64`.
    pub fn next_u64(&mut self) -> u64 {
        self.rng.next_u64()
    }

    /// A tensor with i.i.d. uniform entries in `[lo, hi)`.
    pub fn uniform_tensor(&mut self, dims: &[usize], lo: f32, hi: f32) -> Tensor {
        let mut t = Tensor::zeros(dims);
        for v in t.as_mut_slice() {
            *v = self.uniform(lo, hi);
        }
        t
    }

    /// A tensor with i.i.d. N(`mean`, `std`²) entries: bit for bit the
    /// values, and the stream position, of [`TensorRng::normal`] called
    /// once per entry in order.
    pub fn normal_tensor(&mut self, dims: &[usize], mean: f32, std: f32) -> Tensor {
        let mut t = Tensor::zeros(dims);
        let mut pairs = [(0.0, 0.0); NORMAL_CHUNK];
        for chunk in t.as_mut_slice().chunks_mut(NORMAL_CHUNK) {
            let pairs = &mut pairs[..chunk.len()];
            for pair in pairs.iter_mut() {
                *pair = self.box_muller_pair();
            }
            for (v, &(u1, u2)) in chunk.iter_mut().zip(pairs.iter()) {
                *v = box_muller(u1, u2, mean, std);
            }
        }
        t
    }

    /// Glorot/Xavier-uniform initialisation for a layer with the given fan-in
    /// and fan-out — the standard initialisation for the paper's CNN layers.
    pub fn glorot_uniform(&mut self, dims: &[usize], fan_in: usize, fan_out: usize) -> Tensor {
        let limit = (6.0 / (fan_in + fan_out) as f32).sqrt();
        self.uniform_tensor(dims, -limit, limit)
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i + 1);
            xs.swap(i, j);
        }
    }

    /// Samples `k` distinct indices from `[0, n)` (k ≤ n).
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        assert!(k <= n, "cannot sample {k} distinct indices from {n}");
        let mut idx: Vec<usize> = (0..n).collect();
        self.shuffle(&mut idx);
        idx.truncate(k);
        idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = TensorRng::new(42);
        let mut b = TensorRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = TensorRng::new(1);
        let mut b = TensorRng::new(2);
        let va: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn fork_is_deterministic_and_independent() {
        let mut a = TensorRng::new(7);
        let mut b = TensorRng::new(7);
        let mut fa = a.fork(3);
        let mut fb = b.fork(3);
        for _ in 0..32 {
            assert_eq!(fa.next_u64(), fb.next_u64());
        }
        // forks with different stream ids disagree
        let mut c = TensorRng::new(7);
        let mut fc = c.fork(4);
        let xs: Vec<u64> = (0..8).map(|_| fa.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| fc.next_u64()).collect();
        assert_ne!(xs, ys);
    }

    #[test]
    fn chacha_blocks_are_not_degenerate() {
        // Consecutive words of one stream must not repeat trivially, and
        // streams under the same key must diverge.
        let mut r = TensorRng::new(0);
        let words: Vec<u64> = (0..64).map(|_| r.next_u64()).collect();
        let distinct: std::collections::HashSet<_> = words.iter().collect();
        assert_eq!(distinct.len(), words.len());
    }

    #[test]
    fn uniform_within_bounds() {
        let mut r = TensorRng::new(0);
        for _ in 0..1000 {
            let x = r.uniform(-2.0, 3.0);
            assert!((-2.0..3.0).contains(&x));
        }
    }

    #[test]
    fn normal_moments_roughly_correct() {
        let mut r = TensorRng::new(123);
        let n = 20_000;
        let xs: Vec<f32> = (0..n).map(|_| r.normal(1.0, 2.0)).collect();
        let mean = xs.iter().sum::<f32>() / n as f32;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f32>() / n as f32;
        assert!((mean - 1.0).abs() < 0.05, "mean {mean}");
        assert!((var - 4.0).abs() < 0.2, "var {var}");
    }

    #[test]
    fn uniform_tensor_shape_and_bounds() {
        let mut r = TensorRng::new(5);
        let t = r.uniform_tensor(&[3, 4], 0.0, 1.0);
        assert_eq!(t.dims(), &[3, 4]);
        assert!(t.as_slice().iter().all(|&x| (0.0..1.0).contains(&x)));
    }

    #[test]
    fn glorot_limit_respected() {
        let mut r = TensorRng::new(5);
        let t = r.glorot_uniform(&[100, 100], 100, 100);
        let limit = (6.0f32 / 200.0).sqrt();
        assert!(t.as_slice().iter().all(|&x| x.abs() <= limit));
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = TensorRng::new(9);
        let mut xs: Vec<usize> = (0..50).collect();
        r.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn sample_indices_distinct() {
        let mut r = TensorRng::new(11);
        let idx = r.sample_indices(20, 10);
        assert_eq!(idx.len(), 10);
        let set: std::collections::HashSet<_> = idx.iter().collect();
        assert_eq!(set.len(), 10);
        assert!(idx.iter().all(|&i| i < 20));
    }

    #[test]
    #[should_panic(expected = "cannot sample")]
    fn sample_indices_rejects_oversample() {
        let mut r = TensorRng::new(11);
        let _ = r.sample_indices(3, 4);
    }

    /// A generator of `seed` with `words` 32-bit words already drawn.
    fn entered_at(seed: u64, words: usize) -> TensorRng {
        let mut r = TensorRng::new(seed);
        for _ in 0..words {
            r.rng.next_u32();
        }
        r
    }

    fn words(r: &mut TensorRng, n: usize) -> Vec<u64> {
        (0..n).map(|_| r.next_u64()).collect()
    }

    /// Known answers: every seed in the repository's goldens and attack
    /// fingerprints flows through these words.
    #[test]
    fn chacha_stream_matches_its_known_answers() {
        assert_eq!(
            words(&mut TensorRng::new(0), 8),
            [
                0xbf94_d133_2d8e_e5e8,
                0x3a73_8775_a6da_5a01,
                0x3d46_ff10_c143_ee06,
                0x17c6_ab23_e9f6_424f,
                0x5ce2_479b_2fb6_898b,
                0x0ae8_099f_86bf_f662,
                0x5f2f_09fd_c72f_90bd,
                0x95d5_3efa_28e5_a01f,
            ]
        );
        assert_eq!(
            words(&mut TensorRng::new(7), 8),
            [
                0x6686_d7a0_5082_5212,
                0xc63a_5f92_9db4_1d41,
                0x81e7_7dd0_e54a_caef,
                0x112b_2c0d_2451_b109,
                0x88c0_87ca_4fdc_0bfc,
                0x3e15_afb0_c126_42c0,
                0xa752_b476_351f_857a,
                0xbdb5_1629_72ae_3ab2,
            ]
        );
        assert_eq!(
            words(&mut TensorRng::new(7).fork(3), 4),
            [
                0x03b7_8fac_2354_ae91,
                0xb80e_4008_211a_def9,
                0x4192_e0fa_f65d_5d53,
                0x3212_2891_c9b0_ca35,
            ]
        );
    }

    /// Known answers for the normal draw entered at the start of a ChaCha
    /// block, one word in, and on its last word (the first draw straddles
    /// two blocks), with the word that follows each.
    #[test]
    fn normal_tensor_matches_its_known_answers() {
        let cases: [(usize, [u32; 5], u64); 3] = [
            (
                0,
                [
                    0x4094_70f5,
                    0xc18d_eb9a,
                    0xc200_8072,
                    0xc155_8dfd,
                    0xc227_ff36,
                ],
                0x873b_f881_6ac3_58d2,
            ),
            (
                1,
                [
                    0x4199_3a80,
                    0xc1e4_6da2,
                    0x4192_dc75,
                    0xbffe_5406,
                    0xc186_57d8,
                ],
                0xe673_4d9f_873b_f881,
            ),
            (
                15,
                [
                    0xc1c2_6722,
                    0x41af_590b,
                    0xc18e_bd7f,
                    0x3fd3_40b2,
                    0xc12c_aaca,
                ],
                0xd495_7767_9438_6077,
            ),
        ];
        for (offset, bits, next) in cases {
            let mut r = entered_at(11, offset);
            let t = r.normal_tensor(&[5], 0.5, 20.0);
            let got: Vec<u32> = t.as_slice().iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, bits, "entered at word {offset}");
            assert_eq!(r.next_u64(), next, "entered at word {offset}");
        }
    }

    /// `normal_tensor` is `normal` in a loop: the same bits, and the
    /// stream left where the loop leaves it (an attacker that keeps its
    /// generator across forges depends on that position).
    #[test]
    fn normal_tensor_is_a_loop_of_normal() {
        for len in [0, 1, 63, 64, 65, 864, 1001] {
            for offset in [0, 1, 2, 7, 15] {
                for (seed, mean, std) in [(3, 0.0, 1.0), (41, 0.5, 20.0), (99, -2.0, 1e-3)] {
                    let what = format!("len {len}, word {offset}, seed {seed}");
                    let mut chunked = entered_at(seed, offset);
                    let mut looped = entered_at(seed, offset);
                    let t = chunked.normal_tensor(&[len], mean, std);
                    let want: Vec<u32> = (0..len)
                        .map(|_| looped.normal(mean, std).to_bits())
                        .collect();
                    let got: Vec<u32> = t.as_slice().iter().map(|v| v.to_bits()).collect();
                    assert_eq!(got, want, "{what}");
                    assert_eq!(chunked.next_u64(), looped.next_u64(), "{what}");
                }
            }
        }
    }

    #[test]
    fn below_bounds() {
        let mut r = TensorRng::new(3);
        for _ in 0..100 {
            assert!(r.below(7) < 7);
        }
    }
}
