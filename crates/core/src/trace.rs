//! Deterministic run traces: per-round digests and whole-run fingerprints.
//!
//! Both deterministic engines (lockstep and event-driven) can record a
//! [`Trace`]: one [`RoundDigest`] per completed protocol round, capturing
//! the honest servers' model state (hashed, not stored — paper-scale
//! vectors are ~7 MB each), the quorum compositions that produced it, and
//! the round's message count. Two runs of the same scenario with the same
//! seed must produce **bit-identical** traces; the scenario harness
//! asserts exactly that via [`Trace::fingerprint`].
//!
//! Hashes are FNV-1a over the raw `f32` bit patterns — any single-ULP
//! divergence anywhere in any server's parameter vector changes the
//! digest, so trace equality is as strong as comparing every tensor
//! bitwise while costing eight bytes per round to keep.

use serde::{Deserialize, Serialize};
use tensor::Tensor;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;
/// Four FNV steps over zero bytes: `h ^ 0` is `h`, so each step is one
/// multiply and the run folds into one (exact in wrapping arithmetic).
const FNV_PRIME_POW4: u64 = FNV_PRIME
    .wrapping_mul(FNV_PRIME)
    .wrapping_mul(FNV_PRIME)
    .wrapping_mul(FNV_PRIME);

/// Incremental FNV-1a hasher over words.
#[derive(Debug, Clone, Copy)]
pub struct DigestHasher(u64);

impl DigestHasher {
    /// A fresh hasher.
    pub fn new() -> Self {
        DigestHasher(FNV_OFFSET)
    }

    /// Folds one 64-bit word.
    pub fn write_u64(&mut self, word: u64) {
        let mut h = self.0;
        for shift in [0, 8, 16, 24, 32, 40, 48, 56] {
            h ^= (word >> shift) & 0xFF;
            h = h.wrapping_mul(FNV_PRIME);
        }
        self.0 = h;
    }

    /// [`DigestHasher::write_u64`] of a word whose high half is zero: the
    /// four low bytes, then the four zero bytes as one multiply.
    fn write_low_u32(&mut self, word: u32) {
        let mut h = self.0;
        for shift in [0, 8, 16, 24] {
            h ^= u64::from((word >> shift) & 0xFF);
            h = h.wrapping_mul(FNV_PRIME);
        }
        self.0 = h.wrapping_mul(FNV_PRIME_POW4);
    }

    /// Folds a tensor's raw bit pattern (length then every coordinate).
    pub fn write_tensor(&mut self, t: &Tensor) {
        self.write_u64(t.len() as u64);
        for &x in t.as_slice() {
            self.write_u64(u64::from(x.to_bits()));
        }
    }

    /// Folds a list of indices (a quorum composition).
    pub fn write_indices(&mut self, indices: &[usize]) {
        self.write_u64(indices.len() as u64);
        for &i in indices {
            self.write_u64(i as u64);
        }
    }

    /// The digest so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Default for DigestHasher {
    fn default() -> Self {
        Self::new()
    }
}

/// Hash of one tensor (standalone convenience).
pub fn tensor_digest(t: &Tensor) -> u64 {
    let mut h = DigestHasher::new();
    h.write_tensor(t);
    h.finish()
}

/// Position-mixed vector digest that **composes across shards**: each
/// coordinate hashes its global index together with its bit pattern into an
/// independent FNV-1a word, and the words are XOR-folded. Because XOR is
/// associative and commutative,
/// `positional_digest(0, full) == ⊕ positional_digest(range.start, slice)`
/// over any tiling of `full` — a sharded run's per-group digests combine
/// into exactly the digest an unsharded replica would log (DESIGN.md §9).
/// Like [`tensor_digest`] it is single-ULP-sensitive, and the index mixing
/// keeps it order-sensitive despite the commutative fold (equal values at
/// swapped positions hash differently).
pub fn positional_digest(offset: usize, data: &[f32]) -> u64 {
    let mut acc = 0u64;
    for (i, &x) in data.iter().enumerate() {
        let mut h = DigestHasher::new();
        let index = (offset + i) as u64;
        match u32::try_from(index) {
            Ok(low) => h.write_low_u32(low),
            Err(_) => h.write_u64(index),
        }
        h.write_low_u32(x.to_bits());
        acc ^= h.finish();
    }
    acc
}

/// One completed protocol round, digested.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RoundDigest {
    /// The round (step) this digest closes.
    pub step: u64,
    /// Combined hash of every honest server's parameter vector, folded in
    /// server-index order.
    pub model_hash: u64,
    /// Combined hash of every quorum composition of the round (which
    /// senders each receiver folded, plus forged-message counts), folded
    /// in receiver order across the three phases.
    pub quorum_hash: u64,
    /// Messages folded this round (quorum members + forgeries across all
    /// receivers).
    pub messages: u64,
}

/// A whole run's digest sequence.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Trace {
    /// Per-round digests in step order.
    pub rounds: Vec<RoundDigest>,
}

impl Trace {
    /// An empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a round digest.
    pub fn push(&mut self, digest: RoundDigest) {
        self.rounds.push(digest);
    }

    /// Number of recorded rounds.
    pub fn len(&self) -> usize {
        self.rounds.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.rounds.is_empty()
    }

    /// One hash over the entire trace: equal fingerprints ⟺ every round's
    /// every field is identical.
    pub fn fingerprint(&self) -> u64 {
        let mut h = DigestHasher::new();
        h.write_u64(self.rounds.len() as u64);
        for r in &self.rounds {
            h.write_u64(r.step);
            h.write_u64(r.model_hash);
            h.write_u64(r.quorum_hash);
            h.write_u64(r.messages);
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tensor_digest_is_bit_sensitive() {
        let a = Tensor::from_flat(vec![1.0, 2.0, 3.0]);
        let b = Tensor::from_flat(vec![1.0, 2.0, 3.0]);
        assert_eq!(tensor_digest(&a), tensor_digest(&b));
        let c = Tensor::from_flat(vec![1.0, 2.0, 3.0000004]); // one ULP-ish nudge
        assert_ne!(tensor_digest(&a), tensor_digest(&c));
        // -0.0 and 0.0 compare equal as floats but are different states
        let z0 = Tensor::from_flat(vec![0.0]);
        let z1 = Tensor::from_flat(vec![-0.0]);
        assert_ne!(tensor_digest(&z0), tensor_digest(&z1));
    }

    #[test]
    fn positional_digest_composes_over_any_tiling() {
        let full: Vec<f32> = (0..37).map(|i| (i as f32).sin()).collect();
        let whole = positional_digest(0, &full);
        for splits in [vec![0, 37], vec![0, 1, 2, 37], vec![0, 12, 24, 30, 37]] {
            let mut acc = 0u64;
            for w in splits.windows(2) {
                acc ^= positional_digest(w[0], &full[w[0]..w[1]]);
            }
            assert_eq!(acc, whole, "tiling {splits:?} must recompose");
        }
    }

    /// The digest by its definition: sixteen byte-at-a-time FNV-1a steps
    /// per coordinate, zero bytes included.
    fn positional_digest_bytewise(offset: usize, data: &[f32]) -> u64 {
        let mut acc = 0u64;
        for (i, &x) in data.iter().enumerate() {
            let mut h = FNV_OFFSET;
            for word in [(offset + i) as u64, u64::from(x.to_bits())] {
                for byte in word.to_le_bytes() {
                    h = (h ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
                }
            }
            acc ^= h;
        }
        acc
    }

    #[test]
    fn positional_digest_matches_the_bytewise_reference() {
        let mut rng = tensor::TensorRng::new(0xD16E57);
        let mut offsets = vec![0, 1, 255, 256, 64_969];
        // Around and past the point where the index word's high half stops
        // being zero (the folded multiply no longer applies).
        let edge = u32::MAX as usize;
        offsets.extend([edge - 3, edge, edge + 1, edge << 7, usize::MAX - 40]);
        offsets.extend((0..20).map(|_| rng.next_u64() as usize >> 1));
        for offset in offsets {
            let data: Vec<f32> = (0..9)
                .map(|_| f32::from_bits(rng.next_u64() as u32))
                .collect();
            assert_eq!(
                positional_digest(offset, &data),
                positional_digest_bytewise(offset, &data),
                "offset {offset}"
            );
        }
    }

    #[test]
    fn positional_digest_is_position_and_ulp_sensitive() {
        let a = positional_digest(0, &[1.0, 2.0]);
        let swapped = positional_digest(0, &[2.0, 1.0]);
        assert_ne!(a, swapped, "equal multiset, different order");
        let nudged = positional_digest(0, &[1.0, 2.0000002]);
        assert_ne!(a, nudged);
        let shifted = positional_digest(1, &[1.0, 2.0]);
        assert_ne!(a, shifted, "same slice at a different offset");
        assert_eq!(positional_digest(5, &[]), 0);
    }

    #[test]
    fn digest_distinguishes_length_and_order() {
        let mut a = DigestHasher::new();
        a.write_indices(&[1, 2, 3]);
        let mut b = DigestHasher::new();
        b.write_indices(&[3, 2, 1]);
        assert_ne!(a.finish(), b.finish());
        let mut c = DigestHasher::new();
        c.write_indices(&[1, 2]);
        let mut d = DigestHasher::new();
        d.write_indices(&[1, 2, 0]);
        assert_ne!(c.finish(), d.finish());
    }

    #[test]
    fn fingerprint_covers_every_field() {
        let base = Trace {
            rounds: vec![RoundDigest {
                step: 0,
                model_hash: 1,
                quorum_hash: 2,
                messages: 3,
            }],
        };
        let fp = base.fingerprint();
        for field in 0..4 {
            let mut t = base.clone();
            match field {
                0 => t.rounds[0].step = 9,
                1 => t.rounds[0].model_hash = 9,
                2 => t.rounds[0].quorum_hash = 9,
                _ => t.rounds[0].messages = 9,
            }
            assert_ne!(t.fingerprint(), fp, "field {field} not covered");
        }
        assert_eq!(base.clone().fingerprint(), fp);
        assert_ne!(Trace::new().fingerprint(), fp);
    }

    #[test]
    fn serde_roundtrip() {
        let t = Trace {
            rounds: vec![RoundDigest {
                step: 4,
                model_hash: 0xDEAD,
                quorum_hash: 0xBEEF,
                messages: 42,
            }],
        };
        let json = serde_json::to_string(&t).unwrap();
        let back: Trace = serde_json::from_str(&json).unwrap();
        assert_eq!(back, t);
    }
}
