//! Property tests for the sharded gradient plane's split→concatenate
//! identity.
//!
//! The whole sharded runtime rests on one algebraic fact: slicing a
//! parameter vector along a [`ShardPlan`]'s ranges and concatenating the
//! slices back is the identity, bit for bit, for *any* plan — even splits,
//! uneven splits, 1-coordinate shards. These properties pin that fact at
//! the `ShardPlan` × [`Tensor::slice`] seam.

use guanyu::shard::ShardPlan;
use proptest::prelude::*;
use tensor::Tensor;

/// Deterministic pseudo-random payload (value depends on position so any
/// reordering or off-by-one shows up as a bit mismatch).
fn payload(d: usize, salt: u64) -> Vec<f32> {
    (0..d)
        .map(|i| {
            let x = (i as u64).wrapping_mul(0x9E37_79B9).wrapping_add(salt);
            (x % 4096) as f32 / 17.0 - 120.0
        })
        .collect()
}

/// Cuts `full` along `plan` with [`Tensor::slice`].
fn split(full: &Tensor, plan: &ShardPlan) -> Vec<Tensor> {
    plan.ranges().map(|r| full.slice(r).unwrap()).collect()
}

/// Concatenates slices back into one flat vector.
fn concatenate(slices: &[Tensor]) -> Vec<f32> {
    slices
        .iter()
        .flat_map(|s| s.as_slice().iter().copied())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Even plans: split along `ShardPlan::even` and concatenate back —
    /// the round trip is bit-identical.
    #[test]
    fn even_plan_split_merge_is_identity(d in 1usize..400, shards in 1usize..16, salt in 0u64..1000) {
        let shards = shards.min(d); // plans with more shards than coords are rejected (tested below)
        let plan = ShardPlan::even(d, shards).unwrap();
        let full = Tensor::from_flat(payload(d, salt));
        let slices = split(&full, &plan);
        // Ranges tile 0..d: contiguous, uneven by at most one coordinate.
        let widths: Vec<usize> = slices.iter().map(Tensor::len).collect();
        prop_assert_eq!(widths.iter().sum::<usize>(), d);
        let (min, max) = (widths.iter().min().unwrap(), widths.iter().max().unwrap());
        prop_assert!(max - min <= 1, "even plan must balance within 1: {widths:?}");
        prop_assert_eq!(concatenate(&slices), full.as_slice());
    }

    /// Arbitrary uneven plans built from random cut points — including
    /// 1-coordinate shards — round-trip bit-identically too.
    #[test]
    fn uneven_plan_split_merge_is_identity(
        cuts in proptest::collection::vec(1usize..40, 1..8),
        salt in 0u64..1000,
    ) {
        // Strictly increasing bounds from random positive increments; the
        // last bound is the dimension.
        let mut bounds = Vec::with_capacity(cuts.len());
        let mut acc = 0usize;
        for c in &cuts {
            acc += c;
            bounds.push(acc);
        }
        let d = *bounds.last().unwrap();
        let plan = ShardPlan::from_bounds(d, bounds).unwrap();
        let full = Tensor::from_flat(payload(d, salt));
        prop_assert_eq!(concatenate(&split(&full, &plan)), full.as_slice());
    }

    /// More shards than coordinates is a typed error, never a panic or a
    /// degenerate empty-range plan.
    #[test]
    fn more_shards_than_coordinates_is_rejected(d in 1usize..50, extra in 1usize..50) {
        prop_assert!(ShardPlan::even(d, d + extra).is_err());
        prop_assert!(ShardPlan::even(d, 0).is_err());
        prop_assert!(ShardPlan::even(d, d).is_ok(), "d one-coordinate shards are legal");
    }
}
