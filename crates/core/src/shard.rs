//! Shard plans for the sharded gradient plane (DESIGN.md §9).
//!
//! A [`ShardPlan`] partitions the `d` model coordinates into contiguous
//! ranges, one per server group: group `g` runs the full ByzSGD protocol on
//! coordinates `plan.range(g)` and nothing else. Coordinate-wise GARs
//! (median, trimmed mean, MeaMed, averaging) commute with this partition,
//! so a sharded run is bit-identical to the unsharded one.

use std::ops::Range;

use serde::{Deserialize, Serialize};

use crate::error::GuanYuError;
use crate::Result;

/// A partition of `d` coordinates into contiguous per-group ranges.
///
/// Stored as the exclusive upper bounds of each range (strictly increasing,
/// ending at `d`), so `range(g)` is `bounds[g-1]..bounds[g]` with an implied
/// leading 0.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardPlan {
    d: usize,
    bounds: Vec<usize>,
}

impl ShardPlan {
    /// Splits `d` coordinates as evenly as possible into `shards` ranges:
    /// the first `d % shards` ranges get one extra coordinate.
    ///
    /// # Errors
    ///
    /// Returns [`GuanYuError::InvalidConfig`] when `shards` is zero or
    /// exceeds `d` (a group owning zero coordinates would run the protocol
    /// on empty vectors).
    pub fn even(d: usize, shards: usize) -> Result<Self> {
        if shards == 0 {
            return Err(GuanYuError::InvalidConfig(
                "shard plan needs at least one shard".into(),
            ));
        }
        if shards > d {
            return Err(GuanYuError::InvalidConfig(format!(
                "cannot split {d} coordinates into {shards} non-empty shards"
            )));
        }
        let base = d / shards;
        let extra = d % shards;
        let mut bounds = Vec::with_capacity(shards);
        let mut end = 0;
        for g in 0..shards {
            end += base + usize::from(g < extra);
            bounds.push(end);
        }
        Ok(ShardPlan { d, bounds })
    }

    /// Builds a plan from explicit exclusive upper bounds (uneven ranges
    /// allowed; bounds must be strictly increasing and end at `d`).
    ///
    /// # Errors
    ///
    /// Returns [`GuanYuError::InvalidConfig`] for empty bounds, a
    /// non-increasing sequence (which would create an empty range), or a
    /// last bound that does not equal `d`.
    pub fn from_bounds(d: usize, bounds: Vec<usize>) -> Result<Self> {
        if bounds.is_empty() {
            return Err(GuanYuError::InvalidConfig(
                "shard plan needs at least one bound".into(),
            ));
        }
        let mut prev = 0;
        for &b in &bounds {
            if b <= prev {
                return Err(GuanYuError::InvalidConfig(format!(
                    "shard bounds must be strictly increasing from 0: {b} after {prev}"
                )));
            }
            prev = b;
        }
        if prev != d {
            return Err(GuanYuError::InvalidConfig(format!(
                "shard bounds end at {prev}, expected the full dimension {d}"
            )));
        }
        Ok(ShardPlan { d, bounds })
    }

    /// Number of shards in the plan.
    pub fn shards(&self) -> usize {
        self.bounds.len()
    }

    /// Total coordinate count covered by the plan.
    pub fn d(&self) -> usize {
        self.d
    }

    /// The coordinate range owned by group `g`.
    ///
    /// # Panics
    ///
    /// Panics when `g >= self.shards()`.
    pub fn range(&self, g: usize) -> Range<usize> {
        let start = if g == 0 { 0 } else { self.bounds[g - 1] };
        start..self.bounds[g]
    }

    /// All ranges, in group order.
    pub fn ranges(&self) -> impl Iterator<Item = Range<usize>> + '_ {
        (0..self.shards()).map(|g| self.range(g))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tensor::{Tensor, TensorError};

    #[test]
    fn even_plan_spreads_remainder_over_first_shards() {
        let plan = ShardPlan::even(10, 4).unwrap();
        let ranges: Vec<_> = plan.ranges().collect();
        assert_eq!(ranges, vec![0..3, 3..6, 6..8, 8..10]);
        assert_eq!(plan.shards(), 4);
        assert_eq!(plan.d(), 10);
    }

    #[test]
    fn single_shard_covers_everything() {
        let plan = ShardPlan::even(7, 1).unwrap();
        assert_eq!(plan.range(0), 0..7);
    }

    #[test]
    fn degenerate_plans_are_rejected() {
        assert!(matches!(
            ShardPlan::even(5, 0),
            Err(GuanYuError::InvalidConfig(_))
        ));
        assert!(matches!(
            ShardPlan::even(3, 4),
            Err(GuanYuError::InvalidConfig(_))
        ));
        assert!(ShardPlan::even(0, 1).is_err());
    }

    #[test]
    fn explicit_bounds_validate() {
        let plan = ShardPlan::from_bounds(10, vec![1, 9, 10]).unwrap();
        assert_eq!(plan.ranges().collect::<Vec<_>>(), vec![0..1, 1..9, 9..10]);
        assert!(ShardPlan::from_bounds(10, vec![]).is_err());
        assert!(ShardPlan::from_bounds(10, vec![3, 3, 10]).is_err());
        assert!(ShardPlan::from_bounds(10, vec![3, 9]).is_err());
    }

    #[test]
    fn plan_serialises_round_trip() {
        let plan = ShardPlan::even(11, 3).unwrap();
        let json = serde_json::to_string(&plan).unwrap();
        let back: ShardPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(back, plan);
    }

    // A group's slice of a parameter vector is `Tensor::slice(plan.range(g))`
    // (plant.rs, node.rs); the tests below pin that seam.

    fn params(d: usize) -> Tensor {
        Tensor::from_flat((0..d).map(|i| i as f32 * 0.5 - 3.0).collect())
    }

    #[test]
    fn out_of_range_view_is_rejected() {
        // A plan for 6 coordinates applied to a 4-coordinate vector.
        let plan = ShardPlan::from_bounds(6, vec![2, 6]).unwrap();
        let t = params(4);
        assert_eq!(t.slice(plan.range(0)).unwrap().len(), 2);
        assert_eq!(
            t.slice(plan.range(1)),
            Err(TensorError::InvalidShard {
                start: 2,
                end: 6,
                len: 4
            })
        );
    }

    #[test]
    #[allow(clippy::reversed_empty_ranges)] // the inversion is the point
    fn inverted_and_gapped_ranges_are_rejected() {
        assert!(params(6).slice(4..2).is_err());
        // Inverted bounds, and bounds leaving the tail 4..6 unowned.
        assert!(ShardPlan::from_bounds(6, vec![4, 2, 6]).is_err());
        assert!(ShardPlan::from_bounds(6, vec![2, 4]).is_err());
    }

    #[test]
    fn one_coordinate_shards_round_trip() {
        let t = params(5);
        let plan = ShardPlan::even(5, 5).unwrap();
        let merged: Vec<f32> = plan
            .ranges()
            .flat_map(|r| t.slice(r).unwrap().into_vec())
            .collect();
        assert_eq!(merged, t.as_slice());
    }

    #[test]
    fn to_tensor_copies_values() {
        let t = params(6);
        let plan = ShardPlan::from_bounds(6, vec![2, 5, 6]).unwrap();
        let owned = t.slice(plan.range(1)).unwrap();
        assert_eq!(owned.as_slice(), &t.as_slice()[2..5]);
        assert!(!t.shares_storage(&owned));
    }
}
