//! Parameter-vector alignment measurements — the paper's Table 2.
//!
//! The convergence proof's assumption 2 (§3.4) posits that, after some step
//! `t_s`, the honest servers' parameter vectors are *roughly aligned*:
//! `θᵢ = aᵢ·u + bᵢ` with shared direction `u`. The paper validates this
//! empirically (supplementary §9.4): every 20 steps it takes the pairwise
//! *difference vectors* between honest server models, keeps the two with
//! the largest norms, and reports the cosine of the angle between them —
//! consistently close to 1.
//!
//! [`alignment_snapshot`] reproduces exactly that measurement; `repro
//! table2` prints the paper's table from a real GuanYu run.

use serde::{Deserialize, Serialize};
use tensor::Tensor;

use crate::Result;

/// One row of the paper's Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AlignmentRecord {
    /// Training step at which the snapshot was taken.
    pub step: u64,
    /// Cosine of the angle between the two largest difference vectors.
    pub cos_phi: f32,
    /// Largest difference-vector norm (`max diff1` in the table).
    pub max_diff1: f32,
    /// Second-largest difference-vector norm (`max diff2`).
    pub max_diff2: f32,
}

/// Computes the Table-2 measurement over the honest servers' current
/// parameter vectors: all pairwise differences, the two largest by norm,
/// and the cosine between them.
///
/// Returns `None` when fewer than 3 servers are supplied (fewer than 2
/// distinct difference vectors with positive norm cannot be compared) or
/// when any candidate difference has zero norm.
///
/// # Errors
///
/// Propagates shape mismatches between parameter vectors.
pub fn alignment_snapshot(step: u64, params: &[Tensor]) -> Result<Option<AlignmentRecord>> {
    if params.len() < 3 {
        return Ok(None);
    }
    let mut diffs: Vec<(f32, Tensor)> = Vec::new();
    for i in 0..params.len() {
        for j in (i + 1)..params.len() {
            let d = params[i].sub(&params[j])?;
            diffs.push((d.norm(), d));
        }
    }
    diffs.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("norms are finite"));
    let (n1, d1) = &diffs[0];
    let (n2, d2) = &diffs[1];
    if *n1 == 0.0 || *n2 == 0.0 {
        return Ok(None);
    }
    let cos_phi = d1.cosine_similarity(d2)?;
    Ok(Some(AlignmentRecord {
        step,
        cos_phi,
        max_diff1: *n1,
        max_diff2: *n2,
    }))
}

/// Convenience: the fraction of snapshots whose |cos φ| exceeds
/// `threshold` — a scalar summary of "the vectors stay aligned".
pub fn aligned_fraction(records: &[AlignmentRecord], threshold: f32) -> f32 {
    if records.is_empty() {
        return 0.0;
    }
    let hits = records
        .iter()
        .filter(|r| r.cos_phi.abs() >= threshold)
        .count();
    hits as f32 / records.len() as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfectly_aligned_servers() {
        // Three servers along one direction u: differences are collinear.
        let u = Tensor::from_flat(vec![1.0, 2.0, -1.0]);
        let params: Vec<Tensor> = (0..3).map(|i| u.scale(1.0 + 0.5 * i as f32)).collect();
        let rec = alignment_snapshot(100, &params).unwrap().unwrap();
        assert!(
            rec.cos_phi.abs() > 0.999,
            "collinear differences must give |cos| ≈ 1, got {}",
            rec.cos_phi
        );
        assert!(rec.max_diff1 >= rec.max_diff2);
    }

    #[test]
    fn orthogonal_spread_gives_low_cosine() {
        let params = vec![
            Tensor::from_flat(vec![0.0, 0.0]),
            Tensor::from_flat(vec![1.0, 0.0]),
            Tensor::from_flat(vec![0.0, 1.0]),
        ];
        let rec = alignment_snapshot(0, &params).unwrap().unwrap();
        assert!(rec.cos_phi.abs() < 0.9, "got {}", rec.cos_phi);
    }

    #[test]
    fn too_few_servers_yields_none() {
        let params = vec![Tensor::zeros(&[3]), Tensor::ones(&[3])];
        assert!(alignment_snapshot(0, &params).unwrap().is_none());
    }

    #[test]
    fn identical_servers_yields_none() {
        let params = vec![Tensor::ones(&[3]); 4];
        assert!(alignment_snapshot(0, &params).unwrap().is_none());
    }

    #[test]
    fn aligned_fraction_counts() {
        let recs = vec![
            AlignmentRecord {
                step: 0,
                cos_phi: 0.99,
                max_diff1: 1.0,
                max_diff2: 0.9,
            },
            AlignmentRecord {
                step: 20,
                cos_phi: 0.5,
                max_diff1: 1.0,
                max_diff2: 0.9,
            },
            AlignmentRecord {
                step: 40,
                cos_phi: -0.98,
                max_diff1: 1.0,
                max_diff2: 0.9,
            },
        ];
        assert!((aligned_fraction(&recs, 0.95) - 2.0 / 3.0).abs() < 1e-6);
        assert_eq!(aligned_fraction(&[], 0.9), 0.0);
    }
}
