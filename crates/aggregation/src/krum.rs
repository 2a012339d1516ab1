//! Krum and Multi-Krum — `F` in the paper.

use tensor::Tensor;

use crate::gar::{fold_into, validate_inputs};
use crate::kernel;
use crate::{Gar, Result};

/// Computes the Krum score of every input.
///
/// The score of input `x` is the sum of squared distances (the original
/// Krum definition; the GuanYu paper's prose says "sum of the distances")
/// from `x` to its `n - f - 2` closest *other* inputs. Low score = central,
/// well-supported vector; high score = outlier. The Θ(n²·d)
/// pairwise-distance matrix is built by [`kernel::pairwise_distances`];
/// scores and selection use [`f32::total_cmp`], so extreme or degenerate
/// values reorder instead of panicking.
fn krum_scores(inputs: &[Tensor], f: usize) -> Vec<f32> {
    let n = inputs.len();
    let k = n - f - 2; // number of closest neighbours summed per input
    let dist = kernel::pairwise_distances(&kernel::views(inputs));
    kernel::krum_scores(&dist, n, k)
}

/// Krum: selects the single smallest-scoring input vector.
///
/// Requires `n ≥ 2f + 3` inputs to tolerate `f` Byzantine ones.
#[derive(Debug, Clone, Copy)]
pub struct Krum {
    f: usize,
}

impl Krum {
    /// Creates Krum declared to withstand `f` Byzantine inputs.
    ///
    /// `f = 0` is the degenerate "trust but score" case (GuanYu declared
    /// with `f̄ = 0` still runs Multi-Krum): scores are computed over the
    /// `n − 2` closest neighbours and the selection proceeds as usual, with
    /// the minimum input count dropping to 3.
    ///
    /// # Errors
    ///
    /// Reserved for future parameter validation; currently always `Ok`.
    pub fn new(f: usize) -> Result<Self> {
        Ok(Krum { f })
    }

    /// The declared Byzantine input count.
    pub fn f(&self) -> usize {
        self.f
    }
}

impl Gar for Krum {
    fn name(&self) -> String {
        format!("krum(f={})", self.f)
    }

    fn minimum_inputs(&self) -> usize {
        2 * self.f + 3
    }

    fn byzantine_tolerance(&self) -> usize {
        self.f
    }

    fn aggregate(&self, inputs: &[Tensor]) -> Result<Tensor> {
        validate_inputs(inputs, self.minimum_inputs())?;
        let scores = krum_scores(inputs, self.f);
        let winner = kernel::select_smallest(&scores, 1)[0];
        // Zero-copy: the winner is returned by refcount bump.
        Ok(inputs[winner].clone())
    }
}

/// Multi-Krum — the gradient aggregation rule `F` used by GuanYu's
/// parameter servers.
///
/// Scores every input like [`Krum`], then averages the `n - f - 2`
/// smallest-scoring inputs (§3.1 of the paper). Averaging the selected set
/// recovers some of the variance reduction that plain Krum sacrifices, while
/// the selection step keeps the *bounded deviation* property proved in the
/// paper's supplementary §9.2.2: the output stays within a constant times
/// the honest inputs' diameter.
///
/// Requires `n ≥ 2f + 3` inputs to tolerate `f` Byzantine ones.
#[derive(Debug, Clone, Copy)]
pub struct MultiKrum {
    f: usize,
}

impl MultiKrum {
    /// Creates Multi-Krum declared to withstand `f` Byzantine inputs
    /// (`f = 0` is the degenerate case; see [`Krum::new`]).
    ///
    /// # Errors
    ///
    /// Reserved for future parameter validation; currently always `Ok`.
    pub fn new(f: usize) -> Result<Self> {
        Ok(MultiKrum { f })
    }

    /// The declared Byzantine input count.
    pub fn f(&self) -> usize {
        self.f
    }

    /// The Krum scores of every input, exposed for diagnostics and the
    /// bounded-deviation property tests.
    ///
    /// # Errors
    ///
    /// Same validation as [`Gar::aggregate`].
    pub fn scores(&self, inputs: &[Tensor]) -> Result<Vec<f32>> {
        validate_inputs(inputs, self.minimum_inputs())?;
        Ok(krum_scores(inputs, self.f))
    }

    /// Indices of the inputs that would be averaged (the selection set).
    ///
    /// # Errors
    ///
    /// Same validation as [`Gar::aggregate`].
    pub fn selection(&self, inputs: &[Tensor]) -> Result<Vec<usize>> {
        validate_inputs(inputs, self.minimum_inputs())?;
        let scores = krum_scores(inputs, self.f);
        let m = inputs.len() - self.f - 2;
        Ok(kernel::select_smallest(&scores, m))
    }
}

impl Gar for MultiKrum {
    fn name(&self) -> String {
        format!("multi-krum(f={})", self.f)
    }

    fn minimum_inputs(&self) -> usize {
        2 * self.f + 3
    }

    fn byzantine_tolerance(&self) -> usize {
        self.f
    }

    fn aggregate(&self, inputs: &[Tensor]) -> Result<Tensor> {
        let dims = validate_inputs(inputs, self.minimum_inputs())?;
        let scores = krum_scores(inputs, self.f);
        let m = inputs.len() - self.f - 2;
        let selected = kernel::select_smallest(&scores, m);
        // Average the selection set via the slice kernel: no tensor clones,
        // just borrowed views of the selected buffers.
        let views = kernel::views(inputs);
        let chosen: Vec<&[f32]> = selected.iter().map(|&i| views[i]).collect();
        Ok(fold_into(&dims, |out| kernel::average_into(&chosen, out)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AggregationError;

    /// n=7, f=1 setting: 6 honest vectors clustered at (1, 2), one Byzantine
    /// far away.
    fn clustered_inputs() -> Vec<Tensor> {
        let mut xs: Vec<Tensor> = (0..6)
            .map(|i| Tensor::from_flat(vec![1.0 + 0.01 * i as f32, 2.0 - 0.01 * i as f32]))
            .collect();
        xs.push(Tensor::from_flat(vec![1e6, -1e6]));
        xs
    }

    #[test]
    fn f_zero_degenerate_case() {
        // f = 0: min inputs drops to 3 and the rule behaves like a
        // centrality-weighted mean.
        let krum = Krum::new(0).unwrap();
        assert_eq!(krum.minimum_inputs(), 3);
        let xs: Vec<Tensor> = (0..3).map(|i| Tensor::from_flat(vec![i as f32])).collect();
        let out = MultiKrum::new(0).unwrap().aggregate(&xs).unwrap();
        assert_eq!(out.len(), 1);
        assert!(out.as_slice()[0] >= 0.0 && out.as_slice()[0] <= 2.0);
    }

    #[test]
    fn minimum_inputs_is_2f_plus_3() {
        assert_eq!(Krum::new(2).unwrap().minimum_inputs(), 7);
        assert_eq!(MultiKrum::new(5).unwrap().minimum_inputs(), 13);
    }

    #[test]
    fn rejects_too_few_inputs() {
        let xs = vec![Tensor::zeros(&[2]); 4];
        let mk = MultiKrum::new(1).unwrap();
        assert!(matches!(
            mk.aggregate(&xs),
            Err(AggregationError::NotEnoughInputs { required: 5, .. })
        ));
    }

    #[test]
    fn krum_picks_an_honest_vector() {
        let xs = clustered_inputs();
        let out = Krum::new(1).unwrap().aggregate(&xs).unwrap();
        // output must be one of the honest inputs
        assert!(xs[..6].iter().any(|h| h == &out));
    }

    #[test]
    fn multi_krum_excludes_byzantine() {
        let xs = clustered_inputs();
        let mk = MultiKrum::new(1).unwrap();
        let selected = mk.selection(&xs).unwrap();
        assert_eq!(selected.len(), xs.len() - 1 - 2);
        assert!(
            !selected.contains(&6),
            "Byzantine index must not be selected"
        );
        let out = mk.aggregate(&xs).unwrap();
        assert!(out.distance(&xs[0]).unwrap() < 0.1);
    }

    #[test]
    fn multi_krum_without_byzantine_approximates_mean() {
        // All-honest i.i.d.-ish inputs: Multi-Krum output is close to the mean.
        let xs: Vec<Tensor> = (0..9)
            .map(|i| Tensor::from_flat(vec![(i as f32) * 0.01, 1.0]))
            .collect();
        let mk = MultiKrum::new(1).unwrap();
        let out = mk.aggregate(&xs).unwrap();
        let mean = Tensor::mean_of(&xs).unwrap();
        assert!(out.distance(&mean).unwrap() < 0.05);
    }

    #[test]
    fn scores_are_lower_for_central_inputs() {
        let xs = clustered_inputs();
        let mk = MultiKrum::new(1).unwrap();
        let scores = mk.scores(&xs).unwrap();
        let byz_score = scores[6];
        for (i, s) in scores[..6].iter().enumerate() {
            assert!(s < &byz_score, "honest {i} should out-score Byzantine");
        }
    }

    #[test]
    fn deterministic_under_repetition() {
        let xs = clustered_inputs();
        let mk = MultiKrum::new(1).unwrap();
        assert_eq!(mk.aggregate(&xs).unwrap(), mk.aggregate(&xs).unwrap());
    }

    #[test]
    fn names_include_f() {
        assert_eq!(Krum::new(3).unwrap().name(), "krum(f=3)");
        assert_eq!(MultiKrum::new(5).unwrap().name(), "multi-krum(f=5)");
    }

    #[test]
    fn select_smallest_breaks_ties_by_index() {
        assert_eq!(kernel::select_smallest(&[1.0, 1.0, 0.5], 2), vec![2, 0]);
    }

    #[test]
    fn exactly_f_byzantine_at_quorum_boundary() {
        // n = 2f + 3 = 7 with f = 2 Byzantine colluders: output still near
        // the honest cluster.
        let mut xs: Vec<Tensor> = (0..5)
            .map(|i| Tensor::from_flat(vec![0.1 * i as f32]))
            .collect();
        xs.push(Tensor::from_flat(vec![1e5]));
        xs.push(Tensor::from_flat(vec![1e5]));
        let out = MultiKrum::new(2).unwrap().aggregate(&xs).unwrap();
        assert!(out.as_slice()[0].abs() < 1.0);
    }
}
