//! Concrete attack implementations.

use tensor::{Tensor, TensorRng};

use crate::view::{Attack, AttackView};

/// Large-norm Gaussian noise — the paper's headline "totally corrupted
/// data" attack (§5.1): the forged vector has nothing to do with any honest
/// gradient and a norm far above the honest scale.
#[derive(Debug)]
pub struct RandomGradient {
    scale: f32,
    rng: TensorRng,
}

impl RandomGradient {
    /// Noise with standard deviation `scale` per coordinate.
    pub fn new(scale: f32, seed: u64) -> Self {
        RandomGradient {
            scale,
            rng: TensorRng::new(seed),
        }
    }
}

impl Attack for RandomGradient {
    fn name(&self) -> String {
        format!("random(scale={})", self.scale)
    }

    fn forge(&mut self, view: &AttackView<'_>) -> Option<Tensor> {
        Some(self.rng.normal_tensor(&[view.dim()], 0.0, self.scale))
    }
}

/// Negated, amplified honest mean: `-factor · mean(honest)` — pushes the
/// descent in exactly the wrong direction.
#[derive(Debug)]
pub struct SignFlip {
    factor: f32,
}

impl SignFlip {
    /// Amplification `factor` (the forged vector is `-factor × mean`).
    pub fn new(factor: f32) -> Self {
        SignFlip { factor }
    }
}

impl Attack for SignFlip {
    fn name(&self) -> String {
        format!("sign-flip(x{})", self.factor)
    }

    fn forge(&mut self, view: &AttackView<'_>) -> Option<Tensor> {
        Some(view.honest_mean().scale(-self.factor))
    }
}

/// *A Little Is Enough* (Baruch et al., NeurIPS 2019): stay within `z`
/// per-coordinate standard deviations of the honest mean. Designed to slip
/// under distance-based selection rules while still biasing the aggregate.
#[derive(Debug)]
pub struct LittleIsEnough {
    z: f32,
}

impl LittleIsEnough {
    /// Offset of `z` standard deviations per coordinate.
    pub fn new(z: f32) -> Self {
        LittleIsEnough { z }
    }
}

impl Attack for LittleIsEnough {
    fn name(&self) -> String {
        format!("little-is-enough(z={})", self.z)
    }

    fn forge(&mut self, view: &AttackView<'_>) -> Option<Tensor> {
        let mean = view.honest_mean();
        let std = view.honest_std();
        Some(
            mean.zip_with(&std, |m, s| m - self.z * s)
                .expect("same dims by construction"),
        )
    }
}

/// A constant huge value in every coordinate — the crudest possible
/// corruption; breaks averaging instantly, trivially filtered by robust
/// rules. Useful as a baseline attack.
#[derive(Debug)]
pub struct LargeValue {
    value: f32,
}

impl LargeValue {
    /// Every coordinate equals `value`.
    pub fn new(value: f32) -> Self {
        LargeValue { value }
    }
}

impl Attack for LargeValue {
    fn name(&self) -> String {
        format!("large-value({})", self.value)
    }

    fn forge(&mut self, view: &AttackView<'_>) -> Option<Tensor> {
        Some(Tensor::full(&[view.dim()], self.value))
    }
}

/// Equivocation — the paper's Byzantine **server** attack (§5.1): send
/// *different* corrupted vectors to different receivers in the same round,
/// trying to drive the honest participants' states apart. Each receiver
/// gets the honest mean plus a receiver-indexed pseudo-random offset of
/// magnitude `scale`.
#[derive(Debug)]
pub struct Equivocate {
    scale: f32,
    seed: u64,
}

impl Equivocate {
    /// Per-receiver corruption of magnitude `scale`.
    pub fn new(scale: f32, seed: u64) -> Self {
        Equivocate { scale, seed }
    }
}

impl Attack for Equivocate {
    fn name(&self) -> String {
        format!("equivocate(scale={})", self.scale)
    }

    fn forge(&mut self, view: &AttackView<'_>) -> Option<Tensor> {
        // Deterministic per (step, receiver): re-sending to the same
        // receiver in the same step repeats the same lie, but two receivers
        // see different vectors — maximal divergence pressure.
        let mut rng = TensorRng::new(
            self.seed ^ view.step.wrapping_mul(0x9E37_79B9) ^ (view.receiver as u64) << 32,
        );
        let mut forged = view.honest_mean();
        forged
            .add_assign(&rng.normal_tensor(&[view.dim()], 0.0, self.scale))
            .expect("same dims");
        Some(forged)
    }
}

/// Never responds — attack class (4). The paper notes this is the *least*
/// harmful behaviour: quorums simply proceed without the mute node.
#[derive(Debug, Default)]
pub struct Mute;

impl Mute {
    /// Creates the attack.
    pub fn new() -> Self {
        Mute
    }
}

impl Attack for Mute {
    fn name(&self) -> String {
        "mute".to_owned()
    }

    fn forge(&mut self, _view: &AttackView<'_>) -> Option<Tensor> {
        None
    }
}

/// Omniscient gradient reversal: `-factor ×` the *honest mean* — like
/// [`SignFlip`] but conventionally used with small factors to model a
/// stealthy adversary that exactly cancels honest progress when it slips
/// through.
#[derive(Debug)]
pub struct ReversedGradient {
    factor: f32,
}

impl ReversedGradient {
    /// Reversal amplification.
    pub fn new(factor: f32) -> Self {
        ReversedGradient { factor }
    }
}

impl Attack for ReversedGradient {
    fn name(&self) -> String {
        format!("reversed(x{})", self.factor)
    }

    fn forge(&mut self, view: &AttackView<'_>) -> Option<Tensor> {
        Some(view.honest_mean().scale(-self.factor))
    }
}

/// Stale-gradient replay: records the honest mean of each round and sends
/// it back `lag` rounds later, amplified by `factor`. Stale directions are
/// plausible-looking (they *were* honest) but point at an outdated model —
/// the failure mode that motivates the protocol's "only gradients of step t
/// feed step t" rule.
#[derive(Debug)]
pub struct StaleReplay {
    lag: usize,
    factor: f32,
    history: std::collections::VecDeque<Tensor>,
}

impl StaleReplay {
    /// Replays the honest mean from `lag ≥ 1` rounds ago, scaled by
    /// `factor`.
    pub fn new(lag: usize, factor: f32) -> Self {
        StaleReplay {
            lag: lag.max(1),
            factor,
            history: std::collections::VecDeque::new(),
        }
    }
}

impl Attack for StaleReplay {
    fn name(&self) -> String {
        format!("stale-replay(lag={},x{})", self.lag, self.factor)
    }

    fn forge(&mut self, view: &AttackView<'_>) -> Option<Tensor> {
        let current = view.honest_mean();
        self.history.push_back(current.clone());
        let stale = if self.history.len() > self.lag {
            self.history.pop_front().expect("length checked")
        } else {
            current
        };
        Some(stale.scale(self.factor))
    }
}

/// Orthogonal drift: a vector orthogonal to the honest mean with matched
/// norm. Neither helps nor directly reverses descent — it tries to push the
/// model sideways while looking norm-wise honest (a stealth attack against
/// norm-clipping defences).
#[derive(Debug)]
pub struct OrthogonalDrift {
    seed: u64,
}

impl OrthogonalDrift {
    /// Creates the attack; `seed` fixes the drift direction choice.
    pub fn new(seed: u64) -> Self {
        OrthogonalDrift { seed }
    }
}

impl Attack for OrthogonalDrift {
    fn name(&self) -> String {
        "orthogonal-drift".to_owned()
    }

    fn forge(&mut self, view: &AttackView<'_>) -> Option<Tensor> {
        let mean = view.honest_mean();
        let norm = mean.norm();
        if norm < 1e-12 {
            return Some(mean);
        }
        // Gram–Schmidt a deterministic pseudo-random direction against the
        // honest mean.
        let mut rng = TensorRng::new(self.seed ^ view.step.wrapping_mul(0x2545_F491));
        let r = rng.normal_tensor(&[view.dim()], 0.0, 1.0);
        let proj = r.dot(&mean).expect("same dims") / (norm * norm);
        let mut orth = r;
        orth.axpy(-proj, &mean).expect("same dims");
        let onorm = orth.norm();
        if onorm < 1e-12 {
            return Some(mean); // degenerate dimension-1 case
        }
        Some(orth.scale(norm / onorm))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aggregation::{Average, CoordinateWiseMedian, Gar, MultiKrum};

    fn honest_cluster() -> Vec<Tensor> {
        (0..9)
            .map(|i| Tensor::from_flat(vec![1.0 + 0.05 * i as f32, -2.0 + 0.05 * i as f32]))
            .collect()
    }

    #[test]
    fn random_gradient_has_large_norm() {
        let honest = honest_cluster();
        let mut a = RandomGradient::new(100.0, 1);
        let v = a.forge(&AttackView::new(&honest, 0, 0)).unwrap();
        assert!(v.norm() > 10.0);
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn sign_flip_negates_mean() {
        let honest = vec![Tensor::from_flat(vec![2.0, -4.0])];
        let mut a = SignFlip::new(3.0);
        let v = a.forge(&AttackView::new(&honest, 0, 0)).unwrap();
        assert_eq!(v.as_slice(), &[-6.0, 12.0]);
    }

    #[test]
    fn little_is_enough_stays_close() {
        let honest = honest_cluster();
        let mut a = LittleIsEnough::new(1.5);
        let v = a.forge(&AttackView::new(&honest, 0, 0)).unwrap();
        let view = AttackView::new(&honest, 0, 0);
        let mean = view.honest_mean();
        // stays within a couple of std devs: close in absolute terms here
        assert!(v.distance(&mean).unwrap() < 1.0);
    }

    #[test]
    fn equivocate_gives_different_receivers_different_vectors() {
        let honest = honest_cluster();
        let mut a = Equivocate::new(5.0, 9);
        let v0 = a.forge(&AttackView::new(&honest, 3, 0)).unwrap();
        let v1 = a.forge(&AttackView::new(&honest, 3, 1)).unwrap();
        let v0_again = a.forge(&AttackView::new(&honest, 3, 0)).unwrap();
        assert_ne!(v0, v1, "different receivers must see different lies");
        assert_eq!(v0, v0_again, "same receiver, same step: same lie");
    }

    #[test]
    fn mute_returns_none() {
        let honest = honest_cluster();
        assert!(Mute::new().forge(&AttackView::new(&honest, 0, 0)).is_none());
    }

    #[test]
    fn reversed_is_negative_multiple_of_mean() {
        let honest = honest_cluster();
        let view = AttackView::new(&honest, 0, 0);
        let mean = view.honest_mean();
        let mut a = ReversedGradient::new(2.0);
        let v = a.forge(&view).unwrap();
        let cos = v.cosine_similarity(&mean).unwrap();
        assert!((cos + 1.0).abs() < 1e-5, "cosine {cos} should be -1");
    }

    /// The resilience matrix in miniature: every attack breaks averaging by
    /// a wide margin (except the stealthy ones, which still bias it) while
    /// Multi-Krum and the median stay near the honest cluster.
    #[test]
    fn robust_rules_survive_every_attack_average_breaks_on_gross_ones() {
        let honest = honest_cluster(); // 9 honest
        let view_mean = AttackView::new(&honest, 0, 0).honest_mean();
        let gross: Vec<Box<dyn Attack>> = vec![
            Box::new(RandomGradient::new(1e6, 2)),
            Box::new(SignFlip::new(1e6)),
            Box::new(LargeValue::new(1e9)),
        ];
        for mut attack in gross {
            let mut all = honest.clone();
            for r in 0..2 {
                // f̄ = 2 Byzantine
                all.push(attack.forge(&AttackView::new(&honest, 0, r)).unwrap());
            }
            let avg = Average::new().aggregate(&all).unwrap();
            assert!(
                avg.distance(&view_mean).unwrap() > 100.0,
                "{}: average should be destroyed",
                attack.name()
            );
            let mk = MultiKrum::new(2).unwrap().aggregate(&all).unwrap();
            assert!(
                mk.distance(&view_mean).unwrap() < 1.0,
                "{}: multi-krum should survive, off by {}",
                attack.name(),
                mk.distance(&view_mean).unwrap()
            );
            let med = CoordinateWiseMedian::new().aggregate(&all).unwrap();
            assert!(
                med.distance(&view_mean).unwrap() < 1.0,
                "{}: median should survive",
                attack.name()
            );
        }
    }

    #[test]
    fn stale_replay_lags_behind() {
        let mut a = StaleReplay::new(2, 1.0);
        let rounds: Vec<Vec<Tensor>> = (0..4)
            .map(|r| vec![Tensor::from_flat(vec![r as f32])])
            .collect();
        let outs: Vec<f32> = rounds
            .iter()
            .enumerate()
            .map(|(r, honest)| {
                a.forge(&AttackView::new(honest, r as u64, 0))
                    .unwrap()
                    .as_slice()[0]
            })
            .collect();
        // rounds 0,1 replay current (warm-up); round 2 replays round 0, etc.
        assert_eq!(outs, vec![0.0, 1.0, 0.0, 1.0]);
    }

    #[test]
    fn orthogonal_drift_is_orthogonal_with_matched_norm() {
        let honest = honest_cluster();
        let view = AttackView::new(&honest, 3, 0);
        let mean = view.honest_mean();
        let mut a = OrthogonalDrift::new(5);
        let v = a.forge(&view).unwrap();
        let cos = v.cosine_similarity(&mean).unwrap();
        assert!(cos.abs() < 1e-4, "cosine {cos} should be ~0");
        assert!((v.norm() - mean.norm()).abs() / mean.norm() < 1e-4);
    }

    #[test]
    fn orthogonal_drift_zero_mean_degenerate() {
        let honest = vec![Tensor::zeros(&[4])];
        let mut a = OrthogonalDrift::new(5);
        let v = a.forge(&AttackView::new(&honest, 0, 0)).unwrap();
        assert_eq!(v.norm(), 0.0);
    }

    #[test]
    fn little_is_enough_biases_but_stays_bounded() {
        let honest = honest_cluster();
        let mut attack = LittleIsEnough::new(1.5);
        let mut all = honest.clone();
        for r in 0..2 {
            all.push(attack.forge(&AttackView::new(&honest, 0, r)).unwrap());
        }
        let view_mean = AttackView::new(&honest, 0, 0).honest_mean();
        let mk = MultiKrum::new(2).unwrap().aggregate(&all).unwrap();
        // The stealth attack may shift the aggregate, but the bounded
        // deviation lemma caps the shift by the honest spread.
        let honest_diam = aggregation::properties::diameter(&honest).unwrap();
        assert!(mk.distance(&view_mean).unwrap() <= honest_diam * 2.0);
    }
}
