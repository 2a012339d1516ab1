//! Learning-rate schedules.

use serde::{Deserialize, Serialize};

/// A learning-rate schedule `η_t`.
///
/// The paper's convergence proof (assumption 6) requires `Σ η_t = ∞` and
/// `Σ η_t² < ∞`; [`LrSchedule::inverse`] (`η_t = η₀ / (1 + t/τ)`) satisfies
/// both. The experiments in §5 use a constant rate 0.001, which we also
/// provide (convergence to a neighbourhood rather than a point).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum LrSchedule {
    /// Constant rate: `η_t = η₀`.
    Constant {
        /// The fixed learning rate.
        eta0: f32,
    },
    /// Harmonic decay: `η_t = η₀ / (1 + t/τ)`, satisfying the proof's
    /// summability conditions.
    Inverse {
        /// Initial learning rate.
        eta0: f32,
        /// Decay time constant (steps until the rate halves).
        tau: f32,
    },
}

impl LrSchedule {
    /// Constant schedule.
    pub fn constant(eta0: f32) -> Self {
        LrSchedule::Constant { eta0 }
    }

    /// Harmonic decay schedule.
    pub fn inverse(eta0: f32, tau: f32) -> Self {
        LrSchedule::Inverse { eta0, tau }
    }

    /// The learning rate at step `t`.
    pub fn at(&self, t: u64) -> f32 {
        match *self {
            LrSchedule::Constant { eta0 } => eta0,
            LrSchedule::Inverse { eta0, tau } => eta0 / (1.0 + t as f32 / tau),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_schedule() {
        let s = LrSchedule::constant(0.01);
        assert_eq!(s.at(0), 0.01);
        assert_eq!(s.at(1000), 0.01);
    }

    #[test]
    fn inverse_schedule_decays() {
        let s = LrSchedule::inverse(1.0, 10.0);
        assert_eq!(s.at(0), 1.0);
        assert!((s.at(10) - 0.5).abs() < 1e-6);
        assert!(s.at(100) < s.at(10));
    }

    #[test]
    fn inverse_schedule_satisfies_summability_shape() {
        // Σ η_t diverges (harmonic) while Σ η_t² converges: check partial
        // sums behave accordingly over a large horizon.
        let s = LrSchedule::inverse(1.0, 1.0);
        let sum: f64 = (0..100_000).map(|t| s.at(t) as f64).sum();
        let sum_sq: f64 = (0..100_000).map(|t| (s.at(t) as f64).powi(2)).sum();
        assert!(sum > 10.0); // grows like ln t
        assert!(sum_sq < 2.0); // converges to π²/6 ≈ 1.64
    }

    #[test]
    fn schedule_serde_roundtrip() {
        let s = LrSchedule::inverse(0.1, 50.0);
        let json = serde_json::to_string(&s).unwrap();
        let back: LrSchedule = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }
}
