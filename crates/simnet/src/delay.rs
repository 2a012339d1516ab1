//! Link-delay models.

use serde::{Deserialize, Serialize};
use tensor::TensorRng;

/// A distribution over message transit times.
///
/// The simulator draws one delay per message; a [`crate::FaultPlan`]'s
/// `Delay` rules can then stretch it on targeted links. All variants
/// produce strictly positive delays.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum DelayModel {
    /// Constant delay — degenerate, useful in tests.
    Fixed {
        /// Transit time in seconds.
        seconds: f64,
    },
    /// Uniform in `[lo, hi)` seconds.
    Uniform {
        /// Lower bound (seconds).
        lo: f64,
        /// Upper bound (seconds).
        hi: f64,
    },
    /// Exponential with the given mean — the classic asynchronous-network
    /// model (memoryless, unbounded support: any finite bound on delivery
    /// time is violated with positive probability, matching the paper's
    /// "no bound on communication delays").
    Exponential {
        /// Mean transit time (seconds).
        mean: f64,
    },
    /// Base latency plus size-proportional transfer time plus exponential
    /// jitter: `base + bytes/bandwidth + Exp(jitter)`.
    ///
    /// Calibrated with `base = 100 µs`, `bandwidth = 10 Gbps` this models
    /// the paper's Grid5000 cluster links; a 7 MB model message costs
    /// ≈ 5.7 ms of serialisation+transfer.
    BandwidthLatency {
        /// Fixed per-message latency (seconds).
        base: f64,
        /// Link bandwidth in bytes/second.
        bytes_per_sec: f64,
        /// Mean of the additive exponential jitter (seconds); 0 disables.
        jitter: f64,
    },
    /// Pareto (heavy-tail) delay with scale `xm` and shape `alpha`
    /// (`alpha > 1` for finite mean). Models straggler-prone networks where
    /// a minority of messages take far longer than the median — the regime
    /// where asynchronous quorums beat synchronous barriers.
    Pareto {
        /// Scale (minimum delay, seconds).
        xm: f64,
        /// Tail exponent.
        alpha: f64,
    },
}

impl DelayModel {
    /// Samples a transit time in seconds for a message of `bytes` bytes.
    pub fn sample(&self, bytes: usize, rng: &mut TensorRng) -> f64 {
        let d = match *self {
            DelayModel::Fixed { seconds } => seconds,
            DelayModel::Uniform { lo, hi } => rng.uniform(lo as f32, hi as f32) as f64,
            DelayModel::Exponential { mean } => {
                let u = rng.uniform(f32::EPSILON, 1.0) as f64;
                -mean * u.ln()
            }
            DelayModel::BandwidthLatency {
                base,
                bytes_per_sec,
                jitter,
            } => {
                let mut d = base + bytes as f64 / bytes_per_sec;
                if jitter > 0.0 {
                    let u = rng.uniform(f32::EPSILON, 1.0) as f64;
                    d += -jitter * u.ln();
                }
                d
            }
            DelayModel::Pareto { xm, alpha } => {
                let u = rng.uniform(f32::EPSILON, 1.0) as f64;
                xm / u.powf(1.0 / alpha)
            }
        };
        d.max(1e-12) // delays are strictly positive
    }

    /// A model of the paper's experimental platform: 10 Gbps links with
    /// 100 µs base latency and 50 µs mean jitter.
    pub fn grid5000() -> Self {
        DelayModel::BandwidthLatency {
            base: 100e-6,
            bytes_per_sec: 10e9 / 8.0,
            jitter: 50e-6,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> TensorRng {
        TensorRng::new(42)
    }

    #[test]
    fn fixed_is_constant() {
        let m = DelayModel::Fixed { seconds: 0.5 };
        let mut r = rng();
        for _ in 0..10 {
            assert_eq!(m.sample(0, &mut r), 0.5);
        }
    }

    #[test]
    fn uniform_within_bounds() {
        let m = DelayModel::Uniform { lo: 0.1, hi: 0.2 };
        let mut r = rng();
        for _ in 0..100 {
            let d = m.sample(0, &mut r);
            assert!((0.1..0.2).contains(&d));
        }
    }

    #[test]
    fn exponential_mean_close() {
        let m = DelayModel::Exponential { mean: 0.01 };
        let mut r = rng();
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| m.sample(0, &mut r)).sum::<f64>() / n as f64;
        assert!((mean - 0.01).abs() < 0.001, "mean {mean}");
    }

    #[test]
    fn bandwidth_scales_with_size() {
        let m = DelayModel::BandwidthLatency {
            base: 0.001,
            bytes_per_sec: 1e6,
            jitter: 0.0,
        };
        let mut r = rng();
        let small = m.sample(1_000, &mut r);
        let large = m.sample(1_000_000, &mut r);
        assert!((small - 0.002).abs() < 1e-9);
        assert!((large - 1.001).abs() < 1e-9);
    }

    #[test]
    fn pareto_exceeds_scale() {
        let m = DelayModel::Pareto {
            xm: 0.01,
            alpha: 2.0,
        };
        let mut r = rng();
        for _ in 0..100 {
            assert!(m.sample(0, &mut r) >= 0.01);
        }
    }

    #[test]
    fn pareto_has_heavy_tail() {
        let m = DelayModel::Pareto {
            xm: 0.01,
            alpha: 1.5,
        };
        let mut r = rng();
        let samples: Vec<f64> = (0..10_000).map(|_| m.sample(0, &mut r)).collect();
        let max = samples.iter().cloned().fold(0.0, f64::max);
        let median = {
            let mut s = samples.clone();
            s.sort_by(|a, b| a.partial_cmp(b).unwrap());
            s[s.len() / 2]
        };
        assert!(
            max > 20.0 * median,
            "heavy tail expected: max {max}, median {median}"
        );
    }

    #[test]
    fn delays_always_positive() {
        let models = [
            DelayModel::Fixed { seconds: 0.0 },
            DelayModel::Exponential { mean: 1e-15 },
            DelayModel::grid5000(),
        ];
        let mut r = rng();
        for m in models {
            assert!(m.sample(0, &mut r) > 0.0);
        }
    }

    #[test]
    fn grid5000_model_message_cost() {
        // A 7 MB model over 10 Gbps ≈ 5.6 ms + base + jitter: well under 0.1 s.
        let m = DelayModel::grid5000();
        let mut r = rng();
        let d = m.sample(7_000_000, &mut r);
        assert!(d > 0.005 && d < 0.1, "delay {d}");
    }
}
