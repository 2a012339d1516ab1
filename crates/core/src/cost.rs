//! The simulated-time cost model.
//!
//! The paper's Figures 3(b)/(d) and its 65% / ~30% overhead numbers are
//! wall-clock measurements on Grid5000. We reproduce their *shape* with an
//! explicit cost model: every step of every system charges simulated
//! seconds for gradient computation, serialization/runtime overhead,
//! aggregation and network transfer. The constants below are calibrated so
//! that, at the paper's scale (d = 1.75M parameters, batch 128, 18 workers,
//! 10 Gbps links), the per-step cost ratio of
//! `vanilla TF : vanilla GuanYu : Byzantine GuanYu` lands near the paper's
//! `1 : 1.65 : 1.65·1.33` (`repro overhead` prints the measured values).

use serde::{Deserialize, Serialize};

/// Per-operation time constants (all in seconds, scaled by problem size).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    /// Seconds per (example × parameter) of a forward+backward pass.
    /// Calibrated: 0.25 s for batch 128 on the 1.75M-parameter CNN
    /// (2×Xeon E5-2630-class throughput).
    pub grad_secs_per_example_param: f64,
    /// Seconds per parameter of the TF↔numpy↔protobuf conversions and
    /// graph-feeding overhead the paper attributes its 65% gap to (§5.3,
    /// "context switch between TensorFlow and numpy/python runtimes").
    /// Charged only when `low_level_runtime` is true.
    pub convert_secs_per_param: f64,
    /// Seconds per (pair × parameter) of the Multi-Krum distance matrix —
    /// its cost is Θ(n²·d).
    pub krum_secs_per_pair_param: f64,
    /// Seconds per (input × parameter) of a coordinate-wise median /
    /// trimmed-mean style fold — Θ(n·d) with a log-factor folded into the
    /// constant.
    pub median_secs_per_input_param: f64,
    /// Seconds per parameter of the SGD update itself.
    pub update_secs_per_param: f64,
    /// Link bandwidth in bytes/second (10 Gbps default).
    pub net_bytes_per_sec: f64,
    /// Fixed per-message network latency in seconds.
    pub net_base_secs: f64,
    /// Whether this deployment pays the low-level-runtime conversion tax
    /// (all GuanYu variants do; the native vanilla-TF baseline does not).
    pub low_level_runtime: bool,
}

impl CostModel {
    /// The calibrated model for GuanYu-family deployments (pays the
    /// conversion tax).
    pub fn guanyu() -> Self {
        CostModel {
            grad_secs_per_example_param: 0.25 / (128.0 * 1.75e6),
            convert_secs_per_param: 5.0e-8,
            krum_secs_per_pair_param: 0.5e-9,
            median_secs_per_input_param: 2.0e-9,
            update_secs_per_param: 0.5e-9,
            net_bytes_per_sec: 10e9 / 8.0,
            net_base_secs: 100e-6,
            low_level_runtime: true,
        }
    }

    /// The calibrated model for the native vanilla-TF baseline: identical
    /// hardware, no conversion tax, highly-optimised runtime.
    pub fn vanilla_tf() -> Self {
        CostModel {
            low_level_runtime: false,
            ..Self::guanyu()
        }
    }

    /// Time for one worker to compute a gradient of dimension `d` on a
    /// mini-batch of `batch` examples.
    pub fn gradient_secs(&self, batch: usize, d: usize) -> f64 {
        self.grad_secs_per_example_param * batch as f64 * d as f64
    }

    /// One tensor↔runtime conversion of a `d`-dimensional vector (0 when
    /// the native runtime is used).
    pub fn convert_secs(&self, d: usize) -> f64 {
        if self.low_level_runtime {
            self.convert_secs_per_param * d as f64
        } else {
            0.0
        }
    }

    /// Multi-Krum over `n` vectors of dimension `d` (distance matrix
    /// dominates: n(n−1)/2 pairs).
    pub fn multikrum_secs(&self, n: usize, d: usize) -> f64 {
        let pairs = n * n.saturating_sub(1) / 2;
        self.krum_secs_per_pair_param * pairs as f64 * d as f64
    }

    /// Coordinate-wise median over `n` vectors of dimension `d`.
    pub fn median_secs(&self, n: usize, d: usize) -> f64 {
        self.median_secs_per_input_param * n as f64 * d as f64
    }

    /// Arithmetic mean over `n` vectors of dimension `d` (cheap fold; we
    /// charge it like one pass of the median constant's tenth).
    pub fn average_secs(&self, n: usize, d: usize) -> f64 {
        0.1 * self.median_secs_per_input_param * n as f64 * d as f64
    }

    /// The SGD parameter update.
    pub fn update_secs(&self, d: usize) -> f64 {
        self.update_secs_per_param * d as f64
    }

    /// Wire transfer of a `d`-dimensional `f32` vector.
    pub fn transfer_secs(&self, d: usize) -> f64 {
        self.net_base_secs + (d * 4) as f64 / self.net_bytes_per_sec
    }

    /// Bytes on the wire for a `d`-dimensional `f32` vector (plus a small
    /// fixed header, as protocol buffers would add).
    pub fn message_bytes(d: usize) -> usize {
        d * 4 + 64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const D: usize = 1_750_000;

    #[test]
    fn gradient_cost_calibration() {
        let m = CostModel::guanyu();
        let g = m.gradient_secs(128, D);
        assert!((g - 0.25).abs() < 0.01, "batch-128 gradient {g}");
        // batch 32 is 4x cheaper
        assert!((m.gradient_secs(32, D) - 0.0625).abs() < 0.01);
    }

    #[test]
    fn conversion_tax_only_for_low_level() {
        assert!(CostModel::guanyu().convert_secs(D) > 0.05);
        assert_eq!(CostModel::vanilla_tf().convert_secs(D), 0.0);
    }

    #[test]
    fn transfer_matches_bandwidth() {
        let m = CostModel::guanyu();
        // 7 MB at 10 Gbps ≈ 5.6 ms
        let t = m.transfer_secs(D);
        assert!(t > 0.004 && t < 0.01, "transfer {t}");
    }

    #[test]
    fn multikrum_scales_quadratically() {
        let m = CostModel::guanyu();
        let a = m.multikrum_secs(13, D);
        let b = m.multikrum_secs(26, D);
        assert!(b / a > 3.5, "quadratic growth expected, got {}", b / a);
    }

    #[test]
    fn per_step_ratios_match_paper_shape() {
        // Assemble the per-step critical path of each system at the paper's
        // scale and check the ordering + rough magnitudes of the overheads.
        let tf = CostModel::vanilla_tf();
        let gy = CostModel::guanyu();
        let batch = 128;
        let workers = 18;
        let q_grad = 13;
        let q_model = 5;

        // vanilla TF: grad + 2 transfers + average over all workers + update
        let t_tf = tf.gradient_secs(batch, D)
            + 2.0 * tf.transfer_secs(D)
            + tf.average_secs(workers, D)
            + tf.update_secs(D);

        // vanilla GuanYu: same graph, our communication: + conversions at
        // worker (model in, gradient out) and server (gradient in, model out)
        let t_gyv = gy.gradient_secs(batch, D)
            + 2.0 * gy.transfer_secs(D)
            + gy.average_secs(workers, D)
            + gy.update_secs(D)
            + 2.0 * gy.convert_secs(D); // 2 conversions on the critical path

        // Byzantine GuanYu: + median at worker, multi-krum at server,
        // inter-server exchange (transfer + median)
        let t_gyb = t_gyv
            + gy.median_secs(q_model, D)
            + gy.multikrum_secs(q_grad, D)
            + gy.transfer_secs(D)
            + gy.median_secs(q_model, D);

        assert!(t_tf < t_gyv && t_gyv < t_gyb, "{t_tf} {t_gyv} {t_gyb}");
        let low_level_overhead = t_gyv / t_tf;
        assert!(
            (1.3..2.3).contains(&low_level_overhead),
            "low-level runtime overhead {low_level_overhead} should be near the paper's 1.65"
        );
        let byz_overhead = t_gyb / t_gyv;
        assert!(
            (1.15..1.9).contains(&byz_overhead),
            "Byzantine-resilience overhead {byz_overhead} should be near the paper's 1.33"
        );
    }

    #[test]
    fn message_bytes_has_header() {
        assert_eq!(CostModel::message_bytes(10), 104);
    }

    #[test]
    fn serde_roundtrip() {
        // JSON decimal printing may lose the last ulp of an f64 constant;
        // a *re*-serialised value must be a fixed point.
        let m = CostModel::guanyu();
        let json = serde_json::to_string(&m).unwrap();
        let back: CostModel = serde_json::from_str(&json).unwrap();
        let json2 = serde_json::to_string(&back).unwrap();
        let back2: CostModel = serde_json::from_str(&json2).unwrap();
        assert_eq!(back, back2);
        assert!(
            (back.grad_secs_per_example_param / m.grad_secs_per_example_param - 1.0).abs() < 1e-12
        );
    }
}
