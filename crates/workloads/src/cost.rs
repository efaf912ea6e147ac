//! Model cost profiles: how long the forward+backward pass of a batch takes on
//! the *reference* device, how many bytes the gradients occupy, and what the
//! server-side work per update costs.
//!
//! All figures are calibrated so that baseline JCTs land in the same ballpark as
//! the paper's reported numbers (§VII); the experiments only ever compare
//! *ratios* between methods on identical profiles.

/// Affine batch-compute cost `t(B) = c0 + c1·B` in seconds on the reference
/// device. CPU profiles use a near-zero `c0` (paper Fig. 7 shows pure
/// linearity); GPU profiles have a visible `c0` (kernel launch / framework
/// overhead), producing the flat-then-linear shape of paper Fig. 8 and making
/// the batch-size/accumulation trade-off of AntDT-DD non-trivial.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComputeCost {
    pub c0_secs: f64,
    pub per_sample_secs: f64,
}

impl ComputeCost {
    /// Time for a batch of `b` samples on a device `speed`× the reference
    /// (the fixed overhead does not shrink with a faster chip).
    #[inline]
    pub fn time(&self, b: u64, speed: f64) -> f64 {
        if b == 0 {
            return 0.0;
        }
        self.c0_secs + b as f64 * self.per_sample_secs / speed.max(f64::MIN_POSITIVE)
    }

    /// Throughput (samples/sec) at batch `b` on a device of the given speed.
    pub fn throughput(&self, b: u64, speed: f64) -> f64 {
        let t = self.time(b, speed);
        if t <= 0.0 {
            0.0
        } else {
            b as f64 / t
        }
    }
}

/// A full workload profile: worker compute + communication + server-side costs.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelProfile {
    pub name: &'static str,
    /// Worker forward+backward cost on the reference device.
    pub compute: ComputeCost,
    /// Gradient / parameter payload in bytes (drives `Tᵢᵐ` and AllReduce time).
    pub param_bytes: u64,
    /// Server cost to *aggregate* one worker's gradient piece into the running
    /// sum (cheap, per gradient).
    pub server_agg_secs: f64,
    /// Server cost to *apply* an optimizer update to its parameter shard
    /// (expensive: the IO-heavy part of a PS server). BSP pays this once per
    /// global iteration.
    pub server_apply_secs: f64,
    /// Per-push apply cost in ASP. ASP updates parameters on *every* worker
    /// push, so its total server work per global batch is
    /// `n·(agg + apply_asp)` — higher than BSP's `n·agg + apply` (the paper's
    /// "higher frequency to update the model parameters", §VII-B1b), which is
    /// why ASP loses to BSP under a server straggler.
    pub server_apply_asp_secs: f64,
}

impl ModelProfile {
    /// XDeepFM on the Criteo-like CTR workload (Cluster-A experiments).
    /// Reference worker: 16-core CPU; local batch 4096 ⇒ ≈ 2 s.
    pub fn xdeepfm() -> Self {
        ModelProfile {
            name: "xdeepfm",
            compute: ComputeCost { c0_secs: 0.05, per_sample_secs: 4.8e-4 },
            param_bytes: 40 * 1024 * 1024,
            server_agg_secs: 0.012,
            server_apply_secs: 0.55,
            server_apply_asp_secs: 0.08,
        }
    }

    /// ResNet-101 on the ImageNet-like workload (Cluster-B, reference = V100).
    pub fn resnet101() -> Self {
        ModelProfile {
            name: "resnet101",
            compute: ComputeCost { c0_secs: 0.15, per_sample_secs: 1.733e-3 },
            param_bytes: 170 * 1024 * 1024,
            server_agg_secs: 0.0,
            server_apply_secs: 0.0,
            server_apply_asp_secs: 0.0,
        }
    }

    /// MobileNets: lighter math but proportionally heavier fixed overhead, and a
    /// larger V100/P100 gap (memory-bandwidth-bound depthwise convolutions) —
    /// the paper observes the AntDT-DD advantage *growing* on this model.
    pub fn mobilenets() -> Self {
        ModelProfile {
            name: "mobilenets",
            compute: ComputeCost { c0_secs: 0.05, per_sample_secs: 5.8e-4 },
            param_bytes: 17 * 1024 * 1024,
            server_agg_secs: 0.0,
            server_apply_secs: 0.0,
            server_apply_asp_secs: 0.0,
        }
    }

    /// The in-house transformer ranking model (Cluster-C scalability runs).
    pub fn transformer_inhouse() -> Self {
        ModelProfile {
            name: "transformer-inhouse",
            compute: ComputeCost { c0_secs: 0.08, per_sample_secs: 1.6e-3 },
            param_bytes: 120 * 1024 * 1024,
            server_agg_secs: 0.010,
            server_apply_secs: 0.40,
            server_apply_asp_secs: 0.06,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speed_scales_only_the_variable_part() {
        let c = ComputeCost { c0_secs: 1.0, per_sample_secs: 0.01 };
        let slow = c.time(100, 1.0); // 1 + 1 = 2
        let fast = c.time(100, 2.0); // 1 + 0.5 = 1.5
        assert!((slow - 2.0).abs() < 1e-12);
        assert!((fast - 1.5).abs() < 1e-12);
    }

    #[test]
    fn zero_batch_costs_nothing() {
        let c = ComputeCost { c0_secs: 1.0, per_sample_secs: 0.01 };
        assert_eq!(c.time(0, 1.0), 0.0);
        assert_eq!(c.throughput(0, 1.0), 0.0);
    }

    #[test]
    fn throughput_improves_with_batch_on_gpu() {
        // Amortizing c0: bigger batches are more efficient per sample.
        let c = ModelProfile::resnet101().compute;
        assert!(c.throughput(96, 1.0) > c.throughput(16, 1.0));
    }

    #[test]
    fn xdeepfm_local_batch_matches_paper_scale() {
        // Local batch 4096 on a clean worker should take ~2s (so that ~1650
        // BSP iterations land near the paper's ~3800s clean JCT).
        let t = ModelProfile::xdeepfm().compute.time(4096, 1.0);
        assert!((1.5..3.0).contains(&t), "t = {t}");
    }
}
