//! Kernel ML bridge: the one real-math path shared by every strategy.
//!
//! Previously `real_grad` and the linear-LR-scaling optimizer step were
//! copied between the PS and AllReduce monoliths; this module is the single
//! implementation. Strategies differ only in *when* they call it: BSP and
//! ring strategies aggregate a sample-weighted mean at the barrier/round
//! close ([`weighted_step`]), ASP applies each push immediately
//! ([`asp_step`]).

use super::kernel::Kernel;
use crate::config::ExecutionMode;
use antdt_ml::{FactorizationMachine, Sgd};

/// Real-math state: the model, its optimizer and the buffers the per-iteration
/// math reuses instead of allocating: the aggregation/scaling buffer, the
/// sample-index list and the gradients returned after their step.
pub struct MathState {
    pub(crate) model: FactorizationMachine,
    pub(crate) opt: Sgd,
    pub(crate) agg: Vec<f32>,
    idx: Vec<u64>,
    spare: Vec<Vec<f32>>,
}

impl MathState {
    pub(crate) fn new(model: FactorizationMachine, opt: Sgd) -> Self {
        let agg = vec![0.0; model.n_params()];
        MathState { model, opt, agg, idx: Vec::new(), spare: Vec::new() }
    }
}

/// Snapshots and forks copy the model and optimizer; the scratch buffers
/// start empty and refill on use.
impl Clone for MathState {
    fn clone(&self) -> Self {
        MathState::new(self.model.clone(), self.opt)
    }
}

impl Kernel {
    /// Compute the real gradient for the samples worker `w` just took (math
    /// mode): the consumed-but-uncommitted indices across its open leases.
    /// The buffer comes from the recycled gradients when one is free; hand it
    /// back with [`recycle`] after its step.
    pub(crate) fn real_grad(&mut self, w: usize, took: u64) -> Option<Vec<f32>> {
        let math = self.math.as_mut()?;
        let ExecutionMode::Real { dataset, .. } = &self.cfg.execution else {
            return None;
        };
        math.idx.clear();
        for lease in &self.workers[w].leases {
            if lease.consumed > lease.committed {
                let order = lease.order.as_ref()?;
                math.idx
                    .extend_from_slice(&order[lease.committed as usize..lease.consumed as usize]);
            }
        }
        debug_assert_eq!(math.idx.len() as u64, took);
        let mut grad = match math.spare.pop() {
            Some(mut g) => {
                g.fill(0.0);
                g
            }
            None => vec![0.0f32; math.model.n_params()],
        };
        math.model.grad_batch(dataset, &math.idx, &mut grad);
        Some(grad)
    }
}

/// Return a gradient from [`Kernel::real_grad`] once its step has been taken.
pub(crate) fn recycle(math: &mut Option<MathState>, grad: Vec<f32>) {
    if let Some(math) = math.as_mut() {
        math.spare.push(grad);
    }
}

/// One synchronous-close optimizer step over the contributed gradients:
/// `(samples, gradient)` pairs, sample-weighted mean, then **linear
/// learning-rate scaling** — an iteration that realized only part of the
/// global batch (stragglers dropped, epoch tail) takes a proportionally
/// smaller step, so the training is equivalent to fixed-B SGD regardless of
/// mitigation actions.
pub(crate) fn weighted_step(
    math: &mut Option<MathState>,
    contribs: &[(u64, &[f32])],
    global_batch: u64,
) {
    let Some(math) = math.as_mut() else { return };
    let total: u64 = contribs.iter().map(|c| c.0).sum();
    if total == 0 {
        return;
    }
    let lr_frac = (total as f32 / global_batch.max(1) as f32).min(1.0);
    math.agg.iter_mut().for_each(|x| *x = 0.0);
    for (took, g) in contribs {
        let wgt = *took as f32 / total as f32 * lr_frac;
        for (a, b) in math.agg.iter_mut().zip(*g) {
            *a += b * wgt;
        }
    }
    math.opt.step(math.model.params_mut(), &math.agg);
}

/// One asynchronous optimizer step: the push applies immediately, scaled by
/// its share of the global batch (ASP linear scaling — each push steps in
/// proportion to its share, so slow/partial batches don't overstep).
pub(crate) fn asp_step(
    math: &mut Option<MathState>,
    grad: &[f32],
    took: u64,
    n_workers: usize,
    global_batch: u64,
) {
    let n = n_workers.max(1) as f32;
    let lr_frac = (took as f32 * n / global_batch.max(1) as f32).min(1.0);
    let math = math.as_mut().unwrap();
    if lr_frac == 1.0 {
        math.opt.step(math.model.params_mut(), grad);
    } else {
        for (a, g) in math.agg.iter_mut().zip(grad) {
            *a = g * lr_frac;
        }
        math.opt.step(math.model.params_mut(), &math.agg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 2-param toy model; `params_mut` starts at zero and SGD applies
    /// `p -= lr * g`, so a step's magnitude reads the effective LR directly.
    fn toy_math(lr: f32) -> Option<MathState> {
        Some(MathState::new(FactorizationMachine::new(1, 0, 0.0), Sgd::new(lr)))
    }

    fn params(math: &Option<MathState>) -> Vec<f32> {
        math.as_ref().unwrap().model.params().to_vec()
    }

    #[test]
    fn weighted_step_full_batch_is_sample_weighted_mean() {
        let mut math = toy_math(1.0);
        let n = params(&math).len();
        let g1 = vec![1.0f32; n];
        let g2 = vec![4.0f32; n];
        // 3:1 sample weighting at exactly the global batch → no LR shrink.
        weighted_step(&mut math, &[(300, &g1), (100, &g2)], 400);
        let p = params(&math);
        // mean = 0.75·1 + 0.25·4 = 1.75; step = -lr·mean.
        for x in p {
            assert!((x + 1.75).abs() < 1e-6, "got {x}");
        }
    }

    #[test]
    fn weighted_step_partial_batch_scales_linearly() {
        // Epoch tail: only half the global batch materialized. The step must
        // shrink by exactly took/global_batch (linear LR scaling).
        let mut full = toy_math(1.0);
        let mut tail = toy_math(1.0);
        let n = params(&full).len();
        let g = vec![2.0f32; n];
        weighted_step(&mut full, &[(400, &g)], 400);
        weighted_step(&mut tail, &[(200, &g)], 400);
        let (pf, pt) = (params(&full), params(&tail));
        for (f, t) in pf.iter().zip(&pt) {
            assert!((t - 0.5 * f).abs() < 1e-6, "tail step {t} != half of full {f}");
        }
    }

    #[test]
    fn weighted_step_overfull_batch_clamps_lr_frac() {
        // Backup-worker race: more samples than the global batch arrived.
        // lr_frac clamps at 1.0 — the step must not overshoot the full-batch
        // step magnitude.
        let mut exact = toy_math(1.0);
        let mut over = toy_math(1.0);
        let n = params(&exact).len();
        let g = vec![1.0f32; n];
        weighted_step(&mut exact, &[(400, &g)], 400);
        weighted_step(&mut over, &[(600, &g)], 400);
        assert_eq!(params(&exact), params(&over));
    }

    #[test]
    fn weighted_step_ignores_empty_contributions() {
        let mut math = toy_math(1.0);
        let before = params(&math);
        weighted_step(&mut math, &[], 400);
        assert_eq!(params(&math), before);
        let mut none: Option<MathState> = None;
        weighted_step(&mut none, &[], 400); // simulated mode: no-op, no panic
    }

    #[test]
    fn asp_step_partial_share_scales_linearly() {
        // 4 workers, global batch 400 → a full per-worker share is 100.
        // A 50-sample push (epoch tail) must step at exactly half strength.
        let mut full = toy_math(1.0);
        let mut tail = toy_math(1.0);
        let n = params(&full).len();
        let g = vec![3.0f32; n];
        asp_step(&mut full, &g, 100, 4, 400);
        asp_step(&mut tail, &g, 50, 4, 400);
        let (pf, pt) = (params(&full), params(&tail));
        for (f, t) in pf.iter().zip(&pt) {
            assert!((t - 0.5 * f).abs() < 1e-6, "tail step {t} != half of full {f}");
        }
    }

    #[test]
    fn asp_step_full_share_hits_fast_path() {
        // A full per-worker share (100 of 400 over 4 workers) is `lr_frac`
        // 1.0: the step is plain SGD on the raw gradient, `p -= lr · g`.
        let mut math = toy_math(0.5);
        let n = params(&math).len();
        let g: Vec<f32> = (0..n).map(|i| (i % 7) as f32 - 3.0).collect();
        asp_step(&mut math, &g, 100, 4, 400);
        let want: Vec<f32> = g.iter().map(|&x| -0.5 * x).collect();
        assert_eq!(params(&math), want);
    }
}

/// Known answers for small real-math jobs: the holdout AUC and an FNV-1a hash
/// of the trained parameters' bits. The values were produced by the
/// row-at-a-time FM kernel and the index-permutation AUC; any drift in the
/// gradient, optimizer-step or AUC arithmetic changes them.
#[cfg(test)]
mod known_answers {
    use super::super::strategy::PrefixRun;
    use crate::config::{ExecutionMode, JobConfig, MAX_SIM_TIME};
    use antdt_workloads::cluster::{cluster_a_scaled, cluster_b};
    use antdt_workloads::{ctr, CtrConfig, Scenario};

    fn real(cfg: JobConfig) -> JobConfig {
        let (train, holdout) =
            ctr::generate(&CtrConfig::default().with_samples(6_000)).split_holdout(0.2);
        let n = train.len() as u64;
        cfg.with_samples(n)
            .with_epochs(2)
            .with_batches_per_shard(2)
            .with_execution(ExecutionMode::Real { dataset: train, holdout, latent_k: 8, lr: 0.4 })
    }

    /// `(auc bits, parameter hash)` of `cfg` run to completion.
    fn run(cfg: JobConfig) -> (u64, u64) {
        let mut run = PrefixRun::new(&cfg);
        run.advance_until(MAX_SIM_TIME);
        let params = run.k.math.as_ref().unwrap().model.params();
        let hash = params.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, p| {
            (h ^ u64::from(p.to_bits())).wrapping_mul(0x0100_0000_01b3)
        });
        (run.finish().auc.unwrap().to_bits(), hash)
    }

    /// Ring AllReduce on Cluster-B: the sample-weighted `weighted_step` path.
    #[test]
    fn allreduce_real_run_is_pinned() {
        let cfg = real(JobConfig::allreduce(cluster_b(), Scenario::None).with_global_batch(768));
        let (auc, hash) = run(cfg);
        assert_eq!(auc, 0x3fe5_94fc_bdd3_f298, "auc {}", f64::from_bits(auc));
        assert_eq!(hash, 0x4574_3734_9599_88c3);
    }

    /// PS-ASP with 3 workers over a 1,000-sample global batch: quotas of 333
    /// push at `lr_frac` 0.999, so `asp_step` takes its scaled branch.
    #[test]
    fn asp_real_run_is_pinned() {
        let cfg = real(
            JobConfig::ps_asp(cluster_a_scaled(3, 2), Scenario::None).with_global_batch(1_000),
        );
        let (auc, hash) = run(cfg);
        assert_eq!(auc, 0x3fe6_49a9_86a4_e35a, "auc {}", f64::from_bits(auc));
        assert_eq!(hash, 0x461d_5d2a_fc0b_8036);
    }

    /// PS-BSP with 3 workers: `BspFlavor::try_close` takes one
    /// sample-weighted `weighted_step` per barrier.
    #[test]
    fn bsp_real_run_is_pinned() {
        let cfg =
            real(JobConfig::ps_bsp(cluster_a_scaled(3, 2), Scenario::None).with_global_batch(768));
        let (auc, hash) = run(cfg);
        assert_eq!(auc, 0x3fe5_9666_d6eb_725b, "auc {}", f64::from_bits(auc));
        assert_eq!(hash, 0xa238_9bc4_9dac_8d1b);
    }
}
