//! AntDT-DD — the solution for dedicated clusters with heterogeneous hardware
//! (paper §VI-B).
//!
//! Deterministic stragglers (V100 vs P100) don't drift, so the policy measures
//! once, solves Eq. 4 (joint batch size + gradient accumulation under the
//! saturation/memory box constraints) and emits a single `ADJUST_BS`; after
//! that it stays silent ("adjusting the batch size only needs to be performed
//! once since these stragglers are deterministic").

use crate::action::Action;
use crate::policy::{MitigationPolicy, PolicyCtx};
use crate::solve::{grad_accum_allocation, AffineCost, Eq4Class, Eq4Config};
use antdt_monitor::MonitorSnapshot;
use antdt_sim::SimTime;

/// Static description of one device class; workers are laid out in class order
/// (first `count` workers are class 0, the next are class 1, …) matching the
/// cluster builders.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceClassSpec {
    pub count: u32,
    /// Fixed per-micro-batch overhead (profiled; paper footnote 4 measures the
    /// saturation curve "by varying the batch size").
    pub c0_secs: f64,
    /// `B̂ᵢᵐⁱⁿ` — saturation point.
    pub b_min: u64,
    /// `B̂ᵢᵐᵃˣ` — memory cap (95% GPU memory).
    pub b_max: u64,
}

/// `Ĉᵐⁱⁿ`, the fewest gradient-accumulation steps per round.
const C_MIN: u32 = 1;
/// `Ĉᵐᵃˣ`, the most gradient-accumulation steps per round: a round holds at
/// most `Σ count·C_MAX·b_max` samples.
pub const C_MAX: u32 = 5;
/// Decision ticks to wait for throughput statistics to stabilize before the
/// one-shot solve.
const WARMUP_TICKS: u32 = 1;

#[derive(Debug, Clone)]
pub struct AntDtDd {
    classes: Vec<DeviceClassSpec>,
    ticks: u32,
    done: bool,
}

impl AntDtDd {
    pub fn new(classes: Vec<DeviceClassSpec>) -> Self {
        AntDtDd { classes, ticks: 0, done: false }
    }

    /// Estimate each class's marginal per-sample cost from the measured BPTs:
    /// `per_sample = (mean BPT − c0) / batch`, averaged over the class's
    /// workers. Returns `None` until every class has at least one measurement.
    fn estimate_classes(&self, snap: &MonitorSnapshot) -> Option<Vec<Eq4Class>> {
        let mut out = Vec::with_capacity(self.classes.len());
        let mut at = 0usize;
        for spec in &self.classes {
            let members = snap.workers.get(at..at + spec.count as usize)?;
            at += spec.count as usize;
            let mut sum = 0.0;
            let mut n = 0u32;
            for s in members {
                if let (Some(bpt), Some(batch)) = (s.bpt_trans, s.batch) {
                    if batch > 0 && bpt > spec.c0_secs {
                        sum += (bpt - spec.c0_secs) / batch as f64;
                        n += 1;
                    }
                }
            }
            if n == 0 {
                return None;
            }
            out.push(Eq4Class {
                count: spec.count,
                cost: AffineCost { c0: spec.c0_secs, per_sample: sum / n as f64 },
                b_min: spec.b_min,
                b_max: spec.b_max,
            });
        }
        Some(out)
    }
}

impl MitigationPolicy for AntDtDd {
    fn clone_box(&self) -> Box<dyn MitigationPolicy> {
        Box::new(self.clone())
    }

    fn decide(&mut self, _now: SimTime, snap: &MonitorSnapshot, ctx: &PolicyCtx) -> Vec<Action> {
        if self.done {
            return vec![Action::None];
        }
        self.ticks += 1;
        if self.ticks <= WARMUP_TICKS {
            return vec![Action::None];
        }
        let Some(classes) = self.estimate_classes(snap) else {
            return vec![Action::None];
        };
        let Some(sol) = grad_accum_allocation(
            Eq4Config { global_batch: ctx.global_batch, c_min: C_MIN, c_max: C_MAX },
            &classes,
        ) else {
            return vec![Action::None];
        };

        // Expand per-class (B, C) to per-worker vectors.
        let mut batch_sizes = Vec::with_capacity(ctx.n_workers);
        let mut accums = Vec::with_capacity(ctx.n_workers);
        for (spec, &(b, c)) in self.classes.iter().zip(&sol.per_class) {
            for _ in 0..spec.count {
                batch_sizes.push(b);
                accums.push(c);
            }
        }
        self.done = true;
        vec![Action::AdjustBs { batch_sizes: batch_sizes.into(), grad_accum: Some(accums.into()) }]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use antdt_monitor::{ClusterInfo, NodeId, NodeStats};

    fn gpu_cfg() -> Vec<DeviceClassSpec> {
        vec![
            DeviceClassSpec { count: 2, c0_secs: 0.15, b_min: 16, b_max: 112 }, // V100-ish
            DeviceClassSpec { count: 2, c0_secs: 0.15, b_min: 16, b_max: 96 },  // P100-ish
        ]
    }

    fn snap_with_bpts(bpts: &[f64], batch: u64) -> MonitorSnapshot {
        MonitorSnapshot {
            workers: bpts
                .iter()
                .enumerate()
                .map(|(i, &t)| NodeStats {
                    node: NodeId::worker(i as u32),
                    bpt_trans: Some(t),
                    bpt_per: Some(t),
                    throughput: Some(batch as f64 / t),
                    batch: Some(batch),
                    alive: true,
                })
                .collect(),
            servers: vec![],
            cluster: ClusterInfo::default(),
        }
    }

    fn ctx() -> PolicyCtx {
        PolicyCtx { global_batch: 384, n_workers: 4, n_servers: 0 }
    }

    #[test]
    fn one_shot_solve_then_silence() {
        let mut p = AntDtDd::new(gpu_cfg());
        // V100s at 96 samples: 0.15 + 96*0.001733 = 0.316; P100s: 0.649.
        let s = snap_with_bpts(&[0.316, 0.316, 0.649, 0.649], 96);
        // Warmup tick.
        assert_eq!(p.decide(SimTime::ZERO, &s, &ctx()), vec![Action::None]);
        // The solve tick.
        let actions = p.decide(SimTime::from_secs_f64(300.0), &s, &ctx());
        let Action::AdjustBs { batch_sizes, grad_accum } = &actions[0] else {
            panic!("expected AdjustBs, got {actions:?}");
        };
        let accums = grad_accum.as_ref().expect("accumulation vector present");
        assert_eq!(batch_sizes.len(), 4);
        assert_eq!(accums.len(), 4);
        // Fast class processes at least as many samples per round as slow.
        let fast = batch_sizes[0] * accums[0] as u64;
        let slow = batch_sizes[2] * accums[2] as u64;
        assert!(fast >= slow, "fast {fast} slow {slow}");
        // Total per round covers the global batch.
        let total: u64 = batch_sizes.iter().zip(accums.iter()).map(|(&b, &c)| b * c as u64).sum();
        assert!(total >= 384);
        assert!(p.done);
        // Deterministic stragglers: never acts again.
        assert_eq!(p.decide(SimTime::from_secs_f64(600.0), &s, &ctx()), vec![Action::None]);
    }

    #[test]
    fn waits_for_measurements() {
        let mut p = AntDtDd::new(gpu_cfg());
        let empty = MonitorSnapshot {
            workers: (0..4)
                .map(|i| NodeStats {
                    node: NodeId::worker(i),
                    bpt_trans: None,
                    bpt_per: None,
                    throughput: None,
                    batch: None,
                    alive: true,
                })
                .collect(),
            servers: vec![],
            cluster: ClusterInfo::default(),
        };
        assert_eq!(p.decide(SimTime::ZERO, &empty, &ctx()), vec![Action::None]);
        assert_eq!(p.decide(SimTime::ZERO, &empty, &ctx()), vec![Action::None]);
        assert!(!p.done);
    }

    #[test]
    fn per_sample_estimation_recovers_the_profile() {
        let p = AntDtDd::new(gpu_cfg());
        let s = snap_with_bpts(&[0.316, 0.316, 0.649, 0.649], 96);
        let classes = p.estimate_classes(&s).unwrap();
        assert!((classes[0].cost.per_sample - (0.316 - 0.15) / 96.0).abs() < 1e-9);
        assert!((classes[1].cost.per_sample - (0.649 - 0.15) / 96.0).abs() < 1e-9);
    }
}
