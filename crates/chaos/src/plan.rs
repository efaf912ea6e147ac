//! The fault-plan DSL: a named, timestamped list of `antdt-core`
//! [`FaultEvent`]s that a chaos drill injects into a job. Plans are
//! cluster-shape-agnostic until `JobConfig::validate` checks every target
//! against the actual cluster, so a plan written for the wrong topology fails
//! loudly before the simulation starts.

use antdt_core::{Fault, FaultEvent, NodeRef};
use antdt_sim::rng::StdRng;

/// A named, ordered fault schedule — the unit a [`crate::ChaosDriver`] drills.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    pub name: String,
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    pub fn new(name: impl Into<String>) -> Self {
        FaultPlan { name: name.into(), events: Vec::new() }
    }

    pub fn at(mut self, at_secs: f64, fault: Fault) -> Self {
        self.events.push(FaultEvent { at_secs, fault });
        self
    }

    /// True when any event kills a node (with or without failover) — such
    /// plans requeue in-flight shards, so the at-most-once audit is expected
    /// to degrade.
    pub fn has_kills(&self) -> bool {
        self.events
            .iter()
            .any(|e| matches!(e.fault, Fault::KillNode { .. } | Fault::KillNodeNoFailover { .. }))
    }

    /// True when any event disables failover — the job is expected to stall.
    pub fn expects_stall(&self) -> bool {
        self.events.iter().any(|e| matches!(e.fault, Fault::KillNodeNoFailover { .. }))
    }

    /// The plan's events sorted by fire time (ties keep plan order), ready
    /// for `JobConfig::with_injections`.
    pub fn compile(&self) -> Vec<FaultEvent> {
        let mut out = self.events.clone();
        out.sort_by(|a, b| a.at_secs.partial_cmp(&b.at_secs).expect("finite times"));
        out
    }
}

/// Bounds for the seeded random-plan generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanBounds {
    pub n_workers: u32,
    /// Faults land in `[0.05, 0.75] × horizon` so they hit a running job.
    pub horizon_secs: f64,
    pub max_events: usize,
}

impl FaultPlan {
    /// Generate a random — but fully seeded, hence reproducible — plan for
    /// fuzz drills. Only recoverable faults are drawn (no `NoFailover`
    /// kills): a random plan must leave the job completable so the fuzz
    /// harness can assert integrity on completion.
    pub fn random(seed: u64, bounds: &PlanBounds) -> Self {
        assert!(bounds.n_workers > 0 && bounds.max_events > 0);
        let mut rng = StdRng::seed_from_u64(seed);
        let n_events = rng.gen_range(1..=bounds.max_events);
        let mut plan = FaultPlan::new(format!("random-{seed}"));
        for i in 0..n_events {
            let at_secs = bounds.horizon_secs * rng.gen_range(0.05..0.75);
            let w = rng.gen_range(0..bounds.n_workers);
            let fault = match rng.gen_range(0u32..100) {
                0..=39 => Fault::KillNode { node: NodeRef::Worker(w) },
                40..=49 => Fault::RestartDelay {
                    node: NodeRef::Worker(w),
                    extra_secs: rng.gen_range(5.0..60.0),
                },
                50..=64 => Fault::NetworkDegrade {
                    node: NodeRef::Worker(w),
                    factor: rng.gen_range(2.0..10.0),
                    window_secs: rng.gen_range(10.0..60.0),
                },
                65..=79 => Fault::DdsOutage { window_secs: rng.gen_range(5.0..30.0) },
                _ => Fault::DropReports {
                    prob: rng.gen_range(0.1..0.9),
                    window_secs: rng.gen_range(10.0..60.0),
                    seed: seed.wrapping_mul(31).wrapping_add(i as u64),
                },
            };
            plan = plan.at(at_secs, fault);
        }
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compile_sorts_by_time_keeping_plan_order_on_ties() {
        let outage = Fault::DdsOutage { window_secs: 10.0 };
        let kill = |w| Fault::KillNode { node: NodeRef::Worker(w) };
        let plan = FaultPlan::new("p").at(30.0, outage.clone()).at(10.0, kill(2)).at(10.0, kill(1));
        let at: Vec<(f64, Fault)> =
            plan.compile().into_iter().map(|e| (e.at_secs, e.fault)).collect();
        assert_eq!(at, vec![(10.0, kill(2)), (10.0, kill(1)), (30.0, outage)]);
    }

    #[test]
    fn random_plans_are_reproducible_and_in_bounds() {
        let bounds = PlanBounds { n_workers: 4, horizon_secs: 100.0, max_events: 5 };
        let a = FaultPlan::random(7, &bounds);
        let b = FaultPlan::random(7, &bounds);
        assert_eq!(a, b, "same seed must yield the identical plan");
        assert_ne!(a, FaultPlan::random(8, &bounds), "different seed, different plan");
        assert!(!a.events.is_empty() && a.events.len() <= 5);
        for e in &a.events {
            assert!(e.at_secs >= 5.0 && e.at_secs <= 75.0);
        }
        assert!(!a.expects_stall(), "random plans must stay completable");
    }

    #[test]
    fn kill_classification_helpers() {
        let kill = FaultPlan::new("k").at(1.0, Fault::KillNode { node: NodeRef::Worker(0) });
        let stall =
            FaultPlan::new("s").at(1.0, Fault::KillNodeNoFailover { node: NodeRef::Worker(0) });
        let soft = FaultPlan::new("o").at(1.0, Fault::DdsOutage { window_secs: 5.0 });
        assert!(kill.has_kills() && !kill.expects_stall());
        assert!(stall.has_kills() && stall.expects_stall());
        assert!(!soft.has_kills() && !soft.expects_stall());
    }
}
