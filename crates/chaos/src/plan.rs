//! The fault-plan DSL: a timestamped list of faults that a
//! chaos drill injects into a job. Plans are cluster-shape-agnostic until
//! [`FaultPlan::compile`] lowers them onto a concrete [`antdt_core::JobConfig`]'s
//! injection hooks; `JobConfig::validate` then checks every target against the
//! actual cluster, so a plan written for the wrong topology fails loudly
//! before the simulation starts.

use antdt_core::{ChaosInjection, InjectedFault};
use antdt_sim::rng::StdRng;

/// A node slot targeted by a fault. Slots are stable across restarts (the
/// runtime resolves the current incarnation when the fault fires).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeRef {
    Worker(u32),
    Server(u32),
}

impl NodeRef {
    fn expect_worker(self, what: &str) -> u32 {
        match self {
            NodeRef::Worker(w) => w,
            NodeRef::Server(_) => panic!("{what} targets a server; only workers are supported"),
        }
    }
}

/// One fault kind in the DSL. Mirrors the runtime's [`InjectedFault`]
/// vocabulary but stays independent of it so plans can be stored and
/// replayed without dragging the whole job configuration along.
#[derive(Debug, Clone, PartialEq)]
pub enum Fault {
    /// Kill a node; the job's normal failover path (requeue + replacement
    /// pod, or checkpoint rollback) runs as usual.
    KillNode { node: NodeRef },
    /// Kill a worker with failover disabled — no shard requeue, no
    /// replacement. The canonical barrier-stall drill: the job can never
    /// complete and the liveness watchdog must catch it.
    KillNodeNoFailover { node: NodeRef },
    /// Extra scheduler pending time charged to the worker's next restart.
    RestartDelay { node: NodeRef, extra_secs: f64 },
    /// Divide the worker's link bandwidth by `factor` for `window_secs`.
    NetworkDegrade { node: NodeRef, factor: f64, window_secs: f64 },
    /// The DDS service is unreachable for `window_secs`.
    DdsOutage { window_secs: f64 },
    /// Drop each Agent→Monitor report with probability `prob` (seeded) for
    /// `window_secs`.
    DropReports { prob: f64, window_secs: f64, seed: u64 },
    /// Degrade the control bus for `window_secs`: every control message
    /// (report, directive, ack) rides a lossy delayed channel instead of the
    /// job's configured one. The drill for the no-stale-directive invariant:
    /// directives delayed past a kill must be fence-rejected, never applied
    /// by the wrong incarnation.
    ControlDegrade { latency_secs: f64, loss_prob: f64, window_secs: f64, seed: u64 },
}

/// A fault scheduled at an absolute simulated time.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultEvent {
    pub at_secs: f64,
    pub fault: Fault,
}

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

    /// Lower the plan onto the runtime's injection hooks, sorted by fire time
    /// (ties keep plan order).
    pub fn compile(&self) -> Vec<ChaosInjection> {
        let mut out: Vec<ChaosInjection> = self
            .events
            .iter()
            .map(|e| ChaosInjection {
                at_secs: e.at_secs,
                fault: match e.fault.clone() {
                    Fault::KillNode { node } => match node {
                        NodeRef::Worker(w) => InjectedFault::KillWorker { w },
                        NodeRef::Server(s) => InjectedFault::KillServer { s },
                    },
                    Fault::KillNodeNoFailover { node } => InjectedFault::KillWorkerNoFailover {
                        w: node.expect_worker("KillNodeNoFailover"),
                    },
                    Fault::RestartDelay { node, extra_secs } => InjectedFault::RestartDelay {
                        w: node.expect_worker("RestartDelay"),
                        extra_secs,
                    },
                    Fault::NetworkDegrade { node, factor, window_secs } => {
                        InjectedFault::NetworkDegrade {
                            w: node.expect_worker("NetworkDegrade"),
                            factor,
                            window_secs,
                        }
                    }
                    Fault::DdsOutage { window_secs } => InjectedFault::DdsOutage { window_secs },
                    Fault::DropReports { prob, window_secs, seed } => {
                        InjectedFault::DropReports { prob, window_secs, seed }
                    }
                    Fault::ControlDegrade { latency_secs, loss_prob, window_secs, seed } => {
                        InjectedFault::ControlDegrade { latency_secs, loss_prob, window_secs, seed }
                    }
                },
            })
            .collect();
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
    fn compile_sorts_by_time_and_maps_kinds() {
        let plan = FaultPlan::new("p")
            .at(30.0, Fault::DdsOutage { window_secs: 10.0 })
            .at(10.0, Fault::KillNode { node: NodeRef::Worker(2) });
        let inj = plan.compile();
        assert_eq!(inj.len(), 2);
        assert_eq!(inj[0].at_secs, 10.0);
        assert_eq!(inj[0].fault, InjectedFault::KillWorker { w: 2 });
        assert_eq!(inj[1].fault, InjectedFault::DdsOutage { window_secs: 10.0 });
    }

    #[test]
    #[should_panic(expected = "targets a server")]
    fn no_failover_kill_of_server_is_rejected_at_compile() {
        FaultPlan::new("bad")
            .at(1.0, Fault::KillNodeNoFailover { node: NodeRef::Server(0) })
            .compile();
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
