//! Baseline policies the paper compares against (§VII-A3).

use crate::action::Action;
use crate::policy::{worker_throughputs, MitigationPolicy, PolicyCtx};
use crate::solve::lb_bsp_allocation;
use antdt_monitor::MonitorSnapshot;
use antdt_sim::SimTime;

/// Native BSP/ASP/DDP: never mitigates.
#[derive(Debug, Clone, Default)]
pub struct NoMitigation;

impl MitigationPolicy for NoMitigation {
    fn clone_box(&self) -> Box<dyn MitigationPolicy> {
        Box::new(self.clone())
    }

    fn decide(&mut self, _now: SimTime, _snap: &MonitorSnapshot, _ctx: &PolicyCtx) -> Vec<Action> {
        vec![Action::None]
    }
}

/// LB-BSP \[18\]: every tick, reallocate batch sizes proportionally to measured
/// throughput (clamped into memory caps). No replication, no kills.
#[derive(Debug, Clone)]
pub struct LbBsp {
    /// Per-worker memory caps (use `u64::MAX/2` on CPUs).
    pub caps: Vec<u64>,
    last_alloc: Option<Vec<u64>>,
}

impl LbBsp {
    pub fn new(caps: Vec<u64>) -> Self {
        LbBsp { caps, last_alloc: None }
    }
}

impl MitigationPolicy for LbBsp {
    fn clone_box(&self) -> Box<dyn MitigationPolicy> {
        Box::new(self.clone())
    }

    fn decide(&mut self, _now: SimTime, snap: &MonitorSnapshot, ctx: &PolicyCtx) -> Vec<Action> {
        let v = worker_throughputs(&snap.workers);
        if v.iter().all(|&x| x <= 0.0) {
            return vec![Action::None];
        }
        let alloc = lb_bsp_allocation(ctx.global_batch, &v, &self.caps);
        if self.last_alloc.as_ref() == Some(&alloc) {
            return vec![Action::None];
        }
        self.last_alloc = Some(alloc.clone());
        vec![Action::AdjustBs { batch_sizes: alloc.into(), grad_accum: None }]
    }
}

/// Backup Workers (Sync-OPT \[28\]): a static `b`; each BSP iteration proceeds
/// after the `n − b` fastest pushes. Emitted once — the semantics live in the
/// runtime, which (per AntDT) returns dropped shards to the DDS.
#[derive(Debug, Clone)]
pub struct BackupWorkersPolicy {
    pub b: u32,
    announced: bool,
}

impl BackupWorkersPolicy {
    pub fn new(b: u32) -> Self {
        BackupWorkersPolicy { b, announced: false }
    }
}

impl MitigationPolicy for BackupWorkersPolicy {
    fn clone_box(&self) -> Box<dyn MitigationPolicy> {
        Box::new(self.clone())
    }

    fn decide(&mut self, _now: SimTime, _snap: &MonitorSnapshot, _ctx: &PolicyCtx) -> Vec<Action> {
        if self.announced {
            vec![Action::None]
        } else {
            self.announced = true;
            vec![Action::BackupWorkers { b: self.b }]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use antdt_monitor::{ClusterInfo, NodeId, NodeStats};

    fn worker(idx: u32, bpt: f64, alive: bool) -> NodeStats {
        NodeStats {
            node: NodeId::worker(idx),
            bpt_trans: Some(bpt),
            bpt_per: Some(bpt),
            throughput: Some(100.0 / bpt),
            batch: Some(100),
            alive,
        }
    }

    fn snap(workers: Vec<NodeStats>) -> MonitorSnapshot {
        MonitorSnapshot { workers, servers: vec![], cluster: ClusterInfo::default() }
    }

    fn ctx(n: usize) -> PolicyCtx {
        PolicyCtx { global_batch: 100, n_workers: n, n_servers: 0 }
    }

    #[test]
    fn no_mitigation_is_always_none() {
        let mut p = NoMitigation;
        let s = snap(vec![worker(0, 99.0, true)]);
        assert_eq!(p.decide(SimTime::ZERO, &s, &ctx(1)), vec![Action::None]);
    }

    #[test]
    fn lb_bsp_rebalances_and_dedupes() {
        let mut p = LbBsp::new(vec![u64::MAX / 2; 2]);
        let s = snap(vec![worker(0, 1.0, true), worker(1, 4.0, true)]);
        let a1 = p.decide(SimTime::ZERO, &s, &ctx(2));
        let Action::AdjustBs { batch_sizes, .. } = &a1[0] else { panic!("{a1:?}") };
        assert_eq!(batch_sizes.iter().sum::<u64>(), 100);
        assert!(batch_sizes[0] > batch_sizes[1]);
        // Same snapshot again: no redundant broadcast.
        assert_eq!(p.decide(SimTime::ZERO, &s, &ctx(2)), vec![Action::None]);
    }

    #[test]
    fn backup_workers_announces_once() {
        let mut p = BackupWorkersPolicy::new(2);
        let s = snap(vec![worker(0, 1.0, true)]);
        assert_eq!(p.decide(SimTime::ZERO, &s, &ctx(1)), vec![Action::BackupWorkers { b: 2 }]);
        assert_eq!(p.decide(SimTime::ZERO, &s, &ctx(1)), vec![Action::None]);
    }
}
