//! Baseline policies the paper compares against (§VII-A3).

use crate::action::Action;
use crate::policy::{worker_throughputs, MitigationPolicy, PolicyCtx, KILL_COOLDOWN};
use crate::solve::lb_bsp_allocation;
use antdt_monitor::{MonitorSnapshot, NodeId};
use antdt_sim::SimTime;
use std::collections::HashMap;

/// Native BSP/ASP/DDP: never mitigates.
#[derive(Debug, Clone, Default)]
pub struct NoMitigation;

impl MitigationPolicy for NoMitigation {
    fn clone_box(&self) -> Box<dyn MitigationPolicy> {
        Box::new(self.clone())
    }

    fn name(&self) -> &'static str {
        "none"
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

    pub fn uncapped(n_workers: usize) -> Self {
        LbBsp::new(vec![u64::MAX / 2; n_workers])
    }
}

impl MitigationPolicy for LbBsp {
    fn clone_box(&self) -> Box<dyn MitigationPolicy> {
        Box::new(self.clone())
    }

    fn name(&self) -> &'static str {
        "lb-bsp"
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

    fn name(&self) -> &'static str {
        "backup-workers"
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

/// Scheduling-only mitigation: kill persistent stragglers (workers and
/// servers), never touch batch sizes. This is also what AntDT-ND degrades to
/// in ASP mode, where the DDS already balances the data.
#[derive(Debug, Clone)]
pub struct KillRestartOnly {
    pub lambda: f64,
    last_kill: HashMap<NodeId, SimTime>,
}

impl KillRestartOnly {
    pub fn new(lambda: f64) -> Self {
        KillRestartOnly { lambda, last_kill: HashMap::new() }
    }

    fn may_kill(&self, node: NodeId, now: SimTime) -> bool {
        self.last_kill.get(&node).is_none_or(|&t| now.since(t) >= KILL_COOLDOWN)
    }
}

impl MitigationPolicy for KillRestartOnly {
    fn clone_box(&self) -> Box<dyn MitigationPolicy> {
        Box::new(self.clone())
    }

    fn name(&self) -> &'static str {
        "kill-restart"
    }

    fn decide(&mut self, now: SimTime, snap: &MonitorSnapshot, _ctx: &PolicyCtx) -> Vec<Action> {
        if snap.cluster.busy {
            return vec![Action::None];
        }
        let mut actions = Vec::new();
        let pools: [(&[_], Option<f64>); 2] = [
            (&snap.workers, snap.mean_worker_bpt_per()),
            (&snap.servers, snap.mean_server_bpt_per()),
        ];
        for (stats, mean) in pools {
            let Some(mean) = mean else { continue };
            if let Some(victim) = stats
                .iter()
                .filter(|s| {
                    s.alive
                        && s.bpt_per.is_some_and(|t| t >= self.lambda * mean)
                        && self.may_kill(s.node, now)
                })
                .max_by(|a, b| a.bpt_per.partial_cmp(&b.bpt_per).unwrap())
            {
                self.last_kill.insert(victim.node, now);
                actions.push(Action::KillRestart { node: victim.node });
            }
        }
        if actions.is_empty() {
            actions.push(Action::None);
        }
        actions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use antdt_monitor::{ClusterInfo, NodeStats};

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
        let mut p = LbBsp::uncapped(2);
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

    #[test]
    fn kill_restart_only_targets_worst_persistent() {
        let mut p = KillRestartOnly::new(1.5);
        let s = snap(vec![worker(0, 2.0, true), worker(1, 6.0, true), worker(2, 8.0, true)]);
        let a = p.decide(SimTime::from_secs_f64(600.0), &s, &ctx(3));
        assert_eq!(a, vec![Action::KillRestart { node: NodeId::worker(2) }]);
    }
}
