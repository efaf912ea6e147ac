//! Policy composition — the paper's extensibility claim (§V-A: "users could
//! easily utilize these actions to customize the straggler mitigation
//! solution") made concrete: stack existing policies into a custom solution
//! without touching data allocation or fault tolerance.
//!
//! [`Composite`] runs its parts in order each tick and merges their actions:
//! the first `ADJUST_BS` wins (two simultaneous batch plans would race), kill
//! targets are deduplicated, and `None`s collapse away.
//!
//! [`AdaptiveBackupWorkers`] is a worked example of a *new* solution built
//! from an existing action: instead of a static backup count, it sizes `b`
//! every tick from the number of currently-detected stragglers.

use crate::action::Action;
use crate::policy::{MitigationPolicy, PolicyCtx};
use antdt_monitor::{MonitorSnapshot, NodeId};
use antdt_sim::SimTime;
use std::collections::HashSet;

/// Run several policies as one solution, merging their actions.
#[derive(Clone)]
pub struct Composite {
    parts: Vec<Box<dyn MitigationPolicy>>,
}

impl Composite {
    pub fn new(parts: Vec<Box<dyn MitigationPolicy>>) -> Self {
        assert!(!parts.is_empty(), "composite of nothing");
        Composite { parts }
    }
}

impl MitigationPolicy for Composite {
    fn clone_box(&self) -> Box<dyn MitigationPolicy> {
        Box::new(self.clone())
    }

    fn name(&self) -> &'static str {
        "composite"
    }

    fn decide(&mut self, now: SimTime, snap: &MonitorSnapshot, ctx: &PolicyCtx) -> Vec<Action> {
        let mut out: Vec<Action> = Vec::new();
        let mut saw_adjust_bs = false;
        let mut saw_backup = false;
        let mut killed: HashSet<NodeId> = HashSet::new();
        for p in &mut self.parts {
            for action in p.decide(now, snap, ctx) {
                match &action {
                    Action::None => {}
                    Action::AdjustBs { .. } => {
                        if !saw_adjust_bs {
                            saw_adjust_bs = true;
                            out.push(action);
                        }
                    }
                    Action::BackupWorkers { .. } => {
                        if !saw_backup {
                            saw_backup = true;
                            out.push(action);
                        }
                    }
                    Action::KillRestart { node } => {
                        if killed.insert(*node) {
                            out.push(action);
                        }
                    }
                }
            }
        }
        if out.is_empty() {
            out.push(Action::None);
        }
        out
    }
}

/// Size the backup-worker count from live straggler detection: `b` = number of
/// workers whose short-window BPT exceeds `lambda ×` the mean, capped at a
/// fraction of the fleet (never drop a majority of the gradients).
#[derive(Clone)]
pub struct AdaptiveBackupWorkers {
    pub lambda: f64,
    /// Maximum fraction of workers that may be dropped per iteration.
    pub max_fraction: f64,
    last_b: Option<u32>,
}

impl AdaptiveBackupWorkers {
    pub fn new(lambda: f64) -> Self {
        AdaptiveBackupWorkers { lambda, max_fraction: 0.25, last_b: None }
    }
}

impl MitigationPolicy for AdaptiveBackupWorkers {
    fn clone_box(&self) -> Box<dyn MitigationPolicy> {
        Box::new(self.clone())
    }

    fn name(&self) -> &'static str {
        "adaptive-backup-workers"
    }

    fn decide(&mut self, _now: SimTime, snap: &MonitorSnapshot, ctx: &PolicyCtx) -> Vec<Action> {
        let Some(mean) = snap.mean_worker_bpt_trans() else {
            return vec![Action::None];
        };
        let stragglers = snap
            .workers
            .iter()
            .filter(|s| s.alive && s.bpt_trans.is_some_and(|t| t >= self.lambda * mean))
            .count() as u32;
        let cap = ((ctx.n_workers as f64 * self.max_fraction) as u32)
            .min(ctx.n_workers.saturating_sub(1) as u32);
        let b = stragglers.min(cap);
        if self.last_b == Some(b) {
            return vec![Action::None];
        }
        self.last_b = Some(b);
        vec![Action::BackupWorkers { b }]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::{KillRestartOnly, LbBsp};
    use antdt_monitor::{ClusterInfo, NodeStats};

    fn worker(idx: u32, bpt: f64) -> NodeStats {
        NodeStats {
            node: NodeId::worker(idx),
            bpt_trans: Some(bpt),
            bpt_per: Some(bpt),
            throughput: Some(100.0 / bpt),
            batch: Some(100),
            alive: true,
        }
    }

    fn snap(bpts: &[f64]) -> MonitorSnapshot {
        MonitorSnapshot {
            workers: bpts.iter().enumerate().map(|(i, &b)| worker(i as u32, b)).collect(),
            servers: vec![],
            cluster: ClusterInfo::default(),
        }
    }

    fn ctx(n: usize) -> PolicyCtx {
        PolicyCtx { global_batch: 1000, n_workers: n, n_servers: 0 }
    }

    #[test]
    fn composite_merges_rebalance_and_kill() {
        let mut p =
            Composite::new(vec![Box::new(LbBsp::uncapped(3)), Box::new(KillRestartOnly::new(1.5))]);
        let s = snap(&[1.0, 1.0, 9.0]);
        let actions = p.decide(SimTime::from_secs_f64(600.0), &s, &ctx(3));
        assert!(actions.iter().any(|a| matches!(a, Action::AdjustBs { .. })));
        assert!(actions
            .iter()
            .any(|a| matches!(a, Action::KillRestart { node } if *node == NodeId::worker(2))));
    }

    #[test]
    fn composite_keeps_only_first_adjust_bs() {
        let mut p =
            Composite::new(vec![Box::new(LbBsp::uncapped(2)), Box::new(LbBsp::uncapped(2))]);
        let s = snap(&[1.0, 2.0]);
        let actions = p.decide(SimTime::ZERO, &s, &ctx(2));
        let n_adjust = actions.iter().filter(|a| matches!(a, Action::AdjustBs { .. })).count();
        assert_eq!(n_adjust, 1);
    }

    #[test]
    fn composite_dedupes_kill_targets_and_collapses_none() {
        let mut p = Composite::new(vec![
            Box::new(KillRestartOnly::new(1.5)),
            Box::new(KillRestartOnly::new(1.5)),
        ]);
        let s = snap(&[1.0, 1.0, 9.0]);
        let actions = p.decide(SimTime::from_secs_f64(600.0), &s, &ctx(3));
        let kills = actions.iter().filter(|a| matches!(a, Action::KillRestart { .. })).count();
        assert_eq!(kills, 1);
        // Healthy snapshot: pure None.
        let healthy = snap(&[1.0, 1.0, 1.0]);
        let actions = p.decide(SimTime::from_secs_f64(1200.0), &healthy, &ctx(3));
        assert_eq!(actions, vec![Action::None]);
    }

    #[test]
    fn adaptive_backup_tracks_straggler_count() {
        let mut p = AdaptiveBackupWorkers::new(1.5);
        // Two stragglers of eight -> b = 2.
        let s = snap(&[1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 5.0, 5.0]);
        assert_eq!(p.decide(SimTime::ZERO, &s, &ctx(8)), vec![Action::BackupWorkers { b: 2 }]);
        // Unchanged detection -> no redundant broadcast.
        assert_eq!(p.decide(SimTime::ZERO, &s, &ctx(8)), vec![Action::None]);
        // Recovered -> b drops to 0.
        let healthy = snap(&[1.0; 8]);
        assert_eq!(
            p.decide(SimTime::ZERO, &healthy, &ctx(8)),
            vec![Action::BackupWorkers { b: 0 }]
        );
    }

    #[test]
    fn adaptive_backup_caps_at_fleet_fraction() {
        let mut p = AdaptiveBackupWorkers::new(1.2);
        // Half the fleet straggling, but cap = 25% of 8 = 2.
        let s = snap(&[1.0, 1.0, 1.0, 1.0, 6.0, 6.0, 6.0, 6.0]);
        assert_eq!(p.decide(SimTime::ZERO, &s, &ctx(8)), vec![Action::BackupWorkers { b: 2 }]);
    }

    #[test]
    #[should_panic(expected = "composite of nothing")]
    fn empty_composite_rejected() {
        let _ = Composite::new(vec![]);
    }
}
