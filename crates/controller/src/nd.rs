//! AntDT-ND — the straggler-mitigation solution for non-dedicated clusters
//! (paper §VI-A).
//!
//! Worker side: transient stragglers (`T̄ᵢᵗʳᵃⁿˢ ≥ λ·T̄ᵗʳᵃⁿˢ`) trigger the
//! lightweight `ADJUST_BS` (Eq. 3 re-solve from measured throughputs);
//! persistent stragglers (`T̄ᵢᵖᵉʳ ≥ λ·T̄ᵖᵉʳ`) trigger the heavyweight
//! `KILL_RESTART`, gated on the cluster being idle (pending time is "dozens of
//! minutes" at peak). Server side: persistent detection only, always answered
//! by `KILL_RESTART` since no load-balancing action can shrink `Tᵢˢ`/`Tᵢᵐ`.

use crate::action::Action;
use crate::policy::{worker_throughputs, MitigationPolicy, PolicyCtx};
use crate::solve::minmax_batch_allocation;
use antdt_monitor::{MonitorSnapshot, NodeId};
use antdt_sim::{SimDuration, SimTime};
use antdt_telemetry::{DecisionRecord, SolverTrace};
use std::collections::{BTreeMap, HashMap};

/// Smallest batch a live worker may be assigned by the Eq. 3 re-solve.
const B_MIN: u64 = 1;

/// Re-kill cooldown per node, so an in-flight failover or a just-restarted
/// node isn't immediately killed again on stale statistics. `KILL_RESTART`
/// is also skipped while the cluster is busy (§VI-A4: pending time is
/// "dozens of minutes" at peak).
const KILL_COOLDOWN: SimDuration = SimDuration::from_minutes(15);

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NdConfig {
    /// Relative slowness ratio `λ` (paper default 1.5; must be > 1).
    pub lambda: f64,
    /// Take `ADJUST_BS` for transient worker stragglers (true in BSP; in ASP
    /// the DDS already balances data, so AntDT-ND only kills — §VII-A3).
    pub adjust_bs: bool,
}

impl Default for NdConfig {
    fn default() -> Self {
        NdConfig { lambda: 1.5, adjust_bs: true }
    }
}

impl NdConfig {
    /// The ASP variant: only `KILL_RESTART` (the DDS handles balance).
    pub fn asp() -> Self {
        NdConfig { adjust_bs: false, ..Default::default() }
    }
}

/// AntDT-ND policy state.
#[derive(Debug, Clone)]
pub struct AntDtNd {
    cfg: NdConfig,
    last_alloc: Option<Vec<u64>>,
    last_kill: HashMap<NodeId, SimTime>,
    kills_issued: u64,
    audit: Vec<DecisionRecord>,
}

impl AntDtNd {
    pub fn new(cfg: NdConfig) -> Self {
        AntDtNd {
            cfg,
            last_alloc: None,
            last_kill: HashMap::new(),
            kills_issued: 0,
            audit: Vec::new(),
        }
    }

    pub fn kills_issued(&self) -> u64 {
        self.kills_issued
    }

    fn may_kill(&self, node: NodeId, now: SimTime) -> bool {
        match self.last_kill.get(&node) {
            Some(&t) => now.since(t) >= KILL_COOLDOWN,
            None => true,
        }
    }
}

impl MitigationPolicy for AntDtNd {
    fn clone_box(&self) -> Box<dyn MitigationPolicy> {
        Box::new(self.clone())
    }

    fn decide(&mut self, now: SimTime, snap: &MonitorSnapshot, ctx: &PolicyCtx) -> Vec<Action> {
        let mut actions = Vec::new();
        let lambda = self.cfg.lambda;

        // ---- Worker side: persistent stragglers -> KILL_RESTART (step 4),
        // decided first so the batch re-solve below can route the victim's
        // share to the survivors in the very same tick.
        let mut worker_victim: Option<u32> = None;
        if !snap.cluster.busy {
            if let Some(mean) = snap.mean_worker_bpt_per() {
                // Kill at most one worker per tick: each failover perturbs the
                // statistics of everyone else behind the barrier.
                if let Some(victim) = snap
                    .workers
                    .iter()
                    .filter(|s| {
                        s.alive
                            && s.bpt_per.is_some_and(|t| t >= lambda * mean)
                            && self.may_kill(s.node, now)
                    })
                    .max_by(|a, b| a.bpt_per.partial_cmp(&b.bpt_per).unwrap())
                {
                    self.last_kill.insert(victim.node, now);
                    self.kills_issued += 1;
                    worker_victim = Some(victim.node.idx);
                    let action = Action::KillRestart { node: victim.node };
                    self.audit.push(DecisionRecord {
                        at_us: now.as_micros(),
                        rule: "worker-persistent-kill".into(),
                        node: victim.node.to_string(),
                        window: BTreeMap::from([
                            ("lambda".into(), lambda),
                            ("mean_bpt_per".into(), mean),
                            ("victim_bpt_per".into(), victim.bpt_per.unwrap_or(f64::NAN)),
                        ]),
                        solver: None,
                        actions: vec![format!("{action:?}")],
                    });
                    actions.push(action);
                }
            }
        }

        // ---- Worker side: transient stragglers -> ADJUST_BS (steps 2-3). ----
        if self.cfg.adjust_bs {
            let transient_detected = match snap.mean_worker_bpt_trans() {
                Some(mean) => snap
                    .workers
                    .iter()
                    .any(|s| s.alive && s.bpt_trans.is_some_and(|t| t >= lambda * mean)),
                None => false,
            };
            // Re-solve also when the alive set changed (a kill or restart must
            // redistribute the fixed global batch immediately).
            let alive_changed = match &self.last_alloc {
                Some(prev) => snap.workers.iter().zip(prev).any(|(s, &b)| s.alive == (b == 0)),
                None => true,
            };
            if transient_detected || alive_changed || worker_victim.is_some() {
                let mut v = worker_throughputs(&snap.workers);
                if let Some(victim) = worker_victim {
                    if let Some(slot) = v.get_mut(victim as usize) {
                        *slot = 0.0; // the victim is as good as dead already
                    }
                }
                let alloc = minmax_batch_allocation(ctx.global_batch, &v, B_MIN);
                if self.last_alloc.as_ref() != Some(&alloc) {
                    self.last_alloc = Some(alloc.clone());
                    let mut window = BTreeMap::from([
                        ("lambda".into(), lambda),
                        ("transient_detected".into(), f64::from(u8::from(transient_detected))),
                        ("alive_changed".into(), f64::from(u8::from(alive_changed))),
                    ]);
                    if let Some(mean) = snap.mean_worker_bpt_trans() {
                        window.insert("mean_bpt_trans".into(), mean);
                    }
                    let action =
                        Action::AdjustBs { batch_sizes: alloc.as_slice().into(), grad_accum: None };
                    self.audit.push(DecisionRecord {
                        at_us: now.as_micros(),
                        rule: "transient-adjust-bs".into(),
                        node: worker_victim
                            .map(|w| NodeId::worker(w).to_string())
                            .unwrap_or_default(),
                        window,
                        solver: Some(SolverTrace {
                            global_batch: ctx.global_batch,
                            throughputs: v,
                            b_min: B_MIN,
                            allocation: alloc,
                        }),
                        actions: vec![format!("{action:?}")],
                    });
                    actions.push(action);
                }
            }
        }

        // ---- Server side: persistent stragglers -> KILL_RESTART (§VI-A). ----
        if !snap.cluster.busy {
            if let Some(mean) = snap.mean_server_bpt_per() {
                if let Some(victim) = snap
                    .servers
                    .iter()
                    .filter(|s| {
                        s.alive
                            && s.bpt_per.is_some_and(|t| t >= lambda * mean)
                            && self.may_kill(s.node, now)
                    })
                    .max_by(|a, b| a.bpt_per.partial_cmp(&b.bpt_per).unwrap())
                {
                    self.last_kill.insert(victim.node, now);
                    self.kills_issued += 1;
                    let action = Action::KillRestart { node: victim.node };
                    self.audit.push(DecisionRecord {
                        at_us: now.as_micros(),
                        rule: "server-persistent-kill".into(),
                        node: victim.node.to_string(),
                        window: BTreeMap::from([
                            ("lambda".into(), lambda),
                            ("mean_bpt_per".into(), mean),
                            ("victim_bpt_per".into(), victim.bpt_per.unwrap_or(f64::NAN)),
                        ]),
                        solver: None,
                        actions: vec![format!("{action:?}")],
                    });
                    actions.push(action);
                }
            }
        }

        if actions.is_empty() {
            actions.push(Action::None); // step 5: explicit no-op
        }
        actions
    }

    fn drain_audit(&mut self) -> Vec<DecisionRecord> {
        std::mem::take(&mut self.audit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use antdt_monitor::{ClusterInfo, NodeStats};

    fn worker(idx: u32, trans: f64, per: f64, v: f64, alive: bool) -> NodeStats {
        NodeStats {
            node: NodeId::worker(idx),
            bpt_trans: Some(trans),
            bpt_per: Some(per),
            throughput: Some(v),
            batch: Some(100),
            alive,
        }
    }

    fn server(idx: u32, per: f64) -> NodeStats {
        NodeStats {
            node: NodeId::server(idx),
            bpt_trans: Some(per),
            bpt_per: Some(per),
            throughput: None,
            batch: None,
            alive: true,
        }
    }

    fn ctx() -> PolicyCtx {
        PolicyCtx { global_batch: 300, n_workers: 3, n_servers: 2 }
    }

    fn snap(workers: Vec<NodeStats>, servers: Vec<NodeStats>, busy: bool) -> MonitorSnapshot {
        MonitorSnapshot { workers, servers, cluster: ClusterInfo { busy } }
    }

    #[test]
    fn healthy_cluster_yields_none_after_initial_allocation() {
        let mut p = AntDtNd::new(NdConfig::default());
        let s = snap(
            vec![
                worker(0, 2.0, 2.0, 50.0, true),
                worker(1, 2.1, 2.1, 50.0, true),
                worker(2, 1.9, 1.9, 50.0, true),
            ],
            vec![server(0, 0.5), server(1, 0.5)],
            false,
        );
        // First tick emits the initial allocation (alive set was unknown).
        let a1 = p.decide(SimTime::from_secs_f64(300.0), &s, &ctx());
        assert!(matches!(a1[0], Action::AdjustBs { .. }));
        // Steady state: explicit None.
        let a2 = p.decide(SimTime::from_secs_f64(600.0), &s, &ctx());
        assert_eq!(a2, vec![Action::None]);
    }

    #[test]
    fn transient_straggler_triggers_rebalance_toward_fast_workers() {
        let mut p = AntDtNd::new(NdConfig::default());
        let healthy = snap(
            vec![
                worker(0, 2.0, 2.0, 50.0, true),
                worker(1, 2.0, 2.0, 50.0, true),
                worker(2, 2.0, 2.0, 50.0, true),
            ],
            vec![],
            false,
        );
        p.decide(SimTime::from_secs_f64(300.0), &healthy, &ctx());
        // Worker 2 becomes 3x slower in the short window only.
        let degraded = snap(
            vec![
                worker(0, 2.0, 2.0, 50.0, true),
                worker(1, 2.0, 2.0, 50.0, true),
                worker(2, 6.0, 2.5, 50.0 / 3.0, true),
            ],
            vec![],
            false,
        );
        let actions = p.decide(SimTime::from_secs_f64(600.0), &degraded, &ctx());
        let Action::AdjustBs { batch_sizes, .. } = &actions[0] else {
            panic!("expected AdjustBs, got {actions:?}");
        };
        assert_eq!(batch_sizes.iter().sum::<u64>(), 300);
        assert!(batch_sizes[2] < batch_sizes[0], "straggler gets less: {batch_sizes:?}");
    }

    #[test]
    fn persistent_worker_straggler_is_killed_once() {
        let mut p = AntDtNd::new(NdConfig::default());
        let s = snap(
            vec![
                worker(0, 2.0, 2.0, 50.0, true),
                worker(1, 2.0, 2.0, 50.0, true),
                worker(2, 7.0, 7.0, 14.0, true), // >= 1.5 * mean in both windows
            ],
            vec![],
            false,
        );
        let actions = p.decide(SimTime::from_secs_f64(600.0), &s, &ctx());
        assert!(actions.contains(&Action::KillRestart { node: NodeId::worker(2) }), "{actions:?}");
        // Cooldown: the same snapshot a minute later must not re-kill.
        let again = p.decide(SimTime::from_secs_f64(660.0), &s, &ctx());
        assert!(!again.iter().any(|a| matches!(a, Action::KillRestart { .. })));
        assert_eq!(p.kills_issued(), 1);
    }

    #[test]
    fn busy_cluster_gates_kill_restart_but_not_adjust_bs() {
        let mut p = AntDtNd::new(NdConfig::default());
        let s = snap(
            vec![
                worker(0, 2.0, 2.0, 50.0, true),
                worker(1, 2.0, 2.0, 50.0, true),
                worker(2, 8.0, 8.0, 12.0, true),
            ],
            vec![],
            true, // cluster busy
        );
        let actions = p.decide(SimTime::from_secs_f64(600.0), &s, &ctx());
        assert!(!actions.iter().any(|a| matches!(a, Action::KillRestart { .. })));
        assert!(actions.iter().any(|a| matches!(a, Action::AdjustBs { .. })));
    }

    #[test]
    fn persistent_server_straggler_is_killed() {
        let mut p = AntDtNd::new(NdConfig::default());
        let s = snap(
            vec![worker(0, 2.0, 2.0, 50.0, true), worker(1, 2.0, 2.0, 50.0, true)],
            vec![server(0, 0.5), server(1, 0.5), server(2, 2.5)],
            false,
        );
        let actions = p.decide(SimTime::from_secs_f64(600.0), &s, &ctx());
        assert!(actions.contains(&Action::KillRestart { node: NodeId::server(2) }), "{actions:?}");
    }

    #[test]
    fn asp_variant_never_adjusts_batch() {
        let mut p = AntDtNd::new(NdConfig::asp());
        let s = snap(
            vec![
                worker(0, 2.0, 2.0, 50.0, true),
                worker(1, 9.0, 2.0, 11.0, true), // transient only
            ],
            vec![],
            false,
        );
        let actions = p.decide(SimTime::from_secs_f64(600.0), &s, &ctx());
        assert_eq!(actions, vec![Action::None]);
    }

    #[test]
    fn audit_records_each_fired_rule_and_drains() {
        let mut p = AntDtNd::new(NdConfig::default());
        let s = snap(
            vec![
                worker(0, 2.0, 2.0, 50.0, true),
                worker(1, 2.0, 2.0, 50.0, true),
                worker(2, 7.0, 7.0, 14.0, true),
            ],
            vec![server(0, 0.5), server(1, 0.5), server(2, 2.5)],
            false,
        );
        let actions = p.decide(SimTime::from_secs_f64(600.0), &s, &ctx());
        let audit = p.drain_audit();
        assert_eq!(audit.len(), actions.len(), "one record per emitted action");
        let rules: Vec<&str> = audit.iter().map(|r| r.rule.as_str()).collect();
        assert_eq!(
            rules,
            vec!["worker-persistent-kill", "transient-adjust-bs", "server-persistent-kill"]
        );
        assert_eq!(audit[0].node, "w2");
        assert_eq!(audit[0].window["lambda"], 1.5);
        let solver = audit[1].solver.as_ref().expect("adjust-bs traces the solver");
        assert_eq!(solver.global_batch, 300);
        assert_eq!(solver.allocation.iter().sum::<u64>(), 300);
        assert_eq!(solver.throughputs[2], 0.0, "victim zeroed before the solve");
        assert_eq!(audit[2].node, "ps-2");
        // Drained: a second call returns nothing.
        assert!(p.drain_audit().is_empty());
        // A quiet tick (cooldown + unchanged alloc) records nothing.
        p.decide(SimTime::from_secs_f64(660.0), &s, &ctx());
        let quiet: Vec<_> =
            p.drain_audit().into_iter().filter(|r| r.rule != "transient-adjust-bs").collect();
        assert!(quiet.is_empty(), "{quiet:?}");
    }

    #[test]
    fn dead_worker_forces_rebalance_with_zero_share() {
        let mut p = AntDtNd::new(NdConfig::default());
        let healthy = snap(
            vec![worker(0, 2.0, 2.0, 50.0, true), worker(1, 2.0, 2.0, 50.0, true)],
            vec![],
            false,
        );
        p.decide(SimTime::from_secs_f64(300.0), &healthy, &ctx());
        let mut one_dead = healthy.clone();
        one_dead.workers[1].alive = false;
        let actions = p.decide(SimTime::from_secs_f64(600.0), &one_dead, &ctx());
        let Action::AdjustBs { batch_sizes, .. } = &actions[0] else {
            panic!("expected AdjustBs, got {actions:?}");
        };
        assert_eq!(batch_sizes[1], 0);
        assert_eq!(batch_sizes[0], 300);
    }
}
