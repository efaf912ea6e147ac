//! The paper's extensibility claim (§V-A): users compose custom mitigation
//! solutions from the action set without touching data allocation or fault
//! tolerance. Here a solution written in this file — AntDT-ND plus a
//! `BACKUP_WORKERS` rule of its own — runs end to end through the framework
//! and behaves sanely.

use antdt::controller::{Action, AntDtNd, MitigationPolicy, NdConfig, PolicyCtx};
use antdt::core::{
    run_with_policy, FailoverMode, Fault, FaultEvent, Job, JobConfig, MitigationChoice, NodeRef,
};
use antdt::monitor::MonitorSnapshot;
use antdt::sim::rng::StdRng;
use antdt::sim::{SimDuration, SimTime};
use antdt::telemetry::DecisionRecord;
use antdt::workloads::{cluster, ModelProfile, Scenario};

fn cfg(scenario: Scenario) -> JobConfig {
    JobConfig::ps_bsp(cluster::cluster_a_scaled(8, 4), scenario)
        .with_model(ModelProfile::xdeepfm())
        .with_global_batch(8_192)
        .with_samples(3_000_000)
        .with_batches_per_shard(10)
        .with_fast_cadence(SimDuration::from_secs(90))
}

/// A custom solution: AntDT-ND's rules, plus `BACKUP_WORKERS` sized every
/// tick to the workers whose short-window BPT is at least 1.5× the mean
/// (at most a quarter of the fleet), announced whenever that size changes.
#[derive(Clone)]
struct NdWithBackupWorkers {
    nd: AntDtNd,
    last_b: Option<u32>,
}

impl MitigationPolicy for NdWithBackupWorkers {
    fn decide(&mut self, now: SimTime, snap: &MonitorSnapshot, ctx: &PolicyCtx) -> Vec<Action> {
        let mut actions = self.nd.decide(now, snap, ctx);
        let Some(mean) = snap.mean_worker_bpt_trans() else { return actions };
        let stragglers = snap
            .workers
            .iter()
            .filter(|s| s.alive && s.bpt_trans.is_some_and(|t| t >= 1.5 * mean))
            .count() as u32;
        let b = stragglers.min(ctx.n_workers as u32 / 4);
        if self.last_b != Some(b) {
            self.last_b = Some(b);
            actions.retain(|a| *a != Action::None);
            actions.push(Action::BackupWorkers { b });
        }
        actions
    }

    fn drain_audit(&mut self) -> Vec<DecisionRecord> {
        self.nd.drain_audit()
    }

    fn clone_box(&self) -> Box<dyn MitigationPolicy> {
        Box::new(self.clone())
    }
}

#[test]
fn custom_composite_solution_beats_native_bsp() {
    let scenario = Scenario::WorkerMix { intensity: 0.8 };
    let native = Job::run(cfg(scenario));
    let policy = NdWithBackupWorkers { nd: AntDtNd::new(NdConfig::default()), last_b: None };
    let custom = run_with_policy(cfg(scenario), Box::new(policy));
    assert!(!custom.timed_out);
    assert!(
        custom.jct.as_secs_f64() < native.jct.as_secs_f64(),
        "custom {} vs native {}",
        custom.jct,
        native.jct
    );
    // The shipped rules and the custom one all fired.
    assert!(custom.n_kills() >= 1, "kill-restart part engaged");
    let used = |f: fn(&Action) -> bool| custom.actions.iter().any(|(_, a)| f(a));
    assert!(used(|a| matches!(a, Action::AdjustBs { .. })), "rebalancing part engaged");
    assert!(used(|a| matches!(a, Action::BackupWorkers { .. })), "backup-worker part engaged");
    // The framework still guarantees integrity underneath the custom solution.
    let audit = custom.audit.unwrap();
    assert!(audit.at_least_once);
}

#[test]
fn faults_failover_modes_and_custom_policy_compose() {
    // Everything at once: seeded worker failures, checkpoint-replay
    // recovery, and a custom policy — the framework must still complete with
    // exact accounting. The kills land inside the first ~3/4 of the clean
    // run (~600 s).
    let scenario = Scenario::WorkerTransient { intensity: 0.5 };
    let mut rng = StdRng::seed_from_u64(400);
    let kills = (0..8)
        .map(|_| FaultEvent {
            at_secs: rng.gen_range(30.0..450.0),
            fault: Fault::KillNode { node: NodeRef::Worker(rng.gen_range(0..8u32)) },
        })
        .collect();
    let config = cfg(scenario)
        .with_failover_mode(FailoverMode::Replay)
        .with_injections(kills)
        .with_mitigation(MitigationChoice::LbBsp);
    let r = Job::run(config);
    assert!(!r.timed_out);
    assert!(r.samples_done >= 3_000_000);
    assert!(!r.kills.is_empty(), "faults fired");
    let audit = r.audit.unwrap();
    assert!(audit.at_least_once);
    assert_eq!(audit.done_shards, audit.expected_done_shards);
}
