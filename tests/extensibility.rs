//! The paper's extensibility claim (§V-A): users compose custom mitigation
//! solutions from the action set without touching data allocation or fault
//! tolerance. Here a custom solution — LB-BSP rebalancing + kill-restart +
//! adaptive backup workers stacked with [`Composite`] — runs end to end
//! through the framework and behaves sanely.

use antdt::controller::{
    AdaptiveBackupWorkers, Composite, KillRestartOnly, LbBsp, MitigationPolicy,
};
use antdt::core::{
    run_with_policy, FailoverMode, Fault, FaultEvent, Job, JobConfig, MitigationChoice, NodeRef,
};
use antdt::sim::rng::StdRng;
use antdt::sim::SimDuration;
use antdt::workloads::{cluster, ModelProfile, Scenario};

fn cfg(scenario: Scenario) -> JobConfig {
    JobConfig::ps_bsp(cluster::cluster_a_scaled(8, 4), scenario)
        .with_model(ModelProfile::xdeepfm())
        .with_global_batch(8_192)
        .with_samples(3_000_000)
        .with_batches_per_shard(10)
        .with_fast_cadence(SimDuration::from_secs(90))
}

fn custom_policy(n_workers: usize) -> Box<dyn MitigationPolicy> {
    Box::new(Composite::new(vec![
        Box::new(LbBsp::uncapped(n_workers)),
        Box::new(KillRestartOnly::new(1.5)),
        Box::new(AdaptiveBackupWorkers::new(1.5)),
    ]))
}

#[test]
fn custom_composite_solution_beats_native_bsp() {
    let scenario = Scenario::WorkerMix { intensity: 0.8 };
    let native = Job::run(cfg(scenario));
    let custom = run_with_policy(cfg(scenario), custom_policy(8));
    assert!(!custom.timed_out);
    assert!(
        custom.jct.as_secs_f64() < native.jct.as_secs_f64(),
        "custom {} vs native {}",
        custom.jct,
        native.jct
    );
    // All three ingredients actually fired.
    assert!(custom.n_kills() >= 1, "kill-restart part engaged");
    let used_bs =
        custom.actions.iter().any(|(_, a)| matches!(a, antdt::controller::Action::AdjustBs { .. }));
    let used_bw = custom
        .actions
        .iter()
        .any(|(_, a)| matches!(a, antdt::controller::Action::BackupWorkers { .. }));
    assert!(used_bs, "rebalancing part engaged");
    assert!(used_bw, "backup-worker part engaged");
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
