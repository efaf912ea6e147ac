use super::*;
use antdt_sim::{ContentionPhase, TransientPattern};
use antdt_workloads::cluster::cluster_a_scaled;
use antdt_workloads::NodeSpec;

#[test]
fn builders_apply_scenario_and_defaults() {
    let cfg =
        JobConfig::ps_bsp(cluster_a_scaled(4, 2), Scenario::WorkerPersistent { intensity: 1.0 });
    cfg.validate();
    assert_eq!(cfg.n_workers(), 4);
    // Scenario applied: last worker has a persistent phase.
    assert!(!cfg.cluster.workers[3].profile.phases.is_empty());
    assert!(cfg.cluster.workers[0].profile.phases.is_empty());
}

#[test]
#[should_panic(expected = "PS architecture needs servers")]
fn ps_without_servers_is_rejected() {
    JobConfig::ps_bsp(cluster_a_scaled(4, 0), Scenario::None).validate();
}

#[test]
#[should_panic(expected = "monitor.l_trans must be positive")]
fn zero_transient_window_rejected() {
    let mut cfg = JobConfig::ps_bsp(cluster_a_scaled(4, 2), Scenario::None);
    cfg.monitor.l_trans = SimDuration::ZERO;
    cfg.validate();
}

#[test]
#[should_panic(expected = "monitor.l_per must be positive")]
fn zero_persistent_window_rejected() {
    let mut cfg = JobConfig::ps_bsp(cluster_a_scaled(4, 2), Scenario::None);
    cfg.monitor.l_per = SimDuration::ZERO;
    cfg.validate();
}

#[test]
#[should_panic(expected = "agent.report_every_iters must be positive")]
fn zero_report_cadence_rejected() {
    let mut cfg = JobConfig::ps_bsp(cluster_a_scaled(4, 2), Scenario::None);
    cfg.agent.report_every_iters = 0;
    cfg.validate();
}

#[test]
#[should_panic(expected = "backup worker count")]
fn too_many_backup_workers_rejected() {
    JobConfig::ps_bsp(cluster_a_scaled(2, 1), Scenario::None)
        .with_mitigation(MitigationChoice::BackupWorkers { b: 2 })
        .validate();
}

#[test]
#[should_panic(expected = "dd_classes")]
fn dd_requires_classes() {
    JobConfig::allreduce(cluster_a_scaled(2, 0), Scenario::None)
        .with_mitigation(MitigationChoice::AntDtDd)
        .validate();
}

/// A Cluster-B ResNet-101 job under AntDT-DD with its two stock device
/// classes (4× V100, 4× P100); `edit` changes the classes.
fn with_dd(edit: impl FnOnce(&mut Vec<DeviceClassSpec>)) -> JobConfig {
    let spec = |b_max| DeviceClassSpec { count: 4, c0_secs: 0.15, b_min: 16, b_max };
    let mut classes = vec![spec(112), spec(96)];
    edit(&mut classes);
    JobConfig::allreduce(antdt_workloads::cluster::cluster_b(), Scenario::None)
        .with_global_batch(768)
        .with_mitigation(MitigationChoice::AntDtDd)
        .with_dd_classes(classes)
}

#[test]
#[should_panic(expected = "dd_classes[1] b_min 96 exceeds b_max 16")]
fn dd_class_with_swapped_batch_bounds_rejected() {
    with_dd(|c| (c[1].b_min, c[1].b_max) = (c[1].b_max, c[1].b_min)).validate();
}

#[test]
#[should_panic(expected = "dd_classes[0] c0_secs NaN must be finite and non-negative")]
fn dd_class_with_nan_overhead_rejected() {
    with_dd(|c| c[0].c0_secs = f64::NAN).validate();
}

#[test]
#[should_panic(
    expected = "global batch 4161 exceeds the dd_classes capacity Σ count·C_MAX·b_max = 4160"
)]
fn global_batch_beyond_dd_capacity_rejected() {
    with_dd(|_| {}).with_global_batch(4_161).validate();
}

#[test]
fn valid_injections_pass_validation() {
    JobConfig::ps_bsp(cluster_a_scaled(4, 2), Scenario::None)
        .with_injections(vec![
            ChaosInjection { at_secs: 10.0, fault: InjectedFault::KillWorker { w: 3 } },
            ChaosInjection { at_secs: 20.0, fault: InjectedFault::DdsOutage { window_secs: 30.0 } },
            ChaosInjection {
                at_secs: 30.0,
                fault: InjectedFault::DropReports { prob: 0.5, window_secs: 60.0, seed: 7 },
            },
        ])
        .validate();
}

#[test]
#[should_panic(expected = "Replay requires a Parameter Server")]
fn replay_failover_rejected_for_allreduce() {
    JobConfig::allreduce(cluster_a_scaled(4, 0), Scenario::None)
        .with_failover_mode(FailoverMode::Replay)
        .validate();
}

#[test]
#[should_panic(expected = "Replay requires the DDS data strategy")]
fn replay_failover_rejected_without_dds() {
    JobConfig::ps_asp(cluster_a_scaled(4, 2), Scenario::None)
        .with_data_strategy(DataStrategy::EvenPartition)
        .with_failover_mode(FailoverMode::Replay)
        .validate();
}

#[test]
fn replay_failover_with_ckpt_config_passes_validation() {
    JobConfig::ps_bsp(cluster_a_scaled(4, 2), Scenario::None)
        .with_failover_mode(FailoverMode::Replay)
        .with_ckpt(CkptConfig::default())
        .validate();
}

/// A small PS job checkpointing under `policy`.
fn with_policy(policy: CkptPolicy) -> JobConfig {
    JobConfig::ps_bsp(cluster_a_scaled(4, 2), Scenario::None)
        .with_ckpt(CkptConfig { policy, ..CkptConfig::default() })
}

/// A stall as long as the cadence queues captures back to back.
#[test]
#[should_panic(expected = "must be shorter than the shortest checkpoint interval")]
fn capture_stall_at_the_fixed_interval_rejected() {
    JobConfig::ps_bsp(cluster_a_scaled(4, 2), Scenario::None)
        .with_ckpt(CkptConfig {
            policy: CkptPolicy::Fixed { interval_secs: 15.0 },
            capture_stall_secs: 15.0,
            ..CkptConfig::default()
        })
        .validate();
}

/// The default 15 s stall against a 10 s cadence set by the builder.
#[test]
#[should_panic(expected = "must be shorter than the shortest checkpoint interval")]
fn capture_stall_beyond_the_builder_interval_rejected() {
    JobConfig::ps_bsp(cluster_a_scaled(4, 2), Scenario::None)
        .with_checkpoint_interval(SimDuration::from_secs(10))
        .validate();
}

#[test]
#[should_panic(expected = "must be shorter than the shortest checkpoint interval")]
fn capture_stall_at_the_adaptive_minimum_rejected() {
    JobConfig::ps_bsp(cluster_a_scaled(4, 2), Scenario::None)
        .with_ckpt(CkptConfig {
            policy: CkptPolicy::Adaptive { min_secs: 30.0, max_secs: 300.0 },
            capture_stall_secs: 30.0,
            ..CkptConfig::default()
        })
        .validate();
}

/// A zero cadence would re-arm the checkpoint at the same instant
/// forever.
#[test]
#[should_panic(expected = "checkpoint interval must be positive")]
fn zero_checkpoint_interval_rejected() {
    JobConfig::ps_bsp(cluster_a_scaled(4, 2), Scenario::None)
        .with_samples(200_000)
        .with_checkpoint_interval(SimDuration::ZERO)
        .validate();
}

#[test]
#[should_panic(expected = "batches_per_shard must be positive")]
fn zero_batches_per_shard_rejected() {
    JobConfig::ps_bsp(cluster_a_scaled(4, 2), Scenario::None)
        .with_samples(100_000)
        .with_batches_per_shard(0)
        .validate();
}

#[test]
#[should_panic(expected = "epochs must be positive")]
fn zero_epochs_rejected() {
    JobConfig::ps_bsp(cluster_a_scaled(4, 2), Scenario::None)
        .with_samples(100_000)
        .with_epochs(0)
        .validate();
}

#[test]
#[should_panic(expected = "total_samples must be positive")]
fn zero_total_samples_rejected() {
    JobConfig::ps_bsp(cluster_a_scaled(4, 2), Scenario::None).with_samples(0).validate();
}

#[test]
#[should_panic(expected = "global batch 2 is smaller than the worker count 4")]
fn global_batch_below_worker_count_rejected() {
    JobConfig::ps_bsp(cluster_a_scaled(4, 2), Scenario::None)
        .with_samples(100_000)
        .with_global_batch(2)
        .validate();
}

/// A zero tick would re-arm the Monitor tick at the same instant forever.
#[test]
#[should_panic(expected = "monitor tick must be positive")]
fn zero_monitor_tick_rejected() {
    JobConfig::ps_bsp(cluster_a_scaled(4, 2), Scenario::None)
        .with_fast_cadence(SimDuration::ZERO)
        .validate();
}

/// A zero timeout would declare a healthy job stalled at t = 0.
#[test]
#[should_panic(expected = "liveness timeout must be positive")]
fn zero_liveness_timeout_rejected() {
    JobConfig::ps_bsp(cluster_a_scaled(4, 2), Scenario::None)
        .with_liveness_timeout(SimDuration::ZERO)
        .validate();
}

/// A small PS job whose worker 0 restarts `extra_secs` late.
fn with_restart_delay(extra_secs: f64) -> JobConfig {
    JobConfig::ps_bsp(cluster_a_scaled(4, 2), Scenario::None).with_injections(vec![
        ChaosInjection { at_secs: 10.0, fault: InjectedFault::RestartDelay { w: 0, extra_secs } },
    ])
}

#[test]
#[should_panic(expected = "RestartDelay extra_secs must be finite and non-negative")]
fn nan_restart_delay_rejected() {
    with_restart_delay(f64::NAN).validate();
}

#[test]
#[should_panic(expected = "RestartDelay extra_secs must be finite and non-negative")]
fn negative_restart_delay_rejected() {
    with_restart_delay(-5.0).validate();
}

#[test]
#[should_panic(expected = "Fixed checkpoint interval must be finite and positive")]
fn non_finite_fixed_cadence_rejected() {
    with_policy(CkptPolicy::Fixed { interval_secs: f64::NAN }).validate();
}

#[test]
#[should_panic(expected = "Fixed checkpoint interval must be finite and positive")]
fn negative_fixed_cadence_rejected() {
    with_policy(CkptPolicy::Fixed { interval_secs: -60.0 }).validate();
}

#[test]
#[should_panic(expected = "Fixed checkpoint interval must be finite and positive")]
fn sub_microsecond_fixed_cadence_rejected() {
    with_policy(CkptPolicy::Fixed { interval_secs: 1e-9 }).validate();
}

#[test]
#[should_panic(expected = "Adaptive checkpoint min_secs must be finite and positive")]
fn adaptive_cadence_with_zero_floor_rejected() {
    with_policy(CkptPolicy::Adaptive { min_secs: 0.0, max_secs: 600.0 }).validate();
}

#[test]
#[should_panic(expected = "exceeds max_secs")]
fn adaptive_cadence_with_inverted_bounds_rejected() {
    with_policy(CkptPolicy::Adaptive { min_secs: 600.0, max_secs: 60.0 }).validate();
}

#[test]
fn default_checkpoint_cadence_is_a_fixed_ten_minute_local_save() {
    let cfg = JobConfig::ps_bsp(cluster_a_scaled(4, 2), Scenario::None);
    assert_eq!(cfg.checkpoint_interval, SimDuration::from_minutes(10));
    assert_eq!(cfg.ckpt, CkptConfig { capture_stall_secs: 15.0, ..CkptConfig::default() });
    let cfg = cfg.with_checkpoint_interval(SimDuration::from_secs(60));
    assert_eq!(cfg.ckpt.policy, CkptPolicy::Fixed { interval_secs: 60.0 });
}

#[test]
#[should_panic(expected = "KillServer injection requires the DDS data strategy")]
fn injection_kill_server_rejected_without_dds() {
    JobConfig::ps_asp(cluster_a_scaled(4, 2), Scenario::None)
        .with_data_strategy(DataStrategy::EvenPartition)
        .with_injections(vec![ChaosInjection {
            at_secs: 10.0,
            fault: InjectedFault::KillServer { s: 0 },
        }])
        .validate();
}

#[test]
#[should_panic(expected = "targets worker")]
fn injection_worker_out_of_range_rejected() {
    JobConfig::ps_bsp(cluster_a_scaled(4, 2), Scenario::None)
        .with_injections(vec![ChaosInjection {
            at_secs: 10.0,
            fault: InjectedFault::KillWorker { w: 4 },
        }])
        .validate();
}

#[test]
#[should_panic(expected = "Parameter Server")]
fn injection_kill_server_rejected_for_allreduce() {
    JobConfig::allreduce(cluster_a_scaled(4, 0), Scenario::None)
        .with_injections(vec![ChaosInjection {
            at_secs: 10.0,
            fault: InjectedFault::KillServer { s: 0 },
        }])
        .validate();
}

/// A Real-mode job over two rows of 4 features whose holdout has
/// `holdout_features` features. (`lr = 0` is valid: it freezes the model,
/// the untrained baseline `tests/integrity.rs` compares AUCs with.)
fn real(lr: f32, holdout_features: u32) -> JobConfig {
    let mut dataset = Dataset::new(4);
    dataset.push(&[0, 2], 1.0);
    dataset.push(&[3], 0.0);
    let holdout = Dataset::new(holdout_features);
    JobConfig::allreduce(cluster_a_scaled(2, 0), Scenario::None)
        .with_samples(2)
        .with_global_batch(2)
        .with_execution(ExecutionMode::Real { dataset, holdout, latent_k: 2, lr })
}

#[test]
#[should_panic(expected = "real-math lr NaN must be finite and >= 0")]
fn nan_lr_rejected() {
    real(f32::NAN, 4).validate();
}

#[test]
#[should_panic(expected = "real-math lr inf must be finite and >= 0")]
fn infinite_lr_rejected() {
    real(f32::INFINITY, 4).validate();
}

#[test]
#[should_panic(expected = "real-math lr -50 must be finite and >= 0")]
fn negative_lr_rejected() {
    real(-50.0, 4).validate();
}

#[test]
#[should_panic(expected = "real-math holdout n_features")]
fn holdout_with_other_n_features_rejected() {
    real(0.4, 5).validate();
}

fn with_rebuild(secs: f64) -> JobConfig {
    let mut cfg = JobConfig::ps_bsp(cluster_a_scaled(4, 2), Scenario::None);
    cfg.world_rebuild_secs = secs;
    cfg
}

#[test]
#[should_panic(expected = "world_rebuild_secs NaN must be finite and non-negative")]
fn nan_world_rebuild_rejected() {
    with_rebuild(f64::NAN).validate();
}

#[test]
#[should_panic(expected = "world_rebuild_secs -1 must be finite and non-negative")]
fn negative_world_rebuild_rejected() {
    with_rebuild(-1.0).validate();
}

#[test]
#[should_panic(expected = "world_rebuild_secs inf must be finite and non-negative")]
fn infinite_world_rebuild_rejected() {
    with_rebuild(f64::INFINITY).validate();
}

/// A 4-worker, 2-server PS-BSP job whose worker 1 and server 0 carry the
/// edits.
fn with_node(edit: impl FnOnce(&mut NodeSpec, &mut NodeSpec)) -> JobConfig {
    let mut cfg = JobConfig::ps_bsp(cluster_a_scaled(4, 2), Scenario::None).with_samples(200_000);
    let (workers, servers) = (&mut cfg.cluster.workers, &mut cfg.cluster.servers);
    edit(&mut workers[1], &mut servers[0]);
    cfg
}

#[test]
#[should_panic(expected = "worker 1 speed_factor 0 must be finite and positive")]
fn zero_speed_factor_rejected() {
    with_node(|w, _| w.profile.speed_factor = 0.0).validate();
}

#[test]
#[should_panic(expected = "server 0 speed_factor -1 must be finite and positive")]
fn negative_speed_factor_rejected() {
    with_node(|_, s| s.profile.speed_factor = -1.0).validate();
}

#[test]
#[should_panic(expected = "worker 1 jitter_sigma NaN must be finite and non-negative")]
fn nan_jitter_sigma_rejected() {
    with_node(|w, _| w.profile.jitter_sigma = f64::NAN).validate();
}

#[test]
#[should_panic(expected = "worker 1 link bandwidth_bps 0 must be positive")]
fn zero_link_bandwidth_rejected() {
    with_node(|w, _| w.link.bandwidth_bps = 0.0).validate();
}

#[test]
#[should_panic(expected = "server 0 link latency_secs NaN must be finite and non-negative")]
fn nan_link_latency_rejected() {
    with_node(|_, s| s.link.latency_secs = f64::NAN).validate();
}

#[test]
#[should_panic(expected = "worker 1 persistent delay_secs -4 must be finite and non-negative")]
fn negative_persistent_delay_rejected() {
    let phase =
        ContentionPhase::Persistent { delay_secs: -4.0, from: SimTime::ZERO, to: SimTime::MAX };
    with_node(|w, _| w.profile.phases.push(phase)).validate();
}

#[test]
#[should_panic(expected = "worker 1 transient delay sleep_secs × intensity NaN must be")]
fn nan_transient_delay_rejected() {
    let phase = ContentionPhase::Transient(TransientPattern::paper_default(f64::NAN));
    with_node(|w, _| w.profile.phases.push(phase)).validate();
}

#[test]
#[should_panic(expected = "server 0 slowdown factor 0.5 must be finite and >= 1")]
fn below_one_slowdown_factor_rejected() {
    let phase = ContentionPhase::Slowdown { factor: 0.5, from: SimTime::ZERO, to: SimTime::MAX };
    with_node(|_, s| s.profile.phases.push(phase)).validate();
}

#[test]
#[should_panic(expected = "server 0 link congestion factor NaN must be finite and >= 1")]
fn nan_link_congestion_factor_rejected() {
    with_node(|_, s| s.link.congestion.push((SimTime::ZERO, SimTime::MAX, f64::NAN))).validate();
}
