//! The job driver: builds the mitigation policy from the configuration and
//! dispatches to the right runtime.

use crate::config::{JobConfig, MitigationChoice};
use crate::report::JobReport;
use crate::runtime;
use antdt_controller::{
    AdjustLrPolicy, AntDtDd, AntDtNd, BackupWorkersPolicy, KillRestartOnly, LbBsp,
    MitigationPolicy, NdConfig, NoMitigation,
};

/// Entry point for running one training job end to end.
pub struct Job;

impl Job {
    pub fn run(cfg: JobConfig) -> JobReport {
        let policy = build_policy(&cfg);
        runtime::run_with_policy(cfg, policy)
    }
}

pub(crate) fn build_policy(cfg: &JobConfig) -> Box<dyn MitigationPolicy> {
    match &cfg.mitigation {
        MitigationChoice::None => Box::new(NoMitigation),
        MitigationChoice::AntDtNd => Box::new(AntDtNd::new(NdConfig::default())),
        MitigationChoice::AntDtNdAsp => Box::new(AntDtNd::new(NdConfig::asp())),
        MitigationChoice::AntDtDd => {
            Box::new(AntDtDd::new(cfg.dd_config().expect("AntDT-DD requires dd_classes")))
        }
        MitigationChoice::LbBsp => {
            let caps: Vec<u64> =
                cfg.cluster.workers.iter().map(|w| w.device.mem_cap_batch).collect();
            Box::new(LbBsp::new(caps))
        }
        MitigationChoice::BackupWorkers { b } => Box::new(BackupWorkersPolicy::new(*b)),
        MitigationChoice::KillRestartOnly => Box::new(KillRestartOnly::new(1.5)),
        MitigationChoice::AdjustLr => Box::new(AdjustLrPolicy::new(1.5)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Arch, Consistency, DataStrategy, ExecutionMode};
    use antdt_sim::dist::Dist;
    use antdt_sim::{BusynessTimeline, SchedulerModel, SimDuration};
    use antdt_workloads::cluster::cluster_a_scaled;
    use antdt_workloads::{ctr, CtrConfig, ModelProfile, Scenario};

    /// A small, fast job configuration shared by the runtime tests.
    fn small(scenario: Scenario) -> JobConfig {
        JobConfig::ps_bsp(cluster_a_scaled(4, 2), scenario)
            .with_model(ModelProfile::xdeepfm())
            .with_global_batch(4096)
            .with_samples(500_000)
            .with_batches_per_shard(10)
            .with_fast_cadence(SimDuration::from_secs(60))
    }

    #[test]
    fn bsp_clean_run_completes_with_integrity() {
        let r = Job::run(small(Scenario::None));
        assert!(!r.timed_out);
        assert_eq!(r.samples_done, 500_000);
        let audit = r.audit.unwrap();
        assert!(audit.at_least_once);
        assert!(audit.at_most_once, "no failovers => no reserves");
        assert_eq!(audit.done_shards, audit.expected_done_shards);
        // ~122 iterations of ~0.56s each.
        assert!(r.iterations >= 120, "iterations {}", r.iterations);
        assert!(r.jct.as_secs_f64() > 10.0);
        assert!(r.kills.is_empty());
    }

    #[test]
    fn bsp_deterministic_across_runs() {
        let a = Job::run(small(Scenario::WorkerMix { intensity: 0.5 }));
        let b = Job::run(small(Scenario::WorkerMix { intensity: 0.5 }));
        assert_eq!(a.jct, b.jct);
        assert_eq!(a.iterations, b.iterations);
        assert_eq!(a.samples_done, b.samples_done);
    }

    #[test]
    fn worker_straggler_slows_native_bsp() {
        let clean = Job::run(small(Scenario::None));
        let strag = Job::run(small(Scenario::WorkerPersistent { intensity: 0.8 }));
        assert!(
            strag.jct.as_secs_f64() > clean.jct.as_secs_f64() * 2.0,
            "clean {} straggler {}",
            clean.jct,
            strag.jct
        );
    }

    #[test]
    fn antdt_nd_beats_native_bsp_under_worker_stragglers() {
        let native = Job::run(small(Scenario::WorkerMix { intensity: 0.8 }));
        let nd = Job::run(
            small(Scenario::WorkerMix { intensity: 0.8 })
                .with_mitigation(MitigationChoice::AntDtNd),
        );
        assert!(!nd.timed_out);
        assert!(
            nd.jct.as_secs_f64() < native.jct.as_secs_f64() * 0.8,
            "native {} vs antdt-nd {}",
            native.jct,
            nd.jct
        );
        // The persistent straggler (last worker) was kill-restarted.
        assert!(nd.n_kills() >= 1);
        // A kill near the end may not see its restart before the job finishes.
        assert!(nd.restarts.len() <= nd.kills.len());
        // Integrity survives the failovers.
        let audit = nd.audit.unwrap();
        assert!(audit.at_least_once);
    }

    #[test]
    fn antdt_nd_beats_native_bsp_under_server_straggler() {
        // Long enough that one failover's cost amortizes (paper jobs run hours).
        let native =
            Job::run(small(Scenario::ServerPersistent { intensity: 0.8 }).with_samples(2_000_000));
        let nd = Job::run(
            small(Scenario::ServerPersistent { intensity: 0.8 })
                .with_samples(2_000_000)
                .with_mitigation(MitigationChoice::AntDtNd),
        );
        assert!(
            nd.jct.as_secs_f64() < native.jct.as_secs_f64() * 0.8,
            "native {} vs antdt-nd {}",
            native.jct,
            nd.jct
        );
        assert!(nd.kills.iter().any(|(_, n)| n.to_string().starts_with("ps-")));
    }

    #[test]
    fn asp_even_partition_is_dominated_by_the_slowest_worker() {
        let cfg = JobConfig::ps_asp(
            cluster_a_scaled(4, 2),
            Scenario::WorkerPersistent { intensity: 0.8 },
        )
        .with_global_batch(4096)
        .with_samples(400_000)
        .with_data_strategy(DataStrategy::EvenPartition);
        let even = Job::run(cfg);

        let dds = Job::run(
            JobConfig::ps_asp(
                cluster_a_scaled(4, 2),
                Scenario::WorkerPersistent { intensity: 0.8 },
            )
            .with_global_batch(4096)
            .with_samples(400_000)
            .with_batches_per_shard(10),
        );
        assert!(!even.timed_out && !dds.timed_out);
        assert_eq!(even.samples_done, 400_000);
        assert_eq!(dds.samples_done, 400_000);
        // DDS lets fast workers absorb the straggler's share.
        assert!(
            dds.jct.as_secs_f64() < even.jct.as_secs_f64() * 0.75,
            "even {} vs dds {}",
            even.jct,
            dds.jct
        );
        // And the straggler consumed visibly fewer samples under DDS.
        let c = dds.consumption.unwrap();
        let slow = c.per_worker[&3].samples_done;
        let fast = c.per_worker[&0].samples_done;
        assert!(slow < fast, "slow {slow} fast {fast}");
    }

    #[test]
    fn backup_workers_drop_and_requeue_straggler_pushes() {
        let bw = Job::run(
            small(Scenario::WorkerPersistent { intensity: 0.8 })
                .with_mitigation(MitigationChoice::BackupWorkers { b: 1 }),
        );
        assert!(!bw.timed_out);
        assert_eq!(bw.samples_done, 500_000, "at-least-once despite drops");
        let audit = bw.audit.unwrap();
        assert!(audit.at_least_once);
        // Dropped pushes forced requeues.
        assert!(audit.requeued_shards > 0 || bw.samples_done == 500_000);
        let native = Job::run(small(Scenario::WorkerPersistent { intensity: 0.8 }));
        assert!(
            bw.jct.as_secs_f64() < native.jct.as_secs_f64(),
            "native {} vs bw {}",
            native.jct,
            bw.jct
        );
    }

    #[test]
    fn lb_bsp_rebalances_but_cannot_fix_server_straggler() {
        // Worker stragglers: LB-BSP's rebalancing beats native BSP at a scale
        // where the drain tail doesn't dominate (paper-scale proportions).
        let worker_cfg = |m: MitigationChoice| {
            small(Scenario::WorkerMix { intensity: 0.8 })
                .with_samples(3_000_000)
                .with_batches_per_shard(5)
                .with_mitigation(m)
        };
        let lb_worker = Job::run(worker_cfg(MitigationChoice::LbBsp));
        let native_worker = Job::run(worker_cfg(MitigationChoice::None));
        assert!(
            lb_worker.jct.as_secs_f64() < native_worker.jct.as_secs_f64(),
            "native {} vs lb {}",
            native_worker.jct,
            lb_worker.jct
        );

        let lb_server = Job::run(
            small(Scenario::ServerPersistent { intensity: 0.8 })
                .with_samples(2_000_000)
                .with_mitigation(MitigationChoice::LbBsp),
        );
        let nd_server = Job::run(
            small(Scenario::ServerPersistent { intensity: 0.8 })
                .with_samples(2_000_000)
                .with_mitigation(MitigationChoice::AntDtNd),
        );
        // LB-BSP cannot shrink T_s/T_m; AntDT-ND (kill) can.
        assert!(
            nd_server.jct.as_secs_f64() < lb_server.jct.as_secs_f64() * 0.8,
            "lb {} vs nd {}",
            lb_server.jct,
            nd_server.jct
        );
    }

    #[test]
    fn asp_is_no_slower_than_bsp_under_transient_stragglers() {
        let mk = |cons: Consistency| {
            let mut cfg = small(Scenario::WorkerTransient { intensity: 0.8 });
            cfg.arch = Arch::ParameterServer { consistency: cons };
            Job::run(cfg)
        };
        let bsp = mk(Consistency::Bsp);
        let asp = mk(Consistency::Asp);
        assert!(!bsp.timed_out && !asp.timed_out);
        // Both complete the same data; ASP should not be slower than BSP here.
        assert!(asp.jct <= bsp.jct);
    }

    #[test]
    fn real_math_mode_trains_and_reports_auc() {
        let data = ctr::generate(&CtrConfig::default().with_samples(30_000));
        let (train, holdout) = data.split_holdout(0.2);
        let n_train = train.len() as u64;
        let cfg = JobConfig::ps_bsp(cluster_a_scaled(4, 2), Scenario::None)
            .with_global_batch(1024)
            .with_samples(n_train)
            .with_epochs(4)
            .with_batches_per_shard(4)
            .with_execution(ExecutionMode::Real { dataset: train, holdout, latent_k: 8, lr: 0.4 });
        let r = Job::run(cfg);
        assert!(!r.timed_out);
        let auc = r.auc.expect("AUC computed in real mode");
        assert!(auc > 0.7, "AUC {auc}");
    }

    #[test]
    fn background_faults_are_absorbed_by_failover() {
        use crate::config::{ChaosInjection, InjectedFault};
        use antdt_sim::rng::StdRng;
        // Unexpected node failures as seeded worker kills spread over the
        // clean run's lifetime.
        let clean = Job::run(small(Scenario::None).with_samples(2_000_000));
        let mut rng = StdRng::seed_from_u64(7);
        let kills = (0..6)
            .map(|_| ChaosInjection {
                at_secs: rng.gen_range(5.0..clean.jct.as_secs_f64() * 0.8),
                fault: InjectedFault::KillWorker { w: rng.gen_range(0..4u32) },
            })
            .collect();
        let r = Job::run(small(Scenario::None).with_samples(2_000_000).with_injections(kills));
        assert!(!r.timed_out);
        assert!(r.samples_done >= 2_000_000);
        assert!(!r.kills.is_empty(), "faults must actually fire");
        assert!(!r.restarts.is_empty(), "failover must bring nodes back");
        let audit = r.audit.unwrap();
        assert!(audit.at_least_once);
        assert!(audit.requeued_shards >= 1);
        // Faulted runs take longer than the clean run, but complete.
        assert!(r.jct > clean.jct);
    }

    #[test]
    fn replay_failover_is_slower_than_dds_based() {
        use crate::config::FailoverMode;
        let base = || {
            small(Scenario::WorkerPersistent { intensity: 0.8 })
                .with_samples(2_000_000)
                .with_mitigation(MitigationChoice::AntDtNd)
        };
        let dds = Job::run(base());
        let replay = Job::run(base().with_failover_mode(FailoverMode::Replay));
        assert!(dds.n_kills() >= 1 && replay.n_kills() >= 1);
        // Checkpoint replay rewinds to the last durable snapshot and redoes
        // the lost iterations; the DDS path only replays the dead worker's
        // shards (paper Fig. 17).
        assert!(replay.replayed_samples > 0, "the rewind must replay lost work");
        assert_eq!(dds.replayed_samples, 0);
        assert!(replay.jct > dds.jct, "replay {} vs dds {}", replay.jct, dds.jct);
        assert!(replay.audit.unwrap().at_least_once);
    }

    #[test]
    fn replay_failover_recovers_with_auc_parity() {
        use crate::config::{ChaosInjection, FailoverMode, InjectedFault};
        use antdt_ckpt::{CkptConfig, CkptPolicy, StorageTier};
        let data = ctr::generate(&CtrConfig::default().with_samples(30_000));
        let (train, holdout) = data.split_holdout(0.2);
        let n_train = train.len() as u64;
        let base = |train: antdt_ml::Dataset, holdout: antdt_ml::Dataset| {
            // A real-math job spans about a simulated minute, so the paper's
            // pod pending + init (35–80 s) would park the replacement — and
            // the staged restore with it — past the finish line. Model a hot
            // spare instead: the point here is the replay, not the scheduler.
            let mut cl = cluster_a_scaled(4, 2);
            cl.scheduler = SchedulerModel {
                pending_idle: Dist::Point { value: 1.0 },
                pending_busy: Dist::Point { value: 1.0 },
                node_init: Dist::Point { value: 2.0 },
                busyness: BusynessTimeline::always_idle(),
            };
            let mut cfg = JobConfig::ps_bsp(cl, Scenario::None)
                .with_global_batch(1024)
                .with_samples(n_train)
                .with_epochs(4)
                .with_batches_per_shard(4)
                .with_execution(ExecutionMode::Real {
                    dataset: train,
                    holdout,
                    latent_k: 8,
                    lr: 0.4,
                });
            cfg.world_rebuild_secs = 2.0;
            cfg
        };
        let clean = Job::run(base(train.clone(), holdout.clone()));

        // Scale the cadence and the kill to the clean run's length so the
        // drill always sees durable snapshots before the kill and plenty of
        // post-kill work for the replay to chew through.
        let jct = clean.jct.as_secs_f64();
        let interval = jct / 10.0;
        let drill = Job::run(
            base(train, holdout)
                .with_failover_mode(FailoverMode::Replay)
                .with_checkpoint_interval(SimDuration::from_secs_f64(interval))
                .with_ckpt(CkptConfig {
                    tier: StorageTier::ObjectStore,
                    policy: CkptPolicy::Fixed { interval_secs: interval },
                    capture_stall_secs: 0.1,
                })
                .with_injections(vec![ChaosInjection {
                    at_secs: jct * 0.35,
                    fault: InjectedFault::KillWorker { w: 1 },
                }]),
        );
        assert!(!drill.timed_out && !drill.stalled);
        // Recovery went through the snapshot path: captures drained to the
        // tier, one restore loaded a durable snapshot, and the rewound work
        // was actually re-done through the real drivers.
        let ckpt = drill.ckpt.as_ref().expect("subsystem armed");
        assert!(!ckpt.snapshots.is_empty(), "captures must have run");
        assert!(ckpt.snapshots.iter().all(|s| s.durable_at_us > s.taken_at_us));
        assert_eq!(ckpt.restores.len(), 1, "one kill, one restore");
        assert!(ckpt.restores[0].snapshot_at_us > 0, "a durable snapshot was loaded");
        assert!(drill.replayed_samples > 0, "post-snapshot work must replay");
        let audit = drill.audit.as_ref().unwrap();
        assert!(audit.at_least_once);
        // Replaying through the real drivers must not cost model quality.
        let (da, ca) = (drill.auc.unwrap(), clean.auc.unwrap());
        assert!((da - ca).abs() <= 0.02, "drill AUC {da} vs clean {ca}");
    }

    #[test]
    fn overhead_is_a_small_fraction_of_jct() {
        let r = Job::run(
            small(Scenario::None)
                .with_samples(3_000_000)
                .with_mitigation(MitigationChoice::AntDtNd)
                .with_monitor_tick(SimDuration::from_minutes(1)),
        );
        let f = r.overhead.fraction_of(r.jct);
        assert!(f < 0.02, "overhead fraction {f}");
        assert!(f > 0.0);
    }

    #[test]
    fn allreduce_ddp_completes_and_heterogeneity_hurts() {
        use antdt_workloads::cluster::cluster_b;
        let cfg = JobConfig::allreduce(cluster_b(), Scenario::None)
            .with_model(ModelProfile::resnet101())
            .with_global_batch(768)
            .with_samples(76_800)
            .with_batches_per_shard(2);
        let ddp = Job::run(cfg);
        assert!(!ddp.timed_out);
        assert_eq!(ddp.samples_done, 76_800);
        assert!(ddp.iterations >= 100, "rounds {}", ddp.iterations);

        // Homogeneous (all V100) cluster is faster for the same work.
        use antdt_workloads::cluster::cluster_b_with;
        use antdt_workloads::DeviceClass;
        let homog = JobConfig::allreduce(
            cluster_b_with(DeviceClass::v100(), DeviceClass::v100()),
            Scenario::None,
        )
        .with_model(ModelProfile::resnet101())
        .with_global_batch(768)
        .with_samples(76_800)
        .with_batches_per_shard(2);
        let fast = Job::run(homog);
        assert!(fast.jct < ddp.jct);
    }

    #[test]
    fn injected_worker_kill_is_absorbed_and_logged() {
        use crate::config::{ChaosInjection, InjectedFault};
        let r = Job::run(small(Scenario::None).with_samples(1_000_000).with_injections(vec![
            ChaosInjection { at_secs: 30.0, fault: InjectedFault::KillWorker { w: 1 } },
        ]));
        assert!(!r.timed_out && !r.stalled);
        // At-least-once: the killed worker's shards replay, so the job may
        // compute slightly more than one epoch's worth of samples.
        assert!(r.samples_done >= 1_000_000);
        assert_eq!(r.injections.len(), 1);
        let rec = &r.injections[0];
        assert_eq!(rec.at.as_secs_f64(), 30.0);
        assert!(rec.restarted_at.is_some(), "replacement pod must come up");
        let recovered = rec.recovered_at.expect("worker must commit work again");
        assert!(recovered > rec.restarted_at.unwrap());
        assert_eq!(r.kills.len(), 1);
        let audit = r.audit.unwrap();
        assert!(audit.at_least_once);
        assert_eq!(audit.done_shards, audit.expected_done_shards);
    }

    #[test]
    fn no_failover_kill_stalls_and_watchdog_catches_it() {
        use crate::config::{ChaosInjection, InjectedFault};
        let r = Job::run(
            small(Scenario::None)
                .with_injections(vec![ChaosInjection {
                    at_secs: 20.0,
                    fault: InjectedFault::KillWorkerNoFailover { w: 2 },
                }])
                .with_liveness_timeout(SimDuration::from_secs(120)),
        );
        // The dead worker's DOING shards are never requeued, so the job can
        // never complete; the watchdog must end the run loudly.
        assert!(r.stalled, "watchdog must flag the stall");
        assert!(!r.timed_out, "stall detection, not the 30-day time cap");
        assert!(r.samples_done < 500_000);
        let audit = r.audit.unwrap();
        assert!(!audit.at_least_once, "stuck shards never reached DONE");
    }

    #[test]
    fn dds_outage_delays_but_does_not_corrupt() {
        use crate::config::{ChaosInjection, InjectedFault};
        let clean = Job::run(small(Scenario::None));
        let outage = Job::run(small(Scenario::None).with_injections(vec![ChaosInjection {
            at_secs: 10.0,
            fault: InjectedFault::DdsOutage { window_secs: 30.0 },
        }]));
        assert!(!outage.timed_out && !outage.stalled);
        assert_eq!(outage.samples_done, 500_000);
        let audit = outage.audit.unwrap();
        assert!(audit.at_least_once && audit.at_most_once);
        assert!(
            outage.jct.as_secs_f64() > clean.jct.as_secs_f64() + 5.0,
            "outage must cost wall-clock: clean {} outage {}",
            clean.jct,
            outage.jct
        );
    }

    #[test]
    fn telemetry_does_not_change_simulated_results() {
        let base = || {
            small(Scenario::WorkerMix { intensity: 0.8 }).with_mitigation(MitigationChoice::AntDtNd)
        };
        let plain = Job::run(base());
        let instrumented = Job::run(base().with_telemetry());
        assert_eq!(plain.jct, instrumented.jct);
        assert_eq!(plain.iterations, instrumented.iterations);
        assert_eq!(plain.samples_done, instrumented.samples_done);
        assert_eq!(plain.kills, instrumented.kills);
        assert!(plain.telemetry.is_none());
        assert!(instrumented.telemetry.is_some());
    }

    #[test]
    fn telemetry_exports_are_byte_identical_across_same_seed_runs() {
        let base = || {
            small(Scenario::WorkerMix { intensity: 0.8 })
                .with_mitigation(MitigationChoice::AntDtNd)
                .with_telemetry()
        };
        let a = Job::run(base());
        let b = Job::run(base());
        let (ta, tb) = (a.telemetry.expect("telemetry on"), b.telemetry.expect("telemetry on"));
        // Pre-rendered strings: equality here is byte-for-byte identity of the
        // Prometheus text, metrics JSON, Chrome trace JSON and flight dump.
        assert_eq!(ta, tb);
        assert!(ta.prometheus.contains("antdt_worker_iterations_total"));
        assert!(ta.prometheus.contains("antdt_monitor_bpt_reports_total"));
        assert_eq!(a.decision_log, b.decision_log);
        assert!(!a.decision_log.is_empty(), "AntDT-ND must audit its decisions");
    }

    #[test]
    fn stalled_run_dumps_flight_recorder_and_exports_valid_chrome_trace() {
        use crate::config::{ChaosInjection, InjectedFault};
        let r = Job::run(
            small(Scenario::None)
                .with_injections(vec![ChaosInjection {
                    at_secs: 20.0,
                    fault: InjectedFault::KillWorkerNoFailover { w: 2 },
                }])
                .with_liveness_timeout(SimDuration::from_secs(120))
                .with_telemetry(),
        );
        assert!(r.stalled);
        let t = r.telemetry.expect("telemetry on");
        assert_eq!(t.flight.reason, "stalled");
        assert!(!t.flight.events.is_empty(), "flight recorder must hold the last events");
        assert!(t.flight.events.iter().any(|e| e.category == "liveness"));
        // The Chrome trace round-trips through the schema (Perfetto-loadable).
        let parsed = antdt_telemetry::ChromeTrace::from_json(&t.chrome_trace)
            .expect("valid Chrome trace JSON");
        assert!(!parsed.trace_events.is_empty());
        assert!(parsed.trace_events.iter().any(|e| e.name == "stalled"));
        assert!(parsed.trace_events.iter().any(|e| e.cat == "gantt"));
    }

    #[test]
    fn antdt_dd_beats_ddp_and_lb_bsp_on_heterogeneous_gpus() {
        use antdt_controller::DeviceClassSpec;
        use antdt_workloads::cluster::cluster_b;
        let base = || {
            JobConfig::allreduce(cluster_b(), Scenario::None)
                .with_model(ModelProfile::resnet101())
                .with_global_batch(768)
                .with_samples(153_600)
                .with_batches_per_shard(2)
                .with_fast_cadence(SimDuration::from_secs(20))
        };
        let ddp = Job::run(base());
        let lb = Job::run(base().with_mitigation(MitigationChoice::LbBsp));
        let dd = Job::run(base().with_mitigation(MitigationChoice::AntDtDd).with_dd_classes(vec![
            DeviceClassSpec { count: 4, c0_secs: 0.15, b_min: 16, b_max: 112 },
            DeviceClassSpec { count: 4, c0_secs: 0.15, b_min: 16, b_max: 96 },
        ]));
        assert!(!ddp.timed_out && !lb.timed_out && !dd.timed_out);
        assert!(lb.jct < ddp.jct, "LB-BSP {} should beat DDP {}", lb.jct, ddp.jct);
        assert!(dd.jct < lb.jct, "AntDT-DD {} should beat LB-BSP {}", dd.jct, lb.jct);
    }
}
