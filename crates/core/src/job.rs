//! The job driver: builds the mitigation policy from the configuration and
//! dispatches to the right runtime.

use crate::config::{JobConfig, MitigationChoice};
use crate::report::JobReport;
use crate::runtime::strategy::PrefixRun;
use antdt_controller::{
    AntDtDd, AntDtNd, BackupWorkersPolicy, LbBsp, MitigationPolicy, NdConfig, NoMitigation,
};

/// Entry point for running one training job end to end.
pub struct Job;

impl Job {
    pub fn run(cfg: JobConfig) -> JobReport {
        let policy = build_policy(&cfg);
        run_with_policy(cfg, policy)
    }
}

/// Run a job with an explicitly constructed policy — the escape hatch for
/// ablations that sweep policy hyper-parameters the standard
/// [`MitigationChoice`] doesn't expose. Dispatches on `cfg.arch` like
/// [`Job::run`].
pub fn run_with_policy(cfg: JobConfig, policy: Box<dyn MitigationPolicy>) -> JobReport {
    PrefixRun::with_policy(cfg, policy).finish()
}

pub(crate) fn build_policy(cfg: &JobConfig) -> Box<dyn MitigationPolicy> {
    match &cfg.mitigation {
        MitigationChoice::None => Box::new(NoMitigation),
        MitigationChoice::AntDtNd => Box::new(AntDtNd::new(NdConfig::default())),
        MitigationChoice::AntDtNdAsp => Box::new(AntDtNd::new(NdConfig::asp())),
        MitigationChoice::AntDtDd => {
            Box::new(AntDtDd::new(cfg.dd_classes.clone().expect("AntDT-DD requires dd_classes")))
        }
        MitigationChoice::LbBsp => {
            let caps: Vec<u64> =
                cfg.cluster.workers.iter().map(|w| w.device.mem_cap_batch).collect();
            Box::new(LbBsp::new(caps))
        }
        MitigationChoice::BackupWorkers { b } => Box::new(BackupWorkersPolicy::new(*b)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Arch, Consistency, ExecutionMode};
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
    fn background_faults_are_absorbed_by_failover() {
        use crate::config::{Fault, FaultEvent, NodeRef};
        use antdt_sim::rng::StdRng;
        // Unexpected node failures as seeded worker kills spread over the
        // clean run's lifetime.
        let clean = Job::run(small(Scenario::None).with_samples(2_000_000));
        let mut rng = StdRng::seed_from_u64(7);
        let kills = (0..6)
            .map(|_| FaultEvent {
                at_secs: rng.gen_range(5.0..clean.jct.as_secs_f64() * 0.8),
                fault: Fault::KillNode { node: NodeRef::Worker(rng.gen_range(0..4u32)) },
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
    fn replay_failover_recovers_with_auc_parity() {
        use crate::config::{FailoverMode, Fault, FaultEvent, NodeRef};
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
                .with_ckpt(CkptConfig {
                    tier: StorageTier::ObjectStore,
                    policy: CkptPolicy::Fixed { interval_secs: interval },
                    capture_stall_secs: 0.1,
                })
                .with_injections(vec![FaultEvent {
                    at_secs: jct * 0.35,
                    fault: Fault::KillNode { node: NodeRef::Worker(1) },
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
        use crate::config::{Fault, FaultEvent, NodeRef};
        let r = Job::run(small(Scenario::None).with_samples(1_000_000).with_injections(vec![
            FaultEvent { at_secs: 30.0, fault: Fault::KillNode { node: NodeRef::Worker(1) } },
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
        use crate::config::{Fault, FaultEvent, NodeRef};
        let r = Job::run(
            small(Scenario::None)
                .with_injections(vec![FaultEvent {
                    at_secs: 20.0,
                    fault: Fault::KillNodeNoFailover { node: NodeRef::Worker(2) },
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
        use crate::config::{Fault, FaultEvent};
        let clean = Job::run(small(Scenario::None));
        let outage = Job::run(small(Scenario::None).with_injections(vec![FaultEvent {
            at_secs: 10.0,
            fault: Fault::DdsOutage { window_secs: 30.0 },
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
        use crate::config::{Fault, FaultEvent, NodeRef};
        let r = Job::run(
            small(Scenario::None)
                .with_injections(vec![FaultEvent {
                    at_secs: 20.0,
                    fault: Fault::KillNodeNoFailover { node: NodeRef::Worker(2) },
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
}
