//! End-to-end integration: whole jobs wired through every crate — simulator,
//! DDS, monitor, controller, agent, runtimes.

use antdt::core::{DataStrategy, Job, JobConfig, MitigationChoice};
use antdt::sim::SimDuration;
use antdt::workloads::{cluster, ModelProfile, Scenario};
use antdt_bench::exps::shapes::assert_holds;

fn job(scenario: Scenario) -> JobConfig {
    JobConfig::ps_bsp(cluster::cluster_a_scaled(6, 3), scenario)
        .with_model(ModelProfile::xdeepfm())
        .with_global_batch(6_144)
        .with_samples(1_000_000)
        .with_batches_per_shard(10)
        .with_fast_cadence(SimDuration::from_secs(60))
}

#[test]
fn whole_stack_is_deterministic() {
    let a = Job::run(
        job(Scenario::WorkerMix { intensity: 0.7 }).with_mitigation(MitigationChoice::AntDtNd),
    );
    let b = Job::run(
        job(Scenario::WorkerMix { intensity: 0.7 }).with_mitigation(MitigationChoice::AntDtNd),
    );
    assert_eq!(a.jct, b.jct);
    assert_eq!(a.iterations, b.iterations);
    assert_eq!(a.kills, b.kills);
    assert_eq!(a.events_processed, b.events_processed);
    // Different seeds genuinely differ.
    let c = Job::run(
        job(Scenario::WorkerMix { intensity: 0.7 })
            .with_mitigation(MitigationChoice::AntDtNd)
            .with_seed(99),
    );
    assert_ne!(a.jct, c.jct);
}

/// Table III's worker side: BSP's JCT climbs from the straggler-free run
/// through every intensity.
#[test]
fn straggler_intensity_monotonically_hurts_native_bsp() {
    assert_holds("tab3_worker_bsp_climbs");
}

/// Table III's headline: BSP's JCT climbs with intensity, AntDT-ND's barely
/// moves.
#[test]
fn antdt_nd_flattens_the_intensity_curve() {
    assert_holds("tab3_worker_nd_flat");
}

#[test]
fn every_mitigation_choice_completes_the_same_data() {
    let scenario = Scenario::WorkerMix { intensity: 0.6 };
    let choices = [
        MitigationChoice::None,
        MitigationChoice::AntDtNd,
        MitigationChoice::LbBsp,
        MitigationChoice::BackupWorkers { b: 1 },
        MitigationChoice::AntDtNdAsp,
    ];
    for m in choices {
        let r = Job::run(job(scenario).with_mitigation(m.clone()));
        let m = format!("{m:?}");
        assert!(!r.timed_out, "{m} timed out");
        // At-least-once: every sample processed; failovers may recompute some.
        assert!(r.samples_done >= 1_000_000, "{m} lost samples: {}", r.samples_done);
        let audit = r.audit.expect("dds");
        assert!(
            r.samples_done - 1_000_000 <= audit.duplicate_samples_upper_bound,
            "{m} duplicated more than the audit bound"
        );
        assert!(audit.at_least_once, "{m} broke at-least-once");
    }
}

#[test]
fn asp_completes_with_dds() {
    let r = Job::run(
        JobConfig::ps_asp(cluster::cluster_a_scaled(6, 3), Scenario::WorkerMix { intensity: 0.6 })
            .with_global_batch(6_144)
            .with_samples(1_000_000)
            .with_batches_per_shard(10),
    );
    assert!(!r.timed_out);
    assert_eq!(r.samples_done, 1_000_000);
}

#[test]
fn even_partition_reports_no_audit_and_finishes() {
    let r = Job::run(
        JobConfig::ps_asp(
            cluster::cluster_a_scaled(4, 2),
            Scenario::WorkerPersistent { intensity: 0.5 },
        )
        .with_global_batch(4_096)
        .with_samples(400_000)
        .with_data_strategy(DataStrategy::EvenPartition),
    );
    assert!(r.audit.is_none(), "no DDS, no audit");
    assert_eq!(r.samples_done, 400_000);
}

#[test]
fn report_series_are_populated() {
    let r = Job::run(
        job(Scenario::WorkerMix { intensity: 0.5 }).with_mitigation(MitigationChoice::AntDtNd),
    );
    assert_eq!(r.worker_bpt.len(), 6);
    assert_eq!(r.server_bpt.len(), 3);
    assert!(r.worker_bpt.iter().all(|s| !s.is_empty()));
    assert!(r.server_bpt.iter().all(|s| !s.is_empty()));
    assert!(!r.global_throughput.is_empty());
    assert!(r.samples_done > 0 && r.jct > SimDuration::ZERO);
    // Batch series track the AdjustBs decisions.
    assert!(r.worker_batch.iter().all(|s| !s.is_empty()));
}
