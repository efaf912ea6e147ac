//! End-to-end integration: whole jobs wired through every crate — simulator,
//! DDS, monitor, controller, agent, runtimes.

use antdt::core::{DataStrategy, Job, JobConfig, MitigationChoice};
use antdt::sim::SimDuration;
use antdt::workloads::{cluster, ModelProfile, Scenario};

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

#[test]
fn straggler_intensity_monotonically_hurts_native_bsp() {
    let mut last = 0.0;
    for si in [0.0, 0.3, 0.6, 0.9] {
        let r = Job::run(job(Scenario::WorkerMix { intensity: si }));
        let jct = r.jct.as_secs_f64();
        assert!(jct > last, "SI {si}: {jct} should exceed {last}");
        last = jct;
    }
}

#[test]
fn antdt_nd_flattens_the_intensity_curve() {
    // Table III's headline: BSP's JCT climbs with intensity, AntDT-ND's barely
    // moves.
    let jct = |si: f64, m: MitigationChoice| {
        Job::run(job(Scenario::WorkerMix { intensity: si }).with_mitigation(m)).jct.as_secs_f64()
    };
    let bsp_lo = jct(0.1, MitigationChoice::None);
    let bsp_hi = jct(0.8, MitigationChoice::None);
    let nd_lo = jct(0.1, MitigationChoice::AntDtNd);
    let nd_hi = jct(0.8, MitigationChoice::AntDtNd);
    let bsp_growth = bsp_hi / bsp_lo;
    let nd_growth = nd_hi / nd_lo;
    assert!(nd_growth < bsp_growth, "ND growth {nd_growth:.2} vs BSP growth {bsp_growth:.2}");
    assert!(nd_hi < bsp_hi, "ND {nd_hi} must beat BSP {bsp_hi} at high SI");
}

#[test]
fn every_mitigation_choice_completes_the_same_data() {
    let scenario = Scenario::WorkerMix { intensity: 0.6 };
    for m in [
        MitigationChoice::None,
        MitigationChoice::AntDtNd,
        MitigationChoice::LbBsp,
        MitigationChoice::BackupWorkers { b: 1 },
        MitigationChoice::KillRestartOnly,
        MitigationChoice::AdjustLr,
    ] {
        let r = Job::run(job(scenario).with_mitigation(m.clone()));
        assert!(!r.timed_out, "{m:?} timed out");
        // At-least-once: every sample processed; failovers may recompute some.
        assert!(r.samples_done >= 1_000_000, "{m:?} lost samples: {}", r.samples_done);
        let audit = r.audit.expect("dds");
        assert!(
            r.samples_done - 1_000_000 <= audit.duplicate_samples_upper_bound,
            "{m:?} duplicated more than the audit bound"
        );
        assert!(audit.at_least_once, "{m:?} broke at-least-once");
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
    assert!(r.job_throughput() > 0.0);
    // Batch series track the AdjustBs decisions.
    assert!(r.worker_batch.iter().all(|s| !s.is_empty()));
}
