//! The work census of perfbench's tiny `nd_fleet` shape: PS-BSP over a
//! 40-worker non-dedicated fleet under AntDT-ND, whose epoch tail leaves
//! workers with an empty shard queue. Starving workers park instead of
//! re-polling every 5 s (with re-polls the same job handled 13,532 events,
//! not 9,348), and the census pins how much of the run is no-op handling.

use antdt::core::{Job, JobConfig, JobReport, MitigationChoice, WorkCensus};
use antdt::sim::rng::derive_seed;
use antdt::sim::SimDuration;
use antdt::workloads::cluster::cluster_a_scaled;
use antdt::workloads::{straggler, Scenario};

/// perfbench's `nd_fleet` job at its tiny size, for benchmark seed `seed`,
/// with five times the samples: the tiny job ends before AntDT-ND's first
/// batch-size decision, so every worker drains the queue in step and none
/// starves.
fn tiny_nd_fleet(seed: u64) -> JobReport {
    let workers = 40;
    let mut cluster = cluster_a_scaled(workers, 8);
    cluster.dedicated = false;
    straggler::apply(&mut cluster, Scenario::WorkerMix { intensity: 0.5 });
    straggler::apply(&mut cluster, Scenario::NonDedicated { mean_slowdown: 1.3 });
    Job::run(
        JobConfig::ps_bsp(cluster, Scenario::None)
            .with_global_batch(64 * workers as u64)
            .with_samples(256_000)
            .with_batches_per_shard(10)
            .with_fast_cadence(SimDuration::from_secs(60))
            .with_seed(derive_seed(seed, 1))
            .with_mitigation(MitigationChoice::AntDtNd),
    )
}

#[test]
fn tiny_nd_fleet_census_is_pinned_and_has_no_early_wakeups() {
    let r = tiny_nd_fleet(23);
    assert!(!r.timed_out && !r.stalled);
    let c = &r.census;
    assert_eq!(c.total(), r.events_processed, "the kinds sum to the processed events");
    assert_eq!(c.early_starts, 0, "no start is scheduled before its barrier release: {c:?}");
    let mut events = [0; 15];
    events[..6].copy_from_slice(&[4_794, 4_534, 0, 8, 6, 6]);
    assert_eq!(*c, WorkCensus { events, stale_gen: 6, empty_starts: 253, early_starts: 0 });
}
