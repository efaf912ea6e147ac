//! Acceptance drills for the chaos subsystem: the scenarios the subsystem
//! exists to prove out, run end to end through [`ChaosDriver`].

use antdt_chaos::{ChaosDriver, Fault, FaultPlan, NodeRef, PlanBounds};
use antdt_core::{FailoverMode, JobConfig, MitigationChoice};
use antdt_sim::rng::StdRng;
use antdt_sim::SimDuration;
use antdt_workloads::cluster::{cluster_a_scaled, cluster_b};
use antdt_workloads::{ModelProfile, Scenario};

/// Small, fast PS/BSP job: 4 workers, 2 servers, ~122 iterations of ~0.56 s.
fn base(scenario: Scenario) -> JobConfig {
    JobConfig::ps_bsp(cluster_a_scaled(4, 2), scenario)
        .with_model(ModelProfile::xdeepfm())
        .with_global_batch(4096)
        .with_samples(500_000)
        .with_batches_per_shard(10)
        .with_fast_cadence(SimDuration::from_secs(60))
}

fn driver(scenario: Scenario) -> ChaosDriver {
    ChaosDriver::new(base(scenario)).with_liveness_timeout(SimDuration::from_secs(1800))
}

/// Acceptance: a drill that kills a worker mid-iteration under AntDT-ND
/// completes and passes the at-least-once audit with
/// `done_shards == expected_done_shards`.
#[test]
fn worker_kill_under_antdt_nd_completes_with_integrity() {
    let plan =
        FaultPlan::new("kill-w1-mid-run").at(30.0, Fault::KillNode { node: NodeRef::Worker(1) });
    let report =
        driver(Scenario::WorkerMix { intensity: 0.5 }).run_one(&plan, &MitigationChoice::AntDtNd);

    assert!(!report.stalled && !report.timed_out, "{report:?}");
    assert!(report.passed, "invariants failed: {:?}", report.invariants);
    let alo = report.invariant("at-least-once").expect("checker ran");
    assert!(alo.passed, "{alo:?}");
    // The kill produced a full recovery timeline.
    assert_eq!(report.faults_injected, 1);
    let rec = &report.injections[0];
    assert!(rec.restarted_at.is_some(), "replacement pod never came up");
    assert!(rec.recovered_at > rec.restarted_at, "no post-restart commit");
    // Faults cost wall-clock: the drill is slower than its clean twin.
    assert!(report.overhead_frac > 0.0, "overhead {}", report.overhead_frac);
}

/// Acceptance: a server kill restores the last checkpoint under either
/// worker policy. Under `DdsBased` the worker kill recovers from the DDS
/// alone, so the server kill is the one restore; under `Replay` the worker
/// kill rewinds too. The ckpt-replay invariant must see every one of them.
#[test]
fn server_kill_restores_the_last_checkpoint_under_both_worker_policies() {
    let plan = FaultPlan::new("kill-w1-then-ps0")
        .at(35.0, Fault::KillNode { node: NodeRef::Worker(1) })
        .at(200.0, Fault::KillNode { node: NodeRef::Server(0) });
    for (mode, restores) in [(FailoverMode::DdsBased, 1), (FailoverMode::Replay, 2)] {
        let cfg = base(Scenario::None)
            .with_samples(1_000_000)
            .with_checkpoint_interval(SimDuration::from_secs(30))
            .with_failover_mode(mode);
        let report = ChaosDriver::new(cfg)
            .with_liveness_timeout(SimDuration::from_secs(1800))
            .run_one(&plan, &MitigationChoice::None);
        assert!(report.passed, "{mode:?}: invariants failed: {:?}", report.invariants);
        let inv = report.invariant("ckpt-replay").expect("checker ran");
        assert!(
            inv.detail.contains(&format!("restoring_kills={restores} unrestored=0"))
                && inv.detail.contains(&format!("restores={restores} ")),
            "{mode:?}: {inv:?}"
        );
    }
}

/// Acceptance: the same seed produces bit-for-bit identical drill reports —
/// faults are first-class deterministic events, not wall-clock hooks.
#[test]
fn same_seed_drills_are_bit_for_bit_identical() {
    let plan = FaultPlan::new("mixed")
        .at(25.0, Fault::KillNode { node: NodeRef::Worker(2) })
        .at(
            40.0,
            Fault::NetworkDegrade { node: NodeRef::Worker(0), factor: 4.0, window_secs: 20.0 },
        )
        .at(50.0, Fault::DropReports { prob: 0.5, window_secs: 30.0, seed: 99 });
    let d = driver(Scenario::WorkerMix { intensity: 0.5 });
    let a = d.run_one(&plan, &MitigationChoice::AntDtNd);
    let b = d.run_one(&plan, &MitigationChoice::AntDtNd);
    assert_eq!(a, b, "same (plan, seed) must reproduce the identical DrillReport");
}

/// Acceptance: a barrier-stall drill (kill with failover disabled) is caught
/// by the liveness watchdog and reported as a failed liveness invariant —
/// the drill returns instead of hanging, and `stalled` is the loud signal.
#[test]
fn barrier_stall_is_detected_not_hung() {
    let plan =
        FaultPlan::new("wedge-w2").at(20.0, Fault::KillNodeNoFailover { node: NodeRef::Worker(2) });
    let d =
        ChaosDriver::new(base(Scenario::None)).with_liveness_timeout(SimDuration::from_secs(120));
    let report = d.run_one(&plan, &MitigationChoice::AntDtNd);

    assert!(report.stalled, "watchdog must fire on a wedged barrier");
    assert!(!report.timed_out, "stall is detected by the watchdog, not the safety cap");
    // For a stall plan the liveness invariant asserts the watchdog DID fire.
    assert!(report.invariant("liveness").unwrap().passed);
    assert!(report.samples_done < 500_000, "the wedged job cannot have finished");
}

/// The runtime kernel routes chaos through the same seam for every strategy:
/// a rank kill during a ring-AllReduce job drills through the identical
/// driver path as PS. Rings drop the dead rank permanently (no scheduler
/// restart), so the survivors must absorb its requeued shards and every
/// invariant must still hold.
#[test]
fn rank_kill_under_ring_allreduce_completes_with_integrity() {
    let base = JobConfig::allreduce(cluster_b(), Scenario::None)
        .with_model(ModelProfile::resnet101())
        .with_global_batch(768)
        .with_samples(115_200)
        .with_batches_per_shard(2)
        .with_fast_cadence(SimDuration::from_secs(60));
    let plan = FaultPlan::new("kill-rank1-allreduce")
        .at(45.0, Fault::KillNode { node: NodeRef::Worker(1) });
    let report = ChaosDriver::new(base)
        .with_liveness_timeout(SimDuration::from_secs(3600))
        .run_one(&plan, &MitigationChoice::None);

    assert!(!report.stalled && !report.timed_out, "{report:?}");
    assert!(report.passed, "invariants failed: {:?}", report.invariants);
    let alo = report.invariant("at-least-once").expect("checker ran");
    assert!(alo.passed, "{alo:?}");
    assert_eq!(report.faults_injected, 1);
    // Losing a rank costs wall-clock: three survivors train the full dataset.
    assert!(report.overhead_frac > 0.0, "overhead {}", report.overhead_frac);
}

/// The drill matrix runs every (plan × policy) cell and renders a table.
#[test]
fn matrix_covers_plans_times_policies() {
    let matrix = driver(Scenario::WorkerMix { intensity: 0.5 })
        .with_plan(FaultPlan::new("kill").at(30.0, Fault::KillNode { node: NodeRef::Worker(1) }))
        .with_plan(FaultPlan::new("outage").at(15.0, Fault::DdsOutage { window_secs: 20.0 }))
        .with_policies(vec![MitigationChoice::AntDtNd, MitigationChoice::None])
        .run();
    assert_eq!(matrix.drills.len(), 4);
    assert!(matrix.all_passed(), "{}", matrix.render());
    let table = matrix.render();
    assert!(table.contains("kill") && table.contains("outage") && table.contains("PASS"));
}

/// Fuzz drills: any randomly generated (recoverable) plan must leave the job
/// complete with a clean at-least-once audit and no stall. 6 seeded cases.
#[test]
fn random_recoverable_plans_preserve_integrity() {
    for case in 0..6 {
        let seed = StdRng::seed_from_u64(case).gen_range(0u64..1_000);
        let bounds = PlanBounds { n_workers: 4, horizon_secs: 60.0, max_events: 3 };
        let plan = FaultPlan::random(seed, &bounds);
        let report = driver(Scenario::WorkerMix { intensity: 0.5 })
            .run_one(&plan, &MitigationChoice::AntDtNd);
        assert!(!report.stalled && !report.timed_out, "seed {seed}: {report:?}");
        assert!(
            report.passed,
            "seed {seed}: plan {plan:?} broke invariants: {:?}",
            report.invariants
        );
        assert!(report.samples_done >= 500_000, "seed {seed}");
    }
}
