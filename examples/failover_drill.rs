//! Failover drill: train a *real* factorization machine through repeated
//! kill/restarts and verify the two properties the paper claims for the
//! Stateful DDS (§VII-D):
//!
//!   1. data integrity — the number of DONE shards equals ⌈N/(B·M)⌉ per epoch
//!      no matter how many failovers happen (at-least-once semantics);
//!   2. statistical integrity — the final model's holdout AUC matches a
//!      failure-free run.
//!
//! Then kills one worker mid-job under both worker-recovery policies and
//! prints the live Fig. 17 contrast: DDS requeue against a global rewind to
//! the last checkpoint.
//!
//! ```sh
//! cargo run --release --example failover_drill
//! ```

use antdt::core::{
    ExecutionMode, FailoverMode, Fault, FaultEvent, Job, JobConfig, MitigationChoice, NodeRef,
};
use antdt::sim::SimDuration;
use antdt::workloads::{cluster, ctr, CtrConfig, Scenario};

fn main() {
    // Real CTR data with a learnable hidden structure.
    let data = ctr::generate(&CtrConfig::default().with_samples(60_000));
    let (train, holdout) = data.split_holdout(0.2);
    let n_train = train.len() as u64;

    let base = |scenario| {
        JobConfig::ps_bsp(cluster::cluster_a_scaled(8, 4), scenario)
            .with_global_batch(2_048)
            .with_samples(n_train)
            .with_epochs(3)
            .with_batches_per_shard(4)
            .with_fast_cadence(SimDuration::from_secs(60))
            .with_execution(ExecutionMode::Real {
                dataset: train.clone(),
                holdout: holdout.clone(),
                latent_k: 8,
                lr: 0.4,
            })
    };

    println!("reference run (no stragglers, no failovers) ...");
    let clean = Job::run(base(Scenario::None));
    println!("drill run (severe stragglers; AntDT-ND will kill/restart) ...");
    let drill = Job::run(
        base(Scenario::WorkerMix { intensity: 1.0 }).with_mitigation(MitigationChoice::AntDtNd),
    );

    let ca = clean.audit.expect("dds");
    let da = drill.audit.expect("dds");
    println!("\n                      reference    drill");
    println!("kill/restarts         {:>9}    {:>5}", clean.n_kills(), drill.n_kills());
    println!("DONE shards           {:>9}    {:>5}", ca.done_shards, da.done_shards);
    println!(
        "expected              {:>9}    {:>5}",
        ca.expected_done_shards, da.expected_done_shards
    );
    println!("requeued shards       {:>9}    {:>5}", ca.requeued_shards, da.requeued_shards);
    println!("holdout AUC           {:>9.4}    {:>5.4}", clean.auc.unwrap(), drill.auc.unwrap());
    assert!(da.at_least_once, "at-least-once must survive failovers");
    assert!(
        (clean.auc.unwrap() - drill.auc.unwrap()).abs() < 0.02,
        "failovers must not harm statistical performance"
    );
    println!("\nboth integrity properties hold.");

    // Fig. 17, live: the same worker kill under both recovery policies, on
    // a longer timing-only job so the replacement comes up well before the
    // end. DDS requeue redoes only the dead worker's in-flight shard; a
    // global rewind restores the last checkpoint and redoes everything since.
    let long = || {
        JobConfig::ps_bsp(cluster::cluster_a_scaled(8, 4), Scenario::None)
            .with_global_batch(2_048)
            .with_samples(2_000_000)
            .with_batches_per_shard(4)
            .with_fast_cadence(SimDuration::from_secs(60))
            .with_checkpoint_interval(SimDuration::from_secs(60))
    };
    let kill_at = Job::run(long()).jct.as_secs_f64() * 0.4;
    println!("\nworker kill at {kill_at:.0}s (40% of the fault-free JCT), checkpoint every 60 s:");
    let killed = |mode| {
        Job::run(long().with_failover_mode(mode).with_injections(vec![FaultEvent {
            at_secs: kill_at,
            fault: Fault::KillNode { node: NodeRef::Worker(3) },
        }]))
    };
    let dds = killed(FailoverMode::DdsBased);
    let rewind = killed(FailoverMode::Replay);
    println!("  policy          JCT      replayed samples");
    for (name, r) in [("DDS requeue", &dds), ("global rewind", &rewind)] {
        println!("  {name:<13} {:>6.0}s   {:>8}", r.jct.as_secs_f64(), r.replayed_samples);
    }
    assert_eq!(dds.replayed_samples, 0, "DDS requeue rewinds nothing");
    assert!(rewind.replayed_samples > 0, "a global rewind replays work since the snapshot");
    assert!(rewind.jct > dds.jct, "replaying lost work costs JCT");
}
