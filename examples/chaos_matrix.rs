//! Chaos-drill matrix: run a battery of deterministic fault plans — a
//! mid-run worker kill, a cascading double kill, a DDS outage, a degraded
//! link plus lossy reporting — against several mitigation policies, and
//! audit every drill with the invariant suite (at-least-once shards, barrier
//! liveness, global-action convergence, JCT overhead vs the fault-free twin).
//!
//! Also demonstrates the loud-failure path: a kill with failover disabled
//! wedges the barrier, and the liveness watchdog reports a detected stall
//! instead of hanging the simulation.
//!
//! ```sh
//! cargo run --release --example chaos_matrix
//! ```

use antdt::chaos::{ChaosDriver, Fault, FaultPlan, NodeRef, PlanBounds};
use antdt::ckpt::{CkptConfig, CkptPolicy, StorageTier};
use antdt::core::{FailoverMode, JobConfig, MitigationChoice};
use antdt::sim::SimDuration;
use antdt::workloads::{cluster, Scenario};

fn main() {
    let base =
        JobConfig::ps_bsp(cluster::cluster_a_scaled(4, 2), Scenario::WorkerMix { intensity: 0.5 })
            .with_global_batch(4_096)
            .with_samples(500_000)
            .with_batches_per_shard(10)
            .with_fast_cadence(SimDuration::from_secs(60));

    let matrix = ChaosDriver::new(base.clone())
        .with_plan(FaultPlan::new("kill-w1").at(30.0, Fault::KillNode { node: NodeRef::Worker(1) }))
        .with_plan(
            FaultPlan::new("double-kill")
                .at(25.0, Fault::KillNode { node: NodeRef::Worker(0) })
                .at(90.0, Fault::KillNode { node: NodeRef::Worker(2) }),
        )
        .with_plan(FaultPlan::new("dds-outage").at(15.0, Fault::DdsOutage { window_secs: 30.0 }))
        .with_plan(
            FaultPlan::new("slow-link+lossy")
                .at(
                    20.0,
                    Fault::NetworkDegrade {
                        node: NodeRef::Worker(3),
                        factor: 6.0,
                        window_secs: 60.0,
                    },
                )
                .at(20.0, Fault::DropReports { prob: 0.4, window_secs: 60.0, seed: 7 }),
        )
        .with_plan(FaultPlan::random(
            42,
            &PlanBounds { n_workers: 4, horizon_secs: 90.0, max_events: 3 },
        ))
        .with_policies(vec![
            MitigationChoice::AntDtNd,
            MitigationChoice::BackupWorkers { b: 1 },
            MitigationChoice::None,
        ])
        .run();

    println!("{}", matrix.render());
    assert!(matrix.all_passed(), "a drill broke an invariant");

    // Generation fencing holds across the whole matrix: every drill carries a
    // no-stale-directive verdict, and no cell ever applied a directive fenced
    // to a dead incarnation.
    for d in &matrix.drills {
        let inv = d.invariant("no-stale-directive").expect("checker runs on every drill");
        assert!(inv.passed, "{}/{}: {}", d.plan, d.policy, inv.detail);
    }
    println!("no-stale-directive holds across all {} drills", matrix.drills.len());

    // Recovery timelines for the first kill drill.
    println!("\nrecovery timeline (kill-w1 under AntDT-ND):");
    let d = &matrix.drills[0];
    for rec in &d.injections {
        println!(
            "  [{:>6.1}s] {}  restarted {:?}  first post-restart commit {:?}",
            rec.at.0 as f64 / 1e6,
            rec.desc,
            rec.restarted_at.map(|t| t.0 as f64 / 1e6),
            rec.recovered_at.map(|t| t.0 as f64 / 1e6),
        );
    }

    // Checkpoint-replay recovery: the same kill drill under
    // `FailoverMode::Replay` — the replacement loads the last durable
    // snapshot from the storage tier and the DDS queue rewinds to it, so the
    // lost work replays through the real drivers. The `ckpt-replay` invariant
    // audits that the restore actually happened and integrity survived.
    println!("\nckpt-replay drill (kill w1 under Replay failover, 30 s cadence):");
    let replay = ChaosDriver::new(base.clone().with_failover_mode(FailoverMode::Replay).with_ckpt(
        CkptConfig {
            tier: StorageTier::LocalDisk,
            policy: CkptPolicy::Fixed { interval_secs: 30.0 },
            capture_stall_secs: 1.0,
        },
    ))
    .run_one(
        &FaultPlan::new("ckpt-replay").at(40.0, Fault::KillNode { node: NodeRef::Worker(1) }),
        &MitigationChoice::AntDtNd,
    );
    let inv = replay.invariant("ckpt-replay").expect("checker runs on every drill");
    println!("  {:<20} {}  ({})", inv.name, if inv.passed { "PASS" } else { "FAIL" }, inv.detail);
    assert!(inv.passed, "ckpt-replay invariant failed: {}", inv.detail);
    assert!(replay.passed, "replay drill broke an invariant: {:?}", replay.invariants);

    // The loud-failure path: no failover => the watchdog must detect a stall.
    println!("\nwedge drill (kill w2 with failover disabled, 120 s watchdog):");
    let wedge = ChaosDriver::new(base).with_liveness_timeout(SimDuration::from_secs(120)).run_one(
        &FaultPlan::new("wedge").at(20.0, Fault::KillNodeNoFailover { node: NodeRef::Worker(2) }),
        &MitigationChoice::AntDtNd,
    );
    assert!(wedge.stalled, "watchdog must fire");
    for inv in &wedge.invariants {
        println!(
            "  {:<20} {}  ({})",
            inv.name,
            if inv.passed { "PASS" } else { "FAIL" },
            inv.detail
        );
    }
    println!("  the drill returned (samples_done={}), it did not hang.", wedge.samples_done);
}
