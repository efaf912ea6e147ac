//! Byte-parity of the parallel experiment fabric: the pooled fan-outs must
//! produce exactly the strings and reports the serial paths produce.

use antdt_bench::util::freeze_wall;
use antdt_core::{JobConfig, MitigationChoice};
use antdt_sim::SimDuration;
use antdt_workloads::cluster::cluster_a_scaled;
use antdt_workloads::Scenario;

/// Print a readable first-divergence context before failing.
fn assert_same(serial: &str, parallel: &str) {
    if serial == parallel {
        return;
    }
    let (mut line, mut s_ctx, mut p_ctx) = (0usize, String::new(), String::new());
    for (i, (s, p)) in serial.lines().zip(parallel.lines()).enumerate() {
        if s != p {
            line = i + 1;
            s_ctx = s.to_string();
            p_ctx = p.to_string();
            break;
        }
    }
    panic!(
        "serial and parallel outputs diverged at line {line}:\n  serial:   {s_ctx}\n  parallel: {p_ctx}\n\
         (serial {} lines, parallel {} lines)",
        serial.lines().count(),
        parallel.lines().count(),
    );
}

/// A cheap subset of `all`: every fan-out site that finishes in seconds.
/// Always runs, so CI catches fabric regressions without the full suite.
#[test]
fn cheap_subset_is_byte_identical() {
    let ids: Vec<String> =
        ["solver", "controlbus", "fig17", "ablate"].iter().map(|s| s.to_string()).collect();
    let parallel = freeze_wall(|| antdt_bench::run_all(Some(&ids)));
    let serial = antdt_par::with_serial(|| freeze_wall(|| antdt_bench::run_all(Some(&ids))));
    assert_same(&serial, &parallel);
}

/// A small but non-trivial chaos matrix (2 plans x 2 policies), fanned out
/// and under [`antdt_par::with_serial`], must match report for report
/// ([`antdt_chaos::DrillReport`] is `PartialEq` for exactly this).
#[test]
fn chaos_matrix_pooled_equals_serial() {
    use antdt_chaos::{ChaosDriver, Fault, FaultPlan, NodeRef};
    let base = JobConfig::ps_bsp(cluster_a_scaled(4, 2), Scenario::WorkerMix { intensity: 0.5 })
        .with_global_batch(4_096)
        .with_samples(200_000)
        .with_batches_per_shard(10)
        .with_fast_cadence(SimDuration::from_secs(60));
    let driver = ChaosDriver::new(base)
        .with_plan(FaultPlan::new("kill-w1").at(30.0, Fault::KillNode { node: NodeRef::Worker(1) }))
        .with_plan(FaultPlan::new("dds-outage").at(15.0, Fault::DdsOutage { window_secs: 30.0 }))
        .with_policies(vec![MitigationChoice::AntDtNd, MitigationChoice::None]);
    assert!(
        driver.run() == antdt_par::with_serial(|| driver.run()),
        "pooled chaos matrix diverged from the serial loops"
    );
}

/// The full `experiments all` suite, serial vs pooled: seconds in a release
/// build, far longer in a debug one. Release CI runs it with
/// `cargo test --release -p antdt-bench --test parallel_parity -- --include-ignored`.
#[test]
#[ignore = "runs the full experiment suite twice; run in a release build with --include-ignored"]
fn full_all_is_byte_identical() {
    let parallel = freeze_wall(|| antdt_bench::run_all(None));
    let serial = antdt_par::with_serial(|| freeze_wall(|| antdt_bench::run_all(None)));
    assert_same(&serial, &parallel);
}
