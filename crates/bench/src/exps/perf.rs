//! The deterministic perf harness (bench id `perf`): allocation counts via
//! the feature-gated counting allocator, the wall-clock serial-vs-parallel
//! speedup of `experiments all`, and the parity verdicts that prove
//! parallelism and fork replay changed nothing but the wall clock.

use super::attr::ForkShare;
use crate::alloc::count_allocations;
use crate::util::{freeze_wall, header, table};
use antdt_core::{Job, JobConfig, MitigationChoice, Perturbation};
use antdt_sim::{ContentionPhase, ControlChannel, SimDuration, SimTime};
use antdt_whatif::{ServiceConfig, WhatIfQuery, WhatIfService};
use antdt_workloads::Scenario;
use std::fmt::Write;

/// The fork-replay demo job (mirrors `tests/attribution.rs`'s forkable job): every
/// divergence source engages strictly after t=0, so all three stock
/// perturbations replay from a fork.
fn forkable_cfg() -> JobConfig {
    let mut cfg =
        JobConfig::ps_bsp(antdt_workloads::cluster::cluster_a_scaled(4, 2), Scenario::None)
            .with_global_batch(4_096)
            .with_samples(2_000_000)
            .with_batches_per_shard(10)
            .with_fast_cadence(SimDuration::from_secs(60))
            .with_seed(11)
            .with_attribution()
            .with_control_channel(ControlChannel::Modeled {
                latency_secs: 0.05,
                jitter_secs: 0.02,
                loss_prob: 0.01,
                seed: 5,
            })
            .with_checkpoint_interval(SimDuration::from_secs(60));
    cfg.cluster.workers[3].profile.phases.push(ContentionPhase::Persistent {
        delay_secs: 4.0,
        from: SimTime::from_secs_f64(60.0),
        to: SimTime::MAX,
    });
    cfg
}

pub fn perf() -> String {
    let mut out = header(
        "perf",
        "Deterministic perf harness: allocation counts, parallel speedup, parity verdicts",
    );

    // -- 1. Job allocation counts on two golden fixtures (PS/BSP and ring).
    //    Deterministic under count-alloc: the same simulation performs the
    //    same allocations every run.
    let mut rows = vec![vec!["fixture".into(), "allocations".into()]];
    let mut fixture_allocs: Vec<Option<u64>> = Vec::new();
    for name in ["bsp", "allreduce"] {
        let (allocs, _report) = count_allocations(|| Job::run(super::kernel::fixture(name)));
        fixture_allocs.push(allocs);
        let shown = allocs
            .map_or_else(|| "n/a (build with --features count-alloc)".into(), |a| a.to_string());
        rows.push(vec![name.into(), shown]);
    }
    out.push_str(&table(&rows));

    // -- 2. Serial vs parallel `experiments all`: the full suite once on the
    //    pool and once forced serial, both under a frozen wall so every
    //    embedded wall-time figure renders as 0 and the two report strings
    //    can be compared byte for byte. The speedup itself is measured by
    //    this harness's own (unfrozen) stopwatch around each pass.
    let jobs = antdt_par::jobs();
    let avail = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let t0 = std::time::Instant::now();
    let parallel = freeze_wall(|| crate::run_all(None));
    let wall_par = t0.elapsed().as_secs_f64();
    let t0 = std::time::Instant::now();
    let serial = antdt_par::with_serial(|| freeze_wall(|| crate::run_all(None)));
    let wall_ser = t0.elapsed().as_secs_f64();
    let all_parity = serial == parallel;
    let speedup = wall_ser / wall_par.max(1e-9);
    let _ = writeln!(
        out,
        "  experiments all: serial {wall_ser:.2}s vs parallel {wall_par:.2}s on {jobs} jobs \
         = {speedup:.2}x speedup ({avail} hardware threads available)"
    );
    let _ = writeln!(
        out,
        "  serial/parallel output parity: {}",
        if all_parity { "MATCH (byte-identical reports)" } else { "DIVERGED" }
    );

    // -- 3. Chaos matrix parity: the pooled plan x policy fan-out must equal
    //    the nested serial loops, report for report.
    let chaos_parity = chaos_matrix_parity();
    let _ = writeln!(
        out,
        "  chaos matrix parity: {}",
        if chaos_parity { "MATCH (run == run_serial)" } else { "DIVERGED" }
    );

    // -- 4. Fork-based what-if replay: the three stock perturbations answered
    //    by the what-if service off one shared prefix must reproduce the
    //    full-rerun table row-for-row, and the prefix share says how much
    //    simulation the forks skipped.
    let fork_cfg = forkable_cfg();
    let fork_base = Job::run(fork_cfg.clone());
    let fork_perturbations = [
        Perturbation::HealthyNode(3),
        Perturbation::ZeroControlLatency,
        Perturbation::NoCkptStalls,
    ];
    let full_rows = antdt_core::what_if_table(&fork_cfg, &fork_base, &fork_perturbations);
    let queries: Vec<WhatIfQuery> = fork_perturbations
        .iter()
        .map(|&perturbation| WhatIfQuery { cfg: fork_cfg.clone(), perturbation })
        .collect();
    let answers = WhatIfService::new(ServiceConfig::default()).answer_batch(&queries);
    let fork_rows = antdt_core::counterfactual_rows(
        &fork_base,
        &fork_perturbations,
        answers.iter().map(|a| &a.report),
    );
    let fork_stats = ForkShare::of(&answers);
    let fork_parity = fork_rows == full_rows && fork_stats.forked == fork_perturbations.len();
    let _ = writeln!(
        out,
        "  what-if fork replay: {} of {} forked, prefix share {:.1}% \
         ({} of {} events inherited)",
        fork_stats.forked,
        fork_perturbations.len(),
        fork_stats.prefix_share() * 100.0,
        fork_stats.prefix_events,
        fork_stats.total_events,
    );
    let _ = writeln!(
        out,
        "  what-if fork parity: {}",
        if fork_parity { "MATCH (service table == full-rerun table)" } else { "DIVERGED" }
    );

    // Machine-readable artifact (hand-rendered: the workspace has no serde).
    let allocs_json = |a: Option<u64>| a.map_or_else(|| "null".into(), |a| a.to_string());
    let json = format!(
        concat!(
            "{{\"experiment\":\"perf\",",
            "\"job_allocs\":{{\"bsp\":{},\"allreduce\":{}}},",
            "\"whatif_fork\":{{\"forked\":{},\"prefix_events\":{},\"suffix_events\":{},",
            "\"total_events\":{},\"prefix_share\":{:.4},\"fork_parity\":{}}},",
            "\"parallel\":{{\"jobs\":{},\"available_parallelism\":{},",
            "\"wall_serial_secs\":{:.6},\"wall_parallel_secs\":{:.6},\"speedup\":{:.3},",
            "\"all_output_parity\":{},\"chaos_matrix_parity\":{}}}}}\n"
        ),
        allocs_json(fixture_allocs[0]),
        allocs_json(fixture_allocs[1]),
        fork_stats.forked,
        fork_stats.prefix_events,
        fork_stats.total_events - fork_stats.prefix_events,
        fork_stats.total_events,
        fork_stats.prefix_share(),
        fork_parity,
        jobs,
        avail,
        wall_ser,
        wall_par,
        speedup,
        all_parity,
        chaos_parity,
    );
    crate::util::write_artifact(&mut out, "BENCH_perf.json", &json);

    assert!(all_parity, "parallel `experiments all` diverged from the serial pass");
    assert!(chaos_parity, "pooled chaos matrix diverged from the serial loops");
    assert!(fork_parity, "what-if service table diverged from the full-rerun table");
    out
}

/// A small but non-trivial chaos matrix (2 plans x 2 policies) drilled twice —
/// pooled and serial — and compared structurally.
fn chaos_matrix_parity() -> bool {
    use antdt_chaos::{ChaosDriver, Fault, FaultPlan, NodeRef};
    let base = JobConfig::ps_bsp(
        antdt_workloads::cluster::cluster_a_scaled(4, 2),
        Scenario::WorkerMix { intensity: 0.5 },
    )
    .with_global_batch(4_096)
    .with_samples(200_000)
    .with_batches_per_shard(10)
    .with_fast_cadence(SimDuration::from_secs(60));
    let driver = ChaosDriver::new(base)
        .with_plan(FaultPlan::new("kill-w1").at(30.0, Fault::KillNode { node: NodeRef::Worker(1) }))
        .with_plan(FaultPlan::new("dds-outage").at(15.0, Fault::DdsOutage { window_secs: 30.0 }))
        .with_policies(vec![MitigationChoice::AntDtNd, MitigationChoice::None]);
    driver.run() == driver.run_serial()
}
