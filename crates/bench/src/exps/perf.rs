//! The perf harness (bench id `perf`): allocation counts via the
//! feature-gated counting allocator and the wall-clock serial-vs-parallel
//! speedup of `experiments all`. The serial ≡ fanned-out parity of the
//! reports it times is gated by `tests/parallel_parity.rs`, not here.

use crate::alloc::count_allocations;
use crate::util::{freeze_wall, header, table};
use antdt_core::{Job, JobConfig, MitigationChoice};
use antdt_sim::SimDuration;
use antdt_workloads::cluster::{cluster_a_scaled, cluster_b};
use antdt_workloads::{ModelProfile, Scenario};
use std::fmt::Write;

/// The `bsp` and `allreduce` golden fixture configs, byte-for-byte the ones
/// `tests/refactor_equivalence.rs` runs for `tests/golden/*_clean.txt`.
fn fixture(name: &str) -> JobConfig {
    match name {
        "bsp" => JobConfig::ps_bsp(cluster_a_scaled(4, 2), Scenario::WorkerMix { intensity: 1.0 })
            .with_model(ModelProfile::xdeepfm())
            .with_global_batch(4_096)
            .with_samples(200_000)
            .with_batches_per_shard(10)
            .with_fast_cadence(SimDuration::from_secs(60))
            .with_seed(11)
            .with_mitigation(MitigationChoice::AntDtNd),
        "allreduce" => JobConfig::allreduce(cluster_b(), Scenario::None)
            .with_model(ModelProfile::resnet101())
            .with_global_batch(768)
            .with_samples(345_600)
            .with_batches_per_shard(2)
            .with_fast_cadence(SimDuration::from_secs(60))
            .with_seed(23),
        _ => unreachable!("unknown fixture"),
    }
}

pub fn perf() -> String {
    let mut out = header("perf", "Perf harness: allocation counts, parallel speedup");

    // -- 1. Job allocation counts on two golden fixtures (PS/BSP and ring).
    //    Deterministic under count-alloc: the same simulation performs the
    //    same allocations every run.
    let mut rows = vec![vec!["fixture".into(), "allocations".into()]];
    for name in ["bsp", "allreduce"] {
        let (allocs, _report) = count_allocations(|| Job::run(fixture(name)));
        let shown = allocs
            .map_or_else(|| "n/a (build with --features count-alloc)".into(), |a| a.to_string());
        rows.push(vec![name.into(), shown]);
    }
    out.push_str(&table(&rows));

    // -- 2. Serial vs parallel `experiments all`: the full suite once fanned
    //    out and once forced serial, both under a frozen wall so neither pass
    //    writes artifacts. The speedup is measured by this harness's own
    //    (unfrozen) stopwatch around each pass.
    let jobs = antdt_par::jobs();
    let avail = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let t0 = std::time::Instant::now();
    freeze_wall(|| crate::run_all(None));
    let wall_par = t0.elapsed().as_secs_f64();
    let t0 = std::time::Instant::now();
    antdt_par::with_serial(|| freeze_wall(|| crate::run_all(None)));
    let wall_ser = t0.elapsed().as_secs_f64();
    let speedup = wall_ser / wall_par.max(1e-9);
    let _ = writeln!(
        out,
        "  experiments all: serial {wall_ser:.2}s vs parallel {wall_par:.2}s on {jobs} jobs \
         = {speedup:.2}x speedup ({avail} hardware threads available)"
    );
    out
}
