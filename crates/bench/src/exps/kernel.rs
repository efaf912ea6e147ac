//! The runtime-kernel refactor benchmark: JCT/event parity against the
//! committed golden traces, event-loop throughput, and the Local-SGD
//! strategy that the `SyncStrategy` seam made a one-file addition.

use crate::util::{header, secs, table};
use antdt_core::{Job, JobConfig, JobReport, MitigationChoice};
use antdt_sim::SimDuration;
use antdt_workloads::cluster::{cluster_a_scaled, cluster_b};
use antdt_workloads::{ModelProfile, Scenario};
use std::fmt::Write;

/// The clean golden dumps of the four fixtures, the very files
/// `tests/refactor_equivalence.rs` compares every run with. Reading the
/// reference from them keeps the parity column from going stale when a
/// re-bless moves a fixture.
const GOLDEN: [(&str, &str); 4] = [
    ("bsp", include_str!("../../../../tests/golden/bsp_clean.txt")),
    ("asp", include_str!("../../../../tests/golden/asp_clean.txt")),
    ("ssp", include_str!("../../../../tests/golden/ssp_clean.txt")),
    ("allreduce", include_str!("../../../../tests/golden/allreduce_clean.txt")),
];

/// `(fixture, jct_micros, events_processed)` of each golden dump.
pub(crate) fn golden_parity() -> impl Iterator<Item = (&'static str, u64, u64)> {
    GOLDEN.into_iter().map(|(name, dump)| {
        let field = |key: &str| -> u64 {
            dump.lines()
                .find_map(|line| line.strip_prefix(key))
                .and_then(|v| v.trim().parse().ok())
                .unwrap_or_else(|| panic!("golden dump {name}_clean lacks `{key}`"))
        };
        (name, field("jct_us:"), field("events_processed:"))
    })
}

fn ps_base(cfg: JobConfig) -> JobConfig {
    cfg.with_model(ModelProfile::xdeepfm())
        .with_global_batch(4_096)
        .with_samples(200_000)
        .with_batches_per_shard(10)
        .with_fast_cadence(SimDuration::from_secs(60))
        .with_seed(11)
}

/// The fixture configs, byte-for-byte the ones behind `tests/golden/*_clean`.
pub(crate) fn fixture(name: &str) -> JobConfig {
    match name {
        "bsp" => ps_base(JobConfig::ps_bsp(
            cluster_a_scaled(4, 2),
            Scenario::WorkerMix { intensity: 1.0 },
        ))
        .with_mitigation(MitigationChoice::AntDtNd),
        "asp" => ps_base(JobConfig::ps_asp(
            cluster_a_scaled(4, 2),
            Scenario::WorkerPersistent { intensity: 0.8 },
        ))
        .with_samples(800_000),
        "ssp" => ps_base(JobConfig::ps_ssp(
            cluster_a_scaled(4, 2),
            Scenario::WorkerTransient { intensity: 0.8 },
            3,
        ))
        .with_samples(800_000),
        "allreduce" => ar_fixture(),
        _ => unreachable!("unknown fixture"),
    }
}

fn ar_fixture() -> JobConfig {
    JobConfig::allreduce(cluster_b(), Scenario::None)
        .with_model(ModelProfile::resnet101())
        .with_global_batch(768)
        .with_samples(345_600)
        .with_batches_per_shard(2)
        .with_fast_cadence(SimDuration::from_secs(60))
        .with_seed(23)
}

/// Same cluster/workload as the AllReduce fixture, but under the Local-SGD
/// strategy with H = 4 local steps per ring sync.
fn local_sgd_fixture(sync_every: u32) -> JobConfig {
    JobConfig::local_sgd(cluster_b(), Scenario::None, sync_every)
        .with_model(ModelProfile::resnet101())
        .with_global_batch(768)
        .with_samples(345_600)
        .with_batches_per_shard(2)
        .with_fast_cadence(SimDuration::from_secs(60))
        .with_seed(23)
}

/// Best-of-`reps` wall time plus the (deterministic) report. Under a frozen
/// wall (`util::freeze_wall`) the reported wall is exactly `0.0`, so report
/// strings stay byte-comparable across parity runs.
pub(crate) fn timed(reps: usize, mk: impl Fn() -> JobConfig) -> (f64, JobReport) {
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..reps {
        let t0 = std::time::Instant::now();
        let r = Job::run(mk());
        best = best.min(crate::util::elapsed_secs(t0));
        last = Some(r);
    }
    (best, last.expect("reps >= 1"))
}

pub fn kernel() -> String {
    let mut out = header(
        "kernel",
        "Runtime-kernel refactor: JCT/event parity vs the golden traces + throughput",
    );
    const REPS: usize = 3;

    let mut rows = vec![vec![
        "fixture".into(),
        "JCT (sim)".into(),
        "events".into(),
        "golden".into(),
        "parity".into(),
        "wall".into(),
        "events/s".into(),
    ]];
    let mut json_rows = String::new();
    let mut all_match = true;
    for (name, golden_jct_us, golden_events) in golden_parity() {
        let (wall, r) = timed(REPS, || fixture(name));
        let jct_us = r.jct.as_micros();
        let events = r.events_processed;
        let parity = jct_us == golden_jct_us && events == golden_events;
        all_match &= parity;
        rows.push(vec![
            name.into(),
            secs(r.jct.as_secs_f64()),
            events.to_string(),
            format!("{:.3}s / {golden_events}", golden_jct_us as f64 / 1e6),
            if parity { "MATCH".into() } else { "DIVERGED".into() },
            format!("{:.4}s", wall),
            format!("{:.0}", events as f64 / wall.max(1e-9)),
        ]);
        let _ = write!(
            json_rows,
            concat!(
                "{{\"fixture\":\"{}\",\"jct_micros\":{},\"events\":{},",
                "\"golden_jct_micros\":{},\"golden_events\":{},\"parity\":{},",
                "\"wall_secs\":{:.6},\"events_per_sec\":{:.1}}},"
            ),
            name,
            jct_us,
            events,
            golden_jct_us,
            golden_events,
            parity,
            wall,
            events as f64 / wall.max(1e-9),
        );
    }
    out.push_str(&table(&rows));
    let _ = writeln!(
        out,
        "  parity: {} (fixed-seed JCT and event counts vs tests/golden/*_clean.txt)",
        if all_match { "all fixtures MATCH" } else { "DIVERGENCE — see table" }
    );

    // The seam payoff: Local SGD (H local steps per ring sync) on the same
    // workload as the AllReduce fixture. H x fewer communication rounds.
    const H: u32 = 4;
    let (ar_wall, ar) = timed(REPS, ar_fixture);
    let (ls_wall, ls) = timed(REPS, || local_sgd_fixture(H));
    let _ = writeln!(
        out,
        "  local-sgd (H={H}): {} rounds vs allreduce {} rounds, JCT {} vs {}, events {} vs {}",
        ls.iterations,
        ar.iterations,
        secs(ls.jct.as_secs_f64()),
        secs(ar.jct.as_secs_f64()),
        ls.events_processed,
        ar.events_processed,
    );
    assert_eq!(ls.samples_done, ar.samples_done, "both must train the full dataset");
    assert!(
        ls.iterations < ar.iterations,
        "H local steps per sync must need fewer communication rounds"
    );

    // Machine-readable artifact (hand-rendered: the workspace has no serde).
    let json = format!(
        concat!(
            "{{\"experiment\":\"kernel\",\"reps\":{},\"parity\":{},\"fixtures\":[{}],",
            "\"local_sgd\":{{\"sync_every\":{},\"rounds\":{},\"allreduce_rounds\":{},",
            "\"jct_micros\":{},\"allreduce_jct_micros\":{},\"wall_secs\":{:.6},",
            "\"allreduce_wall_secs\":{:.6}}}}}\n"
        ),
        REPS,
        all_match,
        json_rows.trim_end_matches(','),
        H,
        ls.iterations,
        ar.iterations,
        ls.jct.as_micros(),
        ar.jct.as_micros(),
        ls_wall,
        ar_wall,
    );
    crate::util::write_artifact(&mut out, "BENCH_kernel.json", &json);
    out
}
