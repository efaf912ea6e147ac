//! The checkpoint-subsystem benchmark: JCT as a function of the checkpoint
//! interval under a fixed seeded kill plan — checkpoint-replay recovery
//! (`FailoverMode::Replay`, the `antdt-ckpt` subsystem restoring the last
//! durable snapshot and requeueing lost shards through the real drivers)
//! against AntDT's DDS-based failover (`FailoverMode::DdsBased`, which
//! requeues only the dead worker's DOING shards and rewinds nothing). The
//! sweep is the paper's Fig. 17 contrast: replayed work grows with the
//! interval, DDS recovery replays nothing.

use crate::util::{header, secs, table, timed};
use antdt_core::{
    ChaosInjection, CkptConfig, CkptPolicy, FailoverMode, InjectedFault, JobConfig,
    MitigationChoice, StorageTier,
};
use antdt_sim::SimDuration;
use antdt_workloads::cluster::cluster_a_scaled;
use antdt_workloads::{ModelProfile, Scenario};
use std::fmt::Write;

/// A clean mid-size PS job: no stragglers, no mitigation policy, so the only
/// faults in the sweep are the injected kills and every JCT delta is pure
/// recovery cost.
fn base() -> JobConfig {
    JobConfig::ps_bsp(cluster_a_scaled(8, 3), Scenario::None)
        .with_model(ModelProfile::xdeepfm())
        .with_global_batch(8_192)
        .with_samples(1_000_000)
        .with_batches_per_shard(10)
        .with_fast_cadence(SimDuration::from_secs(60))
        .with_seed(29)
        .with_mitigation(MitigationChoice::None)
        // Both arms pause for 2 s per checkpoint; at the 5%-of-JCT interval
        // the default 15 s save would swamp the sweep with stall cost and
        // bury the recovery-model signal this experiment is after.
        .with_ckpt_save_secs(2.0)
}

/// The seeded kill plan, placed relative to the fault-free JCT so both kills
/// land mid-job at any absolute scale: worker 1 at 30%, worker 2 at 65%.
fn kills(clean_jct_secs: f64) -> Vec<ChaosInjection> {
    vec![
        ChaosInjection {
            at_secs: clean_jct_secs * 0.30,
            fault: InjectedFault::KillWorker { w: 1 },
        },
        ChaosInjection {
            at_secs: clean_jct_secs * 0.65,
            fault: InjectedFault::KillWorker { w: 2 },
        },
    ]
}

pub fn ckpt() -> String {
    let mut out = header(
        "ckpt",
        "Checkpoint subsystem: JCT vs interval under a seeded kill plan, replay vs DDS-based",
    );
    const REPS: usize = 2;

    // Probe the fault-free twin once: it anchors the kill instants, the
    // interval grid, and the "vs clean" column.
    let (_, clean) = timed(1, base);
    let clean_jct = clean.jct.as_secs_f64();
    let intervals: Vec<f64> = [0.05, 0.20, 0.60].iter().map(|f| f * clean_jct).collect();
    let _ = writeln!(
        out,
        "  clean JCT {} — kills at 30%/65% of it, intervals at 5%/20%/60% of it",
        secs(clean_jct)
    );

    // The sweep grid: {replay, dds} x 3 intervals, fanned out on the
    // experiment pool. Each point is an independent deterministic simulation.
    let points: Vec<(&'static str, f64)> =
        ["replay", "dds"].iter().flat_map(|m| intervals.iter().map(move |&i| (*m, i))).collect();
    let sweep = antdt_par::par_map(points, |(mode, interval)| {
        let mk = || {
            let cfg = base()
                .with_injections(kills(clean_jct))
                .with_liveness_timeout(SimDuration::from_secs(1_800))
                .with_checkpoint_interval(SimDuration::from_secs_f64(interval));
            match mode {
                "replay" => cfg.with_failover_mode(FailoverMode::Replay).with_ckpt(CkptConfig {
                    tier: StorageTier::ObjectStore,
                    policy: CkptPolicy::Fixed { interval_secs: interval },
                    capture_stall_secs: 2.0,
                }),
                _ => cfg.with_failover_mode(FailoverMode::DdsBased),
            }
        };
        let (wall, r) = timed(REPS, mk);
        (mode, interval, wall, r)
    });

    let mut rows = vec![vec![
        "mode".into(),
        "interval".into(),
        "JCT (sim)".into(),
        "vs clean".into(),
        "snapshots".into(),
        "restores".into(),
        "replayed".into(),
        "rolled-back".into(),
        "wall".into(),
    ]];
    let mut json_points = String::new();
    for (mode, interval, wall, r) in &sweep {
        let jct = r.jct.as_secs_f64();
        let (snaps, restores) = r
            .ckpt
            .as_ref()
            .map(|c| (c.snapshots.len().to_string(), c.restores.len().to_string()))
            .unwrap_or_else(|| ("-".into(), "-".into()));
        rows.push(vec![
            (*mode).into(),
            secs(*interval),
            secs(jct),
            format!("{:+.1}%", (jct / clean_jct.max(1e-9) - 1.0) * 100.0),
            snaps,
            restores,
            r.replayed_samples.to_string(),
            r.rolled_back_samples.to_string(),
            format!("{:.4}s", wall),
        ]);
        let _ = write!(
            json_points,
            concat!(
                "{{\"mode\":\"{}\",\"interval_secs\":{:.3},\"jct_micros\":{},",
                "\"snapshots\":{},\"restores\":{},\"replayed_samples\":{},",
                "\"rolled_back_samples\":{}}},"
            ),
            mode,
            interval,
            r.jct.as_micros(),
            r.ckpt.as_ref().map_or(0, |c| c.snapshots.len()),
            r.ckpt.as_ref().map_or(0, |c| c.restores.len()),
            r.replayed_samples,
            r.rolled_back_samples,
        );
    }
    out.push_str(&table(&rows));
    let _ = writeln!(
        out,
        "  sweep: 8 workers / 3 servers, two injected kills; short intervals pay \
         capture stalls, long intervals pay replay (a kill before the first \
         snapshot replays from scratch); DDS-based failover replays nothing"
    );

    // Machine-readable artifact (hand-rendered: the workspace has no serde).
    let json = format!(
        "{{\"experiment\":\"ckpt\",\"reps\":{},\"clean_jct_micros\":{},\"points\":[{}]}}\n",
        REPS,
        clean.jct.as_micros(),
        json_points.trim_end_matches(','),
    );
    crate::util::write_artifact(&mut out, "BENCH_ckpt.json", &json);
    out
}
