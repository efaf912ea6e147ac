//! The checkpoint-interval sweep behind `experiments fig17`: JCT as a function of the checkpoint interval under a fixed seeded
//! kill plan, for both worker-recovery policies. Both arms checkpoint through
//! the same `antdt-ckpt` subsystem at the same cadence and stall; they differ
//! only in what a worker kill recovers:
//!
//! * `dds` (`FailoverMode::DdsBased`, AntDT): the dead worker's DOING shards
//!   are requeued and nothing else rewinds;
//! * `replay` (`FailoverMode::Replay`, the mainstream libraries): the whole
//!   job rewinds to the last durable snapshot and the lost work replays
//!   through the real drivers.
//!
//! Short intervals pay capture stalls in both arms; long intervals pay
//! replayed work in the replay arm only — the paper's Fig. 17 contrast.

use crate::util::{header, secs, table};
use antdt_core::{
    ChaosInjection, CkptConfig, CkptPolicy, FailoverMode, InjectedFault, Job, JobConfig, JobReport,
    MitigationChoice, StorageTier,
};
use antdt_sim::SimDuration;
use antdt_workloads::cluster::cluster_a_scaled;
use antdt_workloads::{ModelProfile, Scenario};
use std::fmt::Write;

/// Seconds each capture stalls the servers in the sweep. Small next to the
/// default 15 s, so the short-interval end of the grid shows the stall arm
/// without burying the recovery-model signal.
const CAPTURE_STALL_SECS: f64 = 2.0;

/// A clean mid-size PS job: no stragglers, no mitigation policy, so the only
/// faults in the sweep are the injected kills and every JCT delta is pure
/// checkpoint and recovery cost.
fn base() -> JobConfig {
    JobConfig::ps_bsp(cluster_a_scaled(8, 3), Scenario::None)
        .with_model(ModelProfile::xdeepfm())
        .with_global_batch(8_192)
        .with_samples(1_000_000)
        .with_batches_per_shard(10)
        .with_fast_cadence(SimDuration::from_secs(60))
        .with_seed(29)
        .with_mitigation(MitigationChoice::None)
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

/// One sweep point: a worker policy at one interval.
struct Point {
    interval_secs: f64,
    report: JobReport,
}

/// Run the kill plan at every interval in `fractions` (of the fault-free JCT)
/// under both worker policies, fanned out with `par_map`. Returns the
/// fault-free probe and the points, the `replay` arm first, each arm in grid
/// order.
fn sweep(fractions: &[f64]) -> (JobReport, Vec<Point>) {
    // The fault-free twin anchors the kill instants, the interval grid and
    // the "vs clean" column.
    let clean = Job::run(base());
    let clean_jct = clean.jct.as_secs_f64();
    let grid: Vec<(FailoverMode, f64)> = [FailoverMode::Replay, FailoverMode::DdsBased]
        .iter()
        .flat_map(|&m| fractions.iter().map(move |f| (m, f * clean_jct)))
        .collect();
    let points = antdt_par::par_map(grid, |(mode, interval_secs)| {
        let report = Job::run(
            base()
                .with_injections(kills(clean_jct))
                .with_liveness_timeout(SimDuration::from_secs(1_800))
                .with_checkpoint_interval(SimDuration::from_secs_f64(interval_secs))
                .with_ckpt(CkptConfig {
                    tier: StorageTier::ObjectStore,
                    policy: CkptPolicy::Fixed { interval_secs },
                    capture_stall_secs: CAPTURE_STALL_SECS,
                })
                .with_failover_mode(mode),
        );
        Point { interval_secs, report }
    });
    (clean, points)
}

/// Snapshots one run captured.
fn snapshots(r: &JobReport) -> usize {
    r.ckpt.as_ref().map_or(0, |c| c.snapshots.len())
}

/// Fig. 17 from live runs: JCT against the checkpoint interval for both
/// worker policies, on a grid dense at short intervals where the
/// capture-stall arm of the U lives.
pub fn fig17() -> String {
    let mut out = header(
        "fig17",
        "Worker failover: JCT vs checkpoint interval, DDS requeue vs global rewind (paper Fig. 17)",
    );
    // The grid starts where the interval exceeds the capture stall: below
    // that, captures queue back to back and the servers barely run.
    let fractions = [0.02, 0.03, 0.05, 0.075, 0.10, 0.15, 0.20, 0.30, 0.45, 0.60, 0.80, 1.0];
    let (clean, sweep) = sweep(&fractions);
    let clean_jct = clean.jct.as_secs_f64();
    let _ = writeln!(
        out,
        "  clean JCT {} — workers 1 and 2 killed at 30%/65% of it; every capture stalls the \
         servers {CAPTURE_STALL_SECS:.0}s",
        secs(clean_jct)
    );
    let (replay, dds) = sweep.split_at(fractions.len());
    let mut rows = vec![vec![
        "ckpt interval".into(),
        "snapshots".into(),
        "DDS requeue (AntDT)".into(),
        "global rewind".into(),
        "rewind − DDS".into(),
        "replayed samples".into(),
    ]];
    for (r, d) in replay.iter().zip(dds) {
        let (rj, dj) = (r.report.jct.as_secs_f64(), d.report.jct.as_secs_f64());
        rows.push(vec![
            secs(r.interval_secs),
            snapshots(&d.report).to_string(),
            secs(dj),
            secs(rj),
            format!("{:+.1}s", rj - dj),
            r.report.replayed_samples.to_string(),
        ]);
    }
    out.push_str(&table(&rows));
    let best = |arm: &[Point]| {
        arm.iter().min_by(|a, b| a.report.jct.cmp(&b.report.jct)).map_or(0.0, |p| p.interval_secs)
    };
    let _ = writeln!(
        out,
        "  best interval: DDS requeue {}, global rewind {} \
         (paper: DDS ~2 min flat; checkpoint-based U-shaped, ~17 min at 5-min saves)",
        secs(best(dds)),
        secs(best(replay)),
    );
    out
}
