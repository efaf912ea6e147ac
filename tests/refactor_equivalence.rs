//! Golden-trace refactor-equivalence harness — the standing determinism
//! ratchet behind the runtime-kernel extraction.
//!
//! Each test runs one fixed-seed job covering one runtime flavour
//! (BSP / ASP parameter server, ring AllReduce), clean and under a
//! chaos plan, renders the full `JobReport` with `JobReport::golden_dump`
//! and compares it byte-for-byte against a fixture in `tests/golden/`.
//!
//! The fixtures were captured from the pre-refactor monolithic runtimes
//! (`ps.rs` / `allreduce.rs` as of PR 2), so any refactor of the runtime
//! layer that changes even one event ordering, RNG draw, or float operation
//! shows up as a byte diff here. To re-bless after an *intentional*
//! behaviour change, delete the fixture (or run with `GOLDEN_BLESS=1`) and
//! commit the regenerated file with an explanation.

use antdt::core::{Fault, FaultEvent, Job, JobConfig, MitigationChoice, NodeRef};
use antdt::sim::SimDuration;
use antdt::workloads::cluster::{cluster_a_scaled, cluster_b};
use antdt::workloads::{ModelProfile, Scenario};
use std::path::PathBuf;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join(format!("{name}.txt"))
}

/// Run `cfg`, dump the report, and compare against `tests/golden/<name>.txt`.
/// A missing fixture (or `GOLDEN_BLESS=1`) writes the dump instead of
/// asserting, so regeneration is `rm tests/golden/*.txt && cargo test`.
fn check(name: &str, cfg: JobConfig) {
    let dump = Job::run(cfg).golden_dump();
    let path = golden_path(name);
    if std::env::var_os("GOLDEN_BLESS").is_some() || !path.exists() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &dump).unwrap();
        eprintln!("blessed golden fixture {}", path.display());
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap();
    assert_eq!(
        dump, want,
        "same-seed run diverged from golden fixture {name}; \
         if the change is intentional, re-bless with GOLDEN_BLESS=1",
    );
}

/// A chaos plan exercising every PS-legal injection: a straggler restart
/// penalty armed before its kill, a mid-job worker kill with full failover,
/// a transient network degradation, a DDS outage, and a report-drop window.
fn ps_chaos_plan() -> Vec<FaultEvent> {
    vec![
        FaultEvent {
            at_secs: 10.0,
            fault: Fault::RestartDelay { node: NodeRef::Worker(2), extra_secs: 20.0 },
        },
        FaultEvent { at_secs: 40.0, fault: Fault::KillNode { node: NodeRef::Worker(2) } },
        FaultEvent {
            at_secs: 70.0,
            fault: Fault::NetworkDegrade {
                node: NodeRef::Worker(0),
                factor: 4.0,
                window_secs: 30.0,
            },
        },
        FaultEvent { at_secs: 120.0, fault: Fault::DdsOutage { window_secs: 20.0 } },
        FaultEvent {
            at_secs: 150.0,
            fault: Fault::DropReports { prob: 0.3, window_secs: 60.0, seed: 7 },
        },
    ]
}

/// AllReduce-legal subset (no server kills; restarts don't apply to the
/// ring AllReduce, where a killed rank leaves for good).
fn ar_chaos_plan() -> Vec<FaultEvent> {
    vec![
        FaultEvent { at_secs: 60.0, fault: Fault::KillNode { node: NodeRef::Worker(5) } },
        FaultEvent {
            at_secs: 90.0,
            fault: Fault::NetworkDegrade {
                node: NodeRef::Worker(0),
                factor: 3.0,
                window_secs: 45.0,
            },
        },
        FaultEvent {
            at_secs: 180.0,
            fault: Fault::DropReports { prob: 0.25, window_secs: 90.0, seed: 13 },
        },
    ]
}

fn ps_base(cfg: JobConfig) -> JobConfig {
    cfg.with_model(ModelProfile::xdeepfm())
        .with_global_batch(4_096)
        .with_samples(200_000)
        .with_batches_per_shard(10)
        .with_fast_cadence(SimDuration::from_secs(60))
        .with_seed(11)
}

fn bsp() -> JobConfig {
    ps_base(JobConfig::ps_bsp(cluster_a_scaled(4, 2), Scenario::WorkerMix { intensity: 1.0 }))
        .with_mitigation(MitigationChoice::AntDtNd)
}

fn asp() -> JobConfig {
    ps_base(JobConfig::ps_asp(
        cluster_a_scaled(4, 2),
        Scenario::WorkerPersistent { intensity: 0.8 },
    ))
    .with_samples(800_000)
}

fn allreduce() -> JobConfig {
    JobConfig::allreduce(cluster_b(), Scenario::None)
        .with_model(ModelProfile::resnet101())
        .with_global_batch(768)
        .with_samples(345_600)
        .with_batches_per_shard(2)
        .with_fast_cadence(SimDuration::from_secs(60))
        .with_seed(23)
}

#[test]
fn golden_bsp_clean() {
    check("bsp_clean", bsp());
}

#[test]
fn golden_bsp_chaos() {
    check(
        "bsp_chaos",
        bsp().with_injections(ps_chaos_plan()).with_liveness_timeout(SimDuration::from_secs(1_800)),
    );
}

#[test]
fn golden_asp_clean() {
    check("asp_clean", asp());
}

#[test]
fn golden_asp_chaos() {
    check(
        "asp_chaos",
        asp().with_injections(ps_chaos_plan()).with_liveness_timeout(SimDuration::from_secs(1_800)),
    );
}

#[test]
fn golden_allreduce_clean() {
    check("allreduce_clean", allreduce());
}

#[test]
fn golden_allreduce_chaos() {
    check(
        "allreduce_chaos",
        allreduce()
            .with_injections(ar_chaos_plan())
            .with_liveness_timeout(SimDuration::from_secs(1_800)),
    );
}

/// Same-seed, same-process determinism of the dump itself: two back-to-back
/// runs of one config must already be byte-identical, independent of any
/// fixture. Guards the harness against nondeterministic rendering sneaking
/// into `golden_dump` (hash-order maps, wall-clock timestamps, ...).
#[test]
fn golden_dump_is_deterministic_in_process() {
    let a = Job::run(bsp()).golden_dump();
    let b = Job::run(bsp()).golden_dump();
    assert_eq!(a, b);
}

/// Determinism extends to a lossy, jittery control channel: every loss and
/// jitter draw comes from the channel's own seeded stream, so two same-seed
/// runs must stay byte-identical to *each other* (they legitimately differ
/// from the Ideal-channel fixture).
#[test]
fn lossy_control_channel_runs_are_mutually_byte_identical() {
    use antdt::sim::ControlChannel;
    let ch =
        ControlChannel::Modeled { latency_secs: 2.0, jitter_secs: 1.5, loss_prob: 0.2, seed: 99 };
    let a = Job::run(bsp().with_control_channel(ch)).golden_dump();
    let b = Job::run(bsp().with_control_channel(ch)).golden_dump();
    assert_eq!(a, b);
}

/// The one fixture that captures checkpoints and restores one: every PS job
/// checkpoints, but the six fixtures above end before their first
/// 10-minute capture (their dumps render no ckpt lines). Here the cadence is
/// 60 s, a worker kill before the first capture recovers from the DDS alone,
/// and a server kill restores the newest durable snapshot and replays the
/// work done since.
#[test]
fn golden_bsp_server_kill() {
    let cfg = bsp()
        .with_checkpoint_interval(SimDuration::from_secs(60))
        .with_injections(vec![
            FaultEvent { at_secs: 40.0, fault: Fault::KillNode { node: NodeRef::Worker(2) } },
            FaultEvent { at_secs: 100.0, fault: Fault::KillNode { node: NodeRef::Server(1) } },
        ])
        .with_liveness_timeout(SimDuration::from_secs(1_800));
    let report = Job::run(cfg.clone());
    let ckpt = report.ckpt.as_ref().expect("every PS job checkpoints");
    assert!(ckpt.snapshots.len() >= 2, "captures at 60 s and 120 s at least");
    assert_eq!(ckpt.restores.len(), 1, "the server kill restores, the worker kill does not");
    assert_eq!(ckpt.restores[0].snapshot_at_us, 60_000_000, "the 60 s snapshot is restored");
    assert!(report.replayed_samples > 0, "work done since the snapshot replays");
    check("bsp_server_kill", cfg);
}

/// Same-seed determinism of the subsystem itself: two runs under Replay
/// failover with a 60 s cadence must produce byte-identical dumps and
/// identical snapshot digests (the hand-rolled serialization is part of the
/// determinism surface).
#[test]
fn replay_runs_are_mutually_byte_identical_with_equal_digests() {
    use antdt::ckpt::{CkptConfig, CkptPolicy, StorageTier};
    use antdt::core::FailoverMode;
    let cfg = || {
        bsp()
            .with_failover_mode(FailoverMode::Replay)
            .with_ckpt(CkptConfig {
                tier: StorageTier::ObjectStore,
                policy: CkptPolicy::Fixed { interval_secs: 60.0 },
                capture_stall_secs: 1.0,
            })
            .with_injections(ps_chaos_plan())
            .with_liveness_timeout(SimDuration::from_secs(1_800))
    };
    let a = Job::run(cfg());
    let b = Job::run(cfg());
    let (ca, cb) = (a.ckpt.as_ref().unwrap(), b.ckpt.as_ref().unwrap());
    assert!(!ca.snapshots.is_empty(), "captures must have run");
    let da: Vec<u64> = ca.snapshots.iter().map(|s| s.digest).collect();
    let db: Vec<u64> = cb.snapshots.iter().map(|s| s.digest).collect();
    assert_eq!(da, db, "same-seed snapshot digests must match");
    assert_eq!(a.golden_dump(), b.golden_dump());
}
