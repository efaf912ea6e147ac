//! Known answers for the rendered telemetry: the length and an FNV-1a 64
//! hash of each `TelemetryReport` artifact (Chrome trace, Prometheus text,
//! flight dump) for two telemetry-armed jobs. Any change to
//! what a job records or to how the exporters render it moves them.

use crate::config::{FailoverMode, Fault, FaultEvent, JobConfig, MitigationChoice, NodeRef};
use crate::job::Job;
use antdt_sim::{ControlChannel, SimDuration};
use antdt_telemetry::TelemetryReport;
use antdt_workloads::cluster::cluster_a_scaled;
use antdt_workloads::{ModelProfile, Scenario};

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// `(len, hash)` of `chrome_trace`, `prometheus` and the flight dump's JSON,
/// in that order.
fn pins(t: &TelemetryReport) -> [(usize, u64); 3] {
    let flight = t.flight.to_json();
    [&t.chrome_trace, &t.prometheus, &flight].map(|s| (s.len(), fnv1a(s.as_bytes())))
}

/// PS-ASP under AntDT-ND-ASP with a worker kill and a server kill,
/// checkpoint-replay failover at a 60 s cadence and a lossy control bus:
/// every recorder the runtime has (Gantt spans, bus spans, attribution
/// counter tracks, lifecycle instants, the flight ring) writes into it.
#[test]
fn asp_failover_telemetry_is_pinned() {
    let cfg = JobConfig::ps_asp(cluster_a_scaled(4, 2), Scenario::None)
        .with_global_batch(4_096)
        .with_samples(1_200_000)
        .with_batches_per_shard(10)
        .with_seed(7)
        .with_mitigation(MitigationChoice::AntDtNdAsp)
        .with_failover_mode(FailoverMode::Replay)
        .with_checkpoint_interval(SimDuration::from_secs(60))
        .with_control_channel(ControlChannel::Modeled {
            latency_secs: 0.05,
            jitter_secs: 0.02,
            loss_prob: 0.05,
            seed: 11,
        })
        .with_injections(vec![
            FaultEvent { at_secs: 75.0, fault: Fault::KillNode { node: NodeRef::Worker(1) } },
            FaultEvent { at_secs: 250.0, fault: Fault::KillNode { node: NodeRef::Server(0) } },
        ])
        .with_telemetry()
        .with_attribution();
    let r = Job::run(cfg);
    assert!(!r.stalled && !r.timed_out);
    assert_eq!(r.injections.len(), 2);
    assert!(r.injections[0].recovered_at.is_some(), "the killed worker must rejoin");
    assert!(r.ckpt.as_ref().is_some_and(|c| !c.restores.is_empty()), "the server kill restores");
    let t = r.telemetry.expect("telemetry on");
    assert_eq!(
        pins(&t),
        [
            (1_799_398, 0xdd48_8e41_9890_7f08),
            (4_126, 0x3d4f_e4c9_4242_dd5a),
            (23_111, 0x255b_c259_12ac_6519),
        ]
    );
}

/// A PS-BSP worker killed with failover disabled: the job can never finish
/// and a 120 s liveness timeout declares it stalled.
#[test]
fn stalled_run_telemetry_is_pinned() {
    let cfg = JobConfig::ps_bsp(cluster_a_scaled(4, 2), Scenario::None)
        .with_model(ModelProfile::xdeepfm())
        .with_global_batch(4_096)
        .with_samples(500_000)
        .with_batches_per_shard(10)
        .with_fast_cadence(SimDuration::from_secs(60))
        .with_injections(vec![FaultEvent {
            at_secs: 20.0,
            fault: Fault::KillNodeNoFailover { node: NodeRef::Worker(2) },
        }])
        .with_liveness_timeout(SimDuration::from_secs(120))
        .with_telemetry();
    let r = Job::run(cfg);
    assert!(r.stalled);
    let t = r.telemetry.expect("telemetry on");
    assert_eq!(t.flight.reason, "stalled");
    assert!(t.flight.events.iter().any(|e| e.category == "liveness"));
    assert_eq!(
        pins(&t),
        [
            (152_945, 0x36c1_aa95_6b3d_1d19),
            (2_376, 0xf9c6_7dc6_8bb5_6791),
            (24_869, 0x262b_477a_9d0d_a689),
        ]
    );
}
