//! Job-level tests of the control bus: broadcast convergence under a delayed
//! channel, and generation fencing of directives that race a kill/restart.

use antdt::chaos::invariants;
use antdt::core::{DirectiveFate, Fault, FaultEvent, Job, JobConfig, MitigationChoice, NodeRef};
use antdt::sim::{ControlChannel, SimDuration};
use antdt::workloads::cluster::cluster_a_scaled;
use antdt::workloads::{ModelProfile, Scenario};

/// A straggler-heavy BSP job on the refactor-equivalence fixture shape.
fn bsp(samples: u64) -> JobConfig {
    JobConfig::ps_bsp(cluster_a_scaled(4, 2), Scenario::WorkerMix { intensity: 1.0 })
        .with_model(ModelProfile::xdeepfm())
        .with_global_batch(4_096)
        .with_samples(samples)
        .with_batches_per_shard(10)
        .with_fast_cadence(SimDuration::from_secs(60))
        .with_seed(11)
        .with_mitigation(MitigationChoice::AntDtNd)
}

/// A no-op injection (bandwidth divided by 1.0): its only observable effect
/// is turning on the chaos-drill action log, which the convergence invariant
/// consumes.
fn benign_injection() -> Vec<FaultEvent> {
    vec![FaultEvent {
        at_secs: 1.0,
        fault: Fault::NetworkDegrade { node: NodeRef::Worker(0), factor: 1.0, window_secs: 1.0 },
    }]
}

/// Under a delayed (but lossless) control channel, a broadcast `ADJUST_BS`
/// reaches every worker at the same instant and all continuously-alive
/// workers apply it at one common iteration boundary — delay shifts *when*
/// the plan lands, never lets the cohort split across iterations.
#[test]
fn delayed_adjust_bs_broadcast_converges_at_one_boundary() {
    let ch =
        ControlChannel::Modeled { latency_secs: 5.0, jitter_secs: 0.0, loss_prob: 0.0, seed: 3 };
    let report =
        Job::run(bsp(200_000).with_control_channel(ch).with_injections(benign_injection()));
    assert!(
        report.action_log.iter().any(|a| a.action.contains("AdjustBs")),
        "the straggler policy should have broadcast at least one ADJUST_BS",
    );
    let verdict = invariants::action_convergence(&report);
    assert!(verdict.passed, "divergent application under channel delay: {}", verdict.detail);
    assert!(
        invariants::no_stale_directive(&report).passed,
        "stale directive applied: {}",
        invariants::no_stale_directive(&report).detail
    );
}

/// Generation fencing end to end: a directive decided *before* a worker is
/// killed, but delivered (high channel latency) *after* its replacement pod
/// is up, must be rejected by the new incarnation — and the rejection must be
/// visible in the directive audit, the Controller decision log, and the
/// telemetry trace.
#[test]
fn directive_racing_a_kill_is_fenced_at_the_new_incarnation() {
    // 240 s of latency: directives decided at a monitor tick arrive two ticks
    // later, long after the injected kill's replacement pod is up.
    let ch =
        ControlChannel::Modeled { latency_secs: 240.0, jitter_secs: 0.0, loss_prob: 0.0, seed: 5 };
    // The first directives are decided at the t=60 s tick and delivered at
    // t=300 s; kill worker 1 at t=70 s so its replacement pod (up within a
    // couple of minutes) is the incarnation the stale directive reaches.
    let kill =
        vec![FaultEvent { at_secs: 70.0, fault: Fault::KillNode { node: NodeRef::Worker(1) } }];
    let report = Job::run(
        bsp(800_000)
            .with_control_channel(ch)
            .with_injections(kill)
            .with_liveness_timeout(SimDuration::from_secs(3_600))
            .with_telemetry(),
    );

    let rejected: Vec<_> = report
        .directives
        .iter()
        .filter(|d| matches!(d.fate, DirectiveFate::RejectedStale { .. }))
        .collect();
    assert!(
        !rejected.is_empty(),
        "expected at least one fence rejection; directive fates: {:?}",
        report.directives.iter().map(|d| (d.seq, d.fate)).collect::<Vec<_>>()
    );
    for d in &rejected {
        if let DirectiveFate::RejectedStale { agent_gen, .. } = d.fate {
            assert_ne!(agent_gen, d.fence_gen, "a rejection must name a different incarnation");
        }
    }
    // Stale directives were rejected, never applied.
    let verdict = invariants::no_stale_directive(&report);
    assert!(verdict.passed, "{}", verdict.detail);
    // The rejection is audited as a Controller decision...
    assert!(
        report.decision_log.iter().any(|r| r.rule == "stale-directive-rejected"),
        "no stale-directive-rejected record in the decision audit",
    );
    // ...and visible in the telemetry trace.
    let trace = &report.telemetry.as_ref().expect("telemetry was on").chrome_trace;
    assert!(trace.contains("bus-reject"), "no bus-reject instant in the chrome trace");
}
