//! Post-drill invariant checkers: given the [`JobReport`] of a chaos drill
//! (and optionally the fault-free run of the same seed), decide whether the
//! framework's correctness story survived the injected faults.
//!
//! Each checker returns an [`InvariantOutcome`] rather than panicking so a
//! drill matrix can record *all* verdicts and render them side by side; tests
//! then assert on `passed`.

use antdt_core::{FailoverMode, JobReport};
use antdt_monitor::Role;
use std::collections::BTreeMap;

/// The verdict of one invariant checker on one drill.
#[derive(Debug, Clone, PartialEq)]
pub struct InvariantOutcome {
    /// Stable checker name (e.g. `"at-least-once"`).
    pub name: String,
    pub passed: bool,
    /// One line of evidence: the numbers behind the verdict.
    pub detail: String,
}

impl InvariantOutcome {
    fn new(name: &str, passed: bool, detail: String) -> Self {
        InvariantOutcome { name: name.to_string(), passed, detail }
    }
}

/// At-least-once shard audit: every sample reached DONE in every epoch and
/// the DONE count matches the expectation exactly — nothing was silently
/// lost to the injected faults.
pub fn at_least_once(report: &JobReport) -> InvariantOutcome {
    match &report.audit {
        Some(a) => InvariantOutcome::new(
            "at-least-once",
            a.at_least_once && a.done_shards == a.expected_done_shards,
            format!(
                "done={}/{} outstanding={} requeued={}",
                a.done_shards, a.expected_done_shards, a.outstanding_shards, a.requeued_shards
            ),
        ),
        None => InvariantOutcome::new(
            "at-least-once",
            false,
            "no integrity audit in report (not a DDS run)".into(),
        ),
    }
}

/// At-most-once audit. Only meaningful when *no* node died during the run:
/// kill-failover deliberately requeues in-flight shards. Kills come from two
/// sources — the fault plan (`expect_kills`) and the mitigation policy
/// itself (AntDT's `KILL_RESTART` on a persistent straggler, visible in
/// `report.kills`) — and either one waives the checker with a note.
pub fn at_most_once(report: &JobReport, expect_kills: bool) -> InvariantOutcome {
    if expect_kills || !report.kills.is_empty() {
        return InvariantOutcome::new(
            "at-most-once",
            true,
            format!(
                "waived: {} node kill(s) during the run, failover requeues are expected",
                report.kills.len()
            ),
        );
    }
    match &report.audit {
        Some(a) => InvariantOutcome::new(
            "at-most-once",
            a.at_most_once,
            format!("duplicate_samples_upper_bound={}", a.duplicate_samples_upper_bound),
        ),
        None => InvariantOutcome::new(
            "at-most-once",
            false,
            "no integrity audit in report (not a DDS run)".into(),
        ),
    }
}

/// Barrier liveness. A recoverable drill must *finish* — neither hit the
/// simulation's safety cap nor trip the no-progress watchdog. When the plan
/// intentionally wedges the job (`expect_stall`), the invariant inverts: the
/// watchdog MUST have fired, because the failure mode we are drilling for is
/// a silent hang.
pub fn liveness(report: &JobReport, expect_stall: bool) -> InvariantOutcome {
    if expect_stall {
        InvariantOutcome::new(
            "liveness",
            report.stalled,
            format!(
                "watchdog fired={} (drill expects a detected stall, not a hang)",
                report.stalled
            ),
        )
    } else {
        InvariantOutcome::new(
            "liveness",
            !report.stalled && !report.timed_out,
            format!("stalled={} timed_out={}", report.stalled, report.timed_out),
        )
    }
}

/// Global-action convergence: for every broadcast Controller action, all
/// workers that applied it while *continuously alive since delivery* did so
/// at the same global iteration. A worker that applies a speed-up/slow-down
/// at a different iteration than its peers has diverged from the
/// synchronized plan.
///
/// Workers that restarted between delivery and application are excluded: a
/// rejoining pod applies its buffered inbox at restart time, mid-round by
/// construction, and catching up late is the designed behaviour — the
/// invariant is about the survivors staying in lock-step.
///
/// Applications are grouped by `(delivered_at, action)` — the broadcast
/// identity — and each group must agree on `iter`. Skipped (vacuous pass)
/// when the drill produced no action log.
pub fn action_convergence(report: &JobReport) -> InvariantOutcome {
    if report.action_log.is_empty() {
        return InvariantOutcome::new(
            "action-convergence",
            true,
            "no global actions were applied during the drill".into(),
        );
    }
    let restarted_between = |worker: u32, from: u64, to: u64| {
        report.restarts.iter().any(|(at, node)| {
            node.idx == worker && node.role == antdt_monitor::Role::Worker && {
                let t = at.0;
                t >= from && t <= to
            }
        })
    };
    let mut groups: BTreeMap<(u64, &str), Vec<(u32, u64)>> = BTreeMap::new();
    let mut excluded = 0usize;
    for app in &report.action_log {
        if restarted_between(app.worker, app.delivered_at.0, app.applied_at.0) {
            excluded += 1;
            continue;
        }
        groups.entry((app.delivered_at.0, &*app.action)).or_default().push((app.worker, app.iter));
    }
    let mut divergent = 0usize;
    let mut example = String::new();
    for ((_, action), members) in &groups {
        let iters: Vec<u64> = members.iter().map(|&(_, it)| it).collect();
        if iters.iter().any(|&it| it != iters[0]) {
            divergent += 1;
            if example.is_empty() {
                example = format!(" e.g. {action:?} applied at iters {iters:?}");
            }
        }
    }
    InvariantOutcome::new(
        "action-convergence",
        divergent == 0,
        format!(
            "{} broadcast(s), {} application(s) ({excluded} rejoin-laggard(s) excluded), \
             {divergent} divergent{example}",
            groups.len(),
            report.action_log.len()
        ),
    )
}

/// No stale directive: no directive fenced to a dead incarnation was ever
/// applied. For every directive in the bus audit, either its fence matched
/// the incarnation that applied it, or it ended rejected / deduped / wiped /
/// expired / still pending — a directive decided before a kill must never
/// take effect on the replacement pod. `Fired` kill signals are excluded:
/// that path is fenced downstream by the kill event's generation guard.
/// Vacuous pass when the run carried no directives.
pub fn no_stale_directive(report: &JobReport) -> InvariantOutcome {
    use antdt_core::DirectiveFate;
    let mut applied = 0usize;
    let mut rejected = 0usize;
    let mut violations = 0usize;
    let mut example = String::new();
    for d in &report.directives {
        match d.fate {
            DirectiveFate::Applied { gen, .. } => {
                applied += 1;
                if gen != d.fence_gen {
                    violations += 1;
                    if example.is_empty() {
                        example = format!(
                            " e.g. seq={} {} fence_gen={} applied by gen={}",
                            d.seq, d.target, d.fence_gen, gen
                        );
                    }
                }
            }
            DirectiveFate::RejectedStale { .. } => rejected += 1,
            DirectiveFate::Pending
            | DirectiveFate::Deduped { .. }
            | DirectiveFate::Wiped { .. }
            | DirectiveFate::Expired { .. }
            | DirectiveFate::Fired { .. } => {}
        }
    }
    InvariantOutcome::new(
        "no-stale-directive",
        violations == 0,
        format!(
            "{} directive(s), {applied} applied, {rejected} fence-rejected, \
             {violations} stale application(s){example}",
            report.directives.len()
        ),
    )
}

/// AUC parity: the model trained under faults must match the fault-free run
/// of the same seed within `tolerance`. Vacuous pass when either run did not
/// train a real model (synthetic execution mode).
pub fn auc_parity(drill: &JobReport, clean: &JobReport, tolerance: f64) -> InvariantOutcome {
    match (drill.auc, clean.auc) {
        (Some(d), Some(c)) => InvariantOutcome::new(
            "auc-parity",
            (d - c).abs() <= tolerance,
            format!("drill_auc={d:.4} clean_auc={c:.4} tol={tolerance}"),
        ),
        _ => InvariantOutcome::new(
            "auc-parity",
            true,
            "waived: no real-math AUC in one or both runs".into(),
        ),
    }
}

/// Checkpoint-replay recovery. Every Parameter Server job checkpoints, and
/// a kill restores a snapshot exactly when its node's recovery needs one:
/// every server kill (the dead server's parameter shard is gone), and every
/// worker kill under `FailoverMode::Replay` (the global rewind). So each such
/// kill whose replacement came up must see a restore between the kill and
/// that restart, and there is at most one restore per such kill — fewer only
/// when recoveries overlap, since one restore serves every kill staged
/// before it lands. The replay must also have healed the data plane
/// (at-least-once holds) without costing model quality (AUC parity against
/// the clean twin, waived for simulated-math runs). Waived with a note for
/// ring jobs, which take no checkpoints.
pub fn replay_recovery(
    drill: &JobReport,
    clean: &JobReport,
    auc_tolerance: f64,
) -> InvariantOutcome {
    let Some(ckpt) = &drill.ckpt else {
        return InvariantOutcome::new(
            "ckpt-replay",
            true,
            "waived: ring job, no checkpoint subsystem".into(),
        );
    };
    let rewinds_workers = ckpt.failover == FailoverMode::Replay;
    let (mut restoring, mut uncovered) = (0usize, 0usize);
    for &(at, node) in &drill.kills {
        if node.role == Role::Worker && !rewinds_workers {
            continue;
        }
        // A kill whose replacement never came up (the job ended first, or
        // the failover was disabled) has no restore to look for.
        let Some(&(up, _)) = drill.restarts.iter().find(|&&(t, n)| n == node && t >= at) else {
            continue;
        };
        restoring += 1;
        let window = at.as_micros()..=up.as_micros();
        if !ckpt.restores.iter().any(|r| window.contains(&r.restored_at_us)) {
            uncovered += 1;
        }
    }
    let integrity = at_least_once(drill);
    let parity = auc_parity(drill, clean, auc_tolerance);
    InvariantOutcome::new(
        "ckpt-replay",
        uncovered == 0 && ckpt.restores.len() <= restoring && integrity.passed && parity.passed,
        format!(
            "{:?} kills={} restoring_kills={restoring} unrestored={uncovered} snapshots={} \
             restores={} replayed_samples={} | {} | {}",
            ckpt.failover,
            drill.kills.len(),
            ckpt.snapshots.len(),
            ckpt.restores.len(),
            drill.replayed_samples,
            integrity.detail,
            parity.detail
        ),
    )
}

/// Run the whole checker suite for one drill. `expect_kills` / `expect_stall`
/// come from the plan shape (see `FaultPlan::has_kills` / `expects_stall`);
/// `synchronous` is whether the job trains with a global barrier (BSP or
/// AllReduce) — action convergence across workers is only defined there, an
/// ASP worker applies actions at its own private iteration counter.
pub fn check_all(
    drill: &JobReport,
    clean: &JobReport,
    expect_kills: bool,
    expect_stall: bool,
    synchronous: bool,
    auc_tolerance: f64,
) -> Vec<InvariantOutcome> {
    let convergence = if synchronous {
        action_convergence(drill)
    } else {
        InvariantOutcome::new(
            "action-convergence",
            true,
            "waived: asynchronous training has no shared iteration counter".into(),
        )
    };
    if expect_stall {
        // A wedged job cannot satisfy data-completeness invariants; the only
        // question is whether the watchdog turned the hang into a loud fail.
        return vec![liveness(drill, true), convergence, no_stale_directive(drill)];
    }
    vec![
        at_least_once(drill),
        at_most_once(drill, expect_kills),
        liveness(drill, false),
        convergence,
        no_stale_directive(drill),
        auc_parity(drill, clean, auc_tolerance),
        replay_recovery(drill, clean, auc_tolerance),
    ]
}
