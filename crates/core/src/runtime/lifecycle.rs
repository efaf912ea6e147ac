//! Kernel lifecycle: node kill/restart state machines with generation
//! counters, failover scheduling, checkpoints and background fault arrivals.
//!
//! Everything here is PS-family machinery (ranks in round-driven strategies
//! never restart — a killed rank leaves for good, handled in the strategy),
//! but it is kernel code: every PS consistency flavour shares it verbatim,
//! parameterized only by the [`PsFlavor`] hooks for barrier membership.

use super::kernel::Kernel;
use super::ps_common::PsFlavor;
use crate::config::FailoverMode;
use crate::events::{Ev, RtEngine};
use antdt_attr::WaitCause;
use antdt_monitor::{ErrorClass, NodeEvent, NodeId, RetryableError};
use antdt_sim::dist::Dist;
use antdt_sim::gantt::SpanKind;
use antdt_sim::{NodeProfile, SimDuration};

/// The closed-form recompute charge of a `DdsBased` *server* kill (§V-E3):
/// `factor × min(time since last checkpoint, checkpoint interval)`. Extracted
/// so the golden-trace-pinned formula has exactly one home and a unit test
/// can pin it against the Replay rework.
pub(crate) fn legacy_rollback_secs(factor: f64, since_ckpt_secs: f64, interval_secs: f64) -> f64 {
    factor * since_ckpt_secs.min(interval_secs)
}

/// Kill worker `w` (generation-checked): roll back its in-flight samples,
/// requeue its DOING shards, drop it from the consistency layer and schedule
/// the replacement pod.
pub(crate) fn worker_kill<F: PsFlavor>(
    k: &mut Kernel,
    f: &mut F,
    eng: &mut RtEngine,
    w: u32,
    gen: u32,
    class: ErrorClass,
) {
    let wi = w as usize;
    if !k.workers[wi].alive || k.workers[wi].gen != gen {
        return;
    }
    let now = eng.now();
    k.workers[wi].alive = false;
    k.workers[wi].gen += 1;
    k.workers[wi].killed_at = Some(now);
    // Clip attributed work past the kill instant; without a replacement
    // coming (chaos no-failover) the timeline freezes here, otherwise the
    // replacement's first iteration boundary charges the gap to recovery.
    k.attr_kill(w, now, k.chaos_no_failover.contains(&w));
    k.kills.push((now, NodeId::worker(w)));
    if let Some(rt) = &k.tele {
        rt.kills.inc();
        rt.tele.tracer.instant(
            "worker-kill",
            "lifecycle",
            now.as_micros(),
            w,
            &[("class", &format!("{class:?}"))],
        );
    }
    k.bus.node_event(NodeEvent::Killed { node: NodeId::worker(w), at: now, class });
    // Roll back in-flight samples, requeue DOING shards.
    if let Some(inf) = k.workers[wi].inflight.take() {
        k.rollback(wi, inf.took);
    }
    k.workers[wi].leases.clear();
    if let Some(dds) = &k.dds {
        // A no-failover chaos kill models the failover machinery itself
        // being broken: the dead worker's DOING shards stay stuck, so the
        // job can never complete — the liveness watchdog must catch it.
        if !k.chaos_no_failover.contains(&w) {
            dds.fail_worker(w);
        }
    }
    f.on_worker_killed(k, eng, w);
    // Schedule the replacement pod; what the replacement must recover is the
    // failover mode's call. DDS-based recovery only rebuilds the
    // communication world (the servers still hold the parameters, so nothing
    // stalls). Replay recovery stages the last durable snapshot and rewinds
    // through the `antdt-ckpt` subsystem at the restore instant — nothing is
    // charged up front; the lost work replays through the real drivers
    // (§V-E3). Chaos no-failover kills skip the replacement entirely.
    if !k.chaos_no_failover.contains(&w) {
        let mut delay =
            k.sched_restart_delay(now) + SimDuration::from_secs_f64(k.cfg.world_rebuild_secs);
        let extra = std::mem::take(&mut k.chaos_restart_extra[wi]);
        if extra > 0.0 {
            delay += SimDuration::from_secs_f64(extra);
        }
        match k.cfg.failover {
            FailoverMode::DdsBased => {}
            FailoverMode::Replay => {
                // The snapshot read-back is on the replacement's critical
                // path; the rewind applies just before the pod starts
                // (CkptRestore is scheduled first at the same instant, and
                // the engine processes same-time events in schedule order).
                delay += k.stage_ckpt_restore(now);
                eng.schedule(now + delay, Ev::CkptRestore);
            }
        }
        if let Some(g) = k.gantt.as_mut() {
            g.record(w, SpanKind::Failover, now, now + delay);
        }
        eng.schedule(now + delay, Ev::WorkerRestart { w, gen: k.workers[wi].gen });
    }
    f.after_failover(k, eng);
    k.check_finished(eng);
}

/// Retire worker `w` for good (elastic `SCALE_IN`, generation-checked): kill
/// machinery — rollback, lease recovery, barrier drop — minus the
/// replacement pod. The generation guard is the double-remove fence: a
/// SCALE_IN racing a `KILL_RESTART` of the same node resolves to exactly one
/// removal whichever lands first (see [`super::bus::send_scale_in`]).
/// Returns whether the departure took effect.
pub(crate) fn worker_depart<F: PsFlavor>(
    k: &mut Kernel,
    f: &mut F,
    eng: &mut RtEngine,
    w: u32,
    gen: u32,
) -> bool {
    let wi = w as usize;
    if !k.workers[wi].alive || k.workers[wi].gen != gen {
        return false; // stale: the slot was killed (and maybe replaced) since
    }
    let now = eng.now();
    k.workers[wi].alive = false;
    // Bump the generation so any in-flight kill addressed to the retiree
    // drops stale instead of double-removing the slot.
    k.workers[wi].gen += 1;
    k.workers[wi].killed_at = Some(now);
    // Permanent: the slot's attribution timeline freezes here (its lifetime
    // is a strict subinterval of the job).
    k.attr_kill(w, now, true);
    k.membership.record(now, w, crate::report::MembershipEventKind::Departed);
    if let Some(rt) = &k.tele {
        rt.tele.tracer.instant("worker-depart", "lifecycle", now.as_micros(), w, &[]);
    }
    k.bus.node_event(NodeEvent::Killed {
        node: NodeId::worker(w),
        at: now,
        class: ErrorClass::Retryable(RetryableError::ProactiveKill),
    });
    // Roll back in-flight samples; DOING shards requeue and the consistent-
    // hash ring drops the member — departure reuses the kill's lease/rollback
    // machinery end to end.
    if let Some(inf) = k.workers[wi].inflight.take() {
        k.rollback(wi, inf.took);
    }
    k.workers[wi].leases.clear();
    if let Some(dds) = &k.dds {
        dds.fail_worker(w);
        dds.ring_leave(w);
    }
    f.on_worker_killed(k, eng, w);
    // No replacement pod: that is the entire difference from a kill.
    f.after_failover(k, eng);
    k.check_finished(eng);
    true
}

/// The replacement server came up: clean node, everyone stalled on it resumes.
pub(crate) fn server_restart<F: PsFlavor>(
    k: &mut Kernel,
    f: &mut F,
    eng: &mut RtEngine,
    s: u32,
    gen: u32,
) {
    let sj = s as usize;
    if k.servers[sj].alive || k.servers[sj].gen != gen || k.finished {
        return;
    }
    let now = eng.now();
    k.servers[sj].alive = true;
    // Replacement server: clean profile and link (the congestion followed
    // the contended host, not the pod identity).
    let stream = k.servers[sj].profile.stream + 100_000 * gen as u64;
    k.servers[sj].profile = NodeProfile::clean(stream);
    k.servers[sj].link.congestion.clear();
    k.servers[sj].free_at = now;
    k.restarts.push((now, NodeId::server(s)));
    if let Some(rt) = &k.tele {
        rt.restarts.inc();
        rt.tele.tracer.instant("server-restart", "lifecycle", now.as_micros(), 1000 + s, &[]);
    }
    k.last_progress = k.last_progress.max(now);
    k.bus.node_event(NodeEvent::Restarted { node: NodeId::server(s), at: now });

    if k.servers.iter().all(|x| x.alive) {
        f.on_servers_recovered(k, eng, now);
    }
}

/// A background fault arrival for worker `w`: kill (if alive) and re-arm —
/// the replacement pod is as mortal as its predecessor.
pub(crate) fn fault_worker<F: PsFlavor>(k: &mut Kernel, f: &mut F, eng: &mut RtEngine, w: u32) {
    let gen = k.workers[w as usize].gen;
    if k.workers[w as usize].alive {
        worker_kill(k, f, eng, w, gen, ErrorClass::Retryable(RetryableError::NodeFailure));
    }
    let mtbf = k.cfg.faults.expect("fault event without config").worker_mtbf;
    let next = k.sample_fault_delay(mtbf);
    eng.schedule_after(next, Ev::FaultWorker { w });
}

impl Kernel {
    /// The replacement worker pod came up on healthy hardware.
    pub(crate) fn worker_restart(&mut self, eng: &mut RtEngine, w: u32, gen: u32) {
        let wi = w as usize;
        if self.workers[wi].alive || self.workers[wi].gen != gen || self.finished {
            return;
        }
        let now = eng.now();
        self.workers[wi].alive = true;
        self.workers[wi].done = false;
        // The replacement lands on healthy hardware: clean profile, fresh
        // stream so its jitter doesn't replay the old node's.
        let stream = self.workers[wi].profile.stream + 100_000 * gen as u64;
        self.workers[wi].profile = NodeProfile::clean(stream);
        self.bus.agent_reset(wi, now);
        self.workers[wi].next_allowed = now;
        self.restarts.push((now, NodeId::worker(w)));
        if let Some(rt) = &self.tele {
            rt.restarts.inc();
            rt.tele.tracer.instant("worker-restart", "lifecycle", now.as_micros(), w, &[]);
        }
        self.last_progress = self.last_progress.max(now);
        if let Some(&idx) = self.chaos_awaiting_recovery.get(&w) {
            if self.injections_log[idx].restarted_at.is_none() {
                self.injections_log[idx].restarted_at = Some(now);
            }
        }
        self.bus.node_event(NodeEvent::Restarted { node: NodeId::worker(w), at: now });
        eng.schedule(now, Ev::WorkerStart { w, gen });
    }

    /// Kill server `s` (generation-checked) and schedule its failover. Under
    /// [`FailoverMode::DdsBased`] server recovery is a closed-form checkpoint
    /// charge (the dead server's parameter shard is gone): pending + init +
    /// rebuild + checkpoint restore + recompute of the progress since the
    /// last checkpoint (§V-E2). Under Replay the closed-form restore + recompute
    /// charge is replaced by the storage-tier read-back of the last durable
    /// snapshot plus the emergent replay of the rewound work.
    pub(crate) fn server_kill(&mut self, eng: &mut RtEngine, s: u32, gen: u32) {
        let sj = s as usize;
        if !self.servers[sj].alive || self.servers[sj].gen != gen {
            return;
        }
        let now = eng.now();
        self.servers[sj].alive = false;
        self.servers[sj].gen += 1;
        self.attr_kill(super::attr::SERVER_LANE + s, now, false);
        self.kills.push((now, NodeId::server(s)));
        if let Some(rt) = &self.tele {
            rt.kills.inc();
            // Server lanes sit above the worker lanes in the trace viewer.
            rt.tele.tracer.instant("server-kill", "lifecycle", now.as_micros(), 1000 + s, &[]);
        }
        self.bus.node_event(NodeEvent::Killed {
            node: NodeId::server(s),
            at: now,
            class: ErrorClass::Retryable(RetryableError::ProactiveKill),
        });
        let delay = match self.cfg.failover {
            FailoverMode::DdsBased => {
                let rollback = legacy_rollback_secs(
                    self.cfg.rollback_recompute_factor,
                    now.since(self.last_ckpt).as_secs_f64(),
                    self.cfg.checkpoint_interval.as_secs_f64(),
                );
                self.sched_restart_delay(now)
                    + SimDuration::from_secs_f64(
                        self.cfg.world_rebuild_secs + self.cfg.ckpt_restore_secs + rollback,
                    )
            }
            FailoverMode::Replay => {
                // The rewind lands just before the replacement server comes
                // up (same-instant events process in schedule order).
                let delay = self.sched_restart_delay(now)
                    + SimDuration::from_secs_f64(self.cfg.world_rebuild_secs)
                    + self.stage_ckpt_restore(now);
                eng.schedule(now + delay, Ev::CkptRestore);
                delay
            }
        };
        // Server lanes are push-driven (no boundary sync ever closes their
        // gaps), so charge the whole failover window to recovery up front.
        self.attr_fill(super::attr::SERVER_LANE + s, now + delay, WaitCause::FaultRecovery);
        eng.schedule(now + delay, Ev::ServerRestart { s, gen: self.servers[sj].gen });
    }

    /// Exponential inter-arrival draw for background faults.
    pub(crate) fn sample_fault_delay(&mut self, mtbf: SimDuration) -> SimDuration {
        let d = Dist::Exponential { mean: mtbf.as_secs_f64() };
        SimDuration::from_secs_f64(d.sample(&mut self.sched_rng).max(1.0))
    }

    /// A background fault arrival for server `s`: kill (if alive) and re-arm.
    pub(crate) fn fault_server(&mut self, eng: &mut RtEngine, s: u32) {
        let gen = self.servers[s as usize].gen;
        if self.servers[s as usize].alive {
            self.server_kill(eng, s, gen);
        }
        let mtbf = self
            .cfg
            .faults
            .expect("fault event without config")
            .server_mtbf
            .expect("server fault without server mtbf");
        let next = self.sample_fault_delay(mtbf);
        eng.schedule_after(next, Ev::FaultServer { s });
    }

    /// Periodic checkpoint: stamp the rollback watermark, stall the servers
    /// for the save, re-arm. With the checkpoint subsystem armed the event
    /// instead captures a real [`antdt_ckpt::Snapshot`] (async-drained to the
    /// storage tier, cadence re-armed by the `CkptPolicy` knob).
    pub(crate) fn checkpoint(&mut self, eng: &mut RtEngine) {
        if self.ckpt_rt.is_some() {
            self.ckpt_capture(eng);
            return;
        }
        if self.finished {
            return;
        }
        let now = eng.now();
        self.last_ckpt = now;
        if let Some(rt) = &self.tele {
            rt.tele.tracer.instant("checkpoint", "lifecycle", now.as_micros(), 0, &[]);
        }
        // Saving blocks the servers briefly.
        if self.cfg.ckpt_save_secs > 0.0 && self.servers.iter().any(|s| s.alive) {
            self.mark_ckpt_stall(now);
        }
        for j in 0..self.servers.len() {
            if self.servers[j].alive {
                let base = self.servers[j].free_at.max(now);
                let end = base + SimDuration::from_secs_f64(self.cfg.ckpt_save_secs);
                self.servers[j].free_at = end;
                self.attr_fill(super::attr::SERVER_LANE + j as u32, base, WaitCause::SyncWait);
                self.attr_fill(super::attr::SERVER_LANE + j as u32, end, WaitCause::CkptStall);
            }
        }
        eng.schedule(now + self.cfg.checkpoint_interval, Ev::Checkpoint);
    }
}

#[cfg(test)]
mod tests {
    use super::legacy_rollback_secs;

    /// Pins the closed-form recompute charge the golden traces depend on, so
    /// the Replay rework can never silently perturb the server-kill delay.
    #[test]
    fn legacy_rollback_formula_is_pinned() {
        // Mid-interval kill: factor × elapsed since the last checkpoint.
        assert_eq!(legacy_rollback_secs(0.8, 300.0, 600.0), 240.0);
        // Beyond one interval the recompute caps at factor × interval.
        assert_eq!(legacy_rollback_secs(0.8, 900.0, 600.0), 480.0);
        // Degenerate cases stay at zero.
        assert_eq!(legacy_rollback_secs(0.8, 0.0, 600.0), 0.0);
        assert_eq!(legacy_rollback_secs(0.0, 300.0, 600.0), 0.0);
    }
}
