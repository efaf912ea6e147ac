//! Kernel lifecycle: node kill/restart state machines with generation
//! counters and failover scheduling.
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
use antdt_sim::gantt::SpanKind;
use antdt_sim::{NodeProfile, SimDuration, SimTime};

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
    if k.stale_worker(wi, gen) || !k.workers[wi].alive {
        return;
    }
    let now = eng.now();
    k.workers[wi].alive = false;
    k.workers[wi].gen += 1;
    // The dead incarnation's parked or pending data poll is stale now.
    if k.workers[wi].parked {
        k.unpark(eng, wi, false);
    }
    k.workers[wi].poll_at = SimTime::ZERO;
    k.workers[wi].killed_at = Some(now);
    // Clip attributed work past the kill instant; without a replacement
    // coming (chaos no-failover) the timeline freezes here, otherwise the
    // replacement's first iteration boundary charges the gap to recovery.
    k.attr_kill(w, now, k.chaos_no_failover.contains(&w));
    k.kills.push((now, NodeId::worker(w)));
    if let Some(tele) = &mut k.tele {
        tele.tracer.instant(
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
    // A no-failover chaos kill models the failover machinery itself being
    // broken: the dead worker's DOING shards stay stuck, so the job can
    // never complete — the liveness watchdog must catch it.
    let requeued = match &mut k.dds {
        Some(dds) if !k.chaos_no_failover.contains(&w) => !dds.fail_worker(w).is_empty(),
        _ => false,
    };
    if requeued {
        k.wake_parked(eng);
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
        if k.cfg.failover == FailoverMode::Replay {
            // The snapshot read-back is on the replacement's critical path;
            // the rewind applies just before the pod starts (CkptRestore is
            // scheduled first at the same instant, and the engine processes
            // same-time events in schedule order).
            delay += k.stage_ckpt_restore(now);
            eng.schedule(now + delay, Ev::CkptRestore);
        }
        if let Some(g) = k.gantt.as_mut() {
            g.record(w, SpanKind::Failover, now, now + delay);
        }
        eng.schedule(now + delay, Ev::WorkerRestart { w, gen: k.workers[wi].gen });
    }
    f.after_failover(k, eng);
    k.check_finished(eng);
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
    if k.stale_server(sj, gen) || k.servers[sj].alive || k.finished {
        return;
    }
    let now = eng.now();
    k.servers[sj].alive = true;
    // Replacement server: clean profile and link (the congestion followed
    // the contended host, not the pod identity).
    let stream = k.servers[sj].profile.stream + 100_000 * gen as u64;
    k.servers[sj].profile.set_profile(NodeProfile::clean(stream));
    k.servers[sj].link.congestion.clear();
    k.servers[sj].free_at = now;
    k.restarts.push((now, NodeId::server(s)));
    if let Some(tele) = &mut k.tele {
        tele.tracer.instant("server-restart", "lifecycle", now.as_micros(), 1000 + s, &[]);
    }
    k.last_progress = k.last_progress.max(now);
    k.bus.node_event(NodeEvent::Restarted { node: NodeId::server(s), at: now });

    if k.servers.iter().all(|x| x.alive) {
        f.on_servers_recovered(k, eng, now);
    }
}

impl Kernel {
    /// The replacement worker pod came up on healthy hardware.
    pub(crate) fn worker_restart(&mut self, eng: &mut RtEngine, w: u32, gen: u32) {
        let wi = w as usize;
        if self.stale_worker(wi, gen) || self.workers[wi].alive || self.finished {
            return;
        }
        let now = eng.now();
        self.workers[wi].alive = true;
        self.workers[wi].done = false;
        // The replacement lands on healthy hardware: clean profile, fresh
        // stream so its jitter doesn't replay the old node's.
        let stream = self.workers[wi].profile.stream + 100_000 * gen as u64;
        self.workers[wi].profile.set_profile(NodeProfile::clean(stream));
        self.bus.agent_reset(wi, now);
        self.workers[wi].next_allowed = now;
        self.restarts.push((now, NodeId::worker(w)));
        if let Some(tele) = &mut self.tele {
            tele.tracer.instant("worker-restart", "lifecycle", now.as_micros(), w, &[]);
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

    /// Kill server `s` (generation-checked) and schedule its failover. The
    /// dead server's parameter shard is gone whatever the [`FailoverMode`],
    /// so the replacement restores the last durable checkpoint: pending +
    /// init + rebuild + the storage-tier read-back, after which the rewound
    /// work replays through the real drivers (§V-E2).
    pub(crate) fn server_kill(&mut self, eng: &mut RtEngine, s: u32, gen: u32) {
        let sj = s as usize;
        if self.stale_server(sj, gen) || !self.servers[sj].alive {
            return;
        }
        let now = eng.now();
        self.servers[sj].alive = false;
        self.servers[sj].gen += 1;
        self.attr_kill(super::attr::SERVER_LANE + s, now, false);
        self.kills.push((now, NodeId::server(s)));
        if let Some(tele) = &mut self.tele {
            // Server lanes sit above the worker lanes in the trace viewer.
            tele.tracer.instant("server-kill", "lifecycle", now.as_micros(), 1000 + s, &[]);
        }
        self.bus.node_event(NodeEvent::Killed {
            node: NodeId::server(s),
            at: now,
            class: ErrorClass::Retryable(RetryableError::ProactiveKill),
        });
        // The rewind lands just before the replacement server comes up
        // (same-instant events process in schedule order).
        let delay = self.sched_restart_delay(now)
            + SimDuration::from_secs_f64(self.cfg.world_rebuild_secs)
            + self.stage_ckpt_restore(now);
        eng.schedule(now + delay, Ev::CkptRestore);
        // Server lanes are push-driven (no boundary sync ever closes their
        // gaps), so charge the whole failover window to recovery up front.
        self.attr_fill(super::attr::SERVER_LANE + s, now + delay, WaitCause::FaultRecovery);
        eng.schedule(now + delay, Ev::ServerRestart { s, gen: self.servers[sj].gen });
    }
}
