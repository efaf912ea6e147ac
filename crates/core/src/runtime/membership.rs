//! Elastic membership: the kernel-side registry of workers whose lifetime is
//! a subinterval of the job, and the `SCALE_OUT` join path.
//!
//! The worker set is an *append-only* slot vector: a joiner gets the next
//! slot index as its stable node id, and a departed worker's slot is retired
//! in place (alive = false, generation bumped) rather than compacted. That
//! keeps every id-indexed structure in the kernel — agent endpoints, RNG
//! streams, report series, attribution lanes — valid across membership
//! changes without remapping, which is what lets the elastic refactor leave
//! the fixed-membership traces byte-identical.
//!
//! Join protocol (mirrors a failover restart, §V-E3): the slot, its Monitor
//! stream and its Agent endpoint are provisioned at decision time; the pod
//! pays the scheduler pending delay plus `world_rebuild_secs` (the same
//! topology re-formation cost a restart pays); `Ev::WorkerJoin` then flips
//! the slot alive, adds it to the DDS consistent-hash ring, and the sync
//! strategy picks it up at the next iteration/round boundary. Departure is
//! [`super::lifecycle::worker_depart`] — kill machinery minus the
//! replacement pod.

use super::data::DataSource;
use super::kernel::{Kernel, WorkerState};
use crate::config::DataStrategy;
use crate::events::{Ev, RtEngine};
use crate::report::{MembershipEvent, MembershipEventKind};
use antdt_monitor::{NodeEvent, NodeId};
use antdt_sim::gantt::SpanKind;
use antdt_sim::{NodeProfile, SimDuration, SimTime, TimeSeries};
use std::collections::HashSet;

/// Joiner jitter-profile streams start here: far above the initial workers
/// (profile streams follow the cluster spec) and the replacement-pod offset
/// (`stream + 100_000 × gen`), so a joiner can never replay either.
const JOIN_STREAM_BASE: u64 = 500_000;

/// The membership registry: ordered event timeline plus the departed set the
/// chaos `membership-consistent` invariant audits. Empty (zero events) on
/// every fixed-membership run.
#[derive(Clone)]
pub(crate) struct Membership {
    /// Workers present at job start (slots `0..initial`).
    pub(crate) initial: usize,
    /// Ordered membership timeline.
    pub(crate) events: Vec<MembershipEvent>,
    /// Slots retired by `SCALE_IN`; never restarted, never re-used.
    pub(crate) departed: HashSet<u32>,
}

impl Membership {
    pub(crate) fn new(initial: usize) -> Self {
        Membership { initial, events: Vec::new(), departed: HashSet::new() }
    }

    pub(crate) fn record(&mut self, at: SimTime, node: u32, kind: MembershipEventKind) {
        if kind == MembershipEventKind::Departed {
            self.departed.insert(node);
        }
        self.events.push(MembershipEvent { node, kind, at_secs: at.as_secs_f64() });
    }

    /// Joiners that came up so far.
    pub(crate) fn joins(&self) -> usize {
        self.events.iter().filter(|e| e.kind == MembershipEventKind::Joined).count()
    }
}

/// Execute a `SCALE_OUT { add }`: provision `add` new worker slots and
/// schedule their joins. Runs at the Controller decision instant (the
/// scheduler allocates pods; no agent is involved yet, so nothing transits
/// the control channel).
pub(crate) fn scale_out(k: &mut Kernel, eng: &mut RtEngine, now: SimTime, add: u32) {
    for _ in 0..add {
        let id = k.workers.len() as u32;
        // The joiner inherits the cluster's baseline hardware (first spec
        // entry): elasticity adds generic pods, not bespoke stragglers.
        let spec = &k.cfg.cluster.workers[0];
        let quota = (k.cfg.global_batch / k.workers.len().max(1) as u64).max(1);
        let joiner = WorkerState {
            gen: 0,
            alive: false, // provisioning; Ev::WorkerJoin flips it
            done: false,
            profile: NodeProfile::clean(JOIN_STREAM_BASE + id as u64),
            device: spec.device,
            link: spec.link.clone(),
            quota,
            accum: 1,
            lr_scale: 1.0,
            source: match k.cfg.data {
                DataStrategy::Dds => DataSource::Dds,
                // Validated out for elastic jobs; a defensive empty partition
                // keeps the joiner from inventing data.
                DataStrategy::EvenPartition => DataSource::Fixed { remaining: 0 },
            },
            leases: Vec::new(),
            iter: 0,
            inflight: None,
            rng: k.pool.stream2(k.worker_stream_family, id as u64),
            series_bpt: TimeSeries::new(),
            series_batch: TimeSeries::new(),
            killed_at: None,
            starving: false,
            next_allowed: SimTime::ZERO,
        };
        k.workers.push(joiner);
        k.chaos_restart_extra.push(0.0);
        k.bus.register_worker(id, k.cfg.agent);
        k.membership.record(now, id, MembershipEventKind::JoinScheduled);
        // Attribution bridge for a subinterval lifetime: the lane's pre-life
        // `[0, now)` plus the provisioning window both book as FaultRecovery —
        // the same cause a replacement pod's pre-first-step window carries —
        // so conservation stays exact without inventing a cause for "did not
        // exist yet". The joiner's first boundary sync closes the window.
        k.attr_fill(id, now, antdt_attr::WaitCause::FaultRecovery);
        k.attr_pending(id, antdt_attr::WaitCause::FaultRecovery);
        // Same critical path as a replacement pod: scheduler pending time
        // plus the communication-world rebuild.
        let delay =
            k.sched_restart_delay(now) + SimDuration::from_secs_f64(k.cfg.world_rebuild_secs);
        if let Some(g) = k.gantt.as_mut() {
            g.record(id, SpanKind::Failover, now, now + delay);
        }
        if let Some(rt) = &mut k.tele {
            rt.tele.tracer.instant(
                "scale-out",
                "lifecycle",
                now.as_micros(),
                id,
                &[("delay_secs", &format!("{:.1}", delay.as_secs_f64()))],
            );
        }
        eng.schedule(now + delay, Ev::WorkerJoin { w: id });
    }
}

/// A provisioned joiner's pod is up (`Ev::WorkerJoin`): flip it alive, add it
/// to the DDS placement ring, tell the Monitor. Returns whether the join took
/// effect (false if the slot was somehow already live). The caller schedules
/// whatever its consistency model needs — PS flavors start the worker's
/// iteration loop; round drivers just let the next round open pick it up.
pub(crate) fn complete_join(k: &mut Kernel, eng: &mut RtEngine, w: u32) -> bool {
    let wi = w as usize;
    if k.workers[wi].alive || k.finished {
        return false;
    }
    let now = eng.now();
    k.workers[wi].alive = true;
    k.workers[wi].next_allowed = now;
    k.membership.record(now, w, MembershipEventKind::Joined);
    if let Some(dds) = &mut k.dds {
        dds.ring_join(w);
    }
    k.last_progress = k.last_progress.max(now);
    if let Some(rt) = &mut k.tele {
        rt.tele.tracer.instant("worker-join", "lifecycle", now.as_micros(), w, &[]);
    }
    k.bus.node_event(NodeEvent::Restarted { node: NodeId::worker(w), at: now });
    true
}
