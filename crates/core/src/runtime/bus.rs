//! The control bus: the single seam through which the runtime talks to the
//! Monitor, the Controller and the Agents (paper Fig. 6, made explicit).
//!
//! Every hop of the control loop between processes is a typed
//! [`ControlMsg`]; Monitor and Controller are colocated on the master, so
//! the snapshot between them is a plain call at the tick:
//!
//! | hop                  | message     | carried by                          |
//! |----------------------|-------------|-------------------------------------|
//! | Agent → Monitor      | `Report`    | bus (channel-modeled)               |
//! | Controller → Agent   | `Directive` | bus (channel-modeled, fenced)       |
//! | Agent → Controller   | `Ack`       | bus (channel-modeled)               |
//!
//! Under [`ControlChannel::Ideal`] (the default) every message is delivered
//! *inline* at the classic broadcast-model instants: zero extra events, zero
//! extra RNG draws, so same-seed traces are byte-identical to the pre-bus
//! golden fixtures. Under [`ControlChannel::Modeled`] messages become
//! first-class [`Ev::BusMsg`] events with latency, jitter, loss and capped
//! retransmission, all drawn from the channel's dedicated RNG stream (never
//! the simulation's [`antdt_sim::RngPool`] streams).
//!
//! Directives are generation-fenced: stamped with the target agent's
//! incarnation at decision time, rejected at delivery by any other
//! incarnation, and idempotent under redelivery (bus-unique seq, deduped at
//! the agent). Every directive's life is audited in a [`DirectiveRecord`];
//! fence rejections additionally land in the Controller decision audit and
//! the telemetry trace.

use super::inflight::InFlight;
use super::kernel::Kernel;
use crate::events::{Ev, RtEngine};
use crate::report::{DirectiveFate, DirectiveRecord};
use antdt_agent::bus::{ControlMsg, DeliveryOutcome, Directive};
use antdt_agent::{direct_delay, full_broadcast_delay, Agent, AgentConfig, AgentCounts};
use antdt_controller::{Action, MitigationPolicy, PolicyCtx};
use antdt_monitor::{
    ClusterInfo, MetricStore, MonitorConfig, MonitorCounts, NodeEvent, NodeId, Role,
};
use antdt_sim::rng::StdRng;
use antdt_sim::{ChannelVerdict, ControlChannel, SimDuration, SimTime};
use antdt_telemetry::{DecisionRecord, Telemetry};
use std::collections::BTreeMap;
use std::sync::Arc;

/// The one rendering of a Controller action that the runtime keeps: the
/// directive audit, the chaos application log and the telemetry instant all
/// share this text. Rendered once per decision, never once per target.
pub(crate) fn render(action: &Action) -> Arc<str> {
    Arc::from(format!("{action:?}"))
}

/// Retransmission budget per message; a directive that cannot be delivered in
/// this many attempts expires (audited, never silently lost).
const MAX_ATTEMPTS: u32 = 64;

/// Who a global directive broadcast addresses — mirrors the two pre-bus
/// broadcast shapes exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BroadcastScope {
    /// PS runtimes: alive workers only; idle workers get a wake-up poke at
    /// the delivery instant so a fresh `AdjustBs` can pick them up.
    PsAlive,
    /// Round-driven runtimes: every rank, dead or alive, no pokes — the
    /// round open applies whatever has arrived.
    RingAll,
}

/// Transport state of one in-flight message.
#[derive(Clone)]
enum EnvState {
    /// Scheduled to arrive at its `BusMsg` instant.
    Deliver,
    /// Lost (or target dead); the `BusMsg` instant is a retransmission.
    Retry,
}

/// One message in flight on a modeled channel.
#[derive(Clone)]
struct Envelope {
    msg: ControlMsg,
    state: EnvState,
    attempts: u32,
    sent_at: SimTime,
    retryable: bool,
    poke: bool,
}

/// Control-bus transport counts (message sends, deliveries, channel drops,
/// retransmissions), always kept.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct BusCounts {
    pub sent: u64,
    pub delivered: u64,
    pub dropped: u64,
    pub retried: u64,
}

/// The control-plane endpoint bundle owned by the kernel: Monitor store,
/// Controller policy, per-node Agents, and the channel that connects them.
/// All Monitor/Controller/Agent traffic in `runtime/` flows through here.
#[derive(Clone)]
pub(crate) struct ControlBus {
    channel: ControlChannel,
    /// The channel's dedicated RNG (`None` for `Ideal`).
    rng: Option<StdRng>,
    store: MetricStore,
    policy: Box<dyn MitigationPolicy>,
    ctx: PolicyCtx,
    agents: Vec<Agent>,
    next_seq: u64,
    pending: InFlight<Envelope>,
    /// The directive audit, appended in ascending `seq` (reports and acks
    /// draw seqs too, so the directives' seqs are sparse).
    directives: Vec<DirectiveRecord>,
    /// Fence rejections awaiting the next decision-audit drain.
    rejections: Vec<DecisionRecord>,
    /// Reused buffer for [`ControlBus::drain_actions_into`].
    due_scratch: Vec<(SimTime, u64, Action)>,
    /// Set-once divergence mark for `Perturbation::ZeroControlLatency`: the
    /// first transmission sampled on the job's `Modeled` channel.
    divergence: Option<SimTime>,
    counts: BusCounts,
}

/// Telemetry lane for a node: workers on their own lanes, servers above 1000
/// (the trace-viewer convention used by the lifecycle spans).
fn lane(node: NodeId) -> u32 {
    match node.role {
        Role::Worker => node.idx,
        Role::Server => 1000 + node.idx,
    }
}

impl ControlBus {
    /// Build the control plane: the Monitor store with every node registered,
    /// one Agent per worker, the Controller policy, and the channel. The bus
    /// is the only place in `runtime/` that constructs or touches these
    /// endpoints — `scripts/check-layering.sh` enforces it.
    pub(crate) fn new(
        channel: ControlChannel,
        monitor_cfg: MonitorConfig,
        agent_cfg: AgentConfig,
        policy: Box<dyn MitigationPolicy>,
        ctx: PolicyCtx,
    ) -> Self {
        let mut store = MetricStore::new(monitor_cfg);
        let mut agents: Vec<Agent> = Vec::with_capacity(ctx.n_workers);
        for i in 0..ctx.n_workers {
            store.register(NodeId::worker(i as u32));
            agents.push(Agent::new(NodeId::worker(i as u32), agent_cfg));
        }
        for j in 0..ctx.n_servers {
            store.register(NodeId::server(j as u32));
        }
        ControlBus {
            rng: channel.rng(),
            channel,
            store,
            policy,
            ctx,
            agents,
            next_seq: 0,
            pending: InFlight::default(),
            directives: Vec::new(),
            rejections: Vec::new(),
            due_scratch: Vec::new(),
            divergence: None,
            counts: BusCounts::default(),
        }
    }

    /// The Monitor's ingestion counts, the Agents' delivery counts summed
    /// over every agent, and the transport counts.
    pub(crate) fn counts(&self) -> (MonitorCounts, AgentCounts, BusCounts) {
        let mut agents = AgentCounts::default();
        for a in &self.agents {
            agents += a.counts();
        }
        (self.store.counts(), agents, self.counts)
    }

    /// The `ZeroControlLatency` divergence instant (see the field docs).
    pub(crate) fn control_divergence(&self) -> Option<SimTime> {
        self.divergence
    }

    /// Counterfactual live edit: swap the channel for `Ideal` mid-run. Only
    /// sound on a run forked *before* [`ControlBus::control_divergence`],
    /// when no message has been sampled on the channel yet.
    pub(crate) fn set_ideal_channel(&mut self) {
        self.channel = ControlChannel::Ideal;
        self.rng = None;
    }

    /// Whether messages are delivered inline (no events, no draws).
    fn inline_mode(&self) -> bool {
        self.channel.is_ideal()
    }

    /// Sample one transmission attempt on the channel.
    fn sample(&mut self) -> ChannelVerdict {
        match (&self.channel, &mut self.rng) {
            (ch @ ControlChannel::Modeled { .. }, Some(rng)) => ch.sample(rng),
            _ => ChannelVerdict::Deliver(0.0),
        }
    }

    /// Whether worker `wi`'s agent wants to push a report this iteration
    /// (the `report_every_iters` cadence).
    pub(crate) fn report_due(&mut self, wi: usize) -> bool {
        self.agents[wi].on_iteration()
    }

    /// Worker `wi`'s current agent incarnation (the fence for new directives).
    pub(crate) fn incarnation(&self, wi: usize) -> u32 {
        self.agents[wi].incarnation()
    }

    /// Worker `wi` restarted: fresh incarnation; queued deliveries addressed
    /// to the dead process are wiped and audited as such.
    pub(crate) fn agent_reset(&mut self, wi: usize, at: SimTime) {
        for seq in self.agents[wi].reset() {
            self.mark(seq, DirectiveFate::Wiped { at });
        }
    }

    /// A lifecycle event (kill/restart) reaches the Monitor. Lifecycle
    /// signals ride the scheduler path, not the agent bus — the master
    /// observes them directly.
    pub(crate) fn node_event(&mut self, ev: NodeEvent) {
        self.store.report_event(ev);
    }

    /// One Monitor→Controller tick: aggregate, snapshot, decide. Monitor and
    /// Controller are colocated on the AntDT master, so the snapshot hop is
    /// always inline and never a bus message.
    pub(crate) fn tick_decide(
        &mut self,
        tele: Option<&mut Telemetry>,
        now: SimTime,
        info: ClusterInfo,
    ) -> Vec<Action> {
        self.store.set_cluster_info(info);
        let snap = self.store.snapshot(now);
        if let Some(tele) = tele {
            let nodes = self.agents.len() + self.ctx.n_servers;
            tele.tracer.instant(
                "bus-snapshot",
                "bus",
                now.as_micros(),
                0,
                &[("nodes", &nodes.to_string())],
            );
        }
        self.policy.decide(now, &snap, &self.ctx)
    }

    /// Drain the Controller decision audit: the policy's own records plus any
    /// fence rejections the bus audited since the last drain.
    pub(crate) fn drain_decision_audit(&mut self) -> Vec<DecisionRecord> {
        let mut out = self.policy.drain_audit();
        out.append(&mut self.rejections);
        out
    }

    /// At worker `wi`'s iteration boundary, drain every due action in
    /// canonical `(delivery time, seq)` order into `out` (cleared first),
    /// marking each directive applied. Each action comes with its directive's
    /// rendered text. Takes a caller-owned buffer so the per-iteration hot
    /// path performs no allocation once buffers have grown.
    pub(crate) fn drain_actions_into(
        &mut self,
        wi: usize,
        now: SimTime,
        out: &mut Vec<(SimTime, Action, Arc<str>)>,
    ) {
        out.clear();
        if !self.agents[wi].has_due(now) {
            return;
        }
        let gen = self.agents[wi].incarnation();
        let mut due = std::mem::take(&mut self.due_scratch);
        due.clear();
        self.agents[wi].take_due_into(now, &mut due);
        for (at, seq, action) in due.drain(..) {
            self.mark(seq, DirectiveFate::Applied { gen, at: now });
            let text = self.directive_text(seq).expect("every bus directive is recorded");
            out.push((at, action, Arc::clone(text)));
        }
        self.due_scratch = due;
    }

    /// Consume the directive audit for the final report.
    pub(crate) fn take_directives(&mut self) -> Vec<DirectiveRecord> {
        std::mem::take(&mut self.directives)
    }

    /// Append a new directive record carrying the decision's rendered
    /// `action` text (shared, not copied) and return its seq.
    fn record(
        &mut self,
        target: NodeId,
        fence_gen: u32,
        decided_at: SimTime,
        action: &Arc<str>,
    ) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.directives.push(DirectiveRecord {
            seq,
            target,
            fence_gen,
            decided_at,
            action: Arc::clone(action),
            fate: DirectiveFate::Pending,
        });
        seq
    }

    /// Advance a directive's fate. Terminal fates never regress (a duplicate
    /// delivery of an already-applied directive stays `Applied`).
    fn mark(&mut self, seq: u64, fate: DirectiveFate) {
        if let Some(i) = self.directive_index(seq) {
            if matches!(self.directives[i].fate, DirectiveFate::Pending) {
                self.directives[i].fate = fate;
            }
        }
    }

    /// Index of directive `seq` in the audit. Seqs ascend by at least one
    /// per record, so it sits at or before index `seq − first seq`, and
    /// exactly there when no report or ack drew a seq in between (always
    /// on an ideal channel).
    fn directive_index(&self, seq: u64) -> Option<usize> {
        let bound = usize::try_from(seq.checked_sub(self.directives.first()?.seq)?).ok()?;
        match self.directives.get(bound) {
            Some(d) if d.seq == seq => Some(bound),
            _ => {
                let head = &self.directives[..bound.min(self.directives.len())];
                head.binary_search_by_key(&seq, |d| d.seq).ok()
            }
        }
    }

    /// Count one delivered message hop, traced as a span `sent_at →
    /// delivered_at` on the target's telemetry lane.
    fn hop_span(
        &mut self,
        tele: Option<&mut Telemetry>,
        name: &'static str,
        sent_at: SimTime,
        delivered_at: SimTime,
        node: NodeId,
    ) {
        self.counts.delivered += 1;
        if let Some(tele) = tele {
            tele.tracer.complete(
                name,
                "bus",
                sent_at.as_micros(),
                delivered_at.since(sent_at).as_micros(),
                lane(node),
            );
        }
    }

    /// Audit a fence rejection: decision-audit record + telemetry instant.
    fn audit_rejection(
        &mut self,
        tele: Option<&mut Telemetry>,
        now: SimTime,
        target: NodeId,
        d: &Directive,
        agent_gen: u32,
    ) {
        self.mark(d.seq, DirectiveFate::RejectedStale { agent_gen, at: now });
        self.rejections.push(DecisionRecord {
            at_us: now.as_micros(),
            rule: "stale-directive-rejected".to_string(),
            node: target.to_string(),
            window: BTreeMap::new(),
            solver: None,
            actions: vec![format!(
                "seq={} fence_gen={} agent_gen={} {}",
                d.seq,
                d.fence_gen,
                agent_gen,
                self.directive_text(d.seq).map_or("", |t| &**t),
            )],
        });
        if let Some(tele) = tele {
            tele.tracer.instant(
                "bus-reject",
                "bus",
                now.as_micros(),
                lane(target),
                &[
                    ("seq", &d.seq.to_string()),
                    ("fence_gen", &d.fence_gen.to_string()),
                    ("agent_gen", &agent_gen.to_string()),
                ],
            );
        }
    }

    /// The rendered action of directive `seq`.
    fn directive_text(&self, seq: u64) -> Option<&Arc<str>> {
        self.directive_index(seq).map(|i| &self.directives[i].action)
    }

    /// Enqueue one message on the modeled channel: first transmission attempt
    /// now, arrival (or retry) as a `BusMsg` event.
    fn enqueue(
        &mut self,
        eng: &mut RtEngine,
        seq: u64,
        msg: ControlMsg,
        base_at: SimTime,
        retryable: bool,
        poke: bool,
    ) {
        self.counts.sent += 1;
        let env = Envelope {
            msg,
            state: EnvState::Deliver,
            attempts: 0,
            sent_at: base_at,
            retryable,
            poke,
        };
        self.transmit(eng, seq, env, base_at);
    }

    /// One transmission attempt of `env`, starting from `base_at`.
    fn transmit(&mut self, eng: &mut RtEngine, seq: u64, mut env: Envelope, base_at: SimTime) {
        // Every channel sample funnels through here (only a `Modeled`
        // channel sends envelopes), so this is the single choke point where
        // an `Ideal`-channel run would first behave differently.
        self.divergence.get_or_insert(eng.now());
        env.attempts += 1;
        match self.sample() {
            ChannelVerdict::Deliver(d) => {
                env.state = EnvState::Deliver;
                eng.schedule(base_at + SimDuration::from_secs_f64(d), Ev::BusMsg { seq });
                self.pending.insert(seq, env);
            }
            ChannelVerdict::Drop => {
                self.counts.dropped += 1;
                self.schedule_retry(eng, seq, env, base_at);
            }
        }
    }

    /// Schedule a retransmission of `env` (lost attempt or dead target), or
    /// expire it once the budget runs out.
    fn schedule_retry(
        &mut self,
        eng: &mut RtEngine,
        seq: u64,
        mut env: Envelope,
        base_at: SimTime,
    ) {
        if env.retryable && env.attempts < MAX_ATTEMPTS {
            self.counts.retried += 1;
            env.state = EnvState::Retry;
            let backoff = SimDuration::from_secs_f64(self.channel.retry_secs());
            eng.schedule(base_at + backoff, Ev::BusMsg { seq });
            self.pending.insert(seq, env);
        } else if let ControlMsg::Directive { directive, .. } = &env.msg {
            self.mark(directive.seq, DirectiveFate::Expired { at: base_at });
        }
    }
}

/// Agent → Monitor: one iteration statistic. `at` is the measurement instant;
/// a delayed channel shifts when the Monitor *sees* it, not what was
/// measured.
pub(crate) fn send_report(
    k: &mut Kernel,
    eng: &mut RtEngine,
    node: NodeId,
    at: SimTime,
    bpt_secs: f64,
    batch: u64,
) {
    if k.bus.inline_mode() {
        k.bus.store.report_bpt(node, at, bpt_secs, batch);
        k.bus.hop_span(k.tele.as_mut(), "bus-report", at, at, node);
        return;
    }
    let seq = k.bus.next_seq;
    k.bus.next_seq += 1;
    let base = at.max(eng.now());
    let msg = ControlMsg::Report { node, at, bpt_secs, batch };
    // Reports are not retried: the next report supersedes a lost one (the
    // Monitor's windows tolerate gaps — that is what DropReports drills).
    k.bus.enqueue(eng, seq, msg, base, false, false);
}

/// Controller → Agents: broadcast one global action, fenced per target. The
/// ideal path reproduces the pre-bus Fig. 6 broadcast exactly (same delays,
/// same pokes, same event order). `text` is the decision's [`render`]; every
/// target's directive record and payload share it and the action, so one
/// broadcast costs O(targets) host work whatever the payload size.
pub(crate) fn broadcast(
    k: &mut Kernel,
    eng: &mut RtEngine,
    now: SimTime,
    action: Action,
    text: &Arc<str>,
    scope: BroadcastScope,
) {
    if k.bus.inline_mode() {
        let payload = action.payload_bytes();
        let delay = full_broadcast_delay(payload);
        k.overhead.add_sync(delay);
        let at = now + delay;
        for w in 0..k.workers.len() {
            if scope == BroadcastScope::PsAlive && !k.workers[w].alive {
                continue;
            }
            let target = NodeId::worker(w as u32);
            let fence = k.bus.incarnation(w);
            let seq = k.bus.record(target, fence, now, text);
            let d = Directive { seq, decided_at: now, fence_gen: fence, action: action.clone() };
            let outcome = k.bus.agents[w].deliver_directive(at, &d);
            debug_assert_eq!(outcome, DeliveryOutcome::Accepted);
            k.bus.hop_span(k.tele.as_mut(), "bus-directive", now, at, target);
            if scope == BroadcastScope::PsAlive
                && k.workers[w].inflight.is_none()
                && !k.workers[w].done
            {
                // Idle workers (quota 0 / parked) need a poke to pick the
                // action up.
                k.poke(eng, w, at);
            }
        }
        return;
    }
    for w in 0..k.workers.len() {
        if scope == BroadcastScope::PsAlive && !k.workers[w].alive {
            continue;
        }
        let target = NodeId::worker(w as u32);
        let fence = k.bus.incarnation(w);
        let seq = k.bus.record(target, fence, now, text);
        let d = Directive { seq, decided_at: now, fence_gen: fence, action: action.clone() };
        let msg = ControlMsg::Directive { target, directive: d };
        k.bus.enqueue(eng, seq, msg, now, true, scope == BroadcastScope::PsAlive);
    }
}

/// Controller → node: a `KILL_RESTART` signal. The target generation is
/// resolved at decision time; the scheduled kill event's generation guard is
/// the fence on this path (a restarted node ignores a stale kill).
pub(crate) fn send_kill(
    k: &mut Kernel,
    eng: &mut RtEngine,
    now: SimTime,
    node: NodeId,
    text: &Arc<str>,
) {
    let action = Action::KillRestart { node };
    let gen = match node.role {
        Role::Worker => k.workers[node.idx as usize].gen,
        Role::Server => k.servers[node.idx as usize].gen,
    };
    if k.bus.inline_mode() {
        let delay = direct_delay(16);
        let at = now + delay;
        let seq = k.bus.record(node, gen, now, text);
        k.bus.mark(seq, DirectiveFate::Fired { at });
        k.bus.hop_span(k.tele.as_mut(), "bus-directive", now, at, node);
        match node.role {
            Role::Worker => eng.schedule(at, Ev::WorkerKill { w: node.idx, gen }),
            Role::Server => eng.schedule(at, Ev::ServerKill { s: node.idx, gen }),
        }
        return;
    }
    let seq = k.bus.record(node, gen, now, text);
    let d = Directive { seq, decided_at: now, fence_gen: gen, action };
    let msg = ControlMsg::Directive { target: node, directive: d };
    // A lost kill signal is a lost signal: the Controller re-decides at a
    // later tick rather than the transport replaying an old intent.
    k.bus.enqueue(eng, seq, msg, now, false, false);
}

/// An `Ev::BusMsg` instant fired: a scheduled arrival or retransmission.
pub(crate) fn on_bus_msg(k: &mut Kernel, eng: &mut RtEngine, seq: u64) {
    let Some(env) = k.bus.pending.remove(seq) else {
        return;
    };
    let now = eng.now();
    match env.state {
        EnvState::Retry => k.bus.transmit(eng, seq, env, now),
        EnvState::Deliver => deliver(k, eng, seq, env, now),
    }
}

/// A message arrived at its endpoint.
fn deliver(k: &mut Kernel, eng: &mut RtEngine, seq: u64, env: Envelope, now: SimTime) {
    match env.msg.clone() {
        ControlMsg::Report { node, at, bpt_secs, batch } => {
            k.bus.store.report_bpt(node, at, bpt_secs, batch);
            k.bus.hop_span(k.tele.as_mut(), "bus-report", env.sent_at, now, node);
        }
        ControlMsg::Directive { target, directive } => {
            deliver_directive(k, eng, seq, env, target, directive, now);
        }
        ControlMsg::Ack { from, .. } => {
            k.bus.hop_span(k.tele.as_mut(), "bus-ack", env.sent_at, now, from);
        }
    }
}

/// A fenced directive arrived at its target node.
fn deliver_directive(
    k: &mut Kernel,
    eng: &mut RtEngine,
    seq: u64,
    env: Envelope,
    target: NodeId,
    d: Directive,
    now: SimTime,
) {
    // KILL_RESTART bypasses the agent inbox: the signal goes to the node's
    // runtime, and the scheduled event's generation guard fences staleness.
    if matches!(d.action, Action::KillRestart { .. }) {
        k.bus.mark(seq, DirectiveFate::Fired { at: now });
        k.bus.hop_span(k.tele.as_mut(), "bus-directive", env.sent_at, now, target);
        match target.role {
            Role::Worker => eng.schedule(now, Ev::WorkerKill { w: target.idx, gen: d.fence_gen }),
            Role::Server => eng.schedule(now, Ev::ServerKill { s: target.idx, gen: d.fence_gen }),
        }
        return;
    }
    let wi = target.idx as usize;
    if !k.workers[wi].alive {
        // The pod is down; the transport keeps trying so the directive
        // reliably reaches whatever incarnation comes up — where the fence,
        // not luck, decides its fate.
        k.bus.schedule_retry(eng, seq, env, now);
        return;
    }
    let outcome = k.bus.agents[wi].deliver_directive(now, &d);
    k.bus.hop_span(k.tele.as_mut(), "bus-directive", env.sent_at, now, target);
    let accepted = match outcome {
        DeliveryOutcome::Accepted => {
            if env.poke && k.workers[wi].inflight.is_none() && !k.workers[wi].done {
                k.poke(eng, wi, now);
            }
            true
        }
        DeliveryOutcome::Duplicate => {
            k.bus.mark(seq, DirectiveFate::Deduped { at: now });
            true
        }
        DeliveryOutcome::RejectedStale { agent_gen } => {
            k.bus.audit_rejection(k.tele.as_mut(), now, target, &d, agent_gen);
            false
        }
    };
    // Agent → Controller receipt; audited but otherwise inert (the
    // Controller's ground truth is the directive audit).
    let ack_seq = k.bus.next_seq;
    k.bus.next_seq += 1;
    let ack = ControlMsg::Ack { from: target, seq: d.seq, accepted };
    k.bus.enqueue(eng, ack_seq, ack, now, true, false);
}

#[cfg(test)]
mod tests {
    use super::ControlBus;
    use crate::config::{Fault, FaultEvent, JobConfig, MitigationChoice, NodeRef};
    use crate::job::Job;
    use crate::report::DirectiveFate;
    use antdt_agent::AgentConfig;
    use antdt_controller::{Action, NoMitigation, PolicyCtx};
    use antdt_monitor::{MonitorConfig, NodeId};
    use antdt_sim::{ControlChannel, SimDuration, SimTime};
    use antdt_workloads::cluster::cluster_a_scaled;
    use antdt_workloads::{ModelProfile, Scenario};
    use std::sync::Arc;

    /// Reports and acks draw bus seqs too, so directive seqs are sparse.
    /// `directive_text` and `mark` find exactly the directive with the
    /// given seq, and ignore a seq that is no directive's.
    #[test]
    fn directive_lookup_by_sparse_seq() {
        let ctx = PolicyCtx { global_batch: 64, n_workers: 2, n_servers: 1 };
        let mut bus = ControlBus::new(
            ControlChannel::Ideal,
            MonitorConfig::default(),
            AgentConfig::default(),
            Box::new(NoMitigation),
            ctx,
        );
        let mut seqs = Vec::new();
        // Seqs drawn by reports and acks before each directive: a dense
        // run first, then gaps.
        for (i, gap) in [1, 0, 0, 2, 0, 1, 0, 3].into_iter().enumerate() {
            bus.next_seq += gap;
            let text: Arc<str> = Arc::from(format!("action-{i}"));
            seqs.push(bus.record(NodeId::worker(i as u32 % 2), 0, SimTime::ZERO, &text));
        }
        for (i, &seq) in seqs.iter().enumerate() {
            assert_eq!(bus.directive_text(seq).map(|t| t.to_string()), Some(format!("action-{i}")));
        }
        assert_eq!(seqs, [1, 2, 3, 6, 7, 9, 10, 14]);
        let unknown: Vec<u64> = (0..seqs[7] + 3).filter(|s| !seqs.contains(s)).collect();
        let at = SimTime::from_secs_f64(1.0);
        for &seq in &unknown {
            assert!(bus.directive_text(seq).is_none(), "seq {seq} is no directive");
            bus.mark(seq, DirectiveFate::Expired { at });
        }
        assert!(bus.directives.iter().all(|d| d.fate == DirectiveFate::Pending));
        bus.mark(seqs[5], DirectiveFate::Applied { gen: 0, at });
        bus.mark(seqs[5], DirectiveFate::Expired { at });
        for (i, d) in bus.directives.iter().enumerate() {
            let want =
                if i == 5 { DirectiveFate::Applied { gen: 0, at } } else { DirectiveFate::Pending };
            assert_eq!((d.seq, d.fate), (seqs[i], want));
        }
    }

    /// Every directive record of one broadcast shares a single rendering of
    /// the action, equal to its `Debug` text, and every chaos application
    /// record points at that same allocation — inline and over a modeled
    /// channel alike.
    #[test]
    fn one_render_per_broadcast() {
        let modeled = ControlChannel::Modeled {
            latency_secs: 5.0,
            jitter_secs: 0.0,
            loss_prob: 0.0,
            seed: 3,
        };
        for channel in [ControlChannel::Ideal, modeled] {
            let cfg =
                JobConfig::ps_bsp(cluster_a_scaled(4, 2), Scenario::WorkerMix { intensity: 1.0 })
                    .with_model(ModelProfile::xdeepfm())
                    .with_global_batch(4_096)
                    .with_samples(200_000)
                    .with_batches_per_shard(10)
                    .with_fast_cadence(SimDuration::from_secs(60))
                    .with_seed(11)
                    .with_mitigation(MitigationChoice::AntDtNd)
                    .with_control_channel(channel)
                    .with_injections(vec![FaultEvent {
                        at_secs: 1.0,
                        fault: Fault::NetworkDegrade {
                            node: NodeRef::Worker(0),
                            factor: 1.0,
                            window_secs: 1.0,
                        },
                    }]);
            let report = Job::run(cfg);
            let mut broadcasts = 0;
            for (t, action) in &report.actions {
                if !matches!(action, Action::AdjustBs { .. }) {
                    continue;
                }
                let want = format!("{action:?}");
                let recs: Vec<_> = report
                    .directives
                    .iter()
                    .filter(|d| d.decided_at == *t && *d.action == *want)
                    .collect();
                assert!(recs.len() > 1, "{channel:?}: broadcast at {t} reached {}", recs.len());
                assert!(recs.iter().all(|d| Arc::ptr_eq(&d.action, &recs[0].action)));
                broadcasts += 1;
            }
            assert!(broadcasts > 0, "{channel:?}: the policy never broadcast ADJUST_BS");
            assert!(!report.action_log.is_empty(), "{channel:?}: no application logged");
            for app in &report.action_log {
                assert!(
                    report.directives.iter().any(|d| Arc::ptr_eq(&d.action, &app.action)),
                    "{channel:?}: application text re-rendered: {}",
                    app.action
                );
            }
        }
    }
}
