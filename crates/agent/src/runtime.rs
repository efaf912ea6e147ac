//! The per-node Agent: report cadence plus the delivery inbox whose contents
//! take effect at the next iteration boundary (the "local barrier" end of
//! Fig. 6 — the training process picks the action up between iterations, never
//! mid-batch).
//!
//! The agent is the bus endpoint for [`crate::bus::Directive`]s: deliveries
//! are generation-fenced (a restarted pod runs a fresh incarnation and
//! rejects directives fenced to the dead one) and idempotent under
//! redelivery (a bus-unique `seq` dedups). The inbox is kept ordered by
//! `(delivery time, seq)`, so reordered redeliveries apply in a canonical
//! order no matter how the channel scrambled them.

use crate::bus::{DeliveryOutcome, Directive};
use antdt_controller::Action;
use antdt_monitor::NodeId;
use antdt_sim::SimTime;
use antdt_telemetry::Counter;
use std::collections::BTreeSet;

/// Directly-delivered (non-bus) actions draw seqs from a disjoint namespace
/// so tests and embedders of the bare `deliver` API never collide with
/// bus-assigned sequence numbers.
const LOCAL_SEQ_BASE: u64 = 1 << 63;

/// Telemetry counters shared by every [`Agent`] of a job (broadcast/barrier
/// visibility: deliveries fan out, applications happen at iteration
/// boundaries).
#[derive(Debug, Clone, Default)]
pub struct AgentCounters {
    /// Actions delivered into agent inboxes by the broadcast.
    pub delivered: Counter,
    /// Actions applied at an iteration boundary (`take_due`).
    pub applied: Counter,
    /// Directives rejected by the generation fence (stale after a restart).
    pub rejected: Counter,
    /// Redelivered directives idempotently dropped by the seq dedup.
    pub deduped: Counter,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AgentConfig {
    /// Report application state every this many iterations (paper: 10).
    pub report_every_iters: u32,
}

impl Default for AgentConfig {
    fn default() -> Self {
        AgentConfig { report_every_iters: 10 }
    }
}

/// Agent state for one node.
#[derive(Debug, Clone)]
pub struct Agent {
    pub node: NodeId,
    cfg: AgentConfig,
    iters_since_report: u32,
    /// This agent's incarnation. Bumped by [`Agent::reset`] (pod restart);
    /// the fence every directive must match.
    gen: u32,
    /// `(delivery time, seq, action)` — kept sorted by `(at, seq)`; applied
    /// when the training process crosses an iteration boundary at/after `at`.
    inbox: Vec<(SimTime, u64, Action)>,
    /// Seqs accepted by this incarnation (dedup under redelivery).
    seen: BTreeSet<u64>,
    next_local_seq: u64,
    counters: Option<AgentCounters>,
}

impl Agent {
    pub fn new(node: NodeId, cfg: AgentConfig) -> Self {
        Agent {
            node,
            cfg,
            iters_since_report: 0,
            gen: 0,
            inbox: Vec::new(),
            seen: BTreeSet::new(),
            next_local_seq: LOCAL_SEQ_BASE,
            counters: None,
        }
    }

    /// Attach telemetry counters (shared across a job's agents).
    pub fn attach_telemetry(&mut self, counters: AgentCounters) {
        self.counters = Some(counters);
    }

    /// This agent's current incarnation (the fence new directives must carry).
    pub fn incarnation(&self) -> u32 {
        self.gen
    }

    /// Called once per completed iteration; returns `true` when this iteration's
    /// statistics should be pushed to the Monitor.
    pub fn on_iteration(&mut self) -> bool {
        self.iters_since_report += 1;
        if self.iters_since_report >= self.cfg.report_every_iters {
            self.iters_since_report = 0;
            true
        } else {
            false
        }
    }

    /// Deliver a fenced directive that becomes effective at `at`. Rejects a
    /// stale fence, dedups a redelivered seq, otherwise queues in `(at, seq)`
    /// order.
    pub fn deliver_directive(&mut self, at: SimTime, d: &Directive) -> DeliveryOutcome {
        if d.fence_gen != self.gen {
            if let Some(c) = &self.counters {
                c.rejected.inc();
            }
            return DeliveryOutcome::RejectedStale { agent_gen: self.gen };
        }
        if !self.seen.insert(d.seq) {
            if let Some(c) = &self.counters {
                c.deduped.inc();
            }
            return DeliveryOutcome::Duplicate;
        }
        let pos = self
            .inbox
            .iter()
            .position(|&(t, s, _)| (t, s) > (at, d.seq))
            .unwrap_or(self.inbox.len());
        self.inbox.insert(pos, (at, d.seq, d.action.clone()));
        if let Some(c) = &self.counters {
            c.delivered.inc();
        }
        DeliveryOutcome::Accepted
    }

    /// Deliver a broadcast action that becomes effective at `at` without bus
    /// framing: the action is wrapped in a directive fenced to the current
    /// incarnation with a locally-drawn seq (disjoint from bus seqs).
    pub fn deliver(&mut self, at: SimTime, action: Action) {
        let seq = self.next_local_seq;
        self.next_local_seq += 1;
        let d = Directive { seq, decided_at: at, fence_gen: self.gen, action };
        let outcome = self.deliver_directive(at, &d);
        debug_assert_eq!(outcome, DeliveryOutcome::Accepted);
    }

    /// At an iteration boundary at time `now`, drain every action whose
    /// delivery time has passed, in `(delivery time, seq)` order. The delivery
    /// timestamp and seq are kept so the runtime can audit that every survivor
    /// applied the same broadcast (chaos-drill convergence invariant) and mark
    /// the directive's fate.
    pub fn take_due(&mut self, now: SimTime) -> Vec<(SimTime, u64, Action)> {
        let mut due = Vec::new();
        self.take_due_into(now, &mut due);
        due
    }

    /// Whether [`Agent::take_due`] at `now` would return anything. The inbox
    /// is sorted by delivery time, so its first entry decides.
    pub fn has_due(&self, now: SimTime) -> bool {
        self.inbox.first().is_some_and(|&(at, _, _)| at <= now)
    }

    /// Allocation-free [`Agent::take_due`]: appends the due actions to `out`
    /// so a caller-owned buffer can be reused across iteration boundaries.
    pub fn take_due_into(&mut self, now: SimTime, out: &mut Vec<(SimTime, u64, Action)>) {
        let n = self.inbox.iter().take_while(|&&(at, _, _)| at <= now).count();
        if let Some(c) = &self.counters {
            c.applied.add(n as u64);
        }
        out.extend(self.inbox.drain(..n));
    }

    /// Reset after a restart: a fresh pod starts a fresh *incarnation* —
    /// cadence restarts, pending deliveries addressed to the dead process are
    /// dropped (their seqs are returned so the bus can audit them as wiped),
    /// and the fence moves so in-flight directives for the old incarnation
    /// will be rejected on arrival.
    pub fn reset(&mut self) -> Vec<u64> {
        self.iters_since_report = 0;
        self.gen += 1;
        self.seen.clear();
        self.inbox.drain(..).map(|(_, seq, _)| seq).collect()
    }

    pub fn pending(&self) -> usize {
        self.inbox.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use antdt_sim::rng::StdRng;

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs_f64(secs)
    }

    fn dir(seq: u64, fence_gen: u32, action: Action) -> Directive {
        Directive { seq, decided_at: t(0.0), fence_gen, action }
    }

    #[test]
    fn reports_every_n_iterations() {
        let mut a = Agent::new(NodeId::worker(0), AgentConfig { report_every_iters: 3 });
        let due: Vec<bool> = (0..9).map(|_| a.on_iteration()).collect();
        assert_eq!(due, vec![false, false, true, false, false, true, false, false, true]);
    }

    #[test]
    fn actions_apply_only_after_delivery_time() {
        let mut a = Agent::new(NodeId::worker(1), AgentConfig::default());
        a.deliver(t(10.0), Action::BackupWorkers { b: 1 });
        a.deliver(t(20.0), Action::None);
        assert!(a.take_due(t(5.0)).is_empty());
        let first = a.take_due(t(10.0));
        assert_eq!(first.len(), 1);
        assert_eq!((first[0].0, &first[0].2), (t(10.0), &Action::BackupWorkers { b: 1 }));
        let second = a.take_due(t(25.0));
        assert_eq!(second.len(), 1);
        assert_eq!((second[0].0, &second[0].2), (t(20.0), &Action::None));
        assert_eq!(a.pending(), 0);
    }

    #[test]
    fn delivery_order_is_preserved_within_a_boundary() {
        let mut a = Agent::new(NodeId::worker(1), AgentConfig::default());
        a.deliver(t(1.0), Action::BackupWorkers { b: 1 });
        a.deliver(t(2.0), Action::BackupWorkers { b: 2 });
        let due: Vec<(SimTime, Action)> =
            a.take_due(t(3.0)).into_iter().map(|(at, _, x)| (at, x)).collect();
        assert_eq!(
            due,
            vec![
                (t(1.0), Action::BackupWorkers { b: 1 }),
                (t(2.0), Action::BackupWorkers { b: 2 })
            ]
        );
    }

    /// Two directives delivered for the same instant apply in seq order —
    /// i.e. decision order — regardless of the order the channel handed them
    /// over.
    #[test]
    fn same_timestamp_deliveries_apply_in_seq_order() {
        let mut a = Agent::new(NodeId::worker(0), AgentConfig::default());
        a.deliver_directive(t(5.0), &dir(9, 0, Action::BackupWorkers { b: 9 }));
        a.deliver_directive(t(5.0), &dir(3, 0, Action::BackupWorkers { b: 3 }));
        a.deliver_directive(t(5.0), &dir(7, 0, Action::BackupWorkers { b: 7 }));
        let seqs: Vec<u64> = a.take_due(t(5.0)).into_iter().map(|(_, s, _)| s).collect();
        assert_eq!(seqs, vec![3, 7, 9]);
    }

    #[test]
    fn duplicate_delivery_is_idempotent() {
        let mut a = Agent::new(NodeId::worker(0), AgentConfig::default());
        let d = dir(42, 0, Action::BackupWorkers { b: 1 });
        assert_eq!(a.deliver_directive(t(1.0), &d), DeliveryOutcome::Accepted);
        assert_eq!(a.deliver_directive(t(1.0), &d), DeliveryOutcome::Duplicate);
        assert_eq!(a.deliver_directive(t(2.0), &d), DeliveryOutcome::Duplicate);
        assert_eq!(a.take_due(t(10.0)).len(), 1, "one application despite three deliveries");
    }

    #[test]
    fn stale_fence_is_rejected_after_reset() {
        let mut a = Agent::new(NodeId::worker(0), AgentConfig::default());
        let stale = dir(1, 0, Action::BackupWorkers { b: 1 });
        a.reset(); // incarnation 0 → 1
        assert_eq!(
            a.deliver_directive(t(1.0), &stale),
            DeliveryOutcome::RejectedStale { agent_gen: 1 }
        );
        assert_eq!(a.pending(), 0);
        let fresh = dir(2, 1, Action::BackupWorkers { b: 2 });
        assert_eq!(a.deliver_directive(t(1.0), &fresh), DeliveryOutcome::Accepted);
    }

    #[test]
    fn reset_returns_wiped_seqs() {
        let mut a = Agent::new(NodeId::worker(0), AgentConfig::default());
        a.deliver_directive(t(1.0), &dir(5, 0, Action::None));
        a.deliver_directive(t(2.0), &dir(6, 0, Action::None));
        assert_eq!(a.reset(), vec![5, 6]);
        assert_eq!(a.pending(), 0);
    }

    #[test]
    fn counters_track_delivery_application_and_rejection() {
        let c = AgentCounters::default();
        let mut a = Agent::new(NodeId::worker(0), AgentConfig::default());
        let mut b = Agent::new(NodeId::worker(1), AgentConfig::default());
        a.attach_telemetry(c.clone());
        b.attach_telemetry(c.clone());
        a.deliver(t(1.0), Action::None);
        b.deliver(t(1.0), Action::None);
        b.deliver(t(9.0), Action::None);
        assert_eq!(c.delivered.get(), 3);
        a.take_due(t(2.0));
        b.take_due(t(2.0));
        assert_eq!(c.applied.get(), 2, "the t=9 delivery is not yet due");
        let d = dir(1, 0, Action::None);
        a.deliver_directive(t(3.0), &d);
        a.deliver_directive(t(3.0), &d);
        assert_eq!(c.deduped.get(), 1);
        a.reset();
        a.deliver_directive(t(4.0), &dir(2, 0, Action::None));
        assert_eq!(c.rejected.get(), 1);
    }

    #[test]
    fn reset_clears_everything() {
        let mut a = Agent::new(NodeId::worker(0), AgentConfig { report_every_iters: 2 });
        a.on_iteration();
        a.deliver(t(1.0), Action::None);
        a.reset();
        assert_eq!(a.pending(), 0);
        // Cadence restarts from zero.
        assert!(!a.on_iteration());
        assert!(a.on_iteration());
    }

    /// `has_due(now)` answers exactly "would `take_due(now)` return
    /// anything" over 128 seeded sequences of deliveries (including stale
    /// and duplicate ones), resets and drains at arbitrary instants, past
    /// and future.
    #[test]
    fn has_due_agrees_with_take_due() {
        let mut drains = [0u32; 2];
        for seed in 0..128 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut a = Agent::new(NodeId::worker(0), AgentConfig::default());
            let mut gen = 0;
            for step in 0..200 {
                let now = t(rng.gen_range(0u32..40) as f64);
                match rng.gen_range(0u32..8) {
                    0..=4 => {
                        let fence = if rng.gen_bool(0.9) { gen } else { gen + 1 };
                        let d = dir(rng.gen_range(0u64..30), fence, Action::None);
                        a.deliver_directive(now, &d);
                    }
                    5 => {
                        a.reset();
                        gen += 1;
                    }
                    _ => {
                        let due = a.has_due(now);
                        drains[usize::from(due)] += 1;
                        assert_eq!(due, !a.take_due(now).is_empty(), "seed {seed} step {step}");
                        assert!(!a.has_due(now), "seed {seed} step {step}: drained");
                    }
                }
            }
        }
        assert!(drains.iter().all(|&n| n > 100), "empty and non-empty drains: {drains:?}");
    }

    // Idempotence + canonical ordering under the channel's worst case:
    // whatever subset of directives the channel redelivers, in whatever
    // order, the applied sequence is exactly one copy of each unique seq
    // sorted by (delivery time, seq).
    /// 256 seeded cases; seqs come from a small range to force collisions.
    #[test]
    fn redelivered_and_reordered_directives_are_idempotent() {
        for seed in 0..256 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut a = Agent::new(NodeId::worker(0), AgentConfig::default());
            let mut expected: Vec<(u32, u64)> = Vec::new();
            for _ in 0..rng.gen_range(1..60u32) {
                let (seq, at) = (rng.gen_range(0u64..12), rng.gen_range(0u32..20));
                let d = dir(seq, 0, Action::BackupWorkers { b: seq as u32 });
                match a.deliver_directive(t(at as f64), &d) {
                    DeliveryOutcome::Accepted => expected.push((at, seq)),
                    DeliveryOutcome::Duplicate => {}
                    DeliveryOutcome::RejectedStale { .. } => {
                        panic!("seed {seed}: no resets in this scenario")
                    }
                }
            }
            expected.sort_unstable();
            let applied: Vec<(u32, u64)> = a
                .take_due(t(1e9))
                .into_iter()
                .map(|(at, seq, _)| (at.as_micros() as u32 / 1_000_000, seq))
                .collect();
            // Each unique seq applied exactly once, in (at, seq) order.
            assert_eq!(applied, expected, "seed {seed}");
            assert_eq!(a.pending(), 0, "seed {seed}");
        }
    }
}
