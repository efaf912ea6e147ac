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
use std::collections::BTreeSet;

/// Delivery counts one [`Agent`] always keeps ([`Agent::counts`]); a job
/// sums them over its agents (broadcast/barrier visibility: deliveries fan
/// out, applications happen at iteration boundaries).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AgentCounts {
    /// Actions delivered into the inbox by the broadcast.
    pub delivered: u64,
    /// Actions applied at an iteration boundary (`take_due_into`).
    pub applied: u64,
    /// Directives rejected by the generation fence (stale after a restart).
    pub rejected: u64,
    /// Redelivered directives idempotently dropped by the seq dedup.
    pub deduped: u64,
}

impl std::ops::AddAssign for AgentCounts {
    fn add_assign(&mut self, o: Self) {
        self.delivered += o.delivered;
        self.applied += o.applied;
        self.rejected += o.rejected;
        self.deduped += o.deduped;
    }
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
    counts: AgentCounts,
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
            counts: AgentCounts::default(),
        }
    }

    /// Delivery counts since construction, across incarnations.
    pub fn counts(&self) -> AgentCounts {
        self.counts
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
            self.counts.rejected += 1;
            return DeliveryOutcome::RejectedStale { agent_gen: self.gen };
        }
        if !self.seen.insert(d.seq) {
            self.counts.deduped += 1;
            return DeliveryOutcome::Duplicate;
        }
        let pos = self
            .inbox
            .iter()
            .position(|&(t, s, _)| (t, s) > (at, d.seq))
            .unwrap_or(self.inbox.len());
        self.inbox.insert(pos, (at, d.seq, d.action.clone()));
        self.counts.delivered += 1;
        DeliveryOutcome::Accepted
    }

    /// Whether [`Agent::take_due_into`] at `now` would drain anything. The
    /// inbox is sorted by delivery time, so its first entry decides.
    pub fn has_due(&self, now: SimTime) -> bool {
        self.inbox.first().is_some_and(|&(at, _, _)| at <= now)
    }

    /// At an iteration boundary at time `now`, drain every action whose
    /// delivery time has passed into `out`, in `(delivery time, seq)` order,
    /// so a caller-owned buffer is reused across boundaries. The delivery
    /// timestamp and seq are kept so the runtime can audit that every
    /// survivor applied the same broadcast (chaos-drill convergence
    /// invariant) and mark the directive's fate.
    pub fn take_due_into(&mut self, now: SimTime, out: &mut Vec<(SimTime, u64, Action)>) {
        let n = self.inbox.iter().take_while(|&&(at, _, _)| at <= now).count();
        self.counts.applied += n as u64;
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

    fn take_due(a: &mut Agent, now: SimTime) -> Vec<(SimTime, u64, Action)> {
        let mut due = Vec::new();
        a.take_due_into(now, &mut due);
        due
    }

    /// Nothing left in the inbox, due or not.
    fn drained(a: &Agent) -> bool {
        !a.has_due(t(1e9))
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
        a.deliver_directive(t(10.0), &dir(1, 0, Action::BackupWorkers { b: 1 }));
        a.deliver_directive(t(20.0), &dir(2, 0, Action::None));
        assert!(take_due(&mut a, t(5.0)).is_empty());
        let first = take_due(&mut a, t(10.0));
        assert_eq!(first.len(), 1);
        assert_eq!((first[0].0, &first[0].2), (t(10.0), &Action::BackupWorkers { b: 1 }));
        let second = take_due(&mut a, t(25.0));
        assert_eq!(second.len(), 1);
        assert_eq!((second[0].0, &second[0].2), (t(20.0), &Action::None));
        assert!(drained(&a));
    }

    #[test]
    fn delivery_order_is_preserved_within_a_boundary() {
        let mut a = Agent::new(NodeId::worker(1), AgentConfig::default());
        a.deliver_directive(t(1.0), &dir(1, 0, Action::BackupWorkers { b: 1 }));
        a.deliver_directive(t(2.0), &dir(2, 0, Action::BackupWorkers { b: 2 }));
        let due: Vec<(SimTime, Action)> =
            take_due(&mut a, t(3.0)).into_iter().map(|(at, _, x)| (at, x)).collect();
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
        let seqs: Vec<u64> = take_due(&mut a, t(5.0)).into_iter().map(|(_, s, _)| s).collect();
        assert_eq!(seqs, vec![3, 7, 9]);
    }

    #[test]
    fn duplicate_delivery_is_idempotent() {
        let mut a = Agent::new(NodeId::worker(0), AgentConfig::default());
        let d = dir(42, 0, Action::BackupWorkers { b: 1 });
        assert_eq!(a.deliver_directive(t(1.0), &d), DeliveryOutcome::Accepted);
        assert_eq!(a.deliver_directive(t(1.0), &d), DeliveryOutcome::Duplicate);
        assert_eq!(a.deliver_directive(t(2.0), &d), DeliveryOutcome::Duplicate);
        assert_eq!(take_due(&mut a, t(10.0)).len(), 1, "one application despite three deliveries");
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
        assert!(drained(&a));
        let fresh = dir(2, 1, Action::BackupWorkers { b: 2 });
        assert_eq!(a.deliver_directive(t(1.0), &fresh), DeliveryOutcome::Accepted);
    }

    #[test]
    fn reset_returns_wiped_seqs() {
        let mut a = Agent::new(NodeId::worker(0), AgentConfig::default());
        a.deliver_directive(t(1.0), &dir(5, 0, Action::None));
        a.deliver_directive(t(2.0), &dir(6, 0, Action::None));
        assert_eq!(a.reset(), vec![5, 6]);
        assert!(drained(&a));
    }

    #[test]
    fn counts_track_delivery_application_and_rejection() {
        let mut a = Agent::new(NodeId::worker(0), AgentConfig::default());
        let mut b = Agent::new(NodeId::worker(1), AgentConfig::default());
        let sum = |a: &Agent, b: &Agent| {
            let mut c = a.counts();
            c += b.counts();
            c
        };
        a.deliver_directive(t(1.0), &dir(10, 0, Action::None));
        b.deliver_directive(t(1.0), &dir(10, 0, Action::None));
        b.deliver_directive(t(9.0), &dir(11, 0, Action::None));
        assert_eq!(sum(&a, &b).delivered, 3);
        take_due(&mut a, t(2.0));
        take_due(&mut b, t(2.0));
        assert_eq!(sum(&a, &b).applied, 2, "the t=9 delivery is not yet due");
        let d = dir(1, 0, Action::None);
        a.deliver_directive(t(3.0), &d);
        a.deliver_directive(t(3.0), &d);
        assert_eq!(sum(&a, &b).deduped, 1);
        a.reset();
        a.deliver_directive(t(4.0), &dir(2, 0, Action::None));
        assert_eq!(sum(&a, &b).rejected, 1, "the count survives the reset");
    }

    #[test]
    fn reset_clears_everything() {
        let mut a = Agent::new(NodeId::worker(0), AgentConfig { report_every_iters: 2 });
        a.on_iteration();
        a.deliver_directive(t(1.0), &dir(1, 0, Action::None));
        a.reset();
        assert!(drained(&a));
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
                        assert_eq!(
                            due,
                            !take_due(&mut a, now).is_empty(),
                            "seed {seed} step {step}"
                        );
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
            let applied: Vec<(u32, u64)> = take_due(&mut a, t(1e9))
                .into_iter()
                .map(|(at, seq, _)| (at.as_micros() as u32 / 1_000_000, seq))
                .collect();
            // Each unique seq applied exactly once, in (at, seq) order.
            assert_eq!(applied, expected, "seed {seed}");
            assert!(drained(&a), "seed {seed}");
        }
    }
}
