//! The Stateful Dynamic Data Sharding service proper: the thread-safe
//! facade over the crate-private `queue_state::QueueState` (the global shard
//! queue plus the per-shard state table), layering on outage pausing,
//! consumption statistics and telemetry counters.
//!
//! The queue flows *across* epochs: when it runs dry and more epochs remain,
//! the next epoch's (re-shuffled) shards are appended immediately. Leader
//! workers therefore start epoch `e+1` while stragglers finish epoch `e` —
//! there is no epoch barrier, only the final completion condition that every
//! epoch's every shard reached `DONE`.

use crate::queue_state::QueueState;
use crate::shard::{Shard, WorkerId};
use crate::stats::{ConsumptionStats, IntegrityAudit};
pub use crate::types::{DdsConfig, DdsCounters, DdsError, ResizeRecord, ShardLease};
use antdt_telemetry::lock;
use std::sync::{Mutex, MutexGuard, PoisonError};

#[derive(Debug, Clone)]
struct Inner {
    q: QueueState,
    stats: ConsumptionStats,
    /// Chaos-drill outage switch: while set, `fetch` serves nothing (the
    /// service is unreachable) and callers fall back to their retry loop.
    paused: bool,
    /// Fetches rejected because of an outage (drill diagnostics).
    paused_fetch_rejections: u64,
    counters: Option<DdsCounters>,
}

impl Inner {
    fn fetch(&mut self, worker: WorkerId) -> Option<ShardLease> {
        if self.paused {
            self.paused_fetch_rejections += 1;
            if let Some(c) = &self.counters {
                c.fetch_empty.inc();
            }
            return None;
        }
        let Some(lease) = self.q.take_next(worker) else {
            if let Some(c) = &self.counters {
                c.fetch_empty.inc();
            }
            return None;
        };
        if let Some(c) = &self.counters {
            c.fetch_served.inc();
        }
        let w = self.stats.worker(worker);
        w.shards_fetched += 1;
        w.samples_fetched += lease.shard.len;
        Some(lease)
    }

    fn is_complete(&self) -> bool {
        self.q.done_total() == self.q.cfg.expected_done_shards()
    }
}

/// The thread-safe sharding service. Share it via `Arc`.
#[derive(Debug)]
pub struct DdsService {
    inner: Mutex<Inner>,
}

/// Cloning snapshots the full queue state behind a fresh lock — the basis
/// for forking an in-flight simulation. Telemetry counters, if attached,
/// stay shared with the original (they are `Arc`-backed).
impl Clone for DdsService {
    fn clone(&self) -> Self {
        DdsService { inner: Mutex::new(self.state().clone()) }
    }
}

impl DdsService {
    pub fn new(cfg: DdsConfig) -> Self {
        DdsService {
            inner: Mutex::new(Inner {
                q: QueueState::new(cfg),
                stats: ConsumptionStats::default(),
                paused: false,
                paused_fetch_rejections: 0,
                counters: None,
            }),
        }
    }

    /// Lock the state. A poisoned lock is recovered rather than propagated,
    /// so one panicking caller does not turn every later call into a panic.
    fn state(&self) -> MutexGuard<'_, Inner> {
        lock(&self.inner)
    }

    /// The state through exclusive access: an owner holding `&mut self`
    /// (the simulator's kernel) needs no lock.
    fn state_mut(&mut self) -> &mut Inner {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }

    pub fn config(&self) -> DdsConfig {
        self.state().q.cfg
    }

    /// Attach telemetry counters; subsequent operations update them.
    pub fn attach_telemetry(&self, counters: DdsCounters) {
        self.state().counters = Some(counters);
    }

    /// Estimated heap footprint of the service's current state in bytes —
    /// what a [`Clone`] of this service would allocate. Sizing input for
    /// simulation snapshot caches that must budget before capturing.
    pub fn estimate_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.state().q.estimate_bytes()
    }

    /// Fetch the next `TODO` shard for `worker`, marking it `DOING`.
    ///
    /// Returns `None` when nothing is currently assignable: either the job is
    /// complete, or every remaining shard is `DOING` elsewhere (the caller
    /// should retry after a failure or completion event). When the current
    /// epoch's queue drains, the next epoch's re-shuffled shards are appended
    /// immediately — leaders flow into the next epoch without a barrier.
    pub fn fetch(&self, worker: WorkerId) -> Option<ShardLease> {
        self.state().fetch(worker)
    }

    /// [`DdsService::fetch`] through exclusive access, without locking.
    pub fn fetch_mut(&mut self, worker: WorkerId) -> Option<ShardLease> {
        self.state_mut().fetch(worker)
    }

    /// Mark a leased shard `DONE` (the worker's gradients reached the servers).
    pub fn report_done(&self, worker: WorkerId, lease: ShardLease) -> Result<(), DdsError> {
        let mut g = self.state();
        g.q.finish(worker, lease)?;
        if let Some(c) = &g.counters {
            c.done.inc();
        }
        let w = g.stats.worker(worker);
        w.shards_done += 1;
        w.samples_done += lease.shard.len;
        Ok(())
    }

    /// Requeue one leased shard (e.g. a push that was dropped by the backup-
    /// workers action): `DOING → TODO`, reinserted at the queue tail.
    pub fn report_failed(&self, worker: WorkerId, lease: ShardLease) -> Result<(), DdsError> {
        let mut g = self.state();
        g.q.requeue(worker, lease)?;
        g.stats.requeued_shards += 1;
        g.stats.requeued_samples += lease.shard.len;
        if let Some(c) = &g.counters {
            c.requeued.inc();
        }
        Ok(())
    }

    /// A worker terminated (crash or `KILL_RESTART`): every shard it was DOING
    /// goes back to `TODO` at the queue tail. Returns the requeued shards.
    pub fn fail_worker(&self, worker: WorkerId) -> Vec<Shard> {
        let mut g = self.state();
        let out = g.q.requeue_worker(worker);
        for shard in &out {
            g.stats.requeued_shards += 1;
            g.stats.requeued_samples += shard.len;
        }
        if let Some(c) = &g.counters {
            c.requeued.add(out.len() as u64);
        }
        out
    }

    /// Export the queue for a checkpoint: enqueued epochs, DONE count, the
    /// pending queue and the per-slot state table (0=TODO 1=DOING 2=DONE),
    /// in the `antdt-ckpt` snapshot shape.
    pub fn export_ckpt(&self) -> antdt_ckpt::DdsSnapshot {
        self.state().q.export()
    }

    /// Rewind to a checkpoint: every slot DONE *now* but not DONE in the
    /// snapshot goes back to `TODO` at the queue tail (ascending slot order,
    /// deterministic) — that work post-dates the snapshot and must replay.
    /// Live `DOING` leases are deliberately left untouched: surviving
    /// workers' in-flight computes commit normally, and a slot that replays
    /// *and* commits shows up in the at-most-once audit via its serve count,
    /// exactly like any other requeue. Returns `(requeued shards, requeued
    /// samples)`.
    pub fn rewind_ckpt(&self, snap: &antdt_ckpt::DdsSnapshot) -> (u64, u64) {
        let mut g = self.state();
        let (shards_requeued, samples_requeued) = g.q.rewind(snap);
        g.stats.requeued_shards += shards_requeued;
        g.stats.requeued_samples += samples_requeued;
        if let Some(c) = &g.counters {
            c.requeued.add(shards_requeued);
        }
        (shards_requeued, samples_requeued)
    }

    /// Chaos-drill outage control: while paused, `fetch` serves nothing (as if
    /// the service were unreachable). Completion/failure reports still land —
    /// the client library buffers them, so no integrity state is lost.
    pub fn set_paused(&self, paused: bool) {
        self.state().paused = paused;
    }

    pub fn is_paused(&self) -> bool {
        self.state().paused
    }

    /// Fetches rejected while the service was paused (drill diagnostics).
    pub fn paused_fetch_rejections(&self) -> u64 {
        self.state().paused_fetch_rejections
    }

    /// Whether every epoch's every shard has reached `DONE`.
    pub fn is_complete(&self) -> bool {
        self.state().is_complete()
    }

    /// [`DdsService::is_complete`] through exclusive access, without locking.
    pub fn is_complete_mut(&mut self) -> bool {
        self.state_mut().is_complete()
    }

    /// `(done shards so far, expected total)`.
    pub fn progress(&self) -> (u64, u64) {
        let g = self.state();
        (g.q.done_total(), g.q.cfg.expected_done_shards())
    }

    /// Number of epochs whose shards have entered the queue so far.
    pub fn epochs_started(&self) -> u32 {
        self.state().q.epochs_enqueued()
    }

    /// Snapshot of consumption statistics.
    pub fn consumption(&self) -> ConsumptionStats {
        self.state().stats.clone()
    }

    /// Sample order for a lease (delegates to the shard shuffler).
    pub fn sample_order(&self, lease: &ShardLease) -> Vec<u64> {
        self.state().q.sample_order(lease)
    }

    /// Arm the consistent-hash placement ring with the given initial members.
    /// Until armed (the default), the service is strictly FIFO and its serve
    /// order is byte-identical to the pre-elastic implementation.
    pub fn arm_ring(&self, vnodes: u32, members: impl IntoIterator<Item = WorkerId>) {
        self.state().q.arm_ring(vnodes, members);
    }

    pub fn ring_armed(&self) -> bool {
        self.state().q.ring_armed()
    }

    /// Current ring membership (empty when the ring is unarmed).
    pub fn ring_members(&self) -> Vec<WorkerId> {
        self.state().q.ring_members()
    }

    /// A worker joined: add it to the armed ring and record how many queued
    /// slots re-homed onto it. No-op (returning `None`) when the ring is
    /// unarmed or the member already present.
    pub fn ring_join(&self, member: WorkerId) -> Option<ResizeRecord> {
        self.state().q.resize(member, true)
    }

    /// A worker departed for good: drop it from the armed ring and record the
    /// movement. The caller is responsible for rolling back its DOING leases
    /// via [`DdsService::fail_worker`] — departure and lease recovery are the
    /// same machinery a kill uses.
    pub fn ring_leave(&self, member: WorkerId) -> Option<ResizeRecord> {
        self.state().q.resize(member, false)
    }

    /// Every resize applied to the ring so far, in order.
    pub fn resize_log(&self) -> Vec<ResizeRecord> {
        self.state().q.resize_log().to_vec()
    }

    /// Distinct owners of currently-DOING slots, sorted. The chaos
    /// `membership-consistent` invariant checks no departed worker appears.
    pub fn doing_owners(&self) -> Vec<WorkerId> {
        self.state().q.doing_owners()
    }

    /// The integrity audit (§VII-D2).
    pub fn audit(&self) -> IntegrityAudit {
        let g = self.state();
        let expected = g.q.cfg.expected_done_shards();
        let done = g.q.done_total();
        IntegrityAudit {
            expected_done_shards: expected,
            done_shards: done,
            outstanding_shards: expected - done,
            requeued_shards: g.stats.requeued_shards,
            duplicate_samples_upper_bound: g.stats.requeued_samples,
            at_least_once: done == expected,
            at_most_once: !g.q.ever_double_served(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::ShardId;

    fn svc(n: u64, b: u64, m: u64, epochs: u32) -> DdsService {
        DdsService::new(DdsConfig::new(n, b).with_batches_per_shard(m).with_epochs(epochs))
    }

    #[test]
    fn k_matches_paper_formula() {
        // With the local batch 4096 and M = 100: K = ceil(45e6 / 409600) = 110.
        let cfg = DdsConfig::new(45_000_000, 4_096).with_batches_per_shard(100);
        assert_eq!(cfg.shards_per_epoch(), 110);
    }

    /// The lock-free `_mut` accessors serve what the locking ones serve:
    /// the same leases, the same completion answers, the same statistics.
    #[test]
    fn mut_accessors_match_the_locking_ones() {
        let locked = svc(1_000, 10, 3, 2);
        let mut owned = locked.clone();
        let mut served = 0;
        for step in 0u32..200 {
            let w = step % 3;
            let lease = locked.fetch(w);
            assert_eq!(owned.fetch_mut(w), lease, "step {step}");
            assert_eq!(owned.is_complete_mut(), locked.is_complete(), "step {step}");
            // Two of three workers finish their shard; the third sits on it.
            if let Some(l) = lease.filter(|_| w != 2) {
                locked.report_done(w, l).unwrap();
                owned.report_done(w, l).unwrap();
                served += 1;
            }
        }
        assert!(served > 10 && !locked.is_complete());
        assert_eq!(owned.consumption(), locked.consumption());
    }

    #[test]
    fn normal_lifecycle_todo_doing_done() {
        let s = svc(1000, 10, 10, 1); // 10 shards of 100
        let mut done = 0;
        while let Some(lease) = s.fetch(0) {
            assert_eq!(lease.epoch, 0);
            s.report_done(0, lease).unwrap();
            done += 1;
        }
        assert_eq!(done, 10);
        assert!(s.is_complete());
        let a = s.audit();
        assert!(a.at_least_once);
        assert!(a.at_most_once);
        assert_eq!(a.done_shards, 10);
        assert_eq!(a.outstanding_shards, 0);
    }

    #[test]
    fn doing_shard_is_not_reassigned() {
        let s = svc(200, 10, 10, 1); // 2 shards
        let l0 = s.fetch(0).unwrap();
        let l1 = s.fetch(1).unwrap();
        assert_ne!(l0.shard.id, l1.shard.id);
        assert!(s.fetch(2).is_none(), "both shards are DOING");
        s.report_done(0, l0).unwrap();
        s.report_done(1, l1).unwrap();
        assert!(s.is_complete());
    }

    #[test]
    fn paused_service_serves_nothing_then_recovers() {
        let s = svc(200, 10, 10, 1); // 2 shards
        s.set_paused(true);
        assert!(s.fetch(0).is_none(), "outage: fetch must serve nothing");
        assert!(s.fetch(1).is_none());
        assert_eq!(s.paused_fetch_rejections(), 2);
        s.set_paused(false);
        // Reports during the outage would have been buffered; after the lift
        // the full epoch is still served exactly once.
        let mut served = 0;
        while let Some(l) = s.fetch(0) {
            s.report_done(0, l).unwrap();
            served += 1;
        }
        assert_eq!(served, 2);
        assert!(s.is_complete());
        assert!(s.audit().at_most_once);
    }

    #[test]
    fn fail_worker_requeues_at_tail() {
        let s = svc(300, 10, 10, 1); // 3 shards
        let dead = s.fetch(0).unwrap();
        let requeued = s.fail_worker(0);
        assert_eq!(requeued, vec![dead.shard]);
        // Worker 1 drains: the requeued shard must come back *last*.
        let mut order = Vec::new();
        while let Some(l) = s.fetch(1) {
            order.push(l.shard.id);
            s.report_done(1, l).unwrap();
        }
        assert_eq!(order.len(), 3);
        assert_eq!(*order.last().unwrap(), dead.shard.id);
        let a = s.audit();
        assert!(a.at_least_once);
        assert!(!a.at_most_once, "a shard was served twice");
        assert_eq!(a.requeued_shards, 1);
    }

    #[test]
    fn report_done_requires_lease() {
        let s = svc(100, 10, 10, 1);
        let l = s.fetch(0).unwrap();
        assert!(matches!(s.report_done(1, l), Err(DdsError::NotLeased { .. })));
        s.report_done(0, l).unwrap();
        // Double-done is rejected.
        assert!(s.report_done(0, l).is_err());
    }

    #[test]
    fn epochs_flow_without_a_barrier() {
        // 4 shards x 2 epochs. A straggler holds an epoch-0 shard while a
        // leader drains the rest — the leader must receive epoch-1 shards
        // immediately, not wait for the straggler.
        let s = svc(400, 10, 10, 2);
        let straggler = s.fetch(9).unwrap();
        assert_eq!(straggler.epoch, 0);
        let mut leader_epochs = Vec::new();
        let mut held = Vec::new();
        for _ in 0..4 {
            let l = s.fetch(1).unwrap();
            leader_epochs.push(l.epoch);
            held.push(l);
        }
        assert_eq!(leader_epochs, vec![0, 0, 0, 1], "leader crossed into epoch 1");
        for l in held {
            s.report_done(1, l).unwrap();
        }
        // Straggler finishes its epoch-0 shard late: still accepted.
        s.report_done(9, straggler).unwrap();
        // Remaining epoch-1 shards.
        while let Some(l) = s.fetch(1) {
            assert_eq!(l.epoch, 1);
            s.report_done(1, l).unwrap();
        }
        assert!(s.is_complete());
        assert_eq!(s.progress(), (8, 8));
        assert_eq!(s.epochs_started(), 2);
    }

    #[test]
    fn epochs_reshuffle() {
        let s = svc(1600, 10, 10, 2); // 16 shards x 2 epochs
        let mut orders: Vec<Vec<ShardId>> = vec![Vec::new(), Vec::new()];
        while let Some(l) = s.fetch(0) {
            orders[l.epoch as usize].push(l.shard.id);
            s.report_done(0, l).unwrap();
        }
        assert!(s.is_complete());
        assert_eq!(orders[0].len(), 16);
        assert_ne!(orders[0], orders[1], "epochs reshuffle");
    }

    #[test]
    fn report_failed_requeues_single_shard() {
        let s = svc(200, 10, 10, 1);
        let l = s.fetch(0).unwrap();
        s.report_failed(0, l).unwrap();
        // Same worker can pick it up again later.
        let mut got = 0;
        while let Some(l) = s.fetch(0) {
            s.report_done(0, l).unwrap();
            got += 1;
        }
        assert_eq!(got, 2);
        assert!(s.is_complete());
    }

    #[test]
    fn consumption_tracks_per_worker() {
        let s = svc(1000, 10, 10, 1); // 10 shards of 100
                                      // Worker 0 takes 7 shards, worker 1 takes 3.
        for i in 0..10 {
            let w = if i < 7 { 0 } else { 1 };
            let l = s.fetch(w).unwrap();
            s.report_done(w, l).unwrap();
        }
        let c = s.consumption();
        assert_eq!(c.per_worker[&0].shards_done, 7);
        assert_eq!(c.per_worker[&0].samples_done, 700);
        assert_eq!(c.per_worker[&1].shards_done, 3);
        assert_eq!(c.total_samples_done(), 1000);
    }

    #[test]
    fn attached_counters_track_transitions() {
        let s = svc(300, 10, 10, 1); // 3 shards
        let c = DdsCounters::default();
        s.attach_telemetry(c.clone());
        let l = s.fetch(0).unwrap();
        s.report_failed(0, l).unwrap();
        let l = s.fetch(0).unwrap();
        s.report_done(0, l).unwrap();
        let held = s.fetch(1).unwrap();
        s.fail_worker(1);
        let _ = held;
        while let Some(l) = s.fetch(2) {
            s.report_done(2, l).unwrap();
        }
        assert!(s.is_complete());
        assert_eq!(c.done.get(), 3);
        assert_eq!(c.requeued.get(), 2);
        assert_eq!(c.fetch_served.get(), 3 + 2); // 3 DONE serves + 2 requeue-causing serves
        assert_eq!(c.fetch_empty.get(), 1); // the drained final fetch
    }

    #[test]
    fn empty_dataset_serves_nothing() {
        let s = svc(0, 10, 10, 1);
        assert!(s.fetch(0).is_none());
        assert_eq!(s.progress(), (0, 0));
        assert!(s.is_complete());
    }

    #[test]
    fn audit_counts_unfinished_epochs() {
        let s = svc(400, 10, 10, 3); // 4 shards x 3 epochs
        let l = s.fetch(0).unwrap();
        s.report_done(0, l).unwrap();
        let a = s.audit();
        assert_eq!(a.expected_done_shards, 12);
        assert_eq!(a.done_shards, 1);
        assert_eq!(a.outstanding_shards, 11);
        assert!(!a.at_least_once);
    }

    #[test]
    fn export_ckpt_freezes_queue_and_states() {
        let s = svc(400, 10, 10, 1); // 4 shards
        let doing = s.fetch(0).unwrap();
        let done = s.fetch(1).unwrap();
        s.report_done(1, done).unwrap();
        let snap = s.export_ckpt();
        assert_eq!(snap.epochs_enqueued, 1);
        assert_eq!(snap.done_total, 1);
        assert_eq!(snap.queue.len(), 2);
        assert_eq!(snap.state.iter().filter(|&&b| b == 1).count(), 1);
        assert_eq!(snap.state.iter().filter(|&&b| b == 2).count(), 1);
        let _ = doing;
    }

    #[test]
    fn rewind_ckpt_requeues_post_snapshot_done_work() {
        let s = svc(400, 10, 10, 1); // 4 shards of 100
        let early = s.fetch(0).unwrap();
        s.report_done(0, early).unwrap();
        let snap = s.export_ckpt(); // 1 DONE at snapshot time
        let live = s.fetch(1).unwrap(); // DOING across the rewind
        let late = s.fetch(0).unwrap();
        s.report_done(0, late).unwrap(); // DONE after the snapshot
        let (shards, samples) = s.rewind_ckpt(&snap);
        assert_eq!((shards, samples), (1, 100), "only the post-snapshot DONE replays");
        assert_eq!(s.progress().0, 1);
        // The live lease survived the rewind and commits normally.
        s.report_done(1, live).unwrap();
        while let Some(l) = s.fetch(2) {
            s.report_done(2, l).unwrap();
        }
        assert!(s.is_complete());
        let a = s.audit();
        assert!(a.at_least_once);
        assert!(!a.at_most_once, "the replayed shard was served twice");
        assert_eq!(a.requeued_shards, 1);
    }

    #[test]
    fn rewind_to_empty_snapshot_replays_everything_done() {
        let s = svc(300, 10, 10, 1); // 3 shards
        for _ in 0..2 {
            let l = s.fetch(0).unwrap();
            s.report_done(0, l).unwrap();
        }
        // No checkpoint was ever durable: the empty snapshot rewinds all DONEs.
        let (shards, _) = s.rewind_ckpt(&antdt_ckpt::DdsSnapshot::default());
        assert_eq!(shards, 2);
        assert_eq!(s.progress().0, 0);
        while let Some(l) = s.fetch(1) {
            s.report_done(1, l).unwrap();
        }
        assert!(s.is_complete());
    }

    #[test]
    fn unarmed_ring_keeps_fifo_service_order() {
        // Two identically-configured services, one never touched by ring
        // APIs: serve order must match slot for slot.
        let a = svc(1000, 10, 10, 1);
        let b = svc(1000, 10, 10, 1);
        assert!(!a.ring_armed());
        loop {
            let (la, lb) = (a.fetch(0), b.fetch(0));
            assert_eq!(la, lb);
            match la {
                Some(l) => {
                    a.report_done(0, l).unwrap();
                    b.report_done(0, l).unwrap();
                }
                None => break,
            }
        }
        assert!(a.is_complete());
    }

    #[test]
    fn armed_ring_prefers_owned_slots_but_conserves_work() {
        let s = svc(1000, 10, 10, 1); // 10 shards
        s.arm_ring(64, [0, 1]);
        assert_eq!(s.ring_members(), vec![0, 1]);
        // Worker 0 alone drains everything: its own slots first, then the
        // fallback serves worker 1's (work conservation).
        let mut served = 0;
        while let Some(l) = s.fetch(0) {
            s.report_done(0, l).unwrap();
            served += 1;
        }
        assert_eq!(served, 10);
        assert!(s.is_complete());
        assert!(s.audit().at_most_once);
    }

    #[test]
    fn ring_join_and_leave_log_movement() {
        let s = svc(2000, 10, 10, 1); // 20 shards
        s.arm_ring(64, [0, 1, 2]);
        let join = s.ring_join(3).expect("new member");
        assert!(join.joined);
        assert_eq!(join.queued_slots, 20);
        assert!(join.moved_slots <= 20);
        // Idempotent: joining again is a no-op.
        assert!(s.ring_join(3).is_none());
        let leave = s.ring_leave(1).expect("present member");
        assert!(!leave.joined);
        assert!(s.ring_leave(1).is_none());
        assert_eq!(s.ring_members(), vec![0, 2, 3]);
        assert_eq!(s.resize_log().len(), 2);
        // Unarmed service: resize APIs are inert.
        let plain = svc(100, 10, 10, 1);
        assert!(plain.ring_join(0).is_none());
        assert!(plain.resize_log().is_empty());
    }

    #[test]
    fn departed_worker_leaves_no_doing_slots_behind() {
        let s = svc(500, 10, 10, 1); // 5 shards
        s.arm_ring(64, [0, 1]);
        let _held = s.fetch(1).unwrap();
        assert_eq!(s.doing_owners(), vec![1]);
        // Depart worker 1: ring removal + lease rollback.
        s.ring_leave(1);
        s.fail_worker(1);
        assert!(s.doing_owners().is_empty());
        while let Some(l) = s.fetch(0) {
            s.report_done(0, l).unwrap();
        }
        assert!(s.is_complete());
        assert!(s.audit().at_least_once);
    }

    #[test]
    fn cross_epoch_failure_requeues_the_right_epoch_slot() {
        let s = svc(200, 10, 10, 2); // 2 shards x 2 epochs
                                     // Drain epoch 0 fully with worker 0, start epoch 1 with worker 1.
        let a = s.fetch(0).unwrap();
        let b = s.fetch(0).unwrap();
        s.report_done(0, a).unwrap();
        s.report_done(0, b).unwrap();
        let e1 = s.fetch(1).unwrap();
        assert_eq!(e1.epoch, 1);
        s.fail_worker(1);
        // The requeued slot must come back as an epoch-1 lease.
        let again = s.fetch(2).unwrap();
        let last = s.fetch(2).unwrap();
        assert_eq!(again.epoch, 1);
        assert_eq!(last.epoch, 1);
        s.report_done(2, again).unwrap();
        s.report_done(2, last).unwrap();
        assert!(s.is_complete());
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use antdt_sim::rng::StdRng;

    /// Random interleaving of fetch / done / fail across workers must always
    /// end with every shard DONE exactly `epochs` times and at-least-once
    /// holding. 64 seeded cases.
    #[test]
    fn at_least_once_under_random_failures() {
        for case in 0..64 {
            let mut rng = StdRng::seed_from_u64(case);
            let n = rng.gen_range(1u64..2_000);
            let epochs = rng.gen_range(1u32..3);
            let cfg = DdsConfig {
                total_samples: n,
                global_batch: 1,
                batches_per_shard: rng.gen_range(1u64..200),
                epochs,
                shuffle_seed: Some(rng.gen_range(0..u64::MAX)),
            };
            let s = DdsService::new(cfg);
            let mut held: Vec<Vec<ShardLease>> = vec![Vec::new(); 4];

            for _ in 0..rng.gen_range(0..400u32) {
                let (op, w) = (rng.gen_range(0u32..10), rng.gen_range(0..4usize));
                match op {
                    0..=4 => {
                        if let Some(l) = s.fetch(w as WorkerId) {
                            held[w].push(l);
                        }
                    }
                    5..=7 => {
                        if let Some(l) = held[w].pop() {
                            s.report_done(w as WorkerId, l).unwrap();
                        }
                    }
                    _ => {
                        s.fail_worker(w as WorkerId);
                        held[w].clear();
                    }
                }
            }
            // Drain: leases held by a non-owner are rejected, then a survivor
            // finishes the job.
            for leases in held.iter_mut() {
                for l in leases.drain(..) {
                    let _ = s.report_done(9, l);
                }
            }
            for w in 0..4u32 {
                s.fail_worker(w);
            }
            while let Some(l) = s.fetch(0) {
                s.report_done(0, l).unwrap();
            }
            assert!(s.is_complete(), "case {case}");
            let a = s.audit();
            assert!(a.at_least_once, "case {case}");
            assert_eq!(a.done_shards, a.expected_done_shards, "case {case}");
            assert_eq!(a.outstanding_shards, 0, "case {case}");
            // Every sample accounted for at least once per epoch.
            let c = s.consumption();
            assert!(c.total_samples_done() >= n * epochs as u64, "case {case}");
        }
    }
}
