//! The Stateful Dynamic Data Sharding service proper: the facade over the
//! crate-private `queue_state::QueueState` (the global shard queue plus the
//! per-shard state table), layering on outage pausing, consumption
//! statistics and transition counts.
//!
//! The queue flows *across* epochs: when it runs dry and more epochs remain,
//! the next epoch's (re-shuffled) shards are appended immediately. Leader
//! workers therefore start epoch `e+1` while stragglers finish epoch `e` —
//! there is no epoch barrier, only the final completion condition that every
//! epoch's every shard reached `DONE`.

use crate::queue_state::QueueState;
use crate::shard::{Shard, WorkerId};
use crate::stats::{ConsumptionStats, IntegrityAudit};
pub use crate::types::{DdsConfig, DdsCounts, DdsError, ShardLease};

/// The sharding service: plain data owned by its caller (one simulated
/// job's kernel). Cloning copies the full queue state — the basis for
/// forking an in-flight simulation.
#[derive(Debug, Clone)]
pub struct DdsService {
    q: QueueState,
    stats: ConsumptionStats,
    /// Chaos-drill outage switch: while set, `fetch` serves nothing (the
    /// service is unreachable) and callers fall back to their retry loop.
    paused: bool,
    /// Fetches rejected because of an outage (drill diagnostics).
    paused_fetch_rejections: u64,
    counts: DdsCounts,
}

impl DdsService {
    pub fn new(cfg: DdsConfig) -> Self {
        DdsService {
            q: QueueState::new(cfg),
            stats: ConsumptionStats::default(),
            paused: false,
            paused_fetch_rejections: 0,
            counts: DdsCounts::default(),
        }
    }

    pub fn config(&self) -> DdsConfig {
        self.q.cfg
    }

    /// State-transition counts since construction (the telemetry source).
    pub fn counts(&self) -> DdsCounts {
        self.counts
    }

    /// Estimated heap footprint of the service's current state in bytes —
    /// what a [`Clone`] of this service would allocate. Sizing input for
    /// simulation snapshot caches that must budget before capturing.
    pub fn estimate_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.q.estimate_bytes()
    }

    /// Fetch the next `TODO` shard for `worker`, marking it `DOING`.
    ///
    /// Returns `None` when nothing is currently assignable: either the job is
    /// complete, or every remaining shard is `DOING` elsewhere (the caller
    /// should retry after a failure or completion event). When the current
    /// epoch's queue drains, the next epoch's re-shuffled shards are appended
    /// immediately — leaders flow into the next epoch without a barrier.
    pub fn fetch(&mut self, worker: WorkerId) -> Option<ShardLease> {
        if self.paused {
            self.paused_fetch_rejections += 1;
            self.counts.fetch_empty += 1;
            return None;
        }
        let Some(lease) = self.q.take_next(worker) else {
            self.counts.fetch_empty += 1;
            return None;
        };
        self.counts.fetch_served += 1;
        let w = self.stats.worker(worker);
        w.shards_fetched += 1;
        w.samples_fetched += lease.shard.len;
        Some(lease)
    }

    /// Mark a leased shard `DONE` (the worker's gradients reached the servers).
    pub fn report_done(&mut self, worker: WorkerId, lease: ShardLease) -> Result<(), DdsError> {
        self.q.finish(worker, lease)?;
        self.counts.done += 1;
        let w = self.stats.worker(worker);
        w.shards_done += 1;
        w.samples_done += lease.shard.len;
        Ok(())
    }

    /// Requeue one leased shard (e.g. a push that was dropped by the backup-
    /// workers action): `DOING → TODO`, reinserted at the queue tail.
    pub fn report_failed(&mut self, worker: WorkerId, lease: ShardLease) -> Result<(), DdsError> {
        self.q.requeue(worker, lease)?;
        self.stats.requeued_shards += 1;
        self.stats.requeued_samples += lease.shard.len;
        self.counts.requeued += 1;
        Ok(())
    }

    /// A worker terminated (crash or `KILL_RESTART`): every shard it was DOING
    /// goes back to `TODO` at the queue tail. Returns the requeued shards.
    pub fn fail_worker(&mut self, worker: WorkerId) -> Vec<Shard> {
        let out = self.q.requeue_worker(worker);
        for shard in &out {
            self.stats.requeued_shards += 1;
            self.stats.requeued_samples += shard.len;
        }
        self.counts.requeued += out.len() as u64;
        out
    }

    /// Export the queue for a checkpoint: enqueued epochs, DONE count, the
    /// pending queue and the per-slot state table (0=TODO 1=DOING 2=DONE),
    /// in the `antdt-ckpt` snapshot shape.
    pub fn export_ckpt(&self) -> antdt_ckpt::DdsSnapshot {
        self.q.export()
    }

    /// Rewind to a checkpoint: every slot DONE *now* but not DONE in the
    /// snapshot goes back to `TODO` at the queue tail (ascending slot order,
    /// deterministic) — that work post-dates the snapshot and must replay.
    /// Live `DOING` leases are deliberately left untouched: surviving
    /// workers' in-flight computes commit normally, and a slot that replays
    /// *and* commits shows up in the at-most-once audit via its serve count,
    /// exactly like any other requeue. Returns `(requeued shards, requeued
    /// samples)`.
    pub fn rewind_ckpt(&mut self, snap: &antdt_ckpt::DdsSnapshot) -> (u64, u64) {
        let (shards_requeued, samples_requeued) = self.q.rewind(snap);
        self.stats.requeued_shards += shards_requeued;
        self.stats.requeued_samples += samples_requeued;
        self.counts.requeued += shards_requeued;
        (shards_requeued, samples_requeued)
    }

    /// Chaos-drill outage control: while paused, `fetch` serves nothing (as if
    /// the service were unreachable). Completion/failure reports still land —
    /// the client library buffers them, so no integrity state is lost.
    pub fn set_paused(&mut self, paused: bool) {
        self.paused = paused;
    }

    /// Fetches rejected while the service was paused (drill diagnostics).
    pub fn paused_fetch_rejections(&self) -> u64 {
        self.paused_fetch_rejections
    }

    /// Whether every epoch's every shard has reached `DONE`.
    pub fn is_complete(&self) -> bool {
        self.q.done_total() == self.q.cfg.expected_done_shards()
    }

    /// `(done shards so far, expected total)`.
    pub fn progress(&self) -> (u64, u64) {
        (self.q.done_total(), self.q.cfg.expected_done_shards())
    }

    /// Snapshot of consumption statistics.
    pub fn consumption(&self) -> ConsumptionStats {
        self.stats.clone()
    }

    /// Samples worker `w` has completed so far (0 for a worker that never
    /// reported); what [`DdsService::consumption`] holds, without the clone.
    pub fn worker_samples_done(&self, w: WorkerId) -> u64 {
        self.stats.per_worker.get(&w).map_or(0, |c| c.samples_done)
    }

    /// Sample order for a lease (delegates to the shard shuffler).
    pub fn sample_order(&self, lease: &ShardLease) -> Vec<u64> {
        self.q.sample_order(lease)
    }

    /// The integrity audit (§VII-D2).
    pub fn audit(&self) -> IntegrityAudit {
        let expected = self.q.cfg.expected_done_shards();
        let done = self.q.done_total();
        IntegrityAudit {
            expected_done_shards: expected,
            done_shards: done,
            outstanding_shards: expected - done,
            requeued_shards: self.stats.requeued_shards,
            duplicate_samples_upper_bound: self.stats.requeued_samples,
            at_least_once: done == expected,
            at_most_once: !self.q.ever_double_served(),
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

    #[test]
    fn normal_lifecycle_todo_doing_done() {
        let mut s = svc(1000, 10, 10, 1); // 10 shards of 100
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
        let mut s = svc(200, 10, 10, 1); // 2 shards
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
        let mut s = svc(200, 10, 10, 1); // 2 shards
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
        let mut s = svc(300, 10, 10, 1); // 3 shards
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
        let mut s = svc(100, 10, 10, 1);
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
        let mut s = svc(400, 10, 10, 2);
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
    }

    #[test]
    fn epochs_reshuffle() {
        let mut s = svc(1600, 10, 10, 2); // 16 shards x 2 epochs
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
        let mut s = svc(200, 10, 10, 1);
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
        let mut s = svc(1000, 10, 10, 1); // 10 shards of 100
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
        assert_eq!(s.worker_samples_done(0), c.per_worker[&0].samples_done);
        assert_eq!(s.worker_samples_done(7), 0);
    }

    #[test]
    fn counts_track_transitions() {
        let mut s = svc(300, 10, 10, 1); // 3 shards
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
        let c = s.counts();
        assert_eq!(c.done, 3);
        assert_eq!(c.requeued, 2);
        assert_eq!(c.fetch_served, 3 + 2); // 3 DONE serves + 2 requeue-causing serves
        assert_eq!(c.fetch_empty, 1); // the drained final fetch
    }

    #[test]
    fn empty_dataset_serves_nothing() {
        let mut s = svc(0, 10, 10, 1);
        assert!(s.fetch(0).is_none());
        assert_eq!(s.progress(), (0, 0));
        assert!(s.is_complete());
    }

    #[test]
    fn audit_counts_unfinished_epochs() {
        let mut s = svc(400, 10, 10, 3); // 4 shards x 3 epochs
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
        let mut s = svc(400, 10, 10, 1); // 4 shards
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
        let mut s = svc(400, 10, 10, 1); // 4 shards of 100
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
        let mut s = svc(300, 10, 10, 1); // 3 shards
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
    fn cross_epoch_failure_requeues_the_right_epoch_slot() {
        let mut s = svc(200, 10, 10, 2); // 2 shards x 2 epochs
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
            let mut s = DdsService::new(cfg);
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
