//! The sharding service's queue state: the cross-epoch shard queue, the
//! per-slot state table (`TODO`/`DOING`/`DONE` + owner + serve counts).
//!
//! This is pure, single-threaded state with the legal transitions as
//! methods; [`crate::service::DdsService`] layers on what is *not* queue
//! state — outage pausing, consumption statistics and transition counts.

use crate::shard::{plan_shards, Shard, ShardState, WorkerId};
use crate::shuffle::ShardShuffler;
use crate::types::{DdsConfig, DdsError, ShardLease};
use std::collections::VecDeque;

/// Queue + state table for every shard of every enqueued epoch. Slots are
/// global ids: `epoch * K + shard_id`.
#[derive(Debug, Clone)]
pub(crate) struct QueueState {
    pub(crate) cfg: DdsConfig,
    shuffler: ShardShuffler,
    /// Per-epoch shard geometry (identical every epoch).
    shards: Vec<Shard>,
    /// Epochs whose shards have been appended to the queue so far.
    epochs_enqueued: u32,
    queue: VecDeque<u64>,
    state: Vec<ShardState>,
    owner: Vec<Option<WorkerId>>,
    /// Serve counts per slot (>1 means a requeue happened — at-most-once audit).
    serves: Vec<u32>,
    done_total: u64,
    ever_double_served: bool,
}

impl QueueState {
    pub(crate) fn new(cfg: DdsConfig) -> Self {
        let shards = plan_shards(cfg.total_samples, cfg.samples_per_shard());
        let shuffler = match cfg.shuffle_seed {
            Some(s) => ShardShuffler::new(s),
            None => ShardShuffler::disabled(),
        };
        let mut q = QueueState {
            cfg,
            shuffler,
            shards,
            epochs_enqueued: 0,
            queue: VecDeque::new(),
            state: Vec::new(),
            owner: Vec::new(),
            serves: Vec::new(),
            done_total: 0,
            ever_double_served: false,
        };
        q.refill();
        q
    }

    /// Estimated heap footprint in bytes: the struct plus every owned
    /// buffer's capacity at its element size. Sizing input for simulation
    /// snapshot caches, which clone exactly this state when they fork.
    pub(crate) fn estimate_bytes(&self) -> usize {
        use std::mem::size_of;
        size_of::<Self>()
            + self.shards.capacity() * size_of::<Shard>()
            + self.queue.capacity() * size_of::<u64>()
            + self.state.capacity() * size_of::<ShardState>()
            + self.owner.capacity() * size_of::<Option<WorkerId>>()
            + self.serves.capacity() * size_of::<u32>()
    }

    pub(crate) fn k(&self) -> usize {
        self.shards.len()
    }

    pub(crate) fn done_total(&self) -> u64 {
        self.done_total
    }

    pub(crate) fn ever_double_served(&self) -> bool {
        self.ever_double_served
    }

    /// Append the next epoch's shards when the queue is dry.
    fn refill(&mut self) {
        if !self.queue.is_empty() || self.epochs_enqueued >= self.cfg.epochs || self.k() == 0 {
            return;
        }
        let e = self.epochs_enqueued;
        let base = e as u64 * self.k() as u64;
        for id in self.shuffler.epoch_order(e, self.k()) {
            self.queue.push_back(base + id as u64);
        }
        let new_len = self.state.len() + self.k();
        self.state.resize(new_len, ShardState::Todo);
        self.owner.resize(new_len, None);
        self.serves.resize(new_len, 0);
        self.epochs_enqueued = e + 1;
    }

    fn slot(&self, lease: &ShardLease) -> usize {
        lease.epoch as usize * self.k() + lease.shard.id as usize
    }

    fn lease_for(&self, slot: u64) -> ShardLease {
        let k = self.k() as u64;
        ShardLease { shard: self.shards[(slot % k) as usize], epoch: (slot / k) as u32 }
    }

    /// Serve the queue's front `TODO` slot to `worker` (`TODO → DOING`),
    /// refilling from the next epoch when the queue is dry.
    pub(crate) fn take_next(&mut self, worker: WorkerId) -> Option<ShardLease> {
        self.refill();
        let slot = self.queue.pop_front()?;
        debug_assert_eq!(self.state[slot as usize], ShardState::Todo);
        self.state[slot as usize] = ShardState::Doing;
        self.owner[slot as usize] = Some(worker);
        self.serves[slot as usize] += 1;
        if self.serves[slot as usize] > 1 {
            self.ever_double_served = true;
        }
        Some(self.lease_for(slot))
    }

    /// `DOING → DONE` for a lease held by `worker`.
    pub(crate) fn finish(&mut self, worker: WorkerId, lease: ShardLease) -> Result<(), DdsError> {
        let slot = self.slot(&lease);
        if self.state.get(slot).copied() != Some(ShardState::Doing)
            || self.owner[slot] != Some(worker)
        {
            return Err(DdsError::NotLeased { shard: lease.shard.id, worker });
        }
        self.state[slot] = ShardState::Done;
        self.owner[slot] = None;
        self.done_total += 1;
        Ok(())
    }

    /// Requeue every slot `worker` was DOING (crash / `KILL_RESTART`),
    /// returning the requeued shards in ascending slot order.
    pub(crate) fn requeue_worker(&mut self, worker: WorkerId) -> Vec<Shard> {
        let slots: Vec<usize> = (0..self.state.len())
            .filter(|&i| self.state[i] == ShardState::Doing && self.owner[i] == Some(worker))
            .collect();
        let mut out = Vec::with_capacity(slots.len());
        let k = self.k();
        for i in slots {
            self.state[i] = ShardState::Todo;
            self.owner[i] = None;
            self.queue.push_back(i as u64);
            out.push(self.shards[i % k]);
        }
        out
    }

    /// Freeze the queue for a checkpoint (the `antdt-ckpt` snapshot shape).
    pub(crate) fn export(&self) -> antdt_ckpt::DdsSnapshot {
        antdt_ckpt::DdsSnapshot {
            epochs_enqueued: self.epochs_enqueued,
            done_total: self.done_total,
            queue: self.queue.iter().copied().collect(),
            state: self
                .state
                .iter()
                .map(|s| match s {
                    ShardState::Todo => 0,
                    ShardState::Doing => 1,
                    ShardState::Done => 2,
                })
                .collect(),
        }
    }

    /// Rewind to a checkpoint: every slot DONE *now* but not DONE in the
    /// snapshot goes back to `TODO` at the queue tail (ascending slot order,
    /// deterministic). Live `DOING` leases are deliberately left untouched.
    /// Returns `(requeued shards, requeued samples)`.
    pub(crate) fn rewind(&mut self, snap: &antdt_ckpt::DdsSnapshot) -> (u64, u64) {
        let k = self.k();
        let mut shards_requeued = 0u64;
        let mut samples_requeued = 0u64;
        for i in 0..self.state.len() {
            let done_in_snap = snap.state.get(i).copied() == Some(2);
            if self.state[i] == ShardState::Done && !done_in_snap {
                self.state[i] = ShardState::Todo;
                self.owner[i] = None;
                self.queue.push_back(i as u64);
                self.done_total -= 1;
                shards_requeued += 1;
                samples_requeued += self.shards[i % k].len;
            }
        }
        (shards_requeued, samples_requeued)
    }

    /// Sample order for a lease (delegates to the shard shuffler).
    pub(crate) fn sample_order(&self, lease: &ShardLease) -> Vec<u64> {
        self.shuffler.sample_order(lease.epoch, &lease.shard)
    }
}
