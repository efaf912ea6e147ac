//! Configuration, lease and record types of the sharding service — the
//! surface callers construct and consume; the state machine itself lives in
//! [`crate::service`].

use crate::shard::{Shard, ShardId, WorkerId};

/// State-transition counts a [`crate::DdsService`] always keeps
/// ([`crate::DdsService::counts`]). The service's API is deliberately
/// clock-free, so it counts transitions itself and leaves timestamped
/// tracing to its callers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DdsCounts {
    /// `fetch` calls that handed out a lease.
    pub fetch_served: u64,
    /// `fetch` calls that served nothing (drained, all-DOING, or outage).
    pub fetch_empty: u64,
    /// Shards reported `DONE`.
    pub done: u64,
    /// Shards requeued `DOING → TODO` (explicit failure or worker death).
    pub requeued: u64,
}

/// Static configuration of the sharding service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DdsConfig {
    /// `N` — samples per epoch.
    pub total_samples: u64,
    /// `B` — the batch size used for shard sizing (the *local* batch in the
    /// paper's `K = ⌈N/(B·M)⌉` once divided over workers).
    pub global_batch: u64,
    /// `M` — batches per shard; the granularity hyper-parameter (default 100).
    /// `M = 1` is required for at-most-once semantics.
    pub batches_per_shard: u64,
    /// Number of passes over the data.
    pub epochs: u32,
    /// Seed for the shard shuffler; `None` disables shuffling.
    pub shuffle_seed: Option<u64>,
}

impl DdsConfig {
    pub fn new(total_samples: u64, global_batch: u64) -> Self {
        DdsConfig {
            total_samples,
            global_batch,
            batches_per_shard: 100,
            epochs: 1,
            shuffle_seed: Some(0),
        }
    }

    pub fn with_batches_per_shard(mut self, m: u64) -> Self {
        self.batches_per_shard = m;
        self
    }

    pub fn with_epochs(mut self, e: u32) -> Self {
        self.epochs = e;
        self
    }

    pub fn with_shuffle(mut self, seed: Option<u64>) -> Self {
        self.shuffle_seed = seed;
        self
    }

    /// Samples per shard, `B·M`.
    pub fn samples_per_shard(&self) -> u64 {
        self.global_batch.saturating_mul(self.batches_per_shard).max(1)
    }

    /// `K` — shards per epoch.
    pub fn shards_per_epoch(&self) -> u64 {
        self.total_samples.div_ceil(self.samples_per_shard())
    }

    /// Total DONE reports a complete job must produce.
    pub fn expected_done_shards(&self) -> u64 {
        self.shards_per_epoch() * self.epochs as u64
    }
}

/// A leased shard: what [`crate::DdsService::fetch`] hands to a worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardLease {
    pub shard: Shard,
    pub epoch: u32,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DdsError {
    /// The shard is not currently leased to this worker.
    NotLeased { shard: ShardId, worker: WorkerId },
}

impl std::fmt::Display for DdsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DdsError::NotLeased { shard, worker } => {
                write!(f, "shard {shard} is not leased to worker {worker}")
            }
        }
    }
}
impl std::error::Error for DdsError {}
