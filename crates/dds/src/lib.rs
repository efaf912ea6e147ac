//! # antdt-dds — Stateful Dynamic Data Sharding service
//!
//! The central data-allocation mechanism of AntDT (§V-C). The total `N` training
//! samples are split into `K = ⌈N / (B·M)⌉` shards (`B` = global batch size,
//! `M` = batches per shard); each shard is just `(offset, len)` — two integers —
//! and all shards live in a global queue. Workers *pull* shards: a fast worker
//! naturally consumes more shards, a straggler fewer, which is what makes every
//! mitigation action (batch adjustment, backup workers, kill-restart) compatible
//! with a single allocation mechanism.
//!
//! Each shard carries a state:
//!
//! * `TODO` — ready for assignment,
//! * `DOING` — leased to a worker, never handed to anyone else,
//! * `DONE` — the worker pushed the corresponding gradients.
//!
//! When a worker dies (crash, eviction, or a deliberate `KILL_RESTART`), its
//! `DOING` shards flip back to `TODO` at the *tail* of the queue, guaranteeing
//! **at-least-once** semantics. **At-most-once** additionally requires `M = 1`
//! and no re-serves; the [`audit`](DdsService::audit) reports both.
//!
//! The service is plain single-owner data: mutating calls take `&mut self`,
//! and a clone is an independent copy of the queue. It serves the
//! single-threaded discrete-event runtimes in `antdt-core`, where each job's
//! kernel owns one; the `concurrent` integration test drives many workers
//! through one service in seeded interleavings.

mod queue_state;
pub mod service;
pub mod shard;
pub mod shuffle;
pub mod stats;
pub mod types;

pub use service::DdsService;
pub use shard::{Shard, ShardId, ShardState, WorkerId};
pub use shuffle::ShardShuffler;
pub use stats::{ConsumptionStats, IntegrityAudit, WorkerConsumption};
pub use types::{DdsConfig, DdsCounts, DdsError, ShardLease};
