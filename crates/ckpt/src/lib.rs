//! # antdt-ckpt — the checkpoint/state subsystem
//!
//! Makes checkpointing a real subsystem instead of a cost constant. Four
//! pieces, each deliberately free of simulator or runtime dependencies so the
//! crate stays a std-only leaf (enforced by `scripts/check-layering.sh`):
//!
//! * [`Snapshot`] — what a checkpoint *is*: parameter-server state, the DDS
//!   TODO/DOING/DONE shard queue, and per-worker progress watermarks, with
//!   an FNV-1a content digest.
//! * [`StorageTier`] — where a checkpoint *goes*: bandwidth + latency cost
//!   model for local disk vs an object store.
//! * [`DrainQueue`] — *when* it becomes durable: snapshot writes drain
//!   asynchronously and overlap training; a snapshot only counts for
//!   recovery once its write has fully drained.
//! * [`CkptPolicy`] — *how often*: one fixed interval between captures.
//!
//! The runtime side (capture, staged restore, replay through the
//! strategy drivers) lives in `antdt-core`'s `runtime/ckpt.rs`; this
//! crate is pure model + math so it can also back offline what-if analyses.

mod drain;
mod policy;
mod snapshot;
mod tier;

pub use drain::DrainQueue;
pub use policy::{CkptConfig, CkptPolicy};
pub use snapshot::{DdsSnapshot, PsState, Snapshot, SnapshotMeta, WorkerMark};
pub use tier::StorageTier;
