//! Checkpoint cadence — the Controller-facing knob of the subsystem: one
//! fixed interval, from the job start to the first capture and between
//! every two later ones.

use crate::tier::StorageTier;

/// How often the job checkpoints.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CkptPolicy {
    /// Checkpoint every `interval_secs`, the first capture at `interval_secs`.
    Fixed { interval_secs: f64 },
}

/// Everything the runtime needs to run the checkpoint subsystem for a job.
/// Every Parameter Server job runs one; set it with `JobConfig::with_ckpt`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CkptConfig {
    /// Where snapshots drain to (and restores read from).
    pub tier: StorageTier,
    /// Cadence: the first capture lands one interval after the job starts,
    /// each later one an interval after the one before.
    pub policy: CkptPolicy,
    /// Synchronous capture pause charged to the parameter servers while the
    /// snapshot is cut (the write itself drains asynchronously).
    pub capture_stall_secs: f64,
}

impl CkptConfig {
    /// Seconds between two captures (and from the job start to the first).
    pub fn interval_secs(&self) -> f64 {
        let CkptPolicy::Fixed { interval_secs } = self.policy;
        interval_secs
    }
}

impl Default for CkptConfig {
    fn default() -> Self {
        CkptConfig {
            tier: StorageTier::LocalDisk,
            policy: CkptPolicy::Fixed { interval_secs: 600.0 },
            capture_stall_secs: 2.0,
        }
    }
}
