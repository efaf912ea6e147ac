//! The straggler-mitigation action set (paper Table II), less `ADJUST_LR`:
//! no shipped solution issues it and no paper experiment measures it.

use antdt_monitor::NodeId;
use std::sync::Arc;

/// One mitigation action, as sent from the Controller to the Agents.
///
/// Per-worker payloads are shared slices: a broadcast hands the same action
/// to every agent, so each per-target copy is a refcount bump, not a deep
/// copy of an n-entry vector. `Debug` prints them exactly like a `Vec`.
#[derive(Debug, Clone, PartialEq)]
pub enum Action {
    /// Load-balancing: set every worker's local batch size for the next
    /// iteration (dead workers get 0). `grad_accum[i]` > 1 additionally splits
    /// worker `i`'s batch into sequential micro-batches (AntDT-DD).
    AdjustBs { batch_sizes: Arc<[u64]>, grad_accum: Option<Arc<[u32]>> },
    /// Replication: proceed after `n − b` fastest pushes each iteration; the
    /// DDS puts the dropped shards back to preserve at-least-once semantics.
    BackupWorkers { b: u32 },
    /// Scheduling: kill `node` and restart it on (hopefully) healthy hardware.
    KillRestart { node: NodeId },
    /// Dummy action — explicitly "do nothing this round" (§V-E1).
    None,
}

impl Action {
    /// Rough payload size in bytes when broadcast through the Agent mechanism
    /// (the paper notes these messages are bytes-level signals).
    pub fn payload_bytes(&self) -> u64 {
        match self {
            Action::AdjustBs { batch_sizes, grad_accum } => {
                (batch_sizes.len() * 8 + grad_accum.as_ref().map_or(0, |g| g.len() * 4) + 8) as u64
            }
            Action::BackupWorkers { .. } => 12,
            Action::KillRestart { .. } => 16,
            Action::None => 4,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payloads_are_bytes_level() {
        let a = Action::AdjustBs { batch_sizes: vec![4096; 100].into(), grad_accum: None };
        assert!(a.payload_bytes() < 1024);
        assert!(Action::None.payload_bytes() <= 8);
    }
}
