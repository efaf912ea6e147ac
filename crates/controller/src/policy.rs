//! The policy interface: a straggler-mitigation *solution* is a pure decider
//! from Monitor snapshots to actions. The framework (antdt-core) owns
//! execution, data allocation and fault tolerance — the separation the paper's
//! §V-E emphasizes.

use crate::action::Action;
use antdt_monitor::{MonitorSnapshot, NodeStats};
use antdt_sim::SimTime;
use antdt_telemetry::DecisionRecord;

/// Static job facts a policy may need besides the live snapshot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PolicyCtx {
    /// `B` — the fixed global batch size.
    pub global_batch: u64,
    pub n_workers: usize,
    pub n_servers: usize,
}

/// A straggler-mitigation solution (paper §VI).
pub trait MitigationPolicy: Send {
    /// Called on every Monitor aggregation tick (default: every 5 minutes).
    /// Returns the actions to execute; `[Action::None]` means "no straggler
    /// detected this round" (§VI-A5).
    fn decide(&mut self, now: SimTime, snap: &MonitorSnapshot, ctx: &PolicyCtx) -> Vec<Action>;

    /// Take the decision audit records buffered since the previous drain. The
    /// runtime calls this after every `decide` and attaches the records to the
    /// `JobReport`. Policies that don't audit return nothing (the default).
    fn drain_audit(&mut self) -> Vec<DecisionRecord> {
        Vec::new()
    }

    /// Clone the policy, state included, behind a fresh box. Lets the
    /// runtime snapshot a mid-flight job (engine fork / what-if replay)
    /// without consuming the original.
    fn clone_box(&self) -> Box<dyn MitigationPolicy>;
}

impl Clone for Box<dyn MitigationPolicy> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// Shared helper: per-worker throughputs `vᵢ` with dead workers zeroed and
/// missing measurements imputed with the mean of the measured ones (a fresh
/// restarted node has no history yet but must receive work).
pub fn worker_throughputs(stats: &[NodeStats]) -> Vec<f64> {
    let measured: Vec<f64> =
        stats.iter().filter(|s| s.alive).filter_map(|s| s.throughput).collect();
    let fallback = if measured.is_empty() {
        1.0
    } else {
        measured.iter().sum::<f64>() / measured.len() as f64
    };
    stats
        .iter()
        .map(|s| if !s.alive { 0.0 } else { s.throughput.unwrap_or(fallback).max(0.0) })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use antdt_monitor::NodeId;

    fn stat(idx: u32, v: Option<f64>, alive: bool) -> NodeStats {
        NodeStats {
            node: NodeId::worker(idx),
            bpt_trans: None,
            bpt_per: None,
            throughput: v,
            batch: None,
            alive,
        }
    }

    #[test]
    fn throughputs_zero_dead_and_impute_missing() {
        let stats = vec![
            stat(0, Some(10.0), true),
            stat(1, None, true), // imputed with mean(10, 30) = 20
            stat(2, Some(30.0), true),
            stat(3, Some(99.0), false), // dead => 0
        ];
        let v = worker_throughputs(&stats);
        assert_eq!(v, vec![10.0, 20.0, 30.0, 0.0]);
    }

    #[test]
    fn all_unmeasured_gives_uniform_positive() {
        let stats = vec![stat(0, None, true), stat(1, None, true)];
        let v = worker_throughputs(&stats);
        assert_eq!(v, vec![1.0, 1.0]);
    }
}
