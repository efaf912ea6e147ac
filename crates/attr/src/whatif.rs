//! What-if perturbations and their analytical JCT predictions.
//!
//! A [`Perturbation`] names a counterfactual edit to a finished job ("what if
//! node 3 had been healthy?"); [`predicted_delta_us`] is the JCT improvement
//! the blame analysis expects from it. The runtime crate owns the other half
//! of the loop: it re-runs the job deterministically with the perturbation
//! applied to the config and reports the *measured* delta next to this
//! prediction, validating the attribution end-to-end.

use crate::blame::Analysis;
use crate::ledger::WaitCause;

/// A counterfactual edit to a job.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Perturbation {
    /// Strip the straggler profile from one worker (by node id).
    HealthyNode(u32),
    /// Deliver every control-bus directive with zero latency.
    ZeroControlLatency,
    /// Remove checkpoint capture stalls.
    NoCkptStalls,
}

impl Perturbation {
    /// Stable label for tables, JSON artifacts, and golden dumps.
    pub fn label(&self) -> String {
        match self {
            Perturbation::HealthyNode(n) => format!("healthy_node_{n}"),
            Perturbation::ZeroControlLatency => "zero_control_latency".to_string(),
            Perturbation::NoCkptStalls => "no_ckpt_stalls".to_string(),
        }
    }
}

/// The analytical JCT reduction (microseconds) the blame analysis predicts
/// for a perturbation:
///
/// * `HealthyNode(n)` — node `n`'s blame score: its summed barrier-determiner
///   margins (or excess-over-median without barriers).
/// * `ZeroControlLatency` — the largest per-node `ControlBus` total; directive
///   waits on different nodes overlap in wall time, so the max (not the sum)
///   bounds the recoverable JCT.
/// * `NoCkptStalls` — the largest per-node `CkptStall` total, for the same
///   overlap reason (a capture stalls every server simultaneously).
pub fn predicted_delta_us(a: &Analysis, p: &Perturbation) -> u64 {
    match p {
        Perturbation::HealthyNode(n) => {
            a.blame.iter().find(|b| b.node == *n).map_or(0, |b| b.score_us)
        }
        Perturbation::ZeroControlLatency => cause_max(a, WaitCause::ControlBus),
        Perturbation::NoCkptStalls => cause_max(a, WaitCause::CkptStall),
    }
}

fn cause_max(a: &Analysis, c: WaitCause) -> u64 {
    a.nodes.iter().map(|n| n.totals_us[c.index()]).max().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blame::analyze;
    use crate::ledger::Ledger;

    #[test]
    fn labels_are_stable() {
        assert_eq!(Perturbation::HealthyNode(3).label(), "healthy_node_3");
        assert_eq!(Perturbation::ZeroControlLatency.label(), "zero_control_latency");
        assert_eq!(Perturbation::NoCkptStalls.label(), "no_ckpt_stalls");
    }

    #[test]
    fn predictions_read_the_analysis() {
        let mut l = Ledger::new();
        // Worker 1 determines two barriers by 300us each; server 1000 stalls
        // 700us for checkpoints; worker 0 waits 120us on directives.
        for iter in 0..2u64 {
            let base = iter * 1_000;
            l.sync_to(0, base + 40, if iter == 0 { 0 } else { 120 });
            l.fill(0, base + 500, WaitCause::Compute);
            l.sync_to(1, base + 40, 0);
            l.fill(1, base + 800, WaitCause::Compute);
            l.barrier(iter, &[(0, base + 500), (1, base + 800)]);
        }
        l.fill(1000, 300, WaitCause::Comm);
        l.fill(1000, 1_000, WaitCause::CkptStall);
        l.finalize(2_000);
        l.check_conservation().unwrap();
        let a = analyze(&l, 2_000);

        assert_eq!(predicted_delta_us(&a, &Perturbation::HealthyNode(1)), 600);
        assert_eq!(predicted_delta_us(&a, &Perturbation::HealthyNode(0)), 0);
        assert_eq!(predicted_delta_us(&a, &Perturbation::ZeroControlLatency), 120);
        assert_eq!(predicted_delta_us(&a, &Perturbation::NoCkptStalls), 700);
    }
}
