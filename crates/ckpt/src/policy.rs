//! Checkpoint cadence policy — the Controller-facing knob of the subsystem.
//!
//! `Fixed` pins the interval; `Adaptive` re-solves Young's approximation
//! `T* = sqrt(2 · C · MTBF)` (Young 1974) from the *observed* fault rate:
//! frequent kills pull checkpoints closer together (less replay per fault),
//! a quiet cluster relaxes toward the configured maximum (less capture
//! overhead). The runtime re-evaluates after every capture and logs interval
//! changes through the Controller decision audit.

use crate::tier::StorageTier;

/// How the checkpoint interval is chosen.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CkptPolicy {
    /// Always checkpoint every `interval_secs`.
    Fixed { interval_secs: f64 },
    /// Young's-formula interval from observed MTBF, clamped to
    /// `[min_secs, max_secs]`; `max_secs` while no fault has been observed.
    Adaptive { min_secs: f64, max_secs: f64 },
}

impl CkptPolicy {
    /// Next interval in seconds, plus the audit rule that produced it.
    ///
    /// * `capture_cost_secs` — cost C of one checkpoint (capture stall +
    ///   storage write drain).
    /// * `faults` — kills observed so far; `elapsed_secs` — run time so far.
    pub fn interval_secs(
        &self,
        capture_cost_secs: f64,
        faults: u64,
        elapsed_secs: f64,
    ) -> (f64, &'static str) {
        match *self {
            CkptPolicy::Fixed { interval_secs } => (interval_secs, "ckpt-fixed"),
            CkptPolicy::Adaptive { min_secs, max_secs } => {
                if faults == 0 || elapsed_secs <= 0.0 {
                    return (max_secs, "ckpt-adaptive-no-faults");
                }
                let mtbf = elapsed_secs / faults as f64;
                let young = (2.0 * capture_cost_secs.max(1e-6) * mtbf).sqrt();
                (young.clamp(min_secs, max_secs), "ckpt-adaptive-young")
            }
        }
    }
}

/// Everything the runtime needs to run the checkpoint subsystem for a job.
/// Every Parameter Server job runs one; set it with `JobConfig::with_ckpt`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CkptConfig {
    /// Where snapshots drain to (and restores read from).
    pub tier: StorageTier,
    /// Cadence policy; the *first* checkpoint always fires at the job's
    /// `checkpoint_interval`, subsequent ones follow the policy.
    pub policy: CkptPolicy,
    /// Synchronous capture pause charged to the parameter servers while the
    /// snapshot is cut (the write itself drains asynchronously).
    pub capture_stall_secs: f64,
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_ignores_fault_history() {
        let p = CkptPolicy::Fixed { interval_secs: 300.0 };
        assert_eq!(p.interval_secs(10.0, 0, 0.0), (300.0, "ckpt-fixed"));
        assert_eq!(p.interval_secs(10.0, 50, 1e6), (300.0, "ckpt-fixed"));
    }

    #[test]
    fn adaptive_relaxes_to_max_without_faults() {
        let p = CkptPolicy::Adaptive { min_secs: 60.0, max_secs: 1800.0 };
        assert_eq!(p.interval_secs(10.0, 0, 5_000.0), (1800.0, "ckpt-adaptive-no-faults"));
    }

    #[test]
    fn adaptive_follows_youngs_formula_and_clamps() {
        let p = CkptPolicy::Adaptive { min_secs: 60.0, max_secs: 1800.0 };
        // MTBF 2000s, C=10s -> T* = sqrt(2*10*2000) = 200s.
        let (t, rule) = p.interval_secs(10.0, 5, 10_000.0);
        assert!((t - 200.0).abs() < 1e-9);
        assert_eq!(rule, "ckpt-adaptive-young");
        // Hammered cluster clamps at min.
        let (t, _) = p.interval_secs(1.0, 1_000, 10_000.0);
        assert_eq!(t, 60.0);
        // Nearly fault-free clamps at max.
        let (t, _) = p.interval_secs(10.0, 1, 10_000_000.0);
        assert_eq!(t, 1800.0);
    }

    #[test]
    fn more_faults_mean_tighter_cadence() {
        let p = CkptPolicy::Adaptive { min_secs: 1.0, max_secs: 1e9 };
        let (sparse, _) = p.interval_secs(5.0, 2, 100_000.0);
        let (dense, _) = p.interval_secs(5.0, 20, 100_000.0);
        assert!(dense < sparse);
    }
}
