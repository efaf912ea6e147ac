//! Counterfactual replay: re-run a finished job with a [`Perturbation`]
//! applied and measure the JCT delta the edit actually bought.
//!
//! This is the validation half of the attribution engine. The `antdt-attr`
//! analysis *predicts* how much JCT a perturbation recovers
//! ([`antdt_attr::predicted_delta_us`]); this module deterministically
//! replays the same seeded job with the edit applied to the [`JobConfig`]
//! and reports the measured delta next to the prediction. When the two
//! agree, the blame scores are explaining the schedule, not curve-fitting
//! it.
//!
//! Fork replay is built from the pieces here ([`plan_replays`],
//! [`PrefixRun`]) and driven by one engine, the `antdt-whatif` service;
//! [`what_if_table`] is the naive full-rerun oracle it is checked against.

use crate::config::JobConfig;
use crate::job::Job;
use crate::report::{CounterfactualRow, JobReport};
use crate::runtime::attr::analysis_of;
use crate::runtime::kernel::Kernel;
use crate::runtime::strategy::{erased_run_for, ErasedRun};
use antdt_attr::predicted_delta_us;
use antdt_sim::{ControlChannel, SimTime};

pub use antdt_attr::Perturbation;

/// Apply one counterfactual edit to a job config. The returned config is the
/// same seeded job in every other respect, so the replay isolates exactly the
/// perturbed mechanism.
pub fn apply_perturbation(mut cfg: JobConfig, p: &Perturbation) -> JobConfig {
    match p {
        Perturbation::HealthyNode(n) => {
            // Strip the contention phases; the node keeps its hardware class,
            // link, and RNG stream (jitter draws replay identically).
            let n = *n as usize;
            if let Some(w) = cfg.cluster.workers.get_mut(n) {
                w.profile.phases.clear();
            }
        }
        Perturbation::ZeroControlLatency => {
            cfg.control_channel = ControlChannel::Ideal;
        }
        Perturbation::NoCkptStalls => {
            cfg.ckpt_save_secs = 0.0;
            if let Some(c) = cfg.ckpt.as_mut() {
                c.capture_stall_secs = 0.0;
            }
        }
    }
    cfg
}

/// Re-run `cfg` with `p` applied (attribution stays armed so the replay is
/// itself explainable).
pub fn run_what_if(cfg: &JobConfig, p: &Perturbation) -> JobReport {
    Job::run(apply_perturbation(cfg.clone(), p))
}

/// Apply one counterfactual edit to a *live* forked kernel, mid-run. This is
/// the runtime twin of [`apply_perturbation`]: the config copy keeps every
/// later (re)spawn consistent, and the live mutations retarget state that was
/// already materialised from the old config at boot.
pub(crate) fn apply_live_perturbation(k: &mut Kernel, p: &Perturbation) {
    k.cfg = apply_perturbation(k.cfg.clone(), p);
    match p {
        Perturbation::HealthyNode(n) => {
            if let Some(w) = k.workers.get_mut(*n as usize) {
                w.profile.phases.clear();
            }
        }
        Perturbation::ZeroControlLatency => k.bus.set_ideal_channel(),
        Perturbation::NoCkptStalls => {
            if let Some(c) = k.ckpt_rt.as_mut() {
                c.capture_stall_secs = 0.0;
            }
        }
    }
}

/// Where `base` certifies `p` first bites the schedule, if it recorded one.
/// `None` (or a mark at [`SimTime::ZERO`]) means fork replay is not
/// applicable and the perturbation needs a full rerun.
pub fn divergence_instant(base: &JobReport, p: &Perturbation) -> Option<SimTime> {
    let marks = &base.divergence;
    match p {
        Perturbation::HealthyNode(n) => marks.worker_contended.get(*n as usize).copied().flatten(),
        Perturbation::ZeroControlLatency => marks.control_modeled,
        Perturbation::NoCkptStalls => marks.ckpt_stall,
    }
}

/// 128-bit FNV-1a digest of a config's exhaustive `Debug` rendering — the
/// "same trace/config" identity for snapshot caches and memo stores.
/// [`JobConfig`] is plain data with a derived, field-exhaustive `Debug`, so
/// equal digests mean the same simulated schedule. The rendering is streamed
/// straight into the hash (Real-mode configs debug-print their datasets;
/// materialising that string would dwarf the simulation).
pub fn config_digest(cfg: &JobConfig) -> u128 {
    use std::fmt::Write;
    struct Fnv(u128);
    impl Write for Fnv {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            for b in s.bytes() {
                self.0 ^= b as u128;
                self.0 = self.0.wrapping_mul(0x0000_0000_0100_0000_0000_0000_0000_013B);
            }
            Ok(())
        }
    }
    let mut h = Fnv(0x6C62_272E_07BB_0142_62B8_2175_6295_C58D);
    write!(h, "{cfg:?}").expect("hashing a Debug rendering cannot fail");
    h.0
}

/// An arch-erased in-flight job that can be advanced, forked and finished —
/// the unit a what-if snapshot cache stores. Construction refuses
/// telemetry-armed configs: forks share telemetry counters, so such jobs
/// must full-rerun (see [`crate::runtime::strategy::SimRun::fork`]).
pub struct PrefixRun(Box<dyn ErasedRun>);

impl PrefixRun {
    /// Build and bootstrap a run of `cfg` without firing any events.
    ///
    /// Panics if `cfg.telemetry` is armed.
    pub fn new(cfg: &JobConfig) -> Self {
        assert!(!cfg.telemetry, "PrefixRun requires telemetry off (forks share counters)");
        PrefixRun(erased_run_for(cfg))
    }

    /// Fire every event up to and including instant `t` (but no further).
    /// Returns `true` if the queue drained.
    pub fn advance_until(&mut self, t: SimTime) -> bool {
        self.0.advance_until(t)
    }

    /// The job's current simulated instant.
    pub fn now(&self) -> SimTime {
        self.0.now()
    }

    /// Events processed so far.
    pub fn processed(&self) -> u64 {
        self.0.processed()
    }

    /// Whether the job has reached its finish condition.
    pub fn finished(&self) -> bool {
        self.0.finished()
    }

    /// Estimated heap bytes an independent fork of this run owns (world
    /// clone + engine snapshot) — what a size-bounded cache charges.
    pub fn estimate_bytes(&self) -> usize {
        self.0.estimate_bytes()
    }

    /// An independent run resuming from this exact instant; `self` is
    /// untouched.
    pub fn fork(&self) -> PrefixRun {
        PrefixRun(self.0.fork_box())
    }

    /// [`PrefixRun::fork`], then apply `p` to the forked kernel live — the
    /// counterfactual branch point.
    pub fn fork_perturbed(&self, p: &Perturbation) -> PrefixRun {
        let mut f = self.0.fork_box();
        f.perturb(p);
        PrefixRun(f)
    }

    /// Drive to completion and assemble the report.
    pub fn finish(self) -> JobReport {
        self.0.finish_box()
    }
}

/// How one batch of perturbations against a finished base run will be
/// answered: which queries can fork a shared prefix, and which must rerun.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReplayPlan {
    /// `(query index, divergence instant)` sorted ascending by `(instant,
    /// index)` — fork order off a monotonically advancing shared prefix.
    pub forkable: Vec<(usize, SimTime)>,
    /// Query indices needing a full rerun: no recorded divergence (the edit
    /// never bites), a divergence at time zero (bootstrap already ran under
    /// the old config), or a telemetry-armed config (forks share counters).
    pub full_reruns: Vec<usize>,
}

/// Partition `perturbations` into fork-replayable and full-rerun queries
/// using the divergence marks `base` recorded (see [`ReplayPlan`]).
pub fn plan_replays(
    cfg: &JobConfig,
    base: &JobReport,
    perturbations: &[Perturbation],
) -> ReplayPlan {
    let mut plan = ReplayPlan::default();
    for (i, p) in perturbations.iter().enumerate() {
        match divergence_instant(base, p) {
            Some(t) if t > SimTime::ZERO && !cfg.telemetry => plan.forkable.push((i, t)),
            _ => plan.full_reruns.push(i),
        }
    }
    plan.forkable.sort_by_key(|&(i, t)| (t, i));
    plan
}

/// Tabulate measured vs predicted JCT deltas: one row per perturbation, from
/// `base` (a finished attribution-armed run) and each perturbation's what-if
/// report, in order — however the what-if reports were produced.
///
/// Panics if `base` carries no attribution section — the caller must have
/// armed the engine via [`JobConfig::with_attribution`].
pub fn counterfactual_rows<'a>(
    base: &JobReport,
    perturbations: &[Perturbation],
    what_ifs: impl IntoIterator<Item = &'a JobReport>,
) -> Vec<CounterfactualRow> {
    let attr = base.attr.as_ref().expect("what-if rows need an attribution-armed base report");
    let analysis = analysis_of(attr);
    let base_jct_us = base.jct.as_micros();
    perturbations
        .iter()
        .zip(what_ifs)
        .map(|(p, what_if)| {
            let what_if_jct_us = what_if.jct.as_micros();
            CounterfactualRow {
                label: p.label(),
                predicted_delta_us: predicted_delta_us(&analysis, p),
                measured_delta_us: base_jct_us as i64 - what_if_jct_us as i64,
                base_jct_us,
                what_if_jct_us,
            }
        })
        .collect()
}

/// Replay every perturbation against `base` (a finished attribution-armed
/// run of `cfg`) by full reruns and tabulate measured vs predicted JCT deltas
/// — the naive oracle the `antdt-whatif` service's fork replay is checked
/// against.
///
/// Panics if `base` carries no attribution section — the caller must have
/// armed the engine via [`JobConfig::with_attribution`].
pub fn what_if_table(
    cfg: &JobConfig,
    base: &JobReport,
    perturbations: &[Perturbation],
) -> Vec<CounterfactualRow> {
    let what_ifs: Vec<JobReport> = perturbations.iter().map(|p| run_what_if(cfg, p)).collect();
    counterfactual_rows(base, perturbations, &what_ifs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use antdt_workloads::cluster::cluster_a_scaled;
    use antdt_workloads::Scenario;

    fn cfg() -> JobConfig {
        JobConfig::ps_bsp(cluster_a_scaled(4, 2), Scenario::WorkerPersistent { intensity: 1.0 })
            .with_attribution()
    }

    #[test]
    fn perturbations_edit_only_their_mechanism() {
        let base = cfg();
        // WorkerPersistent puts the contention phases on the last worker.
        let straggler = base.cluster.workers.len() as u32 - 1;
        assert!(!base.cluster.workers[straggler as usize].profile.phases.is_empty());

        let healthy = apply_perturbation(base.clone(), &Perturbation::HealthyNode(straggler));
        assert!(healthy.cluster.workers[straggler as usize].profile.phases.is_empty());
        assert_eq!(
            healthy.cluster.workers[straggler as usize].profile.stream,
            base.cluster.workers[straggler as usize].profile.stream,
        );

        let quiet = apply_perturbation(base.clone(), &Perturbation::ZeroControlLatency);
        assert_eq!(quiet.control_channel, ControlChannel::Ideal);
        assert_eq!(quiet.ckpt_save_secs, base.ckpt_save_secs);

        let no_stall = apply_perturbation(base, &Perturbation::NoCkptStalls);
        assert_eq!(no_stall.ckpt_save_secs, 0.0);
    }

    #[test]
    fn out_of_range_healthy_node_is_a_no_op() {
        let base = cfg();
        let edited = apply_perturbation(base.clone(), &Perturbation::HealthyNode(10_000));
        assert_eq!(edited.cluster.workers.len(), base.cluster.workers.len());
    }
}
