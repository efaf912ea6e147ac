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
use antdt_attr::predicted_delta_us;
use antdt_sim::{ControlChannel, NodeProfile, SimTime};

pub use crate::runtime::strategy::PrefixRun;
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
        Perturbation::NoCkptStalls => cfg.ckpt.capture_stall_secs = 0.0,
    }
    cfg
}

/// Whether [`apply_perturbation`] would change `cfg` at all. `false` means
/// the edited job is `cfg` itself, so its answer is `cfg`'s own report:
/// healing a worker with no contention phases (or no such worker), zeroing
/// the latency of an `Ideal` channel, or dropping a capture stall that is
/// already `0.0` (bit for bit: `-0.0` renders differently).
pub fn perturbation_edits(cfg: &JobConfig, p: &Perturbation) -> bool {
    match p {
        Perturbation::HealthyNode(n) => {
            cfg.cluster.workers.get(*n as usize).is_some_and(|w| !w.profile.phases.is_empty())
        }
        Perturbation::ZeroControlLatency => !cfg.control_channel.is_ideal(),
        Perturbation::NoCkptStalls => cfg.ckpt.capture_stall_secs.to_bits() != 0,
    }
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
                let healthy = NodeProfile { phases: Vec::new(), ..NodeProfile::clone(&w.profile) };
                w.profile.set_profile(healthy);
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

/// An upper bound on how many divergence marks a run of `cfg` can set: one
/// per worker with contention phases, one for a `Modeled` base channel, and
/// one for a Parameter Server job (the only kind that checkpoints) with a
/// nonzero capture stall. [`PrefixRun::marks_set`] counts the same marks, so
/// once it reaches this bound no later instant can be a fork point.
pub fn divergence_mark_bound(cfg: &JobConfig) -> usize {
    let contended = cfg.cluster.workers.iter().filter(|w| !w.profile.phases.is_empty()).count();
    let control = usize::from(!cfg.control_channel.is_ideal());
    let stall = usize::from(cfg.arch.is_ps() && cfg.ckpt.capture_stall_secs > 0.0);
    contended + control + stall
}

/// 128-bit FNV-1a digest of a config's exhaustive `Debug` rendering — the
/// "same trace/config" identity for snapshot caches and memo stores.
/// [`JobConfig`] is plain data with a derived, field-exhaustive `Debug`, so
/// equal digests mean the same simulated schedule. The rendering is streamed
/// straight into the hash. A Real-mode config's datasets render at a fixed
/// size: their row and pair counts and a digest of the raw bits of every
/// pair, offset and label (see `antdt_ml::Dataset`'s `Debug`).
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

/// How one batch of perturbations against a finished base run will be
/// answered: which queries can fork a shared prefix, and which must rerun.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReplayPlan {
    /// `(query index, divergence instant)` sorted ascending by `(instant,
    /// index)` — fork order off a monotonically advancing shared prefix.
    pub forkable: Vec<(usize, SimTime)>,
    /// Query indices needing a full rerun: no recorded divergence (the edit
    /// never bites) or a divergence at time zero (bootstrap already ran
    /// under the old config).
    pub full_reruns: Vec<usize>,
}

/// Partition `perturbations` into fork-replayable and full-rerun queries
/// using the divergence marks `base` recorded (see [`ReplayPlan`]).
pub fn plan_replays(base: &JobReport, perturbations: &[Perturbation]) -> ReplayPlan {
    let mut plan = ReplayPlan::default();
    for (i, p) in perturbations.iter().enumerate() {
        match divergence_instant(base, p) {
            Some(t) if t > SimTime::ZERO => plan.forkable.push((i, t)),
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
    let what_ifs: Vec<JobReport> =
        perturbations.iter().map(|p| Job::run(apply_perturbation(cfg.clone(), p))).collect();
    counterfactual_rows(base, perturbations, &what_ifs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use antdt_sim::ContentionPhase;
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
        assert_eq!(quiet.ckpt, base.ckpt);

        let no_stall = apply_perturbation(base, &Perturbation::NoCkptStalls);
        assert_eq!(no_stall.ckpt.capture_stall_secs, 0.0);
    }

    /// A fork owns a copy of the telemetry recorded so far: finishing a
    /// fork of a telemetry-armed run first leaves the parent's report equal
    /// to a plain run's, and the unperturbed fork reports the same.
    #[test]
    fn forking_a_telemetry_armed_run_leaves_the_parent_untouched() {
        let cfg = cfg().with_telemetry();
        let plain = Job::run(cfg.clone());
        let mut run = PrefixRun::new(&cfg);
        run.advance_until(SimTime::ZERO + plain.jct / 2);
        assert!(!run.finished(), "the fork point must be mid-run");
        let forked = run.fork().finish();
        let parent = run.finish();
        assert!(plain.telemetry.is_some());
        assert_eq!(parent.telemetry, plain.telemetry);
        assert_eq!(forked.telemetry, plain.telemetry);
    }

    /// A `HealthyNode` edit applied to a live fork while the straggler
    /// holds its contended span answers what a rerun answers whose
    /// contention ends at the fork instant: the edit drops the held span.
    #[test]
    fn healthy_node_fork_inside_a_held_contended_span_matches_a_rerun() {
        let cfg = JobConfig::ps_bsp(
            cluster_a_scaled(4, 2),
            Scenario::WorkerPersistent { intensity: 1.0 },
        );
        let straggler = 3;
        let phases = &cfg.cluster.workers[straggler].profile.phases;
        assert!(matches!(phases[..], [ContentionPhase::Persistent { to: SimTime::MAX, .. }]));
        let plain = Job::run(cfg.clone());
        let fork_at = SimTime::ZERO + plain.jct / 2;
        let mut run = PrefixRun::new(&cfg);
        run.advance_until(fork_at);
        let held = run.k.workers[straggler].profile.at(&run.k.pool, fork_at);
        assert!(held.contended() && held.lo < fork_at, "the straggler holds {held:?}");
        let healed = run.into_perturbed(&Perturbation::HealthyNode(straggler as u32)).finish();

        let mut rerun = cfg.clone();
        if let ContentionPhase::Persistent { to, .. } =
            &mut rerun.cluster.workers[straggler].profile.phases[0]
        {
            *to = SimTime(fork_at.as_micros() + 1);
        }
        let rerun = Job::run(rerun);
        assert!(rerun.jct < plain.jct, "healing must shorten the job");
        assert_eq!(healed.golden_dump(), rerun.golden_dump());
    }

    /// `perturbation_edits` is false exactly when the edit leaves the
    /// config's digest unchanged, and the finished run sets no more marks
    /// than `divergence_mark_bound` allows.
    #[test]
    fn edit_predicate_matches_the_digest_and_the_bound_holds() {
        use antdt_ckpt::CkptConfig;
        let modeled = ControlChannel::Modeled {
            latency_secs: 0.05,
            jitter_secs: 0.0,
            loss_prob: 0.0,
            seed: 3,
        };
        let stall = |secs: f64| CkptConfig { capture_stall_secs: secs, ..CkptConfig::default() };
        let configs = [
            cfg(),
            cfg().with_control_channel(modeled).with_ckpt(stall(0.0)),
            cfg().with_ckpt(stall(-0.0)),
        ];
        let perts = [0, 3, 99]
            .map(Perturbation::HealthyNode)
            .into_iter()
            .chain([Perturbation::ZeroControlLatency, Perturbation::NoCkptStalls]);
        for p in perts {
            for c in &configs {
                let changed = config_digest(&apply_perturbation(c.clone(), &p)) != config_digest(c);
                assert_eq!(perturbation_edits(c, &p), changed, "{p:?} on {:?}", c.ckpt);
            }
        }
        let report = Job::run(configs[1].clone().with_samples(200_000));
        let d = &report.divergence;
        let set = d.worker_contended.iter().flatten().count()
            + usize::from(d.control_modeled.is_some())
            + usize::from(d.ckpt_stall.is_some());
        assert!(set > 0 && set <= divergence_mark_bound(&configs[1]), "{d:?}");
    }

    /// A Real-mode digest sees every bit of its datasets: equal data digests
    /// equal, and each one-bit or one-boundary edit changes the digest.
    #[test]
    fn real_mode_digest_sees_each_dataset_bit() {
        use crate::config::ExecutionMode;
        use antdt_ml::Dataset;
        let data = |rows: &[(&[u32], f32)]| {
            let mut d = Dataset::new(4);
            rows.iter().for_each(|&(feats, label)| d.push(feats, label));
            d
        };
        let real = |dataset: Dataset| {
            cfg().with_execution(ExecutionMode::Real {
                dataset,
                holdout: data(&[(&[1], 0.0)]),
                latent_k: 4,
                lr: 0.1,
            })
        };
        let base = real(data(&[(&[0, 2], 1.0), (&[3], 0.0)]));
        let digest = config_digest(&base);
        assert_eq!(digest, config_digest(&base.clone()));
        assert_eq!(digest, config_digest(&real(data(&[(&[0, 2], 1.0), (&[3], 0.0)]))));
        let edits = [
            ("index", data(&[(&[1, 2], 1.0), (&[3], 0.0)])),
            ("label", data(&[(&[0, 2], 1.0), (&[3], 1.0)])),
            ("row boundary", data(&[(&[0], 1.0), (&[2, 3], 0.0)])),
        ];
        for (what, edited) in edits {
            assert_ne!(config_digest(&real(edited)), digest, "{what}");
        }
    }

    #[test]
    fn out_of_range_healthy_node_is_a_no_op() {
        let base = cfg();
        let edited = apply_perturbation(base.clone(), &Perturbation::HealthyNode(10_000));
        assert_eq!(edited.cluster.workers.len(), base.cluster.workers.len());
    }
}
