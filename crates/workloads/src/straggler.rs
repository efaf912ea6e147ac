//! Straggler injection scenarios (paper §VII-A4).
//!
//! The paper injects synthetic patterns because natural contention is not
//! controllable: `T_delay = SleepDuration × Intensity` with a certain
//! probability. Worker contention is *additive* (a literal sleep in the training
//! thread each iteration); server contention is modelled *multiplicatively* on
//! the server's service times plus a congestion factor on its link — a straggling
//! server slows both `Tᵢˢ` and `Tᵢᵐ` (§IV), which is why only `KILL_RESTART`
//! helps there.

use crate::cluster::ClusterSpec;
use antdt_sim::profile::ContentionPhase;
use antdt_sim::{NodeProfile, SimTime, TransientPattern};

/// A named injection scenario, applied on top of a clean [`ClusterSpec`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Scenario {
    /// No injection (clean dedicated cluster).
    None,
    /// Paper Fig. 10/11 "worker stragglers" and Table III worker side:
    /// every worker gets the transient FlexRR pattern
    /// (15-in-30 min, p = 0.3, 1.5 s × intensity) and worker `n−1` is a
    /// persistent straggler (4 s × intensity, whole job).
    WorkerMix { intensity: f64 },
    /// Transient-only worker contention.
    WorkerTransient { intensity: f64 },
    /// One persistent worker straggler, nothing else.
    WorkerPersistent { intensity: f64 },
    /// Paper Fig. 10/11 "server stragglers" and Table III server side: one
    /// server persistently contended — service times ×(1 + 8·intensity) and its
    /// link congested ×(1 + 2·intensity). The paper's additive 4-second delay
    /// lands many multiples above a healthy server's sub-second iteration work,
    /// so the multiplicative stand-in is steep.
    ServerPersistent { intensity: f64 },
    /// Paper Fig. 1a's mixture for the motivation plot: w1 transient,
    /// w2 persistent, w3 a 3×-slower deterministic straggler.
    MotivationMix,
    /// Background multi-tenant load of a non-dedicated cluster (Fig. 2):
    /// every node (workers *and* servers) gets transient contention and a
    /// sampled persistent slowdown, averaging ≈`mean_slowdown`× the dedicated
    /// speed.
    NonDedicated { mean_slowdown: f64 },
}

/// Index of the persistent worker straggler used by `WorkerMix` /
/// `WorkerPersistent` (kept stable so figures can label it, like the paper's w3).
pub fn persistent_worker_index(spec: &ClusterSpec) -> usize {
    spec.workers.len().saturating_sub(1)
}

/// Index of the straggling server used by `ServerPersistent` (paper's ps-3).
pub fn straggler_server_index(spec: &ClusterSpec) -> usize {
    spec.servers.len().saturating_sub(1)
}

/// Apply `scenario` to `spec` in place.
pub fn apply(spec: &mut ClusterSpec, scenario: Scenario) {
    match scenario {
        Scenario::None => {}
        Scenario::WorkerMix { intensity } => {
            apply(spec, Scenario::WorkerTransient { intensity });
            apply(spec, Scenario::WorkerPersistent { intensity });
        }
        Scenario::WorkerTransient { intensity } => {
            for w in &mut spec.workers {
                w.profile
                    .phases
                    .push(ContentionPhase::Transient(TransientPattern::paper_default(intensity)));
            }
        }
        Scenario::WorkerPersistent { intensity } => {
            let idx = persistent_worker_index(spec);
            if let Some(w) = spec.workers.get_mut(idx) {
                w.profile.phases.push(ContentionPhase::Persistent {
                    delay_secs: 4.0 * intensity,
                    from: SimTime::ZERO,
                    to: SimTime::MAX,
                });
            }
        }
        Scenario::ServerPersistent { intensity } => {
            let idx = straggler_server_index(spec);
            if let Some(s) = spec.servers.get_mut(idx) {
                s.profile.phases.push(ContentionPhase::Slowdown {
                    factor: 1.0 + 8.0 * intensity,
                    from: SimTime::ZERO,
                    to: SimTime::MAX,
                });
                s.link = s.link.clone().with_congestion(
                    SimTime::ZERO,
                    SimTime::MAX,
                    1.0 + 2.0 * intensity,
                );
            }
        }
        Scenario::MotivationMix => {
            if spec.workers.len() > 3 {
                spec.workers[1]
                    .profile
                    .phases
                    .push(ContentionPhase::Transient(TransientPattern::paper_default(0.8)));
                spec.workers[2].profile.phases.push(ContentionPhase::Persistent {
                    delay_secs: 3.0,
                    from: SimTime::ZERO,
                    to: SimTime::MAX,
                });
                let stream = spec.workers[3].profile.stream;
                let old = NodeProfile::deterministic(stream, 3.0);
                spec.workers[3].profile.speed_factor = old.speed_factor;
            }
            if !spec.servers.is_empty() {
                let j = spec.servers.len() - 1;
                spec.servers[j].profile.phases.push(ContentionPhase::Slowdown {
                    factor: 3.0,
                    from: SimTime::ZERO,
                    to: SimTime::MAX,
                });
            }
        }
        Scenario::NonDedicated { mean_slowdown } => {
            // Deterministic per-node severity derived from the node's stream id,
            // spread around the requested mean: factors in
            // [1, 2·mean_slowdown − 1] with uniform spacing.
            let span = (mean_slowdown - 1.0).max(0.0) * 2.0;
            let mut all: Vec<&mut crate::cluster::NodeSpec> =
                spec.workers.iter_mut().chain(spec.servers.iter_mut()).collect();
            let n = all.len().max(1) as f64;
            for (i, node) in all.iter_mut().enumerate() {
                let frac = (i as f64 + 0.5) / n;
                // Reverse-sorted so severity is not correlated with node index.
                let factor = 1.0 + span * ((frac * 7.0) % 1.0);
                node.profile.phases.push(ContentionPhase::Slowdown {
                    factor,
                    from: SimTime::ZERO,
                    to: SimTime::MAX,
                });
                node.profile
                    .phases
                    .push(ContentionPhase::Transient(TransientPattern::paper_default(0.5)));
                node.profile.jitter_sigma = 0.08;
            }
        }
    }
}

/// Convenience: the paper's headline worker-straggler scenario at a given
/// intensity (transient everywhere + one persistent straggler).
pub fn worker_mix(intensity: f64) -> Scenario {
    Scenario::WorkerMix { intensity }
}

/// Convenience: non-dedicated background noise averaging ~4× slowdown (Fig. 2).
pub fn non_dedicated_background() -> Scenario {
    Scenario::NonDedicated { mean_slowdown: 4.0 }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::cluster_a_scaled;
    use antdt_sim::RngPool;

    #[test]
    fn worker_mix_marks_every_worker_transient_and_one_persistent() {
        let mut spec = cluster_a_scaled(6, 3);
        apply(&mut spec, worker_mix(0.8));
        for w in &spec.workers {
            assert!(w.profile.phases.iter().any(|p| matches!(p, ContentionPhase::Transient(_))));
        }
        let persistent: Vec<usize> = spec
            .workers
            .iter()
            .enumerate()
            .filter(|(_, w)| {
                w.profile.phases.iter().any(|p| matches!(p, ContentionPhase::Persistent { .. }))
            })
            .map(|(i, _)| i)
            .collect();
        assert_eq!(persistent, vec![5]);
    }

    #[test]
    fn persistent_delay_scales_with_intensity() {
        let mut spec = cluster_a_scaled(4, 2);
        apply(&mut spec, Scenario::WorkerPersistent { intensity: 0.5 });
        let pool = RngPool::new(1);
        let w = &spec.workers[3];
        assert_eq!(w.profile.extra_delay(&pool, SimTime::from_secs_f64(1.0)), 2.0);
    }

    #[test]
    fn server_persistent_slows_service_and_link() {
        let mut spec = cluster_a_scaled(4, 3);
        apply(&mut spec, Scenario::ServerPersistent { intensity: 0.8 });
        let s = &spec.servers[2];
        assert!((s.profile.slowdown(&RngPool::new(1), SimTime::ZERO) - 7.4).abs() < 1e-9);
        assert!((s.link.congestion_at(SimTime::ZERO) - 2.6).abs() < 1e-9);
        // Other servers untouched.
        assert_eq!(spec.servers[0].profile.slowdown(&RngPool::new(1), SimTime::ZERO), 1.0);
    }

    #[test]
    fn non_dedicated_mean_slowdown_is_close_to_target() {
        let mut spec = cluster_a_scaled(30, 12);
        apply(&mut spec, Scenario::NonDedicated { mean_slowdown: 4.0 });
        let mean: f64 = spec
            .workers
            .iter()
            .map(|w| w.profile.slowdown(&RngPool::new(1), SimTime::ZERO))
            .sum::<f64>()
            / spec.workers.len() as f64;
        assert!((2.5..5.5).contains(&mean), "mean slowdown {mean}");
    }

    #[test]
    fn motivation_mix_shapes_the_fig1_cast() {
        let mut spec = cluster_a_scaled(6, 4);
        apply(&mut spec, Scenario::MotivationMix);
        assert!((spec.workers[3].profile.speed_factor - 1.0 / 3.0).abs() < 1e-9);
        assert!(spec.workers[2]
            .profile
            .phases
            .iter()
            .any(|p| matches!(p, ContentionPhase::Persistent { .. })));
        assert!(
            (spec.servers[3].profile.slowdown(&RngPool::new(1), SimTime::ZERO) - 3.0).abs() < 1e-9
        );
    }

    #[test]
    fn none_is_a_noop() {
        let mut spec = cluster_a_scaled(4, 2);
        let before = spec.clone();
        apply(&mut spec, Scenario::None);
        assert_eq!(spec, before);
    }
}
