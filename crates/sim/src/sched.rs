//! Cluster-scheduler model for `KILL_RESTART`.
//!
//! The paper (§V-E2) decomposes the restart cost into: scheduling (new-node
//! initialization plus *pending* time in the scheduler queue — negligible when the
//! cluster is idle, dozens of minutes at peak) and the application side
//! (communication-world rebuild, checkpoint restore, recompute). This module
//! models the scheduling half and the cluster busyness signal that the Monitor
//! exposes as "third-party information".

use crate::dist::Dist;
use crate::rng::StdRng;
use crate::time::{SimDuration, SimTime};

/// Windows during which the cluster is at peak load.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BusynessTimeline {
    pub busy_windows: Vec<(SimTime, SimTime)>,
}

impl BusynessTimeline {
    pub fn always_idle() -> Self {
        Self::default()
    }

    pub fn busy(windows: Vec<(SimTime, SimTime)>) -> Self {
        BusynessTimeline { busy_windows: windows }
    }

    pub fn is_busy(&self, now: SimTime) -> bool {
        self.busy_windows.iter().any(|&(a, b)| now >= a && now < b)
    }
}

/// Pod scheduling model: pending time (queue wait) + node initialization.
#[derive(Debug, Clone, PartialEq)]
pub struct SchedulerModel {
    /// Pending time when the cluster is idle.
    pub pending_idle: Dist,
    /// Pending time at peak (paper: "dozens of minutes").
    pub pending_busy: Dist,
    /// New-node initialization (image pull, container start…).
    pub node_init: Dist,
    pub busyness: BusynessTimeline,
}

impl SchedulerModel {
    /// Defaults chosen from the magnitudes the paper reports: ~10 s pending when
    /// idle, ~15 min at peak, ~45 s node init.
    pub fn paper_default() -> Self {
        SchedulerModel {
            pending_idle: Dist::Uniform { lo: 5.0, hi: 20.0 },
            pending_busy: Dist::Uniform { lo: 600.0, hi: 1500.0 },
            node_init: Dist::Uniform { lo: 30.0, hi: 60.0 },
            busyness: BusynessTimeline::always_idle(),
        }
    }

    pub fn is_busy(&self, now: SimTime) -> bool {
        self.busyness.is_busy(now)
    }

    /// Sample the total scheduling delay (pending + init) for a restart issued
    /// at `now`.
    #[inline]
    pub fn sample_restart_delay(&self, now: SimTime, rng: &mut StdRng) -> SimDuration {
        let pending = if self.is_busy(now) {
            self.pending_busy.sample(rng)
        } else {
            self.pending_idle.sample(rng)
        };
        SimDuration::from_secs_f64(pending + self.node_init.sample(rng))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn busyness_windows() {
        let b = BusynessTimeline::busy(vec![(
            SimTime::from_secs_f64(100.0),
            SimTime::from_secs_f64(200.0),
        )]);
        assert!(!b.is_busy(SimTime::from_secs_f64(50.0)));
        assert!(b.is_busy(SimTime::from_secs_f64(150.0)));
        assert!(!b.is_busy(SimTime::from_secs_f64(200.0)));
    }

    #[test]
    fn restart_delay_larger_when_busy() {
        let m = SchedulerModel {
            busyness: BusynessTimeline::busy(vec![(SimTime::ZERO, SimTime::from_secs_f64(1000.0))]),
            ..SchedulerModel::paper_default()
        };
        let mut rng = StdRng::seed_from_u64(5);
        let busy = m.sample_restart_delay(SimTime::from_secs_f64(10.0), &mut rng);
        let idle = m.sample_restart_delay(SimTime::from_secs_f64(2000.0), &mut rng);
        assert!(busy > idle, "busy {busy} idle {idle}");
        assert!(busy.as_secs_f64() > 600.0);
        assert!(idle.as_secs_f64() < 100.0);
    }
}
