//! The synchronization mechanism for global actions (paper Fig. 6).
//!
//! The Controller answers the *primary* agent's report; the primary then
//! broadcasts the action to every secondary agent in parallel. All deliveries
//! carry a small latency; training processes pick the action up at their next
//! iteration boundary, which realizes the "same iteration" guarantee without
//! ever suspending training.

use antdt_sim::rng::mix64;
use antdt_sim::SimDuration;

/// Cost model for the agent control-plane messages (bytes-level signals, so
/// latency dominates).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BroadcastModel {
    /// Controller → primary one-way latency.
    pub ctrl_latency_secs: f64,
    /// Primary → secondary one-way latency (parallel fan-out).
    pub fanout_latency_secs: f64,
    /// Effective bandwidth for the payload.
    pub bandwidth_bps: f64,
    /// Local barrier hand-off between agent and training process.
    pub barrier_secs: f64,
}

impl Default for BroadcastModel {
    fn default() -> Self {
        BroadcastModel {
            ctrl_latency_secs: 2e-3,
            fanout_latency_secs: 1e-3,
            bandwidth_bps: 1.0e9,
            barrier_secs: 5e-4,
        }
    }
}

impl BroadcastModel {
    /// Time from the Controller's decision until *every* agent holds the
    /// action: controller→primary, then the parallel fan-out, then the local
    /// barrier.
    pub fn full_broadcast_delay(&self, payload_bytes: u64) -> SimDuration {
        let xfer = payload_bytes as f64 / self.bandwidth_bps;
        SimDuration::from_secs_f64(
            self.ctrl_latency_secs + xfer + self.fanout_latency_secs + xfer + self.barrier_secs,
        )
    }

    /// Delay for a node action sent directly to one agent.
    pub fn direct_delay(&self, payload_bytes: u64) -> SimDuration {
        let xfer = payload_bytes as f64 / self.bandwidth_bps;
        SimDuration::from_secs_f64(self.ctrl_latency_secs + xfer + self.barrier_secs)
    }
}

/// "Randomly elected similar to the primary worker" (§V-F): a deterministic
/// pseudo-random pick among the alive workers, stable for a given seed and
/// alive set, re-electable after failures.
pub fn elect_primary(alive_workers: &[u32], seed: u64) -> Option<u32> {
    if alive_workers.is_empty() {
        return None;
    }
    let pick = mix64(seed) as usize % alive_workers.len();
    Some(alive_workers[pick])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn election_is_deterministic_and_in_set() {
        let alive = vec![3, 7, 9, 12];
        let a = elect_primary(&alive, 42).unwrap();
        let b = elect_primary(&alive, 42).unwrap();
        assert_eq!(a, b);
        assert!(alive.contains(&a));
        assert_eq!(elect_primary(&[], 42), None);
    }

    #[test]
    fn election_moves_when_primary_dies() {
        let alive = vec![0, 1, 2, 3];
        let p = elect_primary(&alive, 7).unwrap();
        let survivors: Vec<u32> = alive.into_iter().filter(|&w| w != p).collect();
        let p2 = elect_primary(&survivors, 7).unwrap();
        assert_ne!(p, p2);
        assert!(survivors.contains(&p2));
    }

    #[test]
    fn broadcast_delay_is_milliseconds_for_bytes_level_payloads() {
        let m = BroadcastModel::default();
        let d = m.full_broadcast_delay(256);
        assert!(d.as_secs_f64() < 0.01, "{d}");
        assert!(d > SimDuration::ZERO);
        // Direct (node action) path is strictly cheaper.
        assert!(m.direct_delay(256) < d);
    }
}
