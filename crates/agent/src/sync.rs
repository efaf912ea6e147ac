//! The synchronization mechanism for global actions (paper Fig. 6).
//!
//! The Controller answers the *primary* agent's report; the primary then
//! broadcasts the action to every secondary agent in parallel. All deliveries
//! carry a small latency; training processes pick the action up at their next
//! iteration boundary, which realizes the "same iteration" guarantee without
//! ever suspending training.

use antdt_sim::SimDuration;

// Cost model for the agent control-plane messages (bytes-level signals, so
// latency dominates).

/// Controller → primary one-way latency.
const CTRL_LATENCY_SECS: f64 = 2e-3;
/// Primary → secondary one-way latency (parallel fan-out).
const FANOUT_LATENCY_SECS: f64 = 1e-3;
/// Effective bandwidth for the payload.
const BANDWIDTH_BPS: f64 = 1.0e9;
/// Local barrier hand-off between agent and training process.
pub const BARRIER_SECS: f64 = 5e-4;

/// Time from the Controller's decision until *every* agent holds the action:
/// controller→primary, then the parallel fan-out, then the local barrier.
pub fn full_broadcast_delay(payload_bytes: u64) -> SimDuration {
    let xfer = payload_bytes as f64 / BANDWIDTH_BPS;
    SimDuration::from_secs_f64(CTRL_LATENCY_SECS + xfer + FANOUT_LATENCY_SECS + xfer + BARRIER_SECS)
}

/// Delay for a node action sent directly to one agent.
pub fn direct_delay(payload_bytes: u64) -> SimDuration {
    let xfer = payload_bytes as f64 / BANDWIDTH_BPS;
    SimDuration::from_secs_f64(CTRL_LATENCY_SECS + xfer + BARRIER_SECS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn broadcast_delay_is_milliseconds_for_bytes_level_payloads() {
        let d = full_broadcast_delay(256);
        assert!(d.as_secs_f64() < 0.01, "{d}");
        assert!(d > SimDuration::ZERO);
        // Direct (node action) path is strictly cheaper.
        assert!(direct_delay(256) < d);
    }
}
