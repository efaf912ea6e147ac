//! Network cost model.
//!
//! Communication time `Tᵢᵐ` in the paper covers the worker↔server pull/push and
//! the AllReduce exchange. We model point-to-point links with latency + bandwidth
//! and an optional time-varying congestion factor (a congested server NIC is what
//! makes `KILL_RESTART` the only action that can shrink `Tᵢᵐ`).

use crate::time::SimTime;

/// A directed link with fixed latency and bandwidth plus congestion windows.
#[derive(Debug, Clone, PartialEq)]
pub struct Link {
    /// One-way latency in seconds.
    pub latency_secs: f64,
    /// Bandwidth in bytes/second.
    pub bandwidth_bps: f64,
    /// Congestion phases: `(from, to, factor ≥ 1)` multiply the transfer time.
    pub congestion: Vec<(SimTime, SimTime, f64)>,
}

impl Link {
    /// A typical datacenter link: 25 Gbit/s, 0.2 ms latency.
    pub fn datacenter() -> Self {
        Link { latency_secs: 2e-4, bandwidth_bps: 25.0e9 / 8.0, congestion: Vec::new() }
    }

    /// The paper's Cluster-B interconnect: 100 Gbit/s.
    pub fn gpu_cluster() -> Self {
        Link { latency_secs: 1e-4, bandwidth_bps: 100.0e9 / 8.0, congestion: Vec::new() }
    }

    pub fn with_congestion(mut self, from: SimTime, to: SimTime, factor: f64) -> Self {
        self.congestion.push((from, to, factor));
        self
    }

    /// Congestion factor at `now` (≥ 1).
    pub fn congestion_at(&self, now: SimTime) -> f64 {
        let mut f = 1.0;
        for &(from, to, factor) in &self.congestion {
            if now >= from && now < to {
                f *= factor.max(1.0);
            }
        }
        f
    }
}

/// Cost of a ring AllReduce of `bytes` gradient data over `n` ranks:
/// `2(n-1)/n * bytes / bandwidth + 2(n-1) * latency` — the standard
/// bandwidth-optimal ring (Horovod/NCCL) cost model.
pub fn ring_allreduce_secs(link: &Link, now: SimTime, n: usize, bytes: u64) -> f64 {
    if n <= 1 {
        return 0.0;
    }
    let nf = n as f64;
    let steps = 2.0 * (nf - 1.0);
    steps / nf * bytes as f64 / self_bandwidth(link, now) + steps * link.latency_secs
}

fn self_bandwidth(link: &Link, now: SimTime) -> f64 {
    link.bandwidth_bps / link.congestion_at(now)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn congestion_window_multiplies() {
        let l = Link {
            latency_secs: 0.0,
            bandwidth_bps: 1_000_000.0,
            congestion: vec![(SimTime::from_secs_f64(10.0), SimTime::from_secs_f64(20.0), 4.0)],
        };
        assert_eq!(l.congestion_at(SimTime::from_secs_f64(5.0)), 1.0);
        assert_eq!(l.congestion_at(SimTime::from_secs_f64(15.0)), 4.0);
        assert_eq!(l.congestion_at(SimTime::from_secs_f64(25.0)), 1.0);
    }

    #[test]
    fn allreduce_degenerate_cases() {
        let l = Link::gpu_cluster();
        assert_eq!(ring_allreduce_secs(&l, SimTime::ZERO, 1, 1 << 30), 0.0);
        assert_eq!(ring_allreduce_secs(&l, SimTime::ZERO, 0, 1 << 30), 0.0);
    }

    #[test]
    fn allreduce_scales_with_bytes_and_saturates_with_ranks() {
        let l = Link { latency_secs: 0.0, bandwidth_bps: 1e9, congestion: Vec::new() };
        let t2 = ring_allreduce_secs(&l, SimTime::ZERO, 2, 1_000_000_000);
        let t8 = ring_allreduce_secs(&l, SimTime::ZERO, 8, 1_000_000_000);
        // 2(n-1)/n -> factor 1.0 at n=2, 1.75 at n=8; bounded by 2.
        assert!((t2 - 1.0).abs() < 1e-9);
        assert!((t8 - 1.75).abs() < 1e-9);
        let t_big = ring_allreduce_secs(&l, SimTime::ZERO, 10_000, 1_000_000_000);
        assert!(t_big < 2.0 + 10_000.0 * 2.0 * l.latency_secs + 1e-9);
    }
}
