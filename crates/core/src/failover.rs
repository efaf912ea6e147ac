//! Failover time composition (paper §V-E2/§V-E3 and Fig. 17).
//!
//! A `KILL_RESTART` costs, on the scheduling side, pod pending time + node
//! initialization, and on the application side, communication-world rebuild
//! plus recovery work. The recovery work is where AntDT wins on workers:
//! under DDS-based failover the servers still hold the latest parameters, so
//! only the crashed worker's `DOING` shards are requeued and recomputed — a
//! small constant, modeled here in closed form as the predictor the chaos
//! drills check the simulator against. Checkpoint-based recovery has no
//! formula: it runs live through the `antdt-ckpt` subsystem (`experiments
//! fig17` sweeps it against the checkpoint interval).

/// Application-side delay of one worker failover under the DDS-based scheme:
/// rebuild the communication world and recompute only the crashed worker's
/// in-flight shard (`shard_samples / throughput`).
pub fn dds_failover_delay_secs(
    world_rebuild_secs: f64,
    shard_samples: u64,
    worker_throughput: f64,
) -> f64 {
    let recompute =
        if worker_throughput > 0.0 { shard_samples as f64 / worker_throughput } else { 0.0 };
    world_rebuild_secs + recompute
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dds_delay_is_small_and_interval_independent() {
        // ~2 minutes in the paper: rebuild + one shard's recompute.
        let d = dds_failover_delay_secs(45.0, 160_000, 2000.0);
        assert!((60.0..300.0).contains(&d), "dds delay {d}");
        assert_eq!(dds_failover_delay_secs(45.0, 100, 0.0), 45.0);
    }
}
