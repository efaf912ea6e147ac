//! Consumption statistics (Fig. 3 / Fig. 16) and the data-integrity audit
//! (§VII-D2): the number of `DONE` shards must equal `⌈N/(B·M)⌉` per epoch no
//! matter how many failovers occurred.

use crate::shard::WorkerId;
use std::collections::BTreeMap;

/// Per-worker consumption counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerConsumption {
    pub shards_fetched: u64,
    pub samples_fetched: u64,
    pub shards_done: u64,
    pub samples_done: u64,
}

/// Aggregated consumption across the job.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ConsumptionStats {
    pub per_worker: BTreeMap<WorkerId, WorkerConsumption>,
    /// Shards flipped DOING→TODO due to worker failure/kill.
    pub requeued_shards: u64,
    /// Upper bound on re-processed samples (sum of requeued shard lengths).
    pub requeued_samples: u64,
}

impl ConsumptionStats {
    pub fn worker(&mut self, w: WorkerId) -> &mut WorkerConsumption {
        self.per_worker.entry(w).or_default()
    }
}

/// The integrity report: both semantics from the paper's §IV challenge 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IntegrityAudit {
    /// `K × epochs`: the number of DONE reports the job must produce.
    pub expected_done_shards: u64,
    pub done_shards: u64,
    /// Shards still TODO/DOING (nonzero means the job ended early).
    pub outstanding_shards: u64,
    pub requeued_shards: u64,
    /// Samples that may have been processed more than once.
    pub duplicate_samples_upper_bound: u64,
    /// Every sample reached DONE at least once in every epoch.
    pub at_least_once: bool,
    /// No shard was ever served twice (requires no failovers, or M=1 with exact
    /// resume — see module docs).
    pub at_most_once: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_entry_is_created_on_demand() {
        let mut s = ConsumptionStats::default();
        s.worker(3).shards_fetched += 1;
        s.worker(3).samples_fetched += 100;
        s.worker(5).shards_done += 2;
        s.worker(5).samples_done += 321;
        assert_eq!(s.per_worker.len(), 2);
        assert_eq!(s.per_worker[&5].samples_done, 321);
    }
}
