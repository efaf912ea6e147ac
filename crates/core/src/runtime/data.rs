//! Kernel data-plane: DDS shard leases, batch take, commit and rollback.
//!
//! Both runtime families consume data the same way — take up to a batch
//! quota across (possibly several) open shard leases, commit on a successful
//! push / round close, roll back on a dropped push or mid-compute death. The
//! only per-family difference is that a Parameter Server commit charges the
//! DDS fetch round-trip on the overhead ledger (a ring round folds it into
//! the round).

use super::kernel::Kernel;
use crate::config::ExecutionMode;
use antdt_dds::ShardLease;
use antdt_sim::{SimDuration, SimTime};

/// Extra per-iteration DDS state-synchronization stall (shard offsets, batch
/// cursors) charged on the worker's critical path and in the overhead ledger.
pub(crate) const DDS_SYNC_SECS: f64 = 0.002;
/// DDS round-trip when fetching / reporting a shard.
pub(crate) const DDS_FETCH_SECS: f64 = 0.005;
/// Retry delay when the shard queue is momentarily empty (end of epoch).
pub(crate) const DATA_POLL: SimDuration = SimDuration(5_000_000);

/// One open shard lease plus the worker's consumption cursor into it.
#[derive(Clone)]
pub struct LeaseState {
    pub(crate) lease: ShardLease,
    /// Concrete sample order (real-math mode only).
    pub(crate) order: Option<Vec<u64>>,
    pub(crate) consumed: u64,
    /// Samples already folded into a committed gradient.
    pub(crate) committed: u64,
}

/// Where a worker's samples come from: the stateful DDS, or a fixed even
/// partition (the native-baseline data plane).
#[derive(Clone)]
pub enum DataSource {
    Dds,
    Fixed { remaining: u64 },
}

impl Kernel {
    /// Take up to `want` samples from the worker's source. A batch may span
    /// shard boundaries: multiple leases stay open (uncommitted) until the
    /// push succeeds, so a dropped push can still roll back every one of them.
    /// Returns samples taken (< `want` only when the shard queue is exhausted).
    pub(crate) fn take_batch(&mut self, w: usize, want: u64) -> u64 {
        if want == 0 {
            return 0;
        }
        match &mut self.workers[w].source {
            DataSource::Fixed { remaining } => {
                let take = want.min(*remaining);
                *remaining -= take;
                take
            }
            DataSource::Dds => {
                let mut total = 0u64;
                while total < want {
                    let need_fetch = match self.workers[w].leases.last() {
                        Some(l) => l.consumed >= l.lease.shard.len,
                        None => true,
                    };
                    if need_fetch {
                        let dds = self.dds.as_mut().expect("dds source");
                        match dds.fetch(w as u32) {
                            Some(lease) => {
                                let order = match &self.cfg.execution {
                                    ExecutionMode::Real { .. } => Some(dds.sample_order(&lease)),
                                    ExecutionMode::Simulated => None,
                                };
                                self.overhead.add_dds(SimDuration::from_secs_f64(DDS_FETCH_SECS));
                                self.workers[w].leases.push(LeaseState {
                                    lease,
                                    order,
                                    consumed: 0,
                                    committed: 0,
                                });
                            }
                            None => break,
                        }
                    }
                    let lease = self.workers[w].leases.last_mut().expect("lease ensured");
                    let take = (want - total).min(lease.lease.shard.len - lease.consumed);
                    lease.consumed += take;
                    total += take;
                }
                total
            }
        }
    }

    /// Commit the in-flight consumption after a successful push; fully
    /// consumed shards go DONE in the DDS, a trailing partial lease stays open.
    /// `at` is the commit instant (barrier close / push ready time); it marks
    /// chaos-drill recovery — the first committed work after a restart means
    /// the node is back on full duty.
    pub(crate) fn commit(&mut self, w: usize, at: SimTime) {
        // Empty outside chaos drills: skip the hash on the hot path.
        if !self.chaos_awaiting_recovery.is_empty() {
            if let Some(idx) = self.chaos_awaiting_recovery.remove(&(w as u32)) {
                if self.injections_log[idx].recovered_at.is_none() {
                    self.injections_log[idx].recovered_at = Some(at);
                }
            }
        }
        if let DataSource::Fixed { .. } = self.workers[w].source {
            return; // committed at take time
        }
        let mut finished = Vec::new();
        for lease in &mut self.workers[w].leases {
            lease.committed = lease.consumed;
            if lease.committed >= lease.lease.shard.len {
                finished.push(lease.lease);
            }
        }
        self.workers[w].leases.retain(|l| l.committed < l.lease.shard.len);
        if !finished.is_empty() {
            let dds = self.dds.as_mut().expect("dds source");
            for l in finished {
                dds.report_done(w as u32, l).expect("lease held by this worker");
                if self.cfg.arch.is_ps() {
                    self.overhead.add_dds(SimDuration::from_secs_f64(DDS_FETCH_SECS));
                }
            }
        }
    }

    /// Roll back uncommitted consumption (dropped push or mid-compute death).
    pub(crate) fn rollback(&mut self, w: usize, took: u64) {
        self.rolled_back_samples += took;
        match &mut self.workers[w].source {
            DataSource::Fixed { remaining } => *remaining += took,
            DataSource::Dds => {
                for lease in &mut self.workers[w].leases {
                    lease.consumed = lease.committed;
                }
            }
        }
    }
}
