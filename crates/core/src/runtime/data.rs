//! Kernel data-plane: DDS shard leases, batch take, commit and rollback.
//!
//! Both runtime families consume data the same way — take up to a batch
//! quota across (possibly several) open shard leases, commit on a successful
//! push / round close, roll back on a dropped push or mid-compute death. The
//! only per-family difference is that a Parameter Server commit charges the
//! DDS fetch round-trip on the overhead ledger (a ring round folds it into
//! the round).
//!
//! A Parameter Server worker whose start finds the shard queue empty polls
//! again every [`DATA_POLL`] on a grid of its own. A poll can only succeed
//! once the queue changes, so the worker *parks* instead: it schedules
//! nothing, and barrier closes skip it. Each change that can feed it — a
//! kill's requeue, a Replay rewind, DDS completion — wakes every parked
//! worker, in park order, with one start at the first instant of its grid
//! at or after the change, where its retry chain would have found the
//! change. A start that finds a parked worker in any other state (it took
//! data after an outage lift, or its quota went to zero) turns the retry
//! its chain had pending into a real one the same way.

use super::kernel::Kernel;
use crate::config::ExecutionMode;
use crate::events::{Ev, RtEngine};
use antdt_dds::ShardLease;
use antdt_sim::{SimDuration, SimTime};

/// Extra per-iteration DDS state-synchronization stall (shard offsets, batch
/// cursors) charged on the worker's critical path and in the overhead ledger.
pub(crate) const DDS_SYNC_SECS: f64 = 0.002;
/// DDS round-trip when fetching / reporting a shard.
pub(crate) const DDS_FETCH_SECS: f64 = 0.005;
/// Spacing of a starving worker's poll grid: the retries it would make
/// while the shard queue is momentarily empty (epoch tail, DDS outage).
pub(crate) const DATA_POLL: SimDuration = SimDuration(5_000_000);

/// The first instant of the poll grid `first + k·DATA_POLL` at or after `now`.
fn next_poll(first: SimTime, now: SimTime) -> SimTime {
    if now <= first {
        return first;
    }
    let step = DATA_POLL.as_micros();
    first + SimDuration(now.since(first).as_micros().div_ceil(step) * step)
}

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
        let Kernel { workers, dds, overhead, cfg, .. } = self;
        let leases = &mut workers[w].leases;
        for lease in leases.iter_mut() {
            lease.committed = lease.consumed;
            if lease.committed >= lease.lease.shard.len {
                let dds = dds.as_mut().expect("dds source");
                dds.report_done(w as u32, lease.lease).expect("lease held by this worker");
                if cfg.arch.is_ps() {
                    overhead.add_dds(SimDuration::from_secs_f64(DDS_FETCH_SECS));
                }
            }
        }
        leases.retain(|l| l.committed < l.lease.shard.len);
    }

    /// Worker `w`'s start at `now` found no data to take: park it, unless
    /// it is parked already or a retry of its chain is still pending (a
    /// wake or an unpark scheduled one at or after `now`).
    pub(crate) fn park(&mut self, w: usize, now: SimTime) {
        let worker = &mut self.workers[w];
        if worker.parked || worker.poll_at > now {
            return;
        }
        worker.parked = true;
        worker.poll_at = now + DATA_POLL;
        self.parked.push(w as u32);
    }

    /// Take parked worker `w` off the park list. With `retry`, schedule the
    /// start its retry chain has pending: the first instant of its poll grid
    /// at or after `now`.
    pub(crate) fn unpark(&mut self, eng: &mut RtEngine, w: usize, retry: bool) {
        self.workers[w].parked = false;
        self.parked.retain(|&p| p as usize != w);
        if retry {
            self.schedule_retry(eng, w);
        }
    }

    fn schedule_retry(&mut self, eng: &mut RtEngine, w: usize) {
        let worker = &mut self.workers[w];
        worker.poll_at = next_poll(worker.poll_at, eng.now());
        eng.schedule(worker.poll_at, Ev::WorkerStart { w: w as u32, gen: worker.gen });
    }

    /// The shard queue or its completion changed: wake every parked
    /// worker, in park order, on its poll grid.
    pub(crate) fn wake_parked(&mut self, eng: &mut RtEngine) {
        for i in 0..self.parked.len() {
            let w = self.parked[i] as usize;
            self.workers[w].parked = false;
            self.schedule_retry(eng, w);
        }
        self.parked.clear();
    }

    /// Start worker `w` at `at` to look at a change (a delivered directive,
    /// a barrier close, a lifted outage). Nothing is scheduled before its
    /// barrier release: the start already pending there reads the change.
    pub(crate) fn poke(&self, eng: &mut RtEngine, w: usize, at: SimTime) {
        let worker = &self.workers[w];
        if at >= worker.next_allowed {
            eng.schedule(at, Ev::WorkerStart { w: w as u32, gen: worker.gen });
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
