//! Kernel side of the checkpoint/state subsystem: snapshot capture on the
//! checkpoint cadence, the async storage drain, and replay-based restore.
//!
//! The data model and cost knobs live in the std-only leaf crate
//! [`antdt_ckpt`]; this module is the bridge that walks the kernel's world
//! (DDS queue, worker watermarks, PS parameters) into a [`Snapshot`] and back.
//! Every Parameter Server job checkpoints here. A server kill (and, under
//! [`FailoverMode::Replay`](crate::config::FailoverMode), a worker kill)
//! stages the last *durable* snapshot, the storage tier prices the
//! read-back, and [`Kernel::apply_ckpt_restore`] rewinds the DDS queue at
//! the restore instant — the lost iterations then replay through the
//! ordinary strategy drivers, so recovery time is emergent rather than
//! a closed-form estimate.

use super::kernel::Kernel;
use crate::events::{Ev, RtEngine};
use crate::report::{CkptRecord, ReplayRecord};
use antdt_attr::WaitCause;
use antdt_ckpt::{
    CkptConfig, DdsSnapshot, DrainQueue, PsState, Snapshot, SnapshotMeta, StorageTier, WorkerMark,
};
use antdt_sim::{SimDuration, SimTime};

/// Runtime state of the checkpoint subsystem: the one checkpoint model of a
/// Parameter Server job. Present on the kernel iff the job has servers; a
/// capture adds no events beyond its own re-arm and draws no randomness.
#[derive(Clone)]
pub(crate) struct CkptRt {
    pub(crate) tier: StorageTier,
    /// Seconds the capture stalls live servers (copy-on-snapshot pause).
    pub(crate) capture_stall_secs: f64,
    /// Serializes snapshot writes to the tier: captures overlap training, but
    /// a snapshot is only *durable* once its drain write completes.
    pub(crate) drain: DrainQueue,
    /// Snapshots written but not yet durable, as `(durable_at_us, snapshot)`
    /// in drain (= capture) order.
    pub(crate) pending: Vec<(u64, Snapshot)>,
    /// The newest snapshot whose drain write has completed.
    pub(crate) durable: Option<Snapshot>,
    /// Snapshot staged by a restoring kill, applied at the restore instant.
    pub(crate) pending_restore: Option<Snapshot>,
    pub(crate) records: Vec<CkptRecord>,
    pub(crate) restores: Vec<ReplayRecord>,
}

impl CkptRt {
    pub(crate) fn new(c: CkptConfig) -> Self {
        CkptRt {
            tier: c.tier,
            capture_stall_secs: c.capture_stall_secs,
            drain: DrainQueue::default(),
            pending: Vec::new(),
            durable: None,
            pending_restore: None,
            records: Vec::new(),
            restores: Vec::new(),
        }
    }

    /// Heap bytes the subsystem owns beyond its inline size: the snapshots
    /// it holds (pending drains, the durable one, a staged restore) and its
    /// record lists.
    pub(crate) fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        let held =
            self.pending.iter().map(|(_, s)| s).chain(&self.durable).chain(&self.pending_restore);
        held.map(Snapshot::heap_bytes).sum::<usize>()
            + self.pending.capacity() * size_of::<(u64, Snapshot)>()
            + self.records.capacity() * size_of::<CkptRecord>()
            + self.restores.capacity() * size_of::<ReplayRecord>()
    }

    /// Promote every pending snapshot whose drain write completed by `now_us`
    /// to the durable slot (drain order is capture order, so the last
    /// qualifying entry is the newest).
    fn promote_durable(&mut self, now_us: u64) {
        while let Some((at, _)) = self.pending.first() {
            if *at > now_us {
                break;
            }
            let (_, snap) = self.pending.remove(0);
            self.durable = Some(snap);
        }
    }
}

impl Kernel {
    /// The fixed checkpoint interval, from the job start to the first capture
    /// and between every two later ones.
    pub(crate) fn ckpt_interval(&self) -> SimDuration {
        SimDuration::from_secs_f64(self.cfg.ckpt.interval_secs())
    }

    /// Walk the world into a snapshot: DDS queue + shard states, per-worker
    /// progress watermarks, and (real-math mode) the PS parameter vector.
    fn ckpt_build_snapshot(&self, now: SimTime) -> Snapshot {
        let dds = self.dds.as_ref().map(|d| d.export_ckpt());
        let workers = self
            .workers
            .iter()
            .enumerate()
            .map(|(i, w)| WorkerMark {
                worker: i as u32,
                gen: w.gen,
                samples: self.dds.as_ref().map_or(0, |d| d.worker_samples_done(i as u32)),
            })
            .collect();
        let params = self.math.as_ref().map_or_else(Vec::new, |m| m.model.params().to_vec());
        Snapshot {
            meta: SnapshotMeta {
                seed: self.cfg.seed,
                taken_at_us: now.as_micros(),
                iteration: self.iterations,
                samples_done: self.samples_done,
            },
            ps: PsState { params, model_bytes: self.cfg.model.param_bytes },
            dds,
            workers,
        }
    }

    /// Capture one checkpoint: stall the live servers for the copy, hand the
    /// bytes to the async drain (training resumes immediately; durability
    /// lands when the tier write completes) and re-arm one fixed interval
    /// later.
    pub(crate) fn ckpt_capture(&mut self, eng: &mut RtEngine) {
        if self.finished {
            return;
        }
        let now = eng.now();
        if let Some(tele) = &mut self.tele {
            tele.tracer.instant("checkpoint", "lifecycle", now.as_micros(), 0, &[]);
        }
        // A nonzero capture stall perturbs the servers' booking, so the stall
        // itself is the divergence condition, even while every server is down.
        if self.ckpt_rt.as_ref().is_some_and(|c| c.capture_stall_secs > 0.0) {
            self.mark_ckpt_stall(now);
        }
        let snap = self.ckpt_build_snapshot(now);
        let bytes = snap.size_bytes();
        let digest = snap.digest();
        let interval = self.ckpt_interval();

        let Some(c) = self.ckpt_rt.as_mut() else {
            return;
        };
        // The capture itself blocks the servers briefly (copy-on-snapshot);
        // the tier write then drains asynchronously.
        let stall = c.capture_stall_secs;
        let write_secs = c.tier.write_secs(bytes);
        let durable_at_us = c.drain.begin_write(now.as_micros(), write_secs);
        c.records.push(CkptRecord { taken_at_us: now.as_micros(), durable_at_us, bytes, digest });
        c.pending.push((durable_at_us, snap));
        c.promote_durable(now.as_micros());

        for j in 0..self.servers.len() {
            if self.servers[j].alive {
                let base = self.servers[j].free_at.max(now);
                let end = base + SimDuration::from_secs_f64(stall);
                self.servers[j].free_at = end;
                self.attr_fill(super::attr::SERVER_LANE + j as u32, base, WaitCause::SyncWait);
                self.attr_fill(super::attr::SERVER_LANE + j as u32, end, WaitCause::CkptStall);
            }
        }
        eng.schedule(now + interval, Ev::Checkpoint);
    }

    /// A restoring kill at `now`: settle drain completions, stage the newest
    /// durable snapshot for the restore, and price the read-back. Returns the
    /// tier read time to fold into the replacement pod's delay. With no
    /// durable snapshot yet the stage is an empty snapshot — the rewind then
    /// replays *everything* done so far (cold restart from data zero).
    pub(crate) fn stage_ckpt_restore(&mut self, now: SimTime) -> SimDuration {
        let Some(c) = self.ckpt_rt.as_mut() else {
            return SimDuration::from_secs_f64(0.0);
        };
        c.promote_durable(now.as_micros());
        let snap = c.durable.clone().unwrap_or_default();
        let read_secs = c.tier.read_secs(snap.size_bytes());
        // A later kill at the same or a following instant re-stages; only the
        // last staged snapshot is applied (one restore per recovery).
        c.pending_restore = Some(snap);
        SimDuration::from_secs_f64(read_secs)
    }

    /// The staged snapshot finished streaming back: rewind the DDS queue to
    /// the snapshot's shard states (work completed after the snapshot goes
    /// back to TODO and replays), and restore the PS parameter vector. Runs
    /// at the restore instant — surviving workers' live DOING leases are
    /// untouched and commit normally. No-op when nothing is staged (a second
    /// restore of the same recovery) or the job finished meanwhile.
    pub(crate) fn apply_ckpt_restore(&mut self, eng: &mut RtEngine) {
        let Some(snap) = self.ckpt_rt.as_mut().and_then(|c| c.pending_restore.take()) else {
            return;
        };
        if self.finished {
            return;
        }
        let now = eng.now();
        let empty = DdsSnapshot::default();
        let (requeued_shards, requeued_samples) = match &mut self.dds {
            Some(d) => d.rewind_ckpt(snap.dds.as_ref().unwrap_or(&empty)),
            None => (0, 0),
        };
        self.replayed_samples += requeued_samples;
        if requeued_shards > 0 {
            self.wake_parked(eng);
        }
        if let Some(m) = self.math.as_mut() {
            let dst = m.model.params_mut();
            if dst.len() == snap.ps.params.len() {
                dst.copy_from_slice(&snap.ps.params);
            }
        }
        if let Some(tele) = &mut self.tele {
            tele.tracer.instant(
                "ckpt-restore",
                "lifecycle",
                now.as_micros(),
                0,
                &[("requeued_shards", &requeued_shards.to_string())],
            );
        }
        if let Some(c) = self.ckpt_rt.as_mut() {
            c.restores.push(ReplayRecord {
                restored_at_us: now.as_micros(),
                snapshot_at_us: snap.meta.taken_at_us,
                requeued_shards,
                requeued_samples,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::JobConfig;
    use antdt_controller::NoMitigation;
    use antdt_workloads::cluster::cluster_a_scaled;
    use antdt_workloads::Scenario;

    /// A fork of a PS run copies the snapshots its checkpoint subsystem
    /// holds, so the byte estimate a snapshot cache charges must count them.
    #[test]
    fn estimate_counts_the_snapshots_the_subsystem_holds() {
        let cfg = JobConfig::ps_bsp(cluster_a_scaled(4, 2), Scenario::None);
        let mut k = Kernel::new(cfg, Box::new(NoMitigation));
        let mut eng = RtEngine::new();
        let before = k.estimate_bytes();
        k.ckpt_capture(&mut eng);
        let c = k.ckpt_rt.as_ref().expect("a PS job checkpoints");
        let held: usize = c
            .pending
            .iter()
            .map(|(_, s)| s)
            .chain(&c.durable)
            .chain(&c.pending_restore)
            .map(Snapshot::heap_bytes)
            .sum();
        assert!(held > 0, "the capture holds a snapshot with a DDS queue image");
        assert!(
            k.estimate_bytes() >= before + held,
            "estimate {} must grow from {before} by at least the held {held} image bytes",
            k.estimate_bytes()
        );
    }

    /// The Fig. 17 sweep point at 2% of the clean JCT: a fixed interval that
    /// is not a whole µs. Capture `k` lands at `k` rounded intervals from the
    /// job start, under either worker recovery, and the cadence logs no
    /// decision record.
    #[test]
    fn fractional_fixed_interval_captures_on_its_grid_and_logs_no_decision() {
        use crate::config::{FailoverMode, Fault, FaultEvent, NodeRef};
        use crate::job::Job;
        use antdt_ckpt::CkptPolicy;
        const INTERVAL_SECS: f64 = 3.0655489;
        let step_us = SimDuration::from_secs_f64(INTERVAL_SECS).as_micros();
        assert_ne!(step_us as f64, INTERVAL_SECS * 1e6, "the interval must not be a whole µs");
        for mode in [FailoverMode::Replay, FailoverMode::DdsBased] {
            // Both setters name the same cadence: the rounded duration and
            // the raw seconds.
            let cfg = JobConfig::ps_bsp(cluster_a_scaled(8, 3), Scenario::None)
                .with_global_batch(8_192)
                .with_samples(1_000_000)
                .with_batches_per_shard(10)
                .with_fast_cadence(SimDuration::from_secs(60))
                .with_seed(29)
                .with_injections(vec![FaultEvent {
                    at_secs: 46.0,
                    fault: Fault::KillNode { node: NodeRef::Worker(1) },
                }])
                .with_checkpoint_interval(SimDuration::from_secs_f64(INTERVAL_SECS))
                .with_ckpt(CkptConfig {
                    tier: StorageTier::ObjectStore,
                    policy: CkptPolicy::Fixed { interval_secs: INTERVAL_SECS },
                    capture_stall_secs: 2.0,
                })
                .with_failover_mode(mode);
            let report = Job::run(cfg);
            let rules: Vec<&str> = report
                .decision_log
                .iter()
                .map(|d| d.rule.as_str())
                .filter(|r| r.starts_with("ckpt"))
                .collect();
            assert!(rules.is_empty(), "{mode:?} logged cadence decisions {rules:?}");
            let ckpt = report.ckpt.as_ref().expect("a PS job checkpoints");
            assert!(ckpt.snapshots.len() > 40, "{mode:?}: {} captures", ckpt.snapshots.len());
            for (k, snap) in (1..).zip(&ckpt.snapshots) {
                assert_eq!(snap.taken_at_us, k * step_us, "{mode:?} capture {k}");
            }
            assert_eq!(ckpt.final_interval_secs, INTERVAL_SECS);
        }
    }
}
