//! Kernel reporting: sample accounting, the finish check and the final
//! [`JobReport`] assembly — identical for every strategy, so the report shape
//! can never drift between runtime families again.

use super::data::DataSource;
use super::kernel::Kernel;
use crate::config::{DataStrategy, ExecutionMode};
use crate::events::RtEngine;
use crate::report::{CkptReport, JobReport};
use antdt_sim::{SimDuration, SimTime};

/// Bucket width of the global-throughput series (samples/sec, Fig. 14).
pub(crate) const THROUGHPUT_BUCKET: SimDuration = SimDuration(60_000_000);

impl Kernel {
    /// Account `samples` completed at `at` into the progress watermark and the
    /// bucketed global-throughput series.
    pub(crate) fn account_samples(&mut self, at: SimTime, samples: u64) {
        if samples > 0 {
            self.last_progress = self.last_progress.max(at);
        }
        self.samples_done += samples;
        self.bucket_samples += samples;
        while at.since(self.bucket_start) >= THROUGHPUT_BUCKET {
            let mid = self.bucket_start + THROUGHPUT_BUCKET / 2;
            self.throughput.push(mid, self.bucket_samples as f64 / THROUGHPUT_BUCKET.as_secs_f64());
            self.bucket_start += THROUGHPUT_BUCKET;
            self.bucket_samples = 0;
        }
    }

    /// Finish when the data plane is drained and nothing is in flight.
    pub(crate) fn check_finished(&mut self, eng: &mut RtEngine) {
        if self.finished {
            return;
        }
        let data_done = match self.cfg.data {
            DataStrategy::Dds => self.dds.as_ref().unwrap().is_complete(),
            DataStrategy::EvenPartition => {
                self.workers.iter().all(|w| matches!(w.source, DataSource::Fixed { remaining: 0 }))
            }
        };
        let no_inflight = self.workers.iter().all(|w| w.inflight.is_none());
        if data_done && no_inflight {
            self.finished = true;
            eng.clear();
        }
    }

    /// Consume the world into the final report. `eng` is the job's engine,
    /// whose event counts the report carries.
    pub(crate) fn into_report(mut self, eng: &RtEngine) -> JobReport {
        let events_processed = eng.processed();
        // Fence rejections audited after the last monitor tick still belong
        // in the decision log.
        let mut late_audit = self.bus.drain_decision_audit();
        self.decision_log.append(&mut late_audit);
        let directives = self.bus.take_directives();
        // Finalize the attribution ledger at the measured JCT before the
        // telemetry render so its counter tracks land in the same bundle.
        let jct_us = self.jct_mark.since(SimTime::ZERO).as_micros();
        let attr_ledger = self.attr.take().map(|mut rt| {
            rt.ledger.finalize(jct_us);
            rt.ledger
        });
        // Rendered in place, so the recorder — the bulk of a telemetry-armed
        // job's small allocations — is freed with the rest of the kernel,
        // after its large buffers. Freed first, the small chunks get
        // consolidated by those large frees, which shifts allocator work
        // onto or off whatever the caller times next.
        let scheduled = eng.scheduled();
        let metrics = self
            .tele
            .as_ref()
            .map(|rt| crate::obs::job_metrics(&self, rt.runtime, scheduled, events_processed));
        let telemetry = self.tele.as_mut().zip(metrics).map(|(rt, metrics)| {
            // Merge the Gantt spans into the trace before rendering: they are
            // the bulk of the Perfetto timeline (compute/comm/idle/failover
            // lanes per node).
            if let Some(g) = &self.gantt {
                rt.tele.tracer.extend(g.to_trace_events());
            }
            if let Some(l) = &attr_ledger {
                super::attr::export_telemetry(l, &metrics, &mut rt.tele.tracer);
            }
            let reason = if self.stalled {
                "stalled"
            } else if self.timed_out {
                "timed-out"
            } else {
                "completed"
            };
            rt.tele.report(&metrics, reason)
        });
        let attr = attr_ledger.map(|l| super::attr::report_of(&l, jct_us));
        let ckpt = self.ckpt_rt.take().map(|rt| CkptReport {
            failover: self.cfg.failover,
            snapshots: rt.records,
            restores: rt.restores,
            final_interval_secs: rt.interval_now,
        });
        let auc = match (&self.math, &self.cfg.execution) {
            (Some(math), ExecutionMode::Real { holdout, .. }) if !holdout.is_empty() => {
                let scores = math.model.scores(holdout);
                let labels: Vec<f32> = holdout.labels().collect();
                antdt_ml::auc(&scores, &labels)
            }
            _ => None,
        };
        JobReport {
            jct: self.jct_mark.since(SimTime::ZERO),
            iterations: self.iterations,
            samples_done: self.samples_done,
            rolled_back_samples: self.rolled_back_samples,
            replayed_samples: self.replayed_samples,
            timed_out: self.timed_out,
            stalled: self.stalled,
            // `self` is consumed here, so the per-node series move into the
            // report instead of deep-cloning every (time, value) vector.
            worker_bpt: self
                .workers
                .iter_mut()
                .map(|w| std::mem::take(&mut w.series_bpt))
                .collect(),
            worker_batch: self
                .workers
                .iter_mut()
                .map(|w| std::mem::take(&mut w.series_batch))
                .collect(),
            server_bpt: self
                .servers
                .iter_mut()
                .map(|s| std::mem::take(&mut s.series_bpt))
                .collect(),
            global_throughput: self.throughput,
            actions: self.actions,
            kills: self.kills,
            restarts: self.restarts,
            injections: self.injections_log,
            action_log: self.action_log,
            directives,
            overhead: self.overhead,
            audit: self.dds.as_ref().map(|d| d.audit()),
            consumption: self.dds.as_ref().map(|d| d.consumption()),
            auc,
            gantt: self.gantt,
            events_processed,
            decision_log: self.decision_log,
            telemetry,
            ckpt,
            attr,
            divergence: {
                let mut marks = self.marks;
                marks.control_modeled = self.bus.control_divergence();
                marks
            },
        }
    }
}
