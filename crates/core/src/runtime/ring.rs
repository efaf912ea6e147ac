//! The round-driven ring runtime: AllReduce (PyTorch-DDP-style) rounds over
//! the shared kernel.
//!
//! All ranks synchronize every round (BSP only): each device computes `Cᵢ`
//! sequential micro-batches of `Bᵢ` samples, then a ring AllReduce of the
//! model gradients closes the round. Native DDP fixes `Bᵢ = B/n, Cᵢ = 1`;
//! LB-BSP rebalances `Bᵢ`; AntDT-DD jointly picks `(Bᵢ, Cᵢ)` (§VI-B, Fig. 9).

use super::data::DataSource;
use super::kernel::Kernel;
use super::ml_bridge;
use crate::config::{DataStrategy, Fault, NodeRef};
use crate::events::{Ev, RtEngine};
use crate::report::ActionApplication;
use antdt_agent::BARRIER_SECS;
use antdt_attr::WaitCause;
use antdt_controller::Action;
use antdt_monitor::NodeId;
use antdt_sim::gantt::SpanKind;
use antdt_sim::network::ring_allreduce_secs;
use antdt_sim::{SimDuration, SimTime};

/// One rank's contribution to the open round.
#[derive(Clone)]
struct Part {
    w: usize,
    took: u64,
    compute_secs: f64,
    grad: Option<Vec<f32>>,
}

/// The ring-AllReduce runtime: one optimizer step per communication round.
/// A killed rank leaves the ring for good (no per-rank restart in DDP); with
/// failover its shards requeue and the surviving ranks absorb them.
#[derive(Clone, Default)]
pub struct RingAllReduce {
    round: u64,
    round_start: SimTime,
    parts: Vec<Part>,
}

impl RingAllReduce {
    /// Route one ring event: only the open round's end moves the job
    /// (round-driven jobs have no PS-style lifecycle events).
    pub(crate) fn on_event(&mut self, k: &mut Kernel, eng: &mut RtEngine, ev: Ev) {
        if matches!(ev, Ev::RoundEnd { round } if round == self.round) {
            self.close_round(k, eng);
        }
    }

    /// Execute a kill-class chaos injection: the rank leaves the ring.
    pub(crate) fn inject_kill(&mut self, k: &mut Kernel, eng: &mut RtEngine, fault: &Fault) {
        let now = eng.now();
        match *fault {
            Fault::KillNode { node: NodeRef::Worker(w) } => self.kill_rank(k, now, w, true),
            Fault::KillNodeNoFailover { node: NodeRef::Worker(w) } => {
                self.kill_rank(k, now, w, false)
            }
            _ => unreachable!("server kills and restart delays are validated out for ring runtimes; windowed faults are kernel-handled"),
        }
    }

    /// Open a round: every live rank applies its delivered actions, computes
    /// its micro-batches, and the slowest participant sets the ring start.
    fn start_round(&mut self, k: &mut Kernel, eng: &mut RtEngine) {
        let now = eng.now();
        self.round_start = now;
        self.parts.clear();
        let mut max_end = now;

        for w in 0..k.workers.len() {
            if !k.workers[w].alive {
                continue;
            }
            let mut due = std::mem::take(&mut k.actions_scratch);
            k.bus.drain_actions_into(w, now, &mut due);
            let ctrl_us = k.attr_ctrl_lag_us(now, &due);
            for (delivered_at, a, text) in due.drain(..) {
                if !k.cfg.injections.is_empty() {
                    k.action_log.push(ActionApplication {
                        worker: w as u32,
                        delivered_at,
                        applied_at: now,
                        iter: self.round,
                        action: text,
                    });
                }
                k.apply_worker_action(w, a);
            }
            k.actions_scratch = due;
            // Round boundary: close the rank's open idle gap (pending cause
            // plus any control-bus share).
            k.attr_sync(w as u32, now, ctrl_us);
            let accum = k.workers[w].accum.max(1);
            let quota = k.workers[w].quota;
            k.mark_worker_contended(w, now);
            let mut took = 0u64;
            let mut compute = 0.0f64;
            for _ in 0..accum {
                let got = k.take_batch(w, quota);
                if got == 0 {
                    break;
                }
                took += got;
                let base = k.cfg.model.compute.time(got, k.workers[w].device.speed);
                compute += k.worker_iteration_secs(w, now, base);
            }
            if took == 0 {
                // The rank sits this round out waiting for data.
                k.attr_pending(w as u32, WaitCause::DataWait);
                continue;
            }
            k.attr_fill(w as u32, now + SimDuration::from_secs_f64(compute), WaitCause::Compute);
            let grad = k.real_grad(w, took);
            if let Some(g) = k.gantt.as_mut() {
                g.record(
                    w as u32,
                    SpanKind::Compute,
                    now,
                    now + SimDuration::from_secs_f64(compute),
                );
            }
            max_end = max_end.max(now + SimDuration::from_secs_f64(compute));
            self.parts.push(Part { w, took, compute_secs: compute, grad });
        }

        if self.parts.is_empty() {
            let complete = k.dds.as_ref().map(|d| d.is_complete()).unwrap_or(true)
                && match k.cfg.data {
                    DataStrategy::EvenPartition => k
                        .workers
                        .iter()
                        .all(|r| matches!(r.source, DataSource::Fixed { remaining: 0 })),
                    DataStrategy::Dds => true,
                };
            if complete {
                k.finished = true;
                eng.clear();
            } else {
                // Shard queue momentarily empty: retry shortly.
                let round = self.round;
                eng.schedule_after(SimDuration::from_secs(1), Ev::RoundEnd { round });
            }
            return;
        }

        // Ring AllReduce over the participating ranks.
        let link = &k.workers[0].link;
        let ar = ring_allreduce_secs(link, max_end, self.parts.len(), k.cfg.model.param_bytes);
        let end = max_end + SimDuration::from_secs_f64(ar);
        if let Some(g) = k.gantt.as_mut() {
            for p in &self.parts {
                g.record(
                    p.w as u32,
                    SpanKind::Idle,
                    self.round_start + SimDuration::from_secs_f64(p.compute_secs),
                    max_end,
                );
                g.record(p.w as u32, SpanKind::Comm, max_end, end);
            }
        }
        if k.attr.is_some() {
            let mut arrs: Vec<(u32, u64)> = Vec::with_capacity(self.parts.len());
            for p in &self.parts {
                // The ring can't start until the slowest rank finishes its
                // compute: idle until then, Comm for the AllReduce itself.
                let done = self.round_start + SimDuration::from_secs_f64(p.compute_secs);
                k.attr_fill(p.w as u32, max_end, WaitCause::SyncWait);
                k.attr_fill(p.w as u32, end, WaitCause::Comm);
                arrs.push((p.w as u32, done.as_micros()));
            }
            k.attr_barrier(self.round, &arrs);
        }
        eng.schedule(end, Ev::RoundEnd { round: self.round });
    }

    /// Close the round: sample-weighted optimizer step, commit every
    /// contribution, account the round's throughput, open the next round.
    fn close_round(&mut self, k: &mut Kernel, eng: &mut RtEngine) {
        let now = eng.now();
        if self.round == 0 && self.parts.is_empty() && self.round_start == SimTime::ZERO {
            // Bootstrap event.
            self.start_round(k, eng);
            return;
        }
        // Iterate `self.parts` in place — `start_round` clears and refills the
        // same buffer, so the per-round `Vec` allocation happens exactly once
        // per job instead of once per round.
        // Math: sample-weighted mean of the per-rank accumulated gradients.
        {
            let contribs: Vec<(u64, &[f32])> =
                self.parts.iter().filter_map(|p| Some((p.took, p.grad.as_deref()?))).collect();
            ml_bridge::weighted_step(&mut k.math, &contribs, k.cfg.global_batch);
        }
        for g in self.parts.iter_mut().filter_map(|p| p.grad.take()) {
            ml_bridge::recycle(&mut k.math, g);
        }
        let mut round_samples = 0u64;
        for p in &self.parts {
            k.commit(p.w, now);
            round_samples += p.took;
            k.workers[p.w].series_bpt.push(now, p.compute_secs.max(0.0));
            k.workers[p.w].series_batch.push(now, p.took as f64);
            if k.bus.report_due(p.w) && !k.report_dropped() {
                // Reported BPT: the device's own compute time (what AntDT-DD
                // estimates costs from), not the barrier-inclusive round time.
                super::bus::send_report(
                    k,
                    eng,
                    NodeId::worker(p.w as u32),
                    now,
                    p.compute_secs,
                    p.took,
                );
                k.overhead.add_sync(SimDuration::from_secs_f64(BARRIER_SECS));
            }
        }
        if round_samples > 0 {
            k.last_progress = k.last_progress.max(now);
            k.samples_done += round_samples;
            // Rounds are long; report the instantaneous rate directly rather
            // than through the kernel's bucketed accumulator.
            k.throughput.push(
                now,
                round_samples as f64 / now.since(self.round_start).as_secs_f64().max(1e-9),
            );
            k.jct_mark = now;
            self.round += 1;
            k.iterations += 1;
        }
        self.start_round(k, eng);
    }

    /// Kill rank `w`. With failover its open leases requeue for the survivors;
    /// without, they stay stuck DOING and the watchdog must catch the stall.
    fn kill_rank(&mut self, k: &mut Kernel, now: SimTime, w: u32, failover: bool) {
        let wi = w as usize;
        if !k.workers[wi].alive {
            return;
        }
        k.workers[wi].alive = false;
        k.workers[wi].leases.clear();
        // A killed rank never rejoins a DDP ring: freeze its timeline here.
        k.attr_kill(w, now, true);
        k.kills.push((now, NodeId::worker(w)));
        if let Some(tele) = &mut k.tele {
            tele.tracer.instant("rank-kill", "lifecycle", now.as_micros(), w, &[]);
        }
        if failover {
            if let Some(dds) = &mut k.dds {
                dds.fail_worker(w);
            }
        }
    }
}

/// Deliver one Controller action decided at a monitor tick: every global
/// action goes to every rank, dead or alive — the round open applies
/// whatever arrived, and dead ranks never rejoin a DDP ring anyway.
/// Kill-restart is a PS-side action in this build.
pub(crate) fn on_controller_action(
    k: &mut Kernel,
    eng: &mut RtEngine,
    now: SimTime,
    action: Action,
) {
    match action {
        Action::None | Action::KillRestart { .. } => {}
        other => {
            let text = k.record_action(now, &other);
            super::bus::broadcast(k, eng, now, other, &text, super::bus::BroadcastScope::RingAll);
        }
    }
}
