//! The shared parameter-server driver: worker iteration loop, push plumbing,
//! action delivery and the event, action and kill handlers of the PS arms
//! of the run's `Strategy`.
//!
//! BSP and ASP share most of their machinery; the residue — barrier
//! membership, parked pushes — hangs off the [`PsFlavor`] hooks. The
//! handlers are generic over the flavor, so each PS arm runs its own
//! monomorphized copy and the two PS runtimes are two small flavor files
//! over this module.

use super::attr::SERVER_LANE;
use super::data::{DataSource, DDS_SYNC_SECS};
use super::kernel::{Inflight, Kernel};
use super::{lifecycle, ml_bridge};
use crate::config::{Fault, NodeRef};
use crate::events::{Ev, RtEngine};
use crate::report::ActionApplication;
use antdt_agent::BARRIER_SECS;
use antdt_attr::WaitCause;
use antdt_controller::Action;
use antdt_monitor::{ErrorClass, NodeId, RetryableError};
use antdt_sim::gantt::SpanKind;
use antdt_sim::{SimDuration, SimTime};
use std::sync::Arc;

/// Consistency-flavor hooks for the shared PS driver. Every hook has a no-op
/// default; a flavor overrides only the points where its protocol differs.
pub trait PsFlavor {
    /// The iteration tag stamped on pushes and action applications (BSP: the
    /// global barrier iteration; async flavors: the worker's own counter).
    fn iter_tag(&self, k: &Kernel, wi: usize) -> u64 {
        k.workers[wi].iter
    }

    /// The worker's quota is zero at iteration start (it sits out).
    fn on_quota_zero(&mut self, k: &mut Kernel, eng: &mut RtEngine, w: u32) {
        let _ = (k, eng, w);
    }

    /// The worker entered the data-poll wait (`starving` now set).
    fn on_data_wait(&mut self, k: &mut Kernel, eng: &mut RtEngine, w: u32) {
        let _ = (k, eng, w);
    }

    /// The worker consumed its last sample and left the job.
    fn on_worker_done(&mut self, k: &mut Kernel, eng: &mut RtEngine, w: u32) {
        let _ = (k, eng, w);
    }

    /// A compute completion pushed its gradient (guards already passed).
    fn on_push(&mut self, k: &mut Kernel, eng: &mut RtEngine, w: u32, gen: u32, iter: u64);

    /// The worker was killed (bookkeeping + DDS failover already done, the
    /// replacement not yet scheduled).
    fn on_worker_killed(&mut self, k: &mut Kernel, eng: &mut RtEngine, w: u32) {
        let _ = (k, eng, w);
    }

    /// A worker kill finished (replacement scheduled or skipped); the barrier
    /// may now be closeable without the dead worker.
    fn after_failover(&mut self, k: &mut Kernel, eng: &mut RtEngine) {
        let _ = (k, eng);
    }

    /// The last dead server came back; parked/pending work resumes.
    fn on_servers_recovered(&mut self, k: &mut Kernel, eng: &mut RtEngine, now: SimTime) {
        let _ = (k, eng, now);
    }

    /// `Action::BackupWorkers` reached a worker's agent (BSP-only knob).
    fn set_backup_workers(&mut self, b: u32) {
        let _ = b;
    }
}

/// One PS worker iteration start: apply delivered actions, take a batch and
/// schedule the compute completion.
fn worker_start<F: PsFlavor>(k: &mut Kernel, f: &mut F, eng: &mut RtEngine, w: u32, gen: u32) {
    let wi = w as usize;
    if k.stale_worker(wi, gen) || !k.workers[wi].alive || k.finished {
        return;
    }
    if k.workers[wi].inflight.is_some() || k.workers[wi].done {
        return;
    }
    let now = eng.now();
    if now < k.workers[wi].next_allowed {
        // A wake-up arrived before this worker's barrier release; the
        // event scheduled for the release instant will start it.
        k.census.early_starts += 1;
        return;
    }

    // Apply actions that reached this agent. Under a chaos drill, log the
    // application so the global-action convergence invariant can audit
    // that every survivor applied the same broadcast at the same point.
    // Logging is deferred until the worker actually takes a batch: a
    // starving worker's data poll applies the action too, but runs no
    // iteration, so attributing the (later) round to it would read as
    // false divergence.
    let mut due = std::mem::take(&mut k.actions_scratch);
    k.bus.drain_actions_into(wi, now, &mut due);
    let ctrl_us = k.attr_ctrl_lag_us(now, &due);
    let mut applied: Vec<(SimTime, Arc<str>)> = Vec::new();
    for (delivered_at, action, text) in due.drain(..) {
        if !k.cfg.injections.is_empty() {
            applied.push((delivered_at, text));
        }
        match action {
            Action::BackupWorkers { b } => f.set_backup_workers(b),
            other => k.apply_worker_action(wi, other),
        }
    }
    k.actions_scratch = due;

    // The worker reached an iteration boundary: close its open idle gap
    // (pending cause, plus the control-bus share if a directive sat queued).
    k.attr_sync(w, now, ctrl_us);

    let quota = k.workers[wi].quota;
    if quota == 0 {
        // Zero-quota workers sit out; a barrier must not wait for them.
        f.on_quota_zero(k, eng, w);
    }
    let took = k.take_batch(wi, quota);
    if took > 0 {
        k.workers[wi].starving = false;
        if k.workers[wi].parked {
            // Data after an outage lift: its chain's pending retry still
            // fires.
            k.unpark(eng, wi, true);
        }
        for (delivered_at, action) in applied {
            let iter = f.iter_tag(k, wi);
            k.action_log.push(ActionApplication {
                worker: w,
                delivered_at,
                applied_at: now,
                iter,
                action,
            });
        }
    }
    if took == 0 {
        k.census.empty_starts += 1;
        let dds_complete = k.dds.as_ref().map(|d| d.is_complete()).unwrap_or(true);
        let fixed_done = matches!(k.workers[wi].source, DataSource::Fixed { remaining: 0 });
        let holds_data = k.workers[wi].leases.iter().any(|l| l.consumed < l.lease.shard.len);
        if (matches!(k.workers[wi].source, DataSource::Dds) && dds_complete && !holds_data)
            || fixed_done
        {
            if k.workers[wi].parked {
                k.unpark(eng, wi, false);
            }
            k.workers[wi].done = true;
            f.on_worker_done(k, eng, w);
            k.check_finished(eng);
        } else if k.workers[wi].quota == 0 {
            // Idle until an AdjustBs wakes it (delivery schedules a start);
            // a parked chain's pending retry still fires.
            if k.workers[wi].parked {
                k.unpark(eng, wi, true);
            }
        } else {
            // Queue momentarily empty (epoch tail): park until it changes,
            // unless parked already or a retry is pending (this was a poke).
            k.workers[wi].starving = true;
            k.attr_pending(w, WaitCause::DataWait);
            f.on_data_wait(k, eng, w);
            k.park(wi, now);
        }
        return;
    }

    // Iteration cost: C sequential micro-batches of `took` samples each
    // behave like the full batch split C ways (the quota already reflects
    // the per-micro-batch size in DD mode).
    let accum = k.workers[wi].accum.max(1);
    k.mark_worker_contended(wi, now);
    let mut dur = 0.0;
    for _ in 0..accum {
        let base = k.cfg.model.compute.time(took, k.workers[wi].device.speed);
        dur += k.worker_iteration_secs(wi, now, base);
    }
    dur += DDS_SYNC_SECS;

    let grad = k.real_grad(wi, took);
    let iter_tag = f.iter_tag(k, wi);
    let compute_end = now + SimDuration::from_secs_f64(dur);
    k.workers[wi].inflight = Some(Inflight { took, start: now, compute_end, grad });
    // The DDS-sync share of the iteration is data-plane overhead, the rest
    // is compute proper.
    k.attr_fill(w, now + SimDuration::from_secs_f64(DDS_SYNC_SECS), WaitCause::DataWait);
    k.attr_fill(w, compute_end, WaitCause::Compute);
    if let Some(g) = k.gantt.as_mut() {
        g.record(w, SpanKind::Compute, now, compute_end);
    }
    eng.schedule(compute_end, Ev::WorkerComputeDone { w, gen, iter: iter_tag });
}

/// A worker's compute finished: hand the push to the flavor.
fn compute_done<F: PsFlavor>(
    k: &mut Kernel,
    f: &mut F,
    eng: &mut RtEngine,
    w: u32,
    gen: u32,
    iter: u64,
) {
    let wi = w as usize;
    if k.stale_worker(wi, gen) || !k.workers[wi].alive || k.finished {
        return;
    }
    f.on_push(k, eng, w, gen, iter);
}

/// Complete an asynchronous push against live servers: per-server booking,
/// immediate optimizer apply, commit, next-iteration schedule. The ASP flavor
/// calls it directly and when draining parked pushes.
pub(crate) fn finish_asp_push(
    k: &mut Kernel,
    eng: &mut RtEngine,
    w: u32,
    gen: u32,
    compute_end: SimTime,
) {
    let wi = w as usize;
    if !k.workers[wi].alive || k.workers[wi].gen != gen {
        return;
    }
    let Some(inf) = k.workers[wi].inflight.take() else {
        return;
    };
    // A push drained from a server-down park charges the wait between the
    // original compute end and now to recovery (no-op on the normal path,
    // where the cursor already sits at `compute_end`).
    k.attr_fill(w, compute_end, WaitCause::FaultRecovery);
    // Per-server booking: each push costs aggregation + apply (ASP applies
    // per push — the higher server-side update frequency of §VII-B1b).
    let mut ready = SimTime::ZERO;
    let mut max_arrival = compute_end;
    for j in 0..k.servers.len() {
        let arrival = compute_end + SimDuration::from_secs_f64(k.path_transfer(compute_end, wi, j));
        let start = k.servers[j].free_at.max(arrival);
        let svc = (k.cfg.model.server_agg_secs + k.cfg.model.server_apply_asp_secs)
            * k.servers[j].profile.at(&k.pool, start).slowdown;
        let end = start + SimDuration::from_secs_f64(svc);
        k.servers[j].free_at = end;
        k.servers[j].series_bpt.push(end, svc);
        // Server lane: idle until the push begins service, then Comm while
        // aggregating/applying it.
        k.attr_fill(SERVER_LANE + j as u32, start, WaitCause::SyncWait);
        k.attr_fill(SERVER_LANE + j as u32, end, WaitCause::Comm);
        super::bus::send_report(k, eng, NodeId::server(j as u32), end, svc, 0);
        ready = ready.max(end);
        max_arrival = max_arrival.max(arrival);
    }
    // Math: apply this worker's gradient immediately (arrival order is the
    // event order, exactly ASP's semantics).
    if let Some(g) = inf.grad {
        ml_bridge::asp_step(&mut k.math, &g, inf.took, k.workers.len(), k.cfg.global_batch);
        ml_bridge::recycle(&mut k.math, g);
    }
    k.commit(wi, ready);
    let pull = k.pull_secs(ready, wi);
    let bpt = ready.since(inf.start).as_secs_f64() + pull;
    k.workers[wi].iter += 1;
    k.workers[wi].series_bpt.push(ready, bpt);
    k.workers[wi].series_batch.push(ready, inf.took as f64);
    if k.bus.report_due(wi) && !k.report_dropped() {
        super::bus::send_report(k, eng, NodeId::worker(w), ready, bpt, inf.took);
        k.overhead.add_sync(SimDuration::from_secs_f64(BARRIER_SECS));
    }
    // Amortized DDS-state sync share of this push (one sync per global
    // batch worth of pushes).
    k.overhead.add_dds(SimDuration::from_secs_f64(DDS_SYNC_SECS / k.workers.len().max(1) as f64));
    k.account_samples(ready, inf.took);
    k.iterations += 1;
    k.jct_mark = k.jct_mark.max(ready);
    // Worker lane: push transfer, then queueing at the busiest server,
    // then the pull back.
    k.attr_fill(w, max_arrival, WaitCause::Comm);
    k.attr_fill(w, ready, WaitCause::SyncWait);
    let next = ready + SimDuration::from_secs_f64(pull);
    k.attr_fill(w, next, WaitCause::Comm);
    k.workers[wi].next_allowed = next;
    eng.schedule(next, Ev::WorkerStart { w, gen });
    k.check_finished(eng);
}

/// Route one decided Controller action onto the bus: targeted kills as fenced
/// direct sends, global actions as a fenced broadcast (Fig. 6: controller →
/// primary agent → broadcast → local barrier; every worker applies at its
/// next iteration boundary).
pub(crate) fn on_controller_action(
    k: &mut Kernel,
    eng: &mut RtEngine,
    now: SimTime,
    action: Action,
) {
    if matches!(action, Action::None) {
        return;
    }
    let text = k.record_action(now, &action);
    match action {
        Action::KillRestart { node } => super::bus::send_kill(k, eng, now, node, &text),
        global => {
            super::bus::broadcast(k, eng, now, global, &text, super::bus::BroadcastScope::PsAlive)
        }
    }
}

/// Route one PS lifecycle or compute event to its handler.
pub(crate) fn on_event<F: PsFlavor>(k: &mut Kernel, f: &mut F, eng: &mut RtEngine, ev: Ev) {
    match ev {
        Ev::WorkerStart { w, gen } => worker_start(k, f, eng, w, gen),
        Ev::WorkerComputeDone { w, gen, iter } => compute_done(k, f, eng, w, gen, iter),
        // Alias of WorkerStart after a pull completes.
        Ev::WorkerReady { w, gen } => worker_start(k, f, eng, w, gen),
        Ev::WorkerKill { w, gen } => lifecycle::worker_kill(
            k,
            f,
            eng,
            w,
            gen,
            ErrorClass::Retryable(RetryableError::ProactiveKill),
        ),
        Ev::WorkerRestart { w, gen } => k.worker_restart(eng, w, gen),
        Ev::ServerKill { s, gen } => k.server_kill(eng, s, gen),
        Ev::ServerRestart { s, gen } => lifecycle::server_restart(k, f, eng, s, gen),
        Ev::Checkpoint => k.ckpt_capture(eng),
        Ev::RoundEnd { .. } => unreachable!("PS runtime has no rounds"),
        Ev::MonitorTick
        | Ev::ChaosFault { .. }
        | Ev::ChaosLift { .. }
        | Ev::LivenessCheck
        | Ev::CkptRestore
        | Ev::BusMsg { .. } => {
            unreachable!("kernel-routed event reached the strategy")
        }
    }
}

/// Execute a kill-class chaos injection (worker/server kill, restart delay).
/// `rec_idx` indexes the already-appended injection record, so a killed
/// worker's recovery marks land on it.
pub(crate) fn inject_kill<F: PsFlavor>(
    k: &mut Kernel,
    f: &mut F,
    eng: &mut RtEngine,
    fault: &Fault,
    rec_idx: usize,
) {
    match *fault {
        Fault::KillNode { node: NodeRef::Worker(w) } => {
            if k.workers[w as usize].alive {
                let gen = k.workers[w as usize].gen;
                k.chaos_awaiting_recovery.insert(w, rec_idx);
                lifecycle::worker_kill(
                    k,
                    f,
                    eng,
                    w,
                    gen,
                    ErrorClass::Retryable(RetryableError::NodeFailure),
                );
            }
        }
        Fault::KillNode { node: NodeRef::Server(s) } => {
            if k.servers[s as usize].alive {
                let gen = k.servers[s as usize].gen;
                k.server_kill(eng, s, gen);
            }
        }
        Fault::KillNodeNoFailover { node: NodeRef::Worker(w) } => {
            if k.workers[w as usize].alive {
                let gen = k.workers[w as usize].gen;
                k.chaos_no_failover.insert(w);
                lifecycle::worker_kill(
                    k,
                    f,
                    eng,
                    w,
                    gen,
                    ErrorClass::Retryable(RetryableError::NodeFailure),
                );
            }
        }
        Fault::RestartDelay { node: NodeRef::Worker(w), extra_secs } => {
            k.chaos_restart_extra[w as usize] += extra_secs;
        }
        _ => unreachable!("windowed faults are kernel-handled; only kills target servers"),
    }
}

/// The last overlapping DDS outage window lifted. Poke every idle worker,
/// parked ones included, at the lift instant, so recovery isn't charged the
/// tail of a poll interval.
pub(crate) fn on_dds_restored(k: &mut Kernel, eng: &mut RtEngine) {
    for w in 0..k.workers.len() {
        if k.workers[w].alive && !k.workers[w].done && k.workers[w].inflight.is_none() {
            k.poke(eng, w, eng.now());
        }
    }
}
