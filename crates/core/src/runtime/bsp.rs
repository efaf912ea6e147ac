//! BSP flavor: global barrier per iteration with backup-workers support.
//!
//! The barrier tracks a frozen participant set per iteration; the close
//! threshold is `participants − backup_b` (§V-D backup workers), so up to
//! `b` stragglers may be dropped — their late pushes roll back and rejoin
//! the next iteration. The set is a per-worker bitmap plus a count, and the
//! arrived pushes' per-server arrival instants share one flat buffer, so a
//! push or a close allocates nothing once the buffers have grown.
//!
//! A close does the float operations of the plain per-piece pass, in their
//! order, with less work around them. Each server's piece durations go
//! through a one-entry memo, so the seconds→µs rounding leaves the
//! serial `t` chain while the slowdown factor repeats, and the factor is
//! read from the server's held contention span, so the piece loop without
//! attribution has no call in it while the span holds. A push's transfer
//! time is read from its latest arrival instead of folded over its row.
//! The servers' link terms of the pull are derived once per close, not once
//! per worker.
//!
//! Workers mostly share one link shape, so a push's per-server piece
//! durations and a released worker's pull go through one-entry memos keyed
//! by the bits of the worker link's latency, bandwidth and congestion
//! factor at the instant. A chaos `NetworkDegrade` rewrites the bandwidth
//! and so changes the key. Server links keep their latency and bandwidth
//! for the whole job, and a restart can only clear their congestion
//! windows, so a push memo slot derived while its server link had no
//! windows answers every later push with the same key; a server link with
//! windows re-derives its end on every push.

use super::attr::SERVER_LANE;
use super::kernel::{Kernel, ServerEnd, ServerState};
use super::ml_bridge;
use super::ps_common::PsFlavor;
use crate::events::{Ev, RtEngine};
use antdt_agent::BARRIER_SECS;
use antdt_attr::WaitCause;
use antdt_monitor::NodeId;
use antdt_sim::gantt::SpanKind;
use antdt_sim::{RngPool, SimDuration, SimTime};

/// One worker's arrived push awaiting the barrier close. Its per-server
/// gradient-piece arrival instants are row `i` of [`BspFlavor::arrivals`],
/// where `i` is its index in [`BspFlavor::pushes`].
#[derive(Clone)]
struct Push {
    w: u32,
    compute_end: SimTime,
    /// The latest of the push's per-server arrival instants: the barrier
    /// arrival. `since` and `as_secs_f64` are monotone, so converting it
    /// equals the max over the converted row.
    last_arrival: SimTime,
}

/// One-entry memo of [`SimDuration::from_secs_f64`], keyed by the seconds'
/// bits: a hit returns exactly what the conversion would. It starts at the
/// true pair `0.0 → ZERO`.
#[derive(Clone, Copy)]
struct SecsMemo {
    bits: u64,
    dur: SimDuration,
}

impl SecsMemo {
    const fn new() -> Self {
        SecsMemo { bits: 0, dur: SimDuration::ZERO }
    }

    #[inline]
    fn get(&mut self, secs: f64) -> SimDuration {
        if secs.to_bits() != self.bits {
            *self = SecsMemo { bits: secs.to_bits(), dur: SimDuration::from_secs_f64(secs) };
        }
        self.dur
    }
}

/// Serve one server's `arrivals` (sorted) FIFO from its `free_at`, each
/// piece taking `agg_secs` scaled by the server's slowdown at its start.
/// Returns the instant the last piece ends and the busy seconds;
/// `on_piece(start, end)` sees every piece. Inlined per caller, so the
/// loop without attribution keeps `t` and `busy` in registers.
#[inline(always)]
fn serve(
    server: &mut ServerState,
    pool: &RngPool,
    arrivals: &[SimTime],
    agg_secs: f64,
    mut on_piece: impl FnMut(SimTime, SimTime),
) -> (SimTime, f64) {
    let mut t = server.free_at;
    let mut busy = 0.0;
    let mut svc_dur = SecsMemo::new();
    for &a in arrivals {
        let start = t.max(a);
        let svc = agg_secs * server.profile.at(pool, start).slowdown;
        t = start + svc_dur.get(svc);
        busy += svc;
        on_piece(start, t);
    }
    (t, busy)
}

/// The BSP flavor over the shared PS driver.
#[derive(Clone)]
pub struct BspFlavor {
    /// Global barrier iteration counter.
    iter: u64,
    /// Workers the current barrier waits for (frozen at the last close),
    /// indexed by worker id.
    participants: Vec<bool>,
    /// Number of `true` entries in `participants`.
    n_participants: usize,
    pushes: Vec<Push>,
    /// Row-major `pushes × servers` arrival instants, one row per push.
    arrivals: Vec<SimTime>,
    /// Reused per-worker "pushed this barrier" marks for the idle-worker
    /// poke at the close (all `false` between closes).
    pushed: Vec<bool>,
    /// Reused per-server sort buffer for the barrier-close FIFO pass.
    arrivals_scratch: Vec<SimTime>,
    /// Reused per-server link terms of the pull at the barrier close.
    ends_scratch: Vec<ServerEnd>,
    /// The last pushing worker link's key and its per-server piece
    /// durations; `None` for a server whose link had congestion windows.
    push_key: Option<[u64; 3]>,
    push_durs: Vec<Option<SimDuration>>,
    /// Backup-workers knob: how many stragglers the barrier may drop.
    backup_b: u32,
    /// A close was attempted while a server was down; retry on recovery.
    close_pending: bool,
}

impl BspFlavor {
    /// A barrier over `n` workers, all of them participants.
    pub(crate) fn new(n: usize) -> Self {
        BspFlavor {
            iter: 0,
            participants: vec![true; n],
            n_participants: n,
            pushes: Vec::new(),
            arrivals: Vec::new(),
            pushed: Vec::new(),
            arrivals_scratch: Vec::new(),
            ends_scratch: Vec::new(),
            push_key: None,
            push_durs: Vec::new(),
            backup_b: 0,
            close_pending: false,
        }
    }

    fn required(&self) -> usize {
        self.n_participants.saturating_sub(self.backup_b as usize).max(1)
    }

    /// Drop worker `w` from the current barrier; `true` iff it was a member.
    fn leave(&mut self, w: u32) -> bool {
        let member = std::mem::replace(&mut self.participants[w as usize], false);
        self.n_participants -= usize::from(member);
        member
    }

    /// Close the barrier if enough pushes arrived: run the per-server FIFO
    /// pass, one aggregated optimizer apply, commit every pushed worker and
    /// release the next iteration.
    fn try_close(&mut self, k: &mut Kernel, eng: &mut RtEngine) {
        if self.pushes.len() < self.required().min(self.n_participants.max(1)) {
            return;
        }
        if self.pushes.is_empty() {
            return;
        }
        if k.servers.iter().any(|s| !s.alive) {
            self.close_pending = true;
            return;
        }
        self.close_pending = false;
        let now = eng.now();

        // ---- Server pass: per-server FIFO over the arrived pieces, then one
        // optimizer apply per iteration.
        let mut ready_max = SimTime::ZERO;
        let mut arrivals = std::mem::take(&mut self.arrivals_scratch);
        let m = k.servers.len();
        for j in 0..m {
            arrivals.clear();
            arrivals.extend((0..self.pushes.len()).map(|i| self.arrivals[i * m + j]));
            arrivals.sort_unstable();
            let agg = k.cfg.model.server_agg_secs;
            let lane = SERVER_LANE + j as u32;
            let (server, pool) = (&mut k.servers[j], &k.pool);
            let (mut t, mut busy) = match k.attr.as_mut() {
                None => serve(server, pool, &arrivals, agg, |_, _| {}),
                // Server lane: idle until the piece arrives, Comm while
                // aggregating it.
                Some(attr) => serve(server, pool, &arrivals, agg, |start, end| {
                    attr.ledger.fill(lane, start.as_micros(), WaitCause::SyncWait);
                    attr.ledger.fill(lane, end.as_micros(), WaitCause::Comm);
                }),
            };
            let apply = k.cfg.model.server_apply_secs * server.profile.at(pool, t).slowdown;
            t += SimDuration::from_secs_f64(apply);
            busy += apply;
            k.attr_fill(SERVER_LANE + j as u32, t, WaitCause::Comm);
            k.servers[j].free_at = t;
            k.servers[j].series_bpt.push(t, busy);
            super::bus::send_report(k, eng, NodeId::server(j as u32), t, busy, 0);
            ready_max = ready_max.max(t);
        }
        self.arrivals_scratch = arrivals;
        let mut ends = std::mem::take(&mut self.ends_scratch);
        ends.clear();
        ends.extend((0..m).map(|j| k.server_end(j, ready_max)));

        // ---- Math: aggregate pushed gradients, one apply.
        {
            let contribs: Vec<(u64, &[f32])> = self
                .pushes
                .iter()
                .filter_map(|p| {
                    let inf = k.workers[p.w as usize].inflight.as_ref()?;
                    Some((inf.took, inf.grad.as_deref()?))
                })
                .collect();
            ml_bridge::weighted_step(&mut k.math, &contribs, k.cfg.global_batch);
        }

        // ---- Commit pushed workers; record their BPT and schedule the next
        // iteration start after the pull. `self.pushes` is iterated in place
        // and cleared at the end of the close, so the buffer is reused across
        // barriers instead of reallocated each iteration.
        let mut iteration_samples = 0u64;
        // Per-participant barrier-arrival instants for the critical-path
        // analysis (only collected when attribution is armed).
        let mut arrs: Vec<(u32, u64)> = Vec::new();
        // The last released worker link's key and its pull.
        let mut pull_memo: Option<([u64; 3], f64)> = None;
        for p in &self.pushes {
            let wi = p.w as usize;
            let Some(inf) = k.workers[wi].inflight.take() else {
                continue;
            };
            if let Some(g) = inf.grad {
                ml_bridge::recycle(&mut k.math, g);
            }
            iteration_samples += inf.took;
            k.commit(wi, ready_max);
            let (key, cw) = k.link_key(wi, ready_max);
            let pull = match pull_memo {
                Some((memo_key, pull)) if memo_key == key => pull,
                _ => {
                    let wl = &k.workers[wi].link;
                    let pull = ends.iter().map(|&s| k.piece_secs(wl, cw, s)).fold(0.0, f64::max);
                    pull_memo = Some((key, pull));
                    pull
                }
            };
            let push_tx = p.last_arrival.since(p.compute_end).as_secs_f64();
            let bpt = inf.compute_end.since(inf.start).as_secs_f64() + push_tx + pull;
            k.workers[wi].iter += 1;
            k.workers[wi].series_bpt.push(now, bpt);
            k.workers[wi].series_batch.push(now, inf.took as f64);
            if k.bus.report_due(wi) && !k.report_dropped() {
                super::bus::send_report(k, eng, NodeId::worker(p.w), now, bpt, inf.took);
                k.overhead.add_sync(SimDuration::from_secs_f64(BARRIER_SECS));
            }
            // The barrier arrival is when the last gradient piece landed.
            let arrived = inf.compute_end + SimDuration::from_secs_f64(push_tx);
            if let Some(g) = k.gantt.as_mut() {
                g.record(p.w, SpanKind::Comm, inf.compute_end, arrived);
                g.record(p.w, SpanKind::Idle, arrived, ready_max);
            }
            let next = ready_max + SimDuration::from_secs_f64(pull);
            // Worker lane: push transfer, barrier wait, pull.
            k.attr_fill(p.w, arrived, WaitCause::Comm);
            k.attr_fill(p.w, ready_max, WaitCause::SyncWait);
            k.attr_fill(p.w, next, WaitCause::Comm);
            if k.attr.is_some() {
                arrs.push((p.w, arrived.as_micros()));
            }
            k.workers[wi].next_allowed = next;
            // A close deferred by a dead server (`close_pending`) resumes at
            // the failover instant, which can sit past the arrival-derived
            // release times: the release is then "immediately", not in the
            // past. The max keeps the engine's clamp counter a pure
            // logic-error signal.
            eng.schedule(next.max(eng.now()), Ev::WorkerStart { w: p.w, gen: k.workers[wi].gen });
        }
        self.ends_scratch = ends;
        k.attr_barrier(self.iter, &arrs);

        // DDS shard-state synchronization sits on the iteration's critical
        // path once per global iteration (Fig. 18 accounting).
        k.overhead.add_dds(SimDuration::from_secs_f64(super::data::DDS_SYNC_SECS));
        k.account_samples(ready_max, iteration_samples);
        k.iterations += 1;
        k.jct_mark = k.jct_mark.max(ready_max);
        self.iter += 1;
        // Freeze the next iteration's participant set: everyone currently able
        // to contribute a push (clear + extend reuses the bitmap's capacity).
        self.participants.clear();
        self.participants
            .extend(k.workers.iter().map(|x| x.alive && !x.done && !x.starving && x.quota > 0));
        self.n_participants = self.participants.iter().filter(|&&member| member).count();
        // Workers still computing past the barrier belong to the *old* iter;
        // nothing to do — their ComputeDone rolls them into the new one. Idle
        // alive workers that never joined (quota 0 at the time) get poked so a
        // fresh AdjustBs can pick them up. Stragglers beyond the backup
        // threshold were dropped (late ComputeDone rolls back & rejoins).
        self.pushed.resize(k.workers.len(), false);
        for p in &self.pushes {
            self.pushed[p.w as usize] = true;
        }
        for w in 0..k.workers.len() {
            let x = &k.workers[w];
            if x.alive && !x.done && !x.parked && x.inflight.is_none() && !self.pushed[w] {
                // Same deferred-close consideration as the release above.
                k.poke(eng, w, ready_max.max(eng.now()));
            }
        }
        for p in self.pushes.drain(..) {
            self.pushed[p.w as usize] = false;
        }
        self.arrivals.clear();
        k.check_finished(eng);
    }
}

impl PsFlavor for BspFlavor {
    fn iter_tag(&self, _k: &Kernel, _wi: usize) -> u64 {
        self.iter
    }

    fn on_quota_zero(&mut self, k: &mut Kernel, eng: &mut RtEngine, w: u32) {
        if self.leave(w) {
            self.try_close(k, eng);
        }
    }

    fn on_data_wait(&mut self, k: &mut Kernel, eng: &mut RtEngine, w: u32) {
        if self.leave(w) {
            self.try_close(k, eng);
        }
    }

    fn on_worker_done(&mut self, k: &mut Kernel, eng: &mut RtEngine, w: u32) {
        if self.leave(w) {
            self.try_close(k, eng);
        }
    }

    fn on_push(&mut self, k: &mut Kernel, eng: &mut RtEngine, w: u32, gen: u32, iter: u64) {
        let wi = w as usize;
        let now = eng.now();
        if iter < self.iter {
            // This worker was dropped by backup-workers while computing:
            // roll back its samples and let it join the current iteration.
            let took = k.workers[wi].inflight.take().map(|i| i.took).unwrap_or(0);
            k.rollback(wi, took);
            eng.schedule(now, Ev::WorkerStart { w, gen });
            return;
        }
        let (key, cw) = k.link_key(wi, now);
        if self.push_key != Some(key) {
            self.push_key = Some(key);
            self.push_durs.clear();
            self.push_durs.resize(k.servers.len(), None);
        }
        let mut last_arrival = now;
        for (j, slot) in self.push_durs.iter_mut().enumerate() {
            let d = match *slot {
                Some(d) => d,
                None => {
                    let tx = k.piece_secs(&k.workers[wi].link, cw, k.server_end(j, now));
                    let d = SimDuration::from_secs_f64(tx);
                    if k.servers[j].link.congestion.is_empty() {
                        *slot = Some(d);
                    }
                    d
                }
            };
            let a = now + d;
            last_arrival = last_arrival.max(a);
            self.arrivals.push(a);
        }
        self.pushes.push(Push { w, compute_end: now, last_arrival });
        self.try_close(k, eng);
    }

    fn on_worker_killed(&mut self, _k: &mut Kernel, _eng: &mut RtEngine, w: u32) {
        self.leave(w);
    }

    fn after_failover(&mut self, k: &mut Kernel, eng: &mut RtEngine) {
        self.try_close(k, eng);
    }

    fn on_servers_recovered(&mut self, k: &mut Kernel, eng: &mut RtEngine, _now: SimTime) {
        if self.close_pending {
            self.try_close(k, eng);
        }
    }

    fn set_backup_workers(&mut self, b: u32) {
        self.backup_b = b;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::JobConfig;
    use crate::runtime::data::DATA_POLL;
    use crate::runtime::kernel::Inflight;
    use crate::runtime::ps_common;
    use antdt_controller::NoMitigation;
    use antdt_sim::{ContentionPhase, Link, NodeProfile};
    use antdt_workloads::cluster::cluster_a_scaled;
    use antdt_workloads::Scenario;

    /// A barrier that closes without its dropped backup straggler pokes every
    /// idle worker that did not push, once, and nobody else: pushed workers
    /// get only their release, the straggler keeps computing, the dead
    /// worker stays down, and the parked worker stays parked.
    #[test]
    fn backup_close_pokes_exactly_the_idle_non_pushed_workers() {
        let cfg = JobConfig::ps_bsp(cluster_a_scaled(6, 2), Scenario::None);
        let mut k = Kernel::new(cfg, Box::new(NoMitigation));
        let mut eng = RtEngine::new();
        let mut f = BspFlavor::new(6);
        f.set_backup_workers(1);
        let computing = || {
            Some(Inflight { took: 0, start: SimTime::ZERO, compute_end: SimTime::ZERO, grad: None })
        };
        // w0, w1 push; w2 is the straggler the backup threshold drops;
        // w3 is dead; w4 sat out with quota 0 (left the participant set).
        for w in 0..3 {
            k.workers[w].inflight = computing();
        }
        k.workers[3].alive = false;
        f.on_worker_killed(&mut k, &mut eng, 3);
        k.workers[4].quota = 0;
        f.on_quota_zero(&mut k, &mut eng, 4);
        // w5 found the shard queue empty and parked.
        k.workers[5].starving = true;
        f.on_data_wait(&mut k, &mut eng, 5);
        k.park(5, SimTime::ZERO);

        f.on_push(&mut k, &mut eng, 0, 0, 0);
        assert_eq!(f.iter, 0, "one push of two required must not close");
        f.on_push(&mut k, &mut eng, 1, 0, 0);
        assert_eq!(f.iter, 1, "the second push closes the barrier");
        assert!(f.pushes.is_empty() && f.pushed.iter().all(|&p| !p), "marks reset");

        let mut started = Vec::new();
        eng.run_until(SimTime::from_secs_f64(3600.0), |_, ev| {
            if let Ev::WorkerStart { w, .. } = ev {
                started.push(w);
            }
        });
        started.sort_unstable();
        assert_eq!(started, vec![0, 1, 4], "releases for w0/w1, one poke for idle w4");
        assert!(k.workers[5].parked, "no poke for the parked w5");
        assert!(k.workers[2].inflight.is_some(), "the dropped straggler is still computing");
    }

    /// A starving worker parks: however often it is poked, it schedules no
    /// retry. A requeue wakes it with one start at the first instant of its
    /// poll grid (from its first starving start) at or after the wake.
    #[test]
    fn a_starving_worker_parks_until_a_wake_starts_it_on_its_grid() {
        let cfg = JobConfig::ps_bsp(cluster_a_scaled(4, 2), Scenario::None);
        let mut k = Kernel::new(cfg, Box::new(NoMitigation));
        k.dds.as_mut().expect("a PS job reads from the DDS").set_paused(true);
        let mut eng = RtEngine::new();
        let mut f = BspFlavor::new(4);
        let secs = |s: f64| SimTime::from_secs_f64(s);
        // Four starts of w0 one second apart, all inside its first poll.
        for s in 0..4 {
            eng.schedule(secs(s as f64), Ev::WorkerStart { w: 0, gen: 0 });
        }
        eng.run_until(secs(3.5), |eng, ev| ps_common::on_event(&mut k, &mut f, eng, ev));
        assert!(k.workers[0].starving && k.workers[0].parked, "the paused DDS parks w0");
        assert_eq!(k.parked, vec![0]);
        assert_eq!(k.census.empty_starts, 4);
        // Nothing is pending for w0; move the clock to 12 s and wake it.
        eng.schedule(secs(12.0), Ev::LivenessCheck);
        let mut pending = Vec::new();
        eng.run_until(secs(12.0), |_, ev| pending.push(format!("{ev:?}")));
        assert_eq!(pending, vec!["LivenessCheck"], "a parked worker schedules nothing");
        k.wake_parked(&mut eng);
        assert!(!k.workers[0].parked && k.parked.is_empty());
        eng.run_until(secs(60.0), |eng, ev| {
            if let Ev::WorkerStart { w: 0, .. } = ev {
                pending.push(format!("{:?}", eng.now()));
            }
        });
        let grid = SimTime::ZERO + DATA_POLL + DATA_POLL + DATA_POLL;
        assert_eq!(pending[1..], [format!("{grid:?}")], "one start, on the grid 5 s, 10 s, 15 s");
    }

    /// What the plain close arithmetic gives for one barrier, per server
    /// (`free_at`, `busy`, the slowdown factor of each piece) and per push
    /// (BPT, release instant).
    struct OracleClose {
        free_at: Vec<SimTime>,
        busy: Vec<f64>,
        factors: Vec<Vec<f64>>,
        bpt: Vec<f64>,
        next: Vec<SimTime>,
    }

    /// One piece's transfer time along both links, evaluated per call.
    fn oracle_path_transfer(k: &Kernel, now: SimTime, wi: usize, sj: usize) -> f64 {
        let bytes = k.piece_bytes;
        let wl = &k.workers[wi].link;
        let sl = &k.servers[sj].link;
        let bw = wl.bandwidth_bps.min(sl.bandwidth_bps);
        wl.latency_secs
            + sl.latency_secs
            + bytes as f64 / bw * wl.congestion_at(now) * sl.congestion_at(now)
    }

    /// The close `try_close` must reproduce bit for bit: a conversion per
    /// piece in the server FIFO pass, `push_tx` folded over the push's
    /// arrival row, and the pull re-derived per worker and server.
    fn oracle_close(k: &Kernel, f: &BspFlavor) -> OracleClose {
        let m = k.servers.len();
        let mut o = OracleClose {
            free_at: Vec::new(),
            busy: Vec::new(),
            factors: Vec::new(),
            bpt: Vec::new(),
            next: Vec::new(),
        };
        let mut ready_max = SimTime::ZERO;
        for j in 0..m {
            let mut arrivals: Vec<SimTime> =
                (0..f.pushes.len()).map(|i| f.arrivals[i * m + j]).collect();
            arrivals.sort_unstable();
            let mut t = k.servers[j].free_at;
            let mut busy = 0.0;
            let mut factors = Vec::new();
            for &a in &arrivals {
                let start = t.max(a);
                let factor = k.servers[j].profile.slowdown(&k.pool, start);
                factors.push(factor);
                let svc = k.cfg.model.server_agg_secs * factor;
                t = start + SimDuration::from_secs_f64(svc);
                busy += svc;
            }
            let apply = k.cfg.model.server_apply_secs * k.servers[j].profile.slowdown(&k.pool, t);
            t += SimDuration::from_secs_f64(apply);
            busy += apply;
            o.free_at.push(t);
            o.busy.push(busy);
            o.factors.push(factors);
            ready_max = ready_max.max(t);
        }
        for (row, p) in f.pushes.iter().enumerate() {
            let wi = p.w as usize;
            let inf = k.workers[wi].inflight.as_ref().expect("a pushed worker is in flight");
            let pull =
                (0..m).map(|j| oracle_path_transfer(k, ready_max, wi, j)).fold(0.0, f64::max);
            let push_tx = f.arrivals[row * m..(row + 1) * m]
                .iter()
                .map(|&a| a.since(p.compute_end).as_secs_f64())
                .fold(0.0, f64::max);
            o.bpt.push(inf.compute_end.since(inf.start).as_secs_f64() + push_tx + pull);
            o.next.push(ready_max + SimDuration::from_secs_f64(pull));
        }
        o
    }

    /// Barrier closes whose server chains cross a `Slowdown` window that
    /// opens and shuts inside one close, with congested links on both the
    /// push and the pull, worker links of two latencies and a worker
    /// bandwidth that changes between closes, match the plain per-piece
    /// arithmetic bit for bit:
    /// server `free_at`, `busy` and BPT series, worker BPT series and
    /// release instants, and every push's per-server arrival row.
    #[test]
    fn close_matches_the_per_piece_oracle_bit_for_bit() {
        let ms = |v: u64| SimTime::ZERO + SimDuration::from_millis(v);
        let cfg = JobConfig::ps_bsp(cluster_a_scaled(4, 2), Scenario::None);
        let mut k = Kernel::new(cfg, Box::new(NoMitigation));
        // Server 0 slows 2.5x over 30–40 ms and server 1 1.75x over 20–30
        // ms of the first close's FIFO chains; the later windows catch
        // server 1's chain and server 0's apply in the second close. Server
        // 1's link congests the first release's pull, worker 2's link its
        // own first push.
        for (j, (factor, windows)) in [
            (2.5, [(30, 40), (700, 720), (1_400, 1_450)]),
            (1.75, [(20, 30), (680, 690), (1_380, 1_390)]),
        ]
        .into_iter()
        .enumerate()
        {
            for (from, to) in windows {
                let phase = ContentionPhase::Slowdown { factor, from: ms(from), to: ms(to) };
                let profile = NodeProfile::clone(&k.servers[j].profile).with_phase(phase);
                k.servers[j].profile.set_profile(profile);
            }
        }
        k.servers[1].link = Link::datacenter().with_congestion(ms(500), ms(800), 3.0);
        k.workers[2].link = Link::datacenter().with_congestion(ms(5), ms(12), 2.0);
        // Worker 3 sits one rack further out: the same bandwidth as worker
        // 2's, a longer latency.
        k.workers[3].link.latency_secs *= 3.0;
        let mut eng = RtEngine::new();
        let mut f = BspFlavor::new(4);
        for w in 0..4 {
            eng.schedule(SimTime::ZERO, Ev::WorkerStart { w, gen: 0 });
        }
        let m = k.servers.len();
        let (mut closes, mut crossed) = (0, 0);
        eng.run_until(ms(2_500), |eng, ev| {
            let now = eng.now();
            match ev {
                Ev::WorkerStart { w, .. } => {
                    let compute_end = now + SimDuration::from_millis(5 + 3 * u64::from(w));
                    k.workers[w as usize].inflight =
                        Some(Inflight { took: 0, start: now, compute_end, grad: None });
                    eng.schedule(compute_end, Ev::WorkerComputeDone { w, gen: 0, iter: f.iter });
                }
                Ev::WorkerComputeDone { w, iter, .. } => {
                    let wi = w as usize;
                    // Between the first two closes w0's link drops to a
                    // quarter of its bandwidth, as a chaos `NetworkDegrade`
                    // does, and it comes back after the second: its pushes
                    // and pulls must not be answered for the other links.
                    if w == 0 && closes == 1 {
                        k.workers[0].link.bandwidth_bps /= 4.0;
                    } else if w == 0 && closes == 2 {
                        k.workers[0].link.bandwidth_bps = Link::datacenter().bandwidth_bps;
                    }
                    let row: Vec<SimTime> = (0..m)
                        .map(|j| {
                            now + SimDuration::from_secs_f64(oracle_path_transfer(&k, now, wi, j))
                        })
                        .collect();
                    let oracle = (f.pushes.len() + 1 == f.required()).then(|| {
                        let mut last = f.clone();
                        last.pushes.push(Push { w, compute_end: now, last_arrival: now });
                        last.arrivals.extend(&row);
                        (oracle_close(&k, &last), last.pushes)
                    });
                    f.on_push(&mut k, eng, w, 0, iter);
                    let Some((o, pushes)) = oracle else {
                        assert_eq!(&f.arrivals[f.arrivals.len() - m..], &row[..], "w{w} row");
                        return;
                    };
                    closes += 1;
                    for j in 0..m {
                        let s = &k.servers[j];
                        let (at, busy) = s.series_bpt.last().unwrap();
                        assert_eq!((s.free_at, at), (o.free_at[j], o.free_at[j]), "s{j} free_at");
                        assert_eq!(busy.to_bits(), o.busy[j].to_bits(), "s{j} busy");
                        let fs = &o.factors[j];
                        if fs.windows(3).any(|x| x[0] == 1.0 && x[1] > 1.0 && x[2] == 1.0) {
                            crossed += 1;
                        }
                    }
                    for (i, p) in pushes.iter().enumerate() {
                        let wk = &k.workers[p.w as usize];
                        let bpt = wk.series_bpt.last().unwrap().1;
                        assert_eq!(bpt.to_bits(), o.bpt[i].to_bits(), "w{} bpt", p.w);
                        assert_eq!(wk.next_allowed, o.next[i], "w{} next_allowed", p.w);
                    }
                }
                _ => {}
            }
        });
        assert!(closes >= 3, "only {closes} barrier closes");
        assert!(crossed >= 3, "slowdown windows must open and shut inside closes");
    }

    /// Leaving is idempotent.
    #[test]
    fn leave_is_idempotent() {
        let mut f = BspFlavor::new(3);
        assert_eq!((f.participants.len(), f.n_participants), (3, 3));
        assert!(f.leave(1));
        assert!(!f.leave(1), "a second leave is a no-op");
        assert_eq!(f.n_participants, 2);
        assert_eq!(f.required(), 2);
        f.set_backup_workers(5);
        assert_eq!(f.required(), 1, "the threshold never drops below one push");
    }
}
