//! The `SyncStrategy` seam: the pluggable consistency layer over the runtime
//! kernel, plus the generic event-loop driver shared by every strategy.
//!
//! A strategy owns *only* consistency-specific state (barrier membership,
//! staleness gates, ring-round bookkeeping) and implements a handful of
//! hooks; the kernel owns the world (nodes, data plane, chaos, telemetry,
//! report accumulators). Adding a new synchronization scheme is one strategy
//! file — see `runtime/asp.rs` and the README how-to.

use super::chaos_hooks;
use super::kernel::Kernel;
use crate::config::{Arch, Consistency, InjectedFault, JobConfig};
use crate::events::{Ev, RtEngine};
use crate::obs::RtTele;
use crate::report::JobReport;
use antdt_controller::{Action, MitigationPolicy};
use antdt_monitor::ClusterInfo;
use antdt_sim::SimTime;

/// One synchronization strategy over the shared `Kernel`.
///
/// The kernel drives the event loop and handles everything
/// strategy-agnostic (monitor ticks, windowed chaos faults, the liveness
/// watchdog); a strategy supplies the consistency-specific behaviour through
/// these hooks. Hooks receive the kernel and the engine as separate borrows,
/// so strategy state and world state compose without aliasing.
pub trait SyncStrategy {
    /// Telemetry label for this runtime family (`("runtime", LABEL)` on every
    /// metric).
    const LABEL: &'static str;
    /// `RngPool::stream2(FAMILY, i)` keys the per-worker jitter streams; each
    /// runtime family keeps its historical assignment so same-seed runs
    /// reproduce pre-kernel traces.
    const WORKER_STREAM_FAMILY: u64;
    /// Whether a lease commit charges the DDS fetch round-trip per
    /// `report_done` on the overhead ledger (PS true, round-driven false).
    const CHARGE_REPORT_FETCH: bool;
    /// Whether this strategy books work on parameter servers. Serverless
    /// strategies get an empty server list even if the cluster spec carries
    /// servers (they are simply not part of the job).
    const USES_SERVERS: bool;

    /// Schedule the strategy's initial events (worker starts / round zero).
    /// Runs before the kernel arms the monitor tick.
    fn bootstrap_head(&mut self, k: &mut Kernel, eng: &mut RtEngine);

    /// Schedule trailing bootstrap events (checkpoints).
    /// Runs after the monitor tick, before chaos injections.
    fn bootstrap_tail(&mut self, k: &mut Kernel, eng: &mut RtEngine) {
        let _ = (k, eng);
    }

    /// Handle a strategy-routed event (anything the kernel doesn't own:
    /// worker/server lifecycle, compute completions, round ends).
    fn on_event(&mut self, k: &mut Kernel, eng: &mut RtEngine, ev: Ev);

    /// Deliver one Controller action decided at a monitor tick.
    fn on_controller_action(
        &mut self,
        k: &mut Kernel,
        eng: &mut RtEngine,
        now: SimTime,
        action: Action,
    );

    /// Execute a kill-class chaos injection (worker/server kill, restart
    /// delay). `rec_idx` indexes the already-appended injection record so the
    /// strategy can wire up recovery marks.
    fn inject_kill(
        &mut self,
        k: &mut Kernel,
        eng: &mut RtEngine,
        fault: &InjectedFault,
        rec_idx: usize,
    );

    /// The last overlapping DDS outage window lifted; data is flowing again.
    fn on_dds_restored(&mut self, k: &mut Kernel, eng: &mut RtEngine) {
        let _ = (k, eng);
    }
}

/// Run a job under strategy `S`: build the kernel, bootstrap, drive the event
/// loop to completion and assemble the report.
pub fn run<S: SyncStrategy>(
    cfg: JobConfig,
    policy: Box<dyn MitigationPolicy>,
    strat: S,
) -> JobReport {
    SimRun::new(cfg, policy, strat).finish()
}

/// An in-flight job that can be advanced in stages, snapshotted and forked —
/// the substrate for counterfactual replay (`whatif`): run the shared prefix
/// once, fork at each divergence point, and only simulate the suffixes.
pub struct SimRun<S: SyncStrategy> {
    pub(crate) k: Kernel,
    strat: S,
    eng: RtEngine,
}

impl<S: SyncStrategy> SimRun<S> {
    /// Build and bootstrap a job without running any events yet.
    pub fn new(cfg: JobConfig, policy: Box<dyn MitigationPolicy>, mut strat: S) -> Self {
        cfg.validate();
        let rt = cfg.telemetry.then(|| RtTele::new(S::LABEL));
        let mut k = Kernel::new(
            cfg,
            policy,
            rt,
            S::WORKER_STREAM_FAMILY,
            S::CHARGE_REPORT_FETCH,
            S::USES_SERVERS,
        );
        let mut eng = RtEngine::new();
        strat.bootstrap_head(&mut k, &mut eng);
        eng.schedule(SimTime::ZERO + k.cfg.monitor_tick, Ev::MonitorTick);
        strat.bootstrap_tail(&mut k, &mut eng);
        for (i, inj) in k.cfg.injections.iter().enumerate() {
            eng.schedule(SimTime::from_secs_f64(inj.at_secs), Ev::ChaosFault { k: i as u32 });
        }
        if let Some(timeout) = k.cfg.liveness_timeout {
            eng.schedule(SimTime::ZERO + timeout, Ev::LivenessCheck);
        }
        SimRun { k, strat, eng }
    }

    /// Fire every event up to and including instant `t` (but no further).
    /// Returns `true` if the queue drained.
    pub fn advance_until(&mut self, t: SimTime) -> bool {
        let Self { k, strat, eng } = self;
        eng.run_until(t, |eng, ev| handle(k, strat, eng, ev))
    }

    /// The job's current simulated instant.
    pub fn now(&self) -> SimTime {
        self.eng.now()
    }

    /// Events processed so far.
    pub fn processed(&self) -> u64 {
        self.eng.processed()
    }

    /// Whether the job has reached its finish condition.
    pub fn finished(&self) -> bool {
        self.k.finished
    }

    /// Mutable access to the kernel, for applying a counterfactual edit at
    /// the fork instant (see `crate::whatif`).
    pub(crate) fn kernel_mut(&mut self) -> &mut Kernel {
        &mut self.k
    }

    /// Fork the run: an independent job resuming from this exact instant
    /// with identical pending events, world state, RNG positions and
    /// telemetry recorded so far (counts, trace, flight ring). The original
    /// run is untouched.
    pub fn fork(&self) -> Self
    where
        S: Clone,
    {
        let eng = RtEngine::fork(&self.eng.snapshot());
        SimRun { k: self.k.clone(), strat: self.strat.clone(), eng }
    }

    /// Drive the job to completion (finish, drain or deadline) and assemble
    /// its report.
    pub fn finish(mut self) -> JobReport {
        let deadline = self.k.cfg.max_sim_time;
        let drained = self.advance_until(deadline);
        if !drained && !self.k.finished {
            self.k.timed_out = true;
        }
        debug_assert_eq!(
            self.eng.clamped(),
            0,
            "runtime scheduled an event in the past (engine clamped it)"
        );
        self.k.into_report(&self.eng)
    }
}

/// Route one event: kernel-owned events are handled here, everything else
/// goes to the strategy.
fn handle<S: SyncStrategy>(k: &mut Kernel, strat: &mut S, eng: &mut RtEngine, ev: Ev) {
    if k.finished {
        return;
    }
    if let Some(rt) = &mut k.tele {
        rt.tele.flight.record(eng.now().as_micros(), "event", format!("{ev:?}"));
    }
    match ev {
        Ev::MonitorTick => monitor_tick(k, strat, eng),
        Ev::ChaosFault { k: idx } => chaos_hooks::chaos_fault(k, strat, eng, idx),
        Ev::ChaosLift { k: idx } => chaos_hooks::chaos_lift(k, strat, eng, idx),
        Ev::LivenessCheck => k.liveness_check(eng),
        Ev::CkptRestore => k.apply_ckpt_restore(eng),
        Ev::BusMsg { seq } => super::bus::on_bus_msg(k, eng, seq),
        other => strat.on_event(k, eng, other),
    }
}

/// One Monitor→Controller tick: snapshot, decide, audit, dispatch each action
/// through the strategy, re-arm.
fn monitor_tick<S: SyncStrategy>(k: &mut Kernel, strat: &mut S, eng: &mut RtEngine) {
    let now = eng.now();
    let info = ClusterInfo { busy: k.cfg.cluster.scheduler.is_busy(now) };
    let actions = k.bus.tick_decide(k.tele.as_mut(), now, info);
    let audit = k.bus.drain_decision_audit();
    k.decision_log.extend(audit);
    for action in actions {
        strat.on_controller_action(k, eng, now, action);
    }
    eng.schedule(now + k.cfg.monitor_tick, Ev::MonitorTick);
}

/// Arch-dispatching entry point: pick the strategy for `cfg.arch` and run.
pub fn run_with_policy(cfg: JobConfig, policy: Box<dyn MitigationPolicy>) -> JobReport {
    erased_run(cfg, policy).finish_box()
}

/// Object-safe, arch-erased view of a [`SimRun`]. The what-if query service
/// caches prefix runs for jobs of *any* architecture in one store and fans
/// suffix finishes over the work-stealing pool, so the strategy type
/// parameter is erased behind a `Send` trait object.
pub(crate) trait ErasedRun: Send {
    fn advance_until(&mut self, t: SimTime) -> bool;
    fn now(&self) -> SimTime;
    fn processed(&self) -> u64;
    fn finished(&self) -> bool;
    fn marks_set(&self) -> usize;
    /// Estimated heap bytes an independent fork of this run would own
    /// (kernel clone + engine snapshot) — the cache-budget input.
    fn estimate_bytes(&self) -> usize;
    /// [`SimRun::fork`], boxed.
    fn fork_box(&self) -> Box<dyn ErasedRun>;
    /// Apply a counterfactual edit to the live kernel (fork first!).
    fn perturb(&mut self, p: &crate::whatif::Perturbation);
    fn finish_box(self: Box<Self>) -> JobReport;
}

impl<S: SyncStrategy + Clone + Send + 'static> ErasedRun for SimRun<S> {
    fn advance_until(&mut self, t: SimTime) -> bool {
        SimRun::advance_until(self, t)
    }
    fn now(&self) -> SimTime {
        SimRun::now(self)
    }
    fn processed(&self) -> u64 {
        SimRun::processed(self)
    }
    fn finished(&self) -> bool {
        SimRun::finished(self)
    }
    fn marks_set(&self) -> usize {
        self.k.marks_set()
    }
    fn estimate_bytes(&self) -> usize {
        self.k.estimate_bytes() + self.eng.snapshot_bytes_estimate()
    }
    fn fork_box(&self) -> Box<dyn ErasedRun> {
        Box::new(SimRun::fork(self))
    }
    fn perturb(&mut self, p: &crate::whatif::Perturbation) {
        crate::whatif::apply_live_perturbation(self.kernel_mut(), p);
    }
    fn finish_box(self: Box<Self>) -> JobReport {
        SimRun::finish(*self)
    }
}

/// Build and bootstrap an arch-erased run of `cfg` under its configured
/// mitigation policy.
pub(crate) fn erased_run_for(cfg: &JobConfig) -> Box<dyn ErasedRun> {
    erased_run(cfg.clone(), crate::job::build_policy(cfg))
}

/// Pick the strategy for `cfg.arch`, then build and bootstrap the run behind
/// the arch-erased [`ErasedRun`] view.
fn erased_run(cfg: JobConfig, policy: Box<dyn MitigationPolicy>) -> Box<dyn ErasedRun> {
    match cfg.arch {
        Arch::ParameterServer { consistency } => match consistency {
            Consistency::Bsp => {
                let n = cfg.n_workers();
                Box::new(SimRun::new(cfg, policy, super::bsp::BspPs::new(n)))
            }
            Consistency::Asp => Box::new(SimRun::new(cfg, policy, super::asp::AspPs::new())),
            Consistency::Ssp { staleness } => {
                Box::new(SimRun::new(cfg, policy, super::ssp::SspPs::new(staleness)))
            }
        },
        Arch::AllReduce => Box::new(SimRun::new(cfg, policy, super::ring::RingAllReduce::new())),
    }
}
