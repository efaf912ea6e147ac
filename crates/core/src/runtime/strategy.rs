//! The run: one in-flight job over the kernel and its synchronization
//! strategy, plus the event loop that drives it.
//!
//! A strategy owns *only* consistency-specific state (barrier membership,
//! parked pushes, ring-round bookkeeping); the kernel owns the world (nodes,
//! data plane, chaos, telemetry, report accumulators). The strategies are a
//! closed set — PS-BSP, PS-ASP and ring AllReduce — so `Strategy` is an
//! enum and each routing point is one `match`. The two PS arms share the
//! `ps_common` driver, generic over their [`PsFlavor`]; see the README
//! how-to for adding a scheme.
//!
//! [`PsFlavor`]: super::ps_common::PsFlavor

use super::asp::AspFlavor;
use super::bsp::BspFlavor;
use super::chaos_hooks;
use super::kernel::Kernel;
use super::ps_common;
use super::ring::{self, RingAllReduce};
use crate::config::{Arch, Consistency, JobConfig, MAX_SIM_TIME};
use crate::events::{Ev, RtEngine};
use crate::report::JobReport;
use crate::whatif::{apply_live_perturbation, Perturbation};
use antdt_controller::MitigationPolicy;
use antdt_monitor::ClusterInfo;
use antdt_sim::SimTime;

/// A job's synchronization strategy: the consistency-specific state the
/// kernel's events are routed through.
#[derive(Clone)]
pub(crate) enum Strategy {
    Bsp(BspFlavor),
    Asp(AspFlavor),
    Ring(RingAllReduce),
}

/// An in-flight job that can be advanced in stages, forked and finished —
/// the substrate for counterfactual replay (`whatif`) and the unit a what-if
/// snapshot cache stores: run the shared prefix once, fork at each
/// divergence point, and only simulate the suffixes. A fork carries
/// everything the run recorded so far, telemetry included, so a finished
/// fork reports exactly what a from-scratch run of its (perturbed) config
/// reports.
pub struct PrefixRun {
    pub(crate) k: Kernel,
    strat: Strategy,
    eng: RtEngine,
}

impl PrefixRun {
    /// Build and bootstrap a run of `cfg` under its configured mitigation
    /// policy, without firing any events.
    pub fn new(cfg: &JobConfig) -> Self {
        Self::with_policy(cfg.clone(), crate::job::build_policy(cfg))
    }

    /// Build and bootstrap a run of `cfg` under `policy`.
    pub(crate) fn with_policy(cfg: JobConfig, policy: Box<dyn MitigationPolicy>) -> Self {
        cfg.validate();
        let strat = match cfg.arch {
            Arch::ParameterServer { consistency: Consistency::Bsp } => {
                Strategy::Bsp(BspFlavor::new(cfg.n_workers()))
            }
            Arch::ParameterServer { consistency: Consistency::Asp } => {
                Strategy::Asp(AspFlavor::default())
            }
            Arch::AllReduce => Strategy::Ring(RingAllReduce::default()),
        };
        let k = Kernel::new(cfg, policy);
        let mut eng = RtEngine::new();
        match strat {
            Strategy::Bsp(_) | Strategy::Asp(_) => {
                for w in 0..k.workers.len() as u32 {
                    eng.schedule(SimTime::ZERO, Ev::WorkerStart { w, gen: 0 });
                }
            }
            Strategy::Ring(_) => eng.schedule(SimTime::ZERO, Ev::RoundEnd { round: 0 }),
        }
        eng.schedule(SimTime::ZERO + k.cfg.monitor_tick, Ev::MonitorTick);
        if k.cfg.arch.is_ps() {
            eng.schedule(SimTime::ZERO + k.ckpt_interval(), Ev::Checkpoint);
        }
        for (i, inj) in k.cfg.injections.iter().enumerate() {
            eng.schedule(SimTime::from_secs_f64(inj.at_secs), Ev::ChaosFault { k: i as u32 });
        }
        if let Some(timeout) = k.cfg.liveness_timeout {
            eng.schedule(SimTime::ZERO + timeout, Ev::LivenessCheck);
        }
        PrefixRun { k, strat, eng }
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

    /// How many divergence marks the run has set so far (at most
    /// [`crate::divergence_mark_bound`] of its config).
    pub fn marks_set(&self) -> usize {
        self.k.marks_set()
    }

    /// Estimated heap bytes an independent fork of this run owns (world
    /// clone + engine clone) — what a size-bounded cache charges.
    pub fn estimate_bytes(&self) -> usize {
        self.k.estimate_bytes() + self.eng.fork_bytes_estimate()
    }

    /// An independent run resuming from this exact instant with identical
    /// pending events, world state, RNG positions and telemetry recorded so
    /// far (counts, trace, flight ring); `self` is untouched.
    pub fn fork(&self) -> PrefixRun {
        PrefixRun { k: self.k.clone(), strat: self.strat.clone(), eng: self.eng.clone() }
    }

    /// [`PrefixRun::fork`], then apply `p` to the forked kernel live — the
    /// counterfactual branch point.
    pub fn fork_perturbed(&self, p: &Perturbation) -> PrefixRun {
        self.fork().into_perturbed(p)
    }

    /// [`PrefixRun::fork_perturbed`] for the last branch off a prefix: the
    /// run itself becomes the branch, without a copy.
    pub fn into_perturbed(mut self, p: &Perturbation) -> PrefixRun {
        apply_live_perturbation(&mut self.k, p);
        self
    }

    /// Drive the job to completion (finish, drain or deadline) and assemble
    /// its report.
    pub fn finish(mut self) -> JobReport {
        let deadline = MAX_SIM_TIME;
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
fn handle(k: &mut Kernel, strat: &mut Strategy, eng: &mut RtEngine, ev: Ev) {
    k.census.handled(&ev);
    if k.finished {
        return;
    }
    if let Some(tele) = &mut k.tele {
        tele.flight.record(eng.now().as_micros(), "event", format!("{ev:?}"));
    }
    match ev {
        Ev::MonitorTick => monitor_tick(k, strat, eng),
        Ev::ChaosFault { k: idx } => chaos_hooks::chaos_fault(k, strat, eng, idx),
        Ev::ChaosLift { k: idx } => chaos_hooks::chaos_lift(k, strat, eng, idx),
        Ev::LivenessCheck => k.liveness_check(eng),
        Ev::CkptRestore => k.apply_ckpt_restore(eng),
        Ev::BusMsg { seq } => super::bus::on_bus_msg(k, eng, seq),
        other => match strat {
            Strategy::Bsp(f) => ps_common::on_event(k, f, eng, other),
            Strategy::Asp(f) => ps_common::on_event(k, f, eng, other),
            Strategy::Ring(r) => r.on_event(k, eng, other),
        },
    }
}

/// One Monitor→Controller tick: snapshot, decide, audit, dispatch each action
/// through the strategy, re-arm.
fn monitor_tick(k: &mut Kernel, strat: &Strategy, eng: &mut RtEngine) {
    let now = eng.now();
    let info = ClusterInfo { busy: k.cfg.cluster.scheduler.is_busy(now) };
    let actions = k.bus.tick_decide(k.tele.as_mut(), now, info);
    let audit = k.bus.drain_decision_audit();
    k.decision_log.extend(audit);
    for action in actions {
        match strat {
            Strategy::Bsp(_) | Strategy::Asp(_) => {
                ps_common::on_controller_action(k, eng, now, action)
            }
            Strategy::Ring(_) => ring::on_controller_action(k, eng, now, action),
        }
    }
    eng.schedule(now + k.cfg.monitor_tick, Ev::MonitorTick);
}
