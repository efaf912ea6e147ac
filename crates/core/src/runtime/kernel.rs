//! The runtime kernel: the world state and bookkeeping that every training
//! runtime shares, regardless of synchronization strategy.
//!
//! A [`Kernel`] owns the nodes (workers and, for PS topologies, servers), the
//! DDS handle, the control bus (the Monitor/Controller/Agent wiring — see
//! [`super::bus`]), the ML math state, the chaos-drill ledgers and the report
//! accumulators. Everything consistency-specific — barriers, async pushes,
//! ring rounds — lives behind [`super::strategy::SyncStrategy`] and only
//! borrows the kernel.

use super::attr::AttrRt;
use super::bus::ControlBus;
use super::ckpt::CkptRt;
use super::data::{DataSource, LeaseState};
use super::ml_bridge::MathState;
use crate::config::{DataStrategy, ExecutionMode, JobConfig};
use crate::obs::RtTele;
use crate::report::{ActionApplication, DivergenceMarks, InjectionRecord};
use antdt_agent::OverheadLedger;
use antdt_controller::{Action, MitigationPolicy, PolicyCtx};
use antdt_dds::{DdsConfig, DdsService};
use antdt_ml::{FactorizationMachine, Sgd};
use antdt_monitor::NodeId;
use antdt_sim::rng::StdRng;
use antdt_sim::{Gantt, Link, NodeProfile, RngPool, SimDuration, SimTime, TimeSeries};
use antdt_telemetry::DecisionRecord;
use antdt_workloads::DeviceClass;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// A worker's in-flight iteration (compute scheduled, push not yet landed).
#[derive(Clone)]
pub struct Inflight {
    pub(crate) took: u64,
    pub(crate) start: SimTime,
    pub(crate) compute_end: SimTime,
    pub(crate) grad: Option<Vec<f32>>,
}

/// One worker (PS) or rank (AllReduce). The kernel keeps the superset of
/// per-node state; strategies that don't use a field (e.g. AllReduce never
/// restarts a rank, so `gen` stays 0) simply leave it at its initial value.
#[derive(Clone)]
pub struct WorkerState {
    pub(crate) gen: u32,
    pub(crate) alive: bool,
    pub(crate) done: bool,
    pub(crate) profile: NodeProfile,
    pub(crate) device: DeviceClass,
    pub(crate) link: Link,
    pub(crate) quota: u64,
    pub(crate) accum: u32,
    pub(crate) lr_scale: f32,
    pub(crate) source: DataSource,
    pub(crate) leases: Vec<LeaseState>,
    pub(crate) iter: u64,
    pub(crate) inflight: Option<Inflight>,
    pub(crate) rng: StdRng,
    pub(crate) series_bpt: TimeSeries,
    pub(crate) series_batch: TimeSeries,
    pub(crate) killed_at: Option<SimTime>,
    /// Wants data but the shard queue is momentarily empty; excluded from the
    /// next BSP participant set so the barrier does not wait on a worker that
    /// cannot push (liveness guard).
    pub(crate) starving: bool,
    /// Earliest instant the worker may begin its next iteration — the barrier
    /// release + pull time. Guards against stray wake-ups (action-delivery
    /// pokes, duplicate events) starting an iteration before the release,
    /// which would illegally pipeline the synchronous schedule.
    pub(crate) next_allowed: SimTime,
}

/// A server link's side of a worker↔server piece transfer at one instant.
#[derive(Clone, Copy)]
pub(crate) struct ServerEnd {
    latency_secs: f64,
    bandwidth_bps: f64,
    congestion: f64,
}

/// One parameter server (PS topologies only; empty for AllReduce).
#[derive(Clone)]
pub struct ServerState {
    pub(crate) gen: u32,
    pub(crate) alive: bool,
    pub(crate) profile: NodeProfile,
    pub(crate) link: Link,
    pub(crate) free_at: SimTime,
    pub(crate) series_bpt: TimeSeries,
}

/// The shared runtime world. See the module docs for the kernel/strategy
/// split; field groups mirror the report sections they eventually feed.
#[derive(Clone)]
pub struct Kernel {
    pub(crate) cfg: JobConfig,
    pub(crate) pool: RngPool,
    pub(crate) sched_rng: StdRng,
    /// Workers, indexed by node id.
    pub(crate) workers: Vec<WorkerState>,
    pub(crate) servers: Vec<ServerState>,
    /// Bytes of one server's gradient piece: the model split evenly over
    /// the servers (whose count never changes after construction).
    pub(crate) piece_bytes: u64,
    pub(crate) dds: Option<DdsService>,
    /// The control plane: Monitor store, Controller policy, per-node Agents
    /// and the channel connecting them. Every Monitor/Controller/Agent
    /// interaction in `runtime/` goes through this bus.
    pub(crate) bus: ControlBus,
    pub(crate) math: Option<MathState>,
    pub(crate) overhead: OverheadLedger,
    pub(crate) actions: Vec<(SimTime, Action)>,
    pub(crate) kills: Vec<(SimTime, NodeId)>,
    pub(crate) restarts: Vec<(SimTime, NodeId)>,
    /// Every scheduler restart delay sampled (µs) for a replacement pod.
    /// Feeds the `antdt_restart_delay_us` histogram.
    pub(crate) restart_delays_us: Vec<u64>,
    /// The checkpoint/state subsystem; `Some` iff the job has parameter
    /// servers (ring AllReduce takes no checkpoints).
    pub(crate) ckpt_rt: Option<CkptRt>,
    /// The straggler-attribution engine; `Some` iff `JobConfig::attribution`.
    /// Like telemetry it never schedules events or draws randomness — the
    /// instrumentation hooks only observe instants the schedule already
    /// produced.
    pub(crate) attr: Option<AttrRt>,
    pub(crate) samples_done: u64,
    pub(crate) rolled_back_samples: u64,
    /// Samples requeued by checkpoint-replay restores (re-done through the
    /// real drivers, the emergent analogue of `rolled_back_samples`).
    pub(crate) replayed_samples: u64,
    pub(crate) iterations: u64,
    pub(crate) jct_mark: SimTime,
    pub(crate) finished: bool,
    pub(crate) timed_out: bool,
    pub(crate) throughput: TimeSeries,
    pub(crate) bucket_start: SimTime,
    pub(crate) bucket_samples: u64,
    pub(crate) gantt: Option<Gantt>,
    /// Whether `commit` charges a DDS fetch round-trip per `report_done`
    /// (the PS runtimes do; the round-driven runtimes fold it into the round).
    pub(crate) charge_report_fetch: bool,
    /// Reused buffer for draining due Controller actions at iteration/round
    /// boundaries (taken and restored around the apply loop).
    pub(crate) actions_scratch: Vec<(SimTime, Action, Arc<str>)>,

    // ---- chaos-drill state; all of it stays empty/neutral unless the config
    // carries `injections` or a `liveness_timeout`.
    pub(crate) injections_log: Vec<InjectionRecord>,
    pub(crate) action_log: Vec<ActionApplication>,
    /// Workers killed with failover disabled: DOING shards are not requeued
    /// and no replacement pod is scheduled (barrier-stall drills).
    pub(crate) chaos_no_failover: HashSet<u32>,
    /// Extra scheduler delay consumed by each worker's next restart.
    pub(crate) chaos_restart_extra: Vec<f64>,
    /// Active DropReports windows: `(injection idx, prob, seeded rng)`.
    pub(crate) chaos_droppers: Vec<(u32, f64, StdRng)>,
    /// Active NetworkDegrade windows: `(injection idx, worker, original bw)`.
    pub(crate) chaos_degraded: Vec<(u32, u32, f64)>,
    /// Killed worker → injection-log index awaiting the recovery marks.
    pub(crate) chaos_awaiting_recovery: HashMap<u32, usize>,
    /// Nesting depth of overlapping DDS outage windows.
    pub(crate) chaos_outages: u32,
    /// Last instant training progress was observed (liveness watchdog).
    pub(crate) last_progress: SimTime,
    pub(crate) stalled: bool,

    /// Set-once per-perturbation divergence instants (see
    /// [`DivergenceMarks`]). Pure observation of the schedule — never an
    /// event, an RNG draw, or a cost.
    pub(crate) marks: DivergenceMarks,
    /// Trace and flight recorder; present iff `JobConfig::telemetry`. The
    /// counts the metrics render from are kept either way (here and in the
    /// components). Recording never touches the event order or any RNG
    /// stream, so a run's simulated results are identical with telemetry on
    /// or off.
    pub(crate) tele: Option<RtTele>,
    /// Controller decision audit drained from the policy after every tick.
    pub(crate) decision_log: Vec<DecisionRecord>,
}

impl Kernel {
    /// Build the world from a validated config. `worker_stream_family` keys
    /// the per-worker jitter RNG streams (`RngPool::stream2(family, i)`) so
    /// each runtime family keeps its historical stream assignment.
    pub(crate) fn new(
        cfg: JobConfig,
        policy: Box<dyn MitigationPolicy>,
        tele: Option<RtTele>,
        worker_stream_family: u64,
        charge_report_fetch: bool,
        uses_servers: bool,
    ) -> Self {
        let pool = RngPool::new(cfg.seed);
        let n = cfg.n_workers();
        let m = if uses_servers { cfg.n_servers() } else { 0 };

        // Shards are sized in *local* batches: a shard is consumed by one
        // worker, so `M` counts that worker's batches (K = N / ((B/n)·M)).
        let local_batch = (cfg.global_batch / n.max(1) as u64).max(1);
        let dds = match cfg.data {
            DataStrategy::Dds => Some(DdsService::new(
                DdsConfig::new(cfg.total_samples, local_batch)
                    .with_batches_per_shard(cfg.batches_per_shard)
                    .with_epochs(cfg.epochs)
                    .with_shuffle(Some(cfg.seed)),
            )),
            DataStrategy::EvenPartition => None,
        };

        let math = match &cfg.execution {
            ExecutionMode::Simulated => None,
            ExecutionMode::Real { dataset, latent_k, lr, .. } => Some(MathState::new(
                FactorizationMachine::new(dataset.n_features, *latent_k, 0.05),
                Sgd::new(*lr),
            )),
        };

        let even_quota = |i: usize| {
            cfg.global_batch / n as u64 + u64::from((i as u64) < cfg.global_batch % n as u64)
        };
        let per_worker_fixed = |i: usize| {
            let total = cfg.total_samples * cfg.epochs as u64;
            total / n as u64 + u64::from((i as u64) < total % n as u64)
        };

        let workers: Vec<WorkerState> = (0..n)
            .map(|i| {
                let spec = &cfg.cluster.workers[i];
                WorkerState {
                    gen: 0,
                    alive: true,
                    done: false,
                    profile: spec.profile.clone(),
                    device: spec.device,
                    link: spec.link.clone(),
                    quota: even_quota(i),
                    accum: 1,
                    lr_scale: 1.0,
                    source: match cfg.data {
                        DataStrategy::Dds => DataSource::Dds,
                        DataStrategy::EvenPartition => {
                            DataSource::Fixed { remaining: per_worker_fixed(i) }
                        }
                    },
                    leases: Vec::new(),
                    iter: 0,
                    inflight: None,
                    rng: pool.stream2(worker_stream_family, i as u64),
                    series_bpt: TimeSeries::new(),
                    series_batch: TimeSeries::new(),
                    killed_at: None,
                    starving: false,
                    next_allowed: SimTime::ZERO,
                }
            })
            .collect();
        let servers: Vec<ServerState> = (0..m)
            .map(|j| {
                let spec = &cfg.cluster.servers[j];
                ServerState {
                    gen: 0,
                    alive: true,
                    profile: spec.profile.clone(),
                    link: spec.link.clone(),
                    free_at: SimTime::ZERO,
                    series_bpt: TimeSeries::new(),
                }
            })
            .collect();

        let ctx = PolicyCtx { global_batch: cfg.global_batch, n_workers: n, n_servers: m };
        let bus = ControlBus::new(cfg.control_channel, cfg.monitor, cfg.agent, policy, ctx);
        // Telemetry implies Gantt recording: the recorded spans become the
        // bulk of the exported Chrome trace.
        let gantt = (cfg.record_gantt || cfg.telemetry).then(Gantt::new);
        let ckpt_rt =
            uses_servers.then(|| CkptRt::new(cfg.ckpt, cfg.checkpoint_interval.as_secs_f64()));
        let attr = cfg.attribution.then(AttrRt::new);
        Kernel {
            sched_rng: pool.stream(7),
            pool,
            workers,
            piece_bytes: (cfg.model.param_bytes / servers.len().max(1) as u64).max(1),
            servers,
            dds,
            bus,
            math,
            overhead: OverheadLedger::new(),
            actions: Vec::new(),
            kills: Vec::new(),
            restarts: Vec::new(),
            restart_delays_us: Vec::new(),
            ckpt_rt,
            attr,
            samples_done: 0,
            rolled_back_samples: 0,
            replayed_samples: 0,
            iterations: 0,
            jct_mark: SimTime::ZERO,
            finished: false,
            timed_out: false,
            throughput: TimeSeries::new(),
            bucket_start: SimTime::ZERO,
            bucket_samples: 0,
            gantt,
            charge_report_fetch,
            actions_scratch: Vec::new(),
            injections_log: Vec::new(),
            action_log: Vec::new(),
            chaos_no_failover: HashSet::new(),
            chaos_restart_extra: vec![0.0; n],
            chaos_droppers: Vec::new(),
            chaos_degraded: Vec::new(),
            chaos_awaiting_recovery: HashMap::new(),
            chaos_outages: 0,
            last_progress: SimTime::ZERO,
            stalled: false,
            marks: DivergenceMarks { worker_contended: vec![None; n], ..Default::default() },
            tele,
            decision_log: Vec::new(),
            cfg,
        }
    }

    /// Set-once divergence mark for `Perturbation::HealthyNode(wi)`: the
    /// first iteration start whose cost the worker's contention phases
    /// actually changed. Before this instant, clearing the phases is a
    /// provable no-op (`iteration_secs` consumes the same jitter draw and
    /// composes the same result when the node is uncontended), so a what-if
    /// replay may fork here instead of re-running the prefix.
    pub(crate) fn mark_worker_contended(&mut self, wi: usize, now: SimTime) {
        if self.marks.worker_contended.len() <= wi {
            self.marks.worker_contended.resize(wi + 1, None);
        }
        if self.marks.worker_contended[wi].is_none()
            && self.workers[wi].profile.contended(&self.pool, now)
        {
            self.marks.worker_contended[wi] = Some(now);
        }
    }

    /// Set-once divergence mark for `Perturbation::NoCkptStalls`: the first
    /// checkpoint capture that charged a nonzero stall (which also perturbs
    /// the adaptive cadence input).
    pub(crate) fn mark_ckpt_stall(&mut self, now: SimTime) {
        if self.marks.ckpt_stall.is_none() {
            self.marks.ckpt_stall = Some(now);
        }
    }

    /// How many divergence marks are set so far, the control-plane mark
    /// (kept by the bus) included.
    pub(crate) fn marks_set(&self) -> usize {
        let workers = self.marks.worker_contended.iter().flatten().count();
        let control = usize::from(self.bus.control_divergence().is_some());
        workers + control + usize::from(self.marks.ckpt_stall.is_some())
    }

    /// Record a non-trivial Controller action in the report timeline and the
    /// telemetry trace (shared by every strategy's monitor hook). Returns the
    /// action's one rendering, which the bus reuses for every directive.
    pub(crate) fn record_action(&mut self, now: SimTime, action: &Action) -> Arc<str> {
        let text = super::bus::render(action);
        self.actions.push((now, action.clone()));
        if let Some(rt) = &mut self.tele {
            rt.tele.tracer.instant(
                "controller-action",
                "controller",
                now.as_micros(),
                0,
                &[("action", &text)],
            );
        }
        text
    }

    /// Sample the scheduler's restart delay and record it.
    pub(crate) fn sched_restart_delay(&mut self, now: SimTime) -> SimDuration {
        let d = self.cfg.cluster.scheduler.sample_restart_delay(now, &mut self.sched_rng);
        self.restart_delays_us.push(d.as_micros());
        d
    }

    // ---- PS-topology cost helpers (no-ops for serverless strategies).

    /// Server `sj`'s side of a piece transfer at `now`.
    pub(crate) fn server_end(&self, sj: usize, now: SimTime) -> ServerEnd {
        let sl = &self.servers[sj].link;
        ServerEnd {
            latency_secs: sl.latency_secs,
            bandwidth_bps: sl.bandwidth_bps,
            congestion: sl.congestion_at(now),
        }
    }

    /// One gradient piece over worker link `wl` (congestion factor `cw`)
    /// and server end `s`.
    #[inline]
    fn piece_secs(&self, wl: &Link, cw: f64, s: ServerEnd) -> f64 {
        let bw = wl.bandwidth_bps.min(s.bandwidth_bps);
        wl.latency_secs + s.latency_secs + self.piece_bytes as f64 / bw * cw * s.congestion
    }

    /// Worker→server transfer time of one gradient piece along both links.
    pub(crate) fn path_transfer(&self, now: SimTime, wi: usize, sj: usize) -> f64 {
        let wl = &self.workers[wi].link;
        self.piece_secs(wl, wl.congestion_at(now), self.server_end(sj, now))
    }

    /// [`Kernel::path_transfer`] to every server in index order, reading
    /// the worker link's congestion once.
    pub(crate) fn path_transfers(&self, now: SimTime, wi: usize) -> impl Iterator<Item = f64> + '_ {
        let wl = &self.workers[wi].link;
        let cw = wl.congestion_at(now);
        (0..self.servers.len()).map(move |j| self.piece_secs(wl, cw, self.server_end(j, now)))
    }

    /// Max pull transfer over all servers (parallel pulls).
    pub(crate) fn pull_secs(&self, now: SimTime, wi: usize) -> f64 {
        self.path_transfers(now, wi).fold(0.0, f64::max)
    }

    /// [`Kernel::pull_secs`] over server ends already derived for `now`
    /// (one [`Kernel::server_end`] per server, in index order): a barrier
    /// close releases every pushed worker at the same instant.
    pub(crate) fn pull_secs_over(&self, ends: &[ServerEnd], now: SimTime, wi: usize) -> f64 {
        let wl = &self.workers[wi].link;
        let cw = wl.congestion_at(now);
        ends.iter().map(|&s| self.piece_secs(wl, cw, s)).fold(0.0, f64::max)
    }

    /// Estimated heap footprint of this world in bytes: the struct plus the
    /// dominant owned buffers a clone would allocate (per-node series and
    /// leases, model parameters, DDS queue state, Gantt spans, the telemetry
    /// trace and flight ring, logs). Small map overheads are not itemised —
    /// this sizes snapshot caches, which need budgets, not audits.
    pub(crate) fn estimate_bytes(&self) -> usize {
        use std::mem::size_of;
        let series = |s: &TimeSeries| s.points.capacity() * size_of::<(SimTime, f64)>();
        let mut b = size_of::<Self>();
        for w in &self.workers {
            b += size_of::<WorkerState>()
                + w.leases.capacity() * size_of::<LeaseState>()
                + series(&w.series_bpt)
                + series(&w.series_batch);
            if let Some(g) = w.inflight.as_ref().and_then(|i| i.grad.as_ref()) {
                b += g.capacity() * size_of::<f32>();
            }
        }
        for s in &self.servers {
            b += size_of::<ServerState>() + series(&s.series_bpt);
        }
        if let Some(m) = &self.math {
            b += (m.model.n_params() + m.agg.capacity()) * size_of::<f32>();
        }
        if let Some(dds) = &self.dds {
            b += dds.estimate_bytes();
        }
        if let Some(c) = &self.ckpt_rt {
            b += c.heap_bytes();
        }
        if let Some(g) = &self.gantt {
            b += g.spans.capacity() * size_of::<antdt_sim::Span>();
        }
        if let Some(rt) = &self.tele {
            b += rt.tele.estimate_bytes();
        }
        b + series(&self.throughput)
            + self.actions.capacity() * size_of::<(SimTime, Action)>()
            + self.kills.capacity() * size_of::<(SimTime, NodeId)>()
            + self.restarts.capacity() * size_of::<(SimTime, NodeId)>()
            + self.restart_delays_us.capacity() * size_of::<u64>()
            + self.decision_log.capacity() * size_of::<DecisionRecord>()
            + self.injections_log.capacity() * size_of::<InjectionRecord>()
            + self.action_log.capacity() * size_of::<ActionApplication>()
    }
}
