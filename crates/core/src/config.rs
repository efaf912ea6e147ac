//! Job configuration: architecture, consistency model, data strategy,
//! mitigation solution, cost knobs and execution mode.

use antdt_agent::AgentConfig;
use antdt_ckpt::{CkptConfig, CkptPolicy};
use antdt_controller::{DeviceClassSpec, C_MAX};
use antdt_ml::Dataset;
use antdt_monitor::MonitorConfig;
use antdt_sim::{ContentionPhase, ControlChannel, SimDuration, SimTime};
use antdt_workloads::{ClusterSpec, ModelProfile, Scenario};
use std::fmt;

/// Safety cap on simulated time: a run still incomplete after 30 days stops
/// and reports `timed_out`.
pub const MAX_SIM_TIME: SimTime = SimTime(30 * 24 * 3600 * 1_000_000);

/// Consistency model of the Parameter Server (§I).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Consistency {
    /// Bulk Synchronous Parallel: a barrier every iteration.
    Bsp,
    /// Asynchronous Parallel: no synchronization.
    Asp,
}

/// Training architecture.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arch {
    ParameterServer {
        consistency: Consistency,
    },
    /// Ring AllReduce (PyTorch DDP); always BSP.
    AllReduce,
}

impl Arch {
    /// Whether the job runs on parameter servers. Only a PS job books work
    /// on servers, checkpoints, and charges the DDS fetch round-trip per
    /// `report_done` (a ring round folds it into the round).
    pub(crate) fn is_ps(self) -> bool {
        matches!(self, Arch::ParameterServer { .. })
    }

    /// The `runtime` label on every telemetry metric.
    pub(crate) fn runtime_label(self) -> &'static str {
        if self.is_ps() {
            "ps"
        } else {
            "allreduce"
        }
    }

    /// `RngPool::stream2(family, i)` keys worker `i`'s jitter stream; each
    /// runtime family keeps its historical assignment so same-seed runs
    /// reproduce pre-kernel traces.
    pub(crate) fn worker_stream_family(self) -> u64 {
        if self.is_ps() {
            11
        } else {
            21
        }
    }
}

/// How training data is handed to workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataStrategy {
    /// The Stateful Dynamic Data Sharding service.
    Dds,
    /// Static even partition (the native-ASP baseline and Fig. 3).
    EvenPartition,
}

/// Which straggler-mitigation solution drives the Controller.
#[derive(Debug, Clone, PartialEq)]
pub enum MitigationChoice {
    /// Native training.
    None,
    /// AntDT-ND (§VI-A) — full solution (BSP flavour).
    AntDtNd,
    /// AntDT-ND in ASP mode: `KILL_RESTART` only (§VII-A3).
    AntDtNdAsp,
    /// AntDT-DD (§VI-B) for dedicated heterogeneous GPU clusters.
    AntDtDd,
    /// LB-BSP batch-size rebalancing \[18\].
    LbBsp,
    /// Sync-OPT backup workers \[28\] with DDS put-back.
    BackupWorkers { b: u32 },
}

/// How a killed *worker* is recovered (§V-E3, Fig. 17): AntDT's DDS-based
/// failover against the mainstream libraries' checkpoint rollback.
///
/// A *server* kill recovers the same way under either mode: its parameter
/// shard is gone, so the replacement reads the last durable `antdt-ckpt`
/// snapshot back at storage-tier speed, the DDS queue is rewound to it and
/// the lost work replays through the real strategy drivers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailoverMode {
    /// AntDT: servers keep the parameters; only the dead worker's DOING shards
    /// are requeued. The rest of the fleet keeps training.
    DdsBased,
    /// Checkpoint rollback, the mainstream libraries' recovery: a worker kill
    /// rewinds the whole job to the last *durable* snapshot (read back at
    /// storage-tier speed) and the lost iterations replay through the real
    /// drivers — recovery time is emergent, not a constant. Requires a
    /// Parameter Server job on the DDS data strategy.
    Replay,
}

/// A node slot targeted by a fault. Slots are stable across restarts: the
/// runtime resolves the current generation when the fault fires, so plans
/// survive unrelated restarts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeRef {
    Worker(u32),
    Server(u32),
}

impl fmt::Display for NodeRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NodeRef::Worker(w) => write!(f, "worker {w}"),
            NodeRef::Server(s) => write!(f, "server {s}"),
        }
    }
}

/// The fault vocabulary the runtimes understand. Only [`Fault::KillNode`] may
/// target a server; `JobConfig::validate` rejects a server slot anywhere else.
#[derive(Debug, Clone, PartialEq)]
pub enum Fault {
    /// Kill a node; the configured failover path and the scheduler restart
    /// both run as usual. A killed worker fails over by DDS requeue, or by a
    /// checkpoint-replay rewind under `FailoverMode::Replay`. A killed server's
    /// replacement restores the last durable checkpoint (a DDS rewind plus
    /// replay of the lost work, whatever the `FailoverMode`), so a server
    /// kill requires a Parameter Server job on the DDS data strategy.
    KillNode { node: NodeRef },
    /// Kill a worker with the failover machinery disabled: its DOING shards
    /// are never requeued and no replacement pod is scheduled. This is the
    /// barrier-stall drill — the job can never complete and must be caught by
    /// the liveness watchdog rather than hang.
    KillNodeNoFailover { node: NodeRef },
    /// Add `extra_secs` of scheduler pending time to the worker's next
    /// restart (models a restart landing during cluster peak).
    RestartDelay { node: NodeRef, extra_secs: f64 },
    /// Divide the worker's link bandwidth by `factor` (> 1 degrades) for
    /// `window_secs`, then restore it.
    NetworkDegrade { node: NodeRef, factor: f64, window_secs: f64 },
    /// The DDS service is unreachable for `window_secs`: fetches return
    /// nothing and workers fall back to their data-poll retry loop until the
    /// outage lifts. Completion reports are client-buffered and still land.
    DdsOutage { window_secs: f64 },
    /// Drop each Agent→Monitor throughput report with probability `prob`
    /// (seeded, reproducible) for `window_secs` — starves the Controller of
    /// statistics without touching training itself.
    DropReports { prob: f64, window_secs: f64, seed: u64 },
}

impl Fault {
    /// Compact human label used in drill reports.
    pub fn describe(&self) -> String {
        match self {
            Fault::KillNode { node } => format!("kill {node}"),
            Fault::KillNodeNoFailover { node } => format!("kill {node} (failover disabled)"),
            Fault::RestartDelay { node, extra_secs } => {
                format!("delay {node} restart by {extra_secs:.0}s")
            }
            Fault::NetworkDegrade { node, factor, window_secs } => {
                format!("degrade {node} link {factor:.1}x for {window_secs:.0}s")
            }
            Fault::DdsOutage { window_secs } => format!("dds outage for {window_secs:.0}s"),
            Fault::DropReports { prob, window_secs, .. } => {
                format!("drop {:.0}% of reports for {window_secs:.0}s", prob * 100.0)
            }
        }
    }

    /// Window length for faults that end with a `ChaosLift`; `None` for
    /// instantaneous faults.
    pub fn window_secs(&self) -> Option<f64> {
        match self {
            Fault::NetworkDegrade { window_secs, .. }
            | Fault::DdsOutage { window_secs }
            | Fault::DropReports { window_secs, .. } => Some(*window_secs),
            _ => None,
        }
    }
}

/// A fault scheduled at an absolute simulated time. A job delivers each one
/// as a first-class DES event (`Ev::ChaosFault`), so a drill is bit-for-bit
/// reproducible for a given config + seed; `antdt-chaos` plans are lists of
/// them.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultEvent {
    pub at_secs: f64,
    pub fault: Fault,
}

/// Whether gradient math is real or ghosted (timing only).
#[derive(Debug, Clone)]
pub enum ExecutionMode {
    /// Cost-model only; no gradients computed (fast, used for timing sweeps).
    Simulated,
    /// Real factorization-machine training on `dataset`; the report carries the
    /// trained model's holdout AUC.
    Real { dataset: Dataset, holdout: Dataset, latent_k: usize, lr: f32 },
}

/// Everything a job needs. Build with one of the constructors, then chain
/// `with_*` to customize.
#[derive(Debug, Clone)]
pub struct JobConfig {
    pub arch: Arch,
    pub cluster: ClusterSpec,
    pub model: ModelProfile,
    pub mitigation: MitigationChoice,
    pub data: DataStrategy,
    pub execution: ExecutionMode,

    /// `B` — fixed global batch per iteration/round.
    pub global_batch: u64,
    /// `N` — samples per epoch.
    pub total_samples: u64,
    pub epochs: u32,
    /// `M` — batches per shard (paper default 100).
    pub batches_per_shard: u64,

    pub monitor: MonitorConfig,
    /// Monitor aggregation + Controller decision cadence (paper: 5 min).
    pub monitor_tick: SimDuration,
    pub agent: AgentConfig,
    /// Delivery model of the Monitor/Controller/Agent control plane.
    /// `Ideal` (the default) delivers inline at the classic broadcast-model
    /// instants — trace-preserving; `Modeled` routes every control message
    /// through the event queue with latency/jitter/loss.
    pub control_channel: ControlChannel,

    /// Communication-world rebuild on any restart.
    pub world_rebuild_secs: f64,
    /// The `antdt-ckpt` subsystem every Parameter Server job checkpoints
    /// through: storage tier, cadence policy, capture stall. The default is
    /// a local-disk snapshot every 10 minutes that stalls the servers 15 s.
    /// Ring AllReduce jobs take no checkpoints.
    pub ckpt: CkptConfig,

    /// AntDT-DD device classes (required when `mitigation == AntDtDd`).
    pub dd_classes: Option<Vec<DeviceClassSpec>>,
    /// Worker failover recovery scheme.
    pub failover: FailoverMode,
    /// Deterministic chaos faults at fixed simulated times (chaos drills).
    pub injections: Vec<FaultEvent>,
    /// Abort — reporting `stalled` — when no training progress happens for
    /// this long while the job is incomplete. Off by default; chaos drills
    /// turn it on so a deadlocked barrier fails loudly instead of hanging.
    pub liveness_timeout: Option<SimDuration>,

    pub seed: u64,
    /// Record the span trace, the Gantt chart (Fig. 9; its spans feed the
    /// Chrome trace export and `JobReport::gantt`) and the flight recorder,
    /// and attach a `TelemetryReport` (the trace and the flight dump plus
    /// the job's counts rendered as Prometheus text) to the `JobReport`. The
    /// counts themselves are kept either way. Telemetry never participates
    /// in event scheduling or RNG draws, so enabling it cannot change a
    /// run's simulated results.
    pub telemetry: bool,
    /// Run the straggler-attribution engine: tag every node interval with a
    /// `WaitCause`, extract blame scores, and attach an `AttrReport` to the
    /// `JobReport`. Like telemetry, attribution is schedule-neutral — it adds
    /// no events and draws no randomness, so an attribution-on run differs
    /// from the default-off run only in the report.
    pub attribution: bool,
}

impl JobConfig {
    fn base(arch: Arch, cluster: ClusterSpec) -> Self {
        JobConfig {
            arch,
            cluster,
            model: ModelProfile::xdeepfm(),
            mitigation: MitigationChoice::None,
            data: DataStrategy::Dds,
            execution: ExecutionMode::Simulated,
            global_batch: 8192,
            total_samples: 1_000_000,
            epochs: 1,
            batches_per_shard: 100,
            monitor: MonitorConfig::default(),
            monitor_tick: SimDuration::from_minutes(5),
            agent: AgentConfig::default(),
            control_channel: ControlChannel::Ideal,
            world_rebuild_secs: 45.0,
            ckpt: CkptConfig { capture_stall_secs: 15.0, ..CkptConfig::default() },
            dd_classes: None,
            failover: FailoverMode::DdsBased,
            injections: Vec::new(),
            liveness_timeout: None,
            seed: 1,
            telemetry: false,
            attribution: false,
        }
    }

    /// A BSP Parameter Server job on `cluster` with `scenario` injected.
    pub fn ps_bsp(mut cluster: ClusterSpec, scenario: Scenario) -> Self {
        antdt_workloads::straggler::apply(&mut cluster, scenario);
        Self::base(Arch::ParameterServer { consistency: Consistency::Bsp }, cluster)
    }

    /// An ASP Parameter Server job.
    pub fn ps_asp(mut cluster: ClusterSpec, scenario: Scenario) -> Self {
        antdt_workloads::straggler::apply(&mut cluster, scenario);
        Self::base(Arch::ParameterServer { consistency: Consistency::Asp }, cluster)
    }

    /// An AllReduce (DDP-style) job.
    pub fn allreduce(mut cluster: ClusterSpec, scenario: Scenario) -> Self {
        antdt_workloads::straggler::apply(&mut cluster, scenario);
        Self::base(Arch::AllReduce, cluster)
    }

    pub fn with_model(mut self, model: ModelProfile) -> Self {
        self.model = model;
        self
    }
    pub fn with_mitigation(mut self, m: MitigationChoice) -> Self {
        self.mitigation = m;
        self
    }
    pub fn with_data_strategy(mut self, d: DataStrategy) -> Self {
        self.data = d;
        self
    }
    pub fn with_global_batch(mut self, b: u64) -> Self {
        self.global_batch = b;
        self
    }
    pub fn with_samples(mut self, n: u64) -> Self {
        self.total_samples = n;
        self
    }
    pub fn with_epochs(mut self, e: u32) -> Self {
        self.epochs = e;
        self
    }
    pub fn with_batches_per_shard(mut self, m: u64) -> Self {
        self.batches_per_shard = m;
        self
    }
    pub fn with_seed(mut self, s: u64) -> Self {
        self.seed = s;
        self
    }
    pub fn with_execution(mut self, e: ExecutionMode) -> Self {
        self.execution = e;
        self
    }
    pub fn with_monitor_tick(mut self, d: SimDuration) -> Self {
        self.monitor_tick = d;
        self
    }
    /// Shrink the whole observe/decide cadence proportionally — useful for
    /// short jobs (tests, examples) where the paper's production cadence
    /// (5-minute ticks, 5/10-minute windows) would never fire.
    pub fn with_fast_cadence(mut self, tick: SimDuration) -> Self {
        self.monitor_tick = tick;
        self.monitor = MonitorConfig { l_trans: tick, l_per: tick * 2 };
        self
    }
    /// Set the control-plane delivery model (see [`ControlChannel`]).
    pub fn with_control_channel(mut self, ch: ControlChannel) -> Self {
        self.control_channel = ch;
        self
    }
    pub fn with_dd_classes(mut self, classes: Vec<DeviceClassSpec>) -> Self {
        self.dd_classes = Some(classes);
        self
    }
    pub fn with_telemetry(mut self) -> Self {
        self.telemetry = true;
        self
    }
    /// Arm the straggler-attribution engine (per-cause time decomposition,
    /// blame scores, `JobReport::attr`). Schedule-neutral: see
    /// [`JobConfig::attribution`].
    pub fn with_attribution(mut self) -> Self {
        self.attribution = true;
        self
    }
    /// Checkpoint every `d`, the first capture at `d`: sets the `Fixed`
    /// cadence of [`JobConfig::ckpt`] and keeps its tier and capture stall.
    pub fn with_checkpoint_interval(mut self, d: SimDuration) -> Self {
        self.ckpt.policy = CkptPolicy::Fixed { interval_secs: d.as_secs_f64() };
        self
    }
    pub fn with_failover_mode(mut self, mode: FailoverMode) -> Self {
        self.failover = mode;
        self
    }
    /// Set the checkpoint storage tier, cadence and capture cost (see
    /// [`antdt_ckpt::CkptConfig`]); replaces any earlier
    /// [`JobConfig::with_checkpoint_interval`].
    pub fn with_ckpt(mut self, c: CkptConfig) -> Self {
        self.ckpt = c;
        self
    }
    pub fn with_injections(mut self, injections: Vec<FaultEvent>) -> Self {
        self.injections = injections;
        self
    }
    pub fn with_liveness_timeout(mut self, d: SimDuration) -> Self {
        self.liveness_timeout = Some(d);
        self
    }

    pub fn n_workers(&self) -> usize {
        self.cluster.n_workers()
    }
    pub fn n_servers(&self) -> usize {
        self.cluster.n_servers()
    }

    /// Validate cross-field invariants; panics with a clear message on misuse.
    pub fn validate(&self) {
        assert!(self.cluster.n_workers() > 0, "need at least one worker");
        if self.arch.is_ps() {
            assert!(self.cluster.n_servers() > 0, "PS architecture needs servers");
        }
        // Each worker's local batch is B/n: below one sample it is rounded up
        // to one without a word, and the job trains at a larger realized B.
        assert!(
            self.global_batch >= self.n_workers() as u64,
            "global batch {} is smaller than the worker count {}",
            self.global_batch,
            self.n_workers()
        );
        // With no data the job "completes" at t = 0 having trained nothing.
        assert!(self.total_samples > 0, "total_samples must be positive");
        assert!(self.epochs > 0, "epochs must be positive");
        // M = 0 would cut one-sample shards, far finer than any M asked for.
        assert!(self.batches_per_shard > 0, "batches_per_shard must be positive");
        // A zero tick re-arms the Monitor tick at the same instant forever.
        assert!(self.monitor_tick > SimDuration::ZERO, "monitor tick must be positive");
        // An empty BPT window averages no reports, so the Monitor never sees
        // a straggler and AntDT-ND runs as the unmitigated job.
        assert!(self.monitor.l_trans > SimDuration::ZERO, "monitor.l_trans must be positive");
        assert!(self.monitor.l_per > SimDuration::ZERO, "monitor.l_per must be positive");
        // Zero would silently report every iteration, as 1 does.
        assert!(self.agent.report_every_iters > 0, "agent.report_every_iters must be positive");
        // A zero timeout declares a healthy job stalled at t = 0.
        if let Some(timeout) = self.liveness_timeout {
            assert!(timeout > SimDuration::ZERO, "liveness timeout must be positive");
        }
        // NaN or negative seconds would round to 0 µs without a word, and an
        // infinite rebuild would saturate the restart instant.
        let secs = |name: &str, v: f64| {
            assert!(v.is_finite() && v >= 0.0, "{name} {v} must be finite and non-negative")
        };
        secs("world_rebuild_secs", self.world_rebuild_secs);
        self.validate_nodes();
        if let MitigationChoice::AntDtDd = self.mitigation {
            self.validate_dd(self.dd_classes.as_ref().expect("AntDT-DD needs dd_classes"));
        }
        if let MitigationChoice::BackupWorkers { b } = self.mitigation {
            assert!(
                (b as usize) < self.n_workers(),
                "backup worker count must leave at least one active worker"
            );
        }
        // A mitigation whose action the architecture never reads would run
        // the job unmitigated: only the PS-BSP barrier drops backup pushes,
        // and a ring rank ignores KILL_RESTART, AntDT-ND-ASP's only action.
        let ignored = match self.mitigation {
            MitigationChoice::BackupWorkers { .. } => {
                self.arch != Arch::ParameterServer { consistency: Consistency::Bsp }
            }
            MitigationChoice::AntDtNdAsp => self.arch == Arch::AllReduce,
            _ => false,
        };
        assert!(
            !ignored,
            "mitigation {:?} does nothing on {:?}: the architecture ignores its action",
            self.mitigation, self.arch
        );
        if self.failover == FailoverMode::Replay {
            assert!(self.arch.is_ps(), "FailoverMode::Replay requires a Parameter Server job");
            assert!(
                self.data == DataStrategy::Dds,
                "FailoverMode::Replay requires the DDS data strategy (there is no queue to rewind otherwise)"
            );
        }
        self.validate_ckpt();
        if let ExecutionMode::Real { dataset, holdout, lr, .. } = &self.execution {
            assert!(
                dataset.len() as u64 >= self.total_samples,
                "real-math dataset smaller than total_samples"
            );
            assert!(lr.is_finite() && *lr >= 0.0, "real-math lr {lr} must be finite and >= 0");
            assert_eq!(holdout.n_features, dataset.n_features, "real-math holdout n_features");
        }
        self.control_channel.validate();
        for inj in &self.injections {
            assert!(
                inj.at_secs.is_finite() && inj.at_secs >= 0.0,
                "injection time must be finite and non-negative"
            );
            match &inj.fault {
                Fault::KillNode { node: NodeRef::Worker(w) }
                | Fault::KillNodeNoFailover { node: NodeRef::Worker(w) }
                | Fault::RestartDelay { node: NodeRef::Worker(w), .. }
                | Fault::NetworkDegrade { node: NodeRef::Worker(w), .. } => {
                    assert!(
                        (*w as usize) < self.n_workers(),
                        "injection targets worker {w} but the cluster has {} workers",
                        self.n_workers()
                    );
                }
                Fault::KillNode { node: NodeRef::Server(s) } => {
                    assert!(
                        self.arch.is_ps(),
                        "server kill injection requires a Parameter Server job"
                    );
                    assert!(
                        self.data == DataStrategy::Dds,
                        "server kill injection requires the DDS data strategy (a server restores from a checkpoint by rewinding the shard queue)"
                    );
                    assert!(
                        (*s as usize) < self.n_servers(),
                        "injection targets server {s} but the cluster has {} servers",
                        self.n_servers()
                    );
                }
                Fault::KillNodeNoFailover { node: NodeRef::Server(s) }
                | Fault::RestartDelay { node: NodeRef::Server(s), .. }
                | Fault::NetworkDegrade { node: NodeRef::Server(s), .. } => {
                    panic!("{:?} targets server {s}; only KillNode may target a server", inj.fault)
                }
                Fault::DdsOutage { .. } => {
                    assert!(
                        self.data == DataStrategy::Dds,
                        "DdsOutage injection requires the DDS data strategy"
                    );
                }
                Fault::DropReports { prob, .. } => {
                    assert!(
                        (0.0..=1.0).contains(prob),
                        "DropReports probability must be in [0, 1]"
                    );
                }
            }
            if let Fault::RestartDelay { extra_secs, .. } = inj.fault {
                assert!(
                    self.arch.is_ps(),
                    "RestartDelay injection requires a Parameter Server job (a DDP rank never restarts)"
                );
                assert!(
                    extra_secs.is_finite() && extra_secs >= 0.0,
                    "RestartDelay extra_secs must be finite and non-negative"
                );
            }
            if let Fault::NetworkDegrade { factor, .. } = inj.fault {
                assert!(factor.is_finite() && factor >= 1.0, "NetworkDegrade factor must be >= 1");
            }
            if let Some(window) = inj.fault.window_secs() {
                assert!(window.is_finite() && window > 0.0, "fault window must be positive");
            }
        }
    }

    /// Every node profile and link must be one the cost model can run: a
    /// zero speed never finishes an iteration, a zero bandwidth sizes a
    /// transfer at infinity, and a NaN or negative term rounds to 0 µs
    /// without a word.
    fn validate_nodes(&self) {
        for (role, nodes) in [("worker", &self.cluster.workers), ("server", &self.cluster.servers)]
        {
            for (i, node) in nodes.iter().enumerate() {
                let check = |field: &str, v: f64, ok: bool, rule: &str| {
                    assert!(ok, "{role} {i} {field} {v} must be {rule}")
                };
                let positive = |field: &str, v: f64| {
                    check(field, v, v.is_finite() && v > 0.0, "finite and positive")
                };
                let non_negative = |field: &str, v: f64| {
                    check(field, v, v.is_finite() && v >= 0.0, "finite and non-negative")
                };
                let factor = |field: &str, v: f64| {
                    check(field, v, v.is_finite() && v >= 1.0, "finite and >= 1")
                };
                let (p, link) = (&node.profile, &node.link);
                positive("speed_factor", p.speed_factor);
                non_negative("jitter_sigma", p.jitter_sigma);
                for phase in &p.phases {
                    match *phase {
                        ContentionPhase::Persistent { delay_secs, .. } => {
                            non_negative("persistent delay_secs", delay_secs)
                        }
                        ContentionPhase::Transient(t) => non_negative(
                            "transient delay sleep_secs × intensity",
                            t.sleep_secs * t.intensity,
                        ),
                        ContentionPhase::Slowdown { factor: f, .. } => factor("slowdown factor", f),
                    }
                }
                let bw = link.bandwidth_bps;
                check("link bandwidth_bps", bw, bw > 0.0, "positive");
                non_negative("link latency_secs", link.latency_secs);
                for &(_, _, f) in &link.congestion {
                    factor("link congestion factor", f);
                }
            }
        }
    }

    /// AntDT-DD's one `ADJUST_BS` needs a feasible Eq. 4 and a BPT estimate
    /// for every class; without them the policy never acts and the job runs
    /// as plain DDP without a word.
    fn validate_dd(&self, classes: &[DeviceClassSpec]) {
        let n: usize = classes.iter().map(|c| c.count as usize).sum();
        assert_eq!(n, self.n_workers(), "dd_classes must cover every worker");
        let mut capacity = 0u64;
        for (i, c) in classes.iter().enumerate() {
            assert!(
                c.b_min <= c.b_max,
                "dd_classes[{i}] b_min {} exceeds b_max {}",
                c.b_min,
                c.b_max
            );
            // A BPT is never accepted against a NaN c0, so that class is
            // never estimated.
            assert!(
                c.c0_secs.is_finite() && c.c0_secs >= 0.0,
                "dd_classes[{i}] c0_secs {} must be finite and non-negative",
                c.c0_secs
            );
            let most = u64::from(c.count).saturating_mul(u64::from(C_MAX)).saturating_mul(c.b_max);
            capacity = capacity.saturating_add(most);
        }
        assert!(
            self.global_batch <= capacity,
            "global batch {} exceeds the dd_classes capacity Σ count·C_MAX·b_max = {capacity}",
            self.global_batch
        );
    }

    /// A cadence that rounds to zero re-arms the checkpoint at the same
    /// instant forever, so the interval must be at least one simulated
    /// microsecond.
    fn validate_ckpt(&self) {
        let interval = self.ckpt.interval_secs();
        assert!(
            interval.is_finite() && SimDuration::from_secs_f64(interval) > SimDuration::ZERO,
            "checkpoint interval must be finite and at least 1 µs, got {interval}s"
        );
        let stall = self.ckpt.capture_stall_secs;
        assert!(
            stall.is_finite() && stall >= 0.0,
            "ckpt capture stall must be finite and non-negative"
        );
        // A stall as long as the cadence queues captures back to back and
        // the servers never train.
        assert!(
            stall < interval,
            "ckpt capture stall {stall}s must be shorter than the checkpoint interval {interval}s"
        );
    }
}

#[cfg(test)]
mod tests;
