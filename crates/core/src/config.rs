//! Job configuration: architecture, consistency model, data strategy,
//! mitigation solution, cost knobs and execution mode.

use antdt_agent::{AgentConfig, BroadcastModel};
use antdt_ckpt::CkptConfig;
use antdt_controller::{DdConfig, DeviceClassSpec, ElasticConfig};
use antdt_ml::Dataset;
use antdt_monitor::MonitorConfig;
use antdt_sim::{ControlChannel, SimDuration, SimTime};
use antdt_workloads::{ClusterSpec, ModelProfile, Scenario};

/// Consistency model of the Parameter Server (§I).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Consistency {
    /// Bulk Synchronous Parallel: a barrier every iteration.
    Bsp,
    /// Asynchronous Parallel: no synchronization.
    Asp,
    /// Stale Synchronous Parallel: leaders may run at most `staleness`
    /// iterations ahead of the slowest worker.
    Ssp { staleness: u32 },
}

/// Training architecture.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arch {
    ParameterServer {
        consistency: Consistency,
    },
    /// Ring AllReduce (PyTorch DDP); always BSP.
    AllReduce,
    /// Local SGD: `sync_every` local optimizer steps between ring syncs
    /// (Stich ICLR'19). `sync_every == 1` degenerates to `AllReduce`.
    LocalSgd {
        sync_every: u32,
    },
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
    /// Scheduling-only baseline.
    KillRestartOnly,
    /// Optimization-based baseline.
    AdjustLr,
    /// Elastic membership: `SCALE_OUT` under persistent stragglers when the
    /// scheduler has capacity, `SCALE_IN` on sustained idle capacity. Arms
    /// the consistent-hash shard ring (requires the DDS data strategy).
    Elastic(ElasticConfig),
}

/// How a killed node's training state is recovered (§V-E3, Fig. 17): AntDT's
/// DDS-based failover against the mainstream libraries' checkpoint rollback.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailoverMode {
    /// AntDT: servers keep the parameters; only the dead worker's DOING shards
    /// replay. The rest of the fleet keeps training. A *server* kill
    /// charges the closed-form restore + recompute delay
    /// (`ckpt_restore_secs` + `rollback_recompute_factor` × lost progress).
    DdsBased,
    /// Checkpoint rollback, the mainstream libraries' recovery, modeled as
    /// checkpoint-replay through the `antdt-ckpt` subsystem: the last
    /// *durable* snapshot is read back at storage-tier speed, the DDS queue
    /// is rewound to it, and the lost iterations replay through the real
    /// `SyncStrategy` drivers — recovery time is emergent, not a constant.
    /// Requires a Parameter Server job on the DDS data strategy.
    Replay,
}

/// Background fault injection: mean time between failures per node (memoryless
/// exponential arrivals). Models the unexpected failures — evictions, machine
/// breakdowns — that the paper's footnote 2 says failover must absorb at scale.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    pub worker_mtbf: SimDuration,
    pub server_mtbf: Option<SimDuration>,
}

/// One chaos fault to inject at an absolute simulated time. These are the
/// runtime-level hooks the `antdt-chaos` crate compiles its `FaultPlan` DSL
/// into; they are delivered as first-class DES events (`Ev::ChaosFault`) so a
/// drill is bit-for-bit reproducible for a given config + seed.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosInjection {
    /// Absolute simulated time at which the fault fires.
    pub at_secs: f64,
    pub fault: InjectedFault,
}

/// The fault vocabulary the runtimes understand. Node-scoped faults name the
/// node *slot* (stable index), not a generation — the generation is resolved
/// when the event fires, so plans survive unrelated restarts.
#[derive(Debug, Clone, PartialEq)]
pub enum InjectedFault {
    /// Kill worker `w`; the configured failover path (DDS requeue, or a
    /// checkpoint-replay rewind under `FailoverMode::Replay`) and the
    /// scheduler restart both run as usual.
    KillWorker { w: u32 },
    /// Kill server `s`; the configured failover path (closed-form restore +
    /// recompute delay, or a checkpoint-replay rewind under
    /// `FailoverMode::Replay`) and the scheduler restart follow as usual.
    KillServer { s: u32 },
    /// Kill worker `w` with the failover machinery disabled: its DOING shards
    /// are never requeued and no replacement pod is scheduled. This is the
    /// barrier-stall drill — the job can never complete and must be caught by
    /// the liveness watchdog rather than hang.
    KillWorkerNoFailover { w: u32 },
    /// Add `extra_secs` of scheduler pending time to worker `w`'s next
    /// restart (models a restart landing during cluster peak).
    RestartDelay { w: u32, extra_secs: f64 },
    /// Divide worker `w`'s link bandwidth by `factor` (> 1 degrades) for
    /// `window_secs`, then restore it.
    NetworkDegrade { w: u32, factor: f64, window_secs: f64 },
    /// The DDS service is unreachable for `window_secs`: fetches return
    /// nothing and workers fall back to their data-poll retry loop until the
    /// outage lifts. Completion reports are client-buffered and still land.
    DdsOutage { window_secs: f64 },
    /// Drop each Agent→Monitor throughput report with probability `prob`
    /// (seeded, reproducible) for `window_secs` — starves the Controller of
    /// statistics without touching training itself.
    DropReports { prob: f64, window_secs: f64, seed: u64 },
    /// Degrade the control bus for `window_secs`: every control message pays
    /// `latency_secs` and is lost with probability `loss_prob` per attempt
    /// (seeded, reproducible). Overrides the job's `control_channel` for the
    /// window — directives crawl, reports go missing, and the fencing /
    /// idempotence machinery has to hold the line.
    ControlDegrade { latency_secs: f64, loss_prob: f64, window_secs: f64, seed: u64 },
    /// Force a `SCALE_OUT { add }` at a fixed instant, bypassing the policy —
    /// the membership drill. Arms the consistent-hash ring like
    /// [`MitigationChoice::Elastic`] does (requires the DDS data strategy).
    ScaleOut { add: u32 },
    /// Force a `SCALE_IN` of worker `w` at a fixed instant. Generation-fenced
    /// like a kill, so a drill racing it against `KillWorker { w }` exercises
    /// the double-remove guard.
    ScaleIn { w: u32 },
}

impl InjectedFault {
    /// Compact human label used in drill reports.
    pub fn describe(&self) -> String {
        match self {
            InjectedFault::KillWorker { w } => format!("kill worker {w}"),
            InjectedFault::KillServer { s } => format!("kill server {s}"),
            InjectedFault::KillWorkerNoFailover { w } => {
                format!("kill worker {w} (failover disabled)")
            }
            InjectedFault::RestartDelay { w, extra_secs } => {
                format!("delay worker {w} restart by {extra_secs:.0}s")
            }
            InjectedFault::NetworkDegrade { w, factor, window_secs } => {
                format!("degrade worker {w} link {factor:.1}x for {window_secs:.0}s")
            }
            InjectedFault::DdsOutage { window_secs } => {
                format!("dds outage for {window_secs:.0}s")
            }
            InjectedFault::DropReports { prob, window_secs, .. } => {
                format!("drop {:.0}% of reports for {window_secs:.0}s", prob * 100.0)
            }
            InjectedFault::ControlDegrade { latency_secs, loss_prob, window_secs, .. } => {
                format!(
                    "degrade control bus ({latency_secs:.0}s latency, {:.0}% loss) for {window_secs:.0}s",
                    loss_prob * 100.0
                )
            }
            InjectedFault::ScaleOut { add } => format!("scale out by {add} workers"),
            InjectedFault::ScaleIn { w } => format!("scale in worker {w}"),
        }
    }

    /// Window length for faults that end with a `ChaosLift`; `None` for
    /// instantaneous faults.
    pub fn window_secs(&self) -> Option<f64> {
        match self {
            InjectedFault::NetworkDegrade { window_secs, .. }
            | InjectedFault::DdsOutage { window_secs }
            | InjectedFault::DropReports { window_secs, .. }
            | InjectedFault::ControlDegrade { window_secs, .. } => Some(*window_secs),
            _ => None,
        }
    }
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
    pub broadcast: BroadcastModel,
    /// Delivery model of the Monitor/Controller/Agent control plane.
    /// `Ideal` (the default) delivers inline at the classic broadcast-model
    /// instants — trace-preserving; `Modeled` routes every control message
    /// through the event queue with latency/jitter/loss.
    pub control_channel: ControlChannel,

    /// Checkpoint cadence and cost knobs (failover model, Fig. 17). With the
    /// subsystem off, every `checkpoint_interval` stalls the servers for
    /// `ckpt_save_secs`; a `DdsBased` server kill charges `ckpt_restore_secs`
    /// plus the recompute of progress since the last save.
    pub checkpoint_interval: SimDuration,
    pub ckpt_save_secs: f64,
    pub ckpt_restore_secs: f64,
    /// Communication-world rebuild on any restart.
    pub world_rebuild_secs: f64,
    /// Wall-clock factor for recomputing lost progress after a `DdsBased`
    /// *server* failover (< 1: the replay has no stragglers and a warm cache).
    pub rollback_recompute_factor: f64,
    /// The `antdt-ckpt` subsystem: storage tier, cadence policy, capture
    /// stall. `None` (the default) keeps the plain periodic save above,
    /// which captures nothing — golden traces depend on that.
    /// `FailoverMode::Replay` turns the subsystem on with
    /// `CkptConfig::default()` when this is unset.
    pub ckpt: Option<CkptConfig>,

    /// AntDT-DD device classes (required when `mitigation == AntDtDd`).
    pub dd_classes: Option<Vec<DeviceClassSpec>>,
    /// Worker failover recovery scheme.
    pub failover: FailoverMode,
    /// Optional background fault injection.
    pub faults: Option<FaultConfig>,
    /// Deterministic chaos faults at fixed simulated times (chaos drills).
    pub injections: Vec<ChaosInjection>,
    /// Abort — reporting `stalled` — when no training progress happens for
    /// this long while the job is incomplete. Off by default; chaos drills
    /// turn it on so a deadlocked barrier fails loudly instead of hanging.
    pub liveness_timeout: Option<SimDuration>,

    pub seed: u64,
    /// Safety cap; the run reports `timed_out` when exceeded.
    pub max_sim_time: SimTime,
    /// Record a Gantt chart (costly on long runs).
    pub record_gantt: bool,
    /// Collect full telemetry (metrics registry, span trace, flight recorder)
    /// and attach a `TelemetryReport` to the `JobReport`. Implies Gantt
    /// recording, whose spans feed the Chrome trace export. Telemetry never
    /// participates in event scheduling or RNG draws, so enabling it cannot
    /// change a run's simulated results.
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
            broadcast: BroadcastModel::default(),
            control_channel: ControlChannel::Ideal,
            checkpoint_interval: SimDuration::from_minutes(10),
            ckpt_save_secs: 15.0,
            ckpt_restore_secs: 60.0,
            world_rebuild_secs: 45.0,
            rollback_recompute_factor: 0.8,
            ckpt: None,
            dd_classes: None,
            failover: FailoverMode::DdsBased,
            faults: None,
            injections: Vec::new(),
            liveness_timeout: None,
            seed: 1,
            max_sim_time: SimTime::from_secs_f64(30.0 * 24.0 * 3600.0),
            record_gantt: false,
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

    /// An SSP Parameter Server job with the given staleness bound.
    pub fn ps_ssp(mut cluster: ClusterSpec, scenario: Scenario, staleness: u32) -> Self {
        antdt_workloads::straggler::apply(&mut cluster, scenario);
        Self::base(Arch::ParameterServer { consistency: Consistency::Ssp { staleness } }, cluster)
    }

    /// An AllReduce (DDP-style) job.
    pub fn allreduce(mut cluster: ClusterSpec, scenario: Scenario) -> Self {
        antdt_workloads::straggler::apply(&mut cluster, scenario);
        Self::base(Arch::AllReduce, cluster)
    }

    /// A Local-SGD job: `sync_every` local steps between ring syncs.
    pub fn local_sgd(mut cluster: ClusterSpec, scenario: Scenario, sync_every: u32) -> Self {
        antdt_workloads::straggler::apply(&mut cluster, scenario);
        Self::base(Arch::LocalSgd { sync_every }, cluster)
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
    pub fn with_monitor(mut self, m: MonitorConfig) -> Self {
        self.monitor = m;
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
    pub fn with_gantt(mut self) -> Self {
        self.record_gantt = true;
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
    pub fn with_checkpoint_interval(mut self, d: SimDuration) -> Self {
        self.checkpoint_interval = d;
        self
    }
    /// Seconds the plain (subsystem-off) checkpoint save stalls the servers.
    /// When sweeping the interval for a `DdsBased` arm against a
    /// `FailoverMode::Replay` arm, set this comparable to
    /// [`antdt_ckpt::CkptConfig::capture_stall_secs`] so the two arms differ
    /// in *recovery*, not in pause cost.
    pub fn with_ckpt_save_secs(mut self, secs: f64) -> Self {
        self.ckpt_save_secs = secs;
        self
    }
    pub fn with_failover_mode(mut self, mode: FailoverMode) -> Self {
        self.failover = mode;
        self
    }
    /// Enable the checkpoint subsystem with an explicit storage tier /
    /// cadence policy / capture cost (see [`antdt_ckpt::CkptConfig`]).
    pub fn with_ckpt(mut self, c: CkptConfig) -> Self {
        self.ckpt = Some(c);
        self
    }
    pub fn with_faults(mut self, faults: FaultConfig) -> Self {
        self.faults = Some(faults);
        self
    }
    pub fn with_injections(mut self, injections: Vec<ChaosInjection>) -> Self {
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

    /// Whether this job can change membership mid-run: the elastic policy is
    /// the mitigation, or a chaos drill injects a scale fault. Everything
    /// elastic — the consistent-hash ring, the membership report section —
    /// keys off this, so an unarmed job takes the exact pre-elastic code
    /// paths and its trace stays byte-identical.
    pub fn elastic_armed(&self) -> bool {
        matches!(self.mitigation, MitigationChoice::Elastic(_))
            || self.injections.iter().any(|inj| {
                matches!(inj.fault, InjectedFault::ScaleOut { .. } | InjectedFault::ScaleIn { .. })
            })
    }

    /// The DD config derived from `dd_classes`.
    pub fn dd_config(&self) -> Option<DdConfig> {
        self.dd_classes.clone().map(DdConfig::new)
    }

    /// Validate cross-field invariants; panics with a clear message on misuse.
    pub fn validate(&self) {
        assert!(self.cluster.n_workers() > 0, "need at least one worker");
        if let Arch::ParameterServer { .. } = self.arch {
            assert!(self.cluster.n_servers() > 0, "PS architecture needs servers");
        }
        if let Arch::LocalSgd { sync_every } = self.arch {
            assert!(sync_every >= 1, "LocalSgd sync_every must be at least 1");
        }
        assert!(self.global_batch > 0, "global batch must be positive");
        if let MitigationChoice::AntDtDd = self.mitigation {
            let n: usize = self
                .dd_classes
                .as_ref()
                .expect("AntDT-DD needs dd_classes")
                .iter()
                .map(|c| c.count as usize)
                .sum();
            assert_eq!(n, self.n_workers(), "dd_classes must cover every worker");
        }
        if let MitigationChoice::Elastic(e) = &self.mitigation {
            assert!(
                self.data == DataStrategy::Dds,
                "Elastic mitigation requires the DDS data strategy (joiners pull shards; a static partition cannot be re-cut mid-run)"
            );
            assert!(
                self.n_workers() <= e.max_workers as usize,
                "cluster already larger than the elastic max_workers ceiling"
            );
            assert!(
                self.n_workers() >= e.min_workers as usize,
                "cluster smaller than the elastic min_workers floor"
            );
        }
        if let MitigationChoice::BackupWorkers { b } = self.mitigation {
            assert!(
                (b as usize) < self.n_workers(),
                "backup worker count must leave at least one active worker"
            );
        }
        if self.failover == FailoverMode::Replay {
            assert!(
                matches!(self.arch, Arch::ParameterServer { .. }),
                "FailoverMode::Replay requires a Parameter Server job"
            );
            assert!(
                self.data == DataStrategy::Dds,
                "FailoverMode::Replay requires the DDS data strategy (there is no queue to rewind otherwise)"
            );
        }
        if let Some(c) = &self.ckpt {
            assert!(
                c.capture_stall_secs.is_finite() && c.capture_stall_secs >= 0.0,
                "ckpt capture stall must be finite and non-negative"
            );
        }
        if let ExecutionMode::Real { dataset, .. } = &self.execution {
            assert!(
                dataset.len() as u64 >= self.total_samples,
                "real-math dataset smaller than total_samples"
            );
        }
        self.control_channel.validate();
        for inj in &self.injections {
            assert!(
                inj.at_secs.is_finite() && inj.at_secs >= 0.0,
                "injection time must be finite and non-negative"
            );
            match &inj.fault {
                InjectedFault::KillWorker { w }
                | InjectedFault::KillWorkerNoFailover { w }
                | InjectedFault::RestartDelay { w, .. }
                | InjectedFault::NetworkDegrade { w, .. } => {
                    assert!(
                        (*w as usize) < self.n_workers(),
                        "injection targets worker {w} but the cluster has {} workers",
                        self.n_workers()
                    );
                }
                InjectedFault::KillServer { s } => {
                    assert!(
                        matches!(self.arch, Arch::ParameterServer { .. }),
                        "KillServer injection requires a Parameter Server job"
                    );
                    assert!(
                        (*s as usize) < self.n_servers(),
                        "injection targets server {s} but the cluster has {} servers",
                        self.n_servers()
                    );
                }
                InjectedFault::DdsOutage { .. } => {
                    assert!(
                        self.data == DataStrategy::Dds,
                        "DdsOutage injection requires the DDS data strategy"
                    );
                }
                InjectedFault::DropReports { prob, .. } => {
                    assert!(
                        (0.0..=1.0).contains(prob),
                        "DropReports probability must be in [0, 1]"
                    );
                }
                InjectedFault::ControlDegrade { latency_secs, loss_prob, .. } => {
                    assert!(
                        latency_secs.is_finite() && *latency_secs >= 0.0,
                        "ControlDegrade latency must be finite and non-negative"
                    );
                    assert!(
                        (0.0..1.0).contains(loss_prob),
                        "ControlDegrade loss probability must be in [0, 1)"
                    );
                }
                InjectedFault::ScaleOut { add } => {
                    assert!(*add >= 1, "ScaleOut must add at least one worker");
                    assert!(
                        self.data == DataStrategy::Dds,
                        "ScaleOut injection requires the DDS data strategy (a static partition cannot feed joiners)"
                    );
                }
                InjectedFault::ScaleIn { w } => {
                    assert!(
                        (*w as usize) < self.n_workers(),
                        "injection retires worker {w} but the cluster starts with {} workers",
                        self.n_workers()
                    );
                    assert!(
                        self.data == DataStrategy::Dds,
                        "ScaleIn injection requires the DDS data strategy (a departed worker's static partition would be lost)"
                    );
                }
            }
            if let InjectedFault::NetworkDegrade { factor, .. } = inj.fault {
                assert!(factor.is_finite() && factor >= 1.0, "NetworkDegrade factor must be >= 1");
            }
            if let Some(window) = inj.fault.window_secs() {
                assert!(window.is_finite() && window > 0.0, "fault window must be positive");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use antdt_workloads::cluster::cluster_a_scaled;

    #[test]
    fn builders_apply_scenario_and_defaults() {
        let cfg = JobConfig::ps_bsp(
            cluster_a_scaled(4, 2),
            Scenario::WorkerPersistent { intensity: 1.0 },
        );
        cfg.validate();
        assert_eq!(cfg.n_workers(), 4);
        // Scenario applied: last worker has a persistent phase.
        assert!(!cfg.cluster.workers[3].profile.phases.is_empty());
        assert!(cfg.cluster.workers[0].profile.phases.is_empty());
    }

    #[test]
    #[should_panic(expected = "PS architecture needs servers")]
    fn ps_without_servers_is_rejected() {
        JobConfig::ps_bsp(cluster_a_scaled(4, 0), Scenario::None).validate();
    }

    #[test]
    #[should_panic(expected = "backup worker count")]
    fn too_many_backup_workers_rejected() {
        JobConfig::ps_bsp(cluster_a_scaled(2, 1), Scenario::None)
            .with_mitigation(MitigationChoice::BackupWorkers { b: 2 })
            .validate();
    }

    #[test]
    #[should_panic(expected = "dd_classes")]
    fn dd_requires_classes() {
        JobConfig::allreduce(cluster_a_scaled(2, 0), Scenario::None)
            .with_mitigation(MitigationChoice::AntDtDd)
            .validate();
    }

    #[test]
    fn valid_injections_pass_validation() {
        JobConfig::ps_bsp(cluster_a_scaled(4, 2), Scenario::None)
            .with_injections(vec![
                ChaosInjection { at_secs: 10.0, fault: InjectedFault::KillWorker { w: 3 } },
                ChaosInjection {
                    at_secs: 20.0,
                    fault: InjectedFault::DdsOutage { window_secs: 30.0 },
                },
                ChaosInjection {
                    at_secs: 30.0,
                    fault: InjectedFault::DropReports { prob: 0.5, window_secs: 60.0, seed: 7 },
                },
            ])
            .validate();
    }

    #[test]
    #[should_panic(expected = "Replay requires a Parameter Server")]
    fn replay_failover_rejected_for_allreduce() {
        JobConfig::allreduce(cluster_a_scaled(4, 0), Scenario::None)
            .with_failover_mode(FailoverMode::Replay)
            .validate();
    }

    #[test]
    #[should_panic(expected = "Replay requires the DDS data strategy")]
    fn replay_failover_rejected_without_dds() {
        JobConfig::ps_asp(cluster_a_scaled(4, 2), Scenario::None)
            .with_data_strategy(DataStrategy::EvenPartition)
            .with_failover_mode(FailoverMode::Replay)
            .validate();
    }

    #[test]
    fn replay_failover_with_ckpt_config_passes_validation() {
        JobConfig::ps_bsp(cluster_a_scaled(4, 2), Scenario::None)
            .with_failover_mode(FailoverMode::Replay)
            .with_ckpt(CkptConfig::default())
            .validate();
    }

    #[test]
    #[should_panic(expected = "targets worker")]
    fn injection_worker_out_of_range_rejected() {
        JobConfig::ps_bsp(cluster_a_scaled(4, 2), Scenario::None)
            .with_injections(vec![ChaosInjection {
                at_secs: 10.0,
                fault: InjectedFault::KillWorker { w: 4 },
            }])
            .validate();
    }

    #[test]
    #[should_panic(expected = "Parameter Server")]
    fn injection_kill_server_rejected_for_allreduce() {
        JobConfig::allreduce(cluster_a_scaled(4, 0), Scenario::None)
            .with_injections(vec![ChaosInjection {
                at_secs: 10.0,
                fault: InjectedFault::KillServer { s: 0 },
            }])
            .validate();
    }
}
