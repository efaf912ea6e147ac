//! # antdt-core — the AntDT framework runtime
//!
//! Wires the four AntDT components (Stateful DDS, Monitor, Controller, Agent)
//! around a single shared [`runtime`] kernel built on the discrete-event
//! simulator. Consistency models plug in behind the
//! [`runtime::SyncStrategy`] seam:
//!
//! * [`runtime::bsp`] / [`runtime::asp`] — the Parameter Server flavors
//!   (per-server gradient queues, checkpointing, kill/restart failover);
//! * [`runtime::ring`] — the ring-AllReduce (PyTorch-DDP-style) runtime with
//!   per-device batch sizes and gradient accumulation.
//!
//! [`job::Job`] is the entry point: it takes a [`JobConfig`], runs the
//! simulated job to completion and returns a [`JobReport`] with everything the
//! paper's figures need — JCT, per-node BPT trajectories, batch-size
//! trajectories, shard-consumption stats, the integrity audit, action/failover
//! logs, overhead ledger, and (in real-math mode) the trained model's AUC.
//!
//! [`fleet`] emulates the production A/B test of §VII-F across a population of
//! jobs.

pub mod config;
pub mod events;
pub mod failover;
pub mod fleet;
pub mod job;
pub(crate) mod obs;
pub mod report;
pub mod runtime;
pub mod whatif;

pub use antdt_ckpt::{CkptConfig, CkptPolicy, StorageTier};
pub use config::{
    Arch, ChaosInjection, Consistency, DataStrategy, ExecutionMode, FailoverMode, InjectedFault,
    JobConfig, MitigationChoice,
};
pub use job::Job;
pub use report::{
    ActionApplication, AttrBlame, AttrCrit, AttrNode, AttrReport, CkptRecord, CkptReport,
    CounterfactualRow, DirectiveFate, DirectiveRecord, InjectionRecord, JobReport, ReplayRecord,
};
pub use whatif::{
    apply_perturbation, config_digest, counterfactual_rows, divergence_instant,
    divergence_mark_bound, perturbation_edits, plan_replays, run_what_if, what_if_table,
    Perturbation, PrefixRun, ReplayPlan,
};

/// Run a job with an explicitly constructed policy — the escape hatch for
/// ablations that sweep policy hyper-parameters the standard
/// [`MitigationChoice`] doesn't expose. Dispatches on `cfg.arch` like
/// [`Job::run`].
pub fn ps_run_with_policy(
    cfg: JobConfig,
    policy: Box<dyn antdt_controller::MitigationPolicy>,
) -> JobReport {
    runtime::run_with_policy(cfg, policy)
}
