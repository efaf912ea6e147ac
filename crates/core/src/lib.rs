//! # antdt-core — the AntDT framework runtime
//!
//! Wires the four AntDT components (Stateful DDS, Monitor, Controller, Agent)
//! around a single shared [`runtime`] kernel built on the discrete-event
//! simulator. A run ([`PrefixRun`]) is one concrete type over a closed set
//! of consistency models, one arm each of its strategy enum:
//!
//! * [`runtime::bsp`] / [`runtime::asp`] — the Parameter Server flavors
//!   (per-server gradient queues, checkpointing, kill/restart failover);
//! * [`runtime::ring`] — the ring-AllReduce (PyTorch-DDP-style) runtime with
//!   per-device batch sizes and gradient accumulation.
//!
//! The open, user-extensible part is the Controller: [`run_with_policy`]
//! runs a job under any `MitigationPolicy`. [`job::Job`] is the entry point: it takes a [`JobConfig`], runs the
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
#[cfg(test)]
mod telemetry_known_answers;
pub mod whatif;

pub use antdt_ckpt::{CkptConfig, CkptPolicy, StorageTier};
pub use config::{
    Arch, Consistency, DataStrategy, ExecutionMode, FailoverMode, Fault, FaultEvent, JobConfig,
    MitigationChoice, NodeRef, MAX_SIM_TIME,
};
pub use job::{run_with_policy, Job};
pub use report::{
    ActionApplication, AttrBlame, AttrCrit, AttrNode, AttrReport, CkptRecord, CkptReport,
    CounterfactualRow, DirectiveFate, DirectiveRecord, InjectionRecord, JobReport, ReplayRecord,
    WorkCensus,
};
pub use whatif::{
    apply_perturbation, config_digest, counterfactual_rows, divergence_instant,
    divergence_mark_bound, perturbation_edits, plan_replays, what_if_table, Perturbation,
    PrefixRun, ReplayPlan,
};
