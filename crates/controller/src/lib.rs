//! # antdt-controller — the AntDT Controller component
//!
//! Holds the pre-defined straggler-mitigation **action set** (paper Table II),
//! the optimization **solvers** behind `ADJUST_BS` (Eq. 3 for CPU workers,
//! Eq. 4 with gradient accumulation for heterogeneous GPUs), and the
//! **policies** — the paper's two shipped solutions plus every baseline the
//! evaluation compares against:
//!
//! | Policy           | Paper role |
//! |------------------|------------|
//! | [`AntDtNd`]      | §VI-A — non-dedicated clusters: `ADJUST_BS` for transient stragglers, gated `KILL_RESTART` for persistent worker/server stragglers; in ASP mode (AntDT-ND-ASP) it only kills, since the DDS already balances the data |
//! | [`AntDtDd`]      | §VI-B — dedicated heterogeneous GPU clusters: one-shot joint batch-size + gradient-accumulation optimization |
//! | [`LbBsp`]        | LB-BSP baseline \[18\]: throughput-proportional batch re-balancing, no kills |
//! | [`BackupWorkersPolicy`] | Sync-OPT backup workers \[28\] (the DDS puts dropped shards back) |
//! | [`NoMitigation`] | native BSP/ASP/DDP |
//!
//! Policies are pure deciders: they consume [`antdt_monitor::MonitorSnapshot`]s and emit
//! [`Action`]s; executing them (and all data/fault plumbing) is the framework's
//! job, which is exactly the separation the paper argues for. A custom
//! solution (§V-A) is one more [`MitigationPolicy`] impl built from the same
//! actions; it may wrap a shipped policy and add rules of its own.

pub mod action;
pub mod baselines;
pub mod dd;
pub mod nd;
pub mod policy;
pub mod solve;

pub use action::Action;
pub use baselines::{BackupWorkersPolicy, LbBsp, NoMitigation};
pub use dd::{AntDtDd, DeviceClassSpec, C_MAX};
pub use nd::{AntDtNd, NdConfig};
pub use policy::{MitigationPolicy, PolicyCtx};
pub use solve::{
    grad_accum_allocation, lb_bsp_allocation, minmax_batch_allocation, AffineCost, Eq4Class,
    Eq4Config, Eq4Solution,
};
