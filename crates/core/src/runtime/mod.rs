//! The shared runtime kernel: everything every synchronization strategy
//! needs, factored out of the former `ps.rs` / `allreduce.rs` monoliths.
//!
//! Module map:
//!
//! | module        | owns                                                        |
//! |---------------|-------------------------------------------------------------|
//! | `kernel`      | world state: workers, servers, policy ctx, accumulators     |
//! | `attr`        | straggler attribution: per-cause ledger hooks, blame report |
//! | `data`        | data plane: DDS leases, fixed partitions, commit/rollback   |
//! | `inflight`    | the control bus's in-flight message table, keyed by seq     |
//! | `ml_bridge`   | real-gradient computation + weighted optimizer steps        |
//! | `lifecycle`   | kill / restart / failover / checkpoint state machines       |
//! | `ckpt`        | snapshot capture, async storage drain, replay restore       |
//! | `chaos_hooks` | windowed chaos faults, lifts, report-drop, liveness         |
//! | `reporting`   | sample accounting, finish detection, `JobReport` assembly   |
//! | [`strategy`]  | the run: the closed `Strategy` enum + the event loop        |
//! | [`ps_common`] | the PS driver: `PsFlavor` sub-seam shared by BSP and ASP    |
//! | [`bsp`], [`asp`] | PS consistency flavors                                   |
//! | [`ring`]      | the round-driven ring-AllReduce strategy                    |

pub mod asp;
pub(crate) mod attr;
pub mod bsp;
pub(crate) mod bus;
pub(crate) mod chaos_hooks;
pub(crate) mod ckpt;
pub(crate) mod data;
pub(crate) mod inflight;
pub(crate) mod kernel;
pub(crate) mod lifecycle;
pub(crate) mod ml_bridge;
pub mod ps_common;
pub(crate) mod reporting;
pub mod ring;
pub mod strategy;
