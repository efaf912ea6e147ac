//! # antdt-agent — the AntDT Agent component
//!
//! One Agent process runs beside every worker/server (§V-F). It does two
//! things:
//!
//! 1. **Report**: asynchronously pushes application state (BPT, batch size) to
//!    the Monitor every `report_every_iters` iterations (paper default 10).
//! 2. **Execute**: receives actions from the Controller. *Node actions*
//!    (`KILL_RESTART`) fire independently. *Global actions* (`ADJUST_BS`,
//!    `BACKUP_WORKERS`) go through the synchronization mechanism of Fig. 6:
//!    a **primary agent** receives the Controller's response and broadcasts
//!    it to all secondary agents; a local barrier between each agent and its
//!    training process guarantees every worker applies the action *in the
//!    same iteration*. [`full_broadcast_delay`] charges the primary hop
//!    without electing a primary: the delay is the same whichever worker
//!    plays it.
//!
//! The messages are bytes-level signals, so the overhead is dominated by
//! latency, not bandwidth — the ledger in [`overhead`] quantifies it (paper
//! Fig. 18 reports < 0.5% of JCT).

pub mod bus;
pub mod overhead;
pub mod runtime;
pub mod sync;

pub use bus::{ControlMsg, DeliveryOutcome, Directive};
pub use overhead::OverheadLedger;
pub use runtime::{Agent, AgentConfig, AgentCounts};
pub use sync::{direct_delay, full_broadcast_delay, BARRIER_SECS};
