//! # antdt-sim — discrete-event cluster simulation kernel
//!
//! The AntDT paper evaluates on Ant Group production clusters where stragglers are
//! *injected* (FlexRR-style sleep commands) because natural contention is not
//! controllable. This crate provides the deterministic substrate that stands in for
//! those clusters: a virtual clock, an event queue, seeded random streams, per-node
//! speed/contention profiles, a network cost model, and a cluster-scheduler model
//! (pod pending + init times for `KILL_RESTART`).
//!
//! Everything is deterministic given a master seed: the same configuration always
//! produces the same event trace, which the property tests rely on.
//!
//! The kernel is intentionally generic: [`Engine`] knows nothing about parameter
//! servers or AllReduce; the training runtimes in `antdt-core` drive it with their
//! own event types.

pub mod control;
pub mod dist;
pub mod engine;
pub mod gantt;
pub mod network;
pub mod profile;
mod queue;
pub mod rng;
pub mod sched;
pub mod series;
pub mod time;

pub use control::{ChannelVerdict, ControlChannel};
pub use engine::Engine;
pub use gantt::{Gantt, Span, SpanKind};
pub use network::Link;
pub use profile::{ContentionPhase, ContentionSpan, NodeContention, NodeProfile, TransientPattern};
pub use rng::RngPool;
pub use sched::{BusynessTimeline, SchedulerModel};
pub use series::TimeSeries;
pub use time::{SimDuration, SimTime};
