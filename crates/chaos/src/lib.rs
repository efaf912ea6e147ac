//! # antdt-chaos — deterministic fault-injection & chaos-drill subsystem
//!
//! Production fault-tolerance claims (§IV Stateful DDS failover, §V global
//! mitigation actions) are only as good as the drills that exercise them.
//! This crate turns the discrete-event simulator into a chaos harness:
//!
//! * [`FaultPlan`] — a named list of timestamped [`FaultEvent`]s (node
//!   kills, restart delays, link degradation, DDS outages, lossy reporting)
//!   in `antdt-core`'s one fault vocabulary,
//!   compiled (sorted by time) into a `JobConfig`'s `injections` and
//!   delivered as first-class simulator events, so every drill is
//!   bit-for-bit reproducible from `(plan, seed)`;
//! * [`invariants`] — post-drill checkers: at-least-once / at-most-once
//!   shard audits, barrier liveness (a wedged drill must *fail loudly* via
//!   the watchdog, never hang), global-action convergence across surviving
//!   workers, and AUC parity against the fault-free run of the same seed;
//! * [`ChaosDriver`] — runs a (plan × mitigation-policy) matrix, pairing
//!   each drill with its clean twin, and emits a [`DrillReport`] per cell
//!   (fault timeline, recovery marks, invariant verdicts, JCT overhead);
//! * [`FaultPlan::random`] — a seeded plan generator for property-based
//!   fuzz drills.
//!
//! ```no_run
//! use antdt_chaos::{ChaosDriver, Fault, FaultPlan, NodeRef};
//! use antdt_core::{JobConfig, MitigationChoice};
//! use antdt_workloads::cluster::cluster_a_scaled;
//! use antdt_workloads::Scenario;
//!
//! let base = JobConfig::ps_bsp(cluster_a_scaled(4, 2), Scenario::None);
//! let plan = FaultPlan::new("kill-w1")
//!     .at(30.0, Fault::KillNode { node: NodeRef::Worker(1) });
//! let matrix = ChaosDriver::new(base)
//!     .with_plan(plan)
//!     .with_policies(vec![MitigationChoice::AntDtNd])
//!     .run();
//! println!("{}", matrix.render());
//! assert!(matrix.all_passed());
//! ```

pub mod driver;
pub mod invariants;
pub mod plan;

/// The fault vocabulary is `antdt-core`'s, re-exported so a plan is written
/// against this crate alone.
pub use antdt_core::{Fault, FaultEvent, NodeRef};
pub use driver::{ChaosDriver, DrillReport, MatrixReport};
pub use invariants::InvariantOutcome;
pub use plan::{FaultPlan, PlanBounds};
