//! The control-bus message vocabulary (paper Fig. 6, made explicit).
//!
//! Every hop of the Monitor→Controller→Agent loop is one of these typed
//! messages. The bus itself (scheduling, channel model, retries) lives in
//! `antdt-core`'s runtime — this crate only defines the wire types and the
//! agent-side endpoint semantics (fencing, dedup), so the component crates
//! stay independent of the runtime that carries their traffic.
//!
//! Fencing rule: a [`Directive`] is stamped with the *incarnation* of its
//! target agent at decision time (`fence_gen`). A restarted worker runs a
//! fresh incarnation; a directive fenced to a dead incarnation is rejected at
//! delivery — never applied — which is what makes delayed control channels
//! safe around `KILL_RESTART`.

use antdt_controller::Action;
use antdt_monitor::NodeId;
use antdt_sim::SimTime;

/// One generation-fenced Controller action addressed to one agent.
#[derive(Debug, Clone, PartialEq)]
pub struct Directive {
    /// Bus-unique sequence number: the dedup key under redelivery.
    pub seq: u64,
    /// When the Controller decided the action.
    pub decided_at: SimTime,
    /// The target agent's incarnation at decision time. Delivery to any
    /// other incarnation is rejected (stale fence).
    pub fence_gen: u32,
    pub action: Action,
}

/// One message on the control bus.
#[derive(Debug, Clone, PartialEq)]
pub enum ControlMsg {
    /// Agent → Monitor: one iteration statistic (`report_bpt` payload). `at`
    /// is the measurement instant; a delayed channel shifts *visibility*, not
    /// the measurement itself.
    Report { node: NodeId, at: SimTime, bpt_secs: f64, batch: u64 },
    /// Controller → Agent: one fenced action.
    Directive { target: NodeId, directive: Directive },
    /// Agent → Controller: delivery receipt (`accepted == false` for a
    /// stale-fence rejection, which the Controller audits).
    Ack { from: NodeId, seq: u64, accepted: bool },
}

/// What happened when a [`Directive`] reached an agent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeliveryOutcome {
    /// Queued for the next iteration boundary.
    Accepted,
    /// Already seen this seq (redelivery); idempotently dropped.
    Duplicate,
    /// The fence names a dead incarnation; the directive is stale.
    RejectedStale { agent_gen: u32 },
}
