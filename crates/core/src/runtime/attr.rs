//! Kernel side of the straggler-attribution engine: the instrumentation seam
//! between the runtime drivers and the std-only [`antdt_attr`] ledger.
//!
//! Every helper here is a no-op unless [`crate::config::JobConfig::attribution`]
//! armed the engine, and none of them schedules events or draws randomness:
//! the hooks only *observe* instants the schedule already produced, so an
//! attribution-on run is byte-identical to attribution-off everywhere except
//! the `attr` report section. The drivers call three shapes of hook:
//!
//! * [`Kernel::attr_sync`] at an iteration/round boundary — closes the node's
//!   open idle gap with its pending cause, carving the trailing share spent
//!   waiting on a late control-bus directive;
//! * [`Kernel::attr_fill`] for work the driver just booked (compute, push
//!   transfer, server service) — extends the timeline contiguously;
//! * [`Kernel::attr_kill`] / [`Kernel::attr_barrier`] at lifecycle and
//!   barrier-close instants.
//!
//! Node ids follow the telemetry lane convention: workers are `w`, servers
//! are [`SERVER_LANE`]` + s`.

use super::kernel::Kernel;
use crate::report::{AttrBlame, AttrCrit, AttrNode, AttrReport};
use antdt_attr::{analyze, Analysis, BlameEntry, CritSegment, Ledger, NodeBreakdown, WaitCause};
use antdt_controller::Action;
use antdt_sim::SimTime;
use antdt_telemetry::{CounterTrackSink, MetricsRegistry, SpanTracer};
use std::sync::Arc;

/// Server `s` appears in the ledger (and the trace viewer) as `1000 + s`.
pub(crate) const SERVER_LANE: u32 = 1000;

/// Runtime state of the attribution engine: just the per-node ledger — all
/// analysis happens once, at report assembly.
#[derive(Clone)]
pub(crate) struct AttrRt {
    pub(crate) ledger: Ledger,
}

impl AttrRt {
    pub(crate) fn new() -> Self {
        AttrRt { ledger: Ledger::new() }
    }
}

impl Kernel {
    /// Largest delivery→application lag among the directives about to be
    /// applied at `now` — the share of the preceding idle gap attributable to
    /// waiting on the control bus. Zero (and no scan) when attribution is off.
    pub(crate) fn attr_ctrl_lag_us(
        &self,
        now: SimTime,
        due: &[(SimTime, Action, Arc<str>)],
    ) -> u64 {
        if self.attr.is_none() {
            return 0;
        }
        due.iter().map(|(at, _, _)| now.since(*at).as_micros()).max().unwrap_or(0)
    }

    /// Close `node`'s open idle gap at `to`: pending cause first, then a
    /// trailing `ctrl_us` carve of control-bus wait (clamped to the gap).
    pub(crate) fn attr_sync(&mut self, node: u32, to: SimTime, ctrl_us: u64) {
        if let Some(a) = self.attr.as_mut() {
            a.ledger.sync_to(node, to.as_micros(), ctrl_us);
        }
    }

    /// Attribute `node`'s timeline up to `to` to `cause` (contiguous from the
    /// cursor; no-op if `to` is behind).
    pub(crate) fn attr_fill(&mut self, node: u32, to: SimTime, cause: WaitCause) {
        if let Some(a) = self.attr.as_mut() {
            a.ledger.fill(node, to.as_micros(), cause);
        }
    }

    /// Set the cause the next [`Kernel::attr_sync`] charges the open gap to
    /// (e.g. `DataWait` when a worker enters a starvation poll).
    pub(crate) fn attr_pending(&mut self, node: u32, cause: WaitCause) {
        if let Some(a) = self.attr.as_mut() {
            a.ledger.set_pending(node, cause);
        }
    }

    /// `node` died at `at`: close its gap, clip work booked past the kill
    /// instant (a kill interrupts compute attributed ahead of real time),
    /// then either freeze the timeline (`permanent` — no replacement coming)
    /// or leave the open failover window pending `FaultRecovery` for the
    /// replacement's first boundary sync to close.
    pub(crate) fn attr_kill(&mut self, node: u32, at: SimTime, permanent: bool) {
        if let Some(a) = self.attr.as_mut() {
            let us = at.as_micros();
            a.ledger.sync_to(node, us, 0);
            a.ledger.truncate(node, us);
            if permanent {
                a.ledger.mark_dead(node);
            } else {
                a.ledger.set_pending(node, WaitCause::FaultRecovery);
            }
        }
    }

    /// Record a barrier close from its per-participant arrival instants
    /// (microseconds). Fewer than two arrivals carry no determiner margin and
    /// are skipped by the ledger.
    pub(crate) fn attr_barrier(&mut self, iter: u64, arrivals: &[(u32, u64)]) {
        if let Some(a) = self.attr.as_mut() {
            a.ledger.barrier(iter, arrivals);
        }
    }
}

/// Export the finished ledger into the job's telemetry: one Perfetto
/// counter track per cause (cumulative µs, one lane per node) in `tracer`
/// plus labeled counters `antdt_attr_wait_us_total{cause, node}` in
/// `metrics`.
pub(crate) fn export_telemetry(
    ledger: &Ledger,
    metrics: &MetricsRegistry,
    tracer: &mut SpanTracer,
) {
    let mut sink = CounterTrackSink::new(tracer);
    for node in ledger.node_ids() {
        for s in ledger.segs(node) {
            sink.segment(node, s.cause.as_str(), s.start_us, s.end_us);
        }
        let totals = ledger.totals(node);
        let node_label = node.to_string();
        for c in WaitCause::ALL {
            let us = totals[c.index()];
            if us > 0 {
                metrics
                    .counter(
                        "antdt_attr_wait_us_total",
                        &[("cause", c.as_str()), ("node", &node_label)],
                    )
                    .add(us);
            }
        }
    }
}

/// Analyze the finalized ledger and freeze the result into the report form. Debug builds re-verify conservation (ε = 0) on every run.
pub(crate) fn report_of(ledger: &Ledger, end_us: u64) -> AttrReport {
    debug_assert_eq!(ledger.check_conservation(), Ok(()));
    let a = analyze(ledger, end_us);
    AttrReport {
        end_us: a.end_us,
        nodes: a
            .nodes
            .iter()
            .map(|n| AttrNode {
                node: n.node,
                wall_us: n.wall_us,
                dead: n.dead,
                totals_us: n.totals_us,
            })
            .collect(),
        crit: a
            .crit
            .iter()
            .map(|c| AttrCrit { iter: c.iter, node: c.node, gap_us: c.gap_us })
            .collect(),
        blame: a
            .blame
            .iter()
            .map(|b| AttrBlame {
                node: b.node,
                crit_us: b.crit_us,
                excess_us: b.excess_us,
                score_us: b.score_us,
            })
            .collect(),
        counterfactuals: Vec::new(),
    }
}

/// Rehydrate an [`Analysis`] from its report form so the `antdt-attr` what-if
/// predictors can run against a finished [`crate::report::JobReport`].
pub(crate) fn analysis_of(r: &AttrReport) -> Analysis {
    Analysis {
        end_us: r.end_us,
        nodes: r
            .nodes
            .iter()
            .map(|n| NodeBreakdown {
                node: n.node,
                wall_us: n.wall_us,
                totals_us: n.totals_us,
                dead: n.dead,
            })
            .collect(),
        crit: r
            .crit
            .iter()
            .map(|c| CritSegment { iter: c.iter, node: c.node, gap_us: c.gap_us })
            .collect(),
        blame: r
            .blame
            .iter()
            .map(|b| BlameEntry {
                node: b.node,
                crit_us: b.crit_us,
                excess_us: b.excess_us,
                score_us: b.score_us,
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_round_trips_through_analysis() {
        let mut l = Ledger::new();
        l.fill(0, 500, WaitCause::Compute);
        l.fill(1, 900, WaitCause::Compute);
        l.fill(SERVER_LANE, 200, WaitCause::Comm);
        l.barrier(0, &[(0, 500), (1, 900)]);
        l.finalize(1_000);
        let r = report_of(&l, 1_000);
        assert_eq!(r.blame[0].node, 1);
        assert_eq!(r.blame[0].score_us, 400);
        let a = analysis_of(&r);
        assert_eq!(a.nodes.len(), 3);
        assert_eq!(a.blame[0].score_us, 400);
        assert_eq!(a.crit.len(), 1);
    }

    #[test]
    fn telemetry_export_emits_counter_tracks_and_metrics() {
        let mut l = Ledger::new();
        l.fill(2, 300, WaitCause::Compute);
        l.fill(2, 450, WaitCause::SyncWait);
        l.finalize(450);
        let (reg, mut tracer) = (MetricsRegistry::new(), SpanTracer::new());
        export_telemetry(&l, &reg, &mut tracer);
        let trace = tracer.export();
        assert!(trace
            .trace_events
            .iter()
            .any(|e| e.ph == "C" && e.name == "attr_wait:compute" && e.value == Some(300)));
        let prom = reg.render_prometheus();
        assert!(prom.contains("antdt_attr_wait_us_total"));
        assert!(prom.contains("cause=\"sync_wait\""));
    }
}
