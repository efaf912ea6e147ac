//! The attribution export seam: how the runtime's per-cause time
//! decomposition (the `antdt-attr` ledger) flows into telemetry artifacts
//! without the attribution crate depending on this one — or vice versa.
//!
//! The runtime walks its finished ledger and feeds every attributed interval
//! to a [`CounterTrackSink`]; causes travel as their stable snake_case labels
//! so the seam is a plain `(node, label, interval)` stream, rendered as
//! cumulative Perfetto counter tracks (`ph = "C"`), one track per cause with
//! one lane per node, in the same trace viewers the span tracer feeds.

use crate::trace::SpanTracer;
use std::collections::BTreeMap;

/// Renders the attribution stream as cumulative Perfetto counter tracks: for
/// each segment, a `ph = "C"` sample named `attr_wait:{cause}` at the segment
/// end carrying the node's cumulative microseconds in that cause. One track
/// per cause, one lane (`tid`) per node.
pub struct CounterTrackSink<'a> {
    tracer: &'a mut SpanTracer,
    /// Track name of each cause label seen so far.
    names: BTreeMap<String, String>,
    /// Each node's running total per cause label.
    cum: BTreeMap<u32, BTreeMap<String, u64>>,
}

impl<'a> CounterTrackSink<'a> {
    pub fn new(tracer: &'a mut SpanTracer) -> Self {
        CounterTrackSink { tracer, names: BTreeMap::new(), cum: BTreeMap::new() }
    }

    /// One attributed interval `[start_us, end_us)` of `node`'s wall time.
    /// `cause` is the stable snake_case cause label (`compute`, `data_wait`,
    /// `sync_wait`, `comm`, `control_bus`, `ckpt_stall`, `fault_recovery`).
    /// The runtime feeds segments in (node, time) order, so same-seed runs
    /// export identical tracks.
    pub fn segment(&mut self, node: u32, cause: &str, start_us: u64, end_us: u64) {
        // Both maps are searched by `&str`: only a first sighting allocates.
        if !self.names.contains_key(cause) {
            self.names.insert(cause.to_string(), format!("attr_wait:{cause}"));
        }
        let totals = self.cum.entry(node).or_default();
        if !totals.contains_key(cause) {
            totals.insert(cause.to_string(), 0);
        }
        let cum = totals.get_mut(cause).expect("inserted above");
        *cum += end_us.saturating_sub(start_us);
        self.tracer.counter(&self.names[cause], "attr", end_us, node, *cum);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_track_sink_accumulates_per_node_and_cause() {
        let mut t = SpanTracer::new();
        let mut sink = CounterTrackSink::new(&mut t);
        sink.segment(0, "compute", 0, 100);
        sink.segment(0, "compute", 150, 250);
        sink.segment(1, "compute", 0, 40);
        sink.segment(0, "sync_wait", 100, 150);
        let trace = t.export();
        assert_eq!(trace.trace_events.len(), 4);
        assert!(trace.trace_events.iter().all(|e| e.ph == "C" && e.cat == "attr"));
        // Node 0's compute track accumulates across segments…
        let n0: Vec<u64> = trace
            .trace_events
            .iter()
            .filter(|e| e.tid == 0 && e.name == "attr_wait:compute")
            .map(|e| e.value.unwrap())
            .collect();
        assert_eq!(n0, vec![100, 200]);
        // …independently of node 1's lane and of other causes.
        let n1 = trace
            .trace_events
            .iter()
            .find(|e| e.tid == 1 && e.name == "attr_wait:compute")
            .unwrap();
        assert_eq!(n1.value, Some(40));
    }
}
