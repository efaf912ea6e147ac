//! Gantt-chart recorder (paper Fig. 9): per-node spans of compute, communication,
//! idle/blocked and failover time, used both for visualisation and for the
//! overhead-decomposition experiment (Fig. 18).

use crate::time::{SimDuration, SimTime};
use antdt_telemetry::TraceEvent;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanKind {
    /// Forward/backward computation of a micro-batch.
    Compute,
    /// Gradient push / parameter pull / AllReduce exchange.
    Comm,
    /// Blocked at a synchronization barrier waiting for stragglers.
    Idle,
    /// Node down: killed/pending/init/restore.
    Failover,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    pub node: u32,
    pub kind: SpanKind,
    pub start: SimTime,
    pub end: SimTime,
}

impl Span {
    pub fn duration(&self) -> SimDuration {
        self.end.since(self.start)
    }
}

#[derive(Debug, Clone, Default, PartialEq)]
pub struct Gantt {
    pub spans: Vec<Span>,
}

impl Gantt {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn record(&mut self, node: u32, kind: SpanKind, start: SimTime, end: SimTime) {
        if end > start {
            self.spans.push(Span { node, kind, start, end });
        }
    }

    /// Nodes appearing in the chart, sorted.
    pub fn nodes(&self) -> Vec<u32> {
        let mut ns: Vec<u32> = self.spans.iter().map(|s| s.node).collect();
        ns.sort_unstable();
        ns.dedup();
        ns
    }

    /// Convert every span into a Chrome trace-event (`ph = "X"`) so the chart
    /// can be merged into a [`antdt_telemetry::SpanTracer`] export and loaded
    /// in Perfetto. Each node gets one track *per span kind* (`tid = node * 8
    /// + kind lane`: compute 0, comm 1, idle 2, failover 3) —
    /// collapsing everything onto one row per node used to hide exactly the
    /// wait intervals the attribution engine decomposes. The span kind
    /// becomes the event name; the category stays `gantt`.
    pub fn to_trace_events(&self) -> Vec<TraceEvent> {
        self.spans
            .iter()
            .map(|s| {
                let (name, lane) = match s.kind {
                    SpanKind::Compute => ("compute", 0),
                    SpanKind::Comm => ("comm", 1),
                    SpanKind::Idle => ("idle", 2),
                    SpanKind::Failover => ("failover", 3),
                };
                TraceEvent {
                    name: name.to_string(),
                    cat: "gantt".to_string(),
                    ph: "X".to_string(),
                    ts: s.start.as_micros(),
                    dur: Some(s.duration().as_micros()),
                    pid: 0,
                    tid: s.node * 8 + lane,
                    value: None,
                    args: Default::default(),
                }
            })
            .collect()
    }

    /// Render a coarse ASCII chart (one row per node, `cols` columns) — handy for
    /// the `experiments fig9` output.
    pub fn ascii(&self, cols: usize) -> String {
        use std::fmt::Write as _;
        let Some(end) = self.spans.iter().map(|s| s.end).max() else {
            return String::new();
        };
        let scale = end.as_micros().max(1) as f64;
        let mut out = String::new();
        // One row buffer reused across nodes; rows are written straight into
        // `out` instead of through a per-row intermediate `String`.
        let mut row = vec![' '; cols];
        for node in self.nodes() {
            row.iter_mut().for_each(|c| *c = ' ');
            for s in self.spans.iter().filter(|s| s.node == node) {
                let a = ((s.start.as_micros() as f64 / scale) * cols as f64) as usize;
                let b =
                    (((s.end.as_micros() as f64 / scale) * cols as f64).ceil() as usize).min(cols);
                let ch = match s.kind {
                    SpanKind::Compute => '#',
                    SpanKind::Comm => '=',
                    SpanKind::Idle => '.',
                    SpanKind::Failover => 'X',
                };
                for c in row.iter_mut().take(b).skip(a.min(cols)) {
                    *c = ch;
                }
            }
            let _ = write!(out, "n{node:<3} |");
            out.extend(row.iter());
            out.push_str("|\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nodes_are_sorted_and_distinct() {
        let mut g = Gantt::new();
        g.record(1, SpanKind::Compute, SimTime::ZERO, SimTime::from_secs_f64(5.0));
        g.record(0, SpanKind::Compute, SimTime::ZERO, SimTime::from_secs_f64(2.0));
        g.record(0, SpanKind::Comm, SimTime::from_secs_f64(2.0), SimTime::from_secs_f64(3.0));
        assert_eq!(g.nodes(), vec![0, 1]);
    }

    #[test]
    fn empty_spans_are_dropped() {
        let mut g = Gantt::new();
        g.record(0, SpanKind::Idle, SimTime::from_secs_f64(1.0), SimTime::from_secs_f64(1.0));
        assert!(g.spans.is_empty());
    }

    #[test]
    fn spans_convert_to_chrome_trace_events() {
        let mut g = Gantt::new();
        g.record(2, SpanKind::Comm, SimTime::from_secs_f64(1.0), SimTime::from_secs_f64(3.0));
        g.record(2, SpanKind::Compute, SimTime::ZERO, SimTime::from_secs_f64(1.0));
        let evs = g.to_trace_events();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].name, "comm");
        assert_eq!(evs[0].ph, "X");
        assert_eq!(evs[0].ts, 1_000_000);
        assert_eq!(evs[0].dur, Some(2_000_000));
        // Wait and compute spans land on distinct tracks of the same node:
        // tid = node * 8 + kind lane (comm = 1, compute = 0).
        assert_eq!(evs[0].tid, 17);
        assert_eq!(evs[1].tid, 16);
    }

    #[test]
    fn ascii_renders_rows() {
        let mut g = Gantt::new();
        g.record(0, SpanKind::Compute, SimTime::ZERO, SimTime::from_secs_f64(1.0));
        g.record(1, SpanKind::Idle, SimTime::ZERO, SimTime::from_secs_f64(1.0));
        let art = g.ascii(10);
        assert!(art.contains("n0"));
        assert!(art.contains('#'));
        assert!(art.contains('.'));
        assert!(Gantt::new().ascii(10).is_empty());
    }
}
