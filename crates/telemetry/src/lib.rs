//! # antdt-telemetry — observability for the AntDT control plane
//!
//! The paper's Monitor is deliberately minute-level (§V-A): right for control
//! decisions, useless for diagnosing *why* a drill stalled or which rule
//! killed a node. This crate is the diagnostic layer underneath it:
//!
//! * [`MetricsRegistry`] — counters / gauges / fixed-bucket histograms keyed
//!   by node and component, with a Prometheus text renderer. A job renders its plain counts into a fresh registry at report
//!   time; process-level users (the what-if service) update it through
//!   shared atomic handles.
//! * [`SpanTracer`] — structured spans and instants exported as Chrome
//!   trace-event JSON, loadable in Perfetto.
//! * [`DecisionRecord`] — the Controller decision audit log (window stats,
//!   solver inputs/outputs, the rule that fired).
//! * [`FlightRecorder`] — a bounded ring of recent events, dumped when the
//!   liveness watchdog declares `stalled` or an invariant checker fails.
//! * [`CounterTrackSink`] — the seam the straggler-attribution engine exports
//!   its per-cause time decomposition through, rendered as Perfetto counter
//!   tracks.
//!
//! The crate sits below the simulator in the dependency graph: timestamps are
//! raw virtual microseconds (`u64`), never wall clock, so every export is
//! bit-for-bit reproducible across same-seed runs.

pub mod attr;
pub mod audit;
pub mod flight;
pub mod json;
pub mod metrics;
pub mod trace;

pub use attr::CounterTrackSink;
pub use audit::{DecisionRecord, SolverTrace};
pub use flight::{FlightDump, FlightEvent, FlightRecorder};
pub use metrics::{Counter, Gauge, Histogram, MetricsRegistry};
pub use trace::{ChromeTrace, SpanTracer, TraceEvent};

/// The recording half of one job's telemetry: the span trace and the flight
/// recorder. Plain data owned by the job's (single-threaded) event loop, so a
/// clone — a forked job — carries an independent copy of everything recorded
/// so far. Metrics are not recorded here: the job renders its counts into a
/// fresh [`MetricsRegistry`] once, at report time.
#[derive(Debug, Default, Clone)]
pub struct Telemetry {
    pub tracer: SpanTracer,
    pub flight: FlightRecorder,
}

impl Telemetry {
    /// Freeze the recorded state and `metrics` into a [`TelemetryReport`].
    /// The strings are pre-rendered so byte-identity across runs can be
    /// asserted directly.
    pub fn report(&self, metrics: &MetricsRegistry, flight_reason: &str) -> TelemetryReport {
        TelemetryReport {
            prometheus: metrics.render_prometheus(),
            chrome_trace: self.tracer.export_json(),
            flight: self.flight.dump(flight_reason),
        }
    }

    /// Estimated heap bytes of the recorded trace and flight ring.
    pub fn estimate_bytes(&self) -> usize {
        self.tracer.estimate_bytes() + self.flight.estimate_bytes()
    }
}

/// Rendered telemetry artifacts for one run, attached to `JobReport`.
///
/// All fields are deterministic functions of the seeded simulation, so two
/// same-seed runs produce `==` (byte-identical) reports.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryReport {
    /// Prometheus text-exposition rendering of the metrics registry.
    pub prometheus: String,
    /// Chrome trace-event JSON (`{"traceEvents": [...]}`), Perfetto-loadable.
    pub chrome_trace: String,
    /// Final flight-recorder ring (`reason` is `stalled` or `completed`).
    pub flight: FlightDump,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_is_deterministic_for_identical_activity() {
        let run = || {
            let (mut t, reg) = (Telemetry::default(), MetricsRegistry::new());
            reg.counter("antdt_events_handled_total", &[("runtime", "ps")]).add(12);
            reg.histogram("antdt_restart_delay_us", &[], &[1_000_000, 60_000_000])
                .observe(45_000_000);
            t.tracer.complete("compute", "gantt", 0, 2_000_000, 0);
            t.flight.record(2_000_000, "event", "WorkerComputeDone { w: 0 }".into());
            t.report(&reg, "completed")
        };
        let (a, b) = (run(), run());
        assert_eq!(a, b);
        assert!(!a.prometheus.is_empty());
        let parsed = ChromeTrace::from_json(&a.chrome_trace).unwrap();
        assert_eq!(parsed.trace_events.len(), 1);
    }
}
