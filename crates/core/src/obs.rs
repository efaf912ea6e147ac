//! Runtime-side telemetry shared by the PS and AllReduce runtimes: the one
//! place a job's plain counts become named metrics.
//!
//! A job's event loop runs on one thread, so nothing here is shared or
//! locked: the components (engine, DDS, Monitor, Agents, control bus) always
//! keep plain counts, and [`job_metrics`] writes them into a fresh
//! [`MetricsRegistry`] once, at report time.

use crate::runtime::kernel::Kernel;
use antdt_telemetry::MetricsRegistry;

/// Histogram bucket bounds for restart delays, in microseconds: 15 s / 1 min /
/// 5 min / 15 min / 30 min (+Inf implied). Chosen around the scheduler model's
/// idle (~1 min) and busy (~20 min) regimes.
const RESTART_DELAY_BOUNDS_US: [u64; 5] =
    [15_000_000, 60_000_000, 300_000_000, 900_000_000, 1_800_000_000];

/// The job's metrics: every count the kernel and its components kept, under
/// the names and `runtime` label the telemetry report carries. `scheduled`
/// and `processed` are the engine's event counts.
pub(crate) fn job_metrics(k: &Kernel, scheduled: u64, processed: u64) -> MetricsRegistry {
    let reg = MetricsRegistry::new();
    let rt: &[(&str, &str)] = &[("runtime", k.cfg.arch.runtime_label())];
    let count = |name: &str, v: u64| reg.counter(name, rt).add(v);
    count("antdt_engine_events_scheduled_total", scheduled);
    count("antdt_engine_events_processed_total", processed);
    count("antdt_worker_iterations_total", k.iterations);
    count("antdt_controller_actions_dispatched_total", k.actions.len() as u64);
    count("antdt_node_kills_total", k.kills.len() as u64);
    count("antdt_node_restarts_total", k.restarts.len() as u64);
    let h = reg.histogram("antdt_restart_delay_us", rt, &RESTART_DELAY_BOUNDS_US);
    for &d in &k.restart_delays_us {
        h.observe(d);
    }
    let dds = k.dds.as_ref().map(|d| d.counts()).unwrap_or_default();
    count("antdt_dds_fetch_served_total", dds.fetch_served);
    count("antdt_dds_fetch_empty_total", dds.fetch_empty);
    count("antdt_dds_shards_done_total", dds.done);
    count("antdt_dds_shards_requeued_total", dds.requeued);
    let (monitor, agents, bus) = k.bus.counts();
    count("antdt_monitor_bpt_reports_total", monitor.bpt_reports);
    count("antdt_monitor_node_events_total", monitor.node_events);
    count("antdt_agent_actions_delivered_total", agents.delivered);
    count("antdt_agent_actions_applied_total", agents.applied);
    count("antdt_agent_actions_rejected_total", agents.rejected);
    count("antdt_agent_actions_deduped_total", agents.deduped);
    count("antdt_bus_msgs_sent_total", bus.sent);
    count("antdt_bus_msgs_delivered_total", bus.delivered);
    count("antdt_bus_msgs_dropped_total", bus.dropped);
    count("antdt_bus_msgs_retried_total", bus.retried);
    reg
}
