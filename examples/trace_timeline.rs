//! Trace timeline: run a short AntDT-ND job with full telemetry and a chaos
//! injection, then export the run as a Perfetto-loadable Chrome trace plus a
//! Prometheus metrics snapshot.
//!
//! ```sh
//! cargo run --release --example trace_timeline
//! # then open https://ui.perfetto.dev and drag in target/trace_timeline.json
//! ```

use antdt::core::{Fault, FaultEvent, Job, JobConfig, MitigationChoice, NodeRef};
use antdt::workloads::{cluster, ModelProfile, Scenario};

fn main() {
    // The quickstart workload, shortened, with one worker killed mid-run so the
    // timeline shows a full failover (kill → restart → DDS shard requeue).
    let cfg =
        JobConfig::ps_bsp(cluster::cluster_a_scaled(8, 4), Scenario::WorkerMix { intensity: 0.8 })
            .with_model(ModelProfile::xdeepfm())
            .with_global_batch(16_384)
            .with_samples(4_000_000)
            .with_batches_per_shard(20)
            .with_mitigation(MitigationChoice::AntDtNd)
            .with_injections(vec![FaultEvent {
                at_secs: 120.0,
                fault: Fault::KillNode { node: NodeRef::Worker(3) },
            }])
            .with_telemetry();

    println!("running the quickstart workload with telemetry on ...");
    let report = Job::run(cfg);
    let t = report.telemetry.as_ref().expect("telemetry was enabled");

    std::fs::create_dir_all("target").expect("create target/");
    let trace_path = "target/trace_timeline.json";
    let prom_path = "target/trace_timeline.prom";
    std::fs::write(trace_path, &t.chrome_trace).expect("write Chrome trace");
    std::fs::write(prom_path, &t.prometheus).expect("write Prometheus snapshot");

    let trace = antdt::telemetry::ChromeTrace::from_json(&t.chrome_trace)
        .expect("export round-trips through the Chrome schema");
    println!();
    println!("JCT: {:.1}s (simulated), {} iterations", report.jct.as_secs_f64(), report.iterations);
    println!(
        "trace: {} events ({} gantt spans, {} instants) -> {trace_path}",
        trace.trace_events.len(),
        trace.trace_events.iter().filter(|e| e.ph == "X").count(),
        trace.trace_events.iter().filter(|e| e.ph == "i").count(),
    );
    println!("metrics: {} Prometheus lines -> {prom_path}", t.prometheus.lines().count());
    println!(
        "flight recorder: {} events retained, {} dropped (reason: {})",
        t.flight.events.len(),
        t.flight.dropped,
        t.flight.reason
    );

    // The Controller decision audit log explains every mitigation on the chart.
    println!("\ncontroller decisions (audit log):");
    for rec in report.decision_log.iter().take(6) {
        println!(
            "  {:>7.0}s  {:<22} node={:<4} actions={:?}",
            rec.at_us as f64 / 1e6,
            rec.rule,
            if rec.node.is_empty() { "-" } else { &rec.node },
            rec.actions
        );
    }
    if report.decision_log.len() > 6 {
        println!("  ... and {} more", report.decision_log.len() - 6);
    }

    println!("\nto view the timeline: open https://ui.perfetto.dev and drag in {trace_path}");
}
