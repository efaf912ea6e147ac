//! The cost of control-plane latency: JCT as a function of the modeled
//! Monitor→Controller→Agent channel delay on a non-dedicated PS job.

use crate::util::{header, secs, table};
use antdt_core::{DirectiveFate, Job, JobConfig, MitigationChoice};
use antdt_sim::{ControlChannel, SimDuration};
use antdt_workloads::cluster::cluster_a_scaled;
use antdt_workloads::{ModelProfile, Scenario};
use std::fmt::Write;

/// A scaled-down version of the non-dedicated PS example (10 workers, 4
/// servers, heavy worker mix): enough control traffic for channel delay to
/// matter, small enough sample count to keep the sweep cheap.
fn non_dedicated(ch: ControlChannel) -> JobConfig {
    JobConfig::ps_bsp(cluster_a_scaled(10, 4), Scenario::WorkerMix { intensity: 0.8 })
        .with_model(ModelProfile::xdeepfm())
        .with_global_batch(20_480)
        .with_samples(2_000_000)
        .with_batches_per_shard(20)
        .with_fast_cadence(SimDuration::from_secs(60))
        .with_seed(17)
        .with_mitigation(MitigationChoice::AntDtNd)
        .with_control_channel(ch)
}

/// The sweep points: control-plane one-way latency in seconds. 0 is the
/// `Ideal` channel (inline delivery at the classic broadcast instants); the
/// rest are lossless `Modeled` channels with fixed latency and no jitter.
const LATENCIES: [f64; 4] = [0.0, 1.0, 10.0, 60.0];

fn channel_for(latency_secs: f64) -> ControlChannel {
    if latency_secs == 0.0 {
        ControlChannel::Ideal
    } else {
        ControlChannel::Modeled { latency_secs, jitter_secs: 0.0, loss_prob: 0.0, seed: 7 }
    }
}

pub fn controlbus() -> String {
    let mut out = header("controlbus", "Control bus: JCT vs control-plane latency");

    // How much a slow control plane erodes the mitigation win. The
    // directive audit shows the traffic the channel carried.
    let mut rows = vec![vec![
        "latency".into(),
        "JCT (sim)".into(),
        "events".into(),
        "directives".into(),
        "applied".into(),
    ]];
    // Fan the sweep points out with `par_map`; each point is an
    // independent deterministic simulation. The latency-0 baseline is read
    // back from the collected results (order is preserved), so the rendered
    // rows are identical to the serial sweep.
    let sweep = antdt_par::par_map(LATENCIES.to_vec(), |latency| {
        (latency, Job::run(non_dedicated(channel_for(latency))))
    });
    let baseline_jct =
        sweep.iter().find(|(l, _)| *l == 0.0).map(|(_, r)| r.jct.as_secs_f64()).unwrap_or(0.0);
    for (latency, r) in &sweep {
        let jct = r.jct.as_secs_f64();
        let applied =
            r.directives.iter().filter(|d| matches!(d.fate, DirectiveFate::Applied { .. })).count();
        rows.push(vec![
            format!("{latency}s"),
            format!("{} ({:+.1}%)", secs(jct), (jct / baseline_jct.max(1e-9) - 1.0) * 100.0),
            r.events_processed.to_string(),
            r.directives.len().to_string(),
            applied.to_string(),
        ]);
    }
    out.push_str(&table(&rows));
    let _ = writeln!(
        out,
        "  sweep: non-dedicated PS (10 workers / 4 servers, WorkerMix 0.8), \
         one-way control latency 0→60 s"
    );
    out
}
