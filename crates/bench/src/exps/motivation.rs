//! Motivation figures (paper Figs. 1–3 and 7–9): the straggler phenomenon,
//! its JCT cost, and the batch-size/compute-time curves behind the solvers.

use super::WORKER_SI;
use crate::util::{at, header, secs, sparkline, table};
use antdt_core::{DataStrategy, Job, JobConfig, MitigationChoice};
use antdt_sim::SimDuration;
use antdt_workloads::cluster::cluster_a;
use antdt_workloads::{DeviceClass, ModelProfile, Scenario};
use std::fmt::Write;

/// Fig. 1's cast: w1 transient, w2 persistent, w3 3× slow, ps-3 persistent.
pub(crate) fn fig1_config() -> JobConfig {
    JobConfig::ps_asp(antdt_workloads::cluster::cluster_a_scaled(6, 4), Scenario::MotivationMix)
        .with_model(ModelProfile::xdeepfm())
        .with_global_batch(24_576)
        .with_samples(12_000_000)
        .with_batches_per_shard(50)
}

pub fn fig1() -> String {
    let mut out =
        header("fig1", "BPT among workers and servers, non-dedicated CPU cluster (paper Fig. 1)");
    let r = Job::run(fig1_config());
    let mut rows = vec![vec![
        "node".into(),
        "mean BPT".into(),
        "min".into(),
        "max".into(),
        "trajectory".into(),
    ]];
    for (i, s) in r.worker_bpt.iter().enumerate() {
        rows.push(vec![
            format!("w{i}"),
            format!("{:.2}s", s.mean().unwrap_or(0.0)),
            format!("{:.2}s", s.min().unwrap_or(0.0)),
            format!("{:.2}s", s.max().unwrap_or(0.0)),
            sparkline(s, 40),
        ]);
    }
    for (j, s) in r.server_bpt.iter().enumerate() {
        rows.push(vec![
            format!("ps-{j}"),
            format!("{:.2}s", s.mean().unwrap_or(0.0)),
            format!("{:.2}s", s.min().unwrap_or(0.0)),
            format!("{:.2}s", s.max().unwrap_or(0.0)),
            sparkline(s, 40),
        ]);
    }
    out.push_str(&table(&rows));
    out.push_str("  (w1 transient, w2 persistent, w3 deterministic 3x; ps-3 persistent — as in the paper's cast)\n");
    out
}

/// One Fig. 2 cell, on a shorter workload: the figure is about the ratio.
pub(crate) fn fig2_config(asp: bool, nondedicated: bool) -> JobConfig {
    let scenario = if nondedicated {
        antdt_workloads::straggler::non_dedicated_background()
    } else {
        Scenario::None
    };
    let mk = if asp { JobConfig::ps_asp } else { JobConfig::ps_bsp };
    mk(cluster_a(), scenario)
        .with_model(ModelProfile::xdeepfm())
        .with_global_batch(81_920)
        .with_samples(15_000_000)
        .with_batches_per_shard(100)
        .with_data_strategy(if asp { DataStrategy::EvenPartition } else { DataStrategy::Dds })
}

pub fn fig2() -> String {
    let mut out =
        header("fig2", "JCT: BSP vs ASP, dedicated vs non-dedicated CPU cluster (paper Fig. 2)");
    let run = |asp, nondedicated| Job::run(fig2_config(asp, nondedicated));
    let bsp_d = run(false, false);
    let bsp_n = run(false, true);
    let asp_d = run(true, false);
    let asp_n = run(true, true);
    out.push_str(&table(&[
        vec!["mode".into(), "dedicated".into(), "non-dedicated".into(), "slowdown".into()],
        vec![
            "BSP".into(),
            secs(bsp_d.jct.as_secs_f64()),
            secs(bsp_n.jct.as_secs_f64()),
            format!("{:.1}x", bsp_n.jct.as_secs_f64() / bsp_d.jct.as_secs_f64()),
        ],
        vec![
            "ASP".into(),
            secs(asp_d.jct.as_secs_f64()),
            secs(asp_n.jct.as_secs_f64()),
            format!("{:.1}x", asp_n.jct.as_secs_f64() / asp_d.jct.as_secs_f64()),
        ],
    ]));
    out.push_str("  (paper: non-dedicated is ~4x slower on average in both modes)\n");
    out
}

/// Even-partition ASP under the headline worker stragglers (Fig. 3).
pub(crate) fn fig3_config() -> JobConfig {
    JobConfig::ps_asp(cluster_a(), Scenario::WorkerMix { intensity: WORKER_SI })
        .with_model(ModelProfile::xdeepfm())
        .with_global_batch(81_920)
        .with_samples(15_000_000)
        .with_data_strategy(DataStrategy::EvenPartition)
}

pub fn fig3() -> String {
    let mut out =
        header("fig3", "Data consumption & local throughput, even-partition ASP (paper Fig. 3)");
    let cfg = fig3_config();
    let n = cfg.n_workers() as u64;
    let share = 15_000_000 / n;
    let r = Job::run(cfg);
    let mut rows =
        vec![vec!["worker".into(), "assigned".into(), "throughput".into(), "finish".into()]];
    for (i, s) in r.worker_bpt.iter().enumerate() {
        let tp = r.worker_batch[i].mean().map(|b| b / s.mean().unwrap_or(1.0)).unwrap_or(0.0);
        rows.push(vec![
            format!("w{i}"),
            format!("{share}"),
            format!("{tp:.0} samp/s"),
            s.last().map(|(t, _)| at(t)).unwrap_or_default(),
        ]);
    }
    out.push_str(&table(&rows));
    out.push_str(&format!(
        "  JCT (decided by slowest worker): {}\n  (equal consumption despite ~unequal throughput — the motivation for DDS)\n",
        secs(r.jct.as_secs_f64())
    ));
    out
}

/// The CPU batch sizes of Fig. 7.
pub(crate) const FIG7_BATCHES: [u64; 6] = [512, 1024, 2048, 4096, 8192, 16384];

pub fn fig7() -> String {
    let mut out = header("fig7", "BPT vs batch size, CPU cluster (paper Fig. 7: linear)");
    let c = ModelProfile::xdeepfm().compute;
    let mut rows = vec![vec!["batch".into(), "BPT".into(), "BPT/batch (ms)".into()]];
    for b in FIG7_BATCHES {
        let t = c.time(b, 1.0);
        rows.push(vec![b.to_string(), format!("{t:.3}s"), format!("{:.3}", t / b as f64 * 1e3)]);
    }
    out.push_str(&table(&rows));
    out
}

pub fn fig8() -> String {
    let mut out = header("fig8", "BPT vs batch size, GPU cluster (paper Fig. 8: flat then linear)");
    let c = ModelProfile::resnet101().compute;
    let mut rows = vec![vec!["batch".into(), "V100 BPT".into(), "P100 BPT".into()]];
    for b in [1u64, 2, 4, 8, 16, 32, 64, 96, 112] {
        rows.push(vec![
            b.to_string(),
            format!("{:.3}s", c.time(b, DeviceClass::v100().speed)),
            format!("{:.3}s", c.time(b, DeviceClass::p100().speed)),
        ]);
    }
    out.push_str(&table(&rows));
    out.push_str(&format!(
        "  saturation point B_min = {}, memory cap B_max = {} (V100) / {} (P100)\n",
        DeviceClass::v100().saturation_batch,
        DeviceClass::v100().mem_cap_batch,
        DeviceClass::p100().mem_cap_batch
    ));
    out
}

/// One Fig. 9 schedule: 40 ResNet-101 rounds under `m`, Gantt recorded.
pub(crate) fn fig9_config(m: MitigationChoice) -> JobConfig {
    let mut cfg = super::imagenet_job(ModelProfile::resnet101(), false)
        .with_samples(768 * 40) // 40 rounds: the policies act around round ~15
        .with_batches_per_shard(2)
        .with_monitor_tick(SimDuration::from_secs(5))
        .with_telemetry();
    cfg.agent = antdt_agent::AgentConfig { report_every_iters: 1 };
    if matches!(m, MitigationChoice::AntDtDd) {
        cfg = cfg.with_dd_classes(super::dd_classes_for(&ModelProfile::resnet101()));
    }
    cfg.with_mitigation(m)
}

pub fn fig9() -> String {
    let mut out =
        header("fig9", "Gantt: DDP vs LB-BSP vs AntDT-DD, one sync window (paper Fig. 9)");
    for (label, m) in [
        ("DDP", MitigationChoice::None),
        ("LB-BSP", MitigationChoice::LbBsp),
        ("AntDT-DD", MitigationChoice::AntDtDd),
    ] {
        let r = Job::run(fig9_config(m));
        let _ = writeln!(out, "  {label} (JCT {}):", secs(r.jct.as_secs_f64()));
        let g = r.gantt.expect("gantt recorded");
        for line in g.ascii(72).lines() {
            let _ = writeln!(out, "    {line}");
        }
    }
    out.push_str("  legend: # compute, = allreduce, . idle (waiting on stragglers), rows n0-n3 = V100, n4-n7 = P100\n");
    out
}
