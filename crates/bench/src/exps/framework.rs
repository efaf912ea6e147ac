//! Q2–Q4 — AntDT-DD on heterogeneous GPUs, framework properties, the fleet
//! A/B test and Table III (paper Figs. 15, 16, 18, 19; Fig. 17 is the
//! checkpoint sweep in `ckpt.rs`).

use super::{criteo_job, criteo_job_asp, dd_classes_for, imagenet_job, straggler, WORKER_SI};
use crate::util::{header, pct, secs, table};
use antdt_core::fleet::{self, FleetConfig, FleetMethod};
use antdt_core::{Job, JobConfig, JobReport, MitigationChoice};
use antdt_sim::series::mean_std;
use antdt_workloads::cluster::{cluster_c, ClusterSize};
use antdt_workloads::{ModelProfile, Scenario};
use std::fmt::Write;

/// The Fig. 15 models: ResNet-101, and MobileNets on memory-bound P100s.
pub(crate) fn fig15_models() -> [(ModelProfile, bool); 2] {
    [(ModelProfile::resnet101(), false), (ModelProfile::mobilenets(), true)]
}

/// DDP, LB-BSP and AntDT-DD on one Fig. 15 model, in table order.
pub(crate) fn fig15_configs(model: &ModelProfile, membound: bool) -> Vec<JobConfig> {
    let job = || imagenet_job(model.clone(), membound);
    vec![
        job(),
        job().with_mitigation(MitigationChoice::LbBsp),
        job().with_mitigation(MitigationChoice::AntDtDd).with_dd_classes(dd_classes_for(model)),
    ]
}

pub fn fig15() -> String {
    let mut out = header("fig15", "JCT on mixed V100+P100 GPUs (paper Fig. 15)");
    for (model, membound) in fig15_models() {
        let name = model.name;
        // The three methods are independent runs on the same cluster: fan
        // them out with `par_map`.
        let runs = antdt_par::par_map(fig15_configs(&model, membound), Job::run);
        let [ddp, lb, dd]: [JobReport; 3] = runs.try_into().expect("three methods");
        let _ = writeln!(out, "  {name}:");
        out.push_str(&table(&[
            vec!["method".into(), "JCT".into(), "speedup vs DDP".into()],
            vec!["DDP".into(), secs(ddp.jct.as_secs_f64()), "1.00x".into()],
            vec![
                "LB-BSP".into(),
                secs(lb.jct.as_secs_f64()),
                format!("{:.2}x", ddp.jct.as_secs_f64() / lb.jct.as_secs_f64()),
            ],
            vec![
                "AntDT-DD".into(),
                secs(dd.jct.as_secs_f64()),
                format!("{:.2}x", ddp.jct.as_secs_f64() / dd.jct.as_secs_f64()),
            ],
        ]));
        if let Some((_, antdt_controller::Action::AdjustBs { batch_sizes, grad_accum })) =
            dd.actions.first()
        {
            let _ = writeln!(
                out,
                "  AntDT-DD allocation: B = {:?}, C = {:?}",
                &batch_sizes[..],
                grad_accum.as_ref().map(|g| &g[..]).unwrap_or(&[])
            );
        }
    }
    out
}

pub fn fig16() -> String {
    let mut out = header("fig16", "Shards consumed vs worker throughput, ASP-DDS (paper Fig. 16)");
    let r = Job::run(criteo_job_asp(Scenario::WorkerMix { intensity: WORKER_SI }));
    let c = r.consumption.expect("dds consumption");
    let mut rows =
        vec![vec!["worker".into(), "shards done".into(), "samples done".into(), "mean BPT".into()]];
    for (w, cons) in &c.per_worker {
        rows.push(vec![
            format!("w{w}"),
            cons.shards_done.to_string(),
            cons.samples_done.to_string(),
            format!("{:.2}s", r.worker_bpt[*w as usize].mean().unwrap_or(0.0)),
        ]);
    }
    out.push_str(&table(&rows));
    out.push_str(
        "  (shard counts track throughput: slow workers naturally request fewer shards)\n",
    );
    out
}

/// The three Cluster-C scales of Fig. 18.
pub(crate) const FIG18_SCALES: [(&str, ClusterSize); 3] =
    [("small", ClusterSize::Small), ("medium", ClusterSize::Medium), ("large", ClusterSize::Large)];

/// AntDT-ND on the in-house transformer at one Cluster-C scale (Fig. 18).
pub(crate) fn fig18_config(size: ClusterSize) -> JobConfig {
    let mut cluster = cluster_c(size);
    antdt_workloads::straggler::apply(&mut cluster, Scenario::NonDedicated { mean_slowdown: 2.0 });
    JobConfig::ps_bsp(cluster, Scenario::None)
        .with_model(ModelProfile::transformer_inhouse())
        .with_global_batch(30_720)
        .with_samples(12_288_000) // 400 iterations
        .with_batches_per_shard(100)
        .with_mitigation(MitigationChoice::AntDtNd)
}

pub fn fig18() -> String {
    let mut out = header("fig18", "AntDT overhead at three Cluster-C scales (paper Fig. 18)");
    let mut rows = vec![vec![
        "scale".into(),
        "workers/servers".into(),
        "JCT".into(),
        "overhead".into(),
        "DDS share".into(),
        "sync share".into(),
    ]];
    for (label, size) in FIG18_SCALES {
        let (nw, ns) = size.workers_servers();
        let r = Job::run(fig18_config(size));
        let (dds, sync) = r.overhead.split();
        rows.push(vec![
            label.into(),
            format!("{nw}/{ns}"),
            secs(r.jct.as_secs_f64()),
            format!("{:.2}%", r.overhead.fraction_of(r.jct) * 100.0),
            format!("{:.0}%", dds * 100.0),
            format!("{:.0}%", sync * 100.0),
        ]);
    }
    out.push_str(&table(&rows));
    out.push_str("  (paper: total overhead < 0.5% of JCT at every scale; ~55% DDS / ~45% sync)\n");
    out
}

/// The §VII-F homepage anecdote (27.8 h -> 5.4 h): transient noise on every
/// worker, three persistent stragglers of growing severity, a slow server.
pub(crate) fn homepage_job(m: MitigationChoice) -> JobConfig {
    let mut cluster = antdt_workloads::cluster::cluster_a_scaled(46, 10);
    antdt_workloads::straggler::apply(&mut cluster, Scenario::WorkerTransient { intensity: 1.0 });
    for (rank, delay) in [(45usize, 16.0f64), (30, 12.0), (15, 8.0)] {
        cluster.workers[rank].profile.phases.push(
            antdt_sim::profile::ContentionPhase::Persistent {
                delay_secs: delay,
                from: antdt_sim::SimTime::ZERO,
                to: antdt_sim::SimTime::MAX,
            },
        );
    }
    antdt_workloads::straggler::apply(&mut cluster, Scenario::ServerPersistent { intensity: 0.8 });
    JobConfig::ps_bsp(cluster, Scenario::None)
        .with_model(ModelProfile::xdeepfm())
        .with_global_batch(81_920)
        .with_samples(60_000_000)
        .with_batches_per_shard(100)
        .with_mitigation(m)
}

pub fn fig19() -> String {
    let mut out = header("fig19", "Production fleet A/B test (paper Fig. 19 / §VII-F)");
    let cfg = FleetConfig::default();
    let arms = fleet::ab_test(&cfg);
    let find = |m: FleetMethod| arms.iter().find(|a| a.method == m).unwrap().mean_jct_secs;
    let bsp = find(FleetMethod::Bsp);
    let asp = find(FleetMethod::Asp);
    let mut rows = vec![vec!["method".into(), "mean JCT".into(), "vs family base".into()]];
    for a in &arms {
        let base = match a.method {
            FleetMethod::Bsp
            | FleetMethod::BackupWorkers
            | FleetMethod::LbBsp
            | FleetMethod::AntDtNd => bsp,
            _ => asp,
        };
        rows.push(vec![
            a.method.label().into(),
            secs(a.mean_jct_secs),
            pct((base - a.mean_jct_secs) / base),
        ]);
    }
    out.push_str(&table(&rows));

    let native = Job::run(homepage_job(MitigationChoice::None));
    let nd = Job::run(homepage_job(MitigationChoice::AntDtNd));
    let _ = writeln!(
        out,
        "  homepage-ranking-style job (severe stragglers): BSP {} -> AntDT-ND {} ({:.1}x)",
        secs(native.jct.as_secs_f64()),
        secs(nd.jct.as_secs_f64()),
        native.jct.as_secs_f64() / nd.jct.as_secs_f64()
    );
    out
}

/// Table III's straggler intensities.
pub(crate) const TAB3_SI: [f64; 4] = [0.1, 0.3, 0.5, 0.8];

pub fn tab3() -> String {
    let mut out =
        header("tab3", "JCT under AntDT-ND and BSP, varying straggler intensity (paper Table III)");
    let seeds = [1u64, 2, 3];
    // All 48 runs (side × SI × method × seed) are independent and
    // deterministic: fan them out in one call, so no thread idles while a
    // cell finishes its last seed. `par_map` preserves input order, so each
    // cell's mean/std see the same sequence as a serial sweep.
    let mut runs = Vec::new();
    for worker_side in [true, false] {
        for si in TAB3_SI {
            for m in [MitigationChoice::None, MitigationChoice::AntDtNd] {
                runs.extend(seeds.map(|s| (straggler(worker_side, si), m.clone(), s)));
            }
        }
    }
    let jcts = antdt_par::par_map(runs, |(scenario, m, s)| {
        Job::run(criteo_job(scenario).with_mitigation(m).with_seed(s)).jct.as_secs_f64()
    });
    let mut cells = jcts.chunks(seeds.len()).map(mean_std);
    for side in ["worker", "server"] {
        let _ = writeln!(out, "  {side} stragglers:");
        let mut rows = vec![vec!["SI".into(), "BSP".into(), "AntDT-ND".into(), "speedup".into()]];
        for si in TAB3_SI {
            let (b_m, b_s) = cells.next().expect("a BSP cell per side and SI");
            let (n_m, n_s) = cells.next().expect("an AntDT-ND cell per side and SI");
            rows.push(vec![
                format!("{si:.1}"),
                format!("{b_m:.0}s±{b_s:.0}s"),
                format!("{n_m:.0}s±{n_s:.0}s"),
                pct(b_m / n_m - 1.0),
            ]);
        }
        out.push_str(&table(&rows));
    }
    out
}
