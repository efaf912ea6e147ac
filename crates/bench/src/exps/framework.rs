//! Q2–Q4 — AntDT-DD on heterogeneous GPUs, framework properties, the fleet
//! A/B test and Table III (paper Figs. 15–19).

use super::{criteo_job, criteo_job_asp, dd_classes_for, imagenet_job, WORKER_SI};
use crate::util::{header, pct, secs, table};
use antdt_core::failover::fig17_curve;
use antdt_core::fleet::{self, FleetConfig, FleetMethod};
use antdt_core::{Job, JobConfig, MitigationChoice};
use antdt_sim::{series::mean_std, SimDuration};
use antdt_workloads::cluster::{cluster_c, ClusterSize};
use antdt_workloads::{ModelProfile, Scenario};
use std::fmt::Write;

pub fn fig15() -> String {
    let mut out = header("fig15", "JCT on mixed V100+P100 GPUs (paper Fig. 15)");
    for (model, membound) in
        [(ModelProfile::resnet101(), false), (ModelProfile::mobilenets(), true)]
    {
        let name = model.name;
        // The three methods are independent runs on the same cluster: fan
        // them out on the experiment pool.
        let configs = vec![
            imagenet_job(model.clone(), membound),
            imagenet_job(model.clone(), membound).with_mitigation(MitigationChoice::LbBsp),
            imagenet_job(model.clone(), membound)
                .with_mitigation(MitigationChoice::AntDtDd)
                .with_dd_classes(dd_classes_for(&model)),
        ];
        let mut runs = antdt_par::par_map(configs, Job::run).into_iter();
        let (ddp, lb, dd) = (
            runs.next().expect("ddp run"),
            runs.next().expect("lb run"),
            runs.next().expect("dd run"),
        );
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

pub fn fig17() -> String {
    let mut out =
        header("fig17", "Worker failover delay: DDS-based vs checkpoint-based (paper Fig. 17)");
    let intervals: Vec<SimDuration> =
        [5u64, 10, 15, 20, 30, 40, 50, 60].iter().map(|&m| SimDuration::from_minutes(m)).collect();
    // Parameters from the Criteo job: one shard = 4096×100 samples at ~2000
    // samples/s per worker; checkpoint write ~45 s; 2 h job.
    let pts = fig17_curve(
        &intervals,
        SimDuration::from_secs(7_200),
        45.0,
        60.0,
        0.8,
        45.0,
        4096 * 100,
        2_000.0,
    );
    let mut rows =
        vec![vec!["ckpt interval".into(), "checkpoint-based".into(), "DDS-based".into()]];
    for p in &pts {
        rows.push(vec![
            format!("{:.0} min", p.ckpt_interval.as_secs_f64() / 60.0),
            secs(p.checkpoint_based.as_secs_f64()),
            secs(p.dds_based.as_secs_f64()),
        ]);
    }
    out.push_str(&table(&rows));
    out.push_str("  (paper: DDS ~2 min flat; checkpoint-based ~17 min at 5-min saves, U-shaped)\n");

    // Live cross-check: the same kill under both recovery schemes in the full
    // simulator (one persistent worker straggler, AntDT-ND kills it once).
    // Checkpoint-based recovery is the real replay model: it rewinds to the
    // last durable snapshot and redoes the lost iterations.
    let live = |mode: antdt_core::FailoverMode| {
        Job::run(
            JobConfig::ps_bsp(
                antdt_workloads::cluster::cluster_a_scaled(8, 4),
                Scenario::WorkerPersistent { intensity: 0.8 },
            )
            .with_model(ModelProfile::xdeepfm())
            .with_global_batch(8_192)
            .with_samples(8_000_000)
            .with_batches_per_shard(10)
            .with_fast_cadence(SimDuration::from_secs(60))
            .with_mitigation(MitigationChoice::AntDtNd)
            .with_failover_mode(mode),
        )
    };
    let dds_live = live(antdt_core::FailoverMode::DdsBased);
    let ckpt_live = live(antdt_core::FailoverMode::Replay);
    let _ = writeln!(
        out,
        "  live simulation (same kill, both schemes): DDS-based JCT {}, checkpoint replay JCT {} \
         (+{:.0}s, {} samples replayed)",
        secs(dds_live.jct.as_secs_f64()),
        secs(ckpt_live.jct.as_secs_f64()),
        ckpt_live.jct.as_secs_f64() - dds_live.jct.as_secs_f64(),
        ckpt_live.replayed_samples,
    );
    out
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
    for (label, size) in [
        ("small", ClusterSize::Small),
        ("medium", ClusterSize::Medium),
        ("large", ClusterSize::Large),
    ] {
        let (nw, ns) = size.workers_servers();
        let mut cluster = cluster_c(size);
        antdt_workloads::straggler::apply(
            &mut cluster,
            Scenario::NonDedicated { mean_slowdown: 2.0 },
        );
        let cfg = JobConfig::ps_bsp(cluster, Scenario::None)
            .with_model(ModelProfile::transformer_inhouse())
            .with_global_batch(30_720)
            .with_samples(12_288_000) // 400 iterations
            .with_batches_per_shard(100)
            .with_mitigation(MitigationChoice::AntDtNd);
        let r = Job::run(cfg);
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

    // The homepage-recommendation anecdote: one severely straggling large job
    // (paper: 27.8 h -> 5.4 h, ~5x).
    let big = |m: MitigationChoice| {
        // A severely contended production job: transient noise everywhere,
        // several persistent worker stragglers of growing severity, plus a
        // contended server — the situation the paper's 27.8h -> 5.4h anecdote
        // describes.
        let mut cluster = antdt_workloads::cluster::cluster_a_scaled(46, 10);
        antdt_workloads::straggler::apply(
            &mut cluster,
            Scenario::WorkerTransient { intensity: 1.0 },
        );
        for (rank, delay) in [(45usize, 16.0f64), (30, 12.0), (15, 8.0)] {
            cluster.workers[rank].profile.phases.push(
                antdt_sim::profile::ContentionPhase::Persistent {
                    delay_secs: delay,
                    from: antdt_sim::SimTime::ZERO,
                    to: antdt_sim::SimTime::MAX,
                },
            );
        }
        antdt_workloads::straggler::apply(
            &mut cluster,
            Scenario::ServerPersistent { intensity: 0.8 },
        );
        Job::run(
            JobConfig::ps_bsp(cluster, Scenario::None)
                .with_model(ModelProfile::xdeepfm())
                .with_global_batch(81_920)
                .with_samples(60_000_000)
                .with_batches_per_shard(100)
                .with_mitigation(m),
        )
    };
    let native = big(MitigationChoice::None);
    let nd = big(MitigationChoice::AntDtNd);
    let _ = writeln!(
        out,
        "  homepage-ranking-style job (severe stragglers): BSP {} -> AntDT-ND {} ({:.1}x)",
        secs(native.jct.as_secs_f64()),
        secs(nd.jct.as_secs_f64()),
        native.jct.as_secs_f64() / nd.jct.as_secs_f64()
    );
    out
}

pub fn tab3() -> String {
    let mut out =
        header("tab3", "JCT under AntDT-ND and BSP, varying straggler intensity (paper Table III)");
    let seeds = [1u64, 2, 3];
    // Each seed is an independent deterministic run; fan them out on the
    // experiment pool. `par_map` preserves input order, so the mean/std see
    // the same sequence as a serial sweep.
    let cell = |scenario: Scenario, m: MitigationChoice| -> (f64, f64) {
        let jcts = antdt_par::par_map(seeds.to_vec(), |s| {
            Job::run(criteo_job(scenario).with_mitigation(m.clone()).with_seed(s)).jct.as_secs_f64()
        });
        mean_std(&jcts)
    };
    for side in ["worker", "server"] {
        let _ = writeln!(out, "  {side} stragglers:");
        let mut rows = vec![vec!["SI".into(), "BSP".into(), "AntDT-ND".into(), "speedup".into()]];
        for si in [0.1f64, 0.3, 0.5, 0.8] {
            let scenario = if side == "worker" {
                Scenario::WorkerMix { intensity: si }
            } else {
                Scenario::ServerPersistent { intensity: si }
            };
            let (b_m, b_s) = cell(scenario, MitigationChoice::None);
            let (n_m, n_s) = cell(scenario, MitigationChoice::AntDtNd);
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
