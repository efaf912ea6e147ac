//! Operational experiments: data integrity under failovers, solver runtime,
//! design-choice ablations, the chaos-drill matrix and telemetry overhead.

use super::{criteo_job, WORKER_SI};
use crate::util::{header, secs, table};
use antdt_controller::solve::AffineCost;
use antdt_controller::{grad_accum_allocation, minmax_batch_allocation, Eq4Class, Eq4Config};
use antdt_core::{ExecutionMode, Job, JobConfig, JobReport, MitigationChoice};
use antdt_sim::SimDuration;
use antdt_workloads::{ctr, CtrConfig, Scenario};
use std::fmt::Write;

/// The §VII-D2 pair on real FM training: a clean run, and one whose
/// persistent straggler AntDT-ND kill-restarts.
pub(crate) fn integrity_configs() -> [JobConfig; 2] {
    let data = ctr::generate(&CtrConfig::default().with_samples(60_000));
    let (train, holdout) = data.split_holdout(0.2);
    let n_train = train.len() as u64;
    let base = |scenario: Scenario| {
        JobConfig::ps_bsp(antdt_workloads::cluster::cluster_a_scaled(8, 4), scenario)
            .with_global_batch(2_048)
            .with_samples(n_train)
            .with_epochs(3)
            .with_batches_per_shard(4)
            .with_fast_cadence(SimDuration::from_secs(60))
            .with_execution(ExecutionMode::Real {
                dataset: train.clone(),
                holdout: holdout.clone(),
                latent_k: 8,
                lr: 0.4,
            })
    };
    [
        base(Scenario::None),
        base(Scenario::WorkerMix { intensity: 1.0 }).with_mitigation(MitigationChoice::AntDtNd),
    ]
}

pub fn integrity() -> String {
    let mut out = header("integrity", "Data integrity under failovers (paper §VII-D2)");
    let [clean, faulty] = integrity_configs().map(Job::run);
    let ca = clean.audit.unwrap();
    let fa = faulty.audit.unwrap();
    out.push_str(&table(&[
        vec![
            "run".into(),
            "kills".into(),
            "DONE shards".into(),
            "expected".into(),
            "requeued".into(),
            "at-least-once".into(),
            "AUC".into(),
        ],
        vec![
            "no failover".into(),
            clean.n_kills().to_string(),
            ca.done_shards.to_string(),
            ca.expected_done_shards.to_string(),
            ca.requeued_shards.to_string(),
            ca.at_least_once.to_string(),
            format!("{:.3}", clean.auc.unwrap_or(f64::NAN)),
        ],
        vec![
            "with failovers".into(),
            faulty.n_kills().to_string(),
            fa.done_shards.to_string(),
            fa.expected_done_shards.to_string(),
            fa.requeued_shards.to_string(),
            fa.at_least_once.to_string(),
            format!("{:.3}", faulty.auc.unwrap_or(f64::NAN)),
        ],
    ]));
    out.push_str("  (paper: DONE count equals K per epoch despite failovers; AUC matches the failure-free run)\n");
    out
}

pub fn solver() -> String {
    let mut out =
        header("solver", "Optimization runtime at scale (paper §VII-E: ms-level at 1000 workers)");
    let mut rows = vec![vec!["problem".into(), "size".into(), "time".into()]];
    // The last row is the 1k-worker fleet's own batch (the `nd_fleet`
    // benchmark workload re-solves B = 64,000 over 1,000 workers).
    for (n, b) in [(10usize, 30_720u64), (100, 30_720), (1000, 30_720), (1000, 64_000)] {
        let v: Vec<f64> = (0..n).map(|i| 1000.0 + (i % 7) as f64 * 300.0).collect();
        let t0 = std::time::Instant::now();
        let alloc = minmax_batch_allocation(b, &v, 1);
        let dt_ms = crate::util::elapsed_secs(t0) * 1e3;
        assert_eq!(alloc.iter().sum::<u64>(), b);
        rows.push(vec![
            "Eq. 3 (ADJUST_BS)".into(),
            format!("{n} workers, B={b}"),
            format!("{dt_ms:.3} ms"),
        ]);
    }
    let classes: Vec<Eq4Class> = (0..4)
        .map(|i| Eq4Class {
            count: 4,
            cost: AffineCost { c0: 0.15, per_sample: 1e-3 * (1.0 + i as f64) },
            b_min: 16,
            b_max: 112,
        })
        .collect();
    let t0 = std::time::Instant::now();
    let sol =
        grad_accum_allocation(Eq4Config { global_batch: 4_096, c_min: 1, c_max: 5 }, &classes);
    let dt_ms = crate::util::elapsed_secs(t0) * 1e3;
    assert!(sol.is_some());
    rows.push(vec!["Eq. 4 (AntDT-DD)".into(), "4 classes × C≤5".into(), format!("{dt_ms:.3} ms")]);
    out.push_str(&table(&rows));
    out
}

/// The ablations' job: one 15M-sample epoch under the headline stragglers.
pub(crate) fn ablation_job() -> JobConfig {
    criteo_job(Scenario::WorkerMix { intensity: WORKER_SI }).with_samples(15_000_000).with_epochs(1)
}

/// Run `cfg` under AntDT-ND at slowness ratio `lambda` (not a config knob).
pub(crate) fn run_lambda(mut cfg: JobConfig, lambda: f64) -> JobReport {
    cfg.mitigation = MitigationChoice::AntDtNd;
    let nd =
        antdt_controller::AntDtNd::new(antdt_controller::NdConfig { lambda, ..Default::default() });
    antdt_core::run_with_policy(cfg, Box::new(nd))
}

pub fn ablate() -> String {
    let mut out = header("ablate", "Ablations over the design choices DESIGN.md calls out");

    // (a) Shard granularity M: integrity/overhead trade-off (§V-C).
    out.push_str("  (a) shard granularity M (AntDT-ND, worker stragglers):\n");
    let mut rows = vec![vec![
        "M".into(),
        "JCT".into(),
        "shards/epoch".into(),
        "dup-sample bound".into(),
        "DDS overhead".into(),
    ]];
    let m_runs = antdt_par::par_map(vec![1u64, 10, 100, 500], |m| {
        (
            m,
            Job::run(
                ablation_job().with_batches_per_shard(m).with_mitigation(MitigationChoice::AntDtNd),
            ),
        )
    });
    for (m, r) in m_runs {
        let a = r.audit.unwrap();
        rows.push(vec![
            m.to_string(),
            secs(r.jct.as_secs_f64()),
            (a.expected_done_shards).to_string(),
            a.duplicate_samples_upper_bound.to_string(),
            format!("{:.1}s", r.overhead.dds.as_secs_f64()),
        ]);
    }
    out.push_str(&table(&rows));

    // (b) Detection threshold lambda.
    out.push_str("  (b) slowness ratio lambda (kills issued / JCT):\n");
    let mut rows = vec![vec!["lambda".into(), "JCT".into(), "kills".into()]];
    let lambda_runs = antdt_par::par_map(vec![1.1f64, 1.3, 1.5, 2.0, 3.0], |lambda| {
        (lambda, run_lambda(ablation_job(), lambda))
    });
    for (lambda, r) in lambda_runs {
        rows.push(vec![format!("{lambda:.1}"), secs(r.jct.as_secs_f64()), r.n_kills().to_string()]);
    }
    out.push_str(&table(&rows));

    // (c) Gradient accumulation bound C_max (AntDT-DD objective).
    out.push_str("  (c) accumulation bound C_max (Eq. 4 round time, ResNet-101 classes):\n");
    let classes = vec![
        Eq4Class {
            count: 4,
            cost: AffineCost { c0: 0.15, per_sample: 1.733e-3 },
            b_min: 16,
            b_max: 112,
        },
        Eq4Class {
            count: 4,
            cost: AffineCost { c0: 0.15, per_sample: 5.2e-3 },
            b_min: 16,
            b_max: 96,
        },
    ];
    let mut rows = vec![vec!["C_max".into(), "round time".into(), "per-class (B, C)".into()]];
    for c_max in [1u32, 2, 3, 5] {
        match grad_accum_allocation(Eq4Config { global_batch: 1_536, c_min: 1, c_max }, &classes) {
            Some(sol) => rows.push(vec![
                c_max.to_string(),
                format!("{:.3}s", sol.objective_secs),
                format!("{:?}", sol.per_class),
            ]),
            None => rows.push(vec![c_max.to_string(), "infeasible".into(), "-".into()]),
        }
    }
    out.push_str(&table(&rows));

    // (d) Backup worker count b.
    out.push_str("  (d) backup worker count b (worker stragglers):\n");
    let mut rows = vec![vec!["b".into(), "JCT".into(), "recomputed samples".into()]];
    let b_runs = antdt_par::par_map(vec![0u32, 1, 2, 4], |b| {
        let m = if b == 0 { MitigationChoice::None } else { MitigationChoice::BackupWorkers { b } };
        (b, Job::run(ablation_job().with_mitigation(m)))
    });
    for (b, r) in b_runs {
        rows.push(vec![
            b.to_string(),
            secs(r.jct.as_secs_f64()),
            r.rolled_back_samples.to_string(),
        ]);
    }
    out.push_str(&table(&rows));

    out
}

/// Chaos-drill matrix (antdt-chaos): deterministic fault plans × mitigation
/// policies with the full invariant audit, plus the loud-failure path of a
/// wedged barrier caught by the liveness watchdog.
pub fn chaos() -> String {
    use antdt_chaos::{ChaosDriver, Fault, FaultPlan, NodeRef};

    let mut out = header("chaos", "Fault-injection drill matrix with invariant verdicts");
    let base = JobConfig::ps_bsp(
        antdt_workloads::cluster::cluster_a_scaled(4, 2),
        Scenario::WorkerMix { intensity: 0.5 },
    )
    .with_global_batch(4_096)
    .with_samples(500_000)
    .with_batches_per_shard(10)
    .with_fast_cadence(SimDuration::from_secs(60));

    let matrix = ChaosDriver::new(base.clone())
        .with_plan(FaultPlan::new("kill-w1").at(30.0, Fault::KillNode { node: NodeRef::Worker(1) }))
        .with_plan(FaultPlan::new("dds-outage").at(15.0, Fault::DdsOutage { window_secs: 30.0 }))
        .with_plan(FaultPlan::new("slow-link").at(
            20.0,
            Fault::NetworkDegrade { node: NodeRef::Worker(3), factor: 6.0, window_secs: 60.0 },
        ))
        .with_policies(vec![MitigationChoice::AntDtNd, MitigationChoice::None])
        .run();
    for line in matrix.render().lines() {
        out.push_str("  ");
        out.push_str(line);
        out.push('\n');
    }

    let wedge = ChaosDriver::new(base).with_liveness_timeout(SimDuration::from_secs(120)).run_one(
        &FaultPlan::new("wedge").at(20.0, Fault::KillNodeNoFailover { node: NodeRef::Worker(2) }),
        &MitigationChoice::AntDtNd,
    );
    let _ = writeln!(
        out,
        "  wedge drill (failover disabled): stalled={} detected by watchdog, liveness invariant {}",
        wedge.stalled,
        if wedge.invariant("liveness").map(|o| o.passed).unwrap_or(false) {
            "PASS"
        } else {
            "FAIL"
        }
    );
    out
}
