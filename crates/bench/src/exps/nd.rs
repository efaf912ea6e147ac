//! Q1 — AntDT-ND on the non-dedicated CPU cluster (paper Figs. 10–14).

use super::{criteo_job, criteo_job_asp, SERVER_SI, WORKER_SI};
use crate::util::{at, header, secs, series_line, sparkline, table};
use antdt_core::{DataStrategy, Job, JobReport, MitigationChoice};
use antdt_workloads::straggler::straggler_server_index;
use antdt_workloads::Scenario;
use std::fmt::Write;

fn fig10_runs(worker_side: bool) -> Vec<(&'static str, JobReport)> {
    let scenario = if worker_side {
        Scenario::WorkerMix { intensity: WORKER_SI }
    } else {
        Scenario::ServerPersistent { intensity: SERVER_SI }
    };
    // Four independent runs of the same scenario under different mitigations:
    // fan them out with `par_map` (order-preserving, so the table and
    // the AntDT baseline row are unchanged).
    let methods = vec![
        ("BSP", MitigationChoice::None),
        ("Backup Workers", MitigationChoice::BackupWorkers { b: 2 }),
        ("LB-BSP", MitigationChoice::LbBsp),
        ("AntDT-ND", MitigationChoice::AntDtNd),
    ];
    antdt_par::par_map(methods, |(name, m)| {
        (name, Job::run(criteo_job(scenario).with_mitigation(m)))
    })
}

fn jct_table(runs: &[(&str, JobReport)]) -> String {
    let base = runs.last().expect("runs").1.jct.as_secs_f64(); // AntDT row
    let mut rows = vec![vec!["method".into(), "JCT".into(), "vs AntDT".into(), "kills".into()]];
    for (name, r) in runs {
        rows.push(vec![
            (*name).into(),
            secs(r.jct.as_secs_f64()),
            format!("{:.2}x", r.jct.as_secs_f64() / base),
            r.n_kills().to_string(),
        ]);
    }
    table(&rows)
}

pub fn fig10() -> String {
    let mut out = header("fig10", "JCT in BSP training (paper Fig. 10)");
    out.push_str("  worker stragglers (black bars):\n");
    out.push_str(&jct_table(&fig10_runs(true)));
    out.push_str("  server stragglers (red bars):\n");
    out.push_str(&jct_table(&fig10_runs(false)));
    out
}

fn fig11_runs(worker_side: bool) -> Vec<(&'static str, JobReport)> {
    let scenario = if worker_side {
        Scenario::WorkerMix { intensity: WORKER_SI }
    } else {
        Scenario::ServerPersistent { intensity: SERVER_SI }
    };
    let configs = vec![
        ("ASP", criteo_job_asp(scenario).with_data_strategy(DataStrategy::EvenPartition)),
        ("ASP-DDS", criteo_job_asp(scenario)),
        ("AntDT-ND", criteo_job_asp(scenario).with_mitigation(MitigationChoice::AntDtNdAsp)),
    ];
    antdt_par::par_map(configs, |(name, cfg)| (name, Job::run(cfg)))
}

pub fn fig11() -> String {
    let mut out = header("fig11", "JCT in ASP training (paper Fig. 11)");
    out.push_str("  worker stragglers (black bars):\n");
    out.push_str(&jct_table(&fig11_runs(true)));
    out.push_str("  server stragglers (red bars):\n");
    out.push_str(&jct_table(&fig11_runs(false)));
    out
}

fn nd_worker_run() -> JobReport {
    Job::run(
        criteo_job(Scenario::WorkerMix { intensity: WORKER_SI })
            .with_mitigation(MitigationChoice::AntDtNd),
    )
}

pub fn fig12() -> String {
    let mut out = header("fig12", "Batch-size adjustment among workers, AntDT-ND (paper Fig. 12)");
    let r = nd_worker_run();
    let straggler = r.worker_batch.len() - 1; // persistent_worker_index
    for i in [0usize, 5, 10, straggler] {
        let _ = writeln!(
            out,
            "  w{i}{}: {}",
            if i == straggler { " (persistent straggler)" } else { "" },
            series_line(&r.worker_batch[i], 10, "")
        );
    }
    let _ = writeln!(
        out,
        "  actions: {} AdjustBs, {} KillRestart",
        r.actions
            .iter()
            .filter(|(_, a)| matches!(a, antdt_controller::Action::AdjustBs { .. }))
            .count(),
        r.kills.len()
    );
    out
}

pub fn fig13() -> String {
    let mut out = header("fig13", "Worker BPT under AntDT-ND (paper Fig. 13)");
    let r = nd_worker_run();
    let straggler = r.worker_bpt.len() - 1;
    for i in [0usize, 5, 10, straggler] {
        let _ = writeln!(
            out,
            "  w{i}{}: {}  {}",
            if i == straggler { " (straggler, kill-restarted)" } else { "" },
            sparkline(&r.worker_bpt[i], 40),
            series_line(&r.worker_bpt[i], 6, "s")
        );
    }
    if let Some((t, n)) = r.kills.first() {
        let _ = writeln!(out, "  first KILL_RESTART: {n} at {}", at(*t));
    }
    out
}

pub fn fig14() -> String {
    let mut out = header(
        "fig14",
        "Slow-server BPT and global throughput around KILL_RESTART (paper Fig. 14)",
    );
    let cfg = criteo_job(Scenario::ServerPersistent { intensity: SERVER_SI })
        .with_mitigation(MitigationChoice::AntDtNd);
    let sj = straggler_server_index(&cfg.cluster);
    let r = Job::run(cfg);
    let _ = writeln!(out, "  ps-{sj} BPT:      {}", sparkline(&r.server_bpt[sj], 50));
    let _ = writeln!(out, "  global samp/s: {}", sparkline(&r.global_throughput, 50));
    let _ = writeln!(
        out,
        "  ps-{sj} mean BPT before/after restart: {} / {}",
        r.kills
            .first()
            .and_then(|(t, _)| r.server_bpt[sj].mean_in(antdt_sim::SimTime::ZERO, *t))
            .map(|v| format!("{v:.2}s"))
            .unwrap_or_default(),
        r.restarts
            .first()
            .and_then(|(t, _)| r.server_bpt[sj].mean_in(*t, antdt_sim::SimTime::MAX))
            .map(|v| format!("{v:.2}s"))
            .unwrap_or_default(),
    );
    for (t, n) in r.kills.iter().chain(r.restarts.iter()) {
        let _ = writeln!(out, "  event: {n} at {}", at(*t));
    }
    let _ = writeln!(out, "  JCT: {}", secs(r.jct.as_secs_f64()));
    out
}
