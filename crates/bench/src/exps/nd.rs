//! Q1 — AntDT-ND on the non-dedicated CPU cluster (paper Figs. 10–14).

use super::{criteo_job, criteo_job_asp, straggler, SERVER_SI, WORKER_SI};
use crate::util::{at, header, secs, series_line, sparkline, table};
use antdt_core::{DataStrategy, Job, JobConfig, MitigationChoice};
use antdt_workloads::straggler::straggler_server_index;
use antdt_workloads::Scenario;
use std::fmt::Write;

/// The Fig. 10 methods, in table order (AntDT-ND last: the baseline row).
pub(crate) fn fig10_configs(worker_side: bool) -> Vec<(&'static str, JobConfig)> {
    let scenario = straggler(worker_side, if worker_side { WORKER_SI } else { SERVER_SI });
    [
        ("BSP", MitigationChoice::None),
        ("Backup Workers", MitigationChoice::BackupWorkers { b: 2 }),
        ("LB-BSP", MitigationChoice::LbBsp),
        ("AntDT-ND", MitigationChoice::AntDtNd),
    ]
    .into_iter()
    .map(|(name, m)| (name, criteo_job(scenario).with_mitigation(m)))
    .collect()
}

/// Run labelled jobs with the order-preserving `par_map` and tabulate their
/// JCTs against the last one's.
fn jct_table(configs: Vec<(&'static str, JobConfig)>) -> String {
    let runs = antdt_par::par_map(configs, |(name, cfg)| (name, Job::run(cfg)));
    let base = runs.last().expect("runs").1.jct.as_secs_f64(); // AntDT row
    let mut rows = vec![vec!["method".into(), "JCT".into(), "vs AntDT".into(), "kills".into()]];
    for (name, r) in &runs {
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
    out.push_str(&jct_table(fig10_configs(true)));
    out.push_str("  server stragglers (red bars):\n");
    out.push_str(&jct_table(fig10_configs(false)));
    out
}

/// The Fig. 11 ASP family, in table order (AntDT-ND last).
pub(crate) fn fig11_configs(worker_side: bool) -> Vec<(&'static str, JobConfig)> {
    let scenario = straggler(worker_side, if worker_side { WORKER_SI } else { SERVER_SI });
    vec![
        ("ASP", criteo_job_asp(scenario).with_data_strategy(DataStrategy::EvenPartition)),
        ("ASP-DDS", criteo_job_asp(scenario)),
        ("AntDT-ND", criteo_job_asp(scenario).with_mitigation(MitigationChoice::AntDtNdAsp)),
    ]
}

pub fn fig11() -> String {
    let mut out = header("fig11", "JCT in ASP training (paper Fig. 11)");
    out.push_str("  worker stragglers (black bars):\n");
    out.push_str(&jct_table(fig11_configs(true)));
    out.push_str("  server stragglers (red bars):\n");
    out.push_str(&jct_table(fig11_configs(false)));
    out
}

/// AntDT-ND on the headline worker-straggler job (Figs. 12 and 13).
pub(crate) fn nd_worker_config() -> JobConfig {
    criteo_job(Scenario::WorkerMix { intensity: WORKER_SI })
        .with_mitigation(MitigationChoice::AntDtNd)
}

pub fn fig12() -> String {
    let mut out = header("fig12", "Batch-size adjustment among workers, AntDT-ND (paper Fig. 12)");
    let r = Job::run(nd_worker_config());
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
    let r = Job::run(nd_worker_config());
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

/// AntDT-ND on the headline server-straggler job (Fig. 14).
pub(crate) fn nd_server_config() -> JobConfig {
    criteo_job(Scenario::ServerPersistent { intensity: SERVER_SI })
        .with_mitigation(MitigationChoice::AntDtNd)
}

pub fn fig14() -> String {
    let mut out = header(
        "fig14",
        "Slow-server BPT and global throughput around KILL_RESTART (paper Fig. 14)",
    );
    let cfg = nd_server_config();
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
