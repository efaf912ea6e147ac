//! # antdt-bench — the experiment harness
//!
//! One function per table/figure of the paper's evaluation (§VII). Each
//! regenerates the corresponding artifact from scratch on the simulator and
//! returns a printable report; the `experiments` binary dispatches on ids
//! (`fig1`…`fig19`, `tab3`, `integrity`, `solver`, `ablate`, `chaos`,
//! `controlbus`, `whatif`, `shapes`, `perf`, `all`).
//!
//! Absolute numbers come from a simulated substrate, so they are not expected
//! to match the paper's testbed; the *shapes* — who wins, by what factor,
//! where crossovers fall — are the reproduction targets (see EXPERIMENTS.md).
//! `shapes` ([`mod@exps::shapes`]) checks each of those claims as a predicate
//! over a range of seeds.

pub mod alloc;
pub mod exps;
pub mod util;

/// The experiment registry: `(id, description, runner)`.
pub type Runner = fn() -> String;

pub fn registry() -> Vec<(&'static str, &'static str, Runner)> {
    vec![
        ("fig1", "BPT time series among workers/servers (motivation)", exps::fig1 as Runner),
        ("fig2", "JCT of BSP vs ASP in dedicated vs non-dedicated clusters", exps::fig2),
        ("fig3", "Data consumption & throughput under even-partition ASP", exps::fig3),
        ("fig7", "BPT vs batch size on CPU (linear)", exps::fig7),
        ("fig8", "BPT vs batch size on GPU (saturation)", exps::fig8),
        ("fig9", "Gantt: DDP vs LB-BSP vs AntDT-DD", exps::fig9),
        ("fig10", "JCT in BSP training under worker/server stragglers", exps::fig10),
        ("fig11", "JCT in ASP training under worker/server stragglers", exps::fig11),
        ("fig12", "Batch-size adjustment trajectories (AntDT-ND)", exps::fig12),
        ("fig13", "Worker BPT trajectories (AntDT-ND)", exps::fig13),
        ("fig14", "Slow-server BPT + global throughput around KILL_RESTART", exps::fig14),
        ("fig15", "JCT of DDP/LB-BSP/AntDT-DD on mixed V100+P100", exps::fig15),
        ("fig16", "Shards consumed vs worker throughput (ASP-DDS)", exps::fig16),
        ("fig17", "Worker failover: JCT vs checkpoint interval, DDS vs rewind", exps::fig17),
        ("fig18", "AntDT overhead at small/medium/large scale", exps::fig18),
        ("fig19", "Production fleet A/B test", exps::fig19),
        ("tab3", "Table III: JCT under varying straggler intensity", exps::tab3),
        ("integrity", "Data integrity: DONE shards + AUC under failovers", exps::integrity),
        ("solver", "Optimization solver runtime at scale", exps::solver),
        ("ablate", "Ablations: M, lambda, windows, C_max, backup count", exps::ablate),
        ("chaos", "Chaos-drill matrix: fault plans x policies + invariant audit", exps::chaos),
        ("controlbus", "Control bus: JCT vs control-plane latency", exps::controlbus),
        (
            "whatif",
            "What-if service: 64-query batch throughput vs naive full reruns + parity",
            exps::whatif,
        ),
        ("shapes", "Paper claims as seeded predicates: hold rate over seeds", exps::shapes),
        ("perf", "Perf harness: allocation counts + serial vs parallel `all` speedup", exps::perf),
    ]
}

/// Ids excluded from `all`: `perf` itself runs `all` twice (serial and
/// parallel) to measure the speedup, so including it would recurse.
const EXCLUDED_FROM_ALL: [&str; 1] = ["perf"];

/// Check an `--only` list (the ids `all` is restricted to): `Err` names the
/// first id that is unknown or excluded from `all`, which `all` would
/// otherwise drop without a word.
pub fn check_only(ids: &[String]) -> Result<(), String> {
    let reg = registry();
    for id in ids {
        if !reg.iter().any(|(eid, _, _)| eid == id) {
            return Err(format!("unknown experiment id in --only: {id} (try `experiments list`)"));
        }
        if EXCLUDED_FROM_ALL.contains(&id.as_str()) {
            return Err(format!(
                "--only restricts `all`, which never runs {id}; run `experiments {id}` instead"
            ));
        }
    }
    Ok(())
}

/// Run everything (minus the ids excluded from `all`) in registry order, one
/// id after another: each id fans its own jobs out on the [`antdt_par`] pool
/// (a fan-out over the ids would run those inline). Every id is deterministic,
/// so the result is byte-identical to a serial pass. `only` restricts the set
/// to the listed ids (the `--only` flag of the `experiments` binary).
pub fn run_all(only: Option<&[String]>) -> String {
    registry()
        .into_iter()
        .filter(|(eid, _, _)| !EXCLUDED_FROM_ALL.contains(eid))
        .filter(|(eid, _, _)| only.is_none_or(|ids| ids.iter().any(|i| i == eid)))
        .map(|(_, _, f)| format!("{}\n", f()))
        .collect()
}

/// Run one experiment by id (`all` runs everything via [`run_all`]).
pub fn run(id: &str) -> Option<String> {
    if id == "all" {
        return Some(run_all(None));
    }
    registry().into_iter().find(|(eid, _, _)| *eid == id).map(|(_, _, f)| f())
}
