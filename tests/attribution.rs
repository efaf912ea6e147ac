//! Job-level tests of the straggler-attribution engine: exact conservation,
//! schedule-neutrality, golden attribution snapshots, blame correctness and
//! counterfactual-replay validation.

use antdt::core::{
    apply_perturbation, Fault, FaultEvent, Job, JobConfig, JobReport, MitigationChoice, NodeRef,
    Perturbation,
};
use antdt::sim::SimDuration;
use antdt::whatif::{AnswerSource, ServiceConfig, WhatIfAnswer, WhatIfQuery, WhatIfService};
use antdt::workloads::cluster::{cluster_a_scaled, cluster_b};
use antdt::workloads::{ModelProfile, Scenario};
use std::path::PathBuf;

// ---- The six golden-fixture configs of `refactor_equivalence.rs`,
// duplicated here so attribution can be layered on without touching the
// determinism ratchet.

fn ps_chaos_plan() -> Vec<FaultEvent> {
    vec![
        FaultEvent {
            at_secs: 10.0,
            fault: Fault::RestartDelay { node: NodeRef::Worker(2), extra_secs: 20.0 },
        },
        FaultEvent { at_secs: 40.0, fault: Fault::KillNode { node: NodeRef::Worker(2) } },
        FaultEvent {
            at_secs: 70.0,
            fault: Fault::NetworkDegrade {
                node: NodeRef::Worker(0),
                factor: 4.0,
                window_secs: 30.0,
            },
        },
        FaultEvent { at_secs: 120.0, fault: Fault::DdsOutage { window_secs: 20.0 } },
        FaultEvent {
            at_secs: 150.0,
            fault: Fault::DropReports { prob: 0.3, window_secs: 60.0, seed: 7 },
        },
    ]
}

fn ar_chaos_plan() -> Vec<FaultEvent> {
    vec![
        FaultEvent { at_secs: 60.0, fault: Fault::KillNode { node: NodeRef::Worker(5) } },
        FaultEvent {
            at_secs: 90.0,
            fault: Fault::NetworkDegrade {
                node: NodeRef::Worker(0),
                factor: 3.0,
                window_secs: 45.0,
            },
        },
        FaultEvent {
            at_secs: 180.0,
            fault: Fault::DropReports { prob: 0.25, window_secs: 90.0, seed: 13 },
        },
    ]
}

fn ps_base(cfg: JobConfig) -> JobConfig {
    cfg.with_model(ModelProfile::xdeepfm())
        .with_global_batch(4_096)
        .with_samples(200_000)
        .with_batches_per_shard(10)
        .with_fast_cadence(SimDuration::from_secs(60))
        .with_seed(11)
}

fn bsp() -> JobConfig {
    ps_base(JobConfig::ps_bsp(cluster_a_scaled(4, 2), Scenario::WorkerMix { intensity: 1.0 }))
        .with_mitigation(MitigationChoice::AntDtNd)
}

fn asp() -> JobConfig {
    ps_base(JobConfig::ps_asp(
        cluster_a_scaled(4, 2),
        Scenario::WorkerPersistent { intensity: 0.8 },
    ))
    .with_samples(800_000)
}

fn allreduce() -> JobConfig {
    JobConfig::allreduce(cluster_b(), Scenario::None)
        .with_model(ModelProfile::resnet101())
        .with_global_batch(768)
        .with_samples(345_600)
        .with_batches_per_shard(2)
        .with_fast_cadence(SimDuration::from_secs(60))
        .with_seed(23)
}

fn chaos(cfg: JobConfig, plan: Vec<FaultEvent>) -> JobConfig {
    cfg.with_injections(plan).with_liveness_timeout(SimDuration::from_secs(1_800))
}

fn all_six() -> Vec<(&'static str, JobConfig)> {
    vec![
        ("bsp_clean", bsp()),
        ("bsp_chaos", chaos(bsp(), ps_chaos_plan())),
        ("asp_clean", asp()),
        ("asp_chaos", chaos(asp(), ps_chaos_plan())),
        ("allreduce_clean", allreduce()),
        ("allreduce_chaos", chaos(allreduce(), ar_chaos_plan())),
    ]
}

/// Exact per-node conservation: the cause totals of every node partition its
/// attributed wall time with ε = 0 (integer microseconds, no residual).
#[test]
fn conservation_is_exact_on_all_six_fixture_configs() {
    for (name, cfg) in all_six() {
        let report = Job::run(cfg.with_attribution());
        let attr = report.attr.as_ref().unwrap_or_else(|| panic!("{name}: attr section missing"));
        assert!(!attr.nodes.is_empty(), "{name}: no nodes attributed");
        for n in &attr.nodes {
            let sum: u64 = n.totals_us.iter().sum();
            assert_eq!(
                sum, n.wall_us,
                "{name}: node {} cause totals {:?} do not partition wall {}",
                n.node, n.totals_us, n.wall_us
            );
        }
        assert_eq!(attr.end_us, report.jct.as_micros(), "{name}: ledger end != JCT");
    }
}

/// Schedule-neutrality: arming attribution adds zero events and zero RNG
/// draws, so the attribution-on dump minus its `attr_` lines is byte-identical
/// to the attribution-off dump — for every fixture config.
#[test]
fn attribution_on_is_schedule_neutral() {
    for (name, cfg) in all_six() {
        let off = Job::run(cfg.clone()).golden_dump();
        let on = Job::run(cfg.with_attribution()).golden_dump();
        let stripped: String =
            on.lines().filter(|l| !l.starts_with("attr_")).map(|l| format!("{l}\n")).collect();
        assert_eq!(stripped, off, "{name}: attribution-on run perturbed the schedule");
        assert_ne!(on, stripped, "{name}: attribution-on dump rendered no attr lines");
    }
}

/// Default-off runs carry no attribution section and render no attr lines.
#[test]
fn attribution_off_by_default() {
    let report = Job::run(bsp());
    assert!(report.attr.is_none());
    assert!(!report.golden_dump().lines().any(|l| l.starts_with("attr_")));
}

// ---- Golden attribution snapshots (same bless workflow as
// `refactor_equivalence.rs`, over the attr section only).

fn attr_dump(report: &JobReport) -> String {
    report
        .golden_dump()
        .lines()
        .filter(|l| l.starts_with("attr_"))
        .map(|l| format!("{l}\n"))
        .collect()
}

fn check_attr_golden(name: &str, cfg: JobConfig) {
    let dump = attr_dump(&Job::run(cfg.with_attribution()));
    assert!(!dump.is_empty(), "{name}: empty attribution dump");
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join(format!("{name}.txt"));
    if std::env::var_os("GOLDEN_BLESS").is_some() || !path.exists() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &dump).unwrap();
        eprintln!("blessed golden fixture {}", path.display());
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap();
    assert_eq!(
        dump, want,
        "same-seed attribution diverged from golden fixture {name}; \
         if the change is intentional, re-bless with GOLDEN_BLESS=1",
    );
}

#[test]
fn golden_attr_bsp_chaos() {
    check_attr_golden("attr_bsp_chaos", chaos(bsp(), ps_chaos_plan()));
}

#[test]
fn golden_attr_allreduce_clean() {
    check_attr_golden("attr_allreduce_clean", allreduce());
}

// ---- Blame correctness and counterfactual validation.

/// An unmitigated BSP job with one persistent straggler (the scenario puts the
/// contention phases on the last worker).
fn straggler_job() -> (JobConfig, u32) {
    let cfg = ps_base(JobConfig::ps_bsp(
        cluster_a_scaled(4, 2),
        Scenario::WorkerPersistent { intensity: 1.0 },
    ))
    .with_attribution();
    (cfg, 3)
}

/// The blame ranking must put the injected straggler on top, with the
/// critical-path signal driving the score (BSP has barriers every iteration).
#[test]
fn top_blamed_node_is_the_injected_straggler() {
    let (cfg, straggler) = straggler_job();
    let report = Job::run(cfg);
    let attr = report.attr.as_ref().unwrap();
    let top = &attr.blame[0];
    assert_eq!(top.node, straggler, "blame ranking: {:?}", attr.blame);
    assert!(top.crit_us > 0, "straggler determined no barriers");
    assert_eq!(top.score_us, top.crit_us, "BSP blame must use the critical-path signal");
    assert!(!attr.crit.is_empty());
    let determined =
        attr.crit.iter().filter(|c| c.node == straggler).count() as f64 / attr.crit.len() as f64;
    assert!(determined > 0.5, "straggler determined only {determined:.0}% of barriers");
}

/// Counterfactual replay validation: healing the top-blamed node must recover
/// JCT, and the measured recovery must agree with the analytical prediction
/// (the blame score) within 15%.
#[test]
fn healing_top_blamed_matches_prediction_within_15_percent() {
    let (cfg, _) = straggler_job();
    let base = Job::run(cfg.clone());
    let top = base.attr.as_ref().unwrap().blame[0].node;
    let rows = antdt::core::what_if_table(&cfg, &base, &[Perturbation::HealthyNode(top)]);
    let row = &rows[0];
    assert!(row.measured_delta_us > 0, "healing the top-blamed node did not improve JCT: {row:?}");
    let predicted = row.predicted_delta_us as f64;
    let measured = row.measured_delta_us as f64;
    let rel = (measured - predicted).abs() / predicted.max(1.0);
    assert!(
        rel <= 0.15,
        "measured delta {measured}us vs predicted {predicted}us ({:.1}% apart): {row:?}",
        rel * 100.0
    );
}

/// The stock perturbations run end-to-end through the what-if harness and
/// produce internally consistent rows.
#[test]
fn what_if_table_covers_stock_perturbations() {
    let (cfg, straggler) = straggler_job();
    let base = Job::run(cfg.clone());
    let rows = antdt::core::what_if_table(
        &cfg,
        &base,
        &[
            Perturbation::HealthyNode(straggler),
            Perturbation::ZeroControlLatency,
            Perturbation::NoCkptStalls,
        ],
    );
    assert_eq!(rows.len(), 3);
    for row in &rows {
        assert_eq!(row.base_jct_us, base.jct.as_micros());
        assert_eq!(row.measured_delta_us, row.base_jct_us as i64 - row.what_if_jct_us as i64);
    }
    assert_eq!(rows[0].label, format!("healthy_node_{straggler}"));
    assert_eq!(rows[1].label, "zero_control_latency");
    assert_eq!(rows[2].label, "no_ckpt_stalls");
}

// ---- Fork-based counterfactual replay (engine snapshot/fork through the
// what-if service).

/// A job with every divergence source armed *strictly after* time zero: a
/// worker whose contention begins at t=60s (a `WorkerPersistent` phase starts
/// at zero, which is correctly un-forkable — the prefix would be empty), a
/// modeled (non-ideal) control channel, and a checkpoint cadence short enough
/// to fire mid-run.
fn forkable_job() -> (JobConfig, u32) {
    let straggler = 3u32;
    let mut cfg = ps_base(JobConfig::ps_bsp(cluster_a_scaled(4, 2), Scenario::None))
        // A clean run finishes in under a minute; stretch it so the 60s
        // contention onset and the checkpoint cadence both land mid-run.
        .with_samples(2_000_000)
        .with_attribution()
        .with_control_channel(antdt::sim::ControlChannel::Modeled {
            latency_secs: 0.05,
            jitter_secs: 0.02,
            loss_prob: 0.01,
            seed: 5,
        })
        .with_checkpoint_interval(SimDuration::from_secs(60));
    cfg.cluster.workers[straggler as usize].profile.phases.push(
        antdt::sim::ContentionPhase::Persistent {
            delay_secs: 4.0,
            from: antdt::sim::SimTime::from_secs_f64(60.0),
            to: antdt::sim::SimTime::MAX,
        },
    );
    (cfg, straggler)
}

/// One what-if query per perturbation against `cfg`, answered as a single
/// batch by a fresh service.
fn answer_all(cfg: &JobConfig, perturbations: &[Perturbation]) -> Vec<WhatIfAnswer> {
    let queries: Vec<WhatIfQuery> = perturbations
        .iter()
        .map(|&perturbation| WhatIfQuery { cfg: cfg.clone(), perturbation })
        .collect();
    WhatIfService::new(ServiceConfig::default()).answer_batch(&queries)
}

/// Fork-based replay must be byte-identical to a full perturbed rerun — for
/// every perturbation kind — while simulating strictly fewer events. This is
/// the acceptance gate on `Engine::snapshot`/`fork`: the shared prefix is
/// provably unaffected by the edit, so only the suffix is simulated.
#[test]
fn forked_replay_is_byte_identical_and_simulates_only_the_suffix() {
    let (cfg, straggler) = forkable_job();
    let perturbations = [
        Perturbation::HealthyNode(straggler),
        Perturbation::ZeroControlLatency,
        Perturbation::NoCkptStalls,
    ];
    for (p, forked) in perturbations.iter().zip(answer_all(&cfg, &perturbations)) {
        let label = p.label();
        assert!(
            matches!(forked.source, AnswerSource::Forked { .. }),
            "{label}: not forked ({:?})",
            forked.source
        );
        let full = Job::run(apply_perturbation(cfg.clone(), p));
        assert_eq!(
            forked.report.golden_dump(),
            full.golden_dump(),
            "{label}: forked replay diverged from the full rerun"
        );
        assert_eq!(forked.report.events_processed, full.events_processed, "{label}");
        assert!(forked.prefix_events > 0, "{label}: fork shared no prefix");
        assert!(
            forked.suffix_events < full.events_processed,
            "{label}: fork simulated as much as the full rerun ({} of {})",
            forked.suffix_events,
            full.events_processed
        );
    }
}

/// The forked what-if table reproduces the plain table row-for-row, forks all
/// three stock perturbations, and reports a meaningful shared-prefix ratio.
#[test]
fn forked_what_if_table_matches_the_full_table() {
    let (cfg, straggler) = forkable_job();
    let base = Job::run(cfg.clone());
    let perturbations = [
        Perturbation::HealthyNode(straggler),
        Perturbation::ZeroControlLatency,
        Perturbation::NoCkptStalls,
    ];
    let rows = antdt::core::what_if_table(&cfg, &base, &perturbations);
    let answers = answer_all(&cfg, &perturbations);
    let forked_rows =
        antdt::core::counterfactual_rows(&base, &perturbations, answers.iter().map(|a| &a.report));
    assert_eq!(forked_rows, rows, "forked table diverged from the full table");
    assert!(answers.iter().all(|a| matches!(a.source, AnswerSource::Forked { .. })));
    let prefix: u64 = answers.iter().map(|a| a.prefix_events).sum();
    let total: u64 = answers.iter().map(|a| a.report.events_processed).sum();
    let suffix: u64 = answers.iter().map(|a| a.suffix_events).sum();
    assert_eq!(prefix + suffix, total);
    let share = prefix as f64 / total as f64;
    assert!(share > 0.0 && share < 1.0, "prefix share {share} outside (0, 1)");
}

/// A perturbation whose mechanism never engages records no divergence. When
/// its edit leaves the config unchanged, the service answers it from the
/// base report it already holds: nothing is simulated, and the answer still
/// equals a naive rerun of the edited config.
#[test]
fn unchanged_config_edit_is_answered_from_the_base_report() {
    // `straggler_job` keeps the default Ideal control channel, so
    // ZeroControlLatency never bites and leaves the config as it was.
    let (cfg, _) = straggler_job();
    let base = Job::run(cfg.clone());
    assert!(base.divergence.control_modeled.is_none());
    let perturbations = [Perturbation::ZeroControlLatency];
    let answers = answer_all(&cfg, &perturbations);
    assert_eq!(answers[0].source, AnswerSource::Memo);
    assert_eq!((answers[0].prefix_events, answers[0].suffix_events), (0, 0));
    let naive = Job::run(apply_perturbation(cfg.clone(), &perturbations[0]));
    assert_eq!(answers[0].report.golden_dump(), naive.golden_dump());
    let rows = antdt::core::counterfactual_rows(&base, &perturbations, [&answers[0].report]);
    assert_eq!(rows[0].measured_delta_us, 0, "an unengaged edit must not move JCT");
}

/// An edit that changes the config but never engages records no divergence
/// either, and matches no held report, so it falls back to a full rerun.
#[test]
fn changed_but_unengaged_edit_falls_back_to_a_full_rerun() {
    let late = 2u32;
    let mut cfg =
        ps_base(JobConfig::ps_bsp(cluster_a_scaled(4, 2), Scenario::None)).with_attribution();
    cfg.cluster.workers[late as usize].profile.phases.push(
        antdt::sim::ContentionPhase::Persistent {
            delay_secs: 4.0,
            from: antdt::sim::SimTime::from_secs_f64(100_000.0),
            to: antdt::sim::SimTime::MAX,
        },
    );
    let base = Job::run(cfg.clone());
    assert!(base.jct.as_secs_f64() < 100_000.0, "the phase must start after the job ends");
    assert!(base.divergence.worker_contended[late as usize].is_none());
    let perturbations = [Perturbation::HealthyNode(late)];
    let answers = answer_all(&cfg, &perturbations);
    assert_eq!(answers[0].source, AnswerSource::FullRerun);
    let naive = Job::run(apply_perturbation(cfg.clone(), &perturbations[0]));
    assert_eq!(answers[0].report.golden_dump(), naive.golden_dump());
    assert_eq!(answers[0].suffix_events, naive.events_processed);
    let rows = antdt::core::counterfactual_rows(&base, &perturbations, [&answers[0].report]);
    assert_eq!(rows[0].measured_delta_us, 0, "an unengaged edit must not move JCT");
}

/// Conservation survives a seed sweep over every consistency flavor — the
/// job-level analogue of the `antdt-attr` property tests, driven through the real
/// runtimes.
#[test]
fn conservation_holds_across_seeds_and_flavors() {
    for seed in [1u64, 42, 1234] {
        for cfg in [bsp(), asp(), allreduce()] {
            let report = Job::run(cfg.with_seed(seed).with_attribution());
            for n in &report.attr.as_ref().unwrap().nodes {
                let sum: u64 = n.totals_us.iter().sum();
                assert_eq!(sum, n.wall_us, "seed {seed}: node {} leaks time", n.node);
            }
        }
    }
}
