//! Differential correctness of the what-if query service: for random query
//! batches over the eight golden fixture configs, every answer the
//! cached/forked/memoized service produces must be byte-identical (via
//! `JobReport::golden_dump`, plus the rendered telemetry) to a naive
//! per-query full rerun — including the cache-eviction and snapshot-spine
//! paths, which only change *how much simulation* an answer costs, never the
//! answer.

use antdt::core::{
    apply_perturbation, ChaosInjection, InjectedFault, Job, JobConfig, JobReport, MitigationChoice,
    Perturbation,
};
use antdt::sim::rng::StdRng;
use antdt::sim::SimDuration;
use antdt::whatif::{AnswerSource, ServiceConfig, WhatIfQuery, WhatIfService};
use antdt::workloads::cluster::{cluster_a_scaled, cluster_b};
use antdt::workloads::{ModelProfile, Scenario};

// ---- the eight golden fixture configs (tests/refactor_equivalence.rs) ----

fn ps_chaos_plan() -> Vec<ChaosInjection> {
    vec![
        ChaosInjection {
            at_secs: 10.0,
            fault: InjectedFault::RestartDelay { w: 2, extra_secs: 20.0 },
        },
        ChaosInjection { at_secs: 40.0, fault: InjectedFault::KillWorker { w: 2 } },
        ChaosInjection {
            at_secs: 70.0,
            fault: InjectedFault::NetworkDegrade { w: 0, factor: 4.0, window_secs: 30.0 },
        },
        ChaosInjection { at_secs: 120.0, fault: InjectedFault::DdsOutage { window_secs: 20.0 } },
        ChaosInjection {
            at_secs: 150.0,
            fault: InjectedFault::DropReports { prob: 0.3, window_secs: 60.0, seed: 7 },
        },
    ]
}

fn ar_chaos_plan() -> Vec<ChaosInjection> {
    vec![
        ChaosInjection { at_secs: 60.0, fault: InjectedFault::KillWorker { w: 5 } },
        ChaosInjection {
            at_secs: 90.0,
            fault: InjectedFault::NetworkDegrade { w: 0, factor: 3.0, window_secs: 45.0 },
        },
        ChaosInjection {
            at_secs: 180.0,
            fault: InjectedFault::DropReports { prob: 0.25, window_secs: 90.0, seed: 13 },
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

fn ssp() -> JobConfig {
    ps_base(JobConfig::ps_ssp(
        cluster_a_scaled(4, 2),
        Scenario::WorkerTransient { intensity: 0.8 },
        3,
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

/// Fixture config by index 0..8, in the golden-test order.
fn fixture(i: usize) -> JobConfig {
    let chaos_ps = |c: JobConfig| {
        c.with_injections(ps_chaos_plan()).with_liveness_timeout(SimDuration::from_secs(1_800))
    };
    let chaos_ar = |c: JobConfig| {
        c.with_injections(ar_chaos_plan()).with_liveness_timeout(SimDuration::from_secs(1_800))
    };
    match i {
        0 => bsp(),
        1 => chaos_ps(bsp()),
        2 => asp(),
        3 => chaos_ps(asp()),
        4 => ssp(),
        5 => chaos_ps(ssp()),
        6 => allreduce(),
        7 => chaos_ar(allreduce()),
        _ => unreachable!(),
    }
}

fn perturbation(i: usize, cfg: &JobConfig) -> Perturbation {
    let n = cfg.cluster.workers.len() as u32;
    match i {
        0 => Perturbation::ZeroControlLatency,
        1 => Perturbation::NoCkptStalls,
        k => Perturbation::HealthyNode((k as u32 - 2) % n),
    }
}

/// The answer the service must reproduce byte-for-byte.
fn naive(cfg: &JobConfig, p: &Perturbation) -> JobReport {
    Job::run(apply_perturbation(cfg.clone(), p))
}

/// `answer` equals `naive`: the golden dump and the rendered telemetry.
fn assert_same_report(answer: &JobReport, naive: &JobReport, ctx: &str) {
    assert_eq!(answer.golden_dump(), naive.golden_dump(), "{ctx}: golden dump diverged");
    assert_eq!(answer.telemetry, naive.telemetry, "{ctx}: telemetry diverged");
}

/// A job whose divergence sources all engage strictly after t=0 (worker 3
/// contended from 60s, modeled control channel, periodic checkpoints), so
/// queries take the fork path and the snapshot cache actually fills — the
/// fixture scenarios contend from t=0 and always full-rerun.
fn forkable_cfg() -> JobConfig {
    use antdt::sim::{ContentionPhase, ControlChannel, SimTime};
    let mut cfg = JobConfig::ps_bsp(cluster_a_scaled(4, 2), Scenario::None)
        .with_model(ModelProfile::xdeepfm())
        .with_global_batch(4_096)
        .with_samples(600_000)
        .with_batches_per_shard(10)
        .with_seed(11)
        .with_control_channel(ControlChannel::Modeled {
            latency_secs: 0.05,
            jitter_secs: 0.02,
            loss_prob: 0.01,
            seed: 5,
        })
        .with_checkpoint_interval(SimDuration::from_secs(60));
    cfg.cluster.workers[3].profile.phases.push(ContentionPhase::Persistent {
        delay_secs: 4.0,
        from: SimTime::from_secs_f64(60.0),
        to: SimTime::MAX,
    });
    cfg
}

fn check_batch(service: &mut WhatIfService, queries: &[WhatIfQuery], ctx: &str) {
    let answers = service.answer_batch(queries);
    assert_eq!(answers.len(), queries.len(), "{ctx}: one answer per query");
    for (q, a) in queries.iter().zip(&answers) {
        let what = format!("{ctx}: service answer for {:?} vs naive full rerun", q.perturbation);
        assert_same_report(&a.report, &naive(&q.cfg, &q.perturbation), &what);
    }
}

/// Random batches over the fixture configs, random cache budget (the tiny
/// one forces evictions mid-batch) and random spine cadence (including
/// disabled): answers always equal naive full reruns. 5 seeded cases.
#[test]
fn service_answers_equal_naive_full_reruns() {
    for seed in 0..5 {
        let mut rng = StdRng::seed_from_u64(seed);
        let cfg = fixture(rng.gen_range(0..8));
        let queries: Vec<WhatIfQuery> = (0..rng.gen_range(2..5u32))
            .map(|_| {
                let perturbation = perturbation(rng.gen_range(0..6), &cfg);
                WhatIfQuery { cfg: cfg.clone(), perturbation }
            })
            .collect();
        let budget_tiny = rng.gen_bool(0.5);
        let spine_secs = [0, 45, 240][rng.gen_range(0..3)];
        let mut service = WhatIfService::new(ServiceConfig {
            cache_budget_bytes: if budget_tiny { 1 << 20 } else { 256 << 20 },
            spine_every: SimDuration::from_secs(spine_secs),
            cache_fork_points: true,
        });
        check_batch(&mut service, &queries, &format!("seed {seed}"));
    }
}

/// The spine-stepped base run (advance in slices, snapshot between, finish)
/// must be byte-identical to a plain `Job::run` of the same config.
#[test]
fn spine_base_report_matches_plain_run() {
    let cfg = bsp();
    let mut service = WhatIfService::new(ServiceConfig {
        spine_every: SimDuration::from_secs(60),
        ..ServiceConfig::default()
    });
    let spined = service.base_report(&cfg).golden_dump();
    assert!(service.cached_snapshots() > 0, "the spine must have seeded the cache");
    assert_eq!(spined, Job::run(cfg).golden_dump());
}

/// Repeats hit the memo store — no simulation, same bytes — and forkable
/// queries against a spined config populate and then reuse the cache.
#[test]
fn repeated_batches_are_memoized_and_cache_backed() {
    let cfg = forkable_cfg();
    let queries: Vec<WhatIfQuery> = [Perturbation::HealthyNode(3), Perturbation::NoCkptStalls]
        .into_iter()
        .map(|perturbation| WhatIfQuery { cfg: cfg.clone(), perturbation })
        .collect();
    let mut service = WhatIfService::new(ServiceConfig {
        spine_every: SimDuration::from_secs(45),
        ..ServiceConfig::default()
    });

    let first = service.answer_batch(&queries);
    check_batch(&mut service, &queries, "memo batch"); // second call: must all be memo hits
    assert!(
        first.iter().all(|a| matches!(a.source, AnswerSource::Forked { .. })),
        "delayed-divergence queries must take the fork path"
    );
    assert!(first.iter().all(|a| a.prefix_events > 0), "forks inherit prefix events");
    let stats = service.cache_stats();
    assert!(stats.insertions > 0, "spine + fork points must populate the cache");

    let again = service.answer_batch(&queries);
    for (a, b) in first.iter().zip(&again) {
        assert_eq!(b.source, AnswerSource::Memo);
        assert_eq!(b.suffix_events, 0, "memo hits simulate nothing");
        assert_eq!(a.report.golden_dump(), b.report.golden_dump());
    }
}

/// A cache squeezed far below one batch's snapshot footprint keeps evicting
/// — and the answers still match naive reruns (eviction only costs speed).
/// A telemetry-armed config's snapshots also carry its trace and flight
/// ring, and the byte bound holds for them too.
#[test]
fn eviction_under_a_tiny_budget_preserves_answers() {
    for cfg in [forkable_cfg(), forkable_cfg().with_telemetry()] {
        let ctx = format!("64 KiB budget, telemetry {}", cfg.telemetry);
        let queries: Vec<WhatIfQuery> = (0..4)
            .map(|w| WhatIfQuery { cfg: cfg.clone(), perturbation: Perturbation::HealthyNode(w) })
            .collect();
        let budget = 64 << 10;
        let mut service = WhatIfService::new(ServiceConfig {
            cache_budget_bytes: budget,
            spine_every: SimDuration::from_secs(45),
            cache_fork_points: true,
        });
        check_batch(&mut service, &queries, &ctx);
        let stats = service.cache_stats();
        assert!(
            stats.evictions > 0 || stats.oversize_rejections > 0,
            "{ctx}: must have forced evictions or oversize rejections: {stats:?}"
        );
        assert!(service.cache_bytes() <= budget, "{ctx}: the byte bound must hold");
    }
}

/// A telemetry-armed query whose perturbation bites after t=0 forks like
/// any other, and its whole report — the rendered telemetry included —
/// equals a naive rerun's.
#[test]
fn telemetry_armed_queries_fork_and_match_naive_reruns() {
    let cfg = forkable_cfg().with_telemetry();
    let query = WhatIfQuery { cfg: cfg.clone(), perturbation: Perturbation::HealthyNode(3) };
    let mut service = WhatIfService::new(ServiceConfig::default());
    let answer = service.answer(&query);
    assert!(
        matches!(answer.source, AnswerSource::Forked { .. }),
        "a telemetry-armed query with a divergence mark must fork: {:?}",
        answer.source
    );
    assert!(answer.prefix_events > 0, "the fork inherits its prefix");
    let want = naive(&cfg, &query.perturbation);
    assert!(want.telemetry.is_some());
    assert_same_report(&answer.report, &want, "telemetry-armed fork");
}

/// A batch mixing a no-op edit (healing worker 0, which is never
/// contended), two forkable edits and an in-batch repeat of the no-op:
/// every answer equals the naive rerun, the no-op is answered from the held
/// base report without simulating anything, and a later batch answers it
/// from the memo.
#[test]
fn unchanged_config_edits_are_answered_from_the_held_base_report() {
    use antdt::telemetry::MetricsRegistry;
    let cfg = forkable_cfg();
    assert!(cfg.cluster.workers[0].profile.phases.is_empty());
    let noop = Perturbation::HealthyNode(0);
    let queries: Vec<WhatIfQuery> =
        [noop, Perturbation::HealthyNode(3), Perturbation::NoCkptStalls, noop]
            .into_iter()
            .map(|perturbation| WhatIfQuery { cfg: cfg.clone(), perturbation })
            .collect();
    let reg = MetricsRegistry::new();
    let mut service = WhatIfService::new(ServiceConfig::default());
    service.attach_telemetry(&reg);
    let counter = |name| reg.counter(name, &[]).get();

    let first = service.answer_batch(&queries);
    for (q, a) in queries.iter().zip(&first) {
        let what = format!("first batch: {:?}", q.perturbation);
        assert_same_report(&a.report, &naive(&q.cfg, &q.perturbation), &what);
    }
    let sources: Vec<AnswerSource> = first.iter().map(|a| a.source).collect();
    assert_eq!(sources[0], AnswerSource::Memo, "the no-op edit must not simulate");
    assert_eq!(sources[3], AnswerSource::Memo, "the in-batch repeat must not simulate");
    assert!(sources[1..3].iter().all(|s| matches!(s, AnswerSource::Forked { .. })), "{sources:?}");
    for a in [&first[0], &first[3]] {
        assert_eq!((a.prefix_events, a.suffix_events), (0, 0), "the no-op simulates nothing");
        assert_eq!(a.report.golden_dump(), service.base_report(&cfg).golden_dump());
    }
    assert_eq!(counter("antdt_whatif_full_reruns_total"), 0);
    assert_eq!(counter("antdt_whatif_memo_hits_total"), 2);

    let again = service.answer(&queries[0]);
    assert_eq!(again.source, AnswerSource::Memo);
    assert_eq!((again.prefix_events, again.suffix_events), (0, 0));
    assert_eq!(again.report.golden_dump(), first[0].report.golden_dump());
    assert_eq!(counter("antdt_whatif_full_reruns_total"), 0);
}

/// Trace B is trace A with worker 1's phases stripped, and A's contention
/// on worker 1 bites from t = 0, so healing it cannot fork. Once B's base is
/// held, `(A, HealthyNode(1))` is answered from it; without B it reruns.
#[test]
fn an_edit_equal_to_another_held_trace_is_answered_from_its_base() {
    use antdt::sim::{ContentionPhase, SimTime};
    let trace_b = forkable_cfg();
    assert!(trace_b.cluster.workers[1].profile.phases.is_empty());
    let mut trace_a = trace_b.clone();
    trace_a.cluster.workers[1].profile.phases.push(ContentionPhase::Persistent {
        delay_secs: 2.0,
        from: SimTime::ZERO,
        to: SimTime::MAX,
    });
    let query = WhatIfQuery { cfg: trace_a.clone(), perturbation: Perturbation::HealthyNode(1) };
    let want = naive(&trace_a, &query.perturbation);

    let mut cold = WhatIfService::new(ServiceConfig::default());
    let rerun = cold.answer(&query);
    assert_eq!(rerun.source, AnswerSource::FullRerun, "without B held, the edit must rerun");
    assert_same_report(&rerun.report, &want, "full rerun");

    let mut service = WhatIfService::new(ServiceConfig::default());
    let base_b = service.base_report(&trace_b).golden_dump();
    let answer = service.answer(&query);
    assert_eq!(answer.source, AnswerSource::Memo, "B's held base must answer A's edit");
    assert_eq!((answer.prefix_events, answer.suffix_events), (0, 0));
    assert_same_report(&answer.report, &want, "cross-trace answer");
    assert_eq!(answer.report.golden_dump(), base_b);
}
