//! Differential correctness of the what-if query service: for random query
//! batches over the six golden fixture configs, every answer the
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
use antdt::sim::{SimDuration, SimTime};
use antdt::whatif::{AnswerSource, ServiceConfig, WhatIfQuery, WhatIfService};
use antdt::workloads::cluster::{cluster_a_scaled, cluster_b};
use antdt::workloads::{ModelProfile, Scenario};

// ---- the six golden fixture configs (tests/refactor_equivalence.rs) ----

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

fn allreduce() -> JobConfig {
    JobConfig::allreduce(cluster_b(), Scenario::None)
        .with_model(ModelProfile::resnet101())
        .with_global_batch(768)
        .with_samples(345_600)
        .with_batches_per_shard(2)
        .with_fast_cadence(SimDuration::from_secs(60))
        .with_seed(23)
}

/// Fixture config by index 0..6, in the golden-test order.
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
        4 => allreduce(),
        5 => chaos_ar(allreduce()),
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
    use antdt::sim::{ContentionPhase, ControlChannel};
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
        let cfg = fixture(rng.gen_range(0..6));
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
/// must be byte-identical to a plain `Job::run` of the same config. The
/// spine seeds the cache only for a config with a mark after its first
/// tick: `bsp()` contends from t = 0 and never checkpoints, so it caches
/// nothing.
#[test]
fn spine_base_report_matches_plain_run() {
    for (cfg, seeds) in [(forkable_cfg(), true), (bsp(), false)] {
        let mut service = WhatIfService::new(ServiceConfig {
            spine_every: SimDuration::from_secs(45),
            ..ServiceConfig::default()
        });
        let spined = service.base_report(&cfg).golden_dump();
        assert_eq!(service.cached_snapshots() > 0, seeds, "seeding: {seeds}");
        assert_eq!(spined, Job::run(cfg).golden_dump());
    }
}

/// Every divergence mark of a base report, the ones at t = 0 included.
fn marks(base: &JobReport) -> Vec<SimTime> {
    let d = &base.divergence;
    d.worker_contended
        .iter()
        .flatten()
        .chain(&d.control_modeled)
        .chain(&d.ckpt_stall)
        .copied()
        .collect()
}

/// Differential check of the mark-following spine against the periodic
/// one: a query on mark `m` forks from the nearest cached predecessor of
/// `m - 1 us`, which must be the periodic spine's tick `floor((m-1)/S)*S`
/// (none for a mark inside the first tick), and the spine caches no other
/// tick. The expected instants are derived from the marks alone. At a 30 s
/// cadence the checkpoint mark at 60 s falls exactly on a tick.
#[test]
fn spine_caches_the_periodic_predecessor_of_every_mark() {
    use antdt::sim::ContentionPhase;
    let mut staggered = forkable_cfg();
    for (w, from) in [(1, 100.0), (2, 170.0)] {
        staggered.cluster.workers[w].profile.phases.push(ContentionPhase::Persistent {
            delay_secs: 4.0,
            from: SimTime::from_secs_f64(from),
            to: SimTime::MAX,
        });
    }
    let forkable = [forkable_cfg(), forkable_cfg().with_telemetry(), staggered];
    let cases = (0..6)
        .map(|i| (fixture(i), 45))
        .chain(forkable.into_iter().flat_map(|cfg| [(cfg.clone(), 45), (cfg, 30)]));
    for (i, (cfg, secs)) in cases.enumerate() {
        let every = SimDuration::from_secs(secs);
        let s = every.as_micros();
        let mut service =
            WhatIfService::new(ServiceConfig { spine_every: every, ..ServiceConfig::default() });
        let marks = marks(service.base_report(&cfg));
        let cached: Vec<u64> =
            service.snapshot_instants(&cfg).iter().map(|t| t.as_micros()).collect();
        let mut expected: Vec<u64> = marks
            .iter()
            .filter(|m| **m > SimTime::ZERO)
            .map(|m| (m.as_micros() - 1) / s * s)
            .filter(|&tick| tick >= s)
            .collect();
        expected.sort_unstable();
        expected.dedup();
        assert_eq!(cached, expected, "config {i}: marks {marks:?}");
        for m in marks.iter().filter(|m| **m > SimTime::ZERO) {
            let target = m.as_micros() - 1;
            let tick = target / s * s;
            let pred = cached.iter().rev().find(|&&t| t <= target).copied();
            assert_eq!(pred, (tick >= s).then_some(tick), "config {i}: predecessor of {m:?}");
        }
    }
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

/// A cache squeezed below one batch's snapshot footprint evicts — and the
/// answers still match naive reruns (eviction only costs speed). The plain
/// config's spine snapshot and fork point fit one at a time but not
/// together; a telemetry-armed config's snapshots also carry its trace and
/// flight ring, outgrow the whole budget and are refused. The byte bound
/// holds either way.
#[test]
fn eviction_under_a_tiny_budget_preserves_answers() {
    for cfg in [forkable_cfg(), forkable_cfg().with_telemetry()] {
        let ctx = format!("24 KiB budget, telemetry {}", cfg.telemetry);
        let queries: Vec<WhatIfQuery> = (0..4)
            .map(|w| WhatIfQuery { cfg: cfg.clone(), perturbation: Perturbation::HealthyNode(w) })
            .collect();
        let budget = 24 << 10;
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

/// A batch mixing no-op edits of all three kinds (healing worker 0, which
/// is never contended; zeroing an `Ideal` channel's latency; dropping a
/// capture stall that is already zero), a forkable edit and an in-batch
/// repeat: every answer equals the naive rerun, each no-op is answered from
/// the held base report without simulating anything, and a later batch
/// answers it again without simulating.
#[test]
fn unchanged_config_edits_are_answered_from_the_held_base_report() {
    use antdt::ckpt::CkptConfig;
    use antdt::sim::ControlChannel;
    use antdt::telemetry::MetricsRegistry;
    let cfg = forkable_cfg();
    let cfg = cfg
        .clone()
        .with_control_channel(ControlChannel::Ideal)
        .with_ckpt(CkptConfig { capture_stall_secs: 0.0, ..cfg.ckpt });
    assert!(cfg.cluster.workers[0].profile.phases.is_empty());
    let noops = [
        Perturbation::HealthyNode(0),
        Perturbation::ZeroControlLatency,
        Perturbation::NoCkptStalls,
    ];
    let queries: Vec<WhatIfQuery> = noops
        .into_iter()
        .chain([Perturbation::HealthyNode(3), noops[0]])
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
    assert!(matches!(sources[3], AnswerSource::Forked { .. }), "{sources:?}");
    let base = service.base_report(&cfg).golden_dump();
    for (q, a) in queries.iter().zip(&first).filter(|(q, _)| noops.contains(&q.perturbation)) {
        let what = format!("{:?}", q.perturbation);
        assert_eq!(a.source, AnswerSource::Memo, "{what}: a no-op edit must not simulate");
        assert_eq!((a.prefix_events, a.suffix_events), (0, 0), "{what}: simulates nothing");
        assert_eq!(a.report.golden_dump(), base, "{what}: the held base report");
    }
    assert_eq!(counter("antdt_whatif_full_reruns_total"), 0);
    assert_eq!(counter("antdt_whatif_memo_hits_total"), 4);

    for (q, a) in queries.iter().zip(&first).take(3) {
        let again = service.answer(q);
        assert_eq!(again.source, AnswerSource::Memo);
        assert_eq!((again.prefix_events, again.suffix_events), (0, 0));
        assert_eq!(again.report.golden_dump(), a.report.golden_dump());
    }
    assert_eq!(counter("antdt_whatif_full_reruns_total"), 0);
}

/// Trace B is trace A with worker 1's phases stripped, and A's contention
/// on worker 1 bites from t = 0, so healing it cannot fork. Once B's base is
/// held, `(A, HealthyNode(1))` is answered from it; without B it reruns.
#[test]
fn an_edit_equal_to_another_held_trace_is_answered_from_its_base() {
    use antdt::sim::ContentionPhase;
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
