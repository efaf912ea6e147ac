//! Batch what-if queries: the snapshot-cached query service.
//!
//! A what-if replay re-runs a finished job with one mechanism edited out;
//! until the edit first bites, the replay is byte-identical to the baseline,
//! so the service forks the baseline there instead of re-simulating the
//! prefix. This example drives a [`antdt::whatif::WhatIfService`]
//! answering a *batch* of counterfactual
//! queries across several job traces, with repeats — the fleet-analysis
//! shape ("for each of these jobs, what if node N had been healthy / the
//! checkpoints had been free?"). The service answers off its three layers:
//!
//!   1. a memo store (repeated queries simulate nothing),
//!   2. an LRU snapshot cache seeded by a *snapshot spine* laid down while
//!      each trace's base run first simulates (nearest-predecessor lookup),
//!   3. shared-prefix fork replay for everything else.
//!
//! The example is self-checking: every answer is asserted byte-identical to
//! a naive from-scratch rerun of the perturbed config, repeats are asserted
//! to be memo hits, and a second identical batch must simulate zero events.
//!
//! ```sh
//! cargo run --release --example whatif_service
//! ```

use antdt::core::{apply_perturbation, Job, JobConfig, Perturbation};
use antdt::sim::{ContentionPhase, ControlChannel, SimDuration, SimTime};
use antdt::whatif::{AnswerSource, ServiceConfig, WhatIfQuery, WhatIfService};
use antdt::workloads::{cluster, ModelProfile, Scenario};

/// One job trace whose divergence sources all engage strictly after t = 0:
/// workers 1..=3 contended from 300/420/540 s, periodic checkpoints from
/// 120 s — so healing any of them forks the base run instead of rerunning it.
fn trace(seed: u64) -> JobConfig {
    let mut cfg = JobConfig::ps_bsp(cluster::cluster_a_scaled(4, 2), Scenario::None)
        .with_model(ModelProfile::xdeepfm())
        .with_global_batch(4_096)
        .with_samples(2_000_000)
        .with_batches_per_shard(10)
        .with_seed(seed)
        .with_control_channel(ControlChannel::Modeled {
            latency_secs: 0.05,
            jitter_secs: 0.02,
            loss_prob: 0.01,
            seed: 5,
        })
        .with_checkpoint_interval(SimDuration::from_secs(120));
    for (w, from) in [(1usize, 300.0), (2, 420.0), (3, 540.0)] {
        cfg.cluster.workers[w].profile.phases.push(ContentionPhase::Persistent {
            delay_secs: 4.0,
            from: SimTime::from_secs_f64(from),
            to: SimTime::MAX,
        });
    }
    cfg
}

fn main() {
    // Two traces × (4 distinct perturbations × 2 repeats) = 16 queries.
    let perturbations = [
        Perturbation::HealthyNode(1),
        Perturbation::HealthyNode(2),
        Perturbation::HealthyNode(3),
        Perturbation::NoCkptStalls,
    ];
    let mut queries = Vec::new();
    for seed in [11u64, 12] {
        let cfg = trace(seed);
        for _ in 0..2 {
            for p in perturbations {
                queries.push(WhatIfQuery { cfg: cfg.clone(), perturbation: p });
            }
        }
    }

    // A 90 s spine lays snapshots strictly before every divergence instant.
    let mut service = WhatIfService::new(ServiceConfig {
        spine_every: SimDuration::from_secs(90),
        ..ServiceConfig::default()
    });

    println!("answering a {}-query batch across 2 traces ...", queries.len());
    let answers = service.answer_batch(&queries);

    let mut simulated = 0u64;
    let (mut memo, mut forked) = (0, 0);
    for (q, a) in queries.iter().zip(&answers) {
        match a.source {
            AnswerSource::Memo => memo += 1,
            AnswerSource::Forked { .. } => forked += 1,
            AnswerSource::FullRerun => {}
        }
        simulated += a.suffix_events;
        // Byte-exactness: the whole point of the service is that caching
        // never changes an answer, only what it costs.
        let naive = Job::run(apply_perturbation(q.cfg.clone(), &q.perturbation));
        assert_eq!(
            a.report.golden_dump(),
            naive.golden_dump(),
            "service answer diverged from a naive rerun"
        );
    }
    let stats = service.cache_stats();
    println!("  {memo} memo hits, {forked} forked, {simulated} suffix events simulated");
    println!(
        "  cache: {} snapshots, {} KiB, {} hits / {} lookups",
        service.cached_snapshots(),
        service.cache_bytes() / 1024,
        stats.hits,
        stats.hits + stats.misses,
    );
    assert_eq!(forked, 8, "each trace's 4 distinct perturbations must fork");
    assert_eq!(memo, 8, "every repeat must be answered from the memo layer");

    // A second identical batch is pure memo: zero simulation.
    let again = service.answer_batch(&queries);
    assert!(again.iter().all(|a| a.source == AnswerSource::Memo && a.suffix_events == 0));
    for (a, b) in answers.iter().zip(&again) {
        assert_eq!(a.report.golden_dump(), b.report.golden_dump());
    }
    println!("  second identical batch: all {} answers memoized, 0 events simulated", again.len());
    println!("OK: every answer byte-identical to its naive full rerun");
}
