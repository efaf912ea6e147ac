//! Property tests over the whole training runtime: for random small
//! configurations and straggler scenarios, the framework must always terminate,
//! account for every sample, preserve at-least-once semantics, and be
//! bit-for-bit deterministic. Each test runs 24 seeded cases and names the
//! failing seed.

use antdt::core::{Consistency, DataStrategy, Job, JobConfig, MitigationChoice};
use antdt::sim::rng::StdRng;
use antdt::sim::SimDuration;
use antdt::workloads::{cluster, ModelProfile, Scenario};

const CASES: u64 = 24;

fn random_scenario(rng: &mut StdRng) -> Scenario {
    let intensity = rng.gen_range(0.1..1.0);
    match rng.gen_range(0u32..5) {
        0 => Scenario::None,
        1 => Scenario::WorkerTransient { intensity },
        2 => Scenario::WorkerPersistent { intensity },
        3 => Scenario::WorkerMix { intensity },
        _ => Scenario::ServerPersistent { intensity },
    }
}

fn random_mitigation(rng: &mut StdRng) -> MitigationChoice {
    match rng.gen_range(0u32..5) {
        0 => MitigationChoice::None,
        1 => MitigationChoice::AntDtNd,
        2 => MitigationChoice::LbBsp,
        3 => MitigationChoice::BackupWorkers { b: 1 },
        _ => MitigationChoice::KillRestartOnly,
    }
}

fn build(
    workers: usize,
    servers: usize,
    samples: u64,
    asp: bool,
    scenario: Scenario,
    mitigation: MitigationChoice,
    seed: u64,
) -> JobConfig {
    let cl = cluster::cluster_a_scaled(workers, servers);
    let mk = if asp { JobConfig::ps_asp } else { JobConfig::ps_bsp };
    mk(cl, scenario)
        .with_model(ModelProfile::xdeepfm())
        .with_global_batch(1_024 * workers as u64)
        .with_samples(samples)
        .with_batches_per_shard(5)
        .with_fast_cadence(SimDuration::from_secs(60))
        .with_mitigation(mitigation)
        .with_seed(seed)
}

#[test]
fn any_job_terminates_with_exact_accounting() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(case);
        let workers = rng.gen_range(2usize..8);
        let servers = rng.gen_range(1usize..4);
        let samples = rng.gen_range(50_000u64..400_000);
        let asp = rng.gen_bool(0.5);
        let scenario = random_scenario(&mut rng);
        let mitigation = random_mitigation(&mut rng);
        let seed = rng.gen_range(0u64..1_000);
        // Backup workers need b < workers; b = 1 is always fine at >= 2 workers.
        let cfg = build(workers, servers, samples, asp, scenario, mitigation.clone(), seed);
        let r = Job::run(cfg);
        assert!(!r.timed_out, "case {case}: {mitigation:?}/{scenario:?} timed out");
        assert!(r.samples_done >= samples, "case {case}: lost samples: {}", r.samples_done);
        let audit = r.audit.expect("dds strategy");
        assert!(audit.at_least_once, "case {case}");
        assert_eq!(audit.done_shards, audit.expected_done_shards, "case {case}");
        assert!(
            r.samples_done - samples <= audit.duplicate_samples_upper_bound,
            "case {case}: more duplicates than the audit bound"
        );
        assert!(r.jct.as_secs_f64() > 0.0, "case {case}");
    }
}

#[test]
fn any_job_is_deterministic() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(case);
        let workers = rng.gen_range(2usize..6);
        let scenario = random_scenario(&mut rng);
        let seed = rng.gen_range(0u64..1_000);
        let run = || {
            Job::run(build(workers, 2, 120_000, false, scenario, MitigationChoice::AntDtNd, seed))
        };
        let a = run();
        let b = run();
        assert_eq!(a.jct, b.jct, "case {case}");
        assert_eq!(a.iterations, b.iterations, "case {case}");
        assert_eq!(a.events_processed, b.events_processed, "case {case}");
        assert_eq!(a.kills, b.kills, "case {case}");
    }
}

#[test]
fn even_partition_asp_processes_every_sample() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(case);
        let workers = rng.gen_range(2usize..8);
        let samples = rng.gen_range(50_000u64..300_000);
        let scenario = random_scenario(&mut rng);
        let cl = cluster::cluster_a_scaled(workers, 2);
        let mut cfg = JobConfig::ps_asp(cl, scenario)
            .with_global_batch(1_024 * workers as u64)
            .with_samples(samples)
            .with_data_strategy(DataStrategy::EvenPartition);
        cfg.arch = antdt::core::Arch::ParameterServer { consistency: Consistency::Asp };
        let r = Job::run(cfg);
        assert!(!r.timed_out, "case {case}");
        assert_eq!(r.samples_done, samples, "case {case}");
        assert!(r.audit.is_none(), "case {case}");
    }
}
