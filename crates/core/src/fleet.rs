//! Fleet A/B emulation (paper §VII-F, Fig. 19): a population of production
//! jobs — some healthy, some straggling to varying degrees — each run under
//! every method, reporting the mean JCT per method. This mirrors the paper's
//! 3-day A/B test over 30% of production jobs, where normal and straggling
//! jobs cannot be separated a priori.

use crate::config::{DataStrategy, JobConfig, MitigationChoice};
use crate::job::Job;
use antdt_sim::rng::mix64;
use antdt_workloads::cluster::cluster_a_scaled;
use antdt_workloads::{ModelProfile, Scenario};

/// Workers per job.
const N_WORKERS: usize = 6;
/// Parameter servers per job.
const N_SERVERS: usize = 3;
/// Global batch of every job.
const GLOBAL_BATCH: u64 = 6144;
/// Fraction of jobs with no straggler at all.
const HEALTHY_FRACTION: f64 = 0.4;
/// Seed of the population draw; job `j` runs with seed `SEED + j`.
const SEED: u64 = 99;

#[derive(Debug, Clone, Copy)]
pub struct FleetConfig {
    /// Number of jobs in the A/B population.
    pub n_jobs: usize,
    /// Samples per job (kept small; only ratios matter).
    pub samples: u64,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig { n_jobs: 10, samples: 1_500_000 }
    }
}

/// Which arm of the A/B test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetMethod {
    Bsp,
    BackupWorkers,
    LbBsp,
    AntDtNd,
    Asp,
    AspDds,
    AntDtNdAsp,
}

impl FleetMethod {
    pub fn label(&self) -> &'static str {
        match self {
            FleetMethod::Bsp => "BSP",
            FleetMethod::BackupWorkers => "Backup Workers",
            FleetMethod::LbBsp => "LB-BSP",
            FleetMethod::AntDtNd => "AntDT-ND",
            FleetMethod::Asp => "ASP",
            FleetMethod::AspDds => "ASP-DDS",
            FleetMethod::AntDtNdAsp => "AntDT-ND (ASP)",
        }
    }

    pub fn bsp_family() -> [FleetMethod; 4] {
        [FleetMethod::Bsp, FleetMethod::BackupWorkers, FleetMethod::LbBsp, FleetMethod::AntDtNd]
    }

    pub fn asp_family() -> [FleetMethod; 3] {
        [FleetMethod::Asp, FleetMethod::AspDds, FleetMethod::AntDtNdAsp]
    }
}

/// The straggler condition drawn for one job in the population.
fn job_scenario(job: usize) -> Scenario {
    let h = mix64(SEED ^ mix64(job as u64));
    let u = (h >> 11) as f64 / (1u64 << 53) as f64;
    if u < HEALTHY_FRACTION {
        return Scenario::None;
    }
    let intensity = 0.2 + 0.6 * ((h >> 7) & 0xff) as f64 / 255.0;
    match h % 3 {
        0 => Scenario::WorkerTransient { intensity },
        1 => Scenario::WorkerMix { intensity },
        _ => Scenario::ServerPersistent { intensity },
    }
}

fn job_config(cfg: &FleetConfig, job: usize, method: FleetMethod) -> JobConfig {
    let cluster = cluster_a_scaled(N_WORKERS, N_SERVERS);
    let scenario = job_scenario(job);
    let base = match method {
        FleetMethod::Bsp
        | FleetMethod::BackupWorkers
        | FleetMethod::LbBsp
        | FleetMethod::AntDtNd => JobConfig::ps_bsp(cluster, scenario),
        _ => JobConfig::ps_asp(cluster, scenario),
    };
    let base = base
        .with_model(ModelProfile::xdeepfm())
        .with_global_batch(GLOBAL_BATCH)
        .with_samples(cfg.samples)
        .with_batches_per_shard(4)
        .with_fast_cadence(antdt_sim::SimDuration::from_secs(120))
        .with_seed(SEED.wrapping_add(job as u64));
    match method {
        FleetMethod::Bsp => base,
        FleetMethod::BackupWorkers => {
            base.with_mitigation(MitigationChoice::BackupWorkers { b: 1 })
        }
        FleetMethod::LbBsp => base.with_mitigation(MitigationChoice::LbBsp),
        FleetMethod::AntDtNd => base.with_mitigation(MitigationChoice::AntDtNd),
        FleetMethod::Asp => base.with_data_strategy(DataStrategy::EvenPartition),
        FleetMethod::AspDds => base,
        FleetMethod::AntDtNdAsp => base.with_mitigation(MitigationChoice::AntDtNdAsp),
    }
}

/// Mean JCT (seconds) of one method over the whole population.
pub fn run_arm(cfg: &FleetConfig, method: FleetMethod) -> ArmResult {
    let mut total = 0.0;
    let mut worst: f64 = 0.0;
    for job in 0..cfg.n_jobs {
        let r = Job::run(job_config(cfg, job, method));
        assert!(!r.timed_out, "fleet job timed out under {method:?}");
        let jct = r.jct.as_secs_f64();
        total += jct;
        worst = worst.max(jct);
    }
    ArmResult { method, mean_jct_secs: total / cfg.n_jobs as f64, worst_jct_secs: worst }
}

#[derive(Debug, Clone, Copy)]
pub struct ArmResult {
    pub method: FleetMethod,
    pub mean_jct_secs: f64,
    pub worst_jct_secs: f64,
}

/// Run the full A/B test: both families over the same job population.
pub fn ab_test(cfg: &FleetConfig) -> Vec<ArmResult> {
    FleetMethod::bsp_family()
        .into_iter()
        .chain(FleetMethod::asp_family())
        .map(|m| run_arm(cfg, m))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenarios_are_deterministic_and_mixed() {
        let cfg = FleetConfig::default();
        let a: Vec<Scenario> = (0..cfg.n_jobs).map(job_scenario).collect();
        let b: Vec<Scenario> = (0..cfg.n_jobs).map(job_scenario).collect();
        assert_eq!(a, b);
        assert!(a.iter().any(|s| matches!(s, Scenario::None)));
        assert!(a.iter().any(|s| !matches!(s, Scenario::None)));
    }
}
