//! The experiments: one function per paper artifact. See `registry()` in the
//! crate root for the id ↔ figure mapping and EXPERIMENTS.md for the
//! paper-vs-measured record.
//!
//! Grouped by evaluation section: `motivation` (Figs. 1–9), `nd`
//! (AntDT-ND, Figs. 10–14), `framework` (AntDT-DD + framework properties,
//! Figs. 15–19 and Table III) and `ops` (integrity, solver, ablations,
//! chaos).

mod ckpt;
mod controlbus;
mod framework;
mod motivation;
mod nd;
mod ops;
mod perf;
mod whatif;

pub use ckpt::fig17;
pub use controlbus::controlbus;
pub use framework::{fig15, fig16, fig18, fig19, tab3};
pub use motivation::{fig1, fig2, fig3, fig7, fig8, fig9};
pub use nd::{fig10, fig11, fig12, fig13, fig14};
pub use ops::{ablate, chaos, integrity, solver};
pub use perf::perf;
pub use whatif::whatif;

use antdt_controller::DeviceClassSpec;
use antdt_core::JobConfig;
use antdt_sim::SimDuration;
use antdt_workloads::cluster::{cluster_a, cluster_b, cluster_b_with};
use antdt_workloads::{DeviceClass, ModelProfile, Scenario};

// ---------------------------------------------------------------------------
// Shared paper-scale configurations
// ---------------------------------------------------------------------------

/// The paper's headline worker-straggler setting (SleepDuration 1.5 s,
/// intensity 0.8, plus the persistent straggler).
pub(crate) const WORKER_SI: f64 = 0.8;
pub(crate) const SERVER_SI: f64 = 0.8;

/// Criteo-scale XDeepFM job on Cluster-A (§VII-A2): 45M clicks × 3 epochs,
/// B = 81920 (local 4096 on 20 workers).
pub(crate) fn criteo_job(scenario: Scenario) -> JobConfig {
    JobConfig::ps_bsp(cluster_a(), scenario)
        .with_model(ModelProfile::xdeepfm())
        .with_global_batch(81_920)
        .with_samples(45_000_000)
        .with_epochs(3)
        .with_batches_per_shard(100)
}

pub(crate) fn criteo_job_asp(scenario: Scenario) -> JobConfig {
    JobConfig::ps_asp(cluster_a(), scenario)
        .with_model(ModelProfile::xdeepfm())
        .with_global_batch(81_920)
        .with_samples(45_000_000)
        .with_epochs(3)
        .with_batches_per_shard(100)
}

pub(crate) fn dd_classes_for(profile: &ModelProfile) -> Vec<DeviceClassSpec> {
    let v100 = DeviceClass::v100();
    let p100 = DeviceClass::p100();
    vec![
        DeviceClassSpec {
            count: 4,
            c0_secs: profile.compute.c0_secs,
            b_min: v100.saturation_batch,
            b_max: v100.mem_cap_batch,
        },
        DeviceClassSpec {
            count: 4,
            c0_secs: profile.compute.c0_secs,
            b_min: p100.saturation_batch,
            b_max: p100.mem_cap_batch,
        },
    ]
}

/// ImageNet-scale AllReduce job on Cluster-B: 1.28M images, B = 768 (§VII-A2).
pub(crate) fn imagenet_job(profile: ModelProfile, membound: bool) -> JobConfig {
    let cluster = if membound {
        cluster_b_with(DeviceClass::v100(), DeviceClass::p100_membound())
    } else {
        cluster_b()
    };
    JobConfig::allreduce(cluster, Scenario::None)
        .with_model(profile)
        .with_global_batch(768)
        .with_samples(1_281_167)
        .with_epochs(1)
        .with_batches_per_shard(100)
        .with_monitor_tick(SimDuration::from_secs(60))
}

#[cfg(test)]
mod tests {

    #[test]
    fn cheap_experiments_produce_reports() {
        for id in ["fig7", "fig8", "fig17", "solver"] {
            let out = crate::run(id).expect("known id");
            assert!(out.contains(&format!("=== {id}")), "{out}");
            assert!(out.lines().count() > 3);
        }
        assert!(crate::run("nope").is_none());
    }

    /// `--only` restricts `all`, so an id `all` never runs is an error that
    /// names it, not an empty report.
    #[test]
    fn only_rejects_unknown_and_excluded_ids() {
        let ids = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(crate::check_only(&ids(&["fig7", "solver"])), Ok(()));
        let err = crate::check_only(&ids(&["fig7", "perf"])).unwrap_err();
        assert!(err.contains("perf") && err.contains("all"), "{err}");
        let err = crate::check_only(&ids(&["nope"])).unwrap_err();
        assert!(err.contains("unknown") && err.contains("nope"), "{err}");
    }

    #[test]
    fn registry_ids_are_unique() {
        let reg = crate::registry();
        let mut ids: Vec<&str> = reg.iter().map(|(id, _, _)| *id).collect();
        ids.sort_unstable();
        let n = ids.len();
        ids.dedup();
        assert_eq!(n, ids.len());
    }
}
