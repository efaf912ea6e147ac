//! Solution-level orderings at miniature paper scale: who wins under which
//! straggler type (Figs. 10/11/15 shapes), plus the framework-facade paths.

use antdt::controller::DeviceClassSpec;
use antdt::core::{DataStrategy, Job, JobConfig, MitigationChoice};
use antdt::sim::SimDuration;
use antdt::workloads::{cluster, DeviceClass, ModelProfile, Scenario};

fn bsp(scenario: Scenario, m: MitigationChoice) -> f64 {
    Job::run(
        JobConfig::ps_bsp(cluster::cluster_a_scaled(8, 4), scenario)
            .with_model(ModelProfile::xdeepfm())
            .with_global_batch(8_192)
            .with_samples(4_000_000)
            .with_batches_per_shard(10)
            .with_fast_cadence(SimDuration::from_secs(90))
            .with_mitigation(m),
    )
    .jct
    .as_secs_f64()
}

#[test]
fn fig10_worker_side_ordering() {
    let scenario = Scenario::WorkerMix { intensity: 0.8 };
    let native = bsp(scenario, MitigationChoice::None);
    let bw = bsp(scenario, MitigationChoice::BackupWorkers { b: 1 });
    let lb = bsp(scenario, MitigationChoice::LbBsp);
    let nd = bsp(scenario, MitigationChoice::AntDtNd);
    // AntDT-ND wins; every baseline improves on native BSP.
    assert!(nd < bw && nd < lb && nd < native, "nd {nd} bw {bw} lb {lb} bsp {native}");
    assert!(bw < native, "bw {bw} vs native {native}");
    assert!(lb < native, "lb {lb} vs native {native}");
}

#[test]
fn fig10_server_side_only_kill_restart_helps() {
    let scenario = Scenario::ServerPersistent { intensity: 0.8 };
    let native = bsp(scenario, MitigationChoice::None);
    let lb = bsp(scenario, MitigationChoice::LbBsp);
    let nd = bsp(scenario, MitigationChoice::AntDtNd);
    // Batch rebalancing cannot shrink T_s/T_m: LB-BSP stays near native while
    // AntDT-ND's server KILL_RESTART wins big.
    assert!(nd * 1.2 < native, "nd {nd} vs native {native}");
    assert!(nd * 1.1 < lb, "nd {nd} vs lb {lb}");
}

#[test]
fn fig11_asp_family_ordering() {
    let scenario = Scenario::WorkerMix { intensity: 0.8 };
    let mk = |strategy: DataStrategy, m: MitigationChoice| {
        Job::run(
            JobConfig::ps_asp(cluster::cluster_a_scaled(8, 4), scenario)
                .with_model(ModelProfile::xdeepfm())
                .with_global_batch(8_192)
                .with_samples(4_000_000)
                .with_batches_per_shard(10)
                .with_fast_cadence(SimDuration::from_secs(90))
                .with_data_strategy(strategy)
                .with_mitigation(m),
        )
        .jct
        .as_secs_f64()
    };
    let asp = mk(DataStrategy::EvenPartition, MitigationChoice::None);
    let asp_dds = mk(DataStrategy::Dds, MitigationChoice::None);
    let nd = mk(DataStrategy::Dds, MitigationChoice::AntDtNdAsp);
    assert!(asp_dds < asp * 0.8, "dds {asp_dds} vs even {asp}");
    assert!(nd <= asp_dds * 1.05, "nd {nd} vs asp_dds {asp_dds}");
}

#[test]
fn fig15_gpu_ordering_with_accumulation() {
    let model = ModelProfile::resnet101();
    let classes = vec![
        DeviceClassSpec {
            count: 4,
            c0_secs: model.compute.c0_secs,
            b_min: DeviceClass::v100().saturation_batch,
            b_max: DeviceClass::v100().mem_cap_batch,
        },
        DeviceClassSpec {
            count: 4,
            c0_secs: model.compute.c0_secs,
            b_min: DeviceClass::p100().saturation_batch,
            b_max: DeviceClass::p100().mem_cap_batch,
        },
    ];
    let mk = |m: MitigationChoice, dd: bool| {
        let mut cfg = JobConfig::allreduce(cluster::cluster_b(), Scenario::None)
            .with_model(model.clone())
            .with_global_batch(768)
            .with_samples(150_000)
            .with_batches_per_shard(5)
            .with_monitor_tick(SimDuration::from_secs(30))
            .with_mitigation(m);
        if dd {
            cfg = cfg.with_dd_classes(classes.clone());
        }
        Job::run(cfg)
    };
    let ddp = mk(MitigationChoice::None, false);
    let lb = mk(MitigationChoice::LbBsp, false);
    let dd = mk(MitigationChoice::AntDtDd, true);
    assert!(lb.jct < ddp.jct, "lb {} vs ddp {}", lb.jct, ddp.jct);
    assert!(dd.jct < lb.jct, "dd {} vs lb {}", dd.jct, lb.jct);
    // The DD allocation actually uses gradient accumulation on the fast class.
    let used_accum = dd.actions.iter().any(|(_, a)| {
        matches!(a, antdt::controller::Action::AdjustBs { grad_accum: Some(c), .. } if c.iter().any(|&x| x > 1))
    });
    assert!(used_accum, "Eq. 4 should engage C > 1 under binding memory caps");
}

#[test]
fn fleet_ab_test_matches_fig19_ordering() {
    use antdt::core::fleet::{run_arm, FleetConfig, FleetMethod};
    let cfg = FleetConfig { n_jobs: 4, samples: 800_000 };
    let bsp = run_arm(&cfg, FleetMethod::Bsp).mean_jct_secs;
    let nd = run_arm(&cfg, FleetMethod::AntDtNd).mean_jct_secs;
    let asp = run_arm(&cfg, FleetMethod::Asp).mean_jct_secs;
    let asp_dds = run_arm(&cfg, FleetMethod::AspDds).mean_jct_secs;
    assert!(nd < bsp, "nd {nd} vs bsp {bsp}");
    assert!(asp_dds < asp, "asp-dds {asp_dds} vs asp {asp}");
}
