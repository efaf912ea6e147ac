//! The elastic-membership benchmark: JCT of a statically-sized job under a
//! persistent straggler versus the same job that `SCALE_OUT`s two extra pods
//! mid-run, versus the oracle that started with the larger fleet from t = 0.
//! Also audits the consistent-hash ring: shards whose owner moved per resize
//! must stay near 1/n of the queued backlog (minimal movement), not the ~all
//! a naive modulo re-shard would pay.

use crate::util::{header, secs, table, timed};
use antdt_core::{ChaosInjection, InjectedFault, JobConfig, MitigationChoice};
use antdt_sim::SimDuration;
use antdt_workloads::cluster::cluster_a_scaled;
use antdt_workloads::{ModelProfile, Scenario};
use std::fmt::Write;

const BASE_WORKERS: u32 = 4;
const ADDED: u32 = 2;
/// Elasticity here is weak scaling: a joiner brings its own local batch
/// (`global_batch / n` at join time) on top of the incumbents' quotas, so the
/// oracle arm gets the same per-worker local batch, not the same global one.
const LOCAL_BATCH: u64 = 1_024;

/// A PS-BSP job with one persistent straggler and no mitigation policy, so
/// the only lever across arms is fleet size: any JCT delta is pure capacity.
fn job(workers: u32) -> JobConfig {
    JobConfig::ps_bsp(
        cluster_a_scaled(workers as usize, 2),
        Scenario::WorkerPersistent { intensity: 0.6 },
    )
    .with_model(ModelProfile::xdeepfm())
    .with_global_batch(LOCAL_BATCH * workers as u64)
    .with_samples(1_200_000)
    .with_batches_per_shard(10)
    .with_fast_cadence(SimDuration::from_secs(60))
    .with_seed(31)
    .with_mitigation(MitigationChoice::None)
}

pub fn elastic() -> String {
    let mut out = header(
        "elastic",
        "Elastic membership: static-N vs SCALE_OUT mid-run vs oracle-sized, + ring movement",
    );
    const REPS: usize = 2;

    // Anchor the resize instant on the static arm's JCT so the join lands
    // early enough to matter at any absolute scale.
    let (_, static_probe) = timed(1, || job(BASE_WORKERS));
    let static_jct = static_probe.jct.as_secs_f64();
    let scale_at = static_jct * 0.15;
    let _ = writeln!(
        out,
        "  static-{BASE_WORKERS} JCT {} — SCALE_OUT {{ add: {ADDED} }} fires at 15% of it",
        secs(static_jct)
    );

    // The three arms, fanned out on the experiment pool.
    let arms: Vec<&'static str> = vec!["static-N", "scale-out", "oracle-sized"];
    let runs = antdt_par::par_map(arms, |arm| {
        let mk = move || match arm {
            "static-N" => job(BASE_WORKERS),
            "scale-out" => job(BASE_WORKERS).with_injections(vec![ChaosInjection {
                at_secs: scale_at,
                fault: InjectedFault::ScaleOut { add: ADDED },
            }]),
            _ => job(BASE_WORKERS + ADDED),
        };
        let (wall, r) = timed(REPS, mk);
        (arm, wall, r)
    });

    let mut rows = vec![vec![
        "arm".into(),
        "workers".into(),
        "JCT (sim)".into(),
        "vs static".into(),
        "joins".into(),
        "moved/queued".into(),
        "wall".into(),
    ]];
    let mut json_points = String::new();
    for (arm, wall, r) in &runs {
        let jct = r.jct.as_secs_f64();
        let m = r.membership.as_ref();
        let (moved, queued): (u64, u64) = m
            .map(|m| {
                m.resizes
                    .iter()
                    .fold((0, 0), |(a, b), rr| (a + rr.moved_slots, b + rr.queued_slots))
            })
            .unwrap_or((0, 0));
        let workers = m.map_or_else(
            || r.worker_bpt.len().to_string(),
            |m| format!("{}→{}", m.initial_workers, m.final_workers),
        );
        rows.push(vec![
            (*arm).into(),
            workers,
            secs(jct),
            format!("{:+.1}%", (jct / static_jct.max(1e-9) - 1.0) * 100.0),
            m.map_or(0, |m| m.joins).to_string(),
            if queued == 0 { "-".into() } else { format!("{moved}/{queued}") },
            format!("{:.4}s", wall),
        ]);
        let _ = write!(
            json_points,
            concat!(
                "{{\"arm\":\"{}\",\"jct_micros\":{},\"joins\":{},",
                "\"moved_slots\":{},\"queued_slots\":{}}},"
            ),
            arm,
            r.jct.as_micros(),
            m.map_or(0, |m| m.joins),
            moved,
            queued,
        );
    }
    out.push_str(&table(&rows));

    // The headline claims, asserted so CI fails if elasticity regresses:
    // scaling out mid-run must beat staying at N, the oracle bounds it from
    // below, and the ring must not reshuffle the whole backlog per join.
    let jct_of = |arm: &str| {
        runs.iter().find(|(a, _, _)| *a == arm).map(|(_, _, r)| r.jct.as_secs_f64()).unwrap()
    };
    let (st, sc, or) = (jct_of("static-N"), jct_of("scale-out"), jct_of("oracle-sized"));
    assert!(sc < st, "SCALE_OUT must improve JCT over static-N ({sc:.0} vs {st:.0})");
    assert!(or <= sc, "the oracle fleet is a lower bound ({or:.0} vs {sc:.0})");
    let elastic_run = &runs.iter().find(|(a, _, _)| *a == "scale-out").unwrap().2;
    let memb = elastic_run.membership.as_ref().expect("elastic arm records membership");
    assert_eq!(memb.joins, ADDED, "both pods must join");
    for rr in &memb.resizes {
        // Consistent hashing: a join moves ≈1/n of the queue. 2.5/n leaves
        // vnode-variance headroom while still catching a modulo re-shard
        // (which would move ~(n-1)/n of it).
        let n = memb.final_workers.max(1) as f64;
        assert!(
            rr.queued_slots == 0 || (rr.moved_slots as f64) <= 2.5 / n * rr.queued_slots as f64,
            "resize moved too much: {rr:?}"
        );
    }
    let _ = writeln!(
        out,
        "  scale-out recovers {:.0}% of the oracle's advantage over static-{BASE_WORKERS}; \
         each join moved ≤2.5/n of the queued backlog (consistent-hash minimal movement)",
        (st - sc) / (st - or).max(1e-9) * 100.0
    );

    // Machine-readable artifact (hand-rendered: the workspace has no serde).
    let json = format!(
        concat!(
            "{{\"experiment\":\"elastic\",\"reps\":{},\"base_workers\":{},\"added\":{},",
            "\"scale_at_secs\":{:.3},\"static_jct_micros\":{},\"points\":[{}]}}\n"
        ),
        REPS,
        BASE_WORKERS,
        ADDED,
        scale_at,
        static_probe.jct.as_micros(),
        json_points.trim_end_matches(','),
    );
    crate::util::write_artifact(&mut out, "BENCH_elastic.json", &json);
    out
}
