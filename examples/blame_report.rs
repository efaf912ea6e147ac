//! Blame report: explain a slow job. Runs an unmitigated BSP job with one
//! persistent straggler and the attribution engine armed, then prints the
//! three artifacts the engine produces:
//!
//!   1. the per-cause time decomposition of every node (where each node's
//!      wall time went — compute, data wait, sync wait, comm, control bus,
//!      checkpoint stalls, fault recovery);
//!   2. the blame ranking (who made the job slow, scored by barrier
//!      critical-path margins);
//!   3. the counterfactual validation — replaying the job with the top-blamed
//!      node healed and checking the measured JCT recovery against the blame
//!      score's prediction.
//!
//! The example is self-checking: it asserts the top-blamed node is the
//! injected straggler and that the counterfactual agrees within 15%.
//!
//! ```sh
//! cargo run --release --example blame_report
//! ```

use antdt::attr::WaitCause;
use antdt::core::{JobConfig, MitigationChoice, Perturbation};
use antdt::whatif::{ServiceConfig, WhatIfQuery, WhatIfService};
use antdt::workloads::{cluster, ModelProfile, Scenario};

/// Workers occupy node lanes `0..W`; parameter servers sit at `1000 + s`.
fn node_name(n: u32) -> String {
    if n >= 1000 {
        format!("s{}", n - 1000)
    } else {
        format!("w{n}")
    }
}

fn main() {
    // One persistent straggler (the scenario pins the contention phases on
    // the last worker, w7), no mitigation — so the slowness has one culprit.
    let cfg = JobConfig::ps_bsp(
        cluster::cluster_a_scaled(8, 3),
        Scenario::WorkerPersistent { intensity: 1.0 },
    )
    .with_model(ModelProfile::xdeepfm())
    .with_global_batch(8_192)
    .with_samples(1_000_000)
    .with_batches_per_shard(10)
    .with_mitigation(MitigationChoice::None)
    .with_attribution();

    // The what-if service runs the base job itself (it needs the base run's
    // divergence marks to plan replays), so take the report from it.
    println!("running the straggler job with attribution armed ...");
    let mut service = WhatIfService::new(ServiceConfig::default());
    let report = service.base_report(&cfg).clone();
    let attr = report.attr.as_ref().expect("attribution armed");
    println!("JCT {:.1}s over {} iterations\n", report.jct.as_secs_f64(), report.iterations);

    // ---- 1. Per-cause decomposition.
    print!("{:<6} {:>9}", "node", "wall");
    for c in WaitCause::ALL {
        print!(" {:>9}", c.as_str());
    }
    println!();
    for n in &attr.nodes {
        print!("{:<6} {:>8.1}s", node_name(n.node), n.wall_us as f64 / 1e6);
        for t in n.totals_us {
            print!(" {:>8.1}s", t as f64 / 1e6);
        }
        println!("{}", if n.dead { "  (died)" } else { "" });
        // Conservation is exact: the cause totals partition the wall time.
        assert_eq!(n.totals_us.iter().sum::<u64>(), n.wall_us);
    }

    // ---- 2. Blame ranking.
    println!("\nblame ranking (critical-path barrier margins):");
    for b in attr.blame.iter().take(5) {
        println!(
            "  {:<6} score {:>8.1}s  (crit {:.1}s, excess-over-median {:.1}s)",
            node_name(b.node),
            b.score_us as f64 / 1e6,
            b.crit_us as f64 / 1e6,
            b.excess_us as f64 / 1e6,
        );
    }
    let top = attr.blame[0].node;
    assert_eq!(top, 7, "the persistent straggler (last worker) must rank first");

    // ---- 3. Counterfactual validation: heal the culprit, replay, compare.
    // The service replays off the base run's divergence marks — a straggler
    // contended from t = 0 has nothing to fork, so the answer is an (equally
    // byte-exact) full rerun.
    println!("\nreplaying with {} healed ...", node_name(top));
    let p = Perturbation::HealthyNode(top);
    let answer = service.answer(&WhatIfQuery { cfg, perturbation: p });
    println!(
        "  replay: {:?}, {} of {} events inherited from a shared prefix",
        answer.source, answer.prefix_events, answer.report.events_processed,
    );
    let rows = antdt::core::counterfactual_rows(&report, &[p], [&answer.report]);
    let row = &rows[0];
    let predicted = row.predicted_delta_us as f64 / 1e6;
    let measured = row.measured_delta_us as f64 / 1e6;
    println!(
        "  predicted JCT recovery {predicted:.1}s, measured {measured:.1}s \
         (what-if JCT {:.1}s vs base {:.1}s)",
        row.what_if_jct_us as f64 / 1e6,
        row.base_jct_us as f64 / 1e6,
    );
    let rel = (measured - predicted).abs() / predicted.max(1e-9);
    assert!(rel <= 0.15, "blame score off by {:.1}% from the measured recovery", rel * 100.0);
    println!("  blame score validated: within {:.1}% of the measured recovery", rel * 100.0);
}
