//! Blame report: explain a slow job. Runs an unmitigated BSP job with one
//! persistent straggler and the attribution engine armed, then prints the
//! three artifacts the engine produces:
//!
//!   1. the per-cause time decomposition of every node (where each node's
//!      wall time went — compute, data wait, sync wait, comm, control bus,
//!      checkpoint stalls, fault recovery);
//!   2. the blame ranking (who made the job slow, scored by barrier
//!      critical-path margins);
//!   3. the counterfactual validation — the three stock perturbations
//!      (heal the top-blamed node, zero control latency, no checkpoint
//!      stalls) answered in one what-if batch, each measured JCT recovery
//!      next to the analysis' prediction.
//!
//! The example is self-checking: it asserts the top-blamed node is the
//! injected straggler and that healing it recovers the predicted JCT within
//! 15%.
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

    // ---- 3. Counterfactual validation: the three stock perturbations in one
    // batch, measured JCT recovery next to the blame analysis' prediction.
    // The service replays off the base run's divergence marks — a straggler
    // contended from t = 0 has nothing to fork, so healing it is an (equally
    // byte-exact) full rerun.
    println!("\nreplaying the three stock perturbations in one batch ...");
    let perturbations = [
        Perturbation::HealthyNode(top),
        Perturbation::ZeroControlLatency,
        Perturbation::NoCkptStalls,
    ];
    let queries: Vec<WhatIfQuery> = perturbations
        .iter()
        .map(|&perturbation| WhatIfQuery { cfg: cfg.clone(), perturbation })
        .collect();
    let answers = service.answer_batch(&queries);
    let rows = antdt::core::counterfactual_rows(
        &report,
        &perturbations,
        answers.iter().map(|a| &a.report),
    );
    println!(
        "  {:<20} {:>10} {:>10} {:>10}  replay",
        "perturbation", "predicted", "measured", "agreement"
    );
    for (row, answer) in rows.iter().zip(&answers) {
        let predicted = row.predicted_delta_us as f64 / 1e6;
        let measured = row.measured_delta_us as f64 / 1e6;
        // 100% when measured == predicted; "-" when both are ~0 (nothing to
        // recover, nothing recovered).
        let agreement = if row.predicted_delta_us == 0 && row.measured_delta_us.abs() < 1_000 {
            "-".to_string()
        } else {
            let denom = measured.abs().max(predicted.abs()).max(1e-9);
            format!("{:.1}%", 100.0 * (1.0 - (measured - predicted).abs() / denom))
        };
        println!(
            "  {:<20} {predicted:>9.1}s {measured:>9.1}s {agreement:>10}  {:?}",
            row.label, answer.source,
        );
    }
    let row = &rows[0];
    let (predicted, measured) =
        (row.predicted_delta_us as f64 / 1e6, row.measured_delta_us as f64 / 1e6);
    let rel = (measured - predicted).abs() / predicted.max(1e-9);
    assert!(rel <= 0.15, "blame score off by {:.1}% from the measured recovery", rel * 100.0);
    println!(
        "  blame score validated: healing {} recovers {measured:.1}s of JCT, within {:.1}% of \
         the predicted {predicted:.1}s",
        node_name(top),
        rel * 100.0
    );
}
