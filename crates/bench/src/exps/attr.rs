//! The attribution benchmark: what arming the straggler-attribution engine
//! costs, and whether its blame scores survive counterfactual replay.
//!
//! Three sections:
//!
//! 1. **Overhead** — the same seeded straggler job with attribution off vs
//!    on. The engine adds zero events and zero RNG draws, so the simulated
//!    schedule is identical; the wall-time delta is the ledger bookkeeping.
//! 2. **Blame** — the per-node ranking of the attribution-on run.
//! 3. **Counterfactuals** — the three stock perturbations answered by the
//!    what-if service ([`WhatIfService::answer_batch`]); measured JCT deltas
//!    sit next to the analytical predictions, and the `healthy_node`
//!    agreement percentage is the headline number (the job-level test
//!    ratchets it at 15%).

use super::kernel::timed;
use crate::util::{header, secs, table};
use antdt_core::{JobConfig, MitigationChoice, Perturbation};
use antdt_sim::SimDuration;
use antdt_whatif::{AnswerSource, ServiceConfig, WhatIfAnswer, WhatIfQuery, WhatIfService};
use antdt_workloads::cluster::cluster_a_scaled;
use antdt_workloads::{ModelProfile, Scenario};
use std::fmt::Write;

/// How much simulation the forked answers of one what-if batch shared.
pub(crate) struct ForkShare {
    /// Answers replayed from a fork at their divergence instant.
    pub forked: usize,
    /// Answers that needed a full rerun.
    pub full_reruns: usize,
    /// Events the forked answers inherited from a shared prefix.
    pub prefix_events: u64,
    /// Events the forked answers report (prefix + suffix).
    pub total_events: u64,
}

impl ForkShare {
    pub fn of(answers: &[WhatIfAnswer]) -> Self {
        let mut s = ForkShare { forked: 0, full_reruns: 0, prefix_events: 0, total_events: 0 };
        for a in answers {
            match a.source {
                AnswerSource::Forked { .. } => {
                    s.forked += 1;
                    s.prefix_events += a.prefix_events;
                    s.total_events += a.report.events_processed;
                }
                AnswerSource::FullRerun => s.full_reruns += 1,
                AnswerSource::Memo => {}
            }
        }
        s
    }

    /// Fraction of forked events that were inherited, not simulated.
    pub fn prefix_share(&self) -> f64 {
        if self.total_events == 0 {
            0.0
        } else {
            self.prefix_events as f64 / self.total_events as f64
        }
    }
}

/// An unmitigated BSP job with one persistent straggler (the scenario pins
/// the contention phases on the last worker), mid-size so the wall-time
/// overhead measurement has something to chew on.
fn base() -> JobConfig {
    JobConfig::ps_bsp(cluster_a_scaled(8, 3), Scenario::WorkerPersistent { intensity: 1.0 })
        .with_model(ModelProfile::xdeepfm())
        .with_global_batch(8_192)
        .with_samples(1_000_000)
        .with_batches_per_shard(10)
        .with_fast_cadence(SimDuration::from_secs(60))
        .with_seed(31)
        .with_mitigation(MitigationChoice::None)
}

pub fn attr() -> String {
    let mut out = header(
        "attr",
        "Attribution engine: overhead off vs on, blame ranking, counterfactual validation",
    );
    const REPS: usize = 3;

    // ---- 1. Overhead: identical schedule, ledger bookkeeping on top.
    let (wall_off, off) = timed(REPS, base);
    let (wall_on, on) = timed(REPS, || base().with_attribution());
    assert_eq!(off.jct, on.jct, "attribution must not perturb the schedule");
    let overhead_frac = if wall_off > 0.0 { (wall_on - wall_off) / wall_off } else { 0.0 };
    let _ = writeln!(
        out,
        "  overhead: off {:.4}s, on {:.4}s ({:+.1}% wall; simulated JCT identical at {})",
        wall_off,
        wall_on,
        overhead_frac * 100.0,
        secs(on.jct.as_secs_f64()),
    );

    // ---- 2. Blame ranking.
    let attr = on.attr.as_ref().expect("attribution armed");
    let mut rows = vec![vec![
        "node".into(),
        "crit".into(),
        "excess".into(),
        "score".into(),
        "share of JCT".into(),
    ]];
    for b in attr.blame.iter().take(5) {
        rows.push(vec![
            format!("n{}", b.node),
            secs(b.crit_us as f64 / 1e6),
            secs(b.excess_us as f64 / 1e6),
            secs(b.score_us as f64 / 1e6),
            format!("{:.1}%", 100.0 * b.score_us as f64 / attr.end_us.max(1) as f64),
        ]);
    }
    out.push_str(&table(&rows));

    // ---- 3. Counterfactual replay: the three stock perturbations.
    let top = attr.blame[0].node;
    let perturbations = [
        Perturbation::HealthyNode(top),
        Perturbation::ZeroControlLatency,
        Perturbation::NoCkptStalls,
    ];
    let queries: Vec<WhatIfQuery> = perturbations
        .iter()
        .map(|&perturbation| WhatIfQuery { cfg: base().with_attribution(), perturbation })
        .collect();
    let answers = WhatIfService::new(ServiceConfig::default()).answer_batch(&queries);
    let cf =
        antdt_core::counterfactual_rows(&on, &perturbations, answers.iter().map(|a| &a.report));
    let fork_stats = ForkShare::of(&answers);
    let mut rows = vec![vec![
        "perturbation".into(),
        "predicted".into(),
        "measured".into(),
        "agreement".into(),
    ]];
    let mut json_rows = String::new();
    let mut healthy_agreement = 0.0;
    for row in &cf {
        let predicted = row.predicted_delta_us as f64 / 1e6;
        let measured = row.measured_delta_us as f64 / 1e6;
        // Agreement: 100% when measured == predicted; undefined (rendered
        // "-") when both are ~0 (nothing to recover, nothing recovered).
        let agreement = if row.predicted_delta_us == 0 && row.measured_delta_us.abs() < 1_000 {
            None
        } else {
            let denom = measured.abs().max(predicted.abs()).max(1e-9);
            Some(100.0 * (1.0 - (measured - predicted).abs() / denom))
        };
        if row.label.starts_with("healthy_node") {
            healthy_agreement = agreement.unwrap_or(0.0);
        }
        rows.push(vec![
            row.label.clone(),
            secs(predicted),
            secs(measured),
            agreement.map_or_else(|| "-".into(), |a| format!("{a:.1}%")),
        ]);
        let _ = write!(
            json_rows,
            concat!(
                "{{\"label\":\"{}\",\"predicted_delta_us\":{},\"measured_delta_us\":{},",
                "\"base_jct_us\":{},\"what_if_jct_us\":{}}},"
            ),
            row.label,
            row.predicted_delta_us,
            row.measured_delta_us,
            row.base_jct_us,
            row.what_if_jct_us,
        );
    }
    out.push_str(&table(&rows));
    let _ = writeln!(
        out,
        "  replay: {} forked / {} full reruns ({:.0}% of forked events inherited from \
         the shared prefix)",
        fork_stats.forked,
        fork_stats.full_reruns,
        fork_stats.prefix_share() * 100.0,
    );
    let _ = writeln!(
        out,
        "  top-blamed n{top}: blame predicts the JCT recovered by healing it \
         ({healthy_agreement:.1}% agreement; the job-level test ratchets this at 85%+)"
    );

    // Machine-readable artifact (hand-rendered: the workspace has no serde).
    let json = format!(
        concat!(
            "{{\"experiment\":\"attr\",\"reps\":{},\"wall_off_secs\":{:.6},",
            "\"wall_on_secs\":{:.6},\"overhead_frac\":{:.6},\"jct_micros\":{},",
            "\"top_blamed\":{},\"healthy_agreement_pct\":{:.2},\"counterfactuals\":[{}]}}\n"
        ),
        REPS,
        wall_off,
        wall_on,
        overhead_frac,
        on.jct.as_micros(),
        top,
        healthy_agreement,
        json_rows.trim_end_matches(','),
    );
    crate::util::write_artifact(&mut out, "BENCH_attr.json", &json);
    out
}
