//! The paper's evaluation claims (Figs. 7/8 cost curves, Figs. 10/11/15/19
//! orderings, Figs. 17/18 framework properties): each test requires its
//! claim in the `antdt-bench` shape registry, built on the paper-scale
//! experiment configs, to hold on the first seeds `experiments shapes`
//! sweeps.

use antdt_bench::exps::shapes::{assert_holds, SHAPES};

/// One `#[test]` per `test => shape` pair, calling [`assert_holds`].
macro_rules! floor_tests {
    ($($test:ident => $shape:literal,)*) => {$(
        #[test]
        fn $test() {
            assert_holds($shape);
        }
    )*};
}

floor_tests! {
    fig7_cpu_bpt_linear => "fig7_cpu_bpt_linear",
    fig8_gpu_bpt_saturates => "fig8_gpu_bpt_saturates",
    fig10_worker_side_ordering => "fig10_worker_ordering",
    fig10_server_side_only_kill_restart_helps => "fig10_server_ordering",
    fig11_asp_family_ordering => "fig11_worker_ordering",
    fig15_gpu_ordering_with_accumulation => "fig15_gpu_ordering",
    fig17_requeue_beats_rewind => "fig17_requeue_beats_rewind",
    fig18_overhead_under_half_percent => "fig18_overhead_under_half_percent",
    fleet_ab_test_matches_fig19_ordering => "fig19_fleet_orderings",
}

/// EXPERIMENTS.md's verdicts cite every registered claim by name, so the
/// verdict column cannot drift from the table.
#[test]
fn every_shape_is_cited_in_experiments_md() {
    let doc = include_str!("../EXPERIMENTS.md");
    for s in SHAPES {
        assert!(doc.contains(&format!("`{}`", s.name)), "EXPERIMENTS.md does not cite {}", s.name);
    }
}
