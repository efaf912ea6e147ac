//! Byte-parity of the parallel experiment fabric: the pooled fan-outs must
//! produce exactly the strings and reports the serial paths produce.

use antdt_bench::util::freeze_wall;

/// Print a readable first-divergence context before failing.
fn assert_same(serial: &str, parallel: &str) {
    if serial == parallel {
        return;
    }
    let (mut line, mut s_ctx, mut p_ctx) = (0usize, String::new(), String::new());
    for (i, (s, p)) in serial.lines().zip(parallel.lines()).enumerate() {
        if s != p {
            line = i + 1;
            s_ctx = s.to_string();
            p_ctx = p.to_string();
            break;
        }
    }
    panic!(
        "serial and parallel outputs diverged at line {line}:\n  serial:   {s_ctx}\n  parallel: {p_ctx}\n\
         (serial {} lines, parallel {} lines)",
        serial.lines().count(),
        parallel.lines().count(),
    );
}

/// A cheap subset of `all`: every fan-out site that finishes in seconds.
/// Always runs, so CI catches fabric regressions without the full suite.
#[test]
fn cheap_subset_is_byte_identical() {
    let ids: Vec<String> =
        ["solver", "controlbus", "ckpt", "ablate"].iter().map(|s| s.to_string()).collect();
    let parallel = freeze_wall(|| antdt_bench::run_all(Some(&ids)));
    let serial = antdt_par::with_serial(|| freeze_wall(|| antdt_bench::run_all(Some(&ids))));
    assert_same(&serial, &parallel);
}

/// The pooled chaos plan x policy matrix must equal the nested serial loops,
/// report for report ([`antdt_chaos::DrillReport`] is `PartialEq` for exactly
/// this): the 2 x 2 matrix `experiments perf` reports on.
#[test]
fn chaos_matrix_pooled_equals_serial() {
    assert!(
        antdt_bench::exps::chaos_matrix_parity(),
        "pooled chaos matrix diverged from the serial loops"
    );
}

/// The what-if service's forked answers to the three stock perturbations
/// must reproduce the full-rerun table row for row, every one of them
/// forked: the fork-replay check `experiments perf` reports on.
#[test]
fn forked_what_if_table_equals_full_reruns() {
    assert!(
        antdt_bench::exps::fork_parity(),
        "what-if service table diverged from the full-rerun table"
    );
}

/// The full `experiments all` suite, serial vs pooled: seconds in a release
/// build, far longer in a debug one. Release CI runs it with
/// `cargo test --release -p antdt-bench --test parallel_parity -- --ignored`.
#[test]
#[ignore = "runs the full experiment suite twice; run in a release build with --ignored"]
fn full_all_is_byte_identical() {
    let parallel = freeze_wall(|| antdt_bench::run_all(None));
    let serial = antdt_par::with_serial(|| freeze_wall(|| antdt_bench::run_all(None)));
    assert_same(&serial, &parallel);
}
