//! Thread-count invariance of the experiment sweeps, end to end: the
//! serialized experiment artifacts (CSV and Markdown) must be
//! byte-identical no matter how many workers the [`cpa_pool`] pool uses.
//! The pool returns per-set outcomes in set-index order and the runner
//! folds them sequentially, so even the non-associative `f64`
//! accumulations cannot drift. (Chunk-size invariance is the pool's own
//! proptest.)

use cpa_experiments::{fig2, report, SweepOptions};

fn tiny(threads: usize) -> SweepOptions {
    SweepOptions::quick()
        .with_sets_per_point(6)
        .with_utilization_grid(vec![0.3, 0.6, 0.9])
        .with_seed(0xBEEF)
        .with_threads(threads)
}

fn panel_bytes(threads: usize) -> (String, String) {
    let results = fig2::fig2(&tiny(threads));
    (
        results.iter().map(report::to_csv).collect(),
        results.iter().map(report::to_markdown).collect(),
    )
}

#[test]
fn artifacts_are_byte_identical_across_thread_counts() {
    let (csv_1, md_1) = panel_bytes(1);
    for threads in [2, 4, 8] {
        let (csv_n, md_n) = panel_bytes(threads);
        assert_eq!(csv_1, csv_n, "CSV diverged at {threads} threads");
        assert_eq!(md_1, md_n, "Markdown diverged at {threads} threads");
    }
}
