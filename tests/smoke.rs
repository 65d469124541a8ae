//! Smoke test for the figure harness: drives `stretch_bench`'s engine — the
//! code path behind every figure of the `figures` driver — on a `SimLength::quick()`
//! 2 × 2 sub-matrix, so `cargo test` exercises the harness without paying
//! for the full 4 × 29 study.

use stretch_bench::{Engine, ExperimentConfig};
use stretch_repro::prelude::*;

#[test]
fn quick_2x2_sub_matrix_exercises_the_figure_harness() {
    let engine = Engine::new(ExperimentConfig::quick()).with_sub_matrix(2, 2);
    let outcomes = engine.matrix(&EqualPartition);

    assert_eq!(outcomes.len(), 4, "2x2 matrix yields one outcome per pairing");
    let commit_width = engine.cfg().core.commit_width as f64;
    for outcome in &outcomes {
        let (ls, batch) = (&outcome.names[0], &outcome.names[1]);
        let (ls_uipc, batch_uipc) = (outcome.uipcs[0], outcome.uipcs[1]);
        assert!(
            ls_uipc > 0.0 && batch_uipc > 0.0,
            "both threads must retire uops for {ls} x {batch}"
        );
        assert!(
            ls_uipc < commit_width && batch_uipc < commit_width,
            "UIPC cannot exceed the {commit_width}-wide commit stage for {ls} x {batch}"
        );
    }
    // Row-major ordering contract: first LS name first, batch order preserved.
    let order: Vec<(&str, &str)> =
        outcomes.iter().map(|o| (o.names[0].as_str(), o.names[1].as_str())).collect();
    let expected: Vec<(&str, &str)> = engine
        .ls_names()
        .iter()
        .flat_map(|ls| engine.batch_names().iter().map(move |b| (ls.as_str(), b.as_str())))
        .collect();
    assert_eq!(order, expected);
}

#[test]
fn harness_matrix_runs_are_deterministic() {
    // Paired comparisons across figures rely on the harness producing the
    // exact same numbers for the same (seed, pairing, policy); worker-thread
    // scheduling must not leak into results. Two *fresh* engines guarantee
    // the second run is a genuine recomputation, not a memo hit.
    let run =
        || Engine::new(ExperimentConfig::quick()).with_sub_matrix(1, 1).matrix(&EqualPartition);
    let first = run();
    let second = run();
    assert_eq!(first.len(), 1);
    assert_eq!(first[0].uipcs[0].to_bits(), second[0].uipcs[0].to_bits());
    assert_eq!(first[0].uipcs[1].to_bits(), second[0].uipcs[1].to_bits());

    // The paper's premise (Figure 3) is that colocation costs the
    // latency-sensitive thread throughput; at quick() length the effect can
    // drown in warm-up noise, so only bound it loosely here (the full-length
    // `figures` driver makes the real comparison).
    let ls = first[0].names[0].clone();
    let standalone = Scenario::standalone(
        stretch_repro::workloads::profile_by_name(&ls).expect("known workload"),
    )
    .length(SimLength::quick())
    .seed(42)
    .run_thread0();
    assert!(
        first[0].ls_uipc() < standalone.uipc * 1.25,
        "colocated UIPC {} should not exceed standalone {} by more than noise",
        first[0].ls_uipc(),
        standalone.uipc
    );
}
