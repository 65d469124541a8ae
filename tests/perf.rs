//! Dispatch-path tests: the quick web-search × zeusmp `EqualPartition` pair
//! built by hand and driven by `run_core` directly, with the `Scenario`
//! layer peeled off. `tests/golden_parity.rs` pins the `Scenario` run of the
//! same pair to the `BASELINE` fixture, so agreement here carries that pin
//! over to the hand-built core.

use stretch_repro::cpu::{pair_seed, run_core, ColocationResult, SmtCore};
use stretch_repro::prelude::*;
use stretch_repro::workloads::profile_by_name;

const LS: &str = "web-search";
const BATCH: &str = "zeusmp";
const SEED: u64 = 42;

/// The pair built from the policy's setup, each thread's seed derived
/// exactly as the scenario derives it, and run to `SimLength::quick()`.
fn hand_built_pair() -> (SmtCore, ColocationResult) {
    let core = CoreConfig::default();
    let seed = pair_seed(SEED, LS, BATCH);
    let mut smt = EqualPartition
        .setup(&core)
        .apply(SmtCoreBuilder::new(core))
        .thread(ThreadId::T0, profile_by_name(LS).expect("known ls").spawn(seed))
        .thread(ThreadId::T1, profile_by_name(BATCH).expect("known batch").spawn(seed ^ 1))
        .build();
    let names = vec![Some(LS.to_string()), Some(BATCH.to_string())];
    let r = run_core(&mut smt, names, SimLength::quick());
    (smt, r)
}

#[test]
fn dispatch_overhead_entries_agree_bit_for_bit() {
    // The builder and boxed policy of the `Scenario` layer must cost wall
    // clock only, never bits.
    let via_scenario = Scenario::colocate(
        profile_by_name(LS).expect("known ls"),
        profile_by_name(BATCH).expect("known batch"),
    )
    .policy(EqualPartition)
    .length(SimLength::quick())
    .seed(SEED)
    .run();
    let (_, via_run_core) = hand_built_pair();
    for t in [ThreadId::T0, ThreadId::T1] {
        let (a, b) = (via_scenario.expect_thread(t), via_run_core.expect_thread(t));
        assert_eq!(a.uipc.to_bits(), b.uipc.to_bits(), "{t:?} uipc: {} vs {}", a.uipc, b.uipc);
        assert_eq!(a.cycles, b.cycles, "{t:?} cycles");
    }
}

#[test]
fn run_core_entry_pins_its_stepped_cycles() {
    // The cycles `step` simulated one at a time, the rest being jumped over
    // by the idle skip. The count is exact on any machine, so a predicate
    // that skips more, or stops skipping, moves it.
    let (smt, r) = hand_built_pair();
    let cycles = r.expect_thread(ThreadId::T0).cycles.max(r.expect_thread(ThreadId::T1).cycles);
    assert_eq!(smt.stepped_cycles(), 174_996);
    assert!(smt.stepped_cycles() < cycles, "the skip engages on this pair ({cycles} cycles)");
}
