//! Perf-layer integration tests: the benchmark registry must *observe* the
//! simulator, never perturb it. A perf-instrumented run has to produce
//! bit-identical simulation results to the same experiment driven through
//! the plain `Scenario` / `sim_qos` / fleet APIs, and repeated measurement
//! must be idempotent.

use stretch_bench::perf::{self, fingerprint, MeasureOptions};
use stretch_repro::prelude::*;
use stretch_repro::workloads::profile_by_name;

/// The registry's `cpu/colocate-baseline` benchmark, replayed through the
/// plain public API: identical policy, pairing, length and seed.
fn direct_cpu_baseline_fingerprint() -> u64 {
    let r = Scenario::colocate(
        profile_by_name("web-search").expect("known ls"),
        profile_by_name("zeusmp").expect("known batch"),
    )
    .policy(EqualPartition)
    .length(SimLength::quick())
    .seed(42)
    .run();
    fingerprint([r.expect_thread(ThreadId::T0).uipc, r.expect_thread(ThreadId::T1).uipc])
}

#[test]
fn instrumented_run_is_bit_identical_to_the_plain_api() {
    let spec = perf::by_name("cpu/colocate-baseline").expect("registered benchmark");
    // The registry run is exactly what `measure` wraps in wall-clock timing;
    // its result fingerprint must match the un-instrumented API bit for bit.
    let instrumented = (spec.run)();
    assert_eq!(
        instrumented.fingerprint,
        direct_cpu_baseline_fingerprint(),
        "measuring a run must not change its simulation results"
    );
    assert!(instrumented.sim_cycles > 0, "a cycle-level benchmark reports cycle work");
}

#[test]
fn dispatch_overhead_entries_agree_bit_for_bit() {
    // The two dispatch entries time the same pair with and without the
    // Scenario layer; the abstraction must cost wall clock only, never bits.
    let via_scenario = (perf::by_name("cpu/dispatch-scenario").expect("registered").run)();
    let via_run_core = (perf::by_name("cpu/dispatch-run-core").expect("registered").run)();
    assert_eq!(via_scenario.fingerprint, via_run_core.fingerprint);
    assert_eq!(via_scenario.sim_cycles, via_run_core.sim_cycles);
    assert_eq!(via_scenario.fingerprint, direct_cpu_baseline_fingerprint());
}

#[test]
fn run_core_entry_pins_its_stepped_cycles() {
    // The entry that owns its core reports how many cycles `step` simulated;
    // the rest were jumped over by the idle skip. The count is exact on any
    // machine, so a predicate that skips more, or stops skipping, moves it.
    let work = (perf::by_name("cpu/dispatch-run-core").expect("registered").run)();
    assert_eq!(work.stepped_cycles, 174_996);
    assert!(work.stepped_cycles < work.sim_cycles, "the skip engages on this pair: {work:?}");
}

#[test]
fn measurement_is_idempotent_across_repeats() {
    // Warm-up + repeated measured runs must leave no state behind that
    // changes a later run: fingerprints are identical on every invocation.
    let spec = perf::by_name("cpu/standalone-websearch").expect("registered benchmark");
    let first = (spec.run)();
    let measured = perf::measure(spec, MeasureOptions { runs: 2, warmup_runs: 1 });
    let after = (spec.run)();
    assert_eq!(first.fingerprint, after.fingerprint, "measurement must not perturb the simulator");
    assert_eq!(measured.sim_cycles, first.sim_cycles);
    assert!(measured.median_wall_ms >= measured.min_wall_ms);
    assert!(measured.max_wall_ms >= measured.median_wall_ms);
}

#[test]
fn qos_benchmark_matches_the_plain_queueing_api() {
    use stretch_repro::qos::{latency_vs_load, ServiceSpec, SimParams};
    let spec = perf::by_name("qos/latency-curve").expect("registered benchmark");
    let instrumented = (spec.run)();
    let curve = latency_vs_load(&ServiceSpec::web_search(), SimParams::quick(11), 0.2, 6);
    assert_eq!(
        instrumented.fingerprint,
        fingerprint(curve.iter().map(|p| p.latency.p99_ms)),
        "the qos benchmark must replay the exact public-API curve"
    );
    assert_eq!(instrumented.requests, curve.iter().map(|p| p.latency.requests as u64).sum::<u64>());
}

#[test]
fn every_registry_benchmark_is_deterministic() {
    // Two invocations of any benchmark produce the same work and
    // fingerprint. The figures/quick-matrix entry and the two datacenter
    // fleet entries are exercised by CI's perf job instead — rendering every
    // figure twice (or simulating a 10k-server day twice, in debug) would
    // dominate the whole test suite's runtime; the fleet merge's worker
    // independence is pinned at test scale by tests/fleet.rs.
    const HEAVY: [&str; 3] = ["figures/quick-matrix", "cluster/fleet-10k", "cluster/fleet-scaling"];
    for spec in perf::registry() {
        if HEAVY.contains(&spec.name) {
            continue;
        }
        let a = (spec.run)();
        let b = (spec.run)();
        assert_eq!(a, b, "{} must be run-to-run deterministic", spec.name);
    }
}
