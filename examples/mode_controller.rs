//! Closed-loop mode control: replay a diurnal day against the queueing model
//! and let the Stretch policy decide, interval by interval, whether to
//! engage B-mode, fall back to the baseline, or boost QoS.
//!
//! The orchestrator drives a `ClosedLoopStretch` policy through the same
//! `ColocationPolicy` interface the figures use, and its per-mode
//! performance table can come from the paper's headline numbers *or* from
//! cycle-level `Scenario` measurements — both are shown here.
//!
//! Run with: `cargo run --release --example mode_controller`

use stretch_repro::cluster::DiurnalPattern;
use stretch_repro::cpu::SimLength;
use stretch_repro::model::CoreConfig;
use stretch_repro::qos::{ServiceSpec, SimParams};
use stretch_repro::stretch::orchestrator::PerformanceTable;
use stretch_repro::stretch::{MonitorConfig, Orchestrator, StretchConfig};

fn main() {
    let service = ServiceSpec::web_search();
    let pattern = DiurnalPattern::WebSearch;

    // Hourly control intervals over one day.
    let loads: Vec<f64> = pattern.sample(1.0).into_iter().map(|s| s.load).collect();

    let mut orchestrator = Orchestrator::new(
        service.clone(),
        StretchConfig::recommended(),
        MonitorConfig::default(),
        PerformanceTable::paper_defaults(),
        SimParams::standard(31),
    );
    let report = orchestrator.run_trace(&loads);

    println!("Closed-loop Stretch control over one diurnal day ({})", service.name);
    println!("  hour  load   mode            p99 (ms)  QoS      batch throughput");
    for (hour, interval) in report.intervals.iter().enumerate() {
        println!(
            "  {hour:>4}  {:>4.0}%  {:<14}  {:>7.1}  {:<7}  {:>6.2}x",
            interval.load * 100.0,
            interval.mode.to_string(),
            interval.tail_latency_ms,
            if interval.qos_violated { "VIOLATED" } else { "ok" },
            interval.batch_throughput
        );
    }
    println!();
    println!(
        "  B-mode engaged for {} of {} intervals; average batch throughput {:+.1}% vs baseline; \
         {} QoS violation(s).",
        report.b_mode_intervals,
        report.intervals.len(),
        report.batch_gain() * 100.0,
        report.violations
    );

    // The same loop, but with the per-mode performance MEASURED by the
    // cycle-level core model through the policy trait (quick length keeps
    // the example fast; the `figures` driver uses the standard length).
    let measured = PerformanceTable::measured(
        &CoreConfig::default(),
        "web-search",
        "zeusmp",
        StretchConfig::recommended(),
        SimLength::quick(),
        31,
    );
    let mut measured_orchestrator = Orchestrator::new(
        service,
        StretchConfig::recommended(),
        MonitorConfig::default(),
        measured,
        SimParams::standard(31),
    );
    let measured_report = measured_orchestrator.run_trace(&loads);
    println!();
    println!(
        "With a cycle-measured table (web-search + zeusmp at quick length): LS retains \
         {:.0}% / {:.0}% / {:.0}% of full-core performance in baseline / B-mode / Q-mode;",
        measured.baseline.ls_performance * 100.0,
        measured.b_mode.ls_performance * 100.0,
        measured.q_mode.ls_performance * 100.0,
    );
    println!(
        "the same day yields {:+.1}% batch throughput with {} violation(s).",
        measured_report.batch_gain() * 100.0,
        measured_report.violations
    );
}
