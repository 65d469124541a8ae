//! Closed-loop orchestration: load trace → QoS measurement → policy
//! decision → mode change → throughput accounting.
//!
//! This is the machinery behind the §VI-D case studies and the
//! `mode_controller` example: a server's diurnal load is replayed interval by
//! interval; at each interval the queueing model produces the tail latency
//! the service would observe given the single-thread performance the current
//! mode leaves it, the [`ClosedLoopStretch`] policy reacts through the
//! shared [`cpu_sim::ColocationPolicy`] interface, and the batch co-runner's
//! throughput is accumulated according to the engaged mode.
//!
//! The per-mode performance numbers (how much single-thread performance the
//! latency-sensitive thread retains, and how much faster the batch thread
//! runs than under the baseline partitioning) come from a
//! [`PerformanceTable`]: either the paper's headline numbers
//! ([`PerformanceTable::paper_defaults`]) or cycle-level measurements taken
//! through the same policy trait ([`PerformanceTable::measured`], which runs
//! [`cpu_sim::Scenario`]s under [`PinnedStretch`] policies).

use crate::config::{StretchConfig, StretchMode};
use crate::monitor::MonitorConfig;
use crate::policy::{ClosedLoopStretch, PinnedStretch};
use cpu_sim::{ColocationPolicy, PolicyAction, QosObservation, Scenario, SimLength};
use sim_model::{CanonicalKey, KeyEncoder, ThreadId};
use sim_qos::{ArrivalProcess, ServerSim, ServiceSpec, SimParams};

/// Performance of one Stretch mode relative to a stand-alone full core (for
/// the latency-sensitive thread) and to the baseline SMT partitioning (for
/// the batch thread).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModePerformance {
    /// Fraction of full-core single-thread performance retained by the
    /// latency-sensitive thread under this mode (colocation included).
    pub ls_performance: f64,
    /// Batch thread speedup over the equal-partition baseline (1.0 = no
    /// change, 1.13 = 13% faster).
    pub batch_speedup: f64,
}

impl ModePerformance {
    /// The paper's headline numbers for the three modes with the recommended
    /// skews (Figure 9 and §VI-A): baseline colocation costs the LS thread
    /// about 14%; B-mode 56-136 costs a further ~7% while buying the batch
    /// thread ~13%; Q-mode 136-56 restores ~7% of LS performance while
    /// costing the batch thread ~21%.
    pub fn paper_defaults(mode: StretchMode) -> ModePerformance {
        match mode {
            StretchMode::Baseline => ModePerformance { ls_performance: 0.86, batch_speedup: 1.0 },
            StretchMode::BatchBoost(_) => {
                ModePerformance { ls_performance: 0.80, batch_speedup: 1.13 }
            }
            StretchMode::QosBoost(_) => {
                ModePerformance { ls_performance: 0.93, batch_speedup: 0.79 }
            }
        }
    }
}

impl CanonicalKey for ModePerformance {
    fn encode_key(&self, enc: &mut KeyEncoder) {
        enc.f64(self.ls_performance).f64(self.batch_speedup);
    }
}

/// Per-mode performance table used by the orchestrator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerformanceTable {
    /// Baseline (equal partitioning) performance.
    pub baseline: ModePerformance,
    /// B-mode performance.
    pub b_mode: ModePerformance,
    /// Q-mode performance.
    pub q_mode: ModePerformance,
}

impl PerformanceTable {
    /// Table populated with the paper's headline numbers.
    pub fn paper_defaults() -> PerformanceTable {
        PerformanceTable {
            baseline: ModePerformance::paper_defaults(StretchMode::Baseline),
            b_mode: ModePerformance::paper_defaults(StretchMode::BatchBoost(
                crate::config::RobSkew::recommended_b_mode(),
            )),
            q_mode: ModePerformance::paper_defaults(StretchMode::QosBoost(
                crate::config::RobSkew::recommended_q_mode(),
            )),
        }
    }

    /// Looks up the performance of a mode.
    pub fn for_mode(&self, mode: StretchMode) -> ModePerformance {
        match mode {
            StretchMode::Baseline => self.baseline,
            StretchMode::BatchBoost(_) => self.b_mode,
            StretchMode::QosBoost(_) => self.q_mode,
        }
    }

    /// Measures the table with the cycle-level core model, through the same
    /// [`cpu_sim::ColocationPolicy`] interface the figures use: one
    /// stand-alone reference run plus one colocation per mode, each a
    /// [`Scenario`] under a [`PinnedStretch`] policy.
    ///
    /// `ls` / `batch` name workloads from the `workloads` registry. The
    /// latency-sensitive thread's retained performance is its colocated UIPC
    /// over its stand-alone full-core UIPC; the batch speedup is relative to
    /// the equal-partition baseline colocation, exactly as the paper defines
    /// the two axes.
    ///
    /// # Panics
    ///
    /// Panics if either workload name is unknown.
    pub fn measured(
        core: &sim_model::CoreConfig,
        ls: &str,
        batch: &str,
        stretch: StretchConfig,
        length: SimLength,
        seed: u64,
    ) -> PerformanceTable {
        let profile = |name: &str| {
            workloads::profile_by_name(name).unwrap_or_else(|| panic!("unknown workload {name}"))
        };
        let pair = |mode: StretchMode| {
            let r = Scenario::colocate(profile(ls), profile(batch))
                .config(*core)
                .policy(PinnedStretch::new(mode))
                .length(length)
                .seed(seed)
                .run();
            (r.expect_thread(ThreadId::T0).uipc, r.expect_thread(ThreadId::T1).uipc)
        };
        let standalone =
            Scenario::standalone(profile(ls)).config(*core).length(length).seed(seed).run_thread0();

        let (base_ls, base_batch) = pair(StretchMode::Baseline);
        let mode_perf = |(ls_uipc, batch_uipc): (f64, f64)| ModePerformance {
            ls_performance: ls_uipc / standalone.uipc,
            batch_speedup: batch_uipc / base_batch,
        };
        PerformanceTable {
            baseline: mode_perf((base_ls, base_batch)),
            b_mode: mode_perf(pair(stretch.low_load_mode())),
            q_mode: mode_perf(pair(stretch.high_load_mode())),
        }
    }
}

impl CanonicalKey for PerformanceTable {
    fn encode_key(&self, enc: &mut KeyEncoder) {
        enc.field(&self.baseline).field(&self.b_mode).field(&self.q_mode);
    }
}

/// Result of one control interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IntervalReport {
    /// Load during the interval (fraction of peak).
    pub load: f64,
    /// Mode engaged for the interval.
    pub mode: StretchMode,
    /// Tail latency observed (milliseconds).
    pub tail_latency_ms: f64,
    /// Whether the QoS target was violated.
    pub qos_violated: bool,
    /// Batch throughput during the interval relative to the baseline
    /// partitioning (1.0 = baseline).
    pub batch_throughput: f64,
}

/// Result of a full load-trace replay.
#[derive(Debug, Clone, PartialEq)]
pub struct DayReport {
    /// Per-interval details.
    pub intervals: Vec<IntervalReport>,
    /// Mean batch throughput relative to the baseline over the whole trace.
    pub average_batch_throughput: f64,
    /// Number of intervals with a QoS violation.
    pub violations: usize,
    /// Number of intervals in which B-mode was engaged.
    pub b_mode_intervals: usize,
}

impl DayReport {
    /// Batch throughput gain over the baseline, e.g. 0.05 for +5%.
    pub fn batch_gain(&self) -> f64 {
        self.average_batch_throughput - 1.0
    }
}

/// The closed-loop orchestrator: a [`ClosedLoopStretch`] policy driven by
/// the request-level queueing model.
#[derive(Debug, Clone)]
pub struct Orchestrator {
    service: ServiceSpec,
    policy: ClosedLoopStretch,
    table: PerformanceTable,
    params: SimParams,
    peak_rps: f64,
}

impl Orchestrator {
    /// Builds an orchestrator for one latency-sensitive service.
    ///
    /// The peak sustainable load is calibrated once, at full single-thread
    /// performance, exactly as in the paper's methodology.
    pub fn new(
        service: ServiceSpec,
        stretch: StretchConfig,
        monitor_cfg: MonitorConfig,
        table: PerformanceTable,
        params: SimParams,
    ) -> Orchestrator {
        let sim = ServerSim::new(service.clone(), ArrivalProcess::bursty(100.0));
        let peak_rps = sim.find_peak_load_rps(params);
        Orchestrator {
            service,
            policy: ClosedLoopStretch::new(stretch, monitor_cfg),
            table,
            params,
            peak_rps,
        }
    }

    /// The policy's currently engaged mode.
    pub fn mode(&self) -> StretchMode {
        self.policy.mode()
    }

    /// The closed-loop policy being orchestrated.
    pub fn policy(&self) -> &ClosedLoopStretch {
        &self.policy
    }

    /// Replays a load trace (one entry per control interval, each a fraction
    /// of peak load) and reports what happened.
    pub fn run_trace(&mut self, loads: &[f64]) -> DayReport {
        let sim = ServerSim::new(self.service.clone(), ArrivalProcess::bursty(100.0));
        let mut intervals = Vec::with_capacity(loads.len());
        let mut throughput_sum = 0.0;
        let mut violations = 0;
        let mut b_intervals = 0;
        for (i, &load) in loads.iter().enumerate() {
            let mode = self.policy.mode();
            let perf = self.table.for_mode(mode);
            let load = load.clamp(0.02, 1.0);
            let params = SimParams { seed: self.params.seed.wrapping_add(i as u64), ..self.params }
                .with_performance(perf.ls_performance.clamp(0.05, 1.0));
            let summary = sim.run_at_load(load, self.peak_rps, params);
            let tail = summary.tail(self.service.tail_metric);
            let violated = tail > self.service.qos_target_ms;
            if violated {
                violations += 1;
            }
            if mode.is_batch_boost() {
                b_intervals += 1;
            }
            throughput_sum += perf.batch_speedup;
            intervals.push(IntervalReport {
                load,
                mode,
                tail_latency_ms: tail,
                qos_violated: violated,
                batch_throughput: perf.batch_speedup,
            });
            // Feed the observation to the policy through the shared trait;
            // the decision applies from the next interval (control acts on
            // measured history).
            let obs = QosObservation::tail_latency(tail, self.service.qos_target_ms, load);
            let _action: PolicyAction = self.policy.on_sample(&obs);
        }
        DayReport {
            average_batch_throughput: if loads.is_empty() {
                1.0
            } else {
                throughput_sum / loads.len() as f64
            },
            violations,
            b_mode_intervals: b_intervals,
            intervals,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn orchestrator() -> Orchestrator {
        Orchestrator::new(
            ServiceSpec::web_search(),
            StretchConfig::recommended(),
            MonitorConfig { engage_after: 2, ..MonitorConfig::default() },
            PerformanceTable::paper_defaults(),
            SimParams::quick(5),
        )
    }

    #[test]
    fn low_load_day_engages_b_mode_and_gains_throughput() {
        let mut orch = orchestrator();
        let loads = vec![0.2; 24];
        let report = orch.run_trace(&loads);
        assert!(report.b_mode_intervals > 12, "B-mode should dominate a low-load day");
        assert!(report.batch_gain() > 0.05, "batch gain {:.3}", report.batch_gain());
        assert_eq!(report.violations, 0, "no QoS violations expected at 20% load");
    }

    #[test]
    fn high_load_day_stays_out_of_b_mode() {
        let mut orch = orchestrator();
        let loads = vec![0.95; 12];
        let report = orch.run_trace(&loads);
        assert!(
            report.b_mode_intervals <= 2,
            "B-mode must not be engaged at sustained high load (got {})",
            report.b_mode_intervals
        );
    }

    #[test]
    fn diurnal_day_mixes_modes_without_violating_qos_at_low_load() {
        let mut orch = orchestrator();
        // Night: low load; day: high load; evening: medium.
        let mut loads = vec![0.15; 8];
        loads.extend(vec![0.9; 8]);
        loads.extend(vec![0.5; 8]);
        let report = orch.run_trace(&loads);
        assert_eq!(report.intervals.len(), 24);
        assert!(report.b_mode_intervals >= 6, "night hours should run B-mode");
        // Violations, if any, should be confined to the high-load block.
        for iv in &report.intervals[..6] {
            assert!(!iv.qos_violated, "low-load interval violated QoS: {iv:?}");
        }
        assert!(report.average_batch_throughput >= 1.0);
    }

    #[test]
    fn performance_table_lookup() {
        let t = PerformanceTable::paper_defaults();
        assert!(t.for_mode(StretchMode::Baseline).batch_speedup == 1.0);
        assert!(
            t.for_mode(StretchMode::BatchBoost(crate::config::RobSkew::recommended_b_mode()))
                .batch_speedup
                > 1.0
        );
        assert!(
            t.for_mode(StretchMode::QosBoost(crate::config::RobSkew::recommended_q_mode()))
                .ls_performance
                > t.baseline.ls_performance
        );
    }

    #[test]
    fn empty_trace_is_neutral() {
        let mut orch = orchestrator();
        let report = orch.run_trace(&[]);
        assert_eq!(report.intervals.len(), 0);
        assert_eq!(report.average_batch_throughput, 1.0);
    }

    #[test]
    fn measured_table_agrees_qualitatively_with_the_paper() {
        // Cycle-level measurement through the policy trait: B-mode must buy
        // batch throughput at some LS cost, Q-mode the reverse, and the
        // baseline batch speedup is 1.0 by construction.
        let table = PerformanceTable::measured(
            &sim_model::CoreConfig::default(),
            "web-search",
            "zeusmp",
            StretchConfig::recommended(),
            SimLength::quick(),
            42,
        );
        assert!((table.baseline.batch_speedup - 1.0).abs() < 1e-12);
        assert!(table.baseline.ls_performance < 1.0, "colocation must cost the LS thread");
        assert!(
            table.b_mode.batch_speedup > table.q_mode.batch_speedup,
            "B-mode must out-throughput Q-mode for the batch thread ({:.3} vs {:.3})",
            table.b_mode.batch_speedup,
            table.q_mode.batch_speedup
        );
        assert!(
            table.q_mode.ls_performance >= table.b_mode.ls_performance,
            "Q-mode must retain at least B-mode's LS performance"
        );

        // A measured table drives the orchestrator exactly like the
        // analytical one.
        let mut orch = Orchestrator::new(
            ServiceSpec::web_search(),
            StretchConfig::recommended(),
            MonitorConfig { engage_after: 2, ..MonitorConfig::default() },
            table,
            SimParams::quick(5),
        );
        let report = orch.run_trace(&[0.2; 6]);
        assert_eq!(report.intervals.len(), 6);
    }
}
