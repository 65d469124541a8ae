//! Elfen-style fine-grain time interleaving.
//!
//! Section II of the paper measures QoS slack by modulating the fraction of
//! time the latency-sensitive workload runs on the core: a non-contentious
//! preemptive co-runner is interleaved at sub-millisecond granularity, so the
//! service receives a configurable duty cycle of the core. This module
//! provides that schedule abstraction — a duty cycle, a time quantum, and the
//! mapping from duty cycle to delivered performance fraction (which is what
//! the `qos` crate's slack analysis consumes) — plus the [`Elfen`]
//! [`ColocationPolicy`]: because the borrowed co-runner is non-contentious by
//! construction, the core itself runs contention-free (private structures),
//! and the policy's closed-loop hook adapts the duty cycle to the observed
//! QoS headroom.

use cpu_sim::{
    ColocationPolicy, ColocationTopology, CoreSetup, PolicyAction, PrivateCore, QosObservation,
};
use sim_model::{CanonicalKey, CoreConfig, KeyEncoder};

/// Fraction of time the latency-sensitive thread owns the core.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DutyCycle(f64);

impl DutyCycle {
    /// Creates a duty cycle.
    ///
    /// # Panics
    ///
    /// Panics unless `fraction` is in `(0, 1]`.
    pub fn new(fraction: f64) -> DutyCycle {
        assert!(fraction > 0.0 && fraction <= 1.0, "duty cycle must be in (0, 1], got {fraction}");
        DutyCycle(fraction)
    }

    /// The fraction as a float.
    pub fn fraction(self) -> f64 {
        self.0
    }
}

/// An Elfen-style interleaving schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ElfenSchedule {
    /// Fraction of time given to the latency-sensitive thread.
    pub duty_cycle: DutyCycle,
    /// Scheduling quantum in microseconds (sub-millisecond per the paper).
    pub quantum_us: f64,
}

impl ElfenSchedule {
    /// Creates a schedule with the paper's sub-millisecond granularity
    /// (100 µs quanta).
    pub fn new(duty_cycle: DutyCycle) -> ElfenSchedule {
        ElfenSchedule { duty_cycle, quantum_us: 100.0 }
    }

    /// The single-thread performance fraction delivered to the
    /// latency-sensitive workload. With a non-contentious co-runner and a
    /// quantum far below the latency target, delivered performance equals the
    /// duty cycle.
    pub fn delivered_performance(&self) -> f64 {
        self.duty_cycle.fraction()
    }

    /// Length of one on/off period in microseconds.
    pub fn period_us(&self) -> f64 {
        self.quantum_us / self.duty_cycle.fraction()
    }
}

/// The duty-cycle grid used for the Section II slack measurement: 5% steps.
pub fn duty_cycle_grid() -> Vec<DutyCycle> {
    (1..=20).map(|i| DutyCycle::new(i as f64 * 0.05)).collect()
}

/// The Elfen-style borrowing policy.
///
/// The latency-sensitive thread time-shares the core with a non-contentious
/// lending partner, so the core configuration is contention-free (everything
/// private, full window); what varies is the duty cycle, and with it the
/// delivered single-thread performance fraction the `qos` slack analysis
/// consumes. The closed-loop hook walks the duty cycle along the Section II
/// 5% grid: ample QoS headroom lends more of the core away, pressure claims
/// it back.
///
/// **Scope of the cycle model:** a `Scenario` run under this policy models
/// the instants when a thread *owns* the core (hence the contention-free
/// setup); the time-sharing itself happens at the scheduler level, above the
/// cycle model, and is represented analytically by
/// [`Elfen::delivered_performance`] (delivered performance equals the duty
/// cycle, §II). Use [`cpu_sim::Scenario::standalone`] for the on-core
/// fraction and scale by the duty cycle — a *colocated* scenario under this
/// policy would not model the interleaving and is not meaningful.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Elfen {
    /// The current interleaving schedule.
    pub schedule: ElfenSchedule,
}

impl Elfen {
    /// Creates the policy at a given duty cycle (paper-default 100 µs quanta).
    pub fn new(duty_cycle: DutyCycle) -> Elfen {
        Elfen { schedule: ElfenSchedule::new(duty_cycle) }
    }

    /// The single-thread performance fraction currently delivered to the
    /// latency-sensitive workload.
    pub fn delivered_performance(&self) -> f64 {
        self.schedule.delivered_performance()
    }
}

impl CanonicalKey for Elfen {
    fn encode_key(&self, enc: &mut KeyEncoder) {
        enc.str("policy/elfen")
            .f64(self.schedule.duty_cycle.fraction())
            .f64(self.schedule.quantum_us);
    }
}

impl ColocationPolicy for Elfen {
    fn name(&self) -> String {
        format!("Elfen borrowing at {:.0}% duty cycle", self.delivered_performance() * 100.0)
    }

    fn setup_for(&self, cfg: &CoreConfig, topology: &ColocationTopology) -> CoreSetup {
        // The lending partner is non-contentious by construction, so the
        // core the service sees is a private full core; the duty cycle is
        // applied above the core, at the scheduler level.
        PrivateCore::full().setup_for(cfg, topology)
    }

    fn supports_colocation(&self) -> bool {
        // The borrower is interleaved by the scheduler, not co-resident on
        // the SMT core; a colocated cycle-level run would model nothing.
        false
    }

    fn on_sample(&mut self, obs: &QosObservation) -> PolicyAction {
        const STEP: f64 = 0.05;
        let ratio = if obs.qos_target_ms > 0.0 {
            obs.tail_latency_ms / obs.qos_target_ms
        } else {
            f64::INFINITY
        };
        let current = self.schedule.duty_cycle.fraction();
        if ratio > 0.9 && current < 1.0 {
            // Pressure: claim the core back one grid step at a time.
            self.schedule.duty_cycle = DutyCycle::new((current + STEP).min(1.0));
            PolicyAction::Reconfigure
        } else if ratio < 0.6 && current > STEP * 2.0 {
            // Ample headroom: lend more of the core to the borrower.
            self.schedule.duty_cycle = DutyCycle::new(current - STEP);
            PolicyAction::Reconfigure
        } else {
            PolicyAction::Keep
        }
    }

    fn clone_policy(&self) -> Box<dyn ColocationPolicy> {
        Box::new(*self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duty_cycle_bounds() {
        assert_eq!(DutyCycle::new(0.25).fraction(), 0.25);
        assert_eq!(DutyCycle::new(1.0).fraction(), 1.0);
    }

    #[test]
    #[should_panic(expected = "duty cycle")]
    fn zero_duty_cycle_rejected() {
        let _ = DutyCycle::new(0.0);
    }

    #[test]
    fn delivered_performance_equals_duty_cycle() {
        let s = ElfenSchedule::new(DutyCycle::new(0.3));
        assert!((s.delivered_performance() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn period_shrinks_with_larger_duty_cycle() {
        let small = ElfenSchedule::new(DutyCycle::new(0.1));
        let large = ElfenSchedule::new(DutyCycle::new(0.9));
        assert!(small.period_us() > large.period_us());
    }

    #[test]
    fn elfen_policy_runs_on_a_contention_free_core() {
        let cfg = CoreConfig::default();
        let policy = Elfen::new(DutyCycle::new(0.5));
        assert_eq!(policy.setup(&cfg), PrivateCore::full().setup(&cfg));
        assert!((policy.delivered_performance() - 0.5).abs() < 1e-12);
        assert!(!policy.supports_colocation());
    }

    #[test]
    #[should_panic(expected = "does not model colocation")]
    fn colocated_elfen_scenario_is_rejected() {
        // The time-sharing happens at the scheduler level; a colocated
        // cycle-level run would return plausible-looking numbers that model
        // no real system, so the scenario refuses to run one.
        use cpu_sim::{Scenario, SimLength};
        use workloads::profile_by_name;

        let _ = Scenario::colocate(
            profile_by_name("web-search").unwrap(),
            profile_by_name("zeusmp").unwrap(),
        )
        .policy(Elfen::new(DutyCycle::new(0.5)))
        .length(SimLength::quick())
        .run();
    }

    #[test]
    fn elfen_duty_cycle_tracks_qos_headroom() {
        let mut policy = Elfen::new(DutyCycle::new(0.5));
        // Ample headroom: lend the core away, one 5% step per sample.
        let slack = QosObservation::tail_latency(20.0, 100.0, 0.2);
        assert_eq!(policy.on_sample(&slack), PolicyAction::Reconfigure);
        assert!((policy.delivered_performance() - 0.45).abs() < 1e-9);
        // Pressure: claim it back.
        let pressure = QosObservation::tail_latency(95.0, 100.0, 0.9);
        assert_eq!(policy.on_sample(&pressure), PolicyAction::Reconfigure);
        assert!((policy.delivered_performance() - 0.5).abs() < 1e-9);
        // Middling observations leave the schedule alone.
        let mid = QosObservation::tail_latency(75.0, 100.0, 0.6);
        assert_eq!(policy.on_sample(&mid), PolicyAction::Keep);
        // The duty cycle never walks past 100% or below the grid floor.
        let mut saturating = Elfen::new(DutyCycle::new(1.0));
        assert_eq!(saturating.on_sample(&pressure), PolicyAction::Keep);
        let mut floor = Elfen::new(DutyCycle::new(0.1));
        assert_eq!(floor.on_sample(&slack), PolicyAction::Keep);
    }

    #[test]
    fn grid_covers_5_to_100_percent() {
        let grid = duty_cycle_grid();
        assert_eq!(grid.len(), 20);
        assert!((grid[0].fraction() - 0.05).abs() < 1e-12);
        assert!((grid[19].fraction() - 1.0).abs() < 1e-12);
    }
}
