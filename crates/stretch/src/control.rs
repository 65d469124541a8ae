//! The hardware–software interface: the Stretch control register (§IV-C).
//!
//! System software maintains two fields in an architecturally exposed control
//! register:
//!
//! * **S-bit** — when set, one of the Stretch modes is engaged; when clear,
//!   the baseline equal partitioning is used.
//! * **B/Q-bit** — selects between the batch-boost and QoS-boost
//!   configurations when the S-bit is set.
//!
//! Writing the register reprograms the ROB/LSQ limit registers and flushes
//! both threads' pipelines.

use crate::config::{StretchConfig, StretchMode};
use cpu_sim::SmtCore;
use sim_model::ThreadId;

/// The architecturally exposed Stretch control register.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ControlRegister {
    /// S-bit: Stretch engaged.
    pub s_bit: bool,
    /// B/Q-bit: `false` selects B-mode, `true` selects Q-mode.
    pub q_bit: bool,
}

impl ControlRegister {
    /// A cleared register (baseline partitioning).
    pub fn new() -> ControlRegister {
        ControlRegister::default()
    }

    /// Engages the batch-boost mode (S=1, B/Q=B).
    pub fn engage_b_mode(&mut self) {
        self.s_bit = true;
        self.q_bit = false;
    }

    /// Engages the QoS-boost mode (S=1, B/Q=Q).
    pub fn engage_q_mode(&mut self) {
        self.s_bit = true;
        self.q_bit = true;
    }

    /// Clears the S-bit, returning to the baseline partitioning.
    pub fn disengage(&mut self) {
        self.s_bit = false;
    }

    /// Resolves the register against the provisioned configurations.
    ///
    /// If the Q-mode is requested but not provisioned, the baseline is used
    /// (the paper makes Q-mode optional).
    pub fn mode(&self, config: &StretchConfig) -> StretchMode {
        if !self.s_bit {
            StretchMode::Baseline
        } else if self.q_bit {
            config.high_load_mode()
        } else {
            config.low_load_mode()
        }
    }

    /// Applies the register to a simulated core: loads the limit registers
    /// for the selected mode and flushes both pipelines. Returns the mode
    /// that was engaged.
    ///
    /// `ls_thread` identifies the hardware thread running the
    /// latency-sensitive workload.
    pub fn apply(
        &self,
        core: &mut SmtCore,
        config: &StretchConfig,
        ls_thread: ThreadId,
    ) -> StretchMode {
        let mode = self.mode(config);
        let policy = mode.partition_policy(core.config(), ls_thread);
        core.set_partition(policy, true);
        mode
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RobSkew;
    use sim_model::CoreConfig;

    #[test]
    fn register_encodes_the_three_modes() {
        let cfg = StretchConfig::recommended();
        let mut r = ControlRegister::new();
        assert_eq!(r.mode(&cfg), StretchMode::Baseline);
        r.engage_b_mode();
        assert_eq!(r.mode(&cfg), StretchMode::BatchBoost(RobSkew::new(56, 136)));
        r.engage_q_mode();
        assert_eq!(r.mode(&cfg), StretchMode::QosBoost(RobSkew::new(136, 56)));
        r.disengage();
        assert_eq!(r.mode(&cfg), StretchMode::Baseline);
    }

    #[test]
    fn missing_q_mode_falls_back_to_baseline() {
        let cfg = StretchConfig::b_mode_only(RobSkew::new(48, 144));
        let mut r = ControlRegister::new();
        r.engage_q_mode();
        assert_eq!(r.mode(&cfg), StretchMode::Baseline);
    }

    #[test]
    fn apply_reprograms_the_core_limits() {
        use cpu_sim::SmtCoreBuilder;
        use workloads::{batch, latency_sensitive};

        let core_cfg = CoreConfig::default();
        let mut core = SmtCoreBuilder::new(core_cfg)
            .thread(ThreadId::T0, latency_sensitive::web_search(1))
            .thread(ThreadId::T1, batch::zeusmp(1))
            .build();
        let stretch = StretchConfig::recommended();
        let mut reg = ControlRegister::new();
        reg.engage_b_mode();
        let mode = reg.apply(&mut core, &stretch, ThreadId::T0);
        assert!(mode.is_batch_boost());
        assert_eq!(core.partition().rob_limit(&core_cfg, ThreadId::T0), 56);
        assert_eq!(core.partition().rob_limit(&core_cfg, ThreadId::T1), 136);
        assert_eq!(core.thread_stats(ThreadId::T0).mode_change_flushes, 1);
    }
}
