//! Multi-configuration selection (§IV-D, "Number of configurations").
//!
//! The paper notes that more than one B-mode (and Q-mode) configuration can
//! be provisioned, differing in how much ROB capacity is shifted, at the cost
//! of slightly more sophisticated software control "to choose the appropriate
//! configuration as a function of load". This module implements that control:
//! a [`LoadIndexedSelector`] maps the measured service load (as a fraction of
//! peak) to the most aggressive configuration that is still safe at that
//! load, using the slack curve of Figure 2 as the safety criterion.

use crate::config::{RobSkew, StretchMode};
use sim_model::CoreConfig;

/// One provisioned configuration together with the highest load at which it
/// may be engaged.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadBand {
    /// Highest load (fraction of peak, exclusive) at which this skew is safe.
    pub max_load: f64,
    /// The ROB skew to engage below that load.
    pub skew: RobSkew,
}

/// Selects among several provisioned B-mode configurations by load.
///
/// Bands are kept sorted by `max_load`; at a given load the selector picks
/// the most aggressive (most batch-favouring) skew whose band covers it, or
/// falls back to the baseline when none does.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadIndexedSelector {
    bands: Vec<LoadBand>,
    /// Load at or above which the Q-mode (if provisioned) is engaged.
    q_mode_above: f64,
    q_mode: Option<RobSkew>,
}

impl LoadIndexedSelector {
    /// Creates a selector from a set of bands.
    ///
    /// # Panics
    ///
    /// Panics if `bands` is empty, any band has a non-positive `max_load`, or
    /// any skew is invalid for the given core.
    pub fn new(
        cfg: &CoreConfig,
        mut bands: Vec<LoadBand>,
        q_mode: Option<RobSkew>,
        q_mode_above: f64,
    ) -> LoadIndexedSelector {
        assert!(!bands.is_empty(), "need at least one load band");
        for band in &bands {
            assert!(
                band.max_load > 0.0 && band.max_load <= 1.0,
                "band max_load {} out of range",
                band.max_load
            );
            band.skew.validate(cfg).unwrap_or_else(|e| panic!("{e}"));
        }
        if let Some(q) = q_mode {
            q.validate(cfg).unwrap_or_else(|e| panic!("{e}"));
        }
        bands.sort_by(|a, b| a.max_load.partial_cmp(&b.max_load).expect("no NaN loads"));
        LoadIndexedSelector { bands, q_mode, q_mode_above }
    }

    /// The default three-band provisioning used in the reproduction's
    /// ablation study: the deeper the slack, the more capacity is shifted.
    ///
    /// * below 30 % load → 32-160 (most aggressive),
    /// * below 60 % load → 48-144,
    /// * below 85 % load → 56-136 (the paper's headline configuration),
    /// * at or above 90 % load → Q-mode 136-56.
    pub fn recommended(cfg: &CoreConfig) -> LoadIndexedSelector {
        LoadIndexedSelector::new(
            cfg,
            vec![
                LoadBand { max_load: 0.30, skew: RobSkew::new(32, 160) },
                LoadBand { max_load: 0.60, skew: RobSkew::new(48, 144) },
                LoadBand { max_load: 0.85, skew: RobSkew::recommended_b_mode() },
            ],
            Some(RobSkew::recommended_q_mode()),
            0.90,
        )
    }

    /// Number of provisioned B-mode bands.
    pub fn bands(&self) -> usize {
        self.bands.len()
    }

    /// Picks the mode for a measured load (fraction of peak).
    ///
    /// # Panics
    ///
    /// Panics if `load` is negative or not finite.
    pub fn mode_for_load(&self, load: f64) -> StretchMode {
        assert!(load.is_finite() && load >= 0.0, "load must be a non-negative fraction");
        if load >= self.q_mode_above {
            if let Some(q) = self.q_mode {
                return StretchMode::QosBoost(q);
            }
        }
        for band in &self.bands {
            if load < band.max_load {
                return StretchMode::BatchBoost(band.skew);
            }
        }
        StretchMode::Baseline
    }

    /// Replays a load trace and returns the mode chosen for every entry
    /// (useful for the ablation bench comparing single- vs multi-configuration
    /// provisioning).
    pub fn modes_for_trace(&self, loads: &[f64]) -> Vec<StretchMode> {
        loads.iter().map(|&l| self.mode_for_load(l)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn selector() -> LoadIndexedSelector {
        LoadIndexedSelector::recommended(&CoreConfig::default())
    }

    #[test]
    fn deeper_slack_selects_more_aggressive_skews() {
        let s = selector();
        assert_eq!(s.mode_for_load(0.10), StretchMode::BatchBoost(RobSkew::new(32, 160)));
        assert_eq!(s.mode_for_load(0.45), StretchMode::BatchBoost(RobSkew::new(48, 144)));
        assert_eq!(s.mode_for_load(0.70), StretchMode::BatchBoost(RobSkew::new(56, 136)));
    }

    #[test]
    fn high_load_selects_baseline_then_q_mode() {
        let s = selector();
        assert_eq!(s.mode_for_load(0.87), StretchMode::Baseline);
        assert_eq!(s.mode_for_load(0.95), StretchMode::QosBoost(RobSkew::new(136, 56)));
        assert_eq!(s.mode_for_load(1.0), StretchMode::QosBoost(RobSkew::new(136, 56)));
    }

    #[test]
    fn band_boundaries_are_exclusive() {
        let s = selector();
        assert_eq!(s.mode_for_load(0.30), StretchMode::BatchBoost(RobSkew::new(48, 144)));
        assert_eq!(s.mode_for_load(0.85), StretchMode::Baseline);
    }

    #[test]
    fn without_q_mode_high_load_is_baseline() {
        let cfg = CoreConfig::default();
        let s = LoadIndexedSelector::new(
            &cfg,
            vec![LoadBand { max_load: 0.5, skew: RobSkew::recommended_b_mode() }],
            None,
            0.9,
        );
        assert_eq!(s.mode_for_load(0.95), StretchMode::Baseline);
        assert_eq!(s.bands(), 1);
    }

    #[test]
    fn bands_are_sorted_regardless_of_input_order() {
        let cfg = CoreConfig::default();
        let s = LoadIndexedSelector::new(
            &cfg,
            vec![
                LoadBand { max_load: 0.8, skew: RobSkew::new(56, 136) },
                LoadBand { max_load: 0.3, skew: RobSkew::new(32, 160) },
            ],
            None,
            0.95,
        );
        assert_eq!(s.mode_for_load(0.1), StretchMode::BatchBoost(RobSkew::new(32, 160)));
        assert_eq!(s.mode_for_load(0.5), StretchMode::BatchBoost(RobSkew::new(56, 136)));
    }

    #[test]
    fn trace_replay_matches_pointwise_selection() {
        let s = selector();
        let loads = [0.1, 0.5, 0.7, 0.95];
        let modes = s.modes_for_trace(&loads);
        for (l, m) in loads.iter().zip(&modes) {
            assert_eq!(*m, s.mode_for_load(*l));
        }
    }

    #[test]
    #[should_panic(expected = "at least one load band")]
    fn empty_bands_rejected() {
        let _ = LoadIndexedSelector::new(&CoreConfig::default(), vec![], None, 0.9);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn invalid_band_rejected() {
        let _ = LoadIndexedSelector::new(
            &CoreConfig::default(),
            vec![LoadBand { max_load: 1.5, skew: RobSkew::recommended_b_mode() }],
            None,
            0.9,
        );
    }
}
