//! Bounded-memory tail-latency accumulation.
//!
//! [`Percentiles`](crate::Percentiles) retains every raw sample, which is
//! exact but unbounded: a day-long 10k-server fleet run records ~10⁸
//! sojourn times. [`LatencyHistogram`] bins latencies at a fixed resolution
//! over a [`Histogram`], so memory is `O(bins)` regardless of sample count
//! and two accumulators merge bit-exactly by integer bin-count addition —
//! the property the fleet simulator's deterministic shard merge relies on
//! (merging histograms is associative and order-independent, unlike float
//! summation).
//!
//! The price is quantisation: a percentile is reported as the *upper edge*
//! of the bin holding the nearest-rank sample, i.e. it over-estimates the
//! exact sample percentile by at most one resolution step.

use crate::histogram::Histogram;

/// A fixed-resolution latency histogram over milliseconds.
///
/// Values in `[k·res, (k+1)·res)` land in bin `k`; everything at or above
/// `max_ms` lands in a catch-all bin whose reported upper edge sits one
/// resolution step above the configured maximum. Negative and NaN inputs
/// clamp to bin 0.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyHistogram {
    resolution_ms: f64,
    hist: Histogram,
}

impl LatencyHistogram {
    /// Creates an accumulator with bins of `resolution_ms` covering
    /// `[0, max_ms)` plus a catch-all for larger values.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < resolution_ms <= max_ms` and both are finite.
    pub fn new(resolution_ms: f64, max_ms: f64) -> LatencyHistogram {
        assert!(
            resolution_ms.is_finite() && resolution_ms > 0.0,
            "latency histogram resolution must be positive and finite"
        );
        assert!(
            max_ms.is_finite() && max_ms >= resolution_ms,
            "latency histogram max must be finite and at least one resolution step"
        );
        let regular_bins = (max_ms / resolution_ms).ceil() as usize;
        LatencyHistogram { resolution_ms, hist: Histogram::new(regular_bins.max(1)) }
    }

    /// The configured bin width in milliseconds.
    pub fn resolution_ms(&self) -> f64 {
        self.resolution_ms
    }

    /// Records one latency observation.
    pub fn record(&mut self, value_ms: f64) {
        let bin = (value_ms.max(0.0) / self.resolution_ms) as usize;
        self.hist.record(bin);
    }

    /// Number of recorded observations.
    pub fn len(&self) -> usize {
        self.hist.total() as usize
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.hist.total() == 0
    }

    /// The `p`-th percentile (nearest-rank) as the upper edge of its bin, or
    /// `None` when empty. Over-estimates the exact sample percentile by at
    /// most one resolution step (more for catch-all samples).
    pub fn percentile(&self, p: f64) -> Option<f64> {
        let total = self.hist.total();
        if total == 0 {
            return None;
        }
        let rank = ((p / 100.0) * total as f64).ceil() as u64;
        let rank = rank.clamp(1, total);
        let mut seen = 0u64;
        for bin in 0..self.hist.bins() {
            seen += self.hist.count(bin);
            if seen >= rank {
                return Some((bin as f64 + 1.0) * self.resolution_ms);
            }
        }
        None
    }

    /// Merges another accumulator into this one (bit-exact: integer bin
    /// counts add, so merge order can never change any percentile).
    ///
    /// # Panics
    ///
    /// Panics if the two accumulators have different resolutions or bin
    /// counts.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        assert!(self.resolution_ms == other.resolution_ms, "latency histogram resolutions differ");
        self.hist.merge(&other.hist);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_reports_bin_upper_edge() {
        let mut h = LatencyHistogram::new(1.0, 100.0);
        for v in [0.2, 1.5, 2.5, 3.5] {
            h.record(v);
        }
        assert_eq!(h.len(), 4);
        // Rank 2 of 4 at p50 → the sample 1.5 → bin 1 → upper edge 2.0.
        assert_eq!(h.percentile(50.0), Some(2.0));
        assert_eq!(h.percentile(100.0), Some(4.0));
        assert_eq!(h.percentile(0.0), Some(1.0));
    }

    #[test]
    fn merge_equals_concatenated_recording() {
        let mut left = LatencyHistogram::new(0.5, 50.0);
        let mut right = LatencyHistogram::new(0.5, 50.0);
        let mut both = LatencyHistogram::new(0.5, 50.0);
        for i in 0..200 {
            let v = (i * 37 % 101) as f64 * 0.6;
            if i % 2 == 0 {
                left.record(v);
            } else {
                right.record(v);
            }
            both.record(v);
        }
        left.merge(&right);
        assert_eq!(left, both);
        for p in [50.0, 90.0, 95.0, 99.0] {
            assert_eq!(left.percentile(p), both.percentile(p));
        }
    }

    #[test]
    fn catch_all_collects_overflow() {
        let mut h = LatencyHistogram::new(1.0, 10.0);
        h.record(1e9);
        h.record(f64::INFINITY);
        // Both land in the catch-all bin; its upper edge is max + resolution.
        assert_eq!(h.percentile(99.0), Some(11.0));
    }

    #[test]
    fn negative_and_nan_clamp_to_first_bin() {
        let mut h = LatencyHistogram::new(1.0, 10.0);
        h.record(-3.0);
        h.record(f64::NAN);
        assert_eq!(h.percentile(50.0), Some(1.0));
    }

    #[test]
    fn empty_has_no_percentile() {
        let h = LatencyHistogram::new(1.0, 10.0);
        assert!(h.is_empty());
        assert_eq!(h.percentile(99.0), None);
    }

    #[test]
    #[should_panic(expected = "resolutions differ")]
    fn merge_rejects_mismatched_resolution() {
        let mut a = LatencyHistogram::new(1.0, 10.0);
        let b = LatencyHistogram::new(2.0, 10.0);
        a.merge(&b);
    }
}
