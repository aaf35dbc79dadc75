//! Streaming log₂-bucketed histograms.
//!
//! Values are `u64` measurements (cycle counts, queue depths, batch sizes).
//! Bucket `0` holds exactly the value `0`; bucket `i ≥ 1` holds the range
//! `[2^(i-1), 2^i - 1]`. That gives full precision for 0/1/2 and ~2× relative
//! error beyond, in 65 fixed slots — the classic HdrHistogram-lite shape,
//! cheap enough to record on every simulated block.

use std::collections::BTreeMap;

/// Number of buckets: the zero bucket plus one per possible `ilog2`.
pub const BUCKETS: usize = 65;

/// Inclusive `(low, high)` value bounds of bucket `i`.
#[must_use]
pub fn bucket_bounds(i: usize) -> (u64, u64) {
    assert!(i < BUCKETS, "bucket index {i} out of range");
    if i == 0 {
        (0, 0)
    } else if i == BUCKETS - 1 {
        (1u64 << (i - 1), u64::MAX)
    } else {
        (1u64 << (i - 1), (1u64 << i) - 1)
    }
}

/// Bucket index of a value.
#[must_use]
pub fn bucket_index(v: u64) -> usize {
    match v {
        0 => 0,
        _ => 1 + v.ilog2() as usize,
    }
}

/// A streaming histogram accumulator (see the module docs for the bucket
/// scheme): plain fields, no sharing, no borrow per record. Owners record
/// into one and write its [`LocalHistogram::snapshot`] into a
/// [`crate::Snapshot`] when one is taken.
#[derive(Debug, Clone)]
pub struct LocalHistogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for LocalHistogram {
    fn default() -> Self {
        LocalHistogram {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl LocalHistogram {
    /// An empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one measurement.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_index(v)] += 1;
        self.count += 1;
        self.sum = self.sum.wrapping_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Total recorded measurements.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Wrapping sum of every recorded value. Together with
    /// [`LocalHistogram::count`] this gives the mean of the records without
    /// a snapshot — the simulator's FTQ-occupancy mean uses it.
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Materialize into an owned, serializable form.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets = self
            .buckets
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(i, &c)| (bucket_bounds(i).0, c))
            .collect();
        HistogramSnapshot {
            buckets,
            count: self.count,
            sum: self.sum,
            min: if self.count == 0 { 0 } else { self.min },
            max: self.max,
        }
    }
}

/// An owned histogram materialization: only non-empty buckets, keyed by
/// their low bound.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// `bucket low bound → count`, non-empty buckets only.
    pub buckets: BTreeMap<u64, u64>,
    /// Total measurements.
    pub count: u64,
    /// Sum of all measurements (wrapping).
    pub sum: u64,
    /// Smallest measurement (0 when empty).
    pub min: u64,
    /// Largest measurement.
    pub max: u64,
}

impl HistogramSnapshot {
    /// Mean of the recorded measurements.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate quantile (`q` in `[0, 1]`): the low bound of the bucket
    /// containing the `q`-th ordered measurement.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (&lo, &c) in &self.buckets {
            seen += c;
            if seen >= rank {
                return lo;
            }
        }
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        assert_eq!(bucket_bounds(0), (0, 0));
        assert_eq!(bucket_bounds(1), (1, 1));
        assert_eq!(bucket_bounds(2), (2, 3));
        assert_eq!(bucket_bounds(3), (4, 7));
        assert_eq!(bucket_bounds(64), (1u64 << 63, u64::MAX));
        // Every value lands in the bucket whose bounds contain it.
        for v in [0u64, 1, 2, 3, 4, 5, 7, 8, 1023, 1024, u64::MAX] {
            let (lo, hi) = bucket_bounds(bucket_index(v));
            assert!(lo <= v && v <= hi, "v={v} lo={lo} hi={hi}");
        }
    }

    #[test]
    fn record_and_snapshot() {
        let mut h = LocalHistogram::new();
        for v in [0u64, 1, 1, 2, 3, 8, 100] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 7);
        assert_eq!(s.sum, 115);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 100);
        assert_eq!(s.buckets.get(&0), Some(&1)); // the 0
        assert_eq!(s.buckets.get(&1), Some(&2)); // the two 1s
        assert_eq!(s.buckets.get(&2), Some(&2)); // 2 and 3
        assert_eq!(s.buckets.get(&8), Some(&1)); // 8
        assert_eq!(s.buckets.get(&64), Some(&1)); // 100 in [64,127]
    }

    #[test]
    fn quantiles_are_bucket_resolution() {
        let mut h = LocalHistogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.quantile(0.0), 1);
        // The 50th of 100 ordered values is 50, whose bucket starts at 32.
        assert_eq!(s.quantile(0.5), 32);
        assert_eq!(s.quantile(1.0), 64);
        assert!((s.mean() - 50.5).abs() < 1e-9);
    }

    #[test]
    fn empty_histogram_is_sane() {
        let s = LocalHistogram::new().snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.quantile(0.5), 0);
        assert!(s.buckets.is_empty());
    }
}
