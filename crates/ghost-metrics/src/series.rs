//! Time-binned sample series for time-series figures (Fig. 8 of the paper).

use crate::hist::LogHistogram;

/// A series of samples bucketed into fixed-width time bins.
///
/// Each bin owns a [`LogHistogram`], so per-bin percentiles (e.g., per-second
/// p99 latency) and per-bin counts (e.g., QPS) can both be extracted — the
/// two quantities Fig. 8 of the paper plots over a 60-second run.
///
/// # Examples
///
/// ```
/// use ghost_metrics::TimeSeries;
///
/// // One-second bins over virtual-nanosecond timestamps.
/// let mut s = TimeSeries::new(1_000_000_000);
/// s.record(500_000_000, 120);   // t = 0.5 s, latency 120 ns
/// s.record(1_500_000_000, 300); // t = 1.5 s
/// assert_eq!(s.num_bins(), 2);
/// assert_eq!(s.bin_count(0), 1);
/// assert_eq!(s.bin_percentile(1, 99.0), 300);
/// ```
pub struct TimeSeries {
    bin_width: u64,
    bins: Vec<LogHistogram>,
}

impl TimeSeries {
    /// Creates a series with the given bin width (same unit as timestamps).
    ///
    /// # Panics
    ///
    /// Panics if `bin_width` is zero.
    pub fn new(bin_width: u64) -> Self {
        assert!(bin_width > 0, "bin width must be positive");
        Self {
            bin_width,
            bins: Vec::new(),
        }
    }

    /// Records a sample `value` observed at time `t`.
    pub fn record(&mut self, t: u64, value: u64) {
        let bin = (t / self.bin_width) as usize;
        if bin >= self.bins.len() {
            self.bins.resize_with(bin + 1, LogHistogram::new);
        }
        self.bins[bin].record(value);
    }

    /// Number of bins touched so far (including empty interior bins).
    pub fn num_bins(&self) -> usize {
        self.bins.len()
    }

    /// Bin width used at construction.
    pub fn bin_width(&self) -> u64 {
        self.bin_width
    }

    /// Sample count in bin `i` (0 if the bin was never touched).
    pub fn bin_count(&self, i: usize) -> u64 {
        self.bins.get(i).map_or(0, LogHistogram::count)
    }

    /// Percentile `p` of bin `i` (0 if the bin is empty).
    pub fn bin_percentile(&self, i: usize, p: f64) -> u64 {
        self.bins.get(i).map_or(0, |h| h.percentile(p))
    }

    /// Per-bin counts as a vector (QPS when bin width is one second).
    pub fn counts(&self) -> Vec<u64> {
        self.bins.iter().map(LogHistogram::count).collect()
    }

    /// Per-bin percentile-`p` values as a vector.
    pub fn percentiles(&self, p: f64) -> Vec<u64> {
        self.bins.iter().map(|h| h.percentile(p)).collect()
    }

    /// Collapses the whole series into a single histogram.
    pub fn aggregate(&self) -> LogHistogram {
        let mut out = LogHistogram::new();
        for b in &self.bins {
            out.merge(b);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "bin width must be positive")]
    fn zero_bin_width_panics() {
        let _ = TimeSeries::new(0);
    }

    #[test]
    fn bins_partition_time() {
        let mut s = TimeSeries::new(100);
        s.record(0, 1);
        s.record(99, 2);
        s.record(100, 3);
        s.record(250, 4);
        assert_eq!(s.num_bins(), 3);
        assert_eq!(s.bin_count(0), 2);
        assert_eq!(s.bin_count(1), 1);
        assert_eq!(s.bin_count(2), 1);
    }

    #[test]
    fn interior_empty_bins_report_zero() {
        let mut s = TimeSeries::new(10);
        s.record(5, 1);
        s.record(95, 1);
        assert_eq!(s.num_bins(), 10);
        assert_eq!(s.bin_count(4), 0);
        assert_eq!(s.bin_percentile(4, 99.0), 0);
    }

    #[test]
    fn aggregate_merges_all_bins() {
        let mut s = TimeSeries::new(50);
        for t in 0..500u64 {
            s.record(t, t + 1);
        }
        let agg = s.aggregate();
        assert_eq!(agg.count(), 500);
        assert_eq!(agg.max(), 500);
    }

    #[test]
    fn counts_and_percentiles_vectors_align() {
        let mut s = TimeSeries::new(10);
        s.record(0, 100);
        s.record(15, 200);
        assert_eq!(s.counts(), vec![1, 1]);
        assert_eq!(s.percentiles(100.0), vec![100, 200]);
    }
}
