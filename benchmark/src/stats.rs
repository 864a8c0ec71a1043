//! The harness's own arithmetic: medians and percentiles.

use ghost_metrics::LogHistogram;

/// Median of `values` (mean of the two middle values for an even count).
/// Panics on an empty slice: every caller has at least one rep.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of no values");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile (`p` in `[0, 100]`) of an ascending slice;
/// 0 for an empty one.
pub fn percentile_sorted(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// Sorts `samples` in place and returns its `(p50, p99)`.
pub fn p50_p99(samples: &mut [u64]) -> (u64, u64) {
    samples.sort_unstable();
    (
        percentile_sorted(samples, 50.0),
        percentile_sorted(samples, 99.0),
    )
}

/// Lower bound of the [`LogHistogram`] bucket `value` falls in, found
/// through the public API only (a one-sample histogram reports it).
fn bucket_floor(scratch: &mut LogHistogram, value: u64) -> u64 {
    scratch.reset();
    scratch.record(value);
    scratch.percentile(50.0)
}

/// Percentile of a [`LogHistogram`], interpolated linearly by rank inside
/// the bucket the percentile lands in.
///
/// `LogHistogram::percentile` returns the bucket's lower bound, so two
/// runs whose true percentiles differ by less than a bucket (1.6 %) read
/// exactly the same, and a true value near a bucket edge reads as a 1.6 %
/// jump. Interpolating keeps the reported number continuous.
pub fn interp_percentile(h: &LogHistogram, p: f64) -> f64 {
    let count = h.count();
    if count == 0 {
        return 0.0;
    }
    let lo = h.percentile(p.min(99.999_999));
    let mut scratch = LogHistogram::new();
    // Bucket widths are powers of two and buckets are width-aligned, so
    // the first doubling step that leaves the bucket is its width.
    let mut width = 1u64;
    while bucket_floor(&mut scratch, lo + width) == lo {
        width *= 2;
    }
    let hi = (lo + width).min(h.max().max(lo));
    // `count_above(t)` counts samples in buckets after `t`'s bucket, with
    // one exception: it never returns 0 while `max > t`. When the maximum
    // shares this bucket nothing lies above it.
    let above = if bucket_floor(&mut scratch, h.max()) == lo {
        0
    } else {
        h.count_above(lo)
    };
    let at_or_above = if lo == 0 {
        count
    } else {
        h.count_above(lo - 1)
    };
    let below = count - at_or_above;
    let in_bucket = at_or_above - above;
    let target = ((p / 100.0) * count as f64).ceil().max(1.0);
    let frac = ((target - below as f64 - 0.5) / in_bucket.max(1) as f64).clamp(0.0, 1.0);
    lo as f64 + (hi - lo) as f64 * frac
}
