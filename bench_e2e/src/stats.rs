//! The harness's own arithmetic: order statistics, the
//! highest-reportable-percentile rule, operation accounting and the
//! output hash. Everything here is unit-tested below, because every
//! number the benchmark prints goes through it.

/// Median of `values` (mean of the two middle values for even counts).
/// Panics on an empty slice: a metric with no samples is a harness bug.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The `p`-th percentile (0..=100) by the nearest-rank method: the
/// smallest sample with at least `p` % of the samples at or below it.
pub fn percentile(values: &[f64], p: u32) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    assert!(p <= 100);
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p as usize * v.len()).div_ceil(100).max(1);
    v[rank - 1]
}

/// The highest percentile among 50, 90, 95, 99 that still has at least
/// ten samples beyond it (choosing-metrics §1), or `None` below twenty
/// samples, where even the median does not.
pub fn top_percentile(n_samples: usize) -> Option<u32> {
    [99u32, 95, 90, 50]
        .into_iter()
        .find(|&p| n_samples * (100 - p as usize) >= 10 * 100)
}

/// Interquartile distance over the median, with the quartiles of
/// Python's `statistics.quantiles(values, n=4)` (exclusive method) —
/// the spread the benchmark's driver computes over ten runs.
pub fn iqr_over_median(values: &[f64]) -> f64 {
    assert!(values.len() >= 2, "spread needs two samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let quartile = |k: usize| {
        // Position k·(n+1)/4 in 1-based ranks, linearly interpolated
        // between the two neighbouring samples (Python extrapolates
        // from the outermost pair when n = 2; so does this).
        let pos = k as f64 * (n as f64 + 1.0) / 4.0;
        let lo = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - lo as f64;
        v[lo - 1] + frac * (v[lo] - v[lo - 1])
    };
    (quartile(3) - quartile(1)) / median(&v)
}

/// The samples a timing's median is taken over: those marked clean
/// (measured without hypervisor steal), unless fewer than `min` are,
/// in which case all of them. Returns the values and how many dirty
/// samples were left out.
pub fn clean_samples(samples: &[(f64, bool)], min: usize) -> (Vec<f64>, usize) {
    let clean: Vec<f64> = samples.iter().filter(|s| s.1).map(|s| s.0).collect();
    if clean.len() >= min {
        let dropped = samples.len() - clean.len();
        (clean, dropped)
    } else {
        (samples.iter().map(|s| s.0).collect(), 0)
    }
}

/// Operations attempted and failed. An operation is one child run or
/// one served job; it fails on a non-zero exit, a typed error, a
/// timeout, or output bytes that differ from the workload's reference.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
}

impl Ops {
    /// Count one operation; returns `ok` for chaining.
    pub fn record(&mut self, ok: bool) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
        ok
    }

    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// FNV-1a over the output bytes: the identity the correctness check
/// compares. Two runs agree iff their `--json` bytes hash equal (and
/// have equal length, which [`Digest`] carries to make an accidental
/// collision need both).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Digest {
    pub len: usize,
    pub hash: u64,
}

impl Digest {
    pub fn of(bytes: &[u8]) -> Digest {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for &b in bytes {
            hash ^= b as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        Digest {
            len: bytes.len(),
            hash,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // Robust to one wild sample, which is why timings use it.
        assert_eq!(median(&[1.0, 1.1, 0.9, 1.0, 50.0]), 1.0);
    }

    #[test]
    #[should_panic(expected = "median of no samples")]
    fn median_of_nothing_is_a_bug() {
        median(&[]);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50), 50.0);
        assert_eq!(percentile(&v, 90), 90.0);
        assert_eq!(percentile(&v, 100), 100.0);
        assert_eq!(percentile(&v, 0), 1.0);
        assert_eq!(percentile(&[7.0, 3.0], 50), 3.0);
        assert_eq!(percentile(&[7.0, 3.0], 51), 7.0);
    }

    #[test]
    fn top_percentile_needs_ten_samples_beyond() {
        assert_eq!(top_percentile(19), None);
        assert_eq!(top_percentile(20), Some(50));
        assert_eq!(top_percentile(99), Some(50));
        assert_eq!(top_percentile(100), Some(90));
        assert_eq!(top_percentile(199), Some(90));
        assert_eq!(top_percentile(200), Some(95));
        assert_eq!(top_percentile(300), Some(95));
        assert_eq!(top_percentile(1000), Some(99));
    }

    #[test]
    fn spread_matches_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_over_median(&v) - 5.5 / 5.5).abs() < 1e-12);
        // statistics.quantiles([10, 12, 11, 13], n=4) == [10.25, 11.5, 12.75]
        let v = [10.0, 12.0, 11.0, 13.0];
        assert!((iqr_over_median(&v) - 2.5 / 11.5).abs() < 1e-12);
        assert_eq!(iqr_over_median(&[2.0, 2.0, 2.0]), 0.0);
    }

    #[test]
    fn dirty_samples_are_left_out_only_while_enough_clean_ones_remain() {
        let samples = [(1.0, true), (9.0, false), (2.0, true), (3.0, true)];
        assert_eq!(clean_samples(&samples, 3), (vec![1.0, 2.0, 3.0], 1));
        // Too few clean ones: a noisy median beats no median.
        assert_eq!(clean_samples(&samples, 4), (vec![1.0, 9.0, 2.0, 3.0], 0));
        assert_eq!(clean_samples(&[], 0), (vec![], 0));
    }

    #[test]
    fn ops_count_failures_against_attempts() {
        let mut ops = Ops::default();
        assert_eq!(ops.failed_frac(), 0.0);
        assert!(ops.record(true));
        assert!(!ops.record(false));
        ops.record(true);
        ops.record(true);
        assert_eq!(
            ops,
            Ops {
                attempted: 4,
                failed: 1
            }
        );
        assert_eq!(ops.failed_frac(), 0.25);
    }

    #[test]
    fn digest_separates_content_and_length() {
        assert_eq!(Digest::of(b"network"), Digest::of(b"network"));
        assert_ne!(Digest::of(b"network"), Digest::of(b"networK"));
        assert_ne!(Digest::of(b""), Digest::of(b"\0"));
        // The published FNV-1a 64 test vector.
        assert_eq!(Digest::of(b"a").hash, 0xaf63_dc4c_8601_ec8c);
        assert_eq!(Digest::of(b"").hash, 0xcbf2_9ce4_8422_2325);
    }
}
