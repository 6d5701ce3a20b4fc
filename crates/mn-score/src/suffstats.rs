//! Sufficient statistics for Gaussian data blocks.
//!
//! Every score in the learner is a function of `(count, Σx, Σx²)` of
//! some block of matrix entries — a co-clustering *tile* (variable
//! cluster × observation cluster), the observations at a regression-tree
//! node, or a split's two sides. The optimized scorer of §4.1 maintains
//! these incrementally (add/remove/merge in O(1)).

use serde::{Deserialize, Serialize};

/// `(count, Σx, Σx²)` of a block of values.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct SuffStats {
    count: u64,
    sum: f64,
    sumsq: f64,
}

impl SuffStats {
    /// The empty block.
    #[inline]
    pub fn empty() -> Self {
        Self::default()
    }

    /// Statistics of a slice of values.
    pub fn from_values(values: &[f64]) -> Self {
        let mut s = Self::empty();
        for &v in values {
            s.add(v);
        }
        s
    }

    /// Add one value.
    #[inline]
    pub fn add(&mut self, v: f64) {
        self.count += 1;
        self.sum += v;
        self.sumsq += v * v;
    }

    /// Remove one previously added value.
    ///
    /// Caller must guarantee `v` was added before; in debug builds an
    /// empty-block underflow panics.
    #[inline]
    pub fn remove(&mut self, v: f64) {
        debug_assert!(self.count > 0, "removing from an empty block");
        self.count -= 1;
        self.sum -= v;
        self.sumsq -= v * v;
        if self.count == 0 {
            // Clamp away accumulated round-off so an emptied block is
            // exactly empty (scores treat empty specially).
            self.sum = 0.0;
            self.sumsq = 0.0;
        }
    }

    /// Merge another block into this one.
    #[inline]
    pub fn merge(&mut self, other: &SuffStats) {
        self.count += other.count;
        self.sum += other.sum;
        self.sumsq += other.sumsq;
    }

    /// Remove a previously merged block.
    #[inline]
    pub fn unmerge(&mut self, other: &SuffStats) {
        debug_assert!(self.count >= other.count, "unmerge underflow");
        self.count -= other.count;
        self.sum -= other.sum;
        self.sumsq -= other.sumsq;
        if self.count == 0 {
            self.sum = 0.0;
            self.sumsq = 0.0;
        }
    }

    /// The merged statistics of two blocks (non-mutating form).
    #[inline]
    pub fn merged(a: &SuffStats, b: &SuffStats) -> SuffStats {
        let mut out = *a;
        out.merge(b);
        out
    }

    /// Number of values in the block.
    #[inline]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether the block is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Σx.
    #[inline]
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Σx².
    #[inline]
    pub fn sumsq(&self) -> f64 {
        self.sumsq
    }

    /// Sample mean (0 for an empty block).
    #[inline]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Centered sum of squares `Σ(x - x̄)²`, clamped at 0 to absorb
    /// floating-point cancellation on near-constant blocks.
    #[inline]
    pub fn centered_sumsq(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let c = self.sumsq - self.sum * self.sum / self.count as f64;
        c.max(0.0)
    }

    /// Population variance.
    #[inline]
    pub fn variance(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.centered_sumsq() / self.count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn from_values_basics() {
        let s = SuffStats::from_values(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.count(), 4);
        assert_eq!(s.sum(), 10.0);
        assert_eq!(s.sumsq(), 30.0);
        assert_eq!(s.mean(), 2.5);
        assert!((s.centered_sumsq() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 1.25).abs() < 1e-12);
    }

    #[test]
    fn empty_is_well_behaved() {
        let s = SuffStats::empty();
        assert!(s.is_empty());
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.centered_sumsq(), 0.0);
    }

    #[test]
    fn add_remove_roundtrip() {
        let mut s = SuffStats::from_values(&[1.0, 2.0, 3.0]);
        let before = s;
        s.add(7.5);
        s.remove(7.5);
        assert_eq!(s.count(), before.count());
        assert!((s.sum() - before.sum()).abs() < 1e-12);
        assert!((s.sumsq() - before.sumsq()).abs() < 1e-12);
    }

    #[test]
    fn remove_to_empty_is_exactly_empty() {
        let mut s = SuffStats::empty();
        s.add(0.1);
        s.remove(0.1);
        assert_eq!(s, SuffStats::empty());
    }

    #[test]
    fn merge_unmerge_roundtrip() {
        let a0 = SuffStats::from_values(&[1.0, -2.0]);
        let b = SuffStats::from_values(&[3.5, 0.25, -1.0]);
        let mut a = a0;
        a.merge(&b);
        assert_eq!(a.count(), 5);
        a.unmerge(&b);
        assert!((a.sum() - a0.sum()).abs() < 1e-12);
        assert_eq!(a.count(), a0.count());
    }

    #[test]
    fn merged_equals_concat() {
        let xs = [1.0, 2.0, 3.0];
        let ys = [4.0, 5.0];
        let merged = SuffStats::merged(&SuffStats::from_values(&xs), &SuffStats::from_values(&ys));
        let concat = SuffStats::from_values(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(merged, concat);
    }

    #[test]
    fn near_constant_block_variance_not_negative() {
        let v = 1e8;
        let s = SuffStats::from_values(&[v, v, v, v]);
        assert!(s.variance() >= 0.0);
        assert!(s.centered_sumsq() >= 0.0);
    }

    proptest! {
        #[test]
        fn prop_merge_commutes(xs in prop::collection::vec(-1e3f64..1e3, 0..30),
                               ys in prop::collection::vec(-1e3f64..1e3, 0..30)) {
            let a = SuffStats::from_values(&xs);
            let b = SuffStats::from_values(&ys);
            let ab = SuffStats::merged(&a, &b);
            let ba = SuffStats::merged(&b, &a);
            prop_assert_eq!(ab.count(), ba.count());
            prop_assert!((ab.sum() - ba.sum()).abs() < 1e-9);
            prop_assert!((ab.sumsq() - ba.sumsq()).abs() < 1e-9);
        }

        #[test]
        fn prop_centered_sumsq_matches_direct(xs in prop::collection::vec(-1e3f64..1e3, 1..50)) {
            let s = SuffStats::from_values(&xs);
            let mean = xs.iter().sum::<f64>() / xs.len() as f64;
            let direct: f64 = xs.iter().map(|x| (x - mean) * (x - mean)).sum();
            prop_assert!((s.centered_sumsq() - direct).abs() < 1e-6 * direct.max(1.0));
        }

        #[test]
        fn prop_order_invariance(mut xs in prop::collection::vec(-1e3f64..1e3, 1..50)) {
            let fwd = SuffStats::from_values(&xs);
            xs.reverse();
            let rev = SuffStats::from_values(&xs);
            prop_assert_eq!(fwd.count(), rev.count());
            prop_assert!((fwd.sum() - rev.sum()).abs() <= 1e-9 * fwd.sum().abs().max(1.0));
            prop_assert!((fwd.sumsq() - rev.sumsq()).abs() <= 1e-9 * fwd.sumsq().max(1.0));
        }
    }
}
