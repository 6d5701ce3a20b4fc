//! Batched prefix-sum computation of exact separation scores.
//!
//! The split-assignment phase (Alg. 5) evaluates, for one tree node
//! with observations `obs(N)` and one candidate parent `X`, the
//! separation score σ of the predicate `X ≤ v` for *every* candidate
//! value `v` — and the candidate values are exactly `X`'s values at
//! `obs(N)`. The naive pass rescans all `n = |obs(N)|` observations
//! per candidate, O(n²) per (node, parent) segment. This module
//! computes all `n` scores in O(n log n): sort the gathered values
//! once, form the prefix count of left-child members in sorted order,
//! and read each candidate's score off the prefix sums.
//!
//! ## Exact equivalence
//!
//! The naive score counts `correct = #{i : (vals[i] ≤ v) == left[i]}`
//! and returns `(2·correct − n)/n`. With `k = #{i : vals[i] ≤ v}`
//! (the end of `v`'s tied run in sorted order, so ties resolve through
//! the same `≤` predicate) and `L(k)` = left members among the `k`
//! smallest values,
//!
//! ```text
//! correct = L(k) + (#right with value > v) = L(k) + (n − k) − (total_left − L(k))
//!         = 2·L(k) − k + total_right
//! ```
//!
//! — the same integer, fed through the same floating-point expression,
//! so the batched σ is bit-identical to the naive σ. Values must not
//! be NaN (dataset values are finite); ±0.0 ties are merged into one
//! run by canonicalizing `-0.0` before keying, matching the numeric
//! `≤` of the naive count.
//!
//! The sort works on packed integers — an order-preserving transform
//! of the value's bits in the high word, the candidate index in the
//! low word — so the hot comparison is one branch-free `u128` compare
//! with no memory indirection, which is what keeps the kernel ahead of
//! the naive pass even at small `n`. Intra-tie order (by index) does
//! not affect results: scores are read only at run boundaries.

use std::sync::Mutex;

/// Order-preserving integer key of a non-NaN `f64`: `a ≤ b` iff
/// `order_key(a) ≤ order_key(b)`, with `-0.0` canonicalized onto
/// `+0.0` so key equality coincides with numeric equality.
#[inline]
fn order_key(v: f64) -> u64 {
    let v = if v == 0.0 { 0.0 } else { v };
    let b = v.to_bits();
    if b >> 63 == 1 {
        !b
    } else {
        b ^ (1 << 63)
    }
}

/// Reusable buffers for one in-flight segment computation.
///
/// All allocations are retained across segments, so a worker that
/// processes many (node, parent) segments allocates only on its
/// high-water mark.
#[derive(Debug, Default)]
pub struct SplitScratch {
    keyed: Vec<u128>,
    sigmas: Vec<f64>,
    cons: Vec<u64>,
    /// `compute_masks`' running "value ≤ current run" mask.
    bmask: Vec<u64>,
}

impl SplitScratch {
    /// Fresh scratch with no capacity.
    pub fn new() -> Self {
        Self::default()
    }

    /// Gather the parent's values at the node's observations once,
    /// directly into packed sort keys, and sort them.
    fn sort_keys(&mut self, row: &[f64], node_obs: &[usize]) {
        debug_assert!(node_obs.iter().all(|&o| !row[o].is_nan()));
        self.keyed.clear();
        self.keyed.extend(
            node_obs
                .iter()
                .enumerate()
                .map(|(i, &o)| (u128::from(order_key(row[o])) << 32) | i as u128),
        );
        self.keyed.sort_unstable();
    }

    /// Separation scores for every candidate value of one (node,
    /// parent) segment: `sigmas()[j]` is the score of the predicate
    /// `row[·] ≤ row[node_obs[j]]`, bit-identical to the naive
    /// per-candidate pass. `left_mask[i]` marks whether `node_obs[i]`
    /// belongs to the node's left child.
    pub fn compute(&mut self, row: &[f64], node_obs: &[usize], left_mask: &[bool]) -> &[f64] {
        let n = node_obs.len();
        assert_eq!(n, left_mask.len());
        self.sort_keys(row, node_obs);

        let total_left = left_mask.iter().filter(|&&b| b).count();
        let total_right = n - total_left;

        self.sigmas.clear();
        self.sigmas.resize(n, 0.0);
        // Walk runs of equal values: every candidate of a run has
        // k = run end (the count of values ≤ the candidate's value),
        // and `acc` accumulates the left-child members seen so far.
        let mut t = 0usize;
        let mut acc = 0usize;
        while t < n {
            let key = self.keyed[t] >> 32;
            let mut end = t + 1;
            while end < n && self.keyed[end] >> 32 == key {
                end += 1;
            }
            for &packed in &self.keyed[t..end] {
                acc += usize::from(left_mask[packed as u32 as usize]);
            }
            let k = end;
            let left_le = acc;
            let right_gt = total_right - (k - left_le);
            let correct = left_le + right_gt;
            let sigma = (2.0 * correct as f64 - n as f64) / n as f64;
            for &packed in &self.keyed[t..end] {
                self.sigmas[packed as u32 as usize] = sigma;
            }
            t = end;
        }
        &self.sigmas
    }

    /// [`SplitScratch::compute`] for small nodes (`n ≤ 64`) with a
    /// bit-packed left mask, additionally emitting each candidate's
    /// *consistency mask*: bit `i` of `cons[j]` is set iff
    /// `(row[node_obs[i]] ≤ row[node_obs[j]]) == (bit i of lmask)` —
    /// exactly the per-pick predicate of the Monte-Carlo confirmation
    /// loop, so `s_eff · n` random picks reduce to `s_eff · n` bit
    /// tests against one precomputed word per candidate.
    ///
    /// The masks fall out of the same sorted run walk that produces σ:
    /// `bmask` accumulates the positions whose value is ≤ the current
    /// run's value, so a run's consistency mask is
    /// `!(bmask ^ lmask)` (a pick agrees iff its ≤-bit equals its
    /// left-bit). σ values are bit-identical to
    /// [`SplitScratch::compute`] — same integer counts through the
    /// same float expression.
    ///
    /// Returns `(sigmas, cons)` indexed by candidate position.
    pub fn compute_small(
        &mut self,
        row: &[f64],
        node_obs: &[usize],
        lmask: u64,
    ) -> (&[f64], &[u64]) {
        let n = node_obs.len();
        assert!(n <= 64, "compute_small requires n ≤ 64, got {n}");
        self.sort_keys(row, node_obs);

        let mask_n: u64 = if n == 64 { !0 } else { (1u64 << n) - 1 };
        let lmask = lmask & mask_n;
        let total_left = lmask.count_ones() as usize;
        let total_right = n - total_left;

        self.sigmas.clear();
        self.sigmas.resize(n, 0.0);
        self.cons.clear();
        self.cons.resize(n, 0);

        let mut t = 0usize;
        let mut acc = 0usize;
        let mut bmask = 0u64;
        while t < n {
            let key = self.keyed[t] >> 32;
            let mut end = t + 1;
            while end < n && self.keyed[end] >> 32 == key {
                end += 1;
            }
            for &packed in &self.keyed[t..end] {
                let idx = packed as u32 as usize;
                acc += usize::from(lmask >> idx & 1 == 1);
                bmask |= 1u64 << idx;
            }
            let k = end;
            let left_le = acc;
            let right_gt = total_right - (k - left_le);
            let correct = left_le + right_gt;
            let sigma = (2.0 * correct as f64 - n as f64) / n as f64;
            let cons = !(bmask ^ lmask) & mask_n;
            for &packed in &self.keyed[t..end] {
                let idx = packed as u32 as usize;
                self.sigmas[idx] = sigma;
                self.cons[idx] = cons;
            }
            t = end;
        }
        (&self.sigmas, &self.cons)
    }

    /// [`SplitScratch::compute_small`] for nodes of any width: the left
    /// mask and every candidate's consistency mask span
    /// `w = ⌈n/64⌉` words (bit `i` lives in word `i >> 6`), and `cons`
    /// is stored candidate-major — candidate `j`'s mask is
    /// `cons[j·w .. (j+1)·w]`, its last word trimmed to `n` bits.
    /// `lmask` must hold at least `w` words; bits past `n` are ignored.
    ///
    /// The same sorted run walk as [`SplitScratch::compute_small`],
    /// with a `w`-word `bmask`. Nodes with `n ≤ 64` delegate to it, so
    /// their masks are the identical single words.
    ///
    /// Returns `(sigmas, cons)`.
    pub fn compute_masks(
        &mut self,
        row: &[f64],
        node_obs: &[usize],
        lmask: &[u64],
    ) -> (&[f64], &[u64]) {
        let n = node_obs.len();
        if n <= 64 {
            return self.compute_small(row, node_obs, lmask.first().copied().unwrap_or(0));
        }
        let w = n.div_ceil(64);
        assert!(
            lmask.len() >= w,
            "left mask has {} words, need {w}",
            lmask.len()
        );
        self.sort_keys(row, node_obs);

        // The last word's valid bits: n − 64·(w − 1) of them.
        let tail = u64::MAX >> (64 * w - n);
        let lmask = &lmask[..w];
        let total_left = lmask[..w - 1]
            .iter()
            .map(|word| word.count_ones() as usize)
            .sum::<usize>()
            + (lmask[w - 1] & tail).count_ones() as usize;
        let total_right = n - total_left;

        self.sigmas.clear();
        self.sigmas.resize(n, 0.0);
        self.cons.clear();
        self.cons.resize(n * w, 0);
        self.bmask.clear();
        self.bmask.resize(w, 0);

        let mut t = 0usize;
        let mut acc = 0usize;
        while t < n {
            let key = self.keyed[t] >> 32;
            let mut end = t + 1;
            while end < n && self.keyed[end] >> 32 == key {
                end += 1;
            }
            for &packed in &self.keyed[t..end] {
                let idx = packed as u32 as usize;
                acc += usize::from(lmask[idx >> 6] >> (idx & 63) & 1 == 1);
                self.bmask[idx >> 6] |= 1u64 << (idx & 63);
            }
            let k = end;
            let left_le = acc;
            let right_gt = total_right - (k - left_le);
            let correct = left_le + right_gt;
            let sigma = (2.0 * correct as f64 - n as f64) / n as f64;
            for &packed in &self.keyed[t..end] {
                let idx = packed as u32 as usize;
                self.sigmas[idx] = sigma;
                let words = &mut self.cons[idx * w..(idx + 1) * w];
                for ((word, &b), &l) in words.iter_mut().zip(&self.bmask).zip(lmask) {
                    *word = !(b ^ l);
                }
                words[w - 1] &= tail;
            }
            t = end;
        }
        (&self.sigmas, &self.cons)
    }
}

/// The naive per-candidate pass over gathered values — O(n) per
/// candidate, O(n²) per segment. This is the reference the kernel is
/// tested (and benchmarked) against; it mirrors the per-item
/// separation-score loop of the split-assignment phase.
pub fn naive_sigmas(vals: &[f64], left_mask: &[bool], out: &mut Vec<f64>) {
    let n = vals.len();
    assert_eq!(n, left_mask.len());
    out.clear();
    out.extend((0..n).map(|j| {
        let value = vals[j];
        let mut correct = 0usize;
        for (&v, &on_left) in vals.iter().zip(left_mask) {
            if (v <= value) == on_left {
                correct += 1;
            }
        }
        (2.0 * correct as f64 - n as f64) / n as f64
    }));
}

/// A pool of reusable scratch buffers shared across worker threads
/// (by default [`SplitScratch`], but any `Default` scratch type works —
/// the split phase pools richer per-worker state through the same
/// mechanism).
///
/// Engines hand segments to whichever thread owns the block; a worker
/// checks a scratch out for the duration of one batch call and returns
/// it on drop, so the number of live buffers equals the peak number of
/// concurrent workers, not the number of segments — and a pool owned
/// by a long-lived phase context keeps its buffers warm across calls,
/// making the steady state allocation-free.
#[derive(Debug, Default)]
pub struct ScratchPool<T: Default = SplitScratch> {
    pool: Mutex<Vec<T>>,
}

impl<T: Default> ScratchPool<T> {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Check a scratch out of the pool (allocating a fresh one if the
    /// pool is dry). Returned to the pool when the guard drops.
    pub fn acquire(&self) -> ScratchGuard<'_, T> {
        let scratch = self.pool.lock().unwrap().pop().unwrap_or_default();
        ScratchGuard {
            pool: self,
            scratch: Some(scratch),
        }
    }

    /// Number of idle buffers currently in the pool.
    pub fn idle(&self) -> usize {
        self.pool.lock().unwrap().len()
    }
}

/// Checked-out scratch; returns its buffers to the pool on drop.
#[derive(Debug)]
pub struct ScratchGuard<'a, T: Default = SplitScratch> {
    pool: &'a ScratchPool<T>,
    scratch: Option<T>,
}

impl<T: Default> std::ops::Deref for ScratchGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.scratch.as_ref().unwrap()
    }
}

impl<T: Default> std::ops::DerefMut for ScratchGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.scratch.as_mut().unwrap()
    }
}

impl<T: Default> Drop for ScratchGuard<'_, T> {
    fn drop(&mut self) {
        if let Some(scratch) = self.scratch.take() {
            self.pool.pool.lock().unwrap().push(scratch);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_equivalence(vals: &[f64], left_mask: &[bool]) {
        let n = vals.len();
        let obs: Vec<usize> = (0..n).collect();
        let mut scratch = SplitScratch::new();
        let kernel = scratch.compute(vals, &obs, left_mask).to_vec();
        let mut naive = Vec::new();
        naive_sigmas(vals, left_mask, &mut naive);
        assert_eq!(kernel.len(), n);
        for j in 0..n {
            assert!(
                kernel[j].to_bits() == naive[j].to_bits(),
                "candidate {j}: kernel {} vs naive {} for vals {vals:?}",
                kernel[j],
                naive[j]
            );
        }
    }

    #[test]
    fn matches_naive_on_distinct_values() {
        check_equivalence(
            &[3.0, -1.0, 2.0, 0.5, 7.0],
            &[true, true, false, true, false],
        );
    }

    #[test]
    fn matches_naive_on_heavy_duplicates() {
        check_equivalence(
            &[1.0, 1.0, 1.0, 2.0, 2.0, 1.0],
            &[true, false, true, false, true, false],
        );
        check_equivalence(&[5.0; 8], &[true, false, true, true, false, false, true, false]);
    }

    #[test]
    fn matches_naive_when_all_on_one_side() {
        check_equivalence(&[1.0, 2.0, 3.0, 4.0], &[true; 4]);
        check_equivalence(&[1.0, 2.0, 3.0, 4.0], &[false; 4]);
    }

    #[test]
    fn matches_naive_with_signed_zeros() {
        check_equivalence(&[-0.0, 0.0, -1.0, 0.0, -0.0], &[true, false, true, false, true]);
    }

    #[test]
    fn perfect_split_scores_one() {
        let vals = [0.0, 1.0, 2.0, 3.0];
        let mask = [true, true, false, false];
        let mut scratch = SplitScratch::new();
        let sigmas = scratch.compute(&vals, &[0, 1, 2, 3], &mask);
        // The candidate at the boundary value (1.0) separates perfectly.
        assert_eq!(sigmas[1], 1.0);
        // The top value puts everything left: half correct.
        assert_eq!(sigmas[3], 0.0);
    }

    #[test]
    fn gathers_through_observation_indices() {
        // row is wider than the node; node_obs selects and orders.
        let row = [9.0, 0.0, 5.0, 2.0, 7.0];
        let node_obs = [3usize, 1, 4];
        let mask = [true, true, false];
        let mut scratch = SplitScratch::new();
        let kernel = scratch.compute(&row, &node_obs, &mask).to_vec();
        let gathered: Vec<f64> = node_obs.iter().map(|&o| row[o]).collect();
        let mut naive = Vec::new();
        naive_sigmas(&gathered, &mask, &mut naive);
        assert_eq!(kernel, naive);
    }

    #[test]
    fn scratch_is_reusable_across_segments() {
        let mut scratch = SplitScratch::new();
        let a = scratch
            .compute(&[1.0, 2.0], &[0, 1], &[true, false])
            .to_vec();
        // A larger segment, then the first again: identical result.
        scratch.compute(
            &[5.0, 1.0, 3.0, 3.0, 2.0],
            &[0, 1, 2, 3, 4],
            &[false, true, true, false, true],
        );
        let b = scratch
            .compute(&[1.0, 2.0], &[0, 1], &[true, false])
            .to_vec();
        assert_eq!(a, b);
    }

    fn check_small(vals: &[f64], left: &[bool]) {
        let n = vals.len();
        let obs: Vec<usize> = (0..n).collect();
        let mut lmask = 0u64;
        for (i, &b) in left.iter().enumerate() {
            lmask |= (b as u64) << i;
        }
        let mut scratch = SplitScratch::new();
        let wide = scratch.compute(vals, &obs, left).to_vec();
        let (sigmas, cons) = scratch.compute_small(vals, &obs, lmask);
        let (sigmas, cons) = (sigmas.to_vec(), cons.to_vec());
        for j in 0..n {
            assert_eq!(
                sigmas[j].to_bits(),
                wide[j].to_bits(),
                "sigma {j} diverged for {vals:?}"
            );
            for i in 0..n {
                let want = (vals[i] <= vals[j]) == left[i];
                let got = cons[j] >> i & 1 == 1;
                assert_eq!(got, want, "cons[{j}] bit {i} for {vals:?}");
            }
        }
    }

    #[test]
    fn small_masks_match_direct_predicate() {
        check_small(
            &[3.0, -1.0, 2.0, 0.5, 7.0],
            &[true, true, false, true, false],
        );
        check_small(
            &[1.0, 1.0, 1.0, 2.0, 2.0, 1.0],
            &[true, false, true, false, true, false],
        );
        check_small(&[-0.0, 0.0, -1.0, 0.0, -0.0], &[true, false, true, false, true]);
        check_small(&[5.0; 8], &[true, false, true, true, false, false, true, false]);
    }

    #[test]
    fn small_handles_full_64_wide_node() {
        let vals: Vec<f64> = (0..64).map(|i| ((i * 37) % 11) as f64 - 5.0).collect();
        let left: Vec<bool> = (0..64).map(|i| i % 3 == 0).collect();
        check_small(&vals, &left);
    }

    #[test]
    fn small_randomized_against_wide() {
        // Deterministic pseudo-random sweep across sizes and tie
        // densities.
        let mut state = 0x9e37u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state >> 33
        };
        for round in 0..60 {
            let n = 1 + (round % 64);
            let vals: Vec<f64> = (0..n).map(|_| (next() % 7) as f64 - 3.0).collect();
            let left: Vec<bool> = (0..n).map(|_| next() % 2 == 0).collect();
            check_small(&vals, &left);
        }
    }

    #[test]
    fn pool_recycles_buffers() {
        let pool: ScratchPool<SplitScratch> = ScratchPool::new();
        assert_eq!(pool.idle(), 0);
        {
            let mut g1 = pool.acquire();
            let mut g2 = pool.acquire();
            g1.compute(&[1.0], &[0], &[true]);
            g2.compute(&[2.0], &[0], &[false]);
            assert_eq!(pool.idle(), 0);
        }
        assert_eq!(pool.idle(), 2);
        {
            let _g = pool.acquire();
            assert_eq!(pool.idle(), 1);
        }
        assert_eq!(pool.idle(), 2);
    }
}
