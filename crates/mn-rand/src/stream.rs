//! Named, splittable random streams.
//!
//! The determinism contract of the whole system (DESIGN.md §5) is
//! enforced here: every random decision made anywhere in the learner is
//! drawn from a [`Stream`] derived from a [`MasterRng`] by a *logical
//! name* — a [`Domain`] tag plus up to two integer keys — never from a
//! processor rank, thread id, or iteration order. Two executions that
//! make the same logical decisions therefore consume identical random
//! values regardless of how the work is partitioned, which is exactly
//! the property §4.2 of the paper achieves by initializing TRNG with the
//! same seed on all processors and block-splitting the streams.

use crate::splitmix::SplitMix64;
use rand::RngCore;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha12Rng;

/// Logical domains for random streams.
///
/// Each domain corresponds to one source of randomness in the
/// Lemon-Tree algorithm. Keeping them distinct guarantees that, e.g.,
/// adding one extra draw in variable clustering cannot perturb the
/// stream seen by split assignment — which keeps the experiments in
/// `mn-bench` comparable across configurations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Domain {
    /// Random initial assignment of variables to clusters (Alg. 3 line 3).
    InitVarClusters,
    /// Random initial assignment of observations to clusters (Alg. 3 line 5).
    InitObsClusters,
    /// Variable reassignment sweep (Alg. 1, `Reassign-Var-Cluster`).
    ReassignVar,
    /// Variable cluster merging (Alg. 1, `Merge-Var-Cluster`).
    MergeVar,
    /// Observation reassignment sweep (Alg. 2, `Reassign-Obs-Cluster`).
    ReassignObs,
    /// Observation cluster merging (Alg. 2, `Merge-Obs-Cluster`).
    MergeObs,
    /// Observation sampling for regression-tree leaves (Alg. 4).
    TreeObsClusters,
    /// Posterior sampling steps for candidate splits (Alg. 5 lines 6-7).
    SplitPosterior,
    /// Weighted random split selection (Alg. 5 line 12).
    SplitSelectWeighted,
    /// Uniform random split selection (Alg. 5 line 13).
    SplitSelectUniform,
    /// Synthetic data generation (mn-data).
    Synthetic,
    /// Reserved for user extensions / tests.
    User,
}

impl Domain {
    /// A stable 64-bit tag for seed derivation. These values are part of
    /// the on-disk reproducibility contract: changing them changes every
    /// learned network, so they must never be reordered.
    #[inline]
    pub const fn tag(self) -> u64 {
        match self {
            Domain::InitVarClusters => 0x01,
            Domain::InitObsClusters => 0x02,
            Domain::ReassignVar => 0x03,
            Domain::MergeVar => 0x04,
            Domain::ReassignObs => 0x05,
            Domain::MergeObs => 0x06,
            Domain::TreeObsClusters => 0x07,
            Domain::SplitPosterior => 0x08,
            Domain::SplitSelectWeighted => 0x09,
            Domain::SplitSelectUniform => 0x0A,
            Domain::Synthetic => 0x0B,
            Domain::User => 0xFF,
        }
    }
}

/// The master source of randomness for one learning run.
///
/// Cheap to copy; holds only the 64-bit master seed. All processors (or
/// virtual ranks) construct the same `MasterRng`, mirroring the paper's
/// "initializing the PRNG with the same seed on all the processors".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MasterRng {
    seed: u64,
}

impl MasterRng {
    /// Create the master generator for a run.
    pub fn new(seed: u64) -> Self {
        Self { seed }
    }

    /// The master seed (recorded in experiment output for reproducibility).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derive the named stream `(domain, key_a, key_b)`.
    ///
    /// Derivation runs the master seed and the name through SplitMix64 to
    /// produce a 256-bit ChaCha key, so streams with different names are
    /// statistically independent.
    pub fn stream2(&self, domain: Domain, key_a: u64, key_b: u64) -> Stream {
        let mut sm = SplitMix64::new(self.seed);
        // Mix the name into the seed chain. Each component passes through
        // one SplitMix64 output so that sequential keys (0, 1, 2, ...) do
        // not produce correlated ChaCha keys.
        let mut acc = sm.next_u64();
        acc ^= SplitMix64::new(domain.tag().wrapping_add(acc)).next_u64();
        acc ^= SplitMix64::new(key_a.wrapping_add(acc.rotate_left(17))).next_u64();
        acc ^= SplitMix64::new(key_b.wrapping_add(acc.rotate_left(31))).next_u64();
        let mut key_sm = SplitMix64::new(acc);
        let mut key = [0u8; 32];
        key_sm.fill_bytes(&mut key);
        Stream {
            rng: ChaCha12Rng::from_seed(key),
        }
    }

    /// Derive the named stream `(domain, key)`.
    pub fn stream(&self, domain: Domain, key: u64) -> Stream {
        self.stream2(domain, key, 0)
    }
}

/// A deterministic random stream with O(1) jump-ahead.
///
/// Backed by ChaCha12, a counter-mode generator: `jump_to_draw(i)` seeks
/// directly to the i-th 64-bit draw, which is the block-splitting
/// operation the paper relies on ("block splitting the parallel PRNGs
/// ... takes O(1) time", §4.2). A rank that owns block `[lo, hi)` of a
/// logical work list jumps to draw `lo` and consumes `hi - lo` draws,
/// reproducing exactly the values a sequential execution would use for
/// those work items.
#[derive(Debug, Clone)]
pub struct Stream {
    rng: ChaCha12Rng,
}

impl Stream {
    /// Next raw 64-bit draw.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.rng.next_u64()
    }

    /// Next double in `[0, 1)`, using the top 53 bits of one draw.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        // 53-bit mantissa; this is the standard "divide by 2^53" recipe
        // and guarantees next_f64 consumes exactly one 64-bit draw, which
        // the O(1)-jump accounting depends on.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, bound)` without modulo bias.
    ///
    /// Uses Lemire-style rejection; note this may consume more than one
    /// draw, so it must not be used inside block-split loops that assume
    /// one-draw-per-item (use [`Stream::index_one_draw`] there).
    pub fn below(&mut self, bound: usize) -> usize {
        assert!(bound > 0, "below(0) is meaningless");
        let bound = bound as u64;
        let threshold = bound.wrapping_neg() % bound;
        loop {
            let r = self.next_u64();
            let (hi, lo) = {
                let wide = (r as u128) * (bound as u128);
                ((wide >> 64) as u64, wide as u64)
            };
            if lo >= threshold {
                return hi as usize;
            }
        }
    }

    /// Uniform index in `[0, bound)` consuming exactly one draw.
    ///
    /// Has a bias of at most `bound / 2^64`, which is negligible for the
    /// list sizes that occur here (≤ n·m), and keeps the
    /// one-draw-per-item invariant needed for O(1) block splitting.
    #[inline]
    pub fn index_one_draw(&mut self, bound: usize) -> usize {
        debug_assert!(bound > 0);
        let wide = (self.next_u64() as u128) * (bound as u128);
        (wide >> 64) as usize
    }

    /// Jump so the next draw is logical draw number `i` of this stream.
    ///
    /// O(1): seeks the ChaCha counter. Draw numbering counts 64-bit
    /// outputs from stream construction.
    pub fn jump_to_draw(&mut self, i: u64) {
        crate::observe::note_jump(i);
        // ChaCha word position is counted in 32-bit words; one u64 draw
        // consumes two words.
        self.rng.set_word_pos((i as u128) * 2);
    }

    /// The current logical draw position (64-bit draws consumed).
    pub fn draw_pos(&self) -> u64 {
        (self.rng.get_word_pos() / 2) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_name_same_stream() {
        let m = MasterRng::new(7);
        let mut a = m.stream(Domain::ReassignVar, 3);
        let mut b = m.stream(Domain::ReassignVar, 3);
        for _ in 0..32 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_names_differ() {
        let m = MasterRng::new(7);
        let mut a = m.stream(Domain::ReassignVar, 3);
        let mut b = m.stream(Domain::ReassignVar, 4);
        let mut c = m.stream(Domain::MergeVar, 3);
        let (x, y, z) = (a.next_u64(), b.next_u64(), c.next_u64());
        assert_ne!(x, y);
        assert_ne!(x, z);
        assert_ne!(y, z);
    }

    #[test]
    fn different_seeds_differ() {
        let a = MasterRng::new(1).stream(Domain::User, 0).next_u64();
        let b = MasterRng::new(2).stream(Domain::User, 0).next_u64();
        assert_ne!(a, b);
    }

    #[test]
    fn jump_to_draw_matches_sequential() {
        let m = MasterRng::new(99);
        let mut seq = m.stream(Domain::SplitPosterior, 0);
        let values: Vec<u64> = (0..64).map(|_| seq.next_u64()).collect();

        for start in [0u64, 1, 7, 32, 63] {
            let mut jumped = m.stream(Domain::SplitPosterior, 0);
            jumped.jump_to_draw(start);
            assert_eq!(jumped.next_u64(), values[start as usize], "start={start}");
        }
    }

    #[test]
    fn block_split_reconstructs_sequential_stream() {
        // The core parallel-PRNG property: p ranks covering blocks of a
        // stream reproduce the sequential stream exactly.
        let m = MasterRng::new(123);
        let total = 100;
        let mut seq = m.stream(Domain::ReassignObs, 9);
        let sequential: Vec<u64> = (0..total).map(|_| seq.next_u64()).collect();

        for p in [1usize, 2, 3, 7, 10] {
            let mut stitched = Vec::with_capacity(total);
            for r in 0..p {
                let lo = r * total / p;
                let hi = (r + 1) * total / p;
                let mut s = m.stream(Domain::ReassignObs, 9);
                s.jump_to_draw(lo as u64);
                for _ in lo..hi {
                    stitched.push(s.next_u64());
                }
            }
            assert_eq!(stitched, sequential, "p={p}");
        }
    }

    #[test]
    fn next_f64_is_unit_interval_and_one_draw() {
        let m = MasterRng::new(5);
        let mut s = m.stream(Domain::User, 1);
        for i in 0..1000u64 {
            assert_eq!(s.draw_pos(), i);
            let x = s.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn below_is_in_range() {
        let m = MasterRng::new(5);
        let mut s = m.stream(Domain::User, 2);
        for bound in [1usize, 2, 3, 10, 1000] {
            for _ in 0..200 {
                assert!(s.below(bound) < bound);
            }
        }
    }

    #[test]
    fn index_one_draw_consumes_exactly_one() {
        let m = MasterRng::new(5);
        let mut s = m.stream(Domain::User, 3);
        for i in 0..100 {
            assert_eq!(s.draw_pos(), i);
            let v = s.index_one_draw(17);
            assert!(v < 17);
        }
    }

    #[test]
    fn below_covers_all_residues() {
        let m = MasterRng::new(11);
        let mut s = m.stream(Domain::User, 4);
        let mut seen = [false; 8];
        for _ in 0..500 {
            seen[s.below(8)] = true;
        }
        assert!(seen.iter().all(|&b| b), "all residues should appear");
    }
}
