//! Batched candidate-scoring primitives for the GaneSH Gibbs sweeps.
//!
//! The sweeps of Algorithms 1–2 score, for one variable (or
//! observation), every candidate cluster it could move to. Each
//! candidate's weight decomposes into tile-local *terms*:
//!
//! * the **removal term** of a tile the item currently contributes to:
//!   `lm(tile − item) − lm(tile)`;
//! * the **addition term** of a candidate tile:
//!   `lm(tile + item) − lm(tile)`;
//! * the **merge-gain term** of two tiles:
//!   `(lm(a ∪ b) − lm(a)) − lm(b)`.
//!
//! The naive path recomputes the item's statistics and both
//! log-marginals for every candidate. The kernel path reads `lm(tile)`
//! from the co-clustering state, which stores it next to the tile's
//! statistics and refreshes it whenever they change, so a candidate
//! tile costs the item's statistics plus one normal-gamma evaluation.
//!
//! **Bit-identity argument.** Both paths call the *same* term
//! functions below with the *same* argument bits: the item statistics
//! are produced by the identical accumulation loops (same element
//! order) the naive path runs, and a stored `lm(tile)` is the output
//! of the pure function `NormalGamma::log_marginal` on the identical
//! `SuffStats` bits — storing it cannot change it. The kernel path
//! evaluates the terms against a [`PriorConsts`] (the prior-only
//! subexpressions of the marginal computed once per sweep, and the
//! count-only ones read from tables of the same values, substituted
//! into the same expression in the same order), the naive path against
//! the [`NormalGamma`] itself. Since each term is one
//! fixed floating-point expression and the per-tile terms are
//! accumulated in the same (slot) order, every candidate weight is
//! bit-identical between the two paths; identical weights feed
//! identical `Select-Wtd-Rand` draws, so the sampled clustering is
//! byte-identical. DESIGN.md §9 spells the argument out.

use crate::normal_gamma::{NormalGamma, PriorConsts};
use crate::suffstats::SuffStats;

/// The one thing a term needs from the prior: a block's log-marginal.
/// The naive oracle passes the [`NormalGamma`] itself; the kernel
/// path passes the sweep's [`PriorConsts`], which returns the same
/// bits without re-evaluating the prior-only subexpressions.
pub trait LogMarginal {
    /// `ln p(block)`.
    fn log_marginal(&self, stats: &SuffStats) -> f64;
}

impl LogMarginal for NormalGamma {
    #[inline]
    fn log_marginal(&self, stats: &SuffStats) -> f64 {
        NormalGamma::log_marginal(self, stats)
    }
}

impl LogMarginal for PriorConsts {
    #[inline]
    fn log_marginal(&self, stats: &SuffStats) -> f64 {
        PriorConsts::log_marginal(self, stats)
    }
}

/// Score change of removing `item` from `tile`, given `lm_tile =
/// log_marginal(tile)`: `lm(tile − item) − lm_tile`.
#[inline]
pub fn removal_term(
    prior: &impl LogMarginal,
    tile: &SuffStats,
    item: &SuffStats,
    lm_tile: f64,
) -> f64 {
    let mut without = *tile;
    without.unmerge(item);
    prior.log_marginal(&without) - lm_tile
}

/// Score change of adding `item` to `tile`, given `lm_tile =
/// log_marginal(tile)`: `lm(tile + item) − lm_tile`.
#[inline]
pub fn addition_term(
    prior: &impl LogMarginal,
    tile: &SuffStats,
    item: &SuffStats,
    lm_tile: f64,
) -> f64 {
    prior.log_marginal(&SuffStats::merged(tile, item)) - lm_tile
}

/// Score change of merging tiles `a` and `b`, given their
/// log-marginals: `(lm(a ∪ b) − lm_a) − lm_b` — the exact expression
/// (and left-to-right association) of
/// [`NormalGamma::log_merge_gain`].
#[inline]
pub fn merge_gain_term(
    prior: &impl LogMarginal,
    a: &SuffStats,
    b: &SuffStats,
    lm_a: f64,
    lm_b: f64,
) -> f64 {
    prior.log_marginal(&SuffStats::merged(a, b)) - lm_a - lm_b
}

/// A dense, epoch-validated memo table `[row][col] → V` with hit/miss
/// accounting.
///
/// The sweeps key their caches by small dense indices (variable,
/// cluster slot, observation), so a cell is one indexed load — no
/// hashing, no per-entry allocation, and dropping the table frees one
/// `Vec` per row. Rows are allocated on first write, at the widest
/// width seen so far.
///
/// Each cell is stamped with the *epoch* of the state it was computed
/// from; the caller bumps an epoch counter whenever an accepted move
/// invalidates the cells that depend on it, which makes invalidation
/// O(1) regardless of how many cells the epoch guards (stale cells are
/// simply recomputed on next access). Hit/miss totals feed the
/// deterministic `gibbs.cache_*` counters, so lookups must only happen
/// in replicated control flow.
#[derive(Debug, Clone)]
pub struct EpochTable<V> {
    /// `(epoch + 1, value)`; tag 0 marks a cell never written.
    rows: Vec<Vec<(u64, V)>>,
    width: usize,
    hits: u64,
    misses: u64,
}

impl<V> Default for EpochTable<V> {
    fn default() -> Self {
        Self {
            rows: Vec::new(),
            width: 0,
            hits: 0,
            misses: 0,
        }
    }
}

impl<V: Copy> EpochTable<V> {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// The value at `(row, col)` at `epoch`, computing (and storing) it
    /// with `compute` if absent or stale.
    pub fn fetch(&mut self, row: usize, col: usize, epoch: u64, compute: impl FnOnce() -> V) -> V {
        if let Some(v) = self.get(row, col, epoch) {
            return v;
        }
        let v = compute();
        self.insert(row, col, epoch, v);
        v
    }

    /// The value at `(row, col)` if present at exactly `epoch`,
    /// counting a hit or a miss either way. Pair with
    /// [`EpochTable::insert`] when the value is produced elsewhere
    /// (e.g. inside the block-partitioned loop) and stored back
    /// afterwards.
    pub fn get(&mut self, row: usize, col: usize, epoch: u64) -> Option<V> {
        match self.rows.get(row).and_then(|r| r.get(col)) {
            Some(&(tag, v)) if tag == epoch + 1 => {
                self.hits += 1;
                Some(v)
            }
            _ => {
                self.misses += 1;
                None
            }
        }
    }

    /// Store `value` at `(row, col)` at `epoch` without touching the
    /// hit/miss totals (the miss was already counted by the failed
    /// [`EpochTable::get`]).
    pub fn insert(&mut self, row: usize, col: usize, epoch: u64, value: V) {
        if row >= self.rows.len() {
            self.rows.resize_with(row + 1, Vec::new);
        }
        self.width = self.width.max(col + 1);
        let cells = &mut self.rows[row];
        if col >= cells.len() {
            // The filler's value is never read: its tag is 0.
            cells.resize(self.width, (0, value));
        }
        cells[col] = (epoch + 1, value);
    }

    /// Every written cell, stale ones included, for validation:
    /// `((row, col), epoch, value)`.
    pub fn entries(&self) -> impl Iterator<Item = ((usize, usize), u64, &V)> {
        self.rows.iter().enumerate().flat_map(|(r, cells)| {
            cells
                .iter()
                .enumerate()
                .filter(|(_, (tag, _))| *tag != 0)
                .map(move |(c, (tag, v))| ((r, c), tag - 1, v))
        })
    }

    /// Lookups served from the table so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that had to compute (absent or stale cell).
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prior() -> NormalGamma {
        NormalGamma::default()
    }

    #[test]
    fn removal_term_matches_inline_expression() {
        let p = prior();
        let tile = SuffStats::from_values(&[1.0, 2.5, -0.5, 3.0]);
        let item = SuffStats::from_values(&[2.5]);
        let lm_tile = p.log_marginal(&tile);
        let expect = {
            let mut without = tile;
            without.unmerge(&item);
            p.log_marginal(&without) - p.log_marginal(&tile)
        };
        assert_eq!(
            removal_term(&p, &tile, &item, lm_tile).to_bits(),
            expect.to_bits()
        );
    }

    #[test]
    fn addition_term_matches_inline_expression() {
        let p = prior();
        let tile = SuffStats::from_values(&[1.0, 2.5, -0.5]);
        let item = SuffStats::from_values(&[0.25, 4.0]);
        let lm_tile = p.log_marginal(&tile);
        let expect =
            p.log_marginal(&SuffStats::merged(&tile, &item)) - p.log_marginal(&tile);
        assert_eq!(
            addition_term(&p, &tile, &item, lm_tile).to_bits(),
            expect.to_bits()
        );
    }

    #[test]
    fn merge_gain_term_matches_log_merge_gain() {
        let p = prior();
        let a = SuffStats::from_values(&[1.0, 2.0, 3.0]);
        let b = SuffStats::from_values(&[-1.0, 0.5]);
        let got = merge_gain_term(&p, &a, &b, p.log_marginal(&a), p.log_marginal(&b));
        assert_eq!(got.to_bits(), p.log_merge_gain(&a, &b).to_bits());
    }

    #[test]
    fn epoch_table_hits_and_invalidates() {
        let mut c: EpochTable<f64> = EpochTable::new();
        assert_eq!(c.fetch(2, 7, 0, || 1.5), 1.5);
        assert_eq!((c.hits(), c.misses()), (0, 1));
        // Same epoch: served from the table, compute not called.
        assert_eq!(c.fetch(2, 7, 0, || unreachable!()), 1.5);
        assert_eq!((c.hits(), c.misses()), (1, 1));
        // Bumped epoch: stale, recomputed.
        assert_eq!(c.fetch(2, 7, 1, || 2.5), 2.5);
        assert_eq!((c.hits(), c.misses()), (1, 2));
        assert_eq!(c.fetch(2, 7, 1, || unreachable!()), 2.5);
        assert_eq!((c.hits(), c.misses()), (2, 2));
        // Never-written cells miss: inside a row, past its end, and in
        // a row that does not exist — the filler a row grows by is not
        // an entry.
        assert_eq!(c.get(2, 3, 0), None);
        assert_eq!(c.get(2, 9, 0), None);
        assert_eq!(c.get(5, 0, 0), None);
        assert_eq!((c.hits(), c.misses()), (2, 5));
        let all: Vec<_> = c.entries().map(|(k, e, &v)| (k, e, v)).collect();
        assert_eq!(all, vec![((2, 7), 1, 2.5)]);
    }

    #[test]
    fn epoch_table_get_insert_round_trip() {
        let mut c: EpochTable<f64> = EpochTable::new();
        assert_eq!(c.get(0, 3, 0), None);
        assert_eq!((c.hits(), c.misses()), (0, 1));
        c.insert(0, 3, 0, 9.0);
        assert_eq!((c.hits(), c.misses()), (0, 1), "insert must not count");
        assert_eq!(c.get(0, 3, 0), Some(9.0));
        assert_eq!((c.hits(), c.misses()), (1, 1));
        // Stale epoch: miss, and a fresh insert replaces the entry.
        assert_eq!(c.get(0, 3, 1), None);
        c.insert(0, 3, 1, 10.0);
        assert_eq!(c.get(0, 3, 1), Some(10.0));
        assert_eq!(c.get(0, 3, 0), None, "the old epoch is gone");
    }
}
