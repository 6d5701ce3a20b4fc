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
}
