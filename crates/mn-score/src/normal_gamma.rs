//! Normal-gamma Bayesian marginal likelihood.
//!
//! GaneSH (Joshi et al. 2008) scores a co-clustering with a
//! decomposable Bayesian score: the sum over tiles (variable cluster ×
//! observation cluster) of the marginal log-likelihood of the tile's
//! values under a Gaussian model with unknown mean and precision and a
//! conjugate normal-gamma prior. The same marginal scores
//! regression-tree nodes and splits in the module-learning task. This
//! module implements that marginal in closed form.
//!
//! With prior `μ, τ ~ NormalGamma(μ₀, λ₀, α₀, β₀)` and data summarized
//! by [`SuffStats`] `(N, Σx, Σx²)`:
//!
//! ```text
//! λ_N = λ₀ + N          α_N = α₀ + N/2
//! β_N = β₀ + ½ Σ(x-x̄)² + λ₀ N (x̄-μ₀)² / (2 λ_N)
//! ln p(data) = ln Γ(α_N) - ln Γ(α₀) + α₀ ln β₀ - α_N ln β_N
//!              + ½ (ln λ₀ - ln λ_N) - (N/2) ln(2π)
//! ```

use crate::special::ln_gamma;
use crate::suffstats::SuffStats;
use serde::{Deserialize, Serialize};
use std::f64::consts::PI;

/// Conjugate normal-gamma prior over a Gaussian's (mean, precision).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NormalGamma {
    /// Prior mean μ₀.
    pub mu0: f64,
    /// Prior pseudo-count on the mean, λ₀ > 0.
    pub lambda0: f64,
    /// Gamma shape α₀ > 0.
    pub alpha0: f64,
    /// Gamma rate β₀ > 0.
    pub beta0: f64,
}

impl Default for NormalGamma {
    /// The weakly-informative default used throughout the experiments:
    /// zero prior mean (data is standardized), 0.1 pseudo-observations,
    /// and a unit-scale prior on the variance. Matches the spirit of
    /// Lemon-Tree's defaults (normalized expression data, vague prior).
    fn default() -> Self {
        Self {
            mu0: 0.0,
            lambda0: 0.1,
            alpha0: 0.1,
            beta0: 0.1,
        }
    }
}

impl NormalGamma {
    /// Validate the prior (all concentration parameters positive).
    pub fn validated(self) -> Result<Self, String> {
        let positive = |x: f64| x.is_finite() && x > 0.0;
        if !positive(self.lambda0) || !positive(self.alpha0) || !positive(self.beta0) {
            return Err(format!(
                "normal-gamma prior parameters must be positive: {self:?}"
            ));
        }
        if !self.mu0.is_finite() {
            return Err(format!("prior mean must be finite: {self:?}"));
        }
        Ok(self)
    }

    /// Marginal log-likelihood `ln p(data)` of a block.
    ///
    /// The empty block scores exactly 0 (`p(∅) = 1`), which makes the
    /// co-clustering score decomposable and lets moves create/destroy
    /// clusters without special cases. Evaluated by [`PriorConsts`]'
    /// expression with every term computed directly, so there is one
    /// copy of it.
    pub fn log_marginal(&self, stats: &SuffStats) -> f64 {
        PriorConsts::new(self).marginal(
            stats,
            |_, alpha_n| ln_gamma(alpha_n),
            |_, lambda_n| lambda_n.ln(),
        )
    }

    /// Marginal log-likelihood of a raw slice of values.
    pub fn log_marginal_values(&self, values: &[f64]) -> f64 {
        self.log_marginal(&SuffStats::from_values(values))
    }

    /// Log posterior-predictive density of one further value `x` after
    /// observing `stats` — a Student-t density. Used by tests to verify
    /// the chain-rule consistency of [`NormalGamma::log_marginal`], and
    /// by the split-posterior sampler as a per-observation score.
    pub fn log_predictive(&self, stats: &SuffStats, x: f64) -> f64 {
        let mut with_x = *stats;
        with_x.add(x);
        self.log_marginal(&with_x) - self.log_marginal(stats)
    }

    /// Bayes-factor style merge score used by hierarchical clustering:
    /// `ln p(a ∪ b) - ln p(a) - ln p(b)`. Positive values mean the
    /// merged model explains the data better than keeping the blocks
    /// separate.
    pub fn log_merge_gain(&self, a: &SuffStats, b: &SuffStats) -> f64 {
        self.log_marginal(&SuffStats::merged(a, b)) - self.log_marginal(a) - self.log_marginal(b)
    }
}

/// A prior together with the data-independent terms of its marginal —
/// `ln Γ(α₀)`, `α₀·ln β₀`, `ln λ₀`, `ln 2π` — evaluated once, plus
/// count-indexed tables of the two count-only terms, `ln Γ(α₀ + k/2)`
/// and `ln(λ₀ + k)`.
///
/// This type owns the one copy of the normal-gamma marginal
/// expression; [`NormalGamma::log_marginal`] evaluates it through
/// here.
///
/// A Gibbs sweep scores hundreds of candidate tiles per proposal under
/// one fixed prior; at the default `α₀ = 0.1` the `ln Γ(α₀)` alone
/// takes the reflection branch of [`ln_gamma`] (a `sin`, two `ln` and a
/// second Lanczos series) per evaluation, and `ln Γ(α_N)` is a Lanczos
/// series per tile. The tables start empty and only grow through
/// [`PriorConsts::grow_through`], which takes `&mut self`: inside a
/// parallel map they are a plain read-only slice, shared by every rank
/// without a lock. A count past the end is evaluated directly.
///
/// Every form is bit-identical to the direct one: each stored value is
/// the output of the same pure subexpression on the same inputs (cell
/// `k` is `ln_gamma(α₀ + 0.5·k)` resp. `(λ₀ + k).ln()`, and `k as f64`
/// is exactly the `N` the direct form converts), substituted into the
/// same expression in the same order. So the table's size never
/// changes a bit of any result.
#[derive(Debug, Clone)]
pub struct PriorConsts {
    prior: NormalGamma,
    ln_gamma_alpha0: f64,
    alpha0_ln_beta0: f64,
    ln_lambda0: f64,
    ln_2pi: f64,
    /// `ln Γ(α₀ + k/2)` at index `k`.
    ln_gamma_n: Vec<f64>,
    /// `ln(λ₀ + k)` at index `k`, the same length as `ln_gamma_n`.
    ln_lambda_n: Vec<f64>,
}

impl PriorConsts {
    /// Evaluate the prior-only terms of `prior`'s marginal. The count
    /// tables start empty (no allocation).
    ///
    /// # Panics
    /// Panics unless the shape `α₀` is positive and finite.
    #[inline]
    pub fn new(prior: &NormalGamma) -> Self {
        assert!(
            prior.alpha0.is_finite() && prior.alpha0 > 0.0,
            "prior shape must be positive and finite, got {}",
            prior.alpha0
        );
        Self {
            prior: *prior,
            ln_gamma_alpha0: ln_gamma(prior.alpha0),
            alpha0_ln_beta0: prior.alpha0 * prior.beta0.ln(),
            ln_lambda0: prior.lambda0.ln(),
            ln_2pi: (2.0 * PI).ln(),
            ln_gamma_n: Vec::new(),
            ln_lambda_n: Vec::new(),
        }
    }

    /// The normal-gamma marginal expression (module docs), with the
    /// two count-dependent terms supplied by `ln_gamma_n(N, α_N)` and
    /// `ln_lambda_n(N, λ_N)`.
    #[inline]
    fn marginal(
        &self,
        stats: &SuffStats,
        ln_gamma_n: impl FnOnce(usize, f64) -> f64,
        ln_lambda_n: impl FnOnce(usize, f64) -> f64,
    ) -> f64 {
        if stats.is_empty() {
            return 0.0;
        }
        let p = &self.prior;
        let k = stats.count() as usize;
        let n = stats.count() as f64;
        let mean = stats.mean();
        let lambda_n = p.lambda0 + n;
        let alpha_n = p.alpha0 + 0.5 * n;
        let dm = mean - p.mu0;
        let beta_n =
            p.beta0 + 0.5 * stats.centered_sumsq() + p.lambda0 * n * dm * dm / (2.0 * lambda_n);
        ln_gamma_n(k, alpha_n) - self.ln_gamma_alpha0 + self.alpha0_ln_beta0
            - alpha_n * beta_n.ln()
            + 0.5 * (self.ln_lambda0 - ln_lambda_n(k, lambda_n))
            - 0.5 * n * self.ln_2pi
    }

    /// [`NormalGamma::log_marginal`] with the prior-only terms read
    /// from `self` and the count terms read from the tables when the
    /// count is inside them.
    #[inline]
    pub fn log_marginal(&self, stats: &SuffStats) -> f64 {
        self.marginal(
            stats,
            |k, alpha_n| match self.ln_gamma_n.get(k) {
                Some(&v) => v,
                None => ln_gamma(alpha_n),
            },
            |k, lambda_n| match self.ln_lambda_n.get(k) {
                Some(&v) => v,
                None => lambda_n.ln(),
            },
        )
    }

    /// Whether count `k` is served from the tables.
    pub fn covers(&self, k: u64) -> bool {
        k < self.ln_gamma_n.len() as u64
    }

    /// Extend both tables through count `k` (a no-op when they already
    /// cover it) and return the number of cells newly filled. Callers
    /// grow in replicated control flow, never inside a parallel map,
    /// so the fill pattern is the same on every engine and rank count.
    pub fn grow_through(&mut self, k: usize) -> usize {
        let before = self.ln_gamma_n.len();
        for i in before..=k {
            let n = i as f64;
            self.ln_gamma_n.push(ln_gamma(self.prior.alpha0 + 0.5 * n));
            self.ln_lambda_n.push((self.prior.lambda0 + n).ln());
        }
        self.ln_gamma_n.len() - before
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn prior() -> NormalGamma {
        NormalGamma::default()
    }

    #[test]
    fn empty_scores_zero() {
        assert_eq!(prior().log_marginal(&SuffStats::empty()), 0.0);
    }

    #[test]
    fn single_point_matches_direct_integral() {
        // For one observation, the marginal is a Student-t density:
        // p(x) = t_{2α₀}(x | μ₀, β₀(λ₀+1)/(α₀ λ₀)).
        let p = NormalGamma {
            mu0: 0.5,
            lambda0: 2.0,
            alpha0: 3.0,
            beta0: 1.5,
        };
        let x = 1.25;
        let got = p.log_marginal_values(&[x]);

        let nu = 2.0 * p.alpha0;
        let scale2 = p.beta0 * (p.lambda0 + 1.0) / (p.alpha0 * p.lambda0);
        let z = (x - p.mu0) * (x - p.mu0) / scale2;
        let want = ln_gamma((nu + 1.0) / 2.0)
            - ln_gamma(nu / 2.0)
            - 0.5 * (nu * PI * scale2).ln()
            - (nu + 1.0) / 2.0 * (1.0 + z / nu).ln();
        assert!((got - want).abs() < 1e-10, "{got} vs {want}");
    }

    #[test]
    fn chain_rule_consistency() {
        // ln p(x1..xk) must equal Σ_i ln p(x_i | x_1..x_{i-1}).
        let p = prior();
        let xs = [0.3, -1.2, 2.5, 0.0, 0.9];
        let joint = p.log_marginal_values(&xs);
        let mut acc = 0.0;
        let mut stats = SuffStats::empty();
        for &x in &xs {
            acc += p.log_predictive(&stats, x);
            stats.add(x);
        }
        assert!((joint - acc).abs() < 1e-10, "{joint} vs {acc}");
    }

    #[test]
    fn order_invariance() {
        let p = prior();
        let a = p.log_marginal_values(&[1.0, 2.0, 3.0]);
        let b = p.log_marginal_values(&[3.0, 1.0, 2.0]);
        assert!((a - b).abs() < 1e-12);
    }

    #[test]
    fn tight_cluster_beats_dispersed() {
        // A block of near-identical values must score higher than a
        // dispersed block of the same size: this is what drives
        // correlated variables into the same module.
        let p = prior();
        let tight = p.log_marginal_values(&[1.0, 1.01, 0.99, 1.0, 1.02]);
        let spread = p.log_marginal_values(&[-3.0, 2.0, 7.0, -5.0, 4.0]);
        assert!(tight > spread);
    }

    #[test]
    fn merge_gain_positive_for_same_distribution() {
        // Two halves of one homogeneous sample: merging should win.
        let p = prior();
        let a = SuffStats::from_values(&[0.1, -0.2, 0.05, 0.12]);
        let b = SuffStats::from_values(&[-0.08, 0.15, -0.11, 0.02]);
        assert!(p.log_merge_gain(&a, &b) > 0.0);
    }

    #[test]
    fn merge_gain_negative_for_separated_clusters() {
        // Two well-separated tight clusters: keeping them apart wins.
        let p = prior();
        let a = SuffStats::from_values(&[10.0, 10.1, 9.9, 10.05]);
        let b = SuffStats::from_values(&[-10.0, -9.9, -10.1, -10.02]);
        assert!(p.log_merge_gain(&a, &b) < 0.0);
    }

    #[test]
    fn validation_rejects_bad_priors() {
        assert!(NormalGamma {
            lambda0: 0.0,
            ..prior()
        }
        .validated()
        .is_err());
        assert!(NormalGamma {
            alpha0: -1.0,
            ..prior()
        }
        .validated()
        .is_err());
        assert!(NormalGamma {
            mu0: f64::NAN,
            ..prior()
        }
        .validated()
        .is_err());
        assert!(prior().validated().is_ok());
    }

    #[test]
    fn table_backed_marginal_is_bit_identical() {
        let p = prior();
        let mut consts = PriorConsts::new(&p);
        consts.grow_through(64);
        let samples: Vec<Vec<f64>> = vec![
            vec![],
            vec![0.7],
            vec![0.3, -1.2, 2.5, 0.0, 0.9],
            (0..57).map(|i| (i as f64) * 0.37 - 9.0).collect(),
        ];
        for xs in &samples {
            let stats = SuffStats::from_values(xs);
            let direct = p.log_marginal(&stats);
            let memo = consts.log_marginal(&stats);
            assert_eq!(memo.to_bits(), direct.to_bits(), "n={}", xs.len());
        }
    }

    #[test]
    fn table_backed_merge_gain_is_bit_identical() {
        // The tree-merge phase's gain: three table-served marginals.
        let p = prior();
        let mut consts = PriorConsts::new(&p);
        let a = SuffStats::from_values(&[0.1, -0.2, 0.05, 0.12]);
        let b = SuffStats::from_values(&[-0.08, 0.15, -0.11]);
        consts.grow_through((a.count() + b.count()) as usize);
        let gain = consts.log_marginal(&SuffStats::merged(&a, &b))
            - consts.log_marginal(&a)
            - consts.log_marginal(&b);
        assert_eq!(gain.to_bits(), p.log_merge_gain(&a, &b).to_bits());
    }

    #[test]
    fn batch_matches_single_block_calls() {
        // `coclustering_score` scores every tile through one grown
        // `PriorConsts`; the total carries the bits of the per-tile
        // direct marginals summed in tile order.
        let d = mn_data::Dataset::new(
            mn_data::Matrix::from_vec(3, 6, (0..18).map(|i| (i as f64 * 0.7).sin()).collect()),
            None,
            None,
        );
        let p = prior();
        let var_clusters = vec![vec![0, 2], vec![1], vec![]];
        let obs_partitions = vec![
            vec![vec![0, 1, 2], vec![3], vec![4, 5]],
            vec![vec![0, 1, 2, 3, 4, 5]],
            vec![],
        ];
        let mut want = 0.0;
        for (vars, obs_clusters) in var_clusters.iter().zip(&obs_partitions) {
            for obs in obs_clusters {
                want += p.log_marginal(&crate::tile_stats(&d, vars, obs));
            }
        }
        let got = crate::coclustering_score(&p, &d, &var_clusters, &obs_partitions);
        assert_eq!(got.to_bits(), want.to_bits());
    }

    proptest! {
        #[test]
        fn prop_table_backed_marginal_bits(xs in prop::collection::vec(-1e2f64..1e2, 0..60)) {
            let p = prior();
            let mut consts = PriorConsts::new(&p);
            consts.grow_through(xs.len());
            let stats = SuffStats::from_values(&xs);
            prop_assert_eq!(
                consts.log_marginal(&stats).to_bits(),
                p.log_marginal(&stats).to_bits()
            );
        }

        #[test]
        fn prop_marginal_is_finite(xs in prop::collection::vec(-1e2f64..1e2, 1..60)) {
            let v = prior().log_marginal_values(&xs);
            prop_assert!(v.is_finite());
        }

        #[test]
        fn prop_chain_rule(xs in prop::collection::vec(-50f64..50.0, 1..25)) {
            let p = prior();
            let joint = p.log_marginal_values(&xs);
            let mut acc = 0.0;
            let mut stats = SuffStats::empty();
            for &x in &xs {
                acc += p.log_predictive(&stats, x);
                stats.add(x);
            }
            prop_assert!((joint - acc).abs() < 1e-7 * joint.abs().max(1.0));
        }

        #[test]
        fn prop_merge_gain_symmetric(
            xs in prop::collection::vec(-10f64..10.0, 1..20),
            ys in prop::collection::vec(-10f64..10.0, 1..20),
        ) {
            let p = prior();
            let a = SuffStats::from_values(&xs);
            let b = SuffStats::from_values(&ys);
            let g1 = p.log_merge_gain(&a, &b);
            let g2 = p.log_merge_gain(&b, &a);
            prop_assert!((g1 - g2).abs() < 1e-9);
        }
    }
}
