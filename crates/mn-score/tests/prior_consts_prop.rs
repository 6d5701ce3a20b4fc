//! Bit identity of the hoisted-constant scoring path: the Gibbs term
//! functions evaluated through a [`PriorConsts`] must equal the
//! [`NormalGamma::log_marginal`]-based originals on `to_bits()` for
//! every prior shape — on both sides of the `α₀ < 0.5` reflection
//! branch of `ln Γ` — including empty blocks (exactly `0.0`) and
//! counts far past anything an `ln Γ` memo table would hold. This is
//! the invariant that lets the kernel sweeps sample the naive path's
//! exact chain (DESIGN.md §9).
//!
//! Every marginal form evaluates one expression in `PriorConsts`, so
//! the oracle below is an independent copy of the closed form: the
//! count-table form and `NormalGamma::log_marginal` must both reproduce
//! its bits, with counts inside and past the tables' filled range.

use mn_score::gibbs_kernel::{addition_term, merge_gain_term, removal_term};
use mn_score::{ln_gamma, NormalGamma, PriorConsts, SuffStats};
use proptest::prelude::*;
use std::f64::consts::PI;

/// The normal-gamma marginal written out directly, every term
/// evaluated in place.
fn direct_log_marginal(p: &NormalGamma, stats: &SuffStats) -> f64 {
    let n = stats.count() as f64;
    if stats.is_empty() {
        return 0.0;
    }
    let mean = stats.mean();
    let lambda_n = p.lambda0 + n;
    let alpha_n = p.alpha0 + 0.5 * n;
    let dm = mean - p.mu0;
    let beta_n =
        p.beta0 + 0.5 * stats.centered_sumsq() + p.lambda0 * n * dm * dm / (2.0 * lambda_n);
    ln_gamma(alpha_n) - ln_gamma(p.alpha0) + p.alpha0 * p.beta0.ln() - alpha_n * beta_n.ln()
        + 0.5 * (p.lambda0.ln() - lambda_n.ln())
        - 0.5 * n * (2.0 * PI).ln()
}

/// Every table-backed and direct form of `prior`'s marginal of `stats`
/// carries the oracle's bits, with the count tables grown through
/// `fill`.
fn assert_all_forms_match(prior: &NormalGamma, stats: &SuffStats, fill: usize) {
    let want = direct_log_marginal(prior, stats).to_bits();
    let mut consts = PriorConsts::new(prior);
    assert_eq!(consts.log_marginal(stats).to_bits(), want, "empty tables");
    assert_eq!(consts.grow_through(fill), fill + 1);
    assert_eq!(consts.covers(stats.count()), stats.count() <= fill as u64);
    assert_eq!(
        consts.log_marginal(stats).to_bits(),
        want,
        "tables through {fill}, count {}",
        stats.count()
    );
    assert_eq!(
        prior.log_marginal(stats).to_bits(),
        want,
        "NormalGamma::log_marginal"
    );
}

/// `values` repeated `2^doublings` times: large counts without large
/// inputs.
fn block(values: &[f64], doublings: u32) -> SuffStats {
    let mut s = SuffStats::from_values(values);
    for _ in 0..doublings {
        let copy = s;
        s.merge(&copy);
    }
    s
}

fn arb_prior() -> impl Strategy<Value = NormalGamma> {
    (-5.0f64..5.0, 1e-3f64..20.0, 1e-3f64..50.0, 1e-3f64..20.0).prop_map(
        |(mu0, lambda0, alpha0, beta0)| NormalGamma {
            mu0,
            lambda0,
            alpha0,
            beta0,
        },
    )
}

fn arb_block() -> impl Strategy<Value = SuffStats> {
    (prop::collection::vec(-100.0f64..100.0, 0..40), 0u32..14)
        .prop_map(|(values, doublings)| block(&values, doublings))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn prop_hoisted_terms_equal_direct_terms_bitwise(
        prior in arb_prior(),
        tile in arb_block(),
        item in arb_block(),
    ) {
        let consts = PriorConsts::new(&prior);
        for s in [&tile, &item] {
            prop_assert_eq!(
                consts.log_marginal(s).to_bits(),
                prior.log_marginal(s).to_bits(),
                "log_marginal, count {}", s.count()
            );
        }
        let lm_tile = prior.log_marginal(&tile);
        let lm_item = prior.log_marginal(&item);
        prop_assert_eq!(
            addition_term(&consts, &tile, &item, lm_tile).to_bits(),
            addition_term(&prior, &tile, &item, lm_tile).to_bits(),
            "addition term"
        );
        prop_assert_eq!(
            merge_gain_term(&consts, &tile, &item, lm_tile, lm_item).to_bits(),
            merge_gain_term(&prior, &tile, &item, lm_tile, lm_item).to_bits(),
            "merge-gain term"
        );
        // Removal needs the item inside the tile.
        let with = SuffStats::merged(&tile, &item);
        let lm_with = prior.log_marginal(&with);
        prop_assert_eq!(
            removal_term(&consts, &with, &item, lm_with).to_bits(),
            removal_term(&prior, &with, &item, lm_with).to_bits(),
            "removal term"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Counts inside the filled range (`fill ≥ count`) and past it.
    #[test]
    fn prop_table_backed_marginal_equals_direct_form_bitwise(
        prior in arb_prior(),
        stats in arb_block(),
        fill_frac in 0.0f64..2.0,
    ) {
        let fill = (stats.count() as f64 * fill_frac) as usize;
        assert_all_forms_match(&prior, &stats, fill);
    }
}

/// The same on fixed shapes either side of the reflection branch
/// (`α₀ < 0.5` takes it for `ln Γ(α₀)` and, at small counts, for
/// `ln Γ(α_N)` too), at counts just inside, at and just past the
/// filled range, and for empty blocks with full tables.
#[test]
fn table_backed_marginal_matches_across_reflection_branch_and_fill_edges() {
    let values = [0.4, -1.5, 2.0, 0.25, 3.5, -0.75, 1.0];
    for alpha0 in [1e-3, 0.1, 0.25, 0.499, 0.5, 0.75, 3.0, 49.9] {
        let prior = NormalGamma {
            alpha0,
            ..NormalGamma::default()
        };
        for n in 1..=values.len() {
            let stats = SuffStats::from_values(&values[..n]);
            for fill in [0, n - 1, n, n + 1, 64] {
                assert_all_forms_match(&prior, &stats, fill);
            }
        }
        assert_all_forms_match(&prior, &block(&values, 12), 1024);
        for fill in [0, 8] {
            assert_all_forms_match(&prior, &SuffStats::empty(), fill);
        }
    }
}

/// The empty block scores exactly `+0.0` through the hoisted path too,
/// at shapes on both sides of the reflection branch, and the terms
/// built on it reduce to the bare marginals.
#[test]
fn empty_blocks_score_exactly_zero() {
    for alpha0 in [1e-3, 0.1, 0.499, 0.5, 0.75, 49.9] {
        let prior = NormalGamma {
            alpha0,
            ..NormalGamma::default()
        };
        let consts = PriorConsts::new(&prior);
        let empty = SuffStats::empty();
        assert_eq!(consts.log_marginal(&empty).to_bits(), 0.0f64.to_bits());
        let item = SuffStats::from_values(&[0.4, -1.5, 2.0]);
        assert_eq!(
            addition_term(&consts, &empty, &item, 0.0).to_bits(),
            prior.log_marginal(&item).to_bits()
        );
        assert_eq!(
            removal_term(&consts, &item, &item, 0.0).to_bits(),
            0.0f64.to_bits()
        );
    }
}
