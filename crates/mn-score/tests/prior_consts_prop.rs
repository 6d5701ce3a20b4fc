//! Bit identity of the hoisted-constant scoring path: the Gibbs term
//! functions evaluated through a [`PriorConsts`] must equal the
//! [`NormalGamma::log_marginal`]-based originals on `to_bits()` for
//! every prior shape — on both sides of the `α₀ < 0.5` reflection
//! branch of `ln Γ` — including empty blocks (exactly `0.0`) and
//! counts far past anything an `ln Γ` memo table would hold. This is
//! the invariant that lets the kernel sweeps sample the naive path's
//! exact chain (DESIGN.md §9).

use mn_score::gibbs_kernel::{addition_term, merge_gain_term, removal_term};
use mn_score::{NormalGamma, PriorConsts, SuffStats};
use proptest::prelude::*;

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
