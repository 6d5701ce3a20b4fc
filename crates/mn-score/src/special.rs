//! Special functions needed by the Bayesian scores.
//!
//! Only `ln Γ` is required (the normal-gamma marginal likelihood is a
//! ratio of gamma functions). Implemented with the Lanczos
//! approximation (g = 7, 9 terms) rather than adding a numerics
//! dependency; accuracy is ~15 significant digits over the positive
//! axis, verified against exact factorials and half-integer identities
//! in the tests below.

use std::f64::consts::PI;

/// Lanczos coefficients for g = 7, n = 9 (Godfrey's values).
const LANCZOS_G: f64 = 7.0;
const LANCZOS: [f64; 9] = [
    0.999_999_999_999_809_9,
    676.520_368_121_885_1,
    -1_259.139_216_722_402_8,
    771.323_428_777_653_1,
    -176.615_029_162_140_6,
    12.507_343_278_686_905,
    -0.138_571_095_265_720_12,
    9.984_369_578_019_572e-6,
    1.505_632_735_149_311_6e-7,
];

/// Natural log of the gamma function, `ln Γ(x)`, for `x > 0`.
///
/// Uses the reflection formula for `x < 0.5` (needed only for
/// completeness; the scores call this with `x ≥ 0.5`).
///
/// # Panics
/// Panics on non-finite input or on non-positive integers (poles).
pub fn ln_gamma(x: f64) -> f64 {
    assert!(x.is_finite(), "ln_gamma of non-finite {x}");
    if x <= 0.0 && x == x.floor() {
        panic!("ln_gamma pole at {x}");
    }
    if x < 0.5 {
        // Reflection: Γ(x) Γ(1-x) = π / sin(πx).
        let sin_pi_x = (PI * x).sin();
        return PI.ln() - sin_pi_x.abs().ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut acc = LANCZOS[0];
    for (i, &c) in LANCZOS.iter().enumerate().skip(1) {
        acc += c / (x + i as f64);
    }
    let t = x + LANCZOS_G + 0.5;
    0.5 * (2.0 * PI).ln() + (x + 0.5) * t.ln() - t + acc.ln()
}

/// `ln B(a, b) = ln Γ(a) + ln Γ(b) - ln Γ(a+b)`.
pub fn ln_beta(a: f64, b: f64) -> f64 {
    ln_gamma(a) + ln_gamma(b) - ln_gamma(a + b)
}

/// `ln Γ(x + delta) - ln Γ(x)` computed directly; exposed because the
/// incremental scorer uses gamma-ratio differences heavily and tests
/// assert it agrees with the two-call form.
pub fn ln_gamma_ratio(x: f64, delta: f64) -> f64 {
    ln_gamma(x + delta) - ln_gamma(x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NormalGamma, PriorConsts, SuffStats};

    #[test]
    fn integers_match_factorials() {
        // Γ(k) = (k-1)!
        let mut factorial = 1.0f64;
        for k in 1..=20u32 {
            if k > 1 {
                factorial *= (k - 1) as f64;
            }
            let got = ln_gamma(k as f64);
            let want = factorial.ln();
            assert!(
                (got - want).abs() < 1e-10 * want.abs().max(1.0),
                "k={k}: {got} vs {want}"
            );
        }
    }

    #[test]
    fn half_integers() {
        // Γ(1/2) = √π; Γ(x+1) = x Γ(x).
        let want = PI.sqrt().ln();
        assert!((ln_gamma(0.5) - want).abs() < 1e-12);
        let want_3_2 = (0.5 * PI.sqrt()).ln();
        assert!((ln_gamma(1.5) - want_3_2).abs() < 1e-12);
        let want_5_2 = (0.75 * PI.sqrt()).ln();
        assert!((ln_gamma(2.5) - want_5_2).abs() < 1e-12);
    }

    #[test]
    fn recurrence_holds() {
        // ln Γ(x+1) = ln x + ln Γ(x) across a wide range.
        for &x in &[0.1, 0.7, 1.3, 2.9, 10.0, 123.456, 1e4, 1e8] {
            let lhs = ln_gamma(x + 1.0);
            let rhs = x.ln() + ln_gamma(x);
            assert!(
                (lhs - rhs).abs() < 1e-9 * rhs.abs().max(1.0),
                "x={x}: {lhs} vs {rhs}"
            );
        }
    }

    #[test]
    fn large_arguments_match_stirling() {
        // For large x, ln Γ(x) ≈ x ln x - x - ½ ln(x / 2π).
        let x: f64 = 1e6;
        let stirling = x * x.ln() - x - 0.5 * (x / (2.0 * PI)).ln();
        let got = ln_gamma(x);
        assert!((got - stirling).abs() / stirling.abs() < 1e-7);
    }

    #[test]
    fn reflection_region() {
        // Γ(0.25) ≈ 3.625609908.
        let got = ln_gamma(0.25);
        let want = 3.625_609_908_221_908_f64.ln();
        assert!((got - want).abs() < 1e-10, "{got} vs {want}");
    }

    #[test]
    #[should_panic(expected = "pole")]
    fn pole_panics() {
        ln_gamma(0.0);
    }

    #[test]
    fn beta_identity() {
        // B(a, b) = Γ(a)Γ(b)/Γ(a+b); B(1,1) = 1, B(2,3) = 1/12.
        assert!(ln_beta(1.0, 1.0).abs() < 1e-12);
        assert!((ln_beta(2.0, 3.0) - (1.0f64 / 12.0).ln()).abs() < 1e-12);
    }

    #[test]
    fn ratio_matches_difference() {
        for &(x, d) in &[(1.0, 0.5), (10.0, 3.0), (100.0, 0.25)] {
            let a = ln_gamma_ratio(x, d);
            let b = ln_gamma(x + d) - ln_gamma(x);
            assert!((a - b).abs() < 1e-12);
        }
    }

    /// A block of `k` observations (`k = 0` is the empty block).
    fn block_of(k: usize) -> SuffStats {
        SuffStats::from_values(
            &(0..k)
                .map(|i| (i % 7) as f64 * 0.3 - 1.0)
                .collect::<Vec<_>>(),
        )
    }

    fn prior(alpha0: f64) -> NormalGamma {
        NormalGamma {
            alpha0,
            ..NormalGamma::default()
        }
    }

    #[test]
    fn table_serves_exact_bits() {
        // `PriorConsts`' count tables serve `ln Γ(α₀ + k/2)` with the
        // bits of the direct Lanczos call.
        let p = prior(0.1);
        let mut consts = PriorConsts::new(&p);
        consts.grow_through(1000);
        for k in [0usize, 1, 2, 3, 40, 1000] {
            assert!(consts.covers(k as u64));
            let block = block_of(k);
            assert_eq!(
                consts.log_marginal(&block).to_bits(),
                p.log_marginal(&block).to_bits(),
                "k={k}"
            );
        }
    }

    #[test]
    fn table_warm_reports_fill_counts() {
        let mut consts = PriorConsts::new(&prior(2.5));
        assert!(!consts.covers(0));
        assert_eq!(consts.grow_through(9), 10);
        assert!(consts.covers(9) && !consts.covers(10));
        assert_eq!(consts.grow_through(9), 0);
        assert_eq!(consts.grow_through(11), 2);
        assert!(consts.covers(11) && !consts.covers(12));
    }

    #[test]
    fn table_is_shareable_across_threads() {
        // Grown once, the tables are a read-only slice: every thread
        // reads the direct call's bits without a lock.
        let p = prior(0.1);
        let mut consts = PriorConsts::new(&p);
        consts.grow_through(255);
        let consts = &consts;
        std::thread::scope(|scope| {
            for t in 0..4 {
                scope.spawn(move || {
                    for k in (0..256usize).skip(t % 3) {
                        let block = block_of(k);
                        assert_eq!(
                            consts.log_marginal(&block).to_bits(),
                            p.log_marginal(&block).to_bits()
                        );
                    }
                });
            }
        });
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn table_rejects_nonpositive_shape() {
        PriorConsts::new(&prior(0.0));
    }

    proptest::proptest! {
        #[test]
        fn prop_table_bits_equal_direct_lanczos(
            alpha0 in 1e-3f64..50.0,
            ks in proptest::collection::vec(0usize..4000, 1..40),
        ) {
            // For every count the tables can serve, the table-backed
            // marginal is exactly (`==` on bits) the direct Lanczos one,
            // before and after the tables cover it.
            let p = prior(alpha0);
            let mut consts = PriorConsts::new(&p);
            for &k in &ks {
                let block = block_of(k);
                let direct = p.log_marginal(&block).to_bits();
                proptest::prop_assert_eq!(consts.log_marginal(&block).to_bits(), direct);
                consts.grow_through(k);
                proptest::prop_assert_eq!(consts.log_marginal(&block).to_bits(), direct);
            }
        }
    }
}
