//! Property-based equivalence of the batched prefix-sum separation
//! kernel against the per-candidate naive pass: for arbitrary value
//! vectors (including heavy duplicates and degenerate all-one-side
//! masks) every candidate's σ must be bit-identical between the two
//! paths — the invariant DESIGN.md §7 relies on for byte-identical
//! learned networks.

use mn_score::{naive_sigmas, SplitScratch};
use proptest::prelude::*;

fn assert_bitwise_equal(vals: &[f64], left_mask: &[bool]) -> Result<(), TestCaseError> {
    let n = vals.len();
    let obs: Vec<usize> = (0..n).collect();
    let mut scratch = SplitScratch::new();
    let kernel = scratch.compute(vals, &obs, left_mask).to_vec();
    let mut naive = Vec::new();
    naive_sigmas(vals, left_mask, &mut naive);
    prop_assert_eq!(kernel.len(), n);
    for j in 0..n {
        prop_assert!(
            kernel[j].to_bits() == naive[j].to_bits(),
            "candidate {} diverged: kernel {} vs naive {} (vals {:?}, mask {:?})",
            j,
            kernel[j],
            naive[j],
            vals,
            left_mask
        );
    }
    Ok(())
}

/// `compute_masks` against the direct predicate: candidate `j`'s mask
/// has bit `i` set iff `(v[i] ≤ v[j]) == left[i]`, no bit at or past
/// `n` is set, and σ is bit-identical to `compute`'s.
fn assert_masks_match_predicate(vals: &[f64], left: &[bool]) -> Result<(), TestCaseError> {
    let n = vals.len();
    let w = n.div_ceil(64);
    let obs: Vec<usize> = (0..n).collect();
    // Bits at and past n start as alternating garbage (both set and
    // clear bits) the kernel must ignore.
    let mut lmask = vec![0x5555_5555_5555_5555u64; w];
    for (i, &b) in left.iter().enumerate() {
        lmask[i >> 6] = lmask[i >> 6] & !(1 << (i & 63)) | (u64::from(b) << (i & 63));
    }
    let mut scratch = SplitScratch::new();
    let sigmas = scratch.compute(vals, &obs, left).to_vec();
    let (masked_sigmas, cons) = scratch.compute_masks(vals, &obs, &lmask);
    prop_assert_eq!(masked_sigmas.len(), n);
    prop_assert_eq!(cons.len(), n * w);
    for j in 0..n {
        prop_assert_eq!(
            masked_sigmas[j].to_bits(),
            sigmas[j].to_bits(),
            "sigma {} (n={})",
            j,
            n
        );
        let mask = &cons[j * w..(j + 1) * w];
        for i in 0..64 * w {
            let got = mask[i >> 6] >> (i & 63) & 1 == 1;
            let want = i < n && (vals[i] <= vals[j]) == left[i];
            prop_assert_eq!(got, want, "cons[{}] bit {} (n={})", j, i, n);
        }
    }
    Ok(())
}

/// Node widths on both sides of every word boundary the wide masks
/// cross, plus a five-word node.
const MASK_WIDTHS: [usize; 9] = [1, 63, 64, 65, 127, 128, 129, 130, 300];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Arbitrary finite values, arbitrary mask.
    #[test]
    fn prop_kernel_matches_naive_on_random_values(
        pairs in prop::collection::vec((-100.0f64..100.0, prop::bool::ANY), 1..60),
    ) {
        let (vals, mask): (Vec<f64>, Vec<bool>) = pairs.into_iter().unzip();
        assert_bitwise_equal(&vals, &mask)?;
    }

    /// Values drawn from a tiny alphabet so long tied runs are the
    /// norm, not the exception — the case where a wrong tie-resolution
    /// policy (`<` instead of `≤`) would diverge.
    #[test]
    fn prop_kernel_matches_naive_on_heavy_duplicates(
        pairs in prop::collection::vec((0u8..4, prop::bool::ANY), 1..60),
    ) {
        let (raw, mask): (Vec<u8>, Vec<bool>) = pairs.into_iter().unzip();
        let vals: Vec<f64> = raw.into_iter().map(f64::from).collect();
        assert_bitwise_equal(&vals, &mask)?;
    }

    /// Degenerate masks: every observation on one side. The prefix
    /// formula's `total_right - (k - left_le)` term must not underflow.
    #[test]
    fn prop_kernel_matches_naive_when_all_on_one_side(
        vals in prop::collection::vec(-10.0f64..10.0, 1..40),
        side in prop::bool::ANY,
    ) {
        let mask = vec![side; vals.len()];
        assert_bitwise_equal(&vals, &mask)?;
    }

    /// Signed zeros mixed into the value set: −0.0 and +0.0 sort apart
    /// under `total_cmp` but compare equal under the naive `≤`; the
    /// kernel must merge them into one run.
    #[test]
    fn prop_kernel_matches_naive_with_signed_zeros(
        pairs in prop::collection::vec((prop::sample::select(vec![-1.0f64, -0.0, 0.0, 1.0]), prop::bool::ANY), 1..40),
    ) {
        let (vals, mask): (Vec<f64>, Vec<bool>) = pairs.into_iter().unzip();
        assert_bitwise_equal(&vals, &mask)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Multi-word consistency masks on arbitrary finite values, every
    /// width checked on a prefix of the same draw.
    #[test]
    fn prop_masks_match_predicate_on_random_values(
        pairs in prop::collection::vec((-100.0f64..100.0, prop::bool::ANY), 300),
    ) {
        let (vals, left): (Vec<f64>, Vec<bool>) = pairs.into_iter().unzip();
        for n in MASK_WIDTHS {
            assert_masks_match_predicate(&vals[..n], &left[..n])?;
        }
    }

    /// Multi-word masks over a four-value alphabet with both signed
    /// zeros: long tied runs that straddle word boundaries, and −0.0
    /// merged with +0.0.
    #[test]
    fn prop_masks_match_predicate_on_ties_and_signed_zeros(
        pairs in prop::collection::vec(
            (prop::sample::select(vec![-1.0f64, -0.0, 0.0, 1.0]), prop::bool::ANY),
            300,
        ),
    ) {
        let (vals, left): (Vec<f64>, Vec<bool>) = pairs.into_iter().unzip();
        for n in MASK_WIDTHS {
            assert_masks_match_predicate(&vals[..n], &left[..n])?;
        }
    }

    /// Degenerate all-one-side masks at every width.
    #[test]
    fn prop_masks_match_predicate_when_all_on_one_side(
        raw in prop::collection::vec(-3i8..3, 300),
        side in prop::bool::ANY,
    ) {
        let vals: Vec<f64> = raw.into_iter().map(f64::from).collect();
        for n in MASK_WIDTHS {
            assert_masks_match_predicate(&vals[..n], &vec![side; n])?;
        }
    }
}
