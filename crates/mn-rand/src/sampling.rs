//! The random sampling oracles of §3.1.
//!
//! The paper assumes two collective sampling functions:
//!
//! * `Select-Unif-Rand(B)` — pick an element of a distributed list
//!   uniformly at random;
//! * `Select-Wtd-Rand(B, W)` — pick an element with probability
//!   proportional to its weight.
//!
//! Both are *collective*: every processor participates and every
//! processor learns the same chosen element. In this codebase the
//! weights have always been allgathered (or are computed redundantly on
//! every rank), so the oracles reduce to: every rank holds the full
//! weight list and consumes the same draw from a shared [`Stream`] —
//! which trivially yields identical choices on all ranks. The
//! communication cost the paper charges for these calls is modeled by
//! `mn-comm`'s cost accounting, not here.
//!
//! Scores in the Gibbs sampler are *log*-probabilities with a huge
//! dynamic range, so the weighted oracle comes in a log-space variant
//! using the standard max-shift trick.

use crate::stream::Stream;

/// Uniform selection from a list of `len` elements (Select-Unif-Rand).
///
/// Consumes exactly one draw, so block-split callers stay aligned.
#[inline]
pub fn select_unif_rand(stream: &mut Stream, len: usize) -> usize {
    assert!(len > 0, "cannot sample from an empty list");
    stream.index_one_draw(len)
}

/// Weighted selection with non-negative linear weights (Select-Wtd-Rand).
///
/// Returns the index of the chosen element. Elements with weight 0 are
/// never chosen. Panics if the weight sum is not positive and finite.
/// Consumes exactly one draw.
pub fn select_wtd_rand(stream: &mut Stream, weights: &[f64]) -> usize {
    assert!(!weights.is_empty(), "cannot sample from an empty list");
    let total: f64 = weights.iter().sum();
    assert!(
        total > 0.0 && total.is_finite(),
        "weight sum must be positive and finite, got {total}"
    );
    let target = stream.next_f64() * total;
    pick_by_prefix(weights, target)
}

/// Weighted selection with log-space weights.
///
/// `log_weights[i] = ln w_i` (may be any finite float, or `-inf` for an
/// impossible choice). This is the form used for Gibbs reassignment and
/// merge moves, whose weights are Bayesian log-score differences
/// (§2.2.1): the probability of choice `i` is
/// `exp(lw_i - max) / Σ_j exp(lw_j - max)`.
/// Consumes exactly one draw.
///
/// Each `exp(lw_i - max)` is evaluated once, into `exps` — a
/// caller-owned buffer that sweeps reuse across proposals — and both
/// the total and the prefix walk read it.
///
/// # Panics
/// On an empty list, a NaN or `+inf` log-weight, or when every choice
/// is `-inf`.
pub fn select_wtd_log(stream: &mut Stream, log_weights: &[f64], exps: &mut Vec<f64>) -> usize {
    assert!(!log_weights.is_empty(), "cannot sample from an empty list");
    let mut max = f64::NEG_INFINITY;
    for (i, &lw) in log_weights.iter().enumerate() {
        assert!(!lw.is_nan(), "NaN log-weight at index {i}");
        max = max.max(lw);
    }
    assert!(max < f64::INFINITY, "+inf log-weight");
    assert!(
        max > f64::NEG_INFINITY,
        "all choices have zero probability"
    );
    // Shift by the max so the largest term is exp(0) = 1; with at least
    // one term equal to 1 the sum is well-conditioned.
    exps.clear();
    exps.extend(log_weights.iter().map(|&lw| (lw - max).exp()));
    let total: f64 = exps.iter().sum();
    let target = stream.next_f64() * total;
    pick_by_prefix(exps, target)
}

/// Batched weighted selection: bit-equivalent to `k` sequential
/// [`select_wtd_rand`] calls on the same stream, in one prefix walk.
///
/// The sequential oracle walks the full weight list once *per draw*;
/// callers picking several elements from the same (unchanged) weights —
/// the `J` split draws per tree node in Algorithm 5 — pay `k` walks.
/// Here the `k` targets are drawn first, in stream order (so the stream
/// advances by exactly `k` draws, identically to the sequential calls),
/// then a single merged walk assigns every target its pick.
///
/// Equivalence argument: the total is the same left-to-right sum, each
/// target is the same `next_f64() * total` at the same stream position,
/// and a target's pick is the first index `i` with
/// `target < prefix(i)` under the same accumulation order — the merged
/// walk pops each pending target at exactly that first crossing.
/// Targets left unassigned by floating-point slack fall back to the last
/// positive-weight index, as in the sequential walk.
///
/// `scratch` is a reusable `(target, draw index)` buffer so steady-state
/// callers stay allocation-free; `out` receives the `k` picks in draw
/// order.
pub fn select_wtd_rand_batch(
    stream: &mut Stream,
    weights: &[f64],
    k: usize,
    scratch: &mut Vec<(f64, usize)>,
    out: &mut Vec<usize>,
) {
    out.clear();
    assert!(!weights.is_empty(), "cannot sample from an empty list");
    let total: f64 = weights.iter().sum();
    assert!(
        total > 0.0 && total.is_finite(),
        "weight sum must be positive and finite, got {total}"
    );
    if k == 0 {
        return;
    }
    out.resize(k, 0);
    scratch.clear();
    for d in 0..k {
        scratch.push((stream.next_f64() * total, d));
    }
    // Ascending targets; the stable sort keeps equal targets in draw
    // order (they resolve to the same pick either way).
    scratch.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut acc = 0.0;
    let mut last_valid = 0;
    let mut next = 0;
    for (i, &w) in weights.iter().enumerate() {
        debug_assert!(w >= 0.0, "negative weight {w} at index {i}");
        if w > 0.0 {
            last_valid = i;
        }
        acc += w;
        while next < k && scratch[next].0 < acc {
            out[scratch[next].1] = i;
            next += 1;
        }
    }
    for &(_, d) in &scratch[next..] {
        out[d] = last_valid;
    }
}

/// Shared prefix-walk for linear weights.
fn pick_by_prefix(weights: &[f64], target: f64) -> usize {
    let mut acc = 0.0;
    let mut last_valid = 0;
    for (i, &w) in weights.iter().enumerate() {
        debug_assert!(w >= 0.0, "negative weight {w} at index {i}");
        if w > 0.0 {
            last_valid = i;
        }
        acc += w;
        if target < acc {
            return i;
        }
    }
    last_valid
}

/// Reservoir-free weighted selection of `k` *distinct* indices, used by
/// tests and the ensemble tooling. Weights of already-chosen elements
/// are zeroed between draws. Consumes exactly `k` draws.
pub fn select_wtd_rand_distinct(stream: &mut Stream, weights: &[f64], k: usize) -> Vec<usize> {
    assert!(k <= weights.len(), "cannot choose {k} of {}", weights.len());
    let mut w = weights.to_vec();
    let mut chosen = Vec::with_capacity(k);
    for _ in 0..k {
        let i = select_wtd_rand(stream, &w);
        chosen.push(i);
        w[i] = 0.0;
    }
    chosen
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::{Domain, MasterRng};

    fn stream() -> Stream {
        MasterRng::new(2024).stream(Domain::User, 0)
    }

    #[test]
    fn unif_is_uniform_enough() {
        let mut s = stream();
        let n = 5;
        let trials = 50_000;
        let mut counts = vec![0usize; n];
        for _ in 0..trials {
            counts[select_unif_rand(&mut s, n)] += 1;
        }
        let expect = trials as f64 / n as f64;
        for (i, &c) in counts.iter().enumerate() {
            let dev = (c as f64 - expect).abs() / expect;
            assert!(dev < 0.05, "bucket {i}: count {c}, expected ~{expect}");
        }
    }

    #[test]
    fn weighted_matches_weights() {
        let mut s = stream();
        let weights = [1.0, 3.0, 0.0, 6.0];
        let trials = 60_000;
        let mut counts = [0usize; 4];
        for _ in 0..trials {
            counts[select_wtd_rand(&mut s, &weights)] += 1;
        }
        assert_eq!(counts[2], 0, "zero-weight element must never be chosen");
        let total: f64 = weights.iter().sum();
        for i in [0usize, 1, 3] {
            let want = weights[i] / total;
            let got = counts[i] as f64 / trials as f64;
            assert!(
                (got - want).abs() < 0.01,
                "index {i}: got {got:.4}, want {want:.4}"
            );
        }
    }

    #[test]
    fn log_weighted_matches_linear_weighted() {
        // select_wtd_log over ln(w) must produce the same distribution as
        // select_wtd_rand over w — and, since both consume a single draw
        // and use the same prefix walk, the *same choices* for the same
        // stream position.
        let weights = [0.5f64, 2.5, 4.0, 1.0];
        let logw: Vec<f64> = weights.iter().map(|w| w.ln()).collect();
        let mut s1 = stream();
        let mut s2 = stream();
        let mut exps = Vec::new();
        for _ in 0..1000 {
            let a = select_wtd_rand(&mut s1, &weights);
            let b = select_wtd_log(&mut s2, &logw, &mut exps);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn log_weighted_handles_huge_magnitudes() {
        let mut s = stream();
        // Raw scores around -1e6: naive exponentiation would underflow
        // to all-zeros; the max-shift keeps the ratios exact.
        let logw = [-1_000_000.0, -1_000_000.0 + (2.0f64).ln(), -1_000_020.0];
        let trials = 30_000;
        let mut counts = [0usize; 3];
        for _ in 0..trials {
            counts[select_wtd_log(&mut s, &logw, &mut Vec::new())] += 1;
        }
        // Ratios ~ 1 : 2 : e^-20 (≈ 0).
        let got = counts[1] as f64 / counts[0] as f64;
        assert!((got - 2.0).abs() < 0.15, "ratio {got}");
        assert!(counts[2] < trials / 100);
    }

    #[test]
    fn log_weighted_neg_infinity_excluded() {
        let mut s = stream();
        let logw = [f64::NEG_INFINITY, 0.0, f64::NEG_INFINITY];
        for _ in 0..100 {
            assert_eq!(select_wtd_log(&mut s, &logw, &mut Vec::new()), 1);
        }
    }

    #[test]
    #[should_panic(expected = "zero probability")]
    fn log_weighted_all_impossible_panics() {
        let mut s = stream();
        select_wtd_log(
            &mut s,
            &[f64::NEG_INFINITY, f64::NEG_INFINITY],
            &mut Vec::new(),
        );
    }

    /// A NaN weight used to drop out of the max fold, turn the total
    /// into NaN and silently pick the last positive index.
    #[test]
    #[should_panic(expected = "NaN log-weight at index 1")]
    fn log_weighted_nan_panics() {
        let mut s = stream();
        select_wtd_log(&mut s, &[0.0, f64::NAN, -1.0], &mut Vec::new());
    }

    #[test]
    #[should_panic(expected = "+inf log-weight")]
    fn log_weighted_pos_infinity_panics() {
        let mut s = stream();
        select_wtd_log(&mut s, &[0.0, f64::INFINITY], &mut Vec::new());
    }

    /// The one-exp form picks exactly what the two-pass form (every
    /// `exp` evaluated for the total and again in the walk) picked,
    /// with the same stream advance, while one buffer is reused
    /// across calls of different lengths.
    #[test]
    fn log_weighted_single_exp_matches_two_pass_form() {
        fn two_pass(stream: &mut Stream, log_weights: &[f64]) -> usize {
            let max = log_weights
                .iter()
                .copied()
                .fold(f64::NEG_INFINITY, f64::max);
            let mut total = 0.0;
            for &lw in log_weights {
                total += (lw - max).exp();
            }
            let target = stream.next_f64() * total;
            let mut acc = 0.0;
            let mut last_valid = 0;
            for (i, &lw) in log_weights.iter().enumerate() {
                let w = (lw - max).exp();
                if w > 0.0 {
                    last_valid = i;
                }
                acc += w;
                if target < acc {
                    return i;
                }
            }
            last_valid
        }
        let mut gen = stream();
        let mut exps = Vec::new();
        for round in 0..500 {
            let n = 1 + round % 23;
            let logw: Vec<f64> = (0..n)
                .map(|_| match gen.next_f64() {
                    v if v < 0.1 => f64::NEG_INFINITY,
                    v => (v - 0.5) * 80.0,
                })
                .collect();
            if logw.iter().all(|&lw| lw == f64::NEG_INFINITY) {
                continue;
            }
            let mut a = MasterRng::new(round as u64).stream(Domain::User, 3);
            let mut b = MasterRng::new(round as u64).stream(Domain::User, 3);
            for _ in 0..4 {
                assert_eq!(
                    select_wtd_log(&mut a, &logw, &mut exps),
                    two_pass(&mut b, &logw),
                    "round {round}: {logw:?}"
                );
            }
            assert_eq!(a.draw_pos(), b.draw_pos());
        }
    }

    #[test]
    fn distinct_selection_is_distinct() {
        let mut s = stream();
        let weights = [1.0, 2.0, 3.0, 4.0, 5.0];
        for k in 0..=5 {
            let chosen = select_wtd_rand_distinct(&mut s, &weights, k);
            assert_eq!(chosen.len(), k);
            let mut sorted = chosen.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), k, "duplicates in {chosen:?}");
        }
    }

    #[test]
    fn batch_matches_sequential_weighted_draws() {
        // The batched oracle must reproduce k sequential calls exactly:
        // same picks, same stream advance. Exercised over weight lists
        // with zeros at the edges and interior, and across k values.
        let cases: Vec<Vec<f64>> = vec![
            vec![1.0],
            vec![0.5, 2.5, 4.0, 1.0],
            vec![0.0, 3.0, 0.0, 0.0, 1.0, 0.0],
            vec![1e-12, 1e12, 1e-12],
            vec![0.0, 0.0, 7.0],
        ];
        for weights in &cases {
            for k in [0usize, 1, 2, 3, 7, 32] {
                let mut s_seq = stream();
                let mut s_bat = stream();
                let seq: Vec<usize> = (0..k).map(|_| select_wtd_rand(&mut s_seq, weights)).collect();
                let mut scratch = Vec::new();
                let mut out = Vec::new();
                select_wtd_rand_batch(&mut s_bat, weights, k, &mut scratch, &mut out);
                assert_eq!(seq, out, "picks diverged for weights {weights:?}, k={k}");
                assert_eq!(s_seq.draw_pos(), s_bat.draw_pos(), "stream advance diverged");
            }
        }
    }

    #[test]
    fn batch_matches_sequential_on_random_weights() {
        // Randomized sweep: many weight vectors (some entries zeroed) and
        // draw counts, always comparing against the sequential oracle.
        let mut gen = stream();
        for round in 0..200 {
            let n = 1 + (round % 17);
            let weights: Vec<f64> = (0..n)
                .map(|_| {
                    let v = gen.next_f64();
                    if v < 0.3 {
                        0.0
                    } else {
                        v * 10.0
                    }
                })
                .collect();
            if weights.iter().sum::<f64>() <= 0.0 {
                continue;
            }
            let k = 1 + (round % 5);
            let mut s_seq = MasterRng::new(round as u64).stream(Domain::User, 1);
            let mut s_bat = MasterRng::new(round as u64).stream(Domain::User, 1);
            let seq: Vec<usize> = (0..k).map(|_| select_wtd_rand(&mut s_seq, &weights)).collect();
            let mut scratch = Vec::new();
            let mut out = Vec::new();
            select_wtd_rand_batch(&mut s_bat, &weights, k, &mut scratch, &mut out);
            assert_eq!(seq, out, "round {round}: weights {weights:?}");
        }
    }

    #[test]
    fn oracles_consume_exactly_one_draw() {
        // Alignment property needed for O(1) block splitting: every
        // oracle call advances the stream by exactly one draw.
        let mut s = stream();
        let w = [1.0, 2.0];
        let lw = [0.0, 0.7];
        assert_eq!(s.draw_pos(), 0);
        select_unif_rand(&mut s, 10);
        assert_eq!(s.draw_pos(), 1);
        select_wtd_rand(&mut s, &w);
        assert_eq!(s.draw_pos(), 2);
        select_wtd_log(&mut s, &lw, &mut Vec::new());
        assert_eq!(s.draw_pos(), 3);
    }
}
