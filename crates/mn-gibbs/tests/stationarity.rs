//! Stationarity of the observation-reassignment sweep: the chain the
//! real `reassign_obs` runs visits partitions with the frequencies its
//! coded kernel implies.
//!
//! One variable cluster over 5 observations has Bell(5) = 52
//! observation partitions, so the kernel's exact transition matrix is
//! small enough to build from the enumerated partition scores. One
//! proposal picks an observation uniformly; its candidates are the
//! existing clusters plus a fresh one, each weighted ∝ exp(score′ −
//! score). When the observation is a singleton, the stay entry and the
//! fresh entry lead to the same partition, and both count. A sweep is
//! five proposals.
//!
//! The test gates the total-variation distance between the empirical
//! partition frequencies of `N` real sweeps and the coded kernel's
//! stationary distribution, at twice its expected Monte-Carlo error
//! (from the chain's exact asymptotic variances). It prints, without
//! gating, the distance between the coded stationary distribution and
//! the posterior ∝ exp(score), which the two differ by: this test
//! records that gap, it does not close it.

use mn_comm::SerialEngine;
use mn_data::{Dataset, Matrix};
use mn_gibbs::sweep::reassign_obs;
use mn_gibbs::CoClustering;
use mn_rand::MasterRng;
use mn_score::{NormalGamma, Scoring, SuffStats};
use std::collections::HashMap;

const M: usize = 5;
/// Sweeps of the empirical chain.
const N: usize = 40_000;
/// Sweeps discarded before counting.
const BURN_IN: usize = 50;

/// A partition of the `M` observations as a restricted growth string:
/// `p[o]` is the block of `o`, numbered in order of first appearance.
type Partition = [u8; M];

/// Every partition of `M` observations, in lexicographic order.
fn enumerate() -> Vec<Partition> {
    fn extend(p: &mut Partition, i: usize, max: u8, out: &mut Vec<Partition>) {
        if i == M {
            out.push(*p);
            return;
        }
        for b in 0..=max + 1 {
            p[i] = b;
            extend(p, i + 1, max.max(b), out);
        }
    }
    let mut out = Vec::new();
    let mut p = [0u8; M];
    extend(&mut p, 1, 0, &mut out);
    out
}

/// Renumber blocks in order of first appearance.
fn canonical(labels: [usize; M]) -> Partition {
    let mut seen: Vec<usize> = Vec::new();
    labels.map(|l| match seen.iter().position(|&s| s == l) {
        Some(b) => b as u8,
        None => {
            seen.push(l);
            (seen.len() - 1) as u8
        }
    })
}

/// Σ over blocks of the tile log-marginal: the co-clustering score of
/// the one variable cluster.
fn score(data: &Dataset, prior: &NormalGamma, p: &Partition) -> f64 {
    let blocks = *p.iter().max().unwrap() as usize + 1;
    (0..blocks)
        .map(|b| {
            let mut tile = SuffStats::empty();
            for v in 0..data.n_vars() {
                for o in (0..M).filter(|&o| p[o] as usize == b) {
                    tile.add(data.values(v)[o]);
                }
            }
            prior.log_marginal(&tile)
        })
        .sum()
}

/// The coded kernel of one proposal, averaged over the moving
/// observation: `t[i][j]`.
fn proposal_matrix(parts: &[Partition], scores: &[f64]) -> Vec<Vec<f64>> {
    let index: HashMap<Partition, usize> = parts.iter().enumerate().map(|(i, p)| (*p, i)).collect();
    let n = parts.len();
    let mut t = vec![vec![0.0; n]; n];
    for (i, p) in parts.iter().enumerate() {
        let blocks = *p.iter().max().unwrap() + 1;
        for o in 0..M {
            // Existing blocks (the own one is the stay entry), then a
            // fresh block — the same partition again when `o` is alone.
            let targets: Vec<usize> = (0..=blocks)
                .map(|b| {
                    let mut q = *p;
                    q[o] = b;
                    index[&canonical(q.map(usize::from))]
                })
                .collect();
            let weights: Vec<f64> = targets
                .iter()
                .map(|&j| (scores[j] - scores[i]).exp())
                .collect();
            let total: f64 = weights.iter().sum();
            for (&j, w) in targets.iter().zip(&weights) {
                t[i][j] += w / total / M as f64;
            }
        }
    }
    t
}

fn mul(a: &[Vec<f64>], b: &[Vec<f64>]) -> Vec<Vec<f64>> {
    let n = a.len();
    let mut c = vec![vec![0.0; n]; n];
    for i in 0..n {
        for k in 0..n {
            for j in 0..n {
                c[i][j] += a[i][k] * b[k][j];
            }
        }
    }
    c
}

/// The stationary distribution of `s`, by power iteration.
fn stationary(s: &[Vec<f64>]) -> Vec<f64> {
    let n = s.len();
    let mut pi = vec![1.0 / n as f64; n];
    for _ in 0..100_000 {
        let next: Vec<f64> = (0..n)
            .map(|j| (0..n).map(|i| pi[i] * s[i][j]).sum())
            .collect();
        let moved: f64 = next.iter().zip(&pi).map(|(a, b)| (a - b).abs()).sum();
        pi = next;
        if moved < 1e-15 {
            break;
        }
    }
    pi
}

/// Asymptotic variance of each state's indicator under the sweep chain
/// `s`: `π_i (1 − π_i) + 2 π_i Σ_{k≥1} (S^k_ii − π_i)`.
fn indicator_variances(s: &[Vec<f64>], pi: &[f64]) -> Vec<f64> {
    let n = s.len();
    let mut var: Vec<f64> = pi.iter().map(|p| p * (1.0 - p)).collect();
    let mut sk = s.to_vec();
    for _ in 0..10_000 {
        let gap = (0..n).map(|i| (sk[i][i] - pi[i]).abs()).fold(0.0, f64::max);
        for i in 0..n {
            var[i] += 2.0 * pi[i] * (sk[i][i] - pi[i]);
        }
        if gap < 1e-13 {
            break;
        }
        sk = mul(&sk, s);
    }
    var
}

fn tv(a: &[f64], b: &[f64]) -> f64 {
    0.5 * a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum::<f64>()
}

/// Two variables over five observations, with values that leave the
/// score landscape flat enough for many partitions to carry mass.
fn dataset() -> Dataset {
    let values = [
        0.3, -0.2, 1.1, 0.9, -0.7, //
        0.1, 0.4, 0.8, 1.3, -0.4,
    ];
    Dataset::new(Matrix::from_vec(2, M, values.to_vec()), None, None)
}

#[test]
fn reassign_obs_samples_its_coded_stationary_distribution() {
    let data = dataset();
    let prior = NormalGamma::default();
    let parts = enumerate();
    assert_eq!(parts.len(), 52, "Bell(5)");
    let scores: Vec<f64> = parts.iter().map(|p| score(&data, &prior, p)).collect();

    let t = proposal_matrix(&parts, &scores);
    let sweep = (1..M).fold(t.clone(), |s, _| mul(&s, &t));
    let coded = stationary(&sweep);
    let max_score = scores.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let posterior: Vec<f64> = {
        let w: Vec<f64> = scores.iter().map(|s| (s - max_score).exp()).collect();
        let z: f64 = w.iter().sum();
        w.iter().map(|x| x / z).collect()
    };

    // The real sweeps, one stream per step.
    let master = MasterRng::new(2026);
    let vars = [0, 1];
    let mut state = CoClustering::single_var_cluster(&data, &vars, prior, &master, 0);
    let slot = state.active_slots()[0];
    let index: HashMap<Partition, usize> = parts.iter().enumerate().map(|(i, p)| (*p, i)).collect();
    let mut engine = SerialEngine::new();
    let mut hits = vec![0u64; parts.len()];
    for step in 0..(BURN_IN + N) as u64 {
        reassign_obs(
            &mut engine,
            &mut state,
            &data,
            &master,
            0,
            step,
            slot,
            Scoring::Kernel,
        );
        if step >= BURN_IN as u64 {
            let obs = &state.cluster(slot).obs;
            hits[index[&canonical(std::array::from_fn(|o| obs.slot_of(o)))]] += 1;
        }
    }
    state.validate(&data);
    let empirical: Vec<f64> = hits.iter().map(|&h| h as f64 / N as f64).collect();

    // E|p̂_i − π_i| ≈ √(2/π) σ_i / √N, summed and halved.
    let variances = indicator_variances(&sweep, &coded);
    let expected_tv = 0.5
        * (2.0 / std::f64::consts::PI).sqrt()
        * variances.iter().map(|v| (v / N as f64).sqrt()).sum::<f64>();
    let bound = 2.0 * expected_tv;
    let measured = tv(&empirical, &coded);
    let states = coded.iter().filter(|&&p| p > 1e-3).count();
    println!(
        "N = {N} sweeps over {states} partitions with mass > 1e-3 (max {:.3}): \
         TV(empirical, coded) = {measured:.4}, expected {expected_tv:.4}, bound {bound:.4}; \
         TV(coded, ∝ exp(score)) = {:.4} (not gated)",
        coded.iter().cloned().fold(0.0, f64::max),
        tv(&coded, &posterior),
    );
    assert!(
        measured <= bound,
        "reassign_obs left its coded stationary distribution: TV {measured:.4} > {bound:.4}"
    );
}
