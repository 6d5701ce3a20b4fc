//! Tile scores over an expression matrix.
//!
//! The GaneSH score of a co-clustering decomposes over *tiles*: for a
//! variable cluster `V` with observation clusters `O(V) = {O_1, ...}`,
//! each pair `(V, O_j)` contributes the normal-gamma marginal of the
//! values `{ D[v][o] : v ∈ V, o ∈ O_j }`. These helpers compute tile
//! statistics and full co-clustering scores from scratch; they are the
//! ground truth the incremental bookkeeping in `mn-gibbs` is tested
//! against, and the implementation the *reference* (Lemon-Tree-like)
//! scorer mode uses directly.

use crate::normal_gamma::{NormalGamma, PriorConsts};
use crate::suffstats::SuffStats;
use mn_data::Dataset;

/// Statistics of the tile `vars × obs`.
pub fn tile_stats(data: &Dataset, vars: &[usize], obs: &[usize]) -> SuffStats {
    let mut s = SuffStats::empty();
    for &v in vars {
        let row = data.values(v);
        for &o in obs {
            s.add(row[o]);
        }
    }
    s
}

/// Statistics of one variable restricted to a set of observations.
pub fn var_obs_stats(data: &Dataset, var: usize, obs: &[usize]) -> SuffStats {
    let row = data.values(var);
    let mut s = SuffStats::empty();
    for &o in obs {
        s.add(row[o]);
    }
    s
}

/// Marginal score of the tile `vars × obs`.
pub fn tile_score(prior: &NormalGamma, data: &Dataset, vars: &[usize], obs: &[usize]) -> f64 {
    prior.log_marginal(&tile_stats(data, vars, obs))
}

/// Full co-clustering score: variable clusters with per-cluster
/// observation partitions.
///
/// `obs_partitions[c]` lists the observation clusters of variable
/// cluster `c`. Every variable index may appear in at most one cluster;
/// empty clusters contribute 0.
pub fn coclustering_score(
    prior: &NormalGamma,
    data: &Dataset,
    var_clusters: &[Vec<usize>],
    obs_partitions: &[Vec<Vec<usize>>],
) -> f64 {
    assert_eq!(
        var_clusters.len(),
        obs_partitions.len(),
        "every variable cluster needs an observation partition"
    );
    // Gather every tile's statistics in iteration order, then score
    // them through one `PriorConsts` grown to the largest tile:
    // ln Γ(α₀ + k/2) is evaluated once per count instead of twice per
    // tile, and the left-to-right summation order (hence the f64
    // result) is unchanged.
    let mut tiles = Vec::new();
    for (vars, obs_clusters) in var_clusters.iter().zip(obs_partitions) {
        for obs in obs_clusters {
            tiles.push(tile_stats(data, vars, obs));
        }
    }
    let mut consts = PriorConsts::new(prior);
    consts.grow_through(tiles.iter().map(|s| s.count()).max().unwrap_or(0) as usize);
    let mut total = 0.0;
    for tile in &tiles {
        total += consts.log_marginal(tile);
    }
    total
}

/// Score of one variable cluster under a fixed observation partition —
/// the quantity whose change drives `Reassign-Var-Cluster` (Alg. 1).
pub fn var_cluster_score(
    prior: &NormalGamma,
    data: &Dataset,
    vars: &[usize],
    obs_clusters: &[Vec<usize>],
) -> f64 {
    obs_clusters
        .iter()
        .map(|obs| tile_score(prior, data, vars, obs))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mn_data::Matrix;

    fn data() -> Dataset {
        // 4 vars x 4 obs with an obvious 2x2 block structure.
        Dataset::new(
            Matrix::from_vec(
                4,
                4,
                vec![
                    1.0, 1.1, -1.0, -1.1, //
                    0.9, 1.0, -0.9, -1.0, //
                    -2.0, -2.1, 2.0, 2.1, //
                    -1.9, -2.0, 1.9, 2.0,
                ],
            ),
            None,
            None,
        )
    }

    #[test]
    fn tile_stats_counts_cells() {
        let d = data();
        let s = tile_stats(&d, &[0, 1], &[0, 1]);
        assert_eq!(s.count(), 4);
        assert!((s.mean() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn var_obs_stats_matches_tile_stats() {
        let d = data();
        let a = var_obs_stats(&d, 2, &[1, 3]);
        let b = tile_stats(&d, &[2], &[1, 3]);
        assert_eq!(a, b);
    }

    #[test]
    fn block_structure_scores_higher_than_scrambled() {
        let d = data();
        let prior = NormalGamma::default();
        // Matched co-clustering: vars {0,1} and {2,3}, obs split {0,1}/{2,3}.
        let good = coclustering_score(
            &prior,
            &d,
            &[vec![0, 1], vec![2, 3]],
            &[
                vec![vec![0, 1], vec![2, 3]],
                vec![vec![0, 1], vec![2, 3]],
            ],
        );
        // Scrambled variable clusters.
        let bad = coclustering_score(
            &prior,
            &d,
            &[vec![0, 2], vec![1, 3]],
            &[
                vec![vec![0, 1], vec![2, 3]],
                vec![vec![0, 1], vec![2, 3]],
            ],
        );
        assert!(good > bad, "good={good} bad={bad}");
    }

    #[test]
    fn coclustering_score_is_sum_of_var_cluster_scores() {
        let d = data();
        let prior = NormalGamma::default();
        let vc = vec![vec![0, 1], vec![2, 3]];
        let op = vec![
            vec![vec![0, 1], vec![2, 3]],
            vec![vec![0, 2], vec![1, 3]],
        ];
        let total = coclustering_score(&prior, &d, &vc, &op);
        let parts: f64 = vc
            .iter()
            .zip(&op)
            .map(|(vars, obs)| var_cluster_score(&prior, &d, vars, obs))
            .sum();
        assert!((total - parts).abs() < 1e-12);
    }

    #[test]
    fn empty_clusters_contribute_zero() {
        let d = data();
        let prior = NormalGamma::default();
        let with_empty = coclustering_score(
            &prior,
            &d,
            &[vec![0, 1], vec![]],
            &[vec![vec![0, 1, 2, 3]], vec![]],
        );
        let without = coclustering_score(&prior, &d, &[vec![0, 1]], &[vec![vec![0, 1, 2, 3]]]);
        assert!((with_empty - without).abs() < 1e-12);
    }
}
