//! The co-occurrence frequency matrix of §2.2.2.
//!
//! "A symmetric co-occurrence frequency matrix A of size n × n. The
//! entry A(i,j) of the matrix is set to the number of times the
//! variables X_i and X_j occur in the same cluster in the ensemble, as
//! a fraction of the total number of sampled clusters. Note that
//! A(i,j) is set to zero if the co-occurrence weight is below a
//! user-provided threshold."
//!
//! **Normalization.** Within one ensemble sample the clusters are
//! disjoint, so a pair `(i,j)` co-occurs at most once per sample and
//! the paper's "number of times ... as a fraction of the total number
//! of sampled clusters" can only mean the fraction of *samples*
//! (cluster *sets*) in which the pair shares a cluster — that is the
//! reading under which A(i,j) = 1 expresses perfect agreement and the
//! user threshold is a fraction in `[0,1]`. Dividing by the literal
//! count of sampled clusters (Σ_s |clusters(s)|) would shrink every
//! entry by the mean cluster count and break the threshold's meaning.
//! We normalize by `ensemble.len()`; DESIGN.md §11 records the
//! decision, and the regression tests below pin it (including the
//! strict `f < threshold` boundary: entries exactly at the threshold
//! are kept).

use crate::sparse::SparseSymMatrix;
use crate::symmatrix::SymMatrix;
use mn_comm::{obs::counters, ParEngine};

/// Build the thresholded co-occurrence matrix from an ensemble of
/// variable clusterings.
///
/// * `n` — number of variables,
/// * `ensemble[s]` — the variable clusters of sample `s` (lists of
///   variable indices),
/// * `threshold` — co-occurrence fractions strictly below this are
///   zeroed (0.0 keeps everything).
///
/// The diagonal is set to 1 (every variable always co-occurs with
/// itself), which keeps the matrix's Perron eigenvector strictly
/// positive on unclustered-but-present variables.
pub fn cooccurrence_matrix(
    n: usize,
    ensemble: &[Vec<Vec<usize>>],
    threshold: f64,
) -> SymMatrix {
    assert!(!ensemble.is_empty(), "need at least one cluster sample");
    assert!((0.0..=1.0).contains(&threshold), "threshold must be in [0,1]");
    let mut counts = SymMatrix::zeros(n);
    for sample in ensemble {
        for cluster in sample {
            for (a_pos, &i) in cluster.iter().enumerate() {
                for &j in &cluster[a_pos + 1..] {
                    counts.add(i, j, 1.0);
                }
            }
        }
    }
    let total = ensemble.len() as f64;
    counts.map_in_place(|v| {
        let f = v / total;
        if f < threshold {
            0.0
        } else {
            f
        }
    });
    for i in 0..n {
        counts.set(i, i, 1.0);
    }
    counts
}

/// The work units of building the matrix (for the engines' replicated
/// cost accounting): `O(G n²)` in the paper's notation.
pub fn cooccurrence_work(n: usize, g_samples: usize) -> u64 {
    (g_samples as u64) * (n as u64) * (n as u64)
}

/// Rows per tile of the sharded co-occurrence build. Small enough that
/// a tile's scratch column buffer stays cache-resident relative to the
/// work it amortizes; the result is tile-size-independent (counts are
/// integer-valued f64, exact up to 2⁵³).
pub const COOC_TILE_ROWS: usize = 128;

/// Build the thresholded co-occurrence matrix directly in sparse form,
/// sharded over `engine` by tiles of [`COOC_TILE_ROWS`] rows.
///
/// Each tile accumulates the upper-triangle pair counts for its rows
/// from a replicated cluster index (variable → clusters containing
/// it), thresholds them, and emits its rows; `dist_map`'s all-gather
/// semantics reassemble the rows in order on every rank and
/// [`SparseSymMatrix::from_rows`] runs the deterministic two-pass
/// layout. Counts are integer-valued f64 (exact), so the resulting
/// fractions — and therefore the stored entries — are bit-identical to
/// the dense [`cooccurrence_matrix`] path for any tile size, engine,
/// and rank count.
///
/// Thresholding keeps entries with `count > 0 && count/G >= threshold`
/// and forces the diagonal to 1, matching the dense semantics exactly.
pub fn sparse_cooccurrence<E: ParEngine + ?Sized>(
    engine: &mut E,
    n: usize,
    ensemble: &[Vec<Vec<usize>>],
    threshold: f64,
) -> SparseSymMatrix {
    assert!(!ensemble.is_empty(), "need at least one cluster sample");
    assert!((0.0..=1.0).contains(&threshold), "threshold must be in [0,1]");
    let total = ensemble.len() as f64;
    // Replicated pre-pass: flatten the ensemble's clusters into an
    // arena and index variable -> clusters containing it (CSR,
    // count-then-fill). O(total membership), charged as replicated.
    let mut cluster_ptr = vec![0usize];
    let mut members: Vec<u32> = Vec::new();
    for sample in ensemble {
        for cluster in sample {
            for &v in cluster {
                assert!(v < n, "variable {v} out of range");
                members.push(v as u32);
            }
            cluster_ptr.push(members.len());
        }
    }
    let n_clusters = cluster_ptr.len() - 1;
    let mut var_count = vec![0usize; n];
    for &v in &members {
        var_count[v as usize] += 1;
    }
    let mut var_ptr = vec![0usize; n + 1];
    for i in 0..n {
        var_ptr[i + 1] = var_ptr[i] + var_count[i];
    }
    let mut var_cluster = vec![0u32; members.len()];
    let mut cursor = var_ptr[..n].to_vec();
    for c in 0..n_clusters {
        for &v in &members[cluster_ptr[c]..cluster_ptr[c + 1]] {
            var_cluster[cursor[v as usize]] = c as u32;
            cursor[v as usize] += 1;
        }
    }
    engine.replicated(members.len() as u64);

    // Sharded tile pass: each tile owns COOC_TILE_ROWS consecutive
    // rows and produces their thresholded upper-triangle entries.
    let n_tiles = n.div_ceil(COOC_TILE_ROWS).max(1);
    let tiles: Vec<Vec<Vec<(u32, f64)>>> = {
        let cluster_ptr = &cluster_ptr;
        let members = &members;
        let var_ptr = &var_ptr;
        let var_cluster = &var_cluster;
        engine.dist_map(n_tiles, 2 * COOC_TILE_ROWS, &|t| {
            let lo = t * COOC_TILE_ROWS;
            let hi = ((t + 1) * COOC_TILE_ROWS).min(n);
            let mut counts = vec![0.0f64; n];
            let mut touched: Vec<u32> = Vec::new();
            let mut rows = Vec::with_capacity(hi - lo);
            let mut cost = 1u64;
            for i in lo..hi {
                for &c in &var_cluster[var_ptr[i]..var_ptr[i + 1]] {
                    let c = c as usize;
                    for &j in &members[cluster_ptr[c]..cluster_ptr[c + 1]] {
                        if (j as usize) > i {
                            if counts[j as usize] == 0.0 {
                                touched.push(j);
                            }
                            counts[j as usize] += 1.0;
                            cost += 1;
                        }
                    }
                }
                touched.sort_unstable();
                let mut row = Vec::with_capacity(touched.len() + 1);
                row.push((i as u32, 1.0));
                for &j in &touched {
                    let f = counts[j as usize] / total;
                    if f >= threshold {
                        row.push((j, f));
                    }
                    counts[j as usize] = 0.0;
                    cost += 1;
                }
                touched.clear();
                rows.push(row);
            }
            (rows, cost)
        })
    };
    let rows: Vec<Vec<(u32, f64)>> = tiles.into_iter().flatten().collect();
    let sparse = SparseSymMatrix::from_rows(n, &rows);
    // Charge the deterministic two-pass layout (replicated on the
    // gathered rows) and record the footprint.
    engine.replicated((sparse.nnz_upper() + sparse.nnz_full()) as u64);
    engine.count(counters::CONSENSUS_NNZ, sparse.nnz_upper() as u64);
    sparse
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_agreement_gives_ones() {
        let ensemble = vec![
            vec![vec![0, 1], vec![2, 3]],
            vec![vec![0, 1], vec![2, 3]],
        ];
        let a = cooccurrence_matrix(4, &ensemble, 0.0);
        assert_eq!(a.get(0, 1), 1.0);
        assert_eq!(a.get(2, 3), 1.0);
        assert_eq!(a.get(0, 2), 0.0);
        assert_eq!(a.get(1, 3), 0.0);
        assert_eq!(a.get(0, 0), 1.0);
    }

    #[test]
    fn fractions_reflect_disagreement() {
        let ensemble = vec![
            vec![vec![0, 1], vec![2]],
            vec![vec![0], vec![1, 2]],
            vec![vec![0, 1], vec![2]],
            vec![vec![0, 1, 2]],
        ];
        let a = cooccurrence_matrix(3, &ensemble, 0.0);
        assert!((a.get(0, 1) - 0.75).abs() < 1e-12);
        assert!((a.get(1, 2) - 0.5).abs() < 1e-12);
        assert!((a.get(0, 2) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn threshold_zeroes_weak_entries() {
        let ensemble = vec![
            vec![vec![0, 1], vec![2]],
            vec![vec![0], vec![1, 2]],
            vec![vec![0, 1], vec![2]],
            vec![vec![0, 1, 2]],
        ];
        let a = cooccurrence_matrix(3, &ensemble, 0.6);
        assert!((a.get(0, 1) - 0.75).abs() < 1e-12);
        assert_eq!(a.get(1, 2), 0.0, "0.5 < 0.6 must be zeroed");
        assert_eq!(a.get(0, 2), 0.0);
        // Diagonal survives any threshold.
        assert_eq!(a.get(2, 2), 1.0);
    }

    #[test]
    fn symmetric_by_construction() {
        let ensemble = vec![vec![vec![0, 2, 4], vec![1, 3]]];
        let a = cooccurrence_matrix(5, &ensemble, 0.0);
        for i in 0..5 {
            for j in 0..5 {
                assert_eq!(a.get(i, j), a.get(j, i));
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn empty_ensemble_panics() {
        cooccurrence_matrix(2, &[], 0.0);
    }

    #[test]
    fn work_formula() {
        assert_eq!(cooccurrence_work(10, 3), 300);
    }

    /// Regression (ISSUE 5 satellite 1): normalization is by the number
    /// of ensemble *samples*, not the literal count of sampled
    /// clusters. Two samples containing five clusters total: a pair
    /// co-occurring in both samples scores 1.0 (perfect agreement),
    /// not 2/5.
    #[test]
    fn normalizes_by_samples_not_cluster_count() {
        let ensemble = vec![
            vec![vec![0, 1], vec![2], vec![3]],
            vec![vec![0, 1, 2], vec![3]],
        ];
        let a = cooccurrence_matrix(4, &ensemble, 0.0);
        assert_eq!(a.get(0, 1), 1.0, "pair in both of 2 samples scores 1.0");
        assert_eq!(a.get(1, 2), 0.5, "pair in 1 of 2 samples scores 0.5");
    }

    /// Regression (ISSUE 5 satellite 1): the boundary is strict —
    /// `f < threshold` zeroes, so an entry exactly at the threshold is
    /// kept.
    #[test]
    fn entries_exactly_at_threshold_are_kept() {
        let ensemble = vec![
            vec![vec![0, 1], vec![2]],
            vec![vec![0], vec![1, 2]],
            vec![vec![0, 1], vec![2]],
            vec![vec![0, 1, 2]],
        ];
        let a = cooccurrence_matrix(3, &ensemble, 0.75);
        assert_eq!(a.get(0, 1), 0.75, "f == threshold survives");
        assert_eq!(a.get(1, 2), 0.0, "0.5 < 0.75 zeroed");
    }

    #[test]
    fn sparse_build_matches_dense_bit_for_bit() {
        use mn_comm::SerialEngine;
        let ensemble = vec![
            vec![vec![0, 1, 4], vec![2, 3], vec![5]],
            vec![vec![0, 1], vec![2, 3, 5], vec![4]],
            vec![vec![0, 4], vec![1, 2], vec![3, 5]],
        ];
        for &threshold in &[0.0, 1.0 / 3.0, 0.5, 2.0 / 3.0, 1.0] {
            let dense = cooccurrence_matrix(6, &ensemble, threshold);
            let mut engine = SerialEngine::new();
            let sparse = sparse_cooccurrence(&mut engine, 6, &ensemble, threshold);
            assert_eq!(
                sparse.to_dense(),
                dense,
                "threshold {threshold} diverged"
            );
        }
    }

    /// The tiled build is tile-size-independent: a matrix wider than
    /// one tile reassembles identically.
    #[test]
    fn sparse_build_spans_multiple_tiles() {
        use mn_comm::SerialEngine;
        let n = COOC_TILE_ROWS + 7;
        let cluster: Vec<usize> = (0..n).step_by(3).collect();
        let other: Vec<usize> = (1..n).step_by(3).collect();
        let ensemble = vec![vec![cluster.clone(), other], vec![cluster]];
        let dense = cooccurrence_matrix(n, &ensemble, 0.5);
        let mut engine = SerialEngine::new();
        let sparse = sparse_cooccurrence(&mut engine, n, &ensemble, 0.5);
        assert_eq!(sparse.to_dense(), dense);
        assert!(sparse.nnz_upper() > n, "fixture should have off-diagonals");
    }
}
