//! Spectral consensus clustering.
//!
//! §2.2.2: the thresholded co-occurrence matrix is fed to "the spectral
//! clustering algorithm proposed by Michoel and Nachtergaele" (Phys.
//! Rev. E 86, 2012). That algorithm iteratively extracts the dominant
//! eigenvector of the (non-negative, symmetric) matrix — by
//! Perron–Frobenius it can be taken entrywise non-negative — reads the
//! tightest cluster off its largest components, removes those
//! variables, and repeats until no structure remains.
//!
//! Our implementation follows that extraction loop with plain power
//! iteration and deflation-by-removal. The membership cutoff (take the
//! variables whose eigenvector weight is at least `membership_frac` of
//! the maximum) is the standard reading of the hypergraph method's
//! cluster-extraction step; DESIGN.md records it as a behavioural
//! equivalent.
//!
//! Two execution paths share the loop. The dense baseline
//! ([`spectral_outcome`]) is §3.2.2 taken literally: sequential,
//! replicated on every rank (the task was < 0.04 % of the paper's
//! runtime). The sharded path ([`spectral_outcome_sparse`]) departs
//! from §3.2.2 for north-star scale: each power-iteration matvec is a
//! [`mn_comm::ParEngine::dist_map`] over the active rows of the sparse
//! matrix — each rank owns a contiguous row block, computes its
//! partial products, and the results are all-gathered (on the message
//! engine, over the failure-aware fabric) — while the reduced-state
//! extraction (norm, cutoff, component walk) stays replicated. The
//! two paths are bit-identical (DESIGN.md §11): the dense accumulator
//! only ever adds exact `+0.0` terms for the entries the sparse
//! matvec skips, and the norm is reduced in a fixed (active-index)
//! order, never per-rank, so the f64 stream does not depend on the
//! engine or the rank count.

use crate::sparse::SparseSymMatrix;
use crate::symmatrix::SymMatrix;
use mn_comm::{Collective, ParEngine};
use serde::{Deserialize, Serialize};

/// Parameters of the spectral extraction loop.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SpectralParams {
    /// A variable joins the current cluster when its eigenvector
    /// weight is ≥ this fraction of the maximum weight.
    pub membership_frac: f64,
    /// Clusters smaller than this are discarded (their variables stay
    /// unassigned), mirroring Lemon-Tree's minimum-cluster-size option.
    pub min_cluster_size: usize,
    /// Power-iteration convergence tolerance on the eigenvector.
    pub tol: f64,
    /// Power-iteration cap.
    pub max_iters: usize,
    /// Stop extracting once the dominant eigenvalue falls below this.
    pub min_eigenvalue: f64,
}

impl Default for SpectralParams {
    fn default() -> Self {
        Self {
            membership_frac: 0.5,
            min_cluster_size: 2,
            tol: 1e-4,
            max_iters: 50,
            min_eigenvalue: 1e-6,
        }
    }
}

/// Result of power iteration: dominant eigenvalue and eigenvector.
#[derive(Debug, Clone)]
pub struct DominantPair {
    /// Rayleigh-quotient estimate of the largest eigenvalue.
    pub value: f64,
    /// Unit-norm, entrywise non-negative eigenvector.
    pub vector: Vec<f64>,
    /// Iterations actually executed (for work accounting).
    pub iterations: usize,
}

/// Power iteration for the dominant eigenpair of a non-negative
/// symmetric matrix, restricted to `active` indices (inactive entries
/// stay exactly zero). The matrix-vector product touches only the
/// active rows and columns, so late extractions (few remaining
/// variables) are cheap. Deterministic: starts from the uniform vector.
pub fn power_iteration(
    a: &SymMatrix,
    active: &[bool],
    tol: f64,
    max_iters: usize,
) -> DominantPair {
    let n = a.n();
    assert_eq!(active.len(), n);
    let active_list: Vec<usize> = (0..n).filter(|&i| active[i]).collect();
    if active_list.is_empty() {
        return DominantPair {
            value: 0.0,
            vector: vec![0.0; n],
            iterations: 0,
        };
    }
    let init = 1.0 / (active_list.len() as f64).sqrt();
    let mut v: Vec<f64> = active
        .iter()
        .map(|&b| if b { init } else { 0.0 })
        .collect();
    let mut next = vec![0.0; n];
    let mut value = 0.0;
    let mut iterations = 0;
    for _ in 0..max_iters {
        iterations += 1;
        // Compressed matvec over active indices only.
        for &i in &active_list {
            let row = a.row(i);
            let mut acc = 0.0;
            for &j in &active_list {
                acc += row[j] * v[j];
            }
            next[i] = acc;
        }
        let norm = active_list
            .iter()
            .map(|&i| next[i] * next[i])
            .sum::<f64>()
            .sqrt();
        if norm == 0.0 {
            return DominantPair {
                value: 0.0,
                vector: vec![0.0; n],
                iterations,
            };
        }
        let mut delta: f64 = 0.0;
        for &i in &active_list {
            next[i] /= norm;
            delta = delta.max((next[i] - v[i]).abs());
        }
        std::mem::swap(&mut v, &mut next);
        // For a non-negative matrix and non-negative start the iterates
        // stay non-negative; the norm is the eigenvalue estimate.
        value = norm;
        if delta < tol {
            break;
        }
    }
    DominantPair {
        value,
        vector: v,
        iterations,
    }
}

/// Distributed power iteration over a sparse thresholded matrix:
/// the [`power_iteration`] loop with every matvec sharded through
/// [`ParEngine::dist_map`]. Each rank owns a contiguous block of the
/// active rows, computes its partial products over the stored row
/// entries (in increasing column order — the bit-identity order), and
/// the per-row results are all-gathered; the norm is then reduced in
/// active-index order by every rank (an accounted single-word
/// allreduce), never as per-rank partials, so the f64 stream is
/// independent of the rank count.
pub fn power_iteration_sparse<E: ParEngine + ?Sized>(
    engine: &mut E,
    a: &SparseSymMatrix,
    active: &[bool],
    tol: f64,
    max_iters: usize,
) -> DominantPair {
    let n = a.n();
    assert_eq!(active.len(), n);
    let active_list: Vec<usize> = (0..n).filter(|&i| active[i]).collect();
    if active_list.is_empty() {
        return DominantPair {
            value: 0.0,
            vector: vec![0.0; n],
            iterations: 0,
        };
    }
    let init = 1.0 / (active_list.len() as f64).sqrt();
    let mut v: Vec<f64> = active
        .iter()
        .map(|&b| if b { init } else { 0.0 })
        .collect();
    let mut value = 0.0;
    let mut iterations = 0;
    for _ in 0..max_iters {
        iterations += 1;
        // One sharded matvec. A stored entry that falls outside the
        // active set is skipped exactly like a dense zero: both
        // contribute nothing to the accumulator.
        let products: Vec<f64> = {
            let v_ref = &v;
            let al = &active_list;
            engine.dist_map(al.len(), 1, &|k| {
                let i = al[k];
                let mut acc = 0.0;
                for (j, w) in a.row(i) {
                    if active[j] {
                        acc += w * v_ref[j];
                    }
                }
                (acc, (a.row_nnz(i) as u64).max(1))
            })
        };
        // Fixed-order norm reduction over the gathered products.
        engine.collective(Collective::AllReduce, 1);
        let norm = products.iter().map(|x| x * x).sum::<f64>().sqrt();
        if norm == 0.0 {
            return DominantPair {
                value: 0.0,
                vector: vec![0.0; n],
                iterations,
            };
        }
        let mut next = vec![0.0; n];
        let mut delta: f64 = 0.0;
        for (k, &i) in active_list.iter().enumerate() {
            next[i] = products[k] / norm;
            delta = delta.max((next[i] - v[i]).abs());
        }
        v = next;
        value = norm;
        if delta < tol {
            break;
        }
    }
    DominantPair {
        value,
        vector: v,
        iterations,
    }
}

/// Everything the spectral extraction loop produces, for both the
/// dense and the sparse path: the clusters plus the evidence the A/B
/// suite compares bit-for-bit and the accounting the engines charge.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpectralOutcome {
    /// Consensus clusters (sorted variable lists), extraction order.
    pub clusters: Vec<Vec<usize>>,
    /// Dominant eigenvalue of each extraction, in extraction order —
    /// one entry per extracted component, whether or not the cluster
    /// survived the minimum-size filter.
    pub eigenvalues: Vec<f64>,
    /// Variables discarded because their cluster fell below
    /// `min_cluster_size` (the `consensus.dropped_vars` counter).
    pub dropped_vars: u64,
    /// Power-iteration matvecs executed across all extractions (the
    /// `consensus.matvec_dispatches` counter).
    pub matvecs: u64,
    /// Dense-path work units (matrix cells visited / 4), the quantity
    /// the replicated baseline charges. Zero on the sparse path, which
    /// charges its real per-row costs through `dist_map` instead.
    pub work: u64,
}

/// The dense (sequential, replicated) spectral extraction loop.
pub fn spectral_outcome(matrix: &SymMatrix, params: &SpectralParams) -> SpectralOutcome {
    let n = matrix.n();
    let mut a = matrix.clone();
    let mut active = vec![true; n];
    let mut out = SpectralOutcome::default();
    loop {
        let remaining = active.iter().filter(|&&b| b).count();
        if remaining == 0 {
            break;
        }
        let pair = power_iteration(&a, &active, params.tol, params.max_iters);
        out.matvecs += pair.iterations as u64;
        // Matvec work actually performed by this extraction; one
        // multiply-add is far cheaper than a scoring cell visit, so
        // four madds are charged as one work unit.
        out.work += pair.iterations as u64 * (remaining as u64) * (remaining as u64) / 4;
        if pair.value < params.min_eigenvalue {
            break;
        }
        let Some((candidates, argmax)) = extraction_candidates(&pair.vector, &active, params)
        else {
            break;
        };
        // When the spectrum is degenerate (e.g. two equally strong
        // blocks), the dominant eigenvector can mix several blocks.
        // Restrict the extracted cluster to the connected component of
        // the strongest variable within the candidate set, which is
        // exactly one block of the co-occurrence graph.
        let cluster = connected_component(&a, &candidates, argmax);
        out.eigenvalues.push(pair.value);
        for &i in &cluster {
            active[i] = false;
            a.clear_index(i);
        }
        if cluster.len() >= params.min_cluster_size {
            out.clusters.push(cluster);
        } else {
            out.dropped_vars += cluster.len() as u64;
        }
    }
    out
}

/// The sharded spectral extraction loop: power iteration distributed
/// over the engine ([`power_iteration_sparse`]); deflation and
/// cluster extraction replicated on the small reduced state (the
/// eigenvector), with the matrix left immutable — the active mask
/// excludes extracted variables, which reads the exact values the
/// dense path's `clear_index` deflation leaves in place.
pub fn spectral_outcome_sparse<E: ParEngine + ?Sized>(
    engine: &mut E,
    a: &SparseSymMatrix,
    params: &SpectralParams,
) -> SpectralOutcome {
    let n = a.n();
    let mut active = vec![true; n];
    let mut out = SpectralOutcome::default();
    loop {
        let remaining = active.iter().filter(|&&b| b).count();
        if remaining == 0 {
            break;
        }
        let pair = power_iteration_sparse(engine, a, &active, params.tol, params.max_iters);
        // Replicated reduced-state bookkeeping (cutoff scan, argmax,
        // component walk) — O(remaining), on every rank.
        engine.replicated(remaining as u64);
        out.matvecs += pair.iterations as u64;
        if pair.value < params.min_eigenvalue {
            break;
        }
        let Some((candidates, argmax)) = extraction_candidates(&pair.vector, &active, params)
        else {
            break;
        };
        let cluster = connected_component_sparse(a, &candidates, argmax);
        out.eigenvalues.push(pair.value);
        for &i in &cluster {
            active[i] = false;
        }
        if cluster.len() >= params.min_cluster_size {
            out.clusters.push(cluster);
        } else {
            out.dropped_vars += cluster.len() as u64;
        }
    }
    out
}

/// The membership-cutoff step shared by both paths: the candidate set
/// (active variables whose eigenvector weight clears the cutoff) and
/// the strongest active variable. `None` when the eigenvector carries
/// no positive weight.
fn extraction_candidates(
    vector: &[f64],
    active: &[bool],
    params: &SpectralParams,
) -> Option<(Vec<usize>, usize)> {
    let n = vector.len();
    let max_w = vector.iter().copied().fold(0.0, f64::max);
    if max_w <= 0.0 {
        return None;
    }
    let cutoff = params.membership_frac * max_w;
    let candidates: Vec<usize> = (0..n)
        .filter(|&i| active[i] && vector[i] >= cutoff)
        .collect();
    let argmax = (0..n)
        .filter(|&i| active[i])
        .max_by(|&i, &j| vector[i].total_cmp(&vector[j]))
        .unwrap();
    Some((candidates, argmax))
}

/// The connected component of `seed` in the subgraph induced by
/// `candidates`, walking neighbours through `neighbors(i, visit)`
/// (which must call `visit(j)` for every `j` adjacent to `i`).
/// Candidate membership is a bitmap, so each popped node costs its
/// degree, not `O(|candidates|)`. Returns a sorted list; contains at
/// least `seed`.
fn connected_component_generic(
    n: usize,
    candidates: &[usize],
    seed: usize,
    neighbors: impl Fn(usize, &mut dyn FnMut(usize)),
) -> Vec<usize> {
    let mut is_candidate = vec![false; n];
    for &c in candidates {
        is_candidate[c] = true;
    }
    if !is_candidate[seed] {
        return vec![seed];
    }
    let mut in_component = vec![false; n];
    in_component[seed] = true;
    let mut queue = vec![seed];
    let mut found = Vec::new();
    while let Some(i) = queue.pop() {
        neighbors(i, &mut |j| {
            if is_candidate[j] && !in_component[j] {
                in_component[j] = true;
                found.push(j);
            }
        });
        queue.append(&mut found);
    }
    (0..n).filter(|&i| in_component[i]).collect()
}

/// [`connected_component_generic`] over a dense matrix (edges where
/// `a(i,j) > 0`).
fn connected_component(a: &SymMatrix, candidates: &[usize], seed: usize) -> Vec<usize> {
    connected_component_generic(a.n(), candidates, seed, |i, visit| {
        for (j, &v) in a.row(i).iter().enumerate() {
            if v > 0.0 {
                visit(j);
            }
        }
    })
}

/// [`connected_component_generic`] over a sparse matrix: neighbours
/// come straight from the stored row, so the walk costs the sum of
/// component degrees.
fn connected_component_sparse(
    a: &SparseSymMatrix,
    candidates: &[usize],
    seed: usize,
) -> Vec<usize> {
    connected_component_generic(a.n(), candidates, seed, |i, visit| {
        for (j, v) in a.row(i) {
            if v > 0.0 {
                visit(j);
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block_matrix() -> SymMatrix {
        // Two perfect blocks {0,1,2} and {3,4} with no cross terms.
        let mut a = SymMatrix::zeros(5);
        for &(i, j) in &[(0, 1), (0, 2), (1, 2), (3, 4)] {
            a.set(i, j, 1.0);
        }
        for i in 0..5 {
            a.set(i, i, 1.0);
        }
        a
    }

    #[test]
    fn power_iteration_finds_known_eigenpair() {
        // [[2,1],[1,2]] has dominant eigenvalue 3, eigenvector (1,1)/√2.
        let mut a = SymMatrix::zeros(2);
        a.set(0, 0, 2.0);
        a.set(1, 1, 2.0);
        a.set(0, 1, 1.0);
        let pair = power_iteration(&a, &[true, true], 1e-12, 1000);
        assert!((pair.value - 3.0).abs() < 1e-9, "value {}", pair.value);
        let inv_sqrt2 = std::f64::consts::FRAC_1_SQRT_2;
        assert!((pair.vector[0] - inv_sqrt2).abs() < 1e-6);
        assert!((pair.vector[1] - inv_sqrt2).abs() < 1e-6);
    }

    #[test]
    fn power_iteration_respects_active_mask() {
        let a = block_matrix();
        let active = [false, false, false, true, true];
        let pair = power_iteration(&a, &active, 1e-12, 1000);
        assert_eq!(pair.vector[0], 0.0);
        assert!(pair.vector[3] > 0.0);
        // Dominant eigenvalue of the {3,4} block (1 on diag, 1 off) is 2.
        assert!((pair.value - 2.0).abs() < 1e-9);
    }

    #[test]
    fn blocks_are_recovered_in_size_order() {
        let clusters = spectral_outcome(&block_matrix(), &SpectralParams::default()).clusters;
        assert_eq!(clusters.len(), 2);
        assert_eq!(clusters[0], vec![0, 1, 2]);
        assert_eq!(clusters[1], vec![3, 4]);
    }

    #[test]
    fn min_cluster_size_discards_singletons() {
        let mut a = SymMatrix::zeros(3);
        a.set(0, 1, 1.0);
        for i in 0..3 {
            a.set(i, i, 1.0);
        }
        // Variable 2 is isolated.
        let clusters = spectral_outcome(&a, &SpectralParams::default()).clusters;
        assert_eq!(clusters, vec![vec![0, 1]]);
    }

    #[test]
    fn consensus_from_noisy_ensemble() {
        // 10 samples agreeing on {0,1,2} / {3,4,5}, with one dissenting
        // sample mixing them. Threshold 0.3 removes the noise.
        let mut ensemble = vec![vec![vec![0, 1, 2], vec![3, 4, 5]]; 9];
        ensemble.push(vec![vec![0, 3], vec![1, 4], vec![2, 5]]);
        let a = crate::cooccurrence::cooccurrence_matrix(6, &ensemble, 0.3);
        let clusters = spectral_outcome(&a, &SpectralParams::default()).clusters;
        assert_eq!(clusters.len(), 2);
        let mut sets: Vec<Vec<usize>> = clusters;
        sets.sort();
        assert_eq!(sets, vec![vec![0, 1, 2], vec![3, 4, 5]]);
    }

    #[test]
    fn deterministic() {
        let a = block_matrix();
        let p = SpectralParams::default();
        assert_eq!(spectral_outcome(&a, &p).clusters, spectral_outcome(&a, &p).clusters);
    }

    #[test]
    fn empty_matrix_yields_no_clusters() {
        let a = SymMatrix::zeros(4);
        let clusters = spectral_outcome(&a, &SpectralParams::default()).clusters;
        assert!(clusters.is_empty());
    }

    #[test]
    fn clusters_are_disjoint_and_within_range() {
        let clusters = spectral_outcome(&block_matrix(), &SpectralParams::default()).clusters;
        let mut seen = [false; 5];
        for c in &clusters {
            for &v in c {
                assert!(v < 5);
                assert!(!seen[v], "variable {v} in two clusters");
                seen[v] = true;
            }
        }
    }

    #[test]
    fn outcome_reports_eigenvalues_and_drops() {
        let mut a = SymMatrix::zeros(3);
        a.set(0, 1, 1.0);
        for i in 0..3 {
            a.set(i, i, 1.0);
        }
        let out = spectral_outcome(&a, &SpectralParams::default());
        assert_eq!(out.clusters, vec![vec![0, 1]]);
        // The isolated variable 2 forms a singleton below
        // min_cluster_size = 2: one dropped variable, and both
        // extractions still report their eigenvalue.
        assert_eq!(out.dropped_vars, 1);
        assert_eq!(out.eigenvalues.len(), 2);
        assert!(out.matvecs > 0);
    }

    /// Regression (ISSUE 5 satellite 2): the old component walk did a
    /// linear `candidates.contains(seed)` plus an O(|candidates|)
    /// dense-lookup scan per popped node — quadratic on a 10k-node
    /// path graph. The bitmap + adjacency walk costs the sum of
    /// component degrees and finishes instantly.
    #[test]
    fn connected_component_handles_10k_node_path_graph() {
        let n = 10_000;
        let rows: Vec<Vec<(u32, f64)>> = (0..n)
            .map(|i| {
                let mut row = vec![(i as u32, 1.0)];
                if i + 1 < n {
                    row.push((i as u32 + 1, 1.0));
                }
                row
            })
            .collect();
        let a = SparseSymMatrix::from_rows(n, &rows);
        let candidates: Vec<usize> = (0..n).collect();
        let start = std::time::Instant::now();
        let component = connected_component_sparse(&a, &candidates, n / 2);
        assert_eq!(component.len(), n, "path graph is one component");
        assert_eq!(component, candidates, "sorted full range");
        // Generous wall bound: the quadratic walk took tens of seconds
        // here; the linear one is well under a second even in debug.
        assert!(
            start.elapsed() < std::time::Duration::from_secs(5),
            "component walk took {:?}",
            start.elapsed()
        );
        // The dense wrapper keeps the same semantics (small instance).
        let dense = connected_component(&block_matrix(), &[0, 1, 2], 1);
        assert_eq!(dense, vec![0, 1, 2]);
        // A seed outside the candidate set stays a singleton.
        assert_eq!(connected_component_sparse(&a, &[5, 6], 100), vec![100]);
    }

    #[test]
    fn sparse_outcome_matches_dense_bit_for_bit_on_serial() {
        use mn_comm::SerialEngine;
        let a = block_matrix();
        let params = SpectralParams::default();
        let dense_out = spectral_outcome(&a, &params);
        let sparse = SparseSymMatrix::from_dense(&a);
        let mut engine = SerialEngine::new();
        let sparse_out = spectral_outcome_sparse(&mut engine, &sparse, &params);
        assert_eq!(dense_out.clusters, sparse_out.clusters);
        assert_eq!(dense_out.dropped_vars, sparse_out.dropped_vars);
        assert_eq!(dense_out.matvecs, sparse_out.matvecs);
        let bits = |vals: &[f64]| vals.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&dense_out.eigenvalues),
            bits(&sparse_out.eigenvalues),
            "eigenvalue streams must be bit-identical"
        );
    }
}
