//! Sparse-vs-dense A/B equivalence for task 2.
//!
//! The sharded sparse path must produce **bit-identical** consensus
//! clusters and eigenvalue streams to the dense sequential oracle
//! (`dense_consensus_outcome`) on every engine and rank count — the
//! same determinism contract the split-scoring and Gibbs kernels
//! established in earlier PRs. The argument (DESIGN.md §11): the
//! dense matvec accumulates non-negative
//! terms in increasing column order, and the entries the sparse matvec
//! skips contribute exact `+0.0` — an identity on a non-negative f64
//! accumulator — while the norm is reduced in active-index order on
//! the gathered vector, never as per-rank partials.

use mn_comm::{spmd_run, ParEngine, SerialEngine, SimEngine, ThreadEngine};
use mn_consensus::{
    consensus_outcome, dense_consensus_outcome, ConsensusParams, SparseSymMatrix, SpectralOutcome,
    SymMatrix,
};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Deterministic hand-built ensemble: 9 samples agreeing on three
/// planted blocks over 19 variables (one variable, 18, never
/// clustered), plus one dissenting sample that mixes the blocks. No
/// RNG — the fixture is the same on every run and every rank.
fn ensemble() -> Vec<Vec<Vec<usize>>> {
    let blocks = vec![
        (0..6).collect::<Vec<_>>(),
        (6..12).collect::<Vec<_>>(),
        (12..18).collect::<Vec<_>>(),
    ];
    let mut e = vec![blocks; 9];
    e.push(vec![
        vec![0, 6, 12],
        vec![1, 7, 13],
        vec![2, 8, 14],
        vec![3, 9, 15, 18],
        vec![4, 10, 16],
        vec![5, 11, 17],
    ]);
    e
}

const N_VARS: usize = 19;

/// The two task-2 paths: the sharded sparse production path and the
/// dense sequential oracle.
#[derive(Debug, Clone, Copy)]
enum Backend {
    Dense,
    Sparse,
}

impl Backend {
    fn run<E: ParEngine>(self, engine: &mut E, params: &ConsensusParams) -> SpectralOutcome {
        match self {
            Backend::Dense => dense_consensus_outcome(engine, N_VARS, &ensemble(), params),
            Backend::Sparse => consensus_outcome(engine, N_VARS, &ensemble(), params),
        }
    }
}

fn params() -> ConsensusParams {
    ConsensusParams {
        threshold: 0.3,
        ..ConsensusParams::default()
    }
}

/// Task 2 on one engine: the outcome plus the final counters.
fn outcome_on<E: ParEngine>(
    engine: &mut E,
    backend: Backend,
) -> (SpectralOutcome, BTreeMap<String, u64>) {
    let out = backend.run(engine, &params());
    let now = engine.now_s();
    (out, engine.obs().snapshot(now).counters)
}

fn eigen_bits(out: &SpectralOutcome) -> Vec<u64> {
    out.eigenvalues.iter().map(|v| v.to_bits()).collect()
}

/// The backend-independent counter subset (`consensus.*`). Engine and
/// comm counters legitimately differ between backends — the sparse
/// path dispatches real `dist_map`s where the dense path charges
/// `replicated` — but the consensus counters are part of the shared
/// contract.
fn consensus_counters(counters: &BTreeMap<String, u64>) -> BTreeMap<String, u64> {
    counters
        .iter()
        .filter(|(name, _)| name.starts_with("consensus."))
        .map(|(name, &v)| (name.clone(), v))
        .collect()
}

#[test]
fn backends_and_engines_agree_bit_for_bit() {
    // Reference: the dense sequential baseline on one rank.
    let (reference, reference_counters) = outcome_on(&mut SerialEngine::new(), Backend::Dense);
    assert_eq!(reference.clusters.len(), 3, "fixture recovers the blocks");
    assert!(!reference.eigenvalues.is_empty());

    for backend in [Backend::Dense, Backend::Sparse] {
        // Per-backend counter reference from the serial engine; every
        // other engine/rank count must reproduce it exactly.
        let (_, backend_counters) = outcome_on(&mut SerialEngine::new(), backend);

        let check = |label: String, out: SpectralOutcome, counters: BTreeMap<String, u64>| {
            assert_eq!(
                out.clusters, reference.clusters,
                "{label}: clusters diverged from dense serial"
            );
            assert_eq!(
                eigen_bits(&out),
                eigen_bits(&reference),
                "{label}: eigenvalue stream not bit-identical"
            );
            assert_eq!(out.dropped_vars, reference.dropped_vars, "{label}");
            assert_eq!(out.matvecs, reference.matvecs, "{label}");
            assert_eq!(
                counters, backend_counters,
                "{label}: counters diverged across engines"
            );
            assert_eq!(
                consensus_counters(&counters),
                consensus_counters(&reference_counters),
                "{label}: consensus.* counters diverged across backends"
            );
        };

        let (out, counters) = outcome_on(&mut SerialEngine::new(), backend);
        check(format!("{backend:?}/serial"), out, counters);
        let (out, counters) = outcome_on(&mut ThreadEngine::new(3), backend);
        check(format!("{backend:?}/threads:3"), out, counters);
        for p in [4usize, 9] {
            let (out, counters) = outcome_on(&mut SimEngine::new(p), backend);
            check(format!("{backend:?}/sim:{p}"), out, counters);
        }
        // True SPMD: every rank runs task 2 and must land on the same
        // outcome (the per-rank counter agreement is asserted inside
        // merge_ranks by the spmd harness's snapshot merge elsewhere;
        // here each rank's outcome is compared directly).
        let results = spmd_run(3, |engine| outcome_on(engine, backend));
        for (rank, (out, counters)) in results.into_iter().enumerate() {
            check(format!("{backend:?}/msg:3 rank {rank}"), out, counters);
        }
    }
}

#[test]
fn dropped_vars_counted_identically_on_both_backends() {
    // An impossible minimum cluster size drops everything; the counter
    // must say so on both backends, on a multi-rank engine too.
    let mut p = params();
    p.spectral.min_cluster_size = N_VARS + 1;
    let mut reference = None;
    for backend in [Backend::Dense, Backend::Sparse] {
        let mut engine = SimEngine::new(4);
        let out = backend.run(&mut engine, &p);
        assert!(out.clusters.is_empty(), "{backend:?}");
        assert!(out.dropped_vars > 0, "{backend:?}");
        match reference {
            None => reference = Some(out.dropped_vars),
            Some(r) => assert_eq!(out.dropped_vars, r, "{backend:?}"),
        }
    }
}

proptest! {
    /// `SparseSymMatrix` round-trips arbitrary thresholded symmetric
    /// matrices exactly: sparsify(dense) expands back to the same
    /// dense matrix, and every element accessor agrees.
    #[test]
    fn sparse_roundtrips_arbitrary_thresholded_matrices(
        n in 1usize..24,
        entries in proptest::collection::vec((0usize..24, 0usize..24, 0.0f64..1.0), 0..80),
        threshold in 0.0f64..1.0,
    ) {
        let mut dense = SymMatrix::zeros(n);
        for &(i, j, v) in entries.iter().filter(|&&(i, j, _)| i < n && j < n) {
            // Mimic the co-occurrence shape: thresholded, diagonal 1.
            dense.set(i, j, if v < threshold { 0.0 } else { v });
        }
        for i in 0..n {
            dense.set(i, i, 1.0);
        }
        let sparse = SparseSymMatrix::from_dense(&dense);
        prop_assert_eq!(sparse.to_dense(), dense.clone());
        for i in 0..n {
            for j in 0..n {
                prop_assert_eq!(sparse.get(i, j), dense.get(i, j));
            }
        }
        // The matrix round-trips through its canonical serialized form
        // (the checkpoint path).
        let rebuilt: SparseSymMatrix =
            serde_json::from_str(&serde_json::to_string(&sparse).unwrap()).unwrap();
        prop_assert_eq!(rebuilt, sparse);
    }
}
