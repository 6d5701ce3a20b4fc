//! # mn-consensus — consensus clustering (Lemon-Tree task 2)
//!
//! Builds the thresholded co-occurrence frequency matrix from the
//! ensemble of GaneSH variable-cluster samples (§2.2.2 of the paper)
//! and extracts consensus clusters with iterative spectral extraction
//! in the style of Michoel & Nachtergaele (2012): dominant eigenvector
//! by power iteration, cluster = heavy components, deflate, repeat.
//!
//! Per §3.2.2 the paper leaves this task *sequential* (it is < 0.04 %
//! of the total runtime) and executes it redundantly on all ranks.
//! This crate departs from §3.2.2 for north-star scale: the
//! thresholded matrix is built directly in sparse form by tiled
//! accumulation ([`sparse_cooccurrence`]) and the power iteration is
//! sharded over the engine ([`spectral::power_iteration_sparse`]),
//! with real work charged per row through `dist_map`. The dense path
//! of §3.2.2, replicated on every rank and charged through
//! `ParEngine::replicated`, survives only as the test oracle
//! `dense_consensus_outcome`: both produce bit-identical clusters and
//! eigenvalues on every engine and rank count (`tests/backend_ab.rs`;
//! argument in DESIGN.md §11).

#![warn(missing_docs)]

pub mod cooccurrence;
pub mod rand_index;
pub mod sparse;
pub mod spectral;
pub mod symmatrix;

pub use cooccurrence::{
    cooccurrence_matrix, cooccurrence_work, sparse_cooccurrence, COOC_TILE_ROWS,
};
pub use rand_index::{adjusted_rand_index, labels_from_clusters};
pub use sparse::{SparseParts, SparseSymMatrix};
pub use spectral::{
    consensus_clustering, power_iteration, power_iteration_sparse, spectral_clusters,
    spectral_clusters_counted, spectral_outcome, spectral_outcome_sparse, SpectralOutcome,
    SpectralParams,
};
pub use symmatrix::SymMatrix;

use mn_comm::obs::counters;
use mn_comm::{with_span, ParEngine};
use serde::{Deserialize, Serialize};

/// Task-2 configuration: threshold and the spectral extraction
/// parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ConsensusParams {
    /// Co-occurrence fractions strictly below this are zeroed.
    pub threshold: f64,
    /// Spectral extraction loop parameters.
    pub spectral: SpectralParams,
}

impl Default for ConsensusParams {
    fn default() -> Self {
        Self {
            threshold: 0.0,
            spectral: SpectralParams::default(),
        }
    }
}

/// Build the thresholded co-occurrence matrix, sharded over the
/// engine, inside a `cooccurrence` span.
pub fn build_cooccurrence<E: ParEngine + ?Sized>(
    engine: &mut E,
    n: usize,
    ensemble: &[Vec<Vec<usize>>],
    params: &ConsensusParams,
) -> SparseSymMatrix {
    with_span(engine, "cooccurrence", |engine| {
        sparse_cooccurrence(engine, n, ensemble, params.threshold)
    })
}

/// Run the spectral extraction loop on a built co-occurrence matrix,
/// inside a `spectral` span, and emit the `consensus.*` counters
/// (matvec dispatches; dropped variables per the no-silent-caps rule).
pub fn extract_clusters<E: ParEngine + ?Sized>(
    engine: &mut E,
    matrix: &SparseSymMatrix,
    params: &ConsensusParams,
) -> SpectralOutcome {
    with_span(engine, "spectral", |engine| {
        let out = spectral_outcome_sparse(engine, matrix, &params.spectral);
        count_outcome(engine, &out);
        out
    })
}

fn count_outcome<E: ParEngine + ?Sized>(engine: &mut E, out: &SpectralOutcome) {
    engine.count(counters::CONSENSUS_MATVEC_DISPATCHES, out.matvecs);
    engine.count(counters::CONSENSUS_DROPPED_VARS, out.dropped_vars);
}

/// Task 2 end to end: build the matrix, extract the consensus
/// clusters.
pub fn consensus_outcome<E: ParEngine + ?Sized>(
    engine: &mut E,
    n: usize,
    ensemble: &[Vec<Vec<usize>>],
    params: &ConsensusParams,
) -> SpectralOutcome {
    let matrix = build_cooccurrence(engine, n, ensemble, params);
    extract_clusters(engine, &matrix, params)
}

/// [`consensus_outcome`] on the dense sequential path of §3.2.2,
/// replicated on every rank: the test oracle. Same spans, same
/// `consensus.*` counters (`consensus.nnz` counts the post-threshold
/// upper triangle, diagonal included, exactly as the sparse path
/// counts stored entries), and bit-identical clusters and eigenvalues;
/// the A/B suite and `bench_consensus` compare the sparse path against
/// it.
#[doc(hidden)]
pub fn dense_consensus_outcome<E: ParEngine + ?Sized>(
    engine: &mut E,
    n: usize,
    ensemble: &[Vec<Vec<usize>>],
    params: &ConsensusParams,
) -> SpectralOutcome {
    let a = with_span(engine, "cooccurrence", |engine| {
        let a = cooccurrence_matrix(n, ensemble, params.threshold);
        engine.replicated(cooccurrence_work(n, ensemble.len()));
        let mut nnz = 0u64;
        for i in 0..n {
            for (j, &v) in a.row(i).iter().enumerate().skip(i) {
                if v != 0.0 || j == i {
                    nnz += 1;
                }
            }
        }
        engine.count(counters::CONSENSUS_NNZ, nnz);
        a
    });
    with_span(engine, "spectral", |engine| {
        let out = spectral_outcome(&a, &params.spectral);
        engine.replicated(out.work);
        count_outcome(engine, &out);
        out
    })
}
