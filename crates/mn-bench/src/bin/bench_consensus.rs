//! **Consensus-backend speedup record** — measures the sharded sparse
//! task-2 path (tiled thresholded co-occurrence build + distributed
//! power iteration) against the dense replicated oracle of §3.2.2
//! and writes `BENCH_consensus.json` so the performance trajectory of
//! the consensus stage accumulates across revisions.
//!
//! The fixture plants `K` modules of `n/K` variables with nine
//! agreeing ensemble samples plus one dissenting sample whose pairs
//! fall below the threshold — so the post-threshold matrix is block
//! sparse (density ≈ 1/K) while the dense path still allocates and
//! scans all `n²` cells. Two records per size:
//!
//! * wall time of task 2 end to end (build + spectral extraction) on
//!   each backend, with an internal assertion that both extract
//!   bit-identical clusters and eigenvalue streams;
//! * peak matrix footprint: the dense `n²·8` bytes per rank against
//!   [`SparseSymMatrix::bytes`](mn_consensus::SparseSymMatrix::bytes).
//!
//! ```text
//! cargo run --release -p mn-bench --bin bench_consensus [-- --quick]
//! ```

use mn_bench::{time_it, Args, Table};
use mn_comm::{ParEngine, SerialEngine, ThreadEngine};
use mn_consensus::{
    consensus_outcome, dense_consensus_outcome, sparse_cooccurrence, ConsensusParams,
    SpectralOutcome,
};
use serde::Serialize;
use std::hint::black_box;

#[derive(Serialize)]
struct SizeRow {
    n_vars: usize,
    modules: usize,
    density: f64,
    dense_s: f64,
    sparse_s: f64,
    speedup: f64,
    dense_bytes: usize,
    sparse_bytes: usize,
    memory_ratio: f64,
}

#[derive(Serialize)]
struct PhaseRow {
    label: String,
    dense_s: f64,
    sparse_s: f64,
    speedup: f64,
}

#[derive(Serialize)]
struct Record {
    task2: Vec<SizeRow>,
    threads_sparse: PhaseRow,
    counters: std::collections::BTreeMap<String, u64>,
}

/// Median of `reps` timings of `f` (seconds per call).
fn median_time(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut times: Vec<f64> = (0..reps)
        .map(|_| {
            let (_, t) = time_it(&mut f);
            t
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

/// Deterministic planted-module ensemble: nine samples agreeing on
/// `k` contiguous blocks of `n/k` variables, plus one dissenting
/// sample striping across the blocks (its pairs score 0.1, below the
/// 0.3 threshold, so they stress the dense scan without surviving it).
fn planted_ensemble(n: usize, k: usize) -> Vec<Vec<Vec<usize>>> {
    let block = n / k;
    let blocks: Vec<Vec<usize>> = (0..k)
        .map(|b| (b * block..(b + 1) * block).collect())
        .collect();
    let mut ensemble = vec![blocks; 9];
    let stripes: Vec<Vec<usize>> = (0..block)
        .map(|s| (0..k).map(|b| b * block + s).collect())
        .collect();
    ensemble.push(stripes);
    ensemble
}

/// The two task-2 paths: the sharded sparse production path and the
/// dense replicated oracle.
#[derive(Clone, Copy)]
enum Backend {
    Dense,
    Sparse,
}

fn run_task2<E: ParEngine>(engine: &mut E, n: usize, ensemble: &[Vec<Vec<usize>>], backend: Backend) -> SpectralOutcome {
    let params = ConsensusParams {
        threshold: 0.3,
        ..ConsensusParams::default()
    };
    match backend {
        Backend::Dense => dense_consensus_outcome(engine, n, ensemble, &params),
        Backend::Sparse => consensus_outcome(engine, n, ensemble, &params),
    }
}

fn main() {
    let args = Args::capture();
    let quick = args.has("quick");
    // 64-variable modules at every size, so the post-threshold density
    // falls like 64/n: 6.25 % at n=1024, 1.6 % at n=4096 (the
    // acceptance regime: n ≥ 4096, density ≤ 5 %).
    let (sizes, reps): (Vec<usize>, usize) = if quick {
        (vec![512], 2)
    } else {
        (vec![1024, 4096], 3)
    };

    let mut table = Table::new(&[
        "n_vars", "modules", "density", "dense (ms)", "sparse (ms)", "speedup", "mem dense",
        "mem sparse", "mem ratio",
    ]);
    let mut task2 = Vec::new();
    for &n in &sizes {
        let k = n / 64;
        let ensemble = planted_ensemble(n, k);

        // Cross-backend equivalence before timing anything.
        let mut e = SerialEngine::new();
        let dense_out = run_task2(&mut e, n, &ensemble, Backend::Dense);
        let mut e = SerialEngine::new();
        let sparse_out = run_task2(&mut e, n, &ensemble, Backend::Sparse);
        assert_eq!(
            dense_out.clusters, sparse_out.clusters,
            "backends must extract identical clusters"
        );
        let bits = |o: &SpectralOutcome| o.eigenvalues.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&dense_out),
            bits(&sparse_out),
            "eigenvalue streams must be bit-identical"
        );
        assert_eq!(dense_out.clusters.len(), k, "fixture must recover the blocks");

        let time_backend = |backend| {
            median_time(reps, || {
                let mut e = SerialEngine::new();
                black_box(run_task2(&mut e, n, &ensemble, backend));
            })
        };
        let dense_s = time_backend(Backend::Dense);
        let sparse_s = time_backend(Backend::Sparse);
        let speedup = dense_s / sparse_s;

        let mut e = SerialEngine::new();
        let sparse_matrix = sparse_cooccurrence(&mut e, n, &ensemble, 0.3);
        let dense_bytes = n * n * 8;
        let sparse_bytes = sparse_matrix.bytes();
        let density = sparse_matrix.nnz_upper() as f64 / (n as f64 * (n as f64 + 1.0) / 2.0);
        let memory_ratio = dense_bytes as f64 / sparse_bytes as f64;

        table.row(&[
            format!("{n}"),
            format!("{k}"),
            format!("{:.2}%", density * 100.0),
            format!("{:.1}", dense_s * 1e3),
            format!("{:.1}", sparse_s * 1e3),
            format!("{speedup:.1}×"),
            format!("{:.1} MB", dense_bytes as f64 / 1e6),
            format!("{:.1} MB", sparse_bytes as f64 / 1e6),
            format!("{memory_ratio:.0}×"),
        ]);
        task2.push(SizeRow {
            n_vars: n,
            modules: k,
            density,
            dense_s,
            sparse_s,
            speedup,
            dense_bytes,
            sparse_bytes,
            memory_ratio,
        });
    }
    table.print();

    // --- Sparse path on a multi-rank engine ---------------------------
    // The sharded matvec dispatches through dist_map, so the sparse
    // backend runs unchanged on the threaded engine (dense timed there
    // too for reference: it stays replicated work).
    let n = if quick { 512 } else { 1024 };
    let ensemble = planted_ensemble(n, n / 64);
    let time_threads = |backend| {
        median_time(reps, || {
            let mut e = ThreadEngine::new(3);
            black_box(run_task2(&mut e, n, &ensemble, backend));
        })
    };
    let dense_s = time_threads(Backend::Dense);
    let sparse_s = time_threads(Backend::Sparse);
    let threads_sparse = PhaseRow {
        label: format!("task 2 (threads:3, n={n})"),
        dense_s,
        sparse_s,
        speedup: dense_s / sparse_s,
    };
    println!(
        "\nthreads:3: dense {:.1} ms, sparse {:.1} ms — {:.2}×",
        dense_s * 1e3,
        sparse_s * 1e3,
        threads_sparse.speedup
    );

    // One instrumented sparse run: the deterministic counters put the
    // timings in context (stored entries, sharded matvec dispatches).
    let n = *sizes.last().unwrap();
    let ensemble = planted_ensemble(n, n / 64);
    let mut e = SerialEngine::new();
    run_task2(&mut e, n, &ensemble, Backend::Sparse);
    let now = e.now_s();
    let counters = e.obs().snapshot(now).counters;
    println!(
        "counters: nnz {} / matvec dispatches {} / dropped vars {}",
        counters["consensus.nnz"],
        counters["consensus.matvec_dispatches"],
        counters["consensus.dropped_vars"]
    );

    let record = Record {
        task2,
        threads_sparse,
        counters,
    };
    let text = serde_json::to_string_pretty(&record).expect("serialize record");
    std::fs::write("BENCH_consensus.json", &text).expect("write BENCH_consensus.json");
    println!("\n[record written to BENCH_consensus.json]");
}
