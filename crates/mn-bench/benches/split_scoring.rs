//! Microbenchmark: the split-assignment phase (Alg. 5) — the paper's
//! dominant compute loop — with the batched prefix-sum kernel against
//! the naive per-candidate pass it replaced (the exact-pass stage in
//! isolation and the full phase end-to-end).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mn_comm::SerialEngine;
use mn_data::synthetic;
use mn_rand::MasterRng;
use mn_score::{naive_sigmas, Scoring, SplitScratch};
use mn_tree::{assign_splits_in, learn_module_trees, ModuleEnsemble, SplitContext, TreeParams};
use std::hint::black_box;

fn bench_workload() -> (mn_data::Dataset, Vec<ModuleEnsemble>, MasterRng) {
    let data = synthetic::yeast_like(48, 40, 9).dataset;
    let master = MasterRng::new(4);
    let base = TreeParams::default();
    let ensembles = vec![
        learn_module_trees(
            &mut SerialEngine::new(),
            &data,
            &master,
            0,
            &(0..24).collect::<Vec<_>>(),
            &base,
        ),
        learn_module_trees(
            &mut SerialEngine::new(),
            &data,
            &master,
            1,
            &(24..48).collect::<Vec<_>>(),
            &base,
        ),
    ];
    (data, ensembles, master)
}

/// The exact-pass stage in isolation: all n separation scores of one
/// (node, parent) segment, naive O(n²) rescan vs the O(n log n)
/// prefix-sum kernel, at growing observation counts.
fn bench_exact_pass(c: &mut Criterion) {
    let mut group = c.benchmark_group("exact_pass");
    for n_obs in [100usize, 400, 1600] {
        // Deterministic pseudo-values with plenty of tied runs.
        let vals: Vec<f64> = (0..n_obs).map(|i| ((i * 37) % 97) as f64 / 7.0).collect();
        let obs: Vec<usize> = (0..n_obs).collect();
        let mask: Vec<bool> = (0..n_obs).map(|i| (i * 13) % 3 == 0).collect();

        group.bench_with_input(BenchmarkId::new("naive", n_obs), &n_obs, |b, _| {
            let mut out = Vec::new();
            b.iter(|| {
                naive_sigmas(black_box(&vals), black_box(&mask), &mut out);
                black_box(out.last().copied())
            })
        });
        group.bench_with_input(BenchmarkId::new("kernel", n_obs), &n_obs, |b, _| {
            let mut scratch = SplitScratch::new();
            b.iter(|| {
                let sigmas = scratch.compute(black_box(&vals), black_box(&obs), black_box(&mask));
                black_box(sigmas.last().copied())
            })
        });
    }
    group.finish();
}

/// The full split-assignment phase under both execution paths — what
/// the speedup looks like once the (path-independent) Monte-Carlo
/// confirmation is included.
fn bench_scoring_paths(c: &mut Criterion) {
    let (data, ensembles, master) = bench_workload();
    let parents: Vec<usize> = (0..48).collect();

    let mut group = c.benchmark_group("assign_splits_path");
    group.sample_size(10);
    let params = TreeParams::default();
    for scoring in [Scoring::Naive, Scoring::Kernel] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{scoring:?}")),
            &scoring,
            |b, &scoring| {
                b.iter(|| {
                    let e = &mut SerialEngine::new();
                    let ctx = &mut SplitContext::new();
                    black_box(assign_splits_in(
                        e, &data, &master, &ensembles, &parents, &params, scoring, ctx,
                    ))
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_exact_pass, bench_scoring_paths);
criterion_main!(benches);
