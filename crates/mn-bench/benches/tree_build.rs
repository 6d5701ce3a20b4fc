//! Microbenchmark: Bayesian hierarchical tree construction (Alg. 4).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mn_comm::SerialEngine;
use mn_data::synthetic;
use mn_gibbs::sample_obs_partitions;
use mn_rand::MasterRng;
use mn_score::ScoreMode;
use mn_tree::{build_tree, TreeParams};
use std::hint::black_box;

fn bench_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("tree_build");
    group.sample_size(10);
    for &m in &[32usize, 64, 128] {
        let data = synthetic::yeast_like(24, m, 7).dataset;
        let master = MasterRng::new(3);
        let vars: Vec<usize> = (0..12).collect();
        let params = TreeParams::default();
        let partition = sample_obs_partitions(
            &mut SerialEngine::new(),
            &data,
            &master,
            0,
            &vars,
            2,
            1,
            params.prior,
            ScoreMode::Incremental,
        )
        .pop()
        .unwrap();
        group.bench_with_input(BenchmarkId::from_parameter(m), &m, |b, _| {
            b.iter(|| {
                let mut engine = SerialEngine::new();
                black_box(build_tree(&mut engine, &data, &vars, &partition, &params))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_build);
criterion_main!(benches);
