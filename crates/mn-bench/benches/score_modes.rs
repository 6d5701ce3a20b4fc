//! Microbenchmark: incremental vs from-scratch (reference) scoring —
//! the §4.1 ablation behind Table 1's constant-factor gap.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mn_comm::SerialEngine;
use mn_data::synthetic;
use mn_gibbs::{ganesh, GaneshParams};
use mn_rand::MasterRng;
use mn_score::{NormalGamma, ScoreMode, SuffStats};
use std::hint::black_box;

fn bench_log_marginal(c: &mut Criterion) {
    let prior = NormalGamma::default();
    let stats = SuffStats::from_values(&[0.3, -1.2, 2.5, 0.0, 0.9, 1.7, -0.4]);
    c.bench_function("normal_gamma/log_marginal", |b| {
        b.iter(|| black_box(prior.log_marginal(black_box(&stats))))
    });
}

fn bench_suffstats(c: &mut Criterion) {
    let values: Vec<f64> = (0..256).map(|i| (i as f64 * 0.37).sin()).collect();
    c.bench_function("suffstats/from_values_256", |b| {
        b.iter(|| black_box(SuffStats::from_values(black_box(&values))))
    });
    let a = SuffStats::from_values(&values[..128]);
    let d = SuffStats::from_values(&values[128..]);
    c.bench_function("suffstats/merge", |b| {
        b.iter(|| black_box(SuffStats::merged(black_box(&a), black_box(&d))))
    });
}

fn bench_ganesh_modes(c: &mut Criterion) {
    let data = synthetic::yeast_like(40, 24, 3).dataset;
    let master = MasterRng::new(1);
    let mut group = c.benchmark_group("ganesh_update_step");
    group.sample_size(10);
    for mode in [ScoreMode::Incremental, ScoreMode::Reference] {
        let params = GaneshParams {
            init_clusters: Some(8),
            update_steps: 1,
            prior: NormalGamma::default(),
            mode,
        };
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{mode:?}")),
            &params,
            |b, params| {
                b.iter(|| {
                    let mut engine = SerialEngine::new();
                    black_box(ganesh(&mut engine, &data, &master, 0, params))
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_log_marginal, bench_suffstats, bench_ganesh_modes);
criterion_main!(benches);
