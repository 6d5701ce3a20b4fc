//! Microbenchmark: the four Gibbs sweeps of Algorithms 1–2.

use criterion::{criterion_group, criterion_main, Criterion};
use mn_comm::SerialEngine;
use mn_data::synthetic;
use mn_gibbs::{sweep, CoClustering, SweepScorer};
use mn_rand::MasterRng;
use mn_score::{NormalGamma, Scoring};
use std::hint::black_box;

fn setup() -> (mn_data::Dataset, CoClustering, MasterRng) {
    let data = synthetic::yeast_like(48, 32, 5).dataset;
    let master = MasterRng::new(2);
    let state = CoClustering::random_init(&data, 8, NormalGamma::default(), &master, 0);
    (data, state, master)
}

fn bench_sweeps(c: &mut Criterion) {
    let (data, state, master) = setup();
    let mut group = c.benchmark_group("gibbs");
    group.sample_size(10);
    for (label, scoring) in [("kernel", Scoring::Kernel), ("naive", Scoring::Naive)] {
        group.bench_function(format!("reassign_vars_sweep/{label}"), |b| {
            b.iter(|| {
                let mut s = state.clone();
                let mut e = SerialEngine::new();
                let mut scorer = SweepScorer::new(s.prior());
                sweep::reassign_vars(&mut e, &mut s, &mut scorer, &data, &master, 0, 0, scoring);
                black_box(s.score())
            })
        });
        group.bench_function(format!("merge_vars_sweep/{label}"), |b| {
            b.iter(|| {
                let mut s = state.clone();
                let mut e = SerialEngine::new();
                let mut scorer = SweepScorer::new(s.prior());
                sweep::merge_vars(&mut e, &mut s, &mut scorer, &data, &master, 0, 0, scoring);
                black_box(s.n_active())
            })
        });
        group.bench_function(format!("obs_sweeps_one_cluster/{label}"), |b| {
            b.iter(|| {
                let mut s = state.clone();
                let mut e = SerialEngine::new();
                let mut scorer = SweepScorer::new(s.prior());
                let slot = s.active_slots()[0];
                sweep::reassign_obs(
                    &mut e,
                    &mut s,
                    &mut scorer,
                    &data,
                    &master,
                    0,
                    0,
                    slot,
                    scoring,
                );
                sweep::merge_obs(&mut e, &mut s, &mut scorer, &master, 0, 0, slot, scoring);
                black_box(s.score())
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_sweeps);
criterion_main!(benches);
