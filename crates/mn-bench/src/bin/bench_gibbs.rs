//! **Gibbs-kernel speedup record** — measures the batched
//! candidate-scoring engine (hoisted removal deltas, tile-stat
//! caches, and one-pass row scans) against the naive per-candidate
//! pass it replaced and writes `BENCH_gibbs.json` so the performance
//! trajectory of the sweep phase accumulates across revisions.
//!
//! Four views are recorded:
//!
//! * the observation-sweep phase (reassign-obs + merge-obs, the
//!   dominant inner loop of Alg. 2) in isolation across an
//!   n_vars × n_obs grid — the naive path recomputes the column
//!   statistics and tile log-marginals once per candidate, so the win
//!   grows with both the row width and the candidate count;
//! * the same phase on `ThreadEngine(3)`, showing the cache survives
//!   the multi-rank dispatch unchanged;
//! * the variable-sweep phase (reassign-vars + merge-vars) in the
//!   many-clusters regime (K₀ = n/2, few observations) where GaneSH
//!   is most of a learn and every proposal scores hundreds of
//!   candidates — the view CI gates on: the kernel path must never
//!   lose to the oracle it replaced, and the kernel on
//!   `ThreadEngine(2)` must never lose to the kernel on one rank;
//! * a full GaneSH run (all four sweeps), where the variable sweeps
//!   dilute the observation-phase win.
//!
//! ```text
//! cargo run --release -p mn-bench --bin bench_gibbs [-- --quick]
//! ```

use mn_bench::{time_it, Args, Table};
use mn_comm::{ParEngine, SerialEngine, ThreadEngine};
use mn_data::synthetic;
use mn_gibbs::{ganesh, sweep, CoClustering, GaneshParams};
use mn_rand::MasterRng;
use mn_score::{CandidateScoring, NormalGamma, ScoreMode};
use serde::Serialize;
use std::hint::black_box;

#[derive(Serialize)]
struct SweepRow {
    n_vars: usize,
    n_obs: usize,
    naive_s: f64,
    kernel_s: f64,
    speedup: f64,
}

#[derive(Serialize)]
struct VarSweepRow {
    n_vars: usize,
    n_obs: usize,
    init_clusters: usize,
    naive_s: f64,
    kernel_s: f64,
    speedup: f64,
    /// Kernel seconds over candidates scored (`engine.items`).
    ns_per_candidate: f64,
    /// The kernel phase on `ThreadEngine::new(2)`.
    threads2_s: f64,
    /// `kernel_s / threads2_s`: the parallel gain over one rank.
    threads2_speedup: f64,
}

#[derive(Serialize)]
struct PhaseRow {
    label: String,
    naive_s: f64,
    kernel_s: f64,
    speedup: f64,
}

#[derive(Serialize)]
struct CountersRow {
    scoring: String,
    counters: std::collections::BTreeMap<String, u64>,
}

#[derive(Serialize)]
struct Record {
    obs_sweep: Vec<SweepRow>,
    var_sweep: Vec<VarSweepRow>,
    threads_phase: PhaseRow,
    full_ganesh: PhaseRow,
    counters: Vec<CountersRow>,
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

/// One module-wide observation-sweep state: every variable in a single
/// cluster, as `sample_obs_partitions` builds for the tree phase. This
/// is where the sweep spends its time at scale — wide rows, √m
/// observation clusters.
fn obs_state(data: &mn_data::Dataset) -> CoClustering {
    let vars: Vec<usize> = (0..data.n_vars()).collect();
    CoClustering::single_var_cluster(
        data,
        &vars,
        NormalGamma::default(),
        ScoreMode::Incremental,
        &MasterRng::new(13),
        0,
    )
}

/// Run `steps` reassign-obs + merge-obs step pairs on the state's
/// single active cluster.
fn obs_phase<E: ParEngine>(
    engine: &mut E,
    state: &mut CoClustering,
    data: &mn_data::Dataset,
    steps: u64,
    scoring: CandidateScoring,
) {
    let master = MasterRng::new(29);
    let slot = state.active_slots()[0];
    for step in 0..steps {
        sweep::reassign_obs(engine, state, data, &master, 0, step, slot, scoring);
        sweep::merge_obs(engine, state, data, &master, 0, step, slot, scoring);
    }
}

fn main() {
    let args = Args::capture();
    let quick = args.has("quick");
    // The paper's data sets have thousands of variables per module
    // network (yeast 5716, A. thaliana 18373), so wide rows are the
    // representative regime; the naive path's per-candidate column
    // recomputation scales with n_vars.
    let (vars_grid, obs_grid, reps): (Vec<usize>, Vec<usize>, usize) = if quick {
        (vec![256], vec![100, 400], 3)
    } else {
        (vec![64, 256, 1024], vec![100, 400, 800], 5)
    };
    let steps = 2u64;

    // --- Observation-sweep phase across the grid ---------------------
    let mut table = Table::new(&["n_vars", "n_obs", "naive (ms)", "kernel (ms)", "speedup"]);
    let mut obs_sweep = Vec::new();
    for &n_vars in &vars_grid {
        for &n_obs in &obs_grid {
            let data = synthetic::yeast_like(n_vars, n_obs, 17).dataset;
            let base = obs_state(&data);
            let time_path = |scoring| {
                median_time(reps, || {
                    let mut s = base.clone();
                    let mut e = SerialEngine::new();
                    obs_phase(&mut e, &mut s, &data, steps, scoring);
                    black_box(s.score());
                })
            };
            let naive_s = time_path(CandidateScoring::Naive);
            let kernel_s = time_path(CandidateScoring::Kernel);
            let speedup = naive_s / kernel_s;
            table.row(&[
                format!("{n_vars}"),
                format!("{n_obs}"),
                format!("{:.2}", naive_s * 1e3),
                format!("{:.2}", kernel_s * 1e3),
                format!("{speedup:.1}×"),
            ]);
            obs_sweep.push(SweepRow {
                n_vars,
                n_obs,
                naive_s,
                kernel_s,
                speedup,
            });
        }
    }
    table.print();

    // --- Same phase on a threaded engine ------------------------------
    let (tn_vars, tn_obs) = if quick { (256, 400) } else { (1024, 800) };
    let data = synthetic::yeast_like(tn_vars, tn_obs, 17).dataset;
    let base = obs_state(&data);
    let time_threads = |scoring| {
        median_time(reps, || {
            let mut s = base.clone();
            let mut e = ThreadEngine::new(3);
            obs_phase(&mut e, &mut s, &data, steps, scoring);
            black_box(s.score());
        })
    };
    let naive_s = time_threads(CandidateScoring::Naive);
    let kernel_s = time_threads(CandidateScoring::Kernel);
    let threads_phase = PhaseRow {
        label: format!("obs sweeps (threads:3, {tn_vars}×{tn_obs})"),
        naive_s,
        kernel_s,
        speedup: naive_s / kernel_s,
    };
    println!(
        "\nthreads:3 phase: naive {:.1} ms, kernel {:.1} ms — {:.2}×",
        naive_s * 1e3,
        kernel_s * 1e3,
        threads_phase.speedup
    );

    // --- Variable-sweep phase, many clusters ---------------------------
    let mut table = Table::new(&[
        "n_vars",
        "n_obs",
        "K0",
        "naive (ms)",
        "kernel (ms)",
        "speedup",
        "ns/candidate",
        "threads:2 (ms)",
        "threads:2 gain",
    ]);
    let mut var_sweep = Vec::new();
    // CI gates both ratios of these rows, so even `--quick` takes the
    // median of five.
    let var_reps = reps.max(5);
    for (n_vars, n_obs) in [(1400, 20), (600, 40)] {
        let data = synthetic::yeast_like(n_vars, n_obs, 17).dataset;
        let master = MasterRng::new(29);
        let init_clusters = n_vars / 2;
        let base = CoClustering::random_init(
            &data,
            init_clusters,
            NormalGamma::default(),
            ScoreMode::Incremental,
            &master,
            0,
        );
        fn var_phase<E: ParEngine>(
            e: &mut E,
            base: &CoClustering,
            data: &mn_data::Dataset,
            master: &MasterRng,
            scoring: CandidateScoring,
        ) {
            let mut s = base.clone();
            sweep::reassign_vars(e, &mut s, data, master, 0, 0, scoring);
            sweep::merge_vars(e, &mut s, data, master, 0, 0, scoring);
            black_box(s.score());
        }
        let time_path = |scoring| {
            median_time(var_reps, || {
                var_phase(&mut SerialEngine::new(), &base, &data, &master, scoring)
            })
        };
        let naive_s = time_path(CandidateScoring::Naive);
        let kernel_s = time_path(CandidateScoring::Kernel);
        let threads2_s = median_time(var_reps, || {
            let mut e = ThreadEngine::new(2);
            var_phase(&mut e, &base, &data, &master, CandidateScoring::Kernel)
        });
        let mut e = SerialEngine::new();
        var_phase(&mut e, &base, &data, &master, CandidateScoring::Kernel);
        let now = e.now_s();
        let candidates = e.obs().snapshot(now).counters["engine.items"];
        let row = VarSweepRow {
            n_vars,
            n_obs,
            init_clusters,
            naive_s,
            kernel_s,
            speedup: naive_s / kernel_s,
            ns_per_candidate: kernel_s * 1e9 / candidates as f64,
            threads2_s,
            threads2_speedup: kernel_s / threads2_s,
        };
        table.row(&[
            format!("{n_vars}"),
            format!("{n_obs}"),
            format!("{init_clusters}"),
            format!("{:.1}", naive_s * 1e3),
            format!("{:.1}", kernel_s * 1e3),
            format!("{:.2}×", row.speedup),
            format!("{:.0}", row.ns_per_candidate),
            format!("{:.1}", threads2_s * 1e3),
            format!("{:.2}×", row.threads2_speedup),
        ]);
        var_sweep.push(row);
    }
    println!();
    table.print();

    // --- Full GaneSH run ----------------------------------------------
    let (gv, go) = if quick { (48, 100) } else { (64, 400) };
    let data = synthetic::yeast_like(gv, go, 17).dataset;
    let master = MasterRng::new(31);
    let params_for = |scoring| GaneshParams {
        init_clusters: Some(8),
        update_steps: 2,
        candidate_scoring: scoring,
        ..GaneshParams::default()
    };
    let time_ganesh = |scoring| {
        let params = params_for(scoring);
        median_time(reps.min(3), || {
            let mut e = SerialEngine::new();
            black_box(ganesh(&mut e, &data, &master, 0, &params));
        })
    };
    let naive_s = time_ganesh(CandidateScoring::Naive);
    let kernel_s = time_ganesh(CandidateScoring::Kernel);
    let full_ganesh = PhaseRow {
        label: format!("ganesh (serial, yeast-like {gv}×{go}, 2 steps)"),
        naive_s,
        kernel_s,
        speedup: naive_s / kernel_s,
    };
    println!(
        "full ganesh: naive {:.1} ms, kernel {:.1} ms — {:.2}×",
        naive_s * 1e3,
        kernel_s * 1e3,
        full_ganesh.speedup
    );

    // One instrumented run per scoring mode: the deterministic counters
    // put the timings in context (how many sweeps/proposals each path
    // ran, the dispatch path taken, and the kernel's cache traffic).
    let counters_for = |scoring| {
        let params = params_for(scoring);
        let mut e = SerialEngine::new();
        ganesh(&mut e, &data, &master, 0, &params);
        let now = e.now_s();
        e.obs().snapshot(now).counters
    };
    let counters = vec![
        CountersRow {
            scoring: "naive".into(),
            counters: counters_for(CandidateScoring::Naive),
        },
        CountersRow {
            scoring: "kernel".into(),
            counters: counters_for(CandidateScoring::Kernel),
        },
    ];
    let proposed = counters[0].counters["gibbs.moves_proposed"];
    assert_eq!(
        proposed, counters[1].counters["gibbs.moves_proposed"],
        "naive and kernel must propose the same moves"
    );
    let hits = counters[1].counters["gibbs.cache_hits"];
    let misses = counters[1].counters["gibbs.cache_misses"];
    println!(
        "counters: {proposed} moves proposed (both paths); kernel cache {hits} hits / {misses} misses ({:.0}% hit)",
        100.0 * hits as f64 / (hits + misses).max(1) as f64
    );

    let record = Record {
        obs_sweep,
        var_sweep,
        threads_phase,
        full_ganesh,
        counters,
    };
    let text = serde_json::to_string_pretty(&record).expect("serialize record");
    std::fs::write("BENCH_gibbs.json", &text).expect("write BENCH_gibbs.json");
    println!("\n[record written to BENCH_gibbs.json]");
}
