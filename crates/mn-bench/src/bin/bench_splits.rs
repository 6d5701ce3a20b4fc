//! **Split-kernel speedup record** — measures the batched prefix-sum
//! kernel against the naive per-candidate pass it replaced and writes
//! `BENCH_splits.json` so the performance trajectory of the dominant
//! phase accumulates across revisions.
//!
//! Three views are recorded:
//!
//! * the exact-pass stage in isolation (all n separation scores of one
//!   (node, parent) segment) across growing n — the O(n²) → O(n log n)
//!   change, expected ≥ 3× from n = 100 and growing with n;
//! * the full split-assignment phase in steady state (warm
//!   [`SplitContext`] arenas, warmed-up process, median of N) on the
//!   serial engine and on `threads:3`, for a 48×40 fixture (every node
//!   fits one 64-bit mask word) and then a 48×130 one (nodes of two
//!   and three words);
//! * the per-stage span breakdown of one instrumented run per path, so
//!   the JSON shows *where* inside the phase the time went
//!   (`score-splits` covers scoring and the per-node selection, which
//!   run in one map; `select-splits` is empty).
//!
//! ```text
//! cargo run --release -p mn-bench --bin bench_splits [-- --quick]
//! ```

use mn_bench::{time_it, Args, Table};
use mn_comm::{ParEngine, SerialEngine, ThreadEngine};
use mn_data::synthetic;
use mn_rand::MasterRng;
use mn_score::{naive_sigmas, Scoring, SplitScratch};
use mn_tree::{assign_splits_in, learn_module_trees, ModuleEnsemble, SplitContext, TreeParams};
use serde::Serialize;
use std::hint::black_box;

#[derive(Serialize)]
struct ExactPassRow {
    n_obs: usize,
    naive_s: f64,
    kernel_s: f64,
    speedup: f64,
}

#[derive(Serialize)]
struct PhaseRow {
    label: String,
    engine: String,
    naive_s: f64,
    kernel_s: f64,
    speedup: f64,
}

#[derive(Serialize)]
struct SpanRow {
    scoring: String,
    path: String,
    calls: u64,
    elapsed_s: f64,
}

#[derive(Serialize)]
struct CountersRow {
    scoring: String,
    counters: std::collections::BTreeMap<String, u64>,
}

#[derive(Serialize)]
struct OverheadRow {
    label: String,
    engine: String,
    recorder_on_s: f64,
    recorder_off_s: f64,
    overhead_pct: f64,
}

#[derive(Serialize)]
struct Record {
    exact_pass: Vec<ExactPassRow>,
    full_phase: Vec<PhaseRow>,
    flight_recorder: Vec<OverheadRow>,
    span_breakdown: Vec<SpanRow>,
    counters: Vec<CountersRow>,
}

/// Median of `reps` timings of `f` (seconds per call, amortized over
/// `inner` calls per timing), after one untimed warmup call so lazy
/// allocations, page faults, and branch-predictor state are excluded
/// from every sample.
fn median_time(reps: usize, inner: usize, mut f: impl FnMut()) -> f64 {
    f();
    let mut times: Vec<f64> = (0..reps)
        .map(|_| {
            let (_, t) = time_it(|| {
                for _ in 0..inner {
                    f();
                }
            });
            t / inner as f64
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

fn main() {
    let args = Args::capture();
    let (grid, reps): (Vec<usize>, usize) = if args.has("quick") {
        (vec![100, 400], 5)
    } else {
        (vec![100, 200, 400, 800, 1600], 9)
    };

    // --- Exact-pass stage in isolation -------------------------------
    let mut table = Table::new(&["n_obs", "naive (µs)", "kernel (µs)", "speedup"]);
    let mut exact_pass = Vec::new();
    for &n_obs in &grid {
        let vals: Vec<f64> = (0..n_obs).map(|i| ((i * 37) % 97) as f64 / 7.0).collect();
        let obs: Vec<usize> = (0..n_obs).collect();
        let mask: Vec<bool> = (0..n_obs).map(|i| (i * 13) % 3 == 0).collect();
        // Amortize timer resolution over enough inner calls.
        let inner = (200_000 / n_obs).max(8);

        let mut out = Vec::new();
        let naive_s = median_time(reps, inner, || {
            naive_sigmas(black_box(&vals), black_box(&mask), &mut out);
            black_box(out.last().copied());
        });
        let mut scratch = SplitScratch::new();
        let kernel_s = median_time(reps, inner, || {
            let sigmas = scratch.compute(black_box(&vals), black_box(&obs), black_box(&mask));
            black_box(sigmas.last().copied());
        });
        let speedup = naive_s / kernel_s;
        table.row(&[
            format!("{n_obs}"),
            format!("{:.2}", naive_s * 1e6),
            format!("{:.2}", kernel_s * 1e6),
            format!("{speedup:.1}×"),
        ]);
        exact_pass.push(ExactPassRow {
            n_obs,
            naive_s,
            kernel_s,
            speedup,
        });
    }
    table.print();

    // --- Full phase ---------------------------------------------------
    // Two fixtures: 48×40, whose nodes all fit one 64-bit mask word, and
    // 48×130, whose wider nodes take the multi-word path. Both learn
    // their trees the same way.
    let master = MasterRng::new(4);
    let base = TreeParams::default();
    let fixture = |n_obs: usize| {
        let data = synthetic::yeast_like(48, n_obs, 9).dataset;
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
        (data, ensembles)
    };
    let (data, ensembles) = fixture(40);
    let (wide_data, wide_ensembles) = fixture(130);
    let parents: Vec<usize> = (0..48).collect();
    let phase_reps = if args.has("quick") { 3 } else { 9 };
    // Steady state is the honest measurement: in a real run
    // `assign_splits` fires once per tree-update round with the same
    // arenas, so a persistent `SplitContext` (warmed by `median_time`'s
    // untimed first call) is what production sees. The engine persists
    // across reps too, so thread-pool spawn cost stays out of the
    // timed region.
    struct PhaseSetup<'a> {
        data: &'a mn_data::Dataset,
        master: &'a MasterRng,
        ensembles: &'a [ModuleEnsemble],
        parents: &'a [usize],
        base: &'a TreeParams,
        phase_reps: usize,
    }
    fn time_phase<E: ParEngine>(engine: &mut E, s: &PhaseSetup, scoring: Scoring) -> f64 {
        let mut ctx = SplitContext::new();
        median_time(s.phase_reps, 1, || {
            black_box(assign_splits_in(
                engine,
                s.data,
                s.master,
                s.ensembles,
                s.parents,
                s.base,
                scoring,
                &mut ctx,
            ));
        })
    }
    let setup = PhaseSetup {
        data: &data,
        master: &master,
        ensembles: &ensembles,
        parents: &parents,
        base: &base,
        phase_reps,
    };
    let wide_setup = PhaseSetup {
        data: &wide_data,
        ensembles: &wide_ensembles,
        ..setup
    };
    // The 48×40 rows come first: CI gates `.full_phase[0]`.
    let mut full_phase = Vec::new();
    for (label, setup) in [
        ("assign_splits (steady-state, yeast-like 48×40)", &setup),
        (
            "assign_splits (steady-state, yeast-like 48×130)",
            &wide_setup,
        ),
    ] {
        for engine_label in ["serial", "threads:3"] {
            let (naive_s, kernel_s) = if engine_label == "serial" {
                (
                    time_phase(&mut SerialEngine::new(), setup, Scoring::Naive),
                    time_phase(&mut SerialEngine::new(), setup, Scoring::Kernel),
                )
            } else {
                (
                    time_phase(&mut ThreadEngine::new(3), setup, Scoring::Naive),
                    time_phase(&mut ThreadEngine::new(3), setup, Scoring::Kernel),
                )
            };
            let row = PhaseRow {
                label: label.into(),
                engine: engine_label.into(),
                naive_s,
                kernel_s,
                speedup: naive_s / kernel_s,
            };
            println!(
                "full phase {label} [{engine_label}]: naive {:.2} ms, kernel {:.2} ms — {:.2}×",
                naive_s * 1e3,
                kernel_s * 1e3,
                row.speedup
            );
            full_phase.push(row);
        }
    }

    // --- Flight-recorder overhead -------------------------------------
    // The recorder is always-on in production; this A/B pins its cost
    // on the dominant phase (kernel scoring, same steady-state setup):
    // identical runs with the ring buffers recording vs disabled. The
    // acceptance bar is < 2% overhead.
    let mut flight_recorder = Vec::new();
    for engine_label in ["serial", "threads:3"] {
        let timed = |enabled: bool| -> f64 {
            if engine_label == "serial" {
                let mut engine = SerialEngine::new();
                engine.obs().flight().set_enabled(enabled);
                time_phase(&mut engine, &setup, Scoring::Kernel)
            } else {
                let mut engine = ThreadEngine::new(3);
                engine.obs().flight().set_enabled(enabled);
                time_phase(&mut engine, &setup, Scoring::Kernel)
            }
        };
        let recorder_off_s = timed(false);
        let recorder_on_s = timed(true);
        let overhead_pct = (recorder_on_s - recorder_off_s) / recorder_off_s * 100.0;
        println!(
            "flight recorder [{engine_label}]: on {:.3} ms, off {:.3} ms — {overhead_pct:+.2}% overhead",
            recorder_on_s * 1e3,
            recorder_off_s * 1e3,
        );
        if overhead_pct >= 2.0 {
            println!("  WARNING: overhead above the 2% budget");
        }
        flight_recorder.push(OverheadRow {
            label: "assign_splits (steady-state, yeast-like 48×40)".into(),
            engine: engine_label.into(),
            recorder_on_s,
            recorder_off_s,
            overhead_pct,
        });
    }

    // One instrumented run per scoring path: the deterministic event
    // counters put the timings in context (how many split scores the
    // phase computed and through which dispatch path) and the span
    // aggregates show the per-stage breakdown.
    let observe = |scoring: Scoring| {
        let mut engine = SerialEngine::new();
        let (e, ctx) = (&mut engine, &mut SplitContext::new());
        assign_splits_in(e, &data, &master, &ensembles, &parents, &base, scoring, ctx);
        let now = engine.now_s();
        engine.obs().snapshot(now)
    };
    let snap_naive = observe(Scoring::Naive);
    let snap_kernel = observe(Scoring::Kernel);
    let mut span_breakdown = Vec::new();
    for (scoring, snap) in [("naive", &snap_naive), ("kernel", &snap_kernel)] {
        for agg in snap.aggregate_spans() {
            if agg.path.contains("assign-splits") {
                span_breakdown.push(SpanRow {
                    scoring: scoring.into(),
                    path: agg.path.clone(),
                    calls: agg.count,
                    elapsed_s: agg.elapsed_s,
                });
            }
        }
    }
    println!("\nper-stage breakdown (one instrumented run each):");
    for row in &span_breakdown {
        println!(
            "  {:6} {:32} {:9.3} ms",
            row.scoring,
            row.path,
            row.elapsed_s * 1e3
        );
    }
    let counters = vec![
        CountersRow {
            scoring: "naive".into(),
            counters: snap_naive.counters,
        },
        CountersRow {
            scoring: "kernel".into(),
            counters: snap_kernel.counters,
        },
    ];
    let scored = counters[0].counters["splits.scored"];
    assert_eq!(
        scored, counters[1].counters["splits.scored"],
        "naive and kernel must score the same splits"
    );
    println!(
        "counters: {scored} splits scored over {} nodes (both dispatch paths)",
        counters[0].counters["splits.nodes"]
    );

    let record = Record {
        exact_pass,
        full_phase,
        flight_recorder,
        span_breakdown,
        counters,
    };
    let text = serde_json::to_string_pretty(&record).expect("serialize record");
    std::fs::write("BENCH_splits.json", &text).expect("write BENCH_splits.json");
    println!("\n[record written to BENCH_splits.json]");
}
