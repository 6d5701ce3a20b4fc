//! A/B determinism of the Gibbs candidate-scoring paths: the batched
//! kernel and the naive per-candidate pass must sample identical
//! chains — same weights, same `Select-Wtd-Rand` draws, same final
//! co-clustering — on every engine and rank count, and charge the
//! identical work accounting, so every imbalance figure is
//! path-independent.

use mn_comm::{spmd_run, ParEngine, RunReport, SerialEngine, SimEngine, ThreadEngine};
use mn_data::{synthetic, Dataset};
use mn_gibbs::{ganesh_with_scoring, CoClustering, GaneshParams};
use mn_obs::counters;
use mn_rand::MasterRng;
use mn_score::{CandidateScoring, ScoreMode};
use std::collections::BTreeMap;

fn data() -> Dataset {
    synthetic::yeast_like(20, 14, 9).dataset
}

fn params(mode: ScoreMode) -> GaneshParams {
    GaneshParams {
        init_clusters: Some(6),
        update_steps: 2,
        mode,
        ..GaneshParams::default()
    }
}

fn run<E: ParEngine>(
    engine: &mut E,
    d: &Dataset,
    scoring: CandidateScoring,
    mode: ScoreMode,
) -> CoClustering {
    let master = MasterRng::new(11);
    ganesh_with_scoring(engine, d, &master, 0, &params(mode), scoring)
}

#[test]
fn kernel_matches_naive_on_every_engine_and_rank_count() {
    let d = data();
    for mode in [ScoreMode::Incremental, ScoreMode::Reference] {
        let reference = run(&mut SerialEngine::new(), &d, CandidateScoring::Naive, mode);
        assert_eq!(
            run(&mut SerialEngine::new(), &d, CandidateScoring::Kernel, mode),
            reference,
            "serial kernel diverged ({mode:?})"
        );
        assert_eq!(
            run(&mut ThreadEngine::new(3), &d, CandidateScoring::Kernel, mode),
            reference,
            "thread kernel diverged ({mode:?})"
        );
        for p in [2usize, 4, 9] {
            assert_eq!(
                run(&mut SimEngine::new(p), &d, CandidateScoring::Kernel, mode),
                reference,
                "sim kernel p={p} diverged ({mode:?})"
            );
        }
        for p in [2usize, 3] {
            let results = spmd_run(p, |e| run(e, &d, CandidateScoring::Kernel, mode));
            for (rank, r) in results.into_iter().enumerate() {
                assert_eq!(r, reference, "msg rank {rank}/{p} diverged ({mode:?})");
            }
        }
    }
}

/// Drop the path markers themselves (dispatch tallies and the
/// kernel-only cache traffic) from a counter snapshot.
fn strip(mut c: BTreeMap<String, u64>) -> BTreeMap<String, u64> {
    for key in [
        counters::GIBBS_KERNEL_DISPATCHES,
        counters::GIBBS_NAIVE_DISPATCHES,
        counters::GIBBS_CACHE_HITS,
        counters::GIBBS_CACHE_MISSES,
        counters::SCORE_LN_GAMMA_CALLS,
        counters::SCORE_LN_GAMMA_TABLE_HITS,
    ] {
        c.remove(key);
    }
    c
}

/// The deterministic counters agree between the two paths once the
/// path markers are set aside: same sweeps, same proposals/acceptances,
/// same dist-map shapes, same replicated charges, same collectives.
#[test]
fn counters_agree_modulo_path_markers() {
    let d = data();
    let counts = |scoring: CandidateScoring| {
        let mut e = SerialEngine::new();
        run(&mut e, &d, scoring, ScoreMode::Incremental);
        e.report();
        let now = e.now_s();
        e.obs().snapshot(now).counters
    };
    let kernel = counts(CandidateScoring::Kernel);
    let naive = counts(CandidateScoring::Naive);
    assert!(kernel[counters::GIBBS_CACHE_HITS] > 0, "kernel cache never hit");
    let lg_calls = kernel[counters::SCORE_LN_GAMMA_CALLS];
    let lg_hits = kernel[counters::SCORE_LN_GAMMA_TABLE_HITS];
    assert!(lg_hits > 0, "ln-gamma memo never hit");
    assert!(lg_hits < lg_calls, "memo cannot hit before it fills");
    assert_eq!(strip(kernel), strip(naive));
}

/// Both paths charge the identical work: the kernel reports the naive
/// formula's cost per candidate and the same hoisted-removal
/// replicated charge, so serial work-unit totals and whole simulated
/// reports (busy times, imbalance, comm volume) are bit-identical.
#[test]
fn paths_charge_identical_work() {
    let d = data();
    let mut ea = SerialEngine::new();
    let mut eb = SerialEngine::new();
    run(&mut ea, &d, CandidateScoring::Naive, ScoreMode::Incremental);
    run(&mut eb, &d, CandidateScoring::Kernel, ScoreMode::Incremental);
    assert_eq!(ea.work_units(), eb.work_units());
    for p in [4usize, 9] {
        let mut sa = SimEngine::new(p);
        let mut sb = SimEngine::new(p);
        run(&mut sa, &d, CandidateScoring::Naive, ScoreMode::Incremental);
        run(&mut sb, &d, CandidateScoring::Kernel, ScoreMode::Incremental);
        assert_eq!(sa.report(), sb.report(), "sim report diverged at p={p}");
    }
}

/// Many clusters, few observations — the shape where GaneSH dominates
/// a learn (K₀ = n/2, so every proposal scores ≈ 150 candidates and
/// most clusters are touched between two proposals of one variable).
/// The small shapes above never reach the kernel's paths at scale:
/// stored tile log-marginals refreshed by thousands of accepted moves,
/// clusters created and freed, count tables growing mid-sweep, and
/// candidate lists split at many block boundaries. Clusterings, work
/// accounting and every counter must still equal the naive path's on
/// every engine.
#[test]
fn many_clusters_few_observations_kernel_matches_naive() {
    let d = synthetic::yeast_like(300, 12, 5).dataset;
    /// The sampled clustering, the path-neutral counters and the
    /// engine's report (deterministic on sim only).
    fn go<E: ParEngine>(
        e: &mut E,
        d: &Dataset,
        scoring: CandidateScoring,
    ) -> ((CoClustering, BTreeMap<String, u64>), RunReport) {
        let p = GaneshParams {
            init_clusters: Some(d.n_vars() / 2),
            ..params(ScoreMode::Incremental)
        };
        let state = ganesh_with_scoring(e, d, &MasterRng::new(11), 0, &p, scoring);
        let report = e.report();
        let now = e.now_s();
        ((state, strip(e.obs().snapshot(now).counters)), report)
    }
    const NAIVE: CandidateScoring = CandidateScoring::Naive;
    const KERNEL: CandidateScoring = CandidateScoring::Kernel;

    let mut ea = SerialEngine::new();
    let mut eb = SerialEngine::new();
    let (reference, _) = go(&mut ea, &d, NAIVE);
    assert_eq!(go(&mut eb, &d, KERNEL).0, reference, "serial");
    assert_eq!(ea.work_units(), eb.work_units(), "serial work units");

    let (naive, _) = go(&mut ThreadEngine::new(3), &d, NAIVE);
    assert_eq!(naive.0, reference.0, "threads:3 naive clustering");
    let (kernel, _) = go(&mut ThreadEngine::new(3), &d, KERNEL);
    assert_eq!(kernel, naive, "threads:3");

    let (naive, naive_report) = go(&mut SimEngine::new(4), &d, NAIVE);
    let (kernel, kernel_report) = go(&mut SimEngine::new(4), &d, KERNEL);
    assert_eq!(naive.0, reference.0, "sim:4 naive clustering");
    assert_eq!(kernel, naive, "sim:4");
    assert_eq!(kernel_report, naive_report, "sim:4 report");

    let naive = spmd_run(2, |e| go(e, &d, NAIVE).0);
    let kernel = spmd_run(2, |e| go(e, &d, KERNEL).0);
    assert_eq!(naive[0].0, reference.0, "msg:2 naive clustering");
    assert_eq!(kernel, naive, "msg:2");
}
