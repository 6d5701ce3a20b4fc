//! The parallel update sweeps of Algorithms 1 and 2.
//!
//! Each sweep follows the paper's structure exactly:
//!
//! * `Reassign-Var-Cluster` (Alg. 1 lines 3–11): `n` iterations; each
//!   picks a variable uniformly at random (`Select-Unif-Rand`),
//!   computes the reassignment score for every candidate cluster — the
//!   candidate list is block-partitioned over ranks — and moves the
//!   variable to a cluster drawn with probability ∝ exp(Δscore)
//!   (`Select-Wtd-Rand`).
//! * `Merge-Var-Cluster` (lines 12–20): for each cluster, scores
//!   merging into every other cluster in parallel and merges into a
//!   weighted-random choice (or keeps it, the `stay` candidate).
//! * `Reassign-Obs-Cluster` / `Merge-Obs-Cluster` (Alg. 2): the same
//!   two moves applied to the observation partition of one variable
//!   cluster with the variable clusters held fixed.
//!
//! Candidate-list convention: existing clusters in slot order followed
//! by one "fresh cluster" candidate; the *stay* choice is the current
//! cluster's own entry (Δ = 0). A variable's fresh-cluster candidate
//! starts with a single observation cluster over all observations (the
//! paper leaves the fresh partition unspecified; this choice is the
//! simplest that keeps the score decomposable, and is applied
//! identically in sequential and parallel execution).
//!
//! Randomness discipline: each sweep consumes one named stream
//! (`Domain::{ReassignVar, MergeVar, ReassignObs, MergeObs}` keyed by
//! GaneSH run and update step), with a fixed number of draws per
//! iteration, so every engine and rank count replays the identical
//! decision sequence.
//!
//! Partitioning: the sweeps call the engine's `dist_map*` entry points
//! and therefore inherit the engine's block split (or, on the
//! simulator, an ablation oracle's owners), but results are assembled
//! in item order and every draw comes from the item-keyed streams
//! above, so the sampled moves are partition-invariant by
//! construction.
//!
//! ## Candidate-scoring paths
//!
//! Every sweep evaluates its candidate list through one of two paths
//! selected by [`CandidateScoring`]. The learner always passes
//! `Kernel`; `Naive` is the oracle the A/B tests and `bench_gibbs`
//! compare it against (driver-level: `ganesh_with_scoring`).
//!
//! * **Naive** — each candidate re-derives the statistics and both
//!   log-marginals it needs from the state (the cost profile of Alg. 1
//!   line 8 taken literally), except that the candidate-independent
//!   removal delta is computed once per move (see the comment in
//!   [`reassign_vars`]).
//! * **Kernel** — each candidate's weight is a pure function of the
//!   state, the data, the moving item, the removal delta and the
//!   sweep's [`PriorConsts`]
//!   ([`crate::scorer`]), evaluated entirely inside
//!   [`ParEngine::dist_map_segmented_batch`] with one `Segments`
//!   boundary per candidate. Tile log-marginals are read from the
//!   state, where every accepted move refreshes them, and `ln Γ(α_N)`
//!   / `ln λ_N` from the constants' count tables, which a per-sweep
//!   [`SweepScorer`] grows in replicated control flow only, through
//!   the counts the previous map's candidates evaluated. Inside a
//!   map nothing is written and nothing is locked, so the replicated
//!   remainder of a proposal is the removal delta, `Select-Wtd-Rand`
//!   and the move. The kernel *reports* the naive formula's
//!   per-candidate work, so block partitioning, per-item accounting
//!   and the §5.3.1 imbalance records are byte-identical to the naive
//!   path; its real saving shows up as wall-clock (`bench_gibbs`).
//!
//! Both paths produce bit-identical weights (argued in
//! `mn_score::gibbs_kernel` and DESIGN.md §9), hence identical
//! `Select-Wtd-Rand` draws and identical clusterings. The kernel
//! requires maintained tile statistics, so under
//! [`ScoreMode::Reference`] the naive path is used regardless of the
//! requested scoring (and counted as a naive dispatch).

use crate::moves::MoveTarget;
use crate::scorer::{
    obs_candidate, obs_merge_candidate, var_candidate, var_merge_candidate, SweepScorer,
};
use crate::state::CoClustering;
use mn_comm::{Collective, ParEngine, Segments};
use mn_data::Dataset;
use mn_obs::counters;
use mn_rand::{select_unif_rand, select_wtd_log, Domain, MasterRng};
use mn_score::{CandidateScoring, PriorConsts, ScoreMode};

/// Composite stream key for (run, step) pairs.
#[inline]
pub fn step_key(run: u64, step: u64) -> u64 {
    run.wrapping_mul(0x1_0000_0000).wrapping_add(step)
}

/// Whether the batched kernel actually runs, given the requested
/// scoring and the state's score mode; counts the dispatch.
fn dispatch<E: ParEngine>(
    engine: &mut E,
    scoring: CandidateScoring,
    mode: ScoreMode,
) -> bool {
    let kernel = scoring == CandidateScoring::Kernel && mode == ScoreMode::Incremental;
    engine.count(
        if kernel {
            counters::GIBBS_KERNEL_DISPATCHES
        } else {
            counters::GIBBS_NAIVE_DISPATCHES
        },
        1,
    );
    kernel
}

/// Flush a sweep's replicated-flow totals into the deterministic
/// counters: column-cache traffic and count-table `ln Γ` traffic. Both
/// only happen in replicated control flow, so the totals are identical
/// on every rank.
fn flush_cache_counters<E: ParEngine>(engine: &mut E, scorer: &SweepScorer) {
    engine.count(counters::GIBBS_CACHE_HITS, scorer.hits());
    engine.count(counters::GIBBS_CACHE_MISSES, scorer.misses());
    engine.count(counters::SCORE_LN_GAMMA_CALLS, scorer.ln_gamma_calls());
    engine.count(
        counters::SCORE_LN_GAMMA_TABLE_HITS,
        scorer.ln_gamma_table_hits(),
    );
}

/// Per-candidate segments: one `Segments` boundary per candidate, so
/// the engines' block partitioning of the batched map is exactly the
/// block partitioning of the per-item map over the same list. One
/// value serves a whole sweep and is rebuilt only when the candidate
/// count changes (a cluster was created or freed).
fn per_candidate_segments(segments: &mut Segments, n_cand: usize) {
    if segments.n_items() != n_cand {
        *segments = Segments::from_lens(std::iter::repeat_n(1, n_cand));
    }
}

/// One full variable-reassignment sweep (Alg. 1, `Reassign-Var-Cluster`).
pub fn reassign_vars<E: ParEngine>(
    engine: &mut E,
    state: &mut CoClustering,
    data: &Dataset,
    master: &MasterRng,
    run: u64,
    step: u64,
    scoring: CandidateScoring,
) {
    let n = data.n_vars();
    let mut stream = master.stream(Domain::ReassignVar, step_key(run, step));
    engine.span_enter("sweep:reassign-vars");
    engine.count(counters::GIBBS_SWEEPS, 1);
    let kernel = dispatch(engine, scoring, state.mode());
    let mut scorer = SweepScorer::new(state.prior());
    let mut slots = Vec::new();
    let mut weights = Vec::new();
    let mut exps = Vec::new();
    let mut segments = Segments::whole(0);
    for _ in 0..n {
        engine.count(counters::GIBBS_MOVES_PROPOSED, 1);
        let x = select_unif_rand(&mut stream, n);
        let cur = state.slot_of_var(x);

        state.fill_active_slots(&mut slots);
        let n_cand = slots.len() + 1; // + fresh cluster

        // Alg. 1 line 8 scores `removal + addition` per candidate, but
        // the removal component does not depend on the candidate:
        // recomputing it inside the block-partitioned loop replicated
        // the same evaluation once per candidate on whichever ranks
        // own them — parallelized redundancy, not parallelism. It is
        // now computed once per move in replicated control flow (every
        // rank holds the full state, so hoisting it "broadcasts" the
        // value without communication) and charged via `replicated`;
        // the per-candidate work below is the addition component only.
        // The weights are bit-identical to the old ones: `rem` carries
        // the exact bits each candidate's `rem + add` used to
        // recompute for itself.
        let (rem, rem_work) = if kernel {
            scorer.var_removal(data, state, x)
        } else {
            state.var_removal_delta(data, x)
        };
        engine.replicated(rem_work);

        let state_ref: &CoClustering = state;
        if kernel {
            // Items are `(weight, largest count evaluated)`: the counts
            // grow the sweep's tables after the map, in replicated flow.
            let consts = scorer.consts();
            per_candidate_segments(&mut segments, n_cand);
            let items = engine.dist_map_segmented_batch(&segments, 1, &|_seg, range, out| {
                for i in range {
                    let slot = slots.get(i).copied(); // past the end: fresh
                    out.push(var_candidate(consts, data, state_ref, x, slot, rem).item());
                }
            });
            scorer.take_weights(&items, &mut weights);
        } else {
            weights = engine.dist_map(n_cand, 1, &|i| {
                if i < slots.len() {
                    let slot = slots[i];
                    if slot == cur {
                        (0.0, 1)
                    } else {
                        let (add, work) = state_ref.var_addition_delta(data, x, slot);
                        (rem + add, work)
                    }
                } else {
                    let (add, work) = state_ref.var_new_cluster_delta(data, x);
                    (rem + add, work)
                }
            });
        }
        // The collective part of Select-Wtd-Rand (§3.1).
        engine.collective(Collective::AllReduce, 1);
        let choice = select_wtd_log(&mut stream, &weights, &mut exps);
        let target = if choice < slots.len() {
            MoveTarget::Existing(slots[choice])
        } else {
            MoveTarget::New
        };
        if target != MoveTarget::Existing(cur) {
            engine.count(counters::GIBBS_MOVES_ACCEPTED, 1);
            state.move_var(data, x, target);
        }
    }
    if kernel {
        flush_cache_counters(engine, &scorer);
    }
    engine.span_exit();
}

/// One full variable-merge sweep (Alg. 1, `Merge-Var-Cluster`).
pub fn merge_vars<E: ParEngine>(
    engine: &mut E,
    state: &mut CoClustering,
    data: &Dataset,
    master: &MasterRng,
    run: u64,
    step: u64,
    scoring: CandidateScoring,
) {
    let mut stream = master.stream(Domain::MergeVar, step_key(run, step));
    engine.span_enter("sweep:merge-vars");
    engine.count(counters::GIBBS_SWEEPS, 1);
    let kernel = dispatch(engine, scoring, state.mode());
    let consts = PriorConsts::new(state.prior());
    let snapshot = state.active_slots();
    let mut candidates = Vec::new();
    let mut exps = Vec::new();
    let mut segments = Segments::whole(0);
    for &slot in &snapshot {
        // The cluster may have been absorbed by an earlier merge in
        // this very sweep.
        if !state.is_active(slot) {
            continue;
        }
        engine.count(counters::GIBBS_MOVES_PROPOSED, 1);
        state.fill_active_slots(&mut candidates);
        let state_ref: &CoClustering = state;
        let weights: Vec<f64> = if kernel {
            per_candidate_segments(&mut segments, candidates.len());
            engine.dist_map_segmented_batch(&segments, 1, &|_seg, range, out| {
                for &t in &candidates[range] {
                    out.push(var_merge_candidate(&consts, data, state_ref, slot, t));
                }
            })
        } else {
            engine.dist_map(candidates.len(), 1, &|i| {
                let t = candidates[i];
                if t == slot {
                    (0.0, 1)
                } else {
                    state_ref.merge_delta(data, slot, t)
                }
            })
        };
        engine.collective(Collective::AllReduce, 1);
        let choice = select_wtd_log(&mut stream, &weights, &mut exps);
        let target = candidates[choice];
        if target != slot {
            engine.count(counters::GIBBS_MOVES_ACCEPTED, 1);
            state.merge_var_clusters(data, slot, target);
        }
    }
    engine.span_exit();
}

/// One observation-reassignment sweep inside variable cluster `slot`
/// (Alg. 2, `Reassign-Obs-Cluster`).
#[allow(clippy::too_many_arguments)]
pub fn reassign_obs<E: ParEngine>(
    engine: &mut E,
    state: &mut CoClustering,
    data: &Dataset,
    master: &MasterRng,
    run: u64,
    step: u64,
    slot: usize,
    scoring: CandidateScoring,
) {
    let m = data.n_obs();
    let mut stream =
        master.stream2(Domain::ReassignObs, step_key(run, step), slot as u64);
    engine.span_enter("sweep:reassign-obs");
    engine.count(counters::GIBBS_SWEEPS, 1);
    let kernel = dispatch(engine, scoring, state.mode());
    let mut scorer = SweepScorer::new(state.prior());
    let mut oslots = Vec::new();
    let mut weights = Vec::new();
    let mut exps = Vec::new();
    let mut segments = Segments::whole(0);
    for _ in 0..m {
        engine.count(counters::GIBBS_MOVES_PROPOSED, 1);
        let o = select_unif_rand(&mut stream, m);
        let cur = state.cluster(slot).obs.slot_of(o);

        state.cluster(slot).obs.fill_active_slots(&mut oslots);
        let n_cand = oslots.len() + 1;

        // As in the variable sweep, the candidate-independent removal
        // component is hoisted out of the parallel loop and charged as
        // replicated work (see the comment in `reassign_vars`).
        let (rem, rem_work) = if kernel {
            scorer.obs_removal(data, state, slot, o)
        } else {
            state.obs_removal_delta(data, slot, o)
        };
        engine.replicated(rem_work);

        let state_ref: &CoClustering = state;
        if kernel {
            let (col, lm_col) = scorer.obs_col(data, state_ref, slot, o);
            let consts = scorer.consts();
            per_candidate_segments(&mut segments, n_cand);
            let items = engine.dist_map_segmented_batch(&segments, 1, &|_seg, range, out| {
                for i in range {
                    let t = oslots.get(i).copied(); // past the end: fresh
                    let scored = obs_candidate(consts, state_ref, slot, o, (&col, lm_col), t, rem);
                    out.push(scored.item());
                }
            });
            scorer.take_weights(&items, &mut weights);
        } else {
            weights = engine.dist_map(n_cand, 1, &|i| {
                if i < oslots.len() {
                    let t = oslots[i];
                    if t == cur {
                        (0.0, 1)
                    } else {
                        let (add, work) = state_ref.obs_addition_delta(data, slot, o, t);
                        (rem + add, work)
                    }
                } else {
                    let (add, work) = state_ref.obs_new_cluster_delta(data, slot, o);
                    (rem + add, work)
                }
            });
        }
        engine.collective(Collective::AllReduce, 1);
        let choice = select_wtd_log(&mut stream, &weights, &mut exps);
        let target = oslots.get(choice).copied();
        if target != Some(cur) {
            engine.count(counters::GIBBS_MOVES_ACCEPTED, 1);
            state.move_obs(data, slot, o, target);
        }
    }
    if kernel {
        flush_cache_counters(engine, &scorer);
    }
    engine.span_exit();
}

/// One observation-merge sweep inside variable cluster `slot`
/// (Alg. 2, `Merge-Obs-Cluster`).
#[allow(clippy::too_many_arguments)]
pub fn merge_obs<E: ParEngine>(
    engine: &mut E,
    state: &mut CoClustering,
    data: &Dataset,
    master: &MasterRng,
    run: u64,
    step: u64,
    slot: usize,
    scoring: CandidateScoring,
) {
    let mut stream = master.stream2(Domain::MergeObs, step_key(run, step), slot as u64);
    engine.span_enter("sweep:merge-obs");
    engine.count(counters::GIBBS_SWEEPS, 1);
    let kernel = dispatch(engine, scoring, state.mode());
    let consts = PriorConsts::new(state.prior());
    let snapshot = state.cluster(slot).obs.active_slots();
    let mut candidates = Vec::new();
    let mut exps = Vec::new();
    let mut segments = Segments::whole(0);
    for &oslot in &snapshot {
        if !state.cluster(slot).obs.is_active(oslot) {
            continue;
        }
        engine.count(counters::GIBBS_MOVES_PROPOSED, 1);
        state.cluster(slot).obs.fill_active_slots(&mut candidates);
        let state_ref: &CoClustering = state;
        let weights: Vec<f64> = if kernel {
            per_candidate_segments(&mut segments, candidates.len());
            engine.dist_map_segmented_batch(&segments, 1, &|_seg, range, out| {
                for &t in &candidates[range] {
                    out.push(obs_merge_candidate(&consts, state_ref, slot, oslot, t));
                }
            })
        } else {
            engine.dist_map(candidates.len(), 1, &|i| {
                let t = candidates[i];
                if t == oslot {
                    (0.0, 1)
                } else {
                    state_ref.obs_merge_delta(data, slot, oslot, t)
                }
            })
        };
        engine.collective(Collective::AllReduce, 1);
        let choice = select_wtd_log(&mut stream, &weights, &mut exps);
        let target = candidates[choice];
        if target != oslot {
            engine.count(counters::GIBBS_MOVES_ACCEPTED, 1);
            state.merge_obs_clusters(slot, oslot, target);
        }
    }
    engine.span_exit();
}

#[cfg(test)]
mod tests {
    use super::*;
    use mn_comm::{SerialEngine, SimEngine, ThreadEngine};
    use mn_data::synthetic;
    use mn_score::{NormalGamma, ScoreMode};

    const BOTH: [CandidateScoring; 2] = [CandidateScoring::Kernel, CandidateScoring::Naive];

    fn setup() -> (Dataset, CoClustering, MasterRng) {
        let d = synthetic::yeast_like(18, 12, 21).dataset;
        let master = MasterRng::new(4);
        let s = CoClustering::random_init(
            &d,
            5,
            NormalGamma::default(),
            ScoreMode::Incremental,
            &master,
            0,
        );
        (d, s, master)
    }

    #[test]
    fn sweeps_preserve_invariants() {
        for scoring in BOTH {
            let (d, mut s, master) = setup();
            let mut e = SerialEngine::new();
            reassign_vars(&mut e, &mut s, &d, &master, 0, 0, scoring);
            s.validate(&d);
            merge_vars(&mut e, &mut s, &d, &master, 0, 0, scoring);
            s.validate(&d);
            for slot in s.active_slots() {
                reassign_obs(&mut e, &mut s, &d, &master, 0, 0, slot, scoring);
                s.validate(&d);
                merge_obs(&mut e, &mut s, &d, &master, 0, 0, slot, scoring);
                s.validate(&d);
            }
        }
    }

    #[test]
    fn sweeps_identical_across_engines() {
        for scoring in BOTH {
            let (d, s0, master) = setup();

            let run = |mut engine: Box<dyn FnMut(&mut CoClustering)>| {
                let mut s = s0.clone();
                engine(&mut s);
                s
            };

            let serial = run(Box::new(|s| {
                let mut e = SerialEngine::new();
                reassign_vars(&mut e, s, &d, &master, 0, 0, scoring);
                merge_vars(&mut e, s, &d, &master, 0, 0, scoring);
            }));
            let threads = run(Box::new(|s| {
                let mut e = ThreadEngine::new(3);
                reassign_vars(&mut e, s, &d, &master, 0, 0, scoring);
                merge_vars(&mut e, s, &d, &master, 0, 0, scoring);
            }));
            let sim = run(Box::new(|s| {
                let mut e = SimEngine::new(64);
                reassign_vars(&mut e, s, &d, &master, 0, 0, scoring);
                merge_vars(&mut e, s, &d, &master, 0, 0, scoring);
            }));
            assert_eq!(serial, threads, "thread engine diverged ({scoring:?})");
            assert_eq!(serial, sim, "sim engine diverged ({scoring:?})");
        }
    }

    /// The scoring paths are interchangeable mid-chain: the kernel's
    /// weights are bit-identical to the naive ones, so the sampled
    /// clustering is the same whichever path scored each sweep.
    #[test]
    fn scoring_paths_sample_identical_clusterings() {
        let (d, s0, master) = setup();
        let run = |scoring: CandidateScoring| {
            let mut s = s0.clone();
            let mut e = SerialEngine::new();
            for step in 0..3 {
                reassign_vars(&mut e, &mut s, &d, &master, 0, step, scoring);
                merge_vars(&mut e, &mut s, &d, &master, 0, step, scoring);
                for slot in s.active_slots() {
                    reassign_obs(&mut e, &mut s, &d, &master, 0, step, slot, scoring);
                    merge_obs(&mut e, &mut s, &d, &master, 0, step, slot, scoring);
                }
            }
            s
        };
        assert_eq!(
            run(CandidateScoring::Kernel),
            run(CandidateScoring::Naive),
            "kernel and naive scoring sampled different chains"
        );
    }

    #[test]
    fn sweep_counters_identical_across_engines() {
        for scoring in BOTH {
            let (d, s0, master) = setup();
            fn counts<E: ParEngine>(
                mut e: E,
                d: &Dataset,
                s0: &CoClustering,
                master: &MasterRng,
                scoring: CandidateScoring,
            ) -> std::collections::BTreeMap<String, u64> {
                let mut s = s0.clone();
                reassign_vars(&mut e, &mut s, d, master, 0, 0, scoring);
                merge_vars(&mut e, &mut s, d, master, 0, 0, scoring);
                e.report();
                let now = e.now_s();
                e.obs().snapshot(now).counters
            }
            let serial = counts(SerialEngine::new(), &d, &s0, &master, scoring);
            assert!(serial[counters::GIBBS_SWEEPS] == 2);
            assert!(
                serial[counters::GIBBS_MOVES_PROPOSED] >= serial[counters::GIBBS_MOVES_ACCEPTED]
            );
            match scoring {
                CandidateScoring::Kernel => {
                    assert_eq!(serial[counters::GIBBS_KERNEL_DISPATCHES], 2);
                    // Variable sweeps keep no cache; their removal
                    // deltas are served from the grown count tables.
                    assert_eq!(serial[counters::GIBBS_CACHE_HITS], 0);
                    assert!(
                        serial[counters::SCORE_LN_GAMMA_TABLE_HITS] > 0,
                        "count tables never served"
                    );
                    assert!(!serial.contains_key(counters::GIBBS_NAIVE_DISPATCHES));
                }
                CandidateScoring::Naive => {
                    assert_eq!(serial[counters::GIBBS_NAIVE_DISPATCHES], 2);
                    assert!(!serial.contains_key(counters::GIBBS_KERNEL_DISPATCHES));
                }
            }
            assert_eq!(
                serial,
                counts(ThreadEngine::new(3), &d, &s0, &master, scoring)
            );
            assert_eq!(serial, counts(SimEngine::new(7), &d, &s0, &master, scoring));
            assert_eq!(serial, counts(SimEngine::new(64), &d, &s0, &master, scoring));
        }
    }

    #[test]
    fn reassign_sweep_tends_to_improve_score() {
        // A Gibbs sweep is stochastic, but starting from a random
        // assignment of strongly structured data, several sweeps should
        // improve the score substantially more often than not.
        let (d, mut s, master) = setup();
        let before = s.score();
        let mut e = SerialEngine::new();
        for step in 0..3 {
            reassign_vars(&mut e, &mut s, &d, &master, 0, step, CandidateScoring::Kernel);
            merge_vars(&mut e, &mut s, &d, &master, 0, step, CandidateScoring::Kernel);
        }
        let after = s.score();
        assert!(after > before, "score went from {before} to {after}");
    }

    #[test]
    fn obs_sweeps_respect_cluster_scope() {
        for scoring in BOTH {
            let (d, mut s, master) = setup();
            let mut e = SerialEngine::new();
            let slots = s.active_slots();
            let other_clusters_before: Vec<_> = slots[1..]
                .iter()
                .map(|&sl| s.cluster(sl).clone())
                .collect();
            reassign_obs(&mut e, &mut s, &d, &master, 0, 0, slots[0], scoring);
            merge_obs(&mut e, &mut s, &d, &master, 0, 0, slots[0], scoring);
            // Observation moves in cluster 0 must not touch other clusters.
            for (cluster, before) in slots[1..]
                .iter()
                .map(|&sl| s.cluster(sl))
                .zip(&other_clusters_before)
            {
                assert_eq!(cluster, before);
            }
            s.validate(&d);
        }
    }

    #[test]
    fn merge_sweep_reduces_or_keeps_cluster_count() {
        let (d, mut s, master) = setup();
        let mut e = SerialEngine::new();
        let before = s.n_active();
        merge_vars(&mut e, &mut s, &d, &master, 0, 0, CandidateScoring::Kernel);
        assert!(s.n_active() <= before);
        assert!(s.n_active() >= 1);
    }

    /// Reference mode cannot use the tile caches; the kernel request
    /// falls back to the (hoisted) naive path and is counted as such.
    #[test]
    fn reference_mode_falls_back_to_naive_path() {
        let d = synthetic::yeast_like(14, 10, 3).dataset;
        let master = MasterRng::new(9);
        let mk = |mode| {
            CoClustering::random_init(&d, 4, NormalGamma::default(), mode, &master, 0)
        };
        let mut s_ref = mk(ScoreMode::Reference);
        let mut s_inc = mk(ScoreMode::Incremental);
        let mut e = SerialEngine::new();
        reassign_vars(&mut e, &mut s_ref, &d, &master, 0, 0, CandidateScoring::Kernel);
        e.report();
        let now = e.now_s();
        let c = e.obs().snapshot(now).counters;
        assert_eq!(c[counters::GIBBS_NAIVE_DISPATCHES], 1);
        assert!(!c.contains_key(counters::GIBBS_KERNEL_DISPATCHES));
        // And it samples the same clustering as incremental mode.
        let mut e2 = SerialEngine::new();
        reassign_vars(&mut e2, &mut s_inc, &d, &master, 0, 0, CandidateScoring::Kernel);
        assert_eq!(s_ref.var_cluster_members(), s_inc.var_cluster_members());
    }
}
