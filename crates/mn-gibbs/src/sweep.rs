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
//! Every sweep builds its candidate list and hands it to one proposal
//! step, `propose`: one block-partitioned `dist_map` whose item is a
//! candidate's plain weight (with the work it reports), the
//! `AllReduce` of §3.1, and `Select-Wtd-Rand`.
//!
//! Randomness discipline: each sweep consumes one named stream
//! (`Domain::{ReassignVar, MergeVar, ReassignObs, MergeObs}` keyed by
//! GaneSH run and update step), with a fixed number of draws per
//! iteration, so every engine and rank count replays the identical
//! decision sequence. The map inherits the engine's block split, but
//! results are assembled in item order, so the sampled moves are
//! partition-invariant by construction.
//!
//! ## Candidate scoring
//!
//! [`Scoring`] chooses, per candidate, which function scores it. The
//! learner passes `Kernel`; `Naive` is the oracle the A/B tests and
//! `bench_gibbs` compare it against, and the Table 1 baseline `monet
//! --reference` runs (through `ganesh_with_scoring`).
//!
//! * **Naive** — the deltas of [`crate::moves`]: each candidate
//!   re-derives the statistics and both log-marginals it needs from
//!   the state (the cost profile of Alg. 1 line 8 taken literally),
//!   except that the candidate-independent removal delta is computed
//!   once per move (see the comment in [`reassign_vars`]).
//! * **Kernel** — the candidate functions of [`crate::scorer`]: a pure
//!   function of the state, the data, the moving item and the chain's
//!   [`SweepScorer`] constants, which the caller holds for the whole
//!   chain and passes to every sweep. Tile log-marginals are read from the
//!   state, where every accepted move refreshes them, and `ln Γ(α_N)`
//!   / `ln λ_N` from the count tables. Before each map, in replicated
//!   control flow, the sweep grows those tables through the largest
//!   count any candidate can form — as the tree merge does
//!   (`mn_tree::tree::build_tree_with`) — so inside the map nothing is
//!   written, nothing is locked and every lookup is served. The kernel
//!   *reports* the naive formula's per-candidate work, so block
//!   partitioning, per-item accounting and the §5.3.1 imbalance
//!   records are byte-identical to the naive path; its real saving
//!   shows up as wall-clock (`bench_gibbs`).
//!
//! Both paths produce bit-identical weights (argued in
//! `mn_score::gibbs_kernel` and DESIGN.md §9), hence identical
//! `Select-Wtd-Rand` draws and identical clusterings.

use crate::moves::MoveTarget;
use crate::scorer::{
    obs_candidate, obs_merge_candidate, var_candidate, var_merge_candidate, SweepScorer,
};
use crate::state::CoClustering;
use mn_comm::{Collective, ParEngine};
use mn_data::Dataset;
use mn_obs::counters;
use mn_rand::{select_unif_rand, select_wtd_log, Domain, MasterRng, Stream};
use mn_score::Scoring;

/// Composite stream key for (run, step) pairs.
#[inline]
pub fn step_key(run: u64, step: u64) -> u64 {
    run.wrapping_mul(0x1_0000_0000).wrapping_add(step)
}

/// Whether the kernel scores the sweep; counts the dispatch.
fn dispatch<E: ParEngine>(engine: &mut E, scoring: Scoring) -> bool {
    let kernel = scoring == Scoring::Kernel;
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

/// Flush a kernel sweep's replicated-flow totals into the deterministic
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

/// The proposal step every sweep shares (Alg. 1 lines 7–10): score the
/// `n_cand` candidates in one block-partitioned map, all-reduce, and
/// draw one with probability ∝ exp(weight) (`Select-Wtd-Rand`).
/// Candidate `stay` is the current placement, whose Δ is 0 by
/// definition and costs one work unit; `score(i)` returns every other
/// candidate's `(weight, work)` and only reads.
fn propose<E: ParEngine>(
    engine: &mut E,
    stream: &mut Stream,
    exps: &mut Vec<f64>,
    (n_cand, stay): (usize, usize),
    score: &(dyn Fn(usize) -> (f64, u64) + Sync),
) -> usize {
    let weights = engine.dist_map(n_cand, 1, &|i| if i == stay { (0.0, 1) } else { score(i) });
    // The collective part of Select-Wtd-Rand (§3.1).
    engine.collective(Collective::AllReduce, 1);
    select_wtd_log(stream, &weights, exps)
}

/// One full variable-reassignment sweep (Alg. 1, `Reassign-Var-Cluster`).
/// `scorer` is the chain's (see [`SweepScorer`]); only the kernel path
/// reads it.
#[allow(clippy::too_many_arguments)]
pub fn reassign_vars<E: ParEngine>(
    engine: &mut E,
    state: &mut CoClustering,
    scorer: &mut SweepScorer,
    data: &Dataset,
    master: &MasterRng,
    run: u64,
    step: u64,
    scoring: Scoring,
) {
    let n = data.n_vars();
    let mut stream = master.stream(Domain::ReassignVar, step_key(run, step));
    engine.span_enter("sweep:reassign-vars");
    engine.count(counters::GIBBS_SWEEPS, 1);
    let kernel = dispatch(engine, scoring);
    scorer.begin_sweep();
    // The largest count a candidate can form: a tile plus one row
    // restricted to it, or a fresh cluster's whole row. Only a move's
    // destination gains counts, so one pass over every cluster starts
    // the bound and each accepted move updates it from its destination.
    let row_bound = |state: &CoClustering, slot: usize| {
        let tiles = state.cluster(slot).obs.iter_active();
        let counts = tiles.map(|(_, oc)| oc.stats.count() + oc.members.len() as u64);
        counts.max().unwrap_or(0)
    };
    let slots = state.active_slots().into_iter();
    let mut kmax = slots.fold(data.n_obs() as u64, |k, s| k.max(row_bound(state, s)));
    let mut slots = Vec::new();
    let mut exps = Vec::new();
    for _ in 0..n {
        engine.count(counters::GIBBS_MOVES_PROPOSED, 1);
        let x = select_unif_rand(&mut stream, n);
        let cur = state.slot_of_var(x);
        state.fill_active_slots(&mut slots);

        // Alg. 1 line 8 scores `removal + addition` per candidate, but
        // the removal component does not depend on the candidate:
        // recomputing it inside the block-partitioned loop replicated
        // the same evaluation once per candidate on whichever ranks
        // own them — parallelized redundancy, not parallelism. It is
        // computed once per move in replicated control flow (every
        // rank holds the full state, so hoisting it "broadcasts" the
        // value without communication) and charged via `replicated`;
        // the per-candidate work below is the addition component only.
        let (rem, rem_work) = if kernel {
            scorer.var_removal(data, state, x)
        } else {
            state.var_removal_delta(data, x)
        };
        engine.replicated(rem_work);
        if kernel {
            scorer.grow_through([kmax]);
        }

        let (state_ref, consts) = (&*state, scorer.consts());
        let stay = slots.partition_point(|&s| s < cur);
        let n_cand = slots.len() + 1;
        let choice = propose(engine, &mut stream, &mut exps, (n_cand, stay), &|i| {
            let slot = slots.get(i).copied(); // past the end: fresh
            let (add, work) = match (scoring, slot) {
                (Scoring::Kernel, _) => var_candidate(consts, data, state_ref, x, slot),
                (Scoring::Naive, Some(slot)) => state_ref.var_addition_delta(data, x, slot),
                (Scoring::Naive, None) => state_ref.var_new_cluster_delta(data, x),
            };
            (rem + add, work)
        });
        if choice != stay {
            engine.count(counters::GIBBS_MOVES_ACCEPTED, 1);
            let target = slots
                .get(choice)
                .map_or(MoveTarget::New, |&s| MoveTarget::Existing(s));
            let to = state.move_var(data, x, target);
            kmax = kmax.max(row_bound(state, to));
        }
    }
    if kernel {
        flush_cache_counters(engine, scorer);
    }
    engine.span_exit();
}

/// One full variable-merge sweep (Alg. 1, `Merge-Var-Cluster`).
#[allow(clippy::too_many_arguments)]
pub fn merge_vars<E: ParEngine>(
    engine: &mut E,
    state: &mut CoClustering,
    scorer: &mut SweepScorer,
    data: &Dataset,
    master: &MasterRng,
    run: u64,
    step: u64,
    scoring: Scoring,
) {
    let mut stream = master.stream(Domain::MergeVar, step_key(run, step));
    engine.span_enter("sweep:merge-vars");
    engine.count(counters::GIBBS_SWEEPS, 1);
    let kernel = dispatch(engine, scoring);
    scorer.begin_sweep();
    let snapshot = state.active_slots();
    // A candidate forms a tile of the target plus the source's rows
    // restricted to it, `(|target| + |source|) × |tile|` cells, the
    // largest at the target's widest tile. A merge keeps the target's
    // observation partition, so the widths hold for the whole sweep.
    let mut widest = vec![0; snapshot.last().map_or(0, |&s| s + 1)];
    for &t in &snapshot {
        let tiles = state.cluster(t).obs.iter_active();
        widest[t] = tiles.map(|(_, oc)| oc.members.len()).max().unwrap_or(0);
    }
    let mut candidates = Vec::new();
    let mut exps = Vec::new();
    for &slot in &snapshot {
        // The cluster may have been absorbed by an earlier merge in
        // this very sweep.
        if !state.is_active(slot) {
            continue;
        }
        engine.count(counters::GIBBS_MOVES_PROPOSED, 1);
        state.fill_active_slots(&mut candidates);
        if kernel {
            let n_src = state.cluster(slot).members.len();
            let others = candidates.iter().filter(|&&t| t != slot);
            let size = |t: usize| state.cluster(t).members.len() + n_src;
            scorer.grow_through(others.map(|&t| (size(t) * widest[t]) as u64));
        }

        let (state_ref, consts) = (&*state, scorer.consts());
        let (n_cand, stay) = (candidates.len(), candidates.partition_point(|&t| t < slot));
        let choice = propose(engine, &mut stream, &mut exps, (n_cand, stay), &|i| {
            let t = candidates[i];
            match scoring {
                Scoring::Kernel => var_merge_candidate(consts, data, state_ref, slot, t),
                Scoring::Naive => state_ref.merge_delta(data, slot, t),
            }
        });
        if choice != stay {
            engine.count(counters::GIBBS_MOVES_ACCEPTED, 1);
            state.merge_var_clusters(data, slot, candidates[choice]);
        }
    }
    if kernel {
        flush_cache_counters(engine, scorer);
    }
    engine.span_exit();
}

/// One observation-reassignment sweep inside variable cluster `slot`
/// (Alg. 2, `Reassign-Obs-Cluster`).
#[allow(clippy::too_many_arguments)]
pub fn reassign_obs<E: ParEngine>(
    engine: &mut E,
    state: &mut CoClustering,
    scorer: &mut SweepScorer,
    data: &Dataset,
    master: &MasterRng,
    run: u64,
    step: u64,
    slot: usize,
    scoring: Scoring,
) {
    let m = data.n_obs();
    let mut stream = master.stream2(Domain::ReassignObs, step_key(run, step), slot as u64);
    engine.span_enter("sweep:reassign-obs");
    engine.count(counters::GIBBS_SWEEPS, 1);
    let kernel = dispatch(engine, scoring);
    scorer.begin_sweep();
    let mut oslots = Vec::new();
    let mut exps = Vec::new();
    for _ in 0..m {
        engine.count(counters::GIBBS_MOVES_PROPOSED, 1);
        let o = select_unif_rand(&mut stream, m);
        let obs = &state.cluster(slot).obs;
        let cur = obs.slot_of(o);
        obs.fill_active_slots(&mut oslots);

        // As in the variable sweep, the candidate-independent removal
        // component is hoisted out of the parallel loop and charged as
        // replicated work (see the comment in `reassign_vars`).
        let (rem, rem_work) = if kernel {
            scorer.obs_removal(data, state, slot, o)
        } else {
            state.obs_removal_delta(data, slot, o)
        };
        engine.replicated(rem_work);
        // The column cache entry, on the kernel path only.
        let col = kernel.then(|| {
            let col = scorer.obs_col(data, state, slot, o);
            // A candidate forms another tile plus `o`'s column; the
            // fresh one reads the cached column log-marginal.
            let others = oslots.iter().filter(|&&t| t != cur);
            scorer.grow_through(others.map(|&t| obs.cluster(t).stats.count() + col.0.count()));
            col
        });

        let (state_ref, consts) = (&*state, scorer.consts());
        let (n_cand, stay) = (oslots.len() + 1, oslots.partition_point(|&t| t < cur));
        let choice = propose(engine, &mut stream, &mut exps, (n_cand, stay), &|i| {
            let t = oslots.get(i).copied(); // past the end: fresh
            let (add, work) = match (&col, t) {
                (Some(col), _) => obs_candidate(consts, state_ref, slot, col, t),
                (None, Some(t)) => state_ref.obs_addition_delta(data, slot, o, t),
                (None, None) => state_ref.obs_new_cluster_delta(data, slot, o),
            };
            (rem + add, work)
        });
        if choice != stay {
            engine.count(counters::GIBBS_MOVES_ACCEPTED, 1);
            state.move_obs(data, slot, o, oslots.get(choice).copied());
        }
    }
    if kernel {
        flush_cache_counters(engine, scorer);
    }
    engine.span_exit();
}

/// One observation-merge sweep inside variable cluster `slot`
/// (Alg. 2, `Merge-Obs-Cluster`).
#[allow(clippy::too_many_arguments)]
pub fn merge_obs<E: ParEngine>(
    engine: &mut E,
    state: &mut CoClustering,
    scorer: &mut SweepScorer,
    master: &MasterRng,
    run: u64,
    step: u64,
    slot: usize,
    scoring: Scoring,
) {
    let mut stream = master.stream2(Domain::MergeObs, step_key(run, step), slot as u64);
    engine.span_enter("sweep:merge-obs");
    engine.count(counters::GIBBS_SWEEPS, 1);
    let kernel = dispatch(engine, scoring);
    scorer.begin_sweep();
    let snapshot = state.cluster(slot).obs.active_slots();
    let mut candidates = Vec::new();
    let mut exps = Vec::new();
    for &oslot in &snapshot {
        let obs = &state.cluster(slot).obs;
        if !obs.is_active(oslot) {
            continue;
        }
        engine.count(counters::GIBBS_MOVES_PROPOSED, 1);
        obs.fill_active_slots(&mut candidates);
        if kernel {
            // A candidate forms the union of two tiles.
            let n_a = obs.cluster(oslot).stats.count();
            let others = candidates.iter().filter(|&&t| t != oslot);
            scorer.grow_through(others.map(|&t| n_a + obs.cluster(t).stats.count()));
        }

        let (state_ref, consts) = (&*state, scorer.consts());
        let (n_cand, stay) = (candidates.len(), candidates.partition_point(|&t| t < oslot));
        let choice = propose(engine, &mut stream, &mut exps, (n_cand, stay), &|i| {
            let t = candidates[i];
            match scoring {
                Scoring::Kernel => obs_merge_candidate(consts, state_ref, slot, oslot, t),
                Scoring::Naive => state_ref.obs_merge_delta(slot, oslot, t),
            }
        });
        if choice != stay {
            engine.count(counters::GIBBS_MOVES_ACCEPTED, 1);
            state.merge_obs_clusters(slot, oslot, candidates[choice]);
        }
    }
    if kernel {
        flush_cache_counters(engine, scorer);
    }
    engine.span_exit();
}

#[cfg(test)]
mod tests {
    use super::*;
    use mn_comm::{SerialEngine, SimEngine, ThreadEngine};
    use mn_data::synthetic;
    use mn_score::NormalGamma;

    const BOTH: [Scoring; 2] = [Scoring::Kernel, Scoring::Naive];

    fn setup() -> (Dataset, CoClustering, MasterRng) {
        let d = synthetic::yeast_like(18, 12, 21).dataset;
        let master = MasterRng::new(4);
        let s = CoClustering::random_init(&d, 5, NormalGamma::default(), &master, 0);
        (d, s, master)
    }

    #[test]
    fn sweeps_preserve_invariants() {
        for scoring in BOTH {
            let (d, mut s, master) = setup();
            let mut e = SerialEngine::new();
            let mut scorer = SweepScorer::new(s.prior());
            reassign_vars(&mut e, &mut s, &mut scorer, &d, &master, 0, 0, scoring);
            s.validate(&d);
            merge_vars(&mut e, &mut s, &mut scorer, &d, &master, 0, 0, scoring);
            s.validate(&d);
            for slot in s.active_slots() {
                reassign_obs(
                    &mut e,
                    &mut s,
                    &mut scorer,
                    &d,
                    &master,
                    0,
                    0,
                    slot,
                    scoring,
                );
                s.validate(&d);
                merge_obs(&mut e, &mut s, &mut scorer, &master, 0, 0, slot, scoring);
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
                let mut scorer = SweepScorer::new(s.prior());
                reassign_vars(&mut e, s, &mut scorer, &d, &master, 0, 0, scoring);
                merge_vars(&mut e, s, &mut scorer, &d, &master, 0, 0, scoring);
            }));
            let threads = run(Box::new(|s| {
                let mut e = ThreadEngine::new(3);
                let mut scorer = SweepScorer::new(s.prior());
                reassign_vars(&mut e, s, &mut scorer, &d, &master, 0, 0, scoring);
                merge_vars(&mut e, s, &mut scorer, &d, &master, 0, 0, scoring);
            }));
            let sim = run(Box::new(|s| {
                let mut e = SimEngine::new(64);
                let mut scorer = SweepScorer::new(s.prior());
                reassign_vars(&mut e, s, &mut scorer, &d, &master, 0, 0, scoring);
                merge_vars(&mut e, s, &mut scorer, &d, &master, 0, 0, scoring);
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
        let run = |scoring: Scoring| {
            let mut s = s0.clone();
            let mut e = SerialEngine::new();
            let mut scorer = SweepScorer::new(s.prior());
            for step in 0..3 {
                reassign_vars(&mut e, &mut s, &mut scorer, &d, &master, 0, step, scoring);
                merge_vars(&mut e, &mut s, &mut scorer, &d, &master, 0, step, scoring);
                for slot in s.active_slots() {
                    reassign_obs(
                        &mut e,
                        &mut s,
                        &mut scorer,
                        &d,
                        &master,
                        0,
                        step,
                        slot,
                        scoring,
                    );
                    merge_obs(&mut e, &mut s, &mut scorer, &master, 0, step, slot, scoring);
                }
            }
            s
        };
        assert_eq!(
            run(Scoring::Kernel),
            run(Scoring::Naive),
            "kernel and naive scoring sampled different chains"
        );
    }

    /// One scorer held over a whole chain samples the chain that a
    /// fresh scorer per sweep samples: the count tables only hold exact
    /// `ln Γ` values, whenever they were filled.
    #[test]
    fn a_chain_scoped_scorer_samples_the_fresh_scorer_chain() {
        let (d, s0, master) = setup();
        let run = |fresh: bool| {
            let mut s = s0.clone();
            let mut e = SerialEngine::new();
            let prior = *s.prior();
            let mut sc = SweepScorer::new(&prior);
            // Before every sweep: keep the chain's scorer, or start over.
            let next = |sc: &mut SweepScorer| {
                if fresh {
                    *sc = SweepScorer::new(&prior);
                }
            };
            let kernel = Scoring::Kernel;
            for step in 0..3 {
                next(&mut sc);
                reassign_vars(&mut e, &mut s, &mut sc, &d, &master, 0, step, kernel);
                next(&mut sc);
                merge_vars(&mut e, &mut s, &mut sc, &d, &master, 0, step, kernel);
                for slot in s.active_slots() {
                    next(&mut sc);
                    reassign_obs(&mut e, &mut s, &mut sc, &d, &master, 0, step, slot, kernel);
                    next(&mut sc);
                    merge_obs(&mut e, &mut s, &mut sc, &master, 0, step, slot, kernel);
                }
            }
            let counters = e.obs().counters().clone();
            (s, counters)
        };
        let (held, held_counts) = run(false);
        let (fresh, fresh_counts) = run(true);
        assert_eq!(held, fresh, "a chain-scoped scorer changed the chain");
        let calls = |c: &std::collections::BTreeMap<String, u64>| c[counters::SCORE_LN_GAMMA_CALLS];
        assert!(
            calls(&held_counts) < calls(&fresh_counts),
            "held tables refilled as often as fresh ones"
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
                scoring: Scoring,
            ) -> std::collections::BTreeMap<String, u64> {
                let mut s = s0.clone();
                let mut scorer = SweepScorer::new(s.prior());
                reassign_vars(&mut e, &mut s, &mut scorer, d, master, 0, 0, scoring);
                merge_vars(&mut e, &mut s, &mut scorer, d, master, 0, 0, scoring);
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
                Scoring::Kernel => {
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
                Scoring::Naive => {
                    assert_eq!(serial[counters::GIBBS_NAIVE_DISPATCHES], 2);
                    assert!(!serial.contains_key(counters::GIBBS_KERNEL_DISPATCHES));
                }
            }
            assert_eq!(
                serial,
                counts(ThreadEngine::new(3), &d, &s0, &master, scoring)
            );
            assert_eq!(serial, counts(SimEngine::new(7), &d, &s0, &master, scoring));
            assert_eq!(
                serial,
                counts(SimEngine::new(64), &d, &s0, &master, scoring)
            );
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
        let mut scorer = SweepScorer::new(s.prior());
        for step in 0..3 {
            reassign_vars(
                &mut e,
                &mut s,
                &mut scorer,
                &d,
                &master,
                0,
                step,
                Scoring::Kernel,
            );
            merge_vars(
                &mut e,
                &mut s,
                &mut scorer,
                &d,
                &master,
                0,
                step,
                Scoring::Kernel,
            );
        }
        let after = s.score();
        assert!(after > before, "score went from {before} to {after}");
    }

    #[test]
    fn obs_sweeps_respect_cluster_scope() {
        for scoring in BOTH {
            let (d, mut s, master) = setup();
            let mut e = SerialEngine::new();
            let mut scorer = SweepScorer::new(s.prior());
            let slots = s.active_slots();
            let other_clusters_before: Vec<_> =
                slots[1..].iter().map(|&sl| s.cluster(sl).clone()).collect();
            reassign_obs(
                &mut e,
                &mut s,
                &mut scorer,
                &d,
                &master,
                0,
                0,
                slots[0],
                scoring,
            );
            merge_obs(
                &mut e,
                &mut s,
                &mut scorer,
                &master,
                0,
                0,
                slots[0],
                scoring,
            );
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
        let mut scorer = SweepScorer::new(s.prior());
        let before = s.n_active();
        merge_vars(
            &mut e,
            &mut s,
            &mut scorer,
            &d,
            &master,
            0,
            0,
            Scoring::Kernel,
        );
        assert!(s.n_active() <= before);
        assert!(s.n_active() >= 1);
    }
}
