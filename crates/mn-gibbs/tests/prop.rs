//! Property-based tests: arbitrary valid move sequences keep the
//! co-clustering state consistent, its cached score equal to the
//! from-scratch score, and every predicted delta equal to the realized
//! change.

use mn_data::synthetic;
use mn_gibbs::{CoClustering, MoveTarget, SweepScorer};
use mn_rand::MasterRng;
use mn_score::{NormalGamma, ScoreMode};
use proptest::prelude::*;

/// A symbolic move, resolved against the current state when applied.
#[derive(Debug, Clone)]
enum Move {
    /// Move variable (index modulo n) to the target cluster (choice
    /// modulo the candidate count; the last choice means "fresh").
    Var(usize, usize),
    /// Merge two variable clusters (indices modulo active count).
    MergeVars(usize, usize),
    /// Move an observation within a cluster.
    Obs(usize, usize, usize),
    /// Merge two observation clusters within a cluster.
    MergeObs(usize, usize, usize),
}

fn arb_move() -> impl Strategy<Value = Move> {
    prop_oneof![
        (0usize..64, 0usize..64).prop_map(|(a, b)| Move::Var(a, b)),
        (0usize..64, 0usize..64).prop_map(|(a, b)| Move::MergeVars(a, b)),
        (0usize..64, 0usize..64, 0usize..64).prop_map(|(a, b, c)| Move::Obs(a, b, c)),
        (0usize..64, 0usize..64, 0usize..64).prop_map(|(a, b, c)| Move::MergeObs(a, b, c)),
    ]
}

fn apply(state: &mut CoClustering, data: &mn_data::Dataset, mv: &Move) {
    match *mv {
        Move::Var(v, t) => {
            let v = v % data.n_vars();
            let slots = state.active_slots();
            let choice = t % (slots.len() + 1);
            let target = if choice < slots.len() {
                MoveTarget::Existing(slots[choice])
            } else {
                MoveTarget::New
            };
            if target != MoveTarget::Existing(state.slot_of_var(v)) {
                state.move_var(data, v, target);
            }
        }
        Move::MergeVars(a, b) => {
            let slots = state.active_slots();
            if slots.len() < 2 {
                return;
            }
            let from = slots[a % slots.len()];
            let to = slots[b % slots.len()];
            if from != to {
                state.merge_var_clusters(data, from, to);
            }
        }
        Move::Obs(s, o, t) => {
            let slots = state.active_slots();
            let slot = slots[s % slots.len()];
            let o = o % data.n_obs();
            let oslots = state.cluster(slot).obs.active_slots();
            let choice = t % (oslots.len() + 1);
            let cur = state.cluster(slot).obs.slot_of(o);
            if choice < oslots.len() {
                if oslots[choice] != cur {
                    state.move_obs(data, slot, o, Some(oslots[choice]));
                }
            } else {
                state.move_obs(data, slot, o, None);
            }
        }
        Move::MergeObs(s, a, b) => {
            let slots = state.active_slots();
            let slot = slots[s % slots.len()];
            let oslots = state.cluster(slot).obs.active_slots();
            if oslots.len() < 2 {
                return;
            }
            let from = oslots[a % oslots.len()];
            let to = oslots[b % oslots.len()];
            if from != to {
                state.merge_obs_clusters(slot, from, to);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn arbitrary_move_sequences_keep_state_valid(
        seed in 0u64..500,
        moves in prop::collection::vec(arb_move(), 1..40),
    ) {
        let data = synthetic::yeast_like(12, 10, seed).dataset;
        let mut state = CoClustering::random_init(
            &data,
            4,
            NormalGamma::default(),
            ScoreMode::Incremental,
            &MasterRng::new(seed),
            0,
        );
        for mv in &moves {
            apply(&mut state, &data, mv);
        }
        state.validate(&data);
        let cached = state.score();
        let scratch = state.score_from_scratch(&data);
        prop_assert!(
            (cached - scratch).abs() < 1e-6 * scratch.abs().max(1.0),
            "cached {cached} vs scratch {scratch}"
        );
    }

    #[test]
    fn var_move_deltas_always_predict_score_change(
        seed in 0u64..200,
        v in 0usize..12,
        t in 0usize..8,
    ) {
        let data = synthetic::yeast_like(12, 10, seed).dataset;
        let mut state = CoClustering::random_init(
            &data,
            4,
            NormalGamma::default(),
            ScoreMode::Incremental,
            &MasterRng::new(seed),
            0,
        );
        let cur = state.slot_of_var(v);
        let slots = state.active_slots();
        let choice = t % (slots.len() + 1);
        let before = state.score_from_scratch(&data);
        let (rem, _) = state.var_removal_delta(&data, v);
        let delta = if choice < slots.len() {
            if slots[choice] == cur {
                return Ok(());
            }
            let (add, _) = state.var_addition_delta(&data, v, slots[choice]);
            state.move_var(&data, v, MoveTarget::Existing(slots[choice]));
            rem + add
        } else {
            let (add, _) = state.var_new_cluster_delta(&data, v);
            state.move_var(&data, v, MoveTarget::New);
            rem + add
        };
        let after = state.score_from_scratch(&data);
        prop_assert!(
            ((after - before) - delta).abs() < 1e-7 * after.abs().max(1.0),
            "predicted {delta}, got {}",
            after - before
        );
    }

    /// The variable-sweep caches of the batched candidate scorer stay
    /// bit-consistent with the state through long random sequences of
    /// accepted moves: every epoch-valid entry matches a fresh
    /// recomputation, and the served removal delta always carries the
    /// naive path's exact bits.
    #[test]
    fn var_sweep_scorer_tracks_state_through_move_sequences(
        seed in 0u64..300,
        moves in prop::collection::vec((0usize..64, 0usize..64, prop::bool::ANY), 1..25),
    ) {
        let data = synthetic::yeast_like(12, 10, seed).dataset;
        let mut state = CoClustering::random_init(
            &data,
            4,
            NormalGamma::default(),
            ScoreMode::Incremental,
            &MasterRng::new(seed),
            0,
        );
        let mut scorer = SweepScorer::new(state.prior());
        for &(a, b, merge) in &moves {
            if merge {
                let slots = state.active_slots();
                if slots.len() < 2 {
                    continue;
                }
                let from = slots[a % slots.len()];
                let to = slots[b % slots.len()];
                if from == to {
                    continue;
                }
                // Fetch as a merge sweep would before the move.
                let _ = scorer.prep_var_merge(&state, from, &slots);
                state.merge_var_clusters(&data, from, to);
                scorer.note_var_merge(from, to);
            } else {
                let v = a % data.n_vars();
                let cur = state.slot_of_var(v);
                let slots = state.active_slots();
                // The kernel-path fetches of one sweep iteration, with
                // a bit-identity check against the naive removal.
                let (rem, _) = scorer.var_removal(&data, &state, v);
                prop_assert_eq!(
                    rem.to_bits(),
                    state.var_removal_delta(&data, v).0.to_bits()
                );
                let prior = scorer.consts();
                let prep = scorer.prep_var_candidates(&data, &state, v, cur, &slots);
                let outs: Vec<(f64, f64)> = (0..slots.len() + 1)
                    .map(|i| prep.eval(&prior, i, rem).0)
                    .collect();
                scorer.store_var_adds(v, &slots, &outs);
                let choice = b % (slots.len() + 1);
                let target = if choice < slots.len() {
                    MoveTarget::Existing(slots[choice])
                } else {
                    MoveTarget::New
                };
                if target == MoveTarget::Existing(cur) {
                    continue;
                }
                let to = state.move_var(&data, v, target);
                scorer.note_var_move(cur, to, !state.is_active(cur), target == MoveTarget::New);
            }
        }
        scorer.validate_against(&data, &state, None);
        state.validate(&data);
    }

    /// Same property for the observation-sweep caches, inside one
    /// (fixed) variable cluster, as the real sweep runs them.
    #[test]
    fn obs_sweep_scorer_tracks_state_through_move_sequences(
        seed in 0u64..300,
        k in 0usize..8,
        moves in prop::collection::vec((0usize..64, 0usize..64, prop::bool::ANY), 1..25),
    ) {
        let data = synthetic::yeast_like(12, 10, seed).dataset;
        let mut state = CoClustering::random_init(
            &data,
            4,
            NormalGamma::default(),
            ScoreMode::Incremental,
            &MasterRng::new(seed),
            0,
        );
        let slots = state.active_slots();
        let slot = slots[k % slots.len()];
        let mut scorer = SweepScorer::new(state.prior());
        for &(a, b, merge) in &moves {
            let oslots = state.cluster(slot).obs.active_slots();
            if merge {
                if oslots.len() < 2 {
                    continue;
                }
                let from = oslots[a % oslots.len()];
                let to = oslots[b % oslots.len()];
                if from == to {
                    continue;
                }
                let _ = scorer.prep_obs_merge(&state, slot, from, &oslots);
                state.merge_obs_clusters(slot, from, to);
                scorer.note_obs_merge(from, to);
            } else {
                let o = a % data.n_obs();
                let cur = state.cluster(slot).obs.slot_of(o);
                let (rem, _) = scorer.obs_removal(&data, &state, slot, o);
                prop_assert_eq!(
                    rem.to_bits(),
                    state.obs_removal_delta(&data, slot, o).0.to_bits()
                );
                let prior = scorer.consts();
                let prep = scorer.prep_obs_candidates(&data, &state, slot, o, cur, &oslots);
                let outs: Vec<(f64, f64)> = (0..oslots.len() + 1)
                    .map(|i| prep.eval(&prior, i, rem).0)
                    .collect();
                scorer.store_obs_adds(o, &oslots, &outs);
                let choice = b % (oslots.len() + 1);
                let target = if choice < oslots.len() {
                    Some(oslots[choice])
                } else {
                    None
                };
                if target == Some(cur) {
                    continue;
                }
                let landed = state.move_obs(&data, slot, o, target);
                scorer.note_obs_move(cur, landed);
            }
        }
        scorer.validate_against(&data, &state, Some(slot));
        state.validate(&data);
    }
}
