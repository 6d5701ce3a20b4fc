//! Property-based tests: arbitrary valid move sequences keep the
//! co-clustering state consistent, its cached score equal to the
//! from-scratch score, and every predicted delta equal to the realized
//! change.

use mn_data::synthetic;
use mn_gibbs::scorer::{obs_candidate, obs_merge_candidate, var_candidate, var_merge_candidate};
use mn_gibbs::{CoClustering, MoveTarget, SweepScorer};
use mn_rand::MasterRng;
use mn_score::NormalGamma;
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

/// Every state-held tile log-marginal carries the bits of
/// `NormalGamma::log_marginal` of its statistics.
fn assert_lms_match(state: &CoClustering) {
    for slot in state.active_slots() {
        for (oslot, oc) in state.cluster(slot).obs.iter_active() {
            assert_eq!(
                oc.lm.to_bits(),
                state.prior().log_marginal(&oc.stats).to_bits(),
                "stored log-marginal of tile {slot}/{oslot} drifted"
            );
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

    /// The kernel path stays bit-consistent with the state through
    /// long random sequences of accepted moves: after every move each
    /// state-held tile log-marginal equals `NormalGamma::log_marginal`
    /// of its statistics bitwise, and before every move the removal
    /// delta and every candidate weight carry the naive path's exact
    /// bits.
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
            &MasterRng::new(seed),
            0,
        );
        let mut scorer = SweepScorer::new(state.prior());
        // The largest count any tile can hold covers every candidate.
        scorer.grow_through([(data.n_vars() * data.n_obs()) as u64]);
        assert_lms_match(&state);
        for &(a, b, merge) in &moves {
            let slots = state.active_slots();
            if merge {
                if slots.len() < 2 {
                    continue;
                }
                let from = slots[a % slots.len()];
                let to = slots[b % slots.len()];
                if from == to {
                    continue;
                }
                // The merge sweep's weights of `from` before the move.
                for &t in slots.iter().filter(|&&t| t != from) {
                    let (w, work) = var_merge_candidate(scorer.consts(), &data, &state, from, t);
                    let naive = state.merge_delta(&data, from, t);
                    prop_assert_eq!((w.to_bits(), work), (naive.0.to_bits(), naive.1));
                }
                state.merge_var_clusters(&data, from, to);
            } else {
                let v = a % data.n_vars();
                let cur = state.slot_of_var(v);
                // The kernel-path evaluations of one sweep iteration,
                // each against the naive path's bits.
                let (rem, _) = scorer.var_removal(&data, &state, v);
                prop_assert_eq!(
                    rem.to_bits(),
                    state.var_removal_delta(&data, v).0.to_bits()
                );
                for &slot in slots.iter().filter(|&&t| t != cur) {
                    let (add, _) = var_candidate(scorer.consts(), &data, &state, v, Some(slot));
                    let naive = state.var_addition_delta(&data, v, slot).0;
                    prop_assert_eq!((rem + add).to_bits(), (rem + naive).to_bits());
                }
                let (add, _) = var_candidate(scorer.consts(), &data, &state, v, None);
                let naive = state.var_new_cluster_delta(&data, v).0;
                prop_assert_eq!((rem + add).to_bits(), (rem + naive).to_bits());
                let choice = b % (slots.len() + 1);
                let target = if choice < slots.len() {
                    MoveTarget::Existing(slots[choice])
                } else {
                    MoveTarget::New
                };
                if target == MoveTarget::Existing(cur) {
                    continue;
                }
                state.move_var(&data, v, target);
            }
            assert_lms_match(&state);
        }
        state.validate(&data);
    }

    /// Same property for the observation sweeps, inside one (fixed)
    /// variable cluster, as the real sweep runs them — plus the column
    /// cache, which must match a fresh recomputation at the end.
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
            &MasterRng::new(seed),
            0,
        );
        let slots = state.active_slots();
        let slot = slots[k % slots.len()];
        let mut scorer = SweepScorer::new(state.prior());
        scorer.grow_through([(data.n_vars() * data.n_obs()) as u64]);
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
                for &t in oslots.iter().filter(|&&t| t != from) {
                    let (w, work) = obs_merge_candidate(scorer.consts(), &state, slot, from, t);
                    let naive = state.obs_merge_delta(slot, from, t);
                    prop_assert_eq!((w.to_bits(), work), (naive.0.to_bits(), naive.1));
                }
                state.merge_obs_clusters(slot, from, to);
            } else {
                let o = a % data.n_obs();
                let cur = state.cluster(slot).obs.slot_of(o);
                let (rem, _) = scorer.obs_removal(&data, &state, slot, o);
                prop_assert_eq!(
                    rem.to_bits(),
                    state.obs_removal_delta(&data, slot, o).0.to_bits()
                );
                let (col, lm_col) = scorer.obs_col(&data, &state, slot, o);
                for &t in oslots.iter().filter(|&&t| t != cur) {
                    let (add, _) = obs_candidate(scorer.consts(), &state, slot, &(col, lm_col), Some(t));
                    let naive = state.obs_addition_delta(&data, slot, o, t).0;
                    prop_assert_eq!((rem + add).to_bits(), (rem + naive).to_bits());
                }
                let choice = b % (oslots.len() + 1);
                let target = oslots.get(choice).copied();
                if target == Some(cur) {
                    continue;
                }
                state.move_obs(&data, slot, o, target);
            }
            assert_lms_match(&state);
        }
        scorer.validate_against(&data, &state, slot);
        state.validate(&data);
    }
}
