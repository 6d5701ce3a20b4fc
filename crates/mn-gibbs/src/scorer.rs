//! The candidate scorer behind `Scoring::Kernel`.
//!
//! A candidate's weight is a pure function of the state, the data, the
//! moving item and the sweep's prior constants — [`var_candidate`],
//! [`var_merge_candidate`], [`obs_candidate`] and
//! [`obs_merge_candidate`], each returning a plain `(Δ, work)` pair
//! for candidates other than the stay one. The sweeps evaluate them
//! entirely inside the block-partitioned map: each rank computes the
//! moving item's statistics under its own candidates' observation
//! partitions and reads every existing tile's log-marginal from the
//! state ([`crate::state::ObsCluster::lm`]). Nothing is prepared per
//! candidate on rank 0 and nothing is written inside a map, so the
//! replicated remainder of a proposal is the removal delta, the table
//! growth, `Select-Wtd-Rand` and the accepted move.
//!
//! One [`SweepScorer`] lives for the duration of one sweep and owns
//! what replicated control flow needs:
//!
//! * the sweep's [`PriorConsts`], whose count tables
//!   (`ln Γ(α₀ + k/2)`, `ln(λ₀ + k)`) a map only reads. Before each
//!   map the sweep grows them through the largest count any candidate
//!   can form ([`SweepScorer::grow_through`]), so every lookup inside
//!   the map is served (each candidate function checks that in debug
//!   builds);
//! * the observation sweeps' column cache `observation → (SuffStats,
//!   lm)`, valid for the whole sweep because the owning variable
//!   cluster's membership is fixed during it.
//!
//! Every value is produced by the same accumulation loop (same element
//! order) or the same pure function the naive path runs, so the
//! weights carry the naive path's exact bits — see
//! `mn_score::gibbs_kernel` and DESIGN.md §9.
//!
//! The candidate functions *report* the naive path's per-item work,
//! mirroring the split kernel's convention: block partitioning,
//! per-item accounting, and therefore every simulated-imbalance figure
//! reproduce byte-for-byte between the two scoring paths, and the
//! speedup is measured as real wall-clock (`bench_gibbs`).

use crate::moves::row_stats;
use crate::state::CoClustering;
use mn_data::Dataset;
use mn_score::gibbs_kernel::{addition_term, merge_gain_term, removal_term, LogMarginal};
use mn_score::{NormalGamma, PriorConsts, SuffStats, COST_CELL, COST_LOGMARG};
use std::cell::Cell;

/// The sweep's constants seen from replicated control flow: every
/// non-empty block is counted as an `ln Γ` call, and as a table hit
/// when its count is inside the tables.
struct Counted<'a> {
    consts: &'a PriorConsts,
    calls: &'a Cell<u64>,
    hits: &'a Cell<u64>,
}

impl LogMarginal for Counted<'_> {
    fn log_marginal(&self, stats: &SuffStats) -> f64 {
        if !stats.is_empty() {
            self.calls.set(self.calls.get() + 1);
            if self.consts.covers(stats.count()) {
                self.hits.set(self.hits.get() + 1);
            }
        }
        self.consts.log_marginal(stats)
    }
}

/// Δ of adding variable `x` to the cluster at `slot` (`None` = a fresh
/// cluster), which is not `x`'s own, with the naive formula's work.
///
/// Runs inside the candidate map. The row statistics under `slot`'s
/// observation partition are accumulated here, in the naive path's
/// order, and the per-tile addition terms are summed from 0 in slot
/// order as the naive delta does.
pub fn var_candidate(
    consts: &PriorConsts,
    data: &Dataset,
    state: &CoClustering,
    x: usize,
    slot: Option<usize>,
) -> (f64, u64) {
    let row = data.values(x);
    let cell_work = data.n_obs() as u64 * COST_CELL;
    let Some(slot) = slot else {
        let whole = SuffStats::from_values(row);
        debug_assert!(consts.covers(whole.count()));
        return (consts.log_marginal(&whole), cell_work + COST_LOGMARG);
    };
    let mut add = 0.0;
    let mut n_tiles = 0u64;
    for (_, oc) in state.cluster(slot).obs.iter_active() {
        debug_assert!(consts.covers(oc.stats.count() + oc.members.len() as u64));
        add += addition_term(consts, &oc.stats, &row_stats(row, &oc.members), oc.lm);
        n_tiles += 1;
    }
    (add, cell_work + 2 * n_tiles * COST_LOGMARG)
}

/// Δ of merging variable cluster `slot` into another cluster `target`,
/// with the naive formula's work.
///
/// Runs inside the candidate map: the cross statistics of `slot`'s
/// members under `target`'s partition are recomputed raw,
/// v-major/o-minor, and the source tiles' log-marginals are
/// subtracted one by one in slot order — the naive delta's exact
/// association.
pub fn var_merge_candidate(
    consts: &PriorConsts,
    data: &Dataset,
    state: &CoClustering,
    slot: usize,
    target: usize,
) -> (f64, u64) {
    let src = state.cluster(slot);
    let dst = state.cluster(target);
    let mut delta = 0.0;
    let mut work = 0u64;
    for (_, oc) in dst.obs.iter_active() {
        let mut add = SuffStats::empty();
        for &v in &src.members {
            let row = data.values(v);
            for &o in &oc.members {
                add.add(row[o]);
            }
        }
        work += (src.members.len() * oc.members.len()) as u64 * COST_CELL;
        debug_assert!(consts.covers(add.count() + oc.stats.count()));
        delta += addition_term(consts, &oc.stats, &add, oc.lm);
        work += 2 * COST_LOGMARG;
    }
    for (_, oc) in src.obs.iter_active() {
        delta -= oc.lm;
        work += COST_LOGMARG;
    }
    (delta, work)
}

/// Δ of adding an observation of variable cluster `slot` to its
/// observation cluster `t` (`None` = a fresh one), which is not the
/// observation's own, given its column statistics `col` and their
/// log-marginal `lm_col` (both from the scorer's column cache), with
/// the naive formula's work. Runs inside the candidate map.
pub fn obs_candidate(
    consts: &PriorConsts,
    state: &CoClustering,
    slot: usize,
    &(col, lm_col): &(SuffStats, f64),
    t: Option<usize>,
) -> (f64, u64) {
    let cluster = state.cluster(slot);
    let col_work = cluster.members.len() as u64 * COST_CELL;
    let Some(t) = t else {
        return (lm_col, col_work + COST_LOGMARG);
    };
    let tile = cluster.obs.cluster(t);
    debug_assert!(consts.covers(tile.stats.count() + col.count()));
    (
        addition_term(consts, &tile.stats, &col, tile.lm),
        col_work + 2 * COST_LOGMARG,
    )
}

/// Δ of merging observation cluster `a` of variable cluster `slot`
/// into another one, `b`, with the naive formula's work. Runs inside
/// the candidate map.
pub fn obs_merge_candidate(
    consts: &PriorConsts,
    state: &CoClustering,
    slot: usize,
    a: usize,
    b: usize,
) -> (f64, u64) {
    let obs = &state.cluster(slot).obs;
    let (ta, tb) = (obs.cluster(a), obs.cluster(b));
    debug_assert!(consts.covers(ta.stats.count() + tb.stats.count()));
    (
        merge_gain_term(consts, &ta.stats, &tb.stats, ta.lm, tb.lm),
        3 * COST_LOGMARG,
    )
}

/// Per-sweep replicated state of the kernel path (see the module
/// docs).
#[derive(Debug)]
pub struct SweepScorer {
    /// The prior with its hoisted constants and count tables — what
    /// every term evaluation of the sweep goes through.
    consts: PriorConsts,
    /// `ln Γ` values the sweep needed in replicated control flow:
    /// table cells filled, plus table-backed log-marginals evaluated
    /// there. `Cell` so [`Counted`] can count through a shared borrow.
    lg_calls: Cell<u64>,
    /// Of those log-marginals, the ones the tables served.
    lg_hits: Cell<u64>,
    /// `[observation]` → column statistics and their log-marginal,
    /// filled on first lookup.
    col: Vec<Option<(SuffStats, f64)>>,
    /// Column-cache lookups served from `col`.
    col_hits: u64,
    /// Column-cache lookups that had to compute.
    col_misses: u64,
}

impl SweepScorer {
    /// A fresh per-sweep scorer with empty count tables.
    pub fn new(prior: &NormalGamma) -> Self {
        Self {
            consts: PriorConsts::new(prior),
            lg_calls: Cell::new(0),
            lg_hits: Cell::new(0),
            col: Vec::new(),
            col_hits: 0,
            col_misses: 0,
        }
    }

    /// The sweep's prior constants, for the candidate maps (read-only
    /// there).
    pub fn consts(&self) -> &PriorConsts {
        &self.consts
    }

    /// `ln Γ` values needed in replicated control flow (table fills
    /// plus replicated log-marginals).
    pub fn ln_gamma_calls(&self) -> u64 {
        self.lg_calls.get()
    }

    /// Replicated log-marginals served from the count tables.
    pub fn ln_gamma_table_hits(&self) -> u64 {
        self.lg_hits.get()
    }

    /// Column-cache lookups served without recomputation.
    pub fn hits(&self) -> u64 {
        self.col_hits
    }

    /// Column-cache lookups that had to compute.
    pub fn misses(&self) -> u64 {
        self.col_misses
    }

    fn counted(&self) -> Counted<'_> {
        Counted {
            consts: &self.consts,
            calls: &self.lg_calls,
            hits: &self.lg_hits,
        }
    }

    /// Grow the count tables through the largest of `counts` (through
    /// 0 when there are none) — the counts the next map's candidates
    /// form. Each newly filled cell is an `ln Γ` evaluation no table
    /// served. Replicated control flow only.
    pub fn grow_through(&mut self, counts: impl IntoIterator<Item = u64>) {
        let kmax = counts.into_iter().max().unwrap_or(0);
        let filled = self.consts.grow_through(kmax as usize) as u64;
        self.lg_calls.set(self.lg_calls.get() + filled);
    }

    // ----- variable sweeps -----

    /// The hoisted removal delta of variable `x`; the reported work is
    /// the naive formula's (one cell visit per observation plus two
    /// log-marginals per tile), so both scoring paths charge identical
    /// replicated work.
    pub fn var_removal(&self, data: &Dataset, state: &CoClustering, x: usize) -> (f64, u64) {
        let row = data.values(x);
        let counted = self.counted();
        let mut delta = 0.0;
        let mut n_tiles = 0u64;
        for (_, oc) in state.cluster(state.slot_of_var(x)).obs.iter_active() {
            delta += removal_term(&counted, &oc.stats, &row_stats(row, &oc.members), oc.lm);
            n_tiles += 1;
        }
        let work = data.n_obs() as u64 * COST_CELL + 2 * n_tiles * COST_LOGMARG;
        (delta, work)
    }

    // ----- observation sweeps (inside one variable cluster) -----

    /// Column statistics and their log-marginal for observation `o`
    /// inside variable cluster `slot`. Valid for the whole observation
    /// sweep (the cluster's variable membership is fixed during it).
    pub fn obs_col(
        &mut self,
        data: &Dataset,
        state: &CoClustering,
        slot: usize,
        o: usize,
    ) -> (SuffStats, f64) {
        if let Some(Some(cached)) = self.col.get(o) {
            self.col_hits += 1;
            return *cached;
        }
        self.col_misses += 1;
        let (col, _) = state.column_stats(data, slot, o);
        let fresh = (col, self.counted().log_marginal(&col));
        if o >= self.col.len() {
            self.col.resize(o + 1, None);
        }
        self.col[o] = Some(fresh);
        fresh
    }

    /// The hoisted removal delta of observation `o` (with the naive
    /// formula's work).
    pub fn obs_removal(
        &mut self,
        data: &Dataset,
        state: &CoClustering,
        slot: usize,
        o: usize,
    ) -> (f64, u64) {
        let (col, _) = self.obs_col(data, state, slot, o);
        let cluster = state.cluster(slot);
        let tile = cluster.obs.cluster(cluster.obs.slot_of(o));
        let col_work = cluster.members.len() as u64 * COST_CELL;
        (
            removal_term(&self.counted(), &tile.stats, &col, tile.lm),
            col_work + 2 * COST_LOGMARG,
        )
    }

    // ----- validation -----

    /// Check every column-cache entry against a fresh recomputation
    /// from `state` (the variable cluster at `slot`), bit for bit.
    /// Panics on the first mismatch; used by tests and the property
    /// suite.
    pub fn validate_against(&self, data: &Dataset, state: &CoClustering, slot: usize) {
        let prior = *state.prior();
        for (o, entry) in self.col.iter().enumerate() {
            let Some((col, lm)) = entry else { continue };
            let (fresh, _) = state.column_stats(data, slot, o);
            assert_eq!(col.count(), fresh.count(), "col count drift");
            assert_eq!(col.sum().to_bits(), fresh.sum().to_bits(), "col sum drift");
            assert_eq!(
                col.sumsq().to_bits(),
                fresh.sumsq().to_bits(),
                "col sumsq drift"
            );
            let fresh_lm = prior.log_marginal(&fresh);
            assert_eq!(lm.to_bits(), fresh_lm.to_bits(), "col lm drift");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::moves::MoveTarget;
    use mn_data::synthetic;
    use mn_rand::MasterRng;

    fn setup(seed: u64) -> (Dataset, CoClustering) {
        let d = synthetic::yeast_like(16, 12, seed).dataset;
        let s = CoClustering::random_init(&d, 5, NormalGamma::default(), &MasterRng::new(seed), 0);
        (d, s)
    }

    /// The counts `x`'s candidates form, as `reassign_vars` grows
    /// the tables through them: each other cluster's tiles plus `x`'s
    /// row, and the fresh cluster's whole row.
    fn var_counts(d: &Dataset, s: &CoClustering, x: usize) -> Vec<u64> {
        let cur = s.slot_of_var(x);
        let others = s.active_slots().into_iter().filter(|&t| t != cur);
        let tiles: Vec<u64> = others
            .flat_map(|t| {
                let obs = &s.cluster(t).obs;
                obs.iter_active()
                    .map(|(_, oc)| oc.stats.count() + oc.members.len() as u64)
                    .collect::<Vec<_>>()
            })
            .collect();
        tiles.into_iter().chain([d.n_obs() as u64]).collect()
    }

    /// Every non-stay candidate of variable `x`, scored as the map
    /// scores them (existing slots in order, then fresh), after the
    /// tables grew as the sweep grows them: `(slot, rem + Δ, work)`.
    fn var_proposal(
        scorer: &mut SweepScorer,
        d: &Dataset,
        s: &CoClustering,
        x: usize,
    ) -> Vec<(Option<usize>, f64, u64)> {
        let (rem, _) = scorer.var_removal(d, s, x);
        scorer.grow_through(var_counts(d, s, x));
        let cur = s.slot_of_var(x);
        let slots = s.active_slots().into_iter().filter(|&t| t != cur);
        slots
            .map(Some)
            .chain([None])
            .map(|slot| {
                let (add, work) = var_candidate(scorer.consts(), d, s, x, slot);
                (slot, rem + add, work)
            })
            .collect()
    }

    /// Every candidate weight the map evaluates carries the exact bits
    /// (and work) of the naive per-candidate delta; the tables hold
    /// exactly the counts the candidates formed, and once they do, the
    /// replicated removal deltas are served from them.
    #[test]
    fn var_candidate_weights_bit_identical_to_naive() {
        for seed in [3u64, 11, 29] {
            let (d, s) = setup(seed);
            let mut scorer = SweepScorer::new(s.prior());
            let mut kmax = 0;
            for pass in 0..2 {
                let (calls, hits) = (scorer.ln_gamma_calls(), scorer.ln_gamma_table_hits());
                for x in 0..d.n_vars() {
                    let (rem_k, wk) = scorer.var_removal(&d, &s, x);
                    let (rem_n, wn) = s.var_removal_delta(&d, x);
                    assert_eq!(rem_k.to_bits(), rem_n.to_bits(), "removal bits");
                    assert_eq!(wk, wn, "removal work");
                    for (slot, weight, work) in var_proposal(&mut scorer, &d, &s, x) {
                        let (add, naive_work) = match slot {
                            Some(slot) => s.var_addition_delta(&d, x, slot),
                            None => s.var_new_cluster_delta(&d, x),
                        };
                        assert_eq!(weight.to_bits(), (rem_n + add).to_bits(), "{slot:?} bits");
                        assert_eq!(work, naive_work, "{slot:?} work");
                    }
                    kmax = var_counts(&d, &s, x).into_iter().fold(kmax, u64::max);
                }
                let consts = scorer.consts();
                assert!(consts.covers(kmax) && !consts.covers(kmax + 1));
                if pass == 1 {
                    // The state never moved, so the second pass filled
                    // nothing and every removal term was served.
                    let served = scorer.ln_gamma_table_hits() - hits;
                    assert!(served > 0);
                    assert_eq!(scorer.ln_gamma_calls() - calls, served);
                }
            }
        }
    }

    #[test]
    fn obs_candidate_weights_bit_identical_to_naive() {
        for seed in [5u64, 17] {
            let (d, s) = setup(seed);
            let slot = s.active_slots()[0];
            let obs = &s.cluster(slot).obs;
            let mut scorer = SweepScorer::new(s.prior());
            for o in 0..d.n_obs() {
                let cur = obs.slot_of(o);
                let (rem_k, wk) = scorer.obs_removal(&d, &s, slot, o);
                let (rem_n, wn) = s.obs_removal_delta(&d, slot, o);
                assert_eq!(rem_k.to_bits(), rem_n.to_bits(), "obs removal bits");
                assert_eq!(wk, wn, "obs removal work");
                let col = scorer.obs_col(&d, &s, slot, o);
                let others: Vec<usize> = obs
                    .active_slots()
                    .into_iter()
                    .filter(|&t| t != cur)
                    .collect();
                scorer.grow_through(
                    others
                        .iter()
                        .map(|&t| obs.cluster(t).stats.count() + col.0.count()),
                );
                for t in others.into_iter().map(Some).chain([None]) {
                    let (add, work) = obs_candidate(scorer.consts(), &s, slot, &col, t);
                    let (naive_add, naive_work) = match t {
                        Some(t) => s.obs_addition_delta(&d, slot, o, t),
                        None => s.obs_new_cluster_delta(&d, slot, o),
                    };
                    assert_eq!(
                        (rem_n + add).to_bits(),
                        (rem_n + naive_add).to_bits(),
                        "obs {t:?} bits"
                    );
                    assert_eq!(work, naive_work, "obs {t:?} work");
                }
            }
            // Each observation's column was computed once and then
            // served from the cache.
            assert_eq!(scorer.misses(), d.n_obs() as u64);
            assert_eq!(scorer.hits(), d.n_obs() as u64);
            scorer.validate_against(&d, &s, slot);
        }
    }

    /// What replaced the per-sweep caches: the state's stored
    /// log-marginals and the count tables. After accepted moves the
    /// stored values are still the exact bits of a fresh evaluation,
    /// the weights still match the naive path, and the tables hold
    /// exactly the counts the proposals formed.
    #[test]
    fn caches_invalidate_on_moves_and_stay_consistent() {
        let (d, mut s) = setup(7);
        let mut scorer = SweepScorer::new(s.prior());
        let mut kmax = 0;
        for (x, new) in [(3, false), (5, true), (3, false), (5, false)] {
            let cur = s.slot_of_var(x);
            var_proposal(&mut scorer, &d, &s, x);
            kmax = var_counts(&d, &s, x).into_iter().fold(kmax, u64::max);
            let consts = scorer.consts();
            assert!(consts.covers(kmax) && !consts.covers(kmax + 1));
            let target = if new {
                MoveTarget::New
            } else {
                MoveTarget::Existing(s.active_slots().into_iter().find(|&t| t != cur).unwrap())
            };
            s.move_var(&d, x, target);
            s.validate(&d);
            let (rem, _) = scorer.var_removal(&d, &s, x);
            assert_eq!(rem.to_bits(), s.var_removal_delta(&d, x).0.to_bits());
            for (slot, weight, _) in var_proposal(&mut scorer, &d, &s, x) {
                let add = match slot {
                    Some(slot) => s.var_addition_delta(&d, x, slot).0,
                    None => s.var_new_cluster_delta(&d, x).0,
                };
                assert_eq!(weight.to_bits(), (rem + add).to_bits());
            }
            kmax = var_counts(&d, &s, x).into_iter().fold(kmax, u64::max);
        }
    }
}
