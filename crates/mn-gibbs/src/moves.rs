//! Score deltas and state updates for the Gibbs moves.
//!
//! Four moves exist (§2.2.1): reassigning a variable, merging two
//! variable clusters, reassigning an observation within a variable
//! cluster, and merging two observation clusters. Every delta function
//! returns `(Δ log-score, work units)`, where the work units feed the
//! engines' cost accounting, and — crucially for Table 1 — the
//! *reference* mode really executes the extra from-scratch loops
//! rather than merely reporting a higher cost.
//!
//! All deltas are measured relative to the current configuration, so
//! "stay" always has weight `exp(0)`; the Gibbs choice over
//! `[targets..., stay]` with weights `exp(Δ)` samples the conditional
//! posterior exactly as the sequential Lemon-Tree does.

use crate::state::{CoClustering, ObsPartition, VarCluster};
use mn_data::Dataset;
use mn_score::gibbs_kernel::{addition_term, merge_gain_term, removal_term};
use mn_score::{NormalGamma, PriorConsts, ScoreMode, SuffStats, COST_CELL, COST_LOGMARG};

/// Target of a reassignment move.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MoveTarget {
    /// Move into the existing cluster at this slot.
    Existing(usize),
    /// Move into a freshly created cluster.
    New,
}

/// Statistics of one variable's `row` restricted to the observations
/// `members`, accumulated in member order.
///
/// Shared with the kernel scorer (`crate::scorer`), which runs the
/// *same* accumulation loop in the *same* element order, so its row
/// statistics are bit-identical to the naive path's.
#[inline]
pub(crate) fn row_stats(row: &[f64], members: &[usize]) -> SuffStats {
    let mut s = SuffStats::empty();
    for &o in members {
        s.add(row[o]);
    }
    s
}

/// Append the statistics of one variable's row restricted to each
/// active observation cluster of a partition, in slot order; returns
/// the work (one cell visit per observation).
fn push_row_stats(
    data: &Dataset,
    var: usize,
    part: &ObsPartition,
    out: &mut Vec<SuffStats>,
) -> u64 {
    let row = data.values(var);
    let mut work = 0u64;
    for (_, oc) in part.iter_active() {
        work += oc.members.len() as u64 * COST_CELL;
        out.push(row_stats(row, &oc.members));
    }
    work
}

/// Tile statistics rebuilt from the raw matrix — the reference-mode
/// work loop. Work: `|vars| · |obs|` cell visits.
fn scratch_tile(data: &Dataset, vars: &[usize], obs: &[usize]) -> (SuffStats, u64) {
    let stats = mn_score::tile_stats(data, vars, obs);
    (stats, (vars.len() * obs.len()) as u64 * COST_CELL)
}

impl CoClustering {
    /// Δ score (and work) of removing variable `x` from its current
    /// cluster — common to every reassignment target, computed once
    /// per Gibbs iteration.
    pub fn var_removal_delta(&self, data: &Dataset, x: usize) -> (f64, u64) {
        let slot = self.slot_of_var(x);
        let cluster = self.cluster(slot);
        let prior = *self.prior();
        match self.mode() {
            ScoreMode::Incremental => {
                let mut row_stats = Vec::with_capacity(cluster.obs.n_active());
                let mut work = push_row_stats(data, x, &cluster.obs, &mut row_stats);
                let mut delta = 0.0;
                for ((_, oc), xs) in cluster.obs.iter_active().zip(&row_stats) {
                    let tile = &oc.stats;
                    delta += removal_term(&prior, tile, xs, prior.log_marginal(tile));
                    work += 2 * COST_LOGMARG;
                }
                (delta, work)
            }
            ScoreMode::Reference => {
                let remaining: Vec<usize> = cluster
                    .members
                    .iter()
                    .copied()
                    .filter(|&v| v != x)
                    .collect();
                let mut delta = 0.0;
                let mut work = 0u64;
                for (_, oc) in cluster.obs.iter_active() {
                    let (with, w1) = scratch_tile(data, &cluster.members, &oc.members);
                    let (without, w2) = scratch_tile(data, &remaining, &oc.members);
                    delta += prior.log_marginal(&without) - prior.log_marginal(&with);
                    work += w1 + w2 + 2 * COST_LOGMARG;
                }
                (delta, work)
            }
        }
    }

    /// Δ score (and work) of adding variable `x` to the cluster at
    /// `slot` (which must not be `x`'s current cluster).
    pub fn var_addition_delta(&self, data: &Dataset, x: usize, slot: usize) -> (f64, u64) {
        let cluster = self.cluster(slot);
        let prior = *self.prior();
        match self.mode() {
            ScoreMode::Incremental => {
                let mut row_stats = Vec::with_capacity(cluster.obs.n_active());
                let mut work = push_row_stats(data, x, &cluster.obs, &mut row_stats);
                let mut delta = 0.0;
                for ((_, oc), xs) in cluster.obs.iter_active().zip(&row_stats) {
                    let tile = &oc.stats;
                    delta += addition_term(&prior, tile, xs, prior.log_marginal(tile));
                    work += 2 * COST_LOGMARG;
                }
                (delta, work)
            }
            ScoreMode::Reference => {
                let mut extended = cluster.members.clone();
                let pos = extended.binary_search(&x).unwrap_err();
                extended.insert(pos, x);
                let mut delta = 0.0;
                let mut work = 0u64;
                for (_, oc) in cluster.obs.iter_active() {
                    let (with, w1) = scratch_tile(data, &extended, &oc.members);
                    let (without, w2) = scratch_tile(data, &cluster.members, &oc.members);
                    delta += prior.log_marginal(&with) - prior.log_marginal(&without);
                    work += w1 + w2 + 2 * COST_LOGMARG;
                }
                (delta, work)
            }
        }
    }

    /// Δ score (and work) of placing variable `x` alone in a fresh
    /// cluster (whose observation partition is a single cluster of all
    /// observations — see the module docs of `crate::sweep` for the
    /// convention).
    pub fn var_new_cluster_delta(&self, data: &Dataset, x: usize) -> (f64, u64) {
        let stats = SuffStats::from_values(data.values(x));
        let work = data.n_obs() as u64 * COST_CELL + COST_LOGMARG;
        (self.prior().log_marginal(&stats), work)
    }

    /// Apply the reassignment of `x` to `target`. Returns the slot the
    /// variable landed in. Tile statistics are maintained in both
    /// scoring modes (the reference implementation also tracks cluster
    /// membership; only its *scoring* recomputes).
    pub fn move_var(&mut self, data: &Dataset, x: usize, target: MoveTarget) -> usize {
        let from = self.slot_of_var(x);
        let to = match target {
            MoveTarget::Existing(slot) => slot,
            MoveTarget::New => {
                let slot = self.alloc_slot();
                // A fresh cluster starts with one observation cluster
                // holding all observations and empty tile statistics.
                let obs = ObsPartition::single_cluster(data.n_obs());
                self.set_cluster(
                    slot,
                    Some(VarCluster {
                        members: Vec::new(),
                        obs,
                    }),
                );
                slot
            }
        };
        if to == from {
            return to;
        }

        // Remove x from its current cluster.
        let row = data.values(x).to_vec();
        let consts = PriorConsts::new(self.prior());
        {
            let cluster = self.cluster_mut(from);
            let pos = cluster
                .members
                .binary_search(&x)
                .expect("member list corrupt");
            cluster.members.remove(pos);
            let slots: Vec<usize> = cluster.obs.active_slots();
            for oslot in slots {
                let mut xs = SuffStats::empty();
                for &o in &cluster.obs.cluster(oslot).members {
                    xs.add(row[o]);
                }
                cluster.obs.subtract_from_tile(oslot, &xs, &consts);
            }
            if cluster.members.is_empty() {
                self.set_cluster(from, None);
            }
        }

        // Insert x into the target cluster.
        {
            let cluster = self.cluster_mut(to);
            let pos = cluster.members.binary_search(&x).unwrap_err();
            cluster.members.insert(pos, x);
            let slots: Vec<usize> = cluster.obs.active_slots();
            for oslot in slots {
                let mut xs = SuffStats::empty();
                for &o in &cluster.obs.cluster(oslot).members {
                    xs.add(row[o]);
                }
                cluster.obs.add_to_tile(oslot, &xs, &consts);
            }
        }
        self.set_var_slot(x, to);
        to
    }

    /// Δ score (and work) of merging the cluster at `from` into the
    /// cluster at `to` (which keeps `to`'s observation partition):
    /// `score(to ∪ from under O(to)) − score(to) − score(from)`.
    pub fn merge_delta(&self, data: &Dataset, from: usize, to: usize) -> (f64, u64) {
        assert_ne!(from, to);
        let src = self.cluster(from);
        let dst = self.cluster(to);
        let prior = *self.prior();
        match self.mode() {
            ScoreMode::Incremental => {
                let mut delta = 0.0;
                let mut work = 0u64;
                // Statistics of src's members under dst's partition.
                for (oslot, oc) in dst.obs.iter_active() {
                    let mut add = SuffStats::empty();
                    for &v in &src.members {
                        let row = data.values(v);
                        for &o in &oc.members {
                            add.add(row[o]);
                        }
                    }
                    work += (src.members.len() * oc.members.len()) as u64 * COST_CELL;
                    let tile = &dst.obs.cluster(oslot).stats;
                    delta += addition_term(&prior, tile, &add, prior.log_marginal(tile));
                    work += 2 * COST_LOGMARG;
                }
                // Minus src's own score (cached tiles).
                for (_, oc) in src.obs.iter_active() {
                    delta -= prior.log_marginal(&oc.stats);
                    work += COST_LOGMARG;
                }
                (delta, work)
            }
            ScoreMode::Reference => {
                let mut merged = dst.members.clone();
                merged.extend_from_slice(&src.members);
                merged.sort_unstable();
                let mut delta = 0.0;
                let mut work = 0u64;
                for (_, oc) in dst.obs.iter_active() {
                    let (with, w1) = scratch_tile(data, &merged, &oc.members);
                    let (without, w2) = scratch_tile(data, &dst.members, &oc.members);
                    delta += prior.log_marginal(&with) - prior.log_marginal(&without);
                    work += w1 + w2 + 2 * COST_LOGMARG;
                }
                for (_, oc) in src.obs.iter_active() {
                    let (own, w) = scratch_tile(data, &src.members, &oc.members);
                    delta -= prior.log_marginal(&own);
                    work += w + COST_LOGMARG;
                }
                (delta, work)
            }
        }
    }

    /// Apply the merge of `from` into `to` (keeping `to`'s observation
    /// partition).
    pub fn merge_var_clusters(&mut self, data: &Dataset, from: usize, to: usize) {
        assert_ne!(from, to);
        let src = {
            let members = self.cluster(from).members.clone();
            self.set_cluster(from, None);
            members
        };
        for &v in &src {
            self.set_var_slot(v, to);
        }
        let consts = PriorConsts::new(self.prior());
        let cluster = self.cluster_mut(to);
        for &v in &src {
            let pos = cluster.members.binary_search(&v).unwrap_err();
            cluster.members.insert(pos, v);
        }
        let slots: Vec<usize> = cluster.obs.active_slots();
        for oslot in slots {
            let mut add = SuffStats::empty();
            for &v in &src {
                let row = data.values(v);
                for &o in &cluster.obs.cluster(oslot).members {
                    add.add(row[o]);
                }
            }
            cluster.obs.add_to_tile(oslot, &add, &consts);
        }
    }

    // ----- observation moves (within one variable cluster) -----

    /// Column statistics of observation `o` within the cluster at
    /// `slot`: `{ D[v][o] : v ∈ members }`.
    pub fn column_stats(&self, data: &Dataset, slot: usize, o: usize) -> (SuffStats, u64) {
        let cluster = self.cluster(slot);
        let mut s = SuffStats::empty();
        for &v in &cluster.members {
            s.add(data.values(v)[o]);
        }
        (s, cluster.members.len() as u64 * COST_CELL)
    }

    /// Δ score (and work) of removing observation `o` from its current
    /// observation cluster inside variable cluster `slot`.
    pub fn obs_removal_delta(&self, data: &Dataset, slot: usize, o: usize) -> (f64, u64) {
        let cluster = self.cluster(slot);
        let oslot = cluster.obs.slot_of(o);
        let prior = *self.prior();
        match self.mode() {
            ScoreMode::Incremental => {
                let (col, mut work) = self.column_stats(data, slot, o);
                let tile = &cluster.obs.cluster(oslot).stats;
                work += 2 * COST_LOGMARG;
                (
                    removal_term(&prior, tile, &col, prior.log_marginal(tile)),
                    work,
                )
            }
            ScoreMode::Reference => {
                let oc = cluster.obs.cluster(oslot);
                let remaining: Vec<usize> =
                    oc.members.iter().copied().filter(|&x| x != o).collect();
                let (with, w1) = scratch_tile(data, &cluster.members, &oc.members);
                let (without, w2) = scratch_tile(data, &cluster.members, &remaining);
                (
                    prior.log_marginal(&without) - prior.log_marginal(&with),
                    w1 + w2 + 2 * COST_LOGMARG,
                )
            }
        }
    }

    /// Δ score (and work) of adding observation `o` to observation
    /// cluster `oslot` inside variable cluster `slot`.
    pub fn obs_addition_delta(
        &self,
        data: &Dataset,
        slot: usize,
        o: usize,
        oslot: usize,
    ) -> (f64, u64) {
        let cluster = self.cluster(slot);
        let prior = *self.prior();
        match self.mode() {
            ScoreMode::Incremental => {
                let (col, mut work) = self.column_stats(data, slot, o);
                let tile = &cluster.obs.cluster(oslot).stats;
                work += 2 * COST_LOGMARG;
                (
                    addition_term(&prior, tile, &col, prior.log_marginal(tile)),
                    work,
                )
            }
            ScoreMode::Reference => {
                let oc = cluster.obs.cluster(oslot);
                let mut extended = oc.members.clone();
                let pos = extended.binary_search(&o).unwrap_err();
                extended.insert(pos, o);
                let (with, w1) = scratch_tile(data, &cluster.members, &extended);
                let (without, w2) = scratch_tile(data, &cluster.members, &oc.members);
                (
                    prior.log_marginal(&with) - prior.log_marginal(&without),
                    w1 + w2 + 2 * COST_LOGMARG,
                )
            }
        }
    }

    /// Δ score (and work) of placing observation `o` alone in a fresh
    /// observation cluster.
    pub fn obs_new_cluster_delta(&self, data: &Dataset, slot: usize, o: usize) -> (f64, u64) {
        let (col, work) = self.column_stats(data, slot, o);
        (
            self.prior().log_marginal(&col),
            work + COST_LOGMARG,
        )
    }

    /// Apply the reassignment of observation `o` inside variable
    /// cluster `slot`. Returns the observation slot it landed in.
    pub fn move_obs(
        &mut self,
        data: &Dataset,
        slot: usize,
        o: usize,
        target: Option<usize>,
    ) -> usize {
        let (col, _) = self.column_stats(data, slot, o);
        let consts = PriorConsts::new(self.prior());
        self.cluster_mut(slot)
            .obs
            .move_obs(o, &col, target, &consts)
    }

    /// Δ score (and work) of merging observation cluster `a` into `b`
    /// inside variable cluster `slot`.
    pub fn obs_merge_delta(&self, data: &Dataset, slot: usize, a: usize, b: usize) -> (f64, u64) {
        assert_ne!(a, b);
        let cluster = self.cluster(slot);
        let prior = *self.prior();
        match self.mode() {
            ScoreMode::Incremental => {
                let sa = &cluster.obs.cluster(a).stats;
                let sb = &cluster.obs.cluster(b).stats;
                // Same expression and association as `log_merge_gain`.
                let gain = merge_gain_term(
                    &prior,
                    sa,
                    sb,
                    prior.log_marginal(sa),
                    prior.log_marginal(sb),
                );
                (gain, 3 * COST_LOGMARG)
            }
            ScoreMode::Reference => {
                let ma = &cluster.obs.cluster(a).members;
                let mb = &cluster.obs.cluster(b).members;
                let mut merged = ma.clone();
                merged.extend_from_slice(mb);
                merged.sort_unstable();
                let (sm, w1) = scratch_tile(data, &cluster.members, &merged);
                let (sa, w2) = scratch_tile(data, &cluster.members, ma);
                let (sb, w3) = scratch_tile(data, &cluster.members, mb);
                (
                    prior.log_marginal(&sm) - prior.log_marginal(&sa) - prior.log_marginal(&sb),
                    w1 + w2 + w3 + 3 * COST_LOGMARG,
                )
            }
        }
    }

    /// Apply the merge of observation cluster `a` into `b` inside
    /// variable cluster `slot`.
    pub fn merge_obs_clusters(&mut self, slot: usize, a: usize, b: usize) {
        let consts = PriorConsts::new(self.prior());
        self.cluster_mut(slot).obs.merge(a, b, &consts);
    }
}

/// A prior accessor used by free functions in this module's tests.
pub fn prior_of(state: &CoClustering) -> NormalGamma {
    *state.prior()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mn_data::synthetic;
    use mn_rand::MasterRng;

    fn setup(mode: ScoreMode) -> (Dataset, CoClustering) {
        let d = synthetic::yeast_like(16, 10, 5).dataset;
        let s = CoClustering::random_init(
            &d,
            4,
            NormalGamma::default(),
            mode,
            &MasterRng::new(7),
            0,
        );
        (d, s)
    }

    /// The fundamental correctness property: a delta function must
    /// predict exactly the change in the from-scratch total score.
    fn assert_delta_matches<F, G>(mode: ScoreMode, delta_fn: F, apply_fn: G)
    where
        F: Fn(&Dataset, &CoClustering) -> f64,
        G: Fn(&Dataset, &mut CoClustering),
    {
        let (d, mut s) = setup(mode);
        s.validate(&d);
        let before = s.score_from_scratch(&d);
        let delta = delta_fn(&d, &s);
        apply_fn(&d, &mut s);
        s.validate(&d);
        let after = s.score_from_scratch(&d);
        assert!(
            ((after - before) - delta).abs() < 1e-8 * after.abs().max(1.0),
            "predicted {delta}, actual {}",
            after - before
        );
    }

    #[test]
    fn var_move_delta_matches_score_change_incremental() {
        for target_kind in 0..2 {
            assert_delta_matches(
                ScoreMode::Incremental,
                |d, s| {
                    let x = 3;
                    let (rem, _) = s.var_removal_delta(d, x);
                    if target_kind == 0 {
                        let to = s
                            .active_slots()
                            .into_iter()
                            .find(|&t| t != s.slot_of_var(x))
                            .unwrap();
                        let (add, _) = s.var_addition_delta(d, x, to);
                        rem + add
                    } else {
                        let (add, _) = s.var_new_cluster_delta(d, x);
                        rem + add
                    }
                },
                |d, s| {
                    let x = 3;
                    if target_kind == 0 {
                        let to = s
                            .active_slots()
                            .into_iter()
                            .find(|&t| t != s.slot_of_var(x))
                            .unwrap();
                        s.move_var(d, x, MoveTarget::Existing(to));
                    } else {
                        s.move_var(d, x, MoveTarget::New);
                    }
                },
            );
        }
    }

    #[test]
    fn var_move_delta_matches_score_change_reference() {
        assert_delta_matches(
            ScoreMode::Reference,
            |d, s| {
                let x = 5;
                let to = s
                    .active_slots()
                    .into_iter()
                    .find(|&t| t != s.slot_of_var(x))
                    .unwrap();
                let (rem, _) = s.var_removal_delta(d, x);
                let (add, _) = s.var_addition_delta(d, x, to);
                rem + add
            },
            |d, s| {
                let x = 5;
                let to = s
                    .active_slots()
                    .into_iter()
                    .find(|&t| t != s.slot_of_var(x))
                    .unwrap();
                s.move_var(d, x, MoveTarget::Existing(to));
            },
        );
    }

    #[test]
    fn merge_delta_matches_score_change() {
        for mode in [ScoreMode::Incremental, ScoreMode::Reference] {
            assert_delta_matches(
                mode,
                |d, s| {
                    let slots = s.active_slots();
                    s.merge_delta(d, slots[0], slots[1]).0
                },
                |d, s| {
                    let slots = s.active_slots();
                    s.merge_var_clusters(d, slots[0], slots[1]);
                },
            );
        }
    }

    #[test]
    fn obs_move_delta_matches_score_change() {
        for mode in [ScoreMode::Incremental, ScoreMode::Reference] {
            assert_delta_matches(
                mode,
                |d, s| {
                    let slot = s.active_slots()[0];
                    let o = 2;
                    let cur = s.cluster(slot).obs.slot_of(o);
                    let (rem, _) = s.obs_removal_delta(d, slot, o);
                    match s
                        .cluster(slot)
                        .obs
                        .active_slots()
                        .into_iter()
                        .find(|&t| t != cur)
                    {
                        Some(to) => rem + s.obs_addition_delta(d, slot, o, to).0,
                        None => rem + s.obs_new_cluster_delta(d, slot, o).0,
                    }
                },
                |d, s| {
                    let slot = s.active_slots()[0];
                    let o = 2;
                    let cur = s.cluster(slot).obs.slot_of(o);
                    match s
                        .cluster(slot)
                        .obs
                        .active_slots()
                        .into_iter()
                        .find(|&t| t != cur)
                    {
                        Some(to) => {
                            s.move_obs(d, slot, o, Some(to));
                        }
                        None => {
                            s.move_obs(d, slot, o, None);
                        }
                    }
                },
            );
        }
    }

    #[test]
    fn obs_merge_delta_matches_score_change() {
        for mode in [ScoreMode::Incremental, ScoreMode::Reference] {
            let (d, s) = setup(mode);
            // Find a variable cluster with at least two obs clusters.
            let slot = s
                .active_slots()
                .into_iter()
                .find(|&sl| s.cluster(sl).obs.n_active() >= 2)
                .expect("no cluster with 2+ obs clusters");
            let oslots = s.cluster(slot).obs.active_slots();
            let before = s.score_from_scratch(&d);
            let (delta, _) = s.obs_merge_delta(&d, slot, oslots[0], oslots[1]);
            let mut s2 = s.clone();
            s2.merge_obs_clusters(slot, oslots[0], oslots[1]);
            s2.validate(&d);
            let after = s2.score_from_scratch(&d);
            assert!(
                ((after - before) - delta).abs() < 1e-8 * after.abs().max(1.0),
                "mode {mode:?}: predicted {delta}, actual {}",
                after - before
            );
        }
    }

    #[test]
    fn modes_agree_on_deltas() {
        // Same state, both modes: the deltas must agree to floating
        // point — reference is a cost profile, not a different score.
        let (d, si) = setup(ScoreMode::Incremental);
        let (_, sr) = setup(ScoreMode::Reference);
        let x = 7;
        let (ri, wi) = si.var_removal_delta(&d, x);
        let (rr, wr) = sr.var_removal_delta(&d, x);
        assert!((ri - rr).abs() < 1e-9, "{ri} vs {rr}");
        assert!(wr > wi, "reference must cost more ({wr} vs {wi})");
        for &slot in &si.active_slots() {
            if slot == si.slot_of_var(x) {
                continue;
            }
            let (ai, _) = si.var_addition_delta(&d, x, slot);
            let (ar, _) = sr.var_addition_delta(&d, x, slot);
            assert!((ai - ar).abs() < 1e-9, "slot {slot}: {ai} vs {ar}");
        }
    }

    #[test]
    fn moving_sole_member_to_new_cluster_is_consistent() {
        let (d, mut s) = setup(ScoreMode::Incremental);
        // Force variable 0 into its own cluster first.
        s.move_var(&d, 0, MoveTarget::New);
        s.validate(&d);
        let slot = s.slot_of_var(0);
        assert_eq!(s.cluster(slot).members, vec![0]);
        // Moving it to New again re-creates a singleton; still valid.
        s.move_var(&d, 0, MoveTarget::New);
        s.validate(&d);
        assert_eq!(s.cluster(s.slot_of_var(0)).members, vec![0]);
    }
}
