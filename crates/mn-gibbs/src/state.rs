//! The co-clustering state of the GaneSH sampler.
//!
//! A co-clustering (§2.2.1) is a partition of the variables into
//! variable clusters `V`, each carrying its own partition of the
//! observations `O(V_i)`. Its Bayesian score decomposes over tiles
//! `(V_i, O_j)`; [`CoClustering`] maintains the sufficient statistics
//! of every tile so move deltas are evaluated incrementally.
//!
//! Every tile also stores its log-marginal `lm`, a pure function of
//! the statistics' bits: the methods that change a tile's statistics
//! refresh it, so the kernel scorer's candidate maps read it from the
//! state instead of recomputing or caching it.
//!
//! Cluster containers are *slot-based*: merging or emptying a cluster
//! frees its slot (`None`), and new clusters reuse the lowest free
//! slot. All iteration is in slot order, which keeps every engine and
//! rank count on the identical deterministic trajectory.

use mn_data::Dataset;
use mn_rand::{Domain, MasterRng};
use mn_score::{NormalGamma, PriorConsts, SuffStats};
use serde::{Deserialize, Serialize};

/// One cluster of observations inside a variable cluster, together
/// with the sufficient statistics of its tile
/// (`{ D[v][o] : v ∈ members of the variable cluster, o ∈ members }`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ObsCluster {
    /// Sorted observation indices.
    pub members: Vec<usize>,
    /// Tile statistics (maintained incrementally).
    pub stats: SuffStats,
    /// `log_marginal(stats)` under the owning co-clustering's prior,
    /// bit for bit; refreshed by every method that changes `stats`.
    pub lm: f64,
}

impl ObsCluster {
    fn empty() -> Self {
        Self {
            members: Vec::new(),
            stats: SuffStats::empty(),
            lm: 0.0,
        }
    }

    fn refresh_lm(&mut self, consts: &PriorConsts) {
        self.lm = consts.log_marginal(&self.stats);
    }
}

/// A partition of the observations with per-tile statistics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ObsPartition {
    /// `assignment[o]` = slot of the observation cluster holding `o`.
    assignment: Vec<usize>,
    /// Slot-indexed clusters; `None` marks a freed slot.
    clusters: Vec<Option<ObsCluster>>,
}

impl ObsPartition {
    /// A partition with every observation in one cluster (statistics
    /// must be filled in by the caller via `rebuild_stats`).
    pub fn single_cluster(n_obs: usize) -> Self {
        Self {
            assignment: vec![0; n_obs],
            clusters: vec![Some(ObsCluster {
                members: (0..n_obs).collect(),
                ..ObsCluster::empty()
            })],
        }
    }

    /// A random partition of `n_obs` observations into `k` clusters,
    /// consuming exactly one draw per observation from `stream`.
    pub fn random(n_obs: usize, k: usize, stream: &mut mn_rand::Stream) -> Self {
        assert!(k >= 1);
        let mut assignment = Vec::with_capacity(n_obs);
        let mut clusters: Vec<Option<ObsCluster>> =
            (0..k).map(|_| Some(ObsCluster::empty())).collect();
        for o in 0..n_obs {
            let c = stream.index_one_draw(k);
            assignment.push(c);
            clusters[c].as_mut().unwrap().members.push(o);
        }
        // Free slots that received no observations so active slot
        // iteration never sees empty clusters.
        for slot in clusters.iter_mut() {
            if slot.as_ref().is_some_and(|c| c.members.is_empty()) {
                *slot = None;
            }
        }
        Self {
            assignment,
            clusters,
        }
    }

    /// Number of observations.
    pub fn n_obs(&self) -> usize {
        self.assignment.len()
    }

    /// Active slots in slot order.
    pub fn active_slots(&self) -> Vec<usize> {
        let mut out = Vec::new();
        self.fill_active_slots(&mut out);
        out
    }

    /// [`ObsPartition::active_slots`] into a caller-owned buffer (the
    /// sweeps refill one per proposal).
    pub fn fill_active_slots(&self, out: &mut Vec<usize>) {
        out.clear();
        out.extend(self.iter_active().map(|(i, _)| i));
    }

    /// Whether `slot` currently holds a cluster.
    pub fn is_active(&self, slot: usize) -> bool {
        self.clusters.get(slot).is_some_and(|c| c.is_some())
    }

    /// Number of active clusters.
    pub fn n_active(&self) -> usize {
        self.clusters.iter().filter(|c| c.is_some()).count()
    }

    /// Slot of the cluster holding observation `o`.
    pub fn slot_of(&self, o: usize) -> usize {
        self.assignment[o]
    }

    /// The cluster at `slot` (must be active).
    pub fn cluster(&self, slot: usize) -> &ObsCluster {
        self.clusters[slot].as_ref().expect("inactive obs slot")
    }

    fn cluster_mut(&mut self, slot: usize) -> &mut ObsCluster {
        self.clusters[slot].as_mut().expect("inactive obs slot")
    }

    /// Iterate `(slot, cluster)` pairs in slot order.
    pub fn iter_active(&self) -> impl Iterator<Item = (usize, &ObsCluster)> {
        self.clusters
            .iter()
            .enumerate()
            .filter_map(|(i, c)| c.as_ref().map(|c| (i, c)))
    }

    /// Lowest free slot, allocating one if all are in use.
    fn alloc_slot(&mut self) -> usize {
        if let Some(i) = self.clusters.iter().position(|c| c.is_none()) {
            i
        } else {
            self.clusters.push(None);
            self.clusters.len() - 1
        }
    }

    /// Move observation `o` (with its column statistics `col`) from its
    /// current cluster to `target`; `None` target = a fresh cluster.
    /// Returns the slot it landed in.
    pub fn move_obs(
        &mut self,
        o: usize,
        col: &SuffStats,
        target: Option<usize>,
        consts: &PriorConsts,
    ) -> usize {
        let from = self.assignment[o];
        let to = match target {
            Some(t) => t,
            None => {
                let t = self.alloc_slot();
                self.clusters[t] = Some(ObsCluster::empty());
                t
            }
        };
        if to == from {
            return to;
        }
        {
            let src = self.cluster_mut(from);
            let pos = src.members.binary_search(&o).expect("member list corrupt");
            src.members.remove(pos);
            src.stats.unmerge(col);
            src.refresh_lm(consts);
            if src.members.is_empty() {
                self.clusters[from] = None;
            }
        }
        {
            let dst = self.cluster_mut(to);
            let pos = dst.members.binary_search(&o).unwrap_err();
            dst.members.insert(pos, o);
            dst.stats.merge(col);
            dst.refresh_lm(consts);
        }
        self.assignment[o] = to;
        to
    }

    /// Merge cluster `from` into cluster `to` (both active, distinct).
    pub fn merge(&mut self, from: usize, to: usize, consts: &PriorConsts) {
        assert_ne!(from, to, "cannot merge a cluster with itself");
        let src = self.clusters[from].take().expect("inactive source slot");
        let dst = self.cluster_mut(to);
        for &o in &src.members {
            let pos = dst.members.binary_search(&o).unwrap_err();
            dst.members.insert(pos, o);
        }
        dst.stats.merge(&src.stats);
        dst.refresh_lm(consts);
        for &o in &src.members {
            self.assignment[o] = to;
        }
    }

    /// Add `delta` to the tile statistics of the cluster at `slot`
    /// (used when a variable joins the owning variable cluster).
    pub fn add_to_tile(&mut self, slot: usize, delta: &SuffStats, consts: &PriorConsts) {
        let cluster = self.cluster_mut(slot);
        cluster.stats.merge(delta);
        cluster.refresh_lm(consts);
    }

    /// Subtract `delta` from the tile statistics of the cluster at
    /// `slot` (used when a variable leaves the owning variable cluster).
    pub fn subtract_from_tile(&mut self, slot: usize, delta: &SuffStats, consts: &PriorConsts) {
        let cluster = self.cluster_mut(slot);
        cluster.stats.unmerge(delta);
        cluster.refresh_lm(consts);
    }

    /// Rebuild every tile's statistics (and log-marginal) from the
    /// matrix for the given variable members (used at construction).
    pub fn rebuild_stats(&mut self, data: &Dataset, vars: &[usize], consts: &PriorConsts) {
        for cluster in self.clusters.iter_mut().flatten() {
            cluster.stats = mn_score::tile_stats(data, vars, &cluster.members);
            cluster.refresh_lm(consts);
        }
    }

    /// The member lists of the active clusters, in slot order (used by
    /// consensus and tree construction).
    pub fn cluster_members(&self) -> Vec<Vec<usize>> {
        self.iter_active().map(|(_, c)| c.members.clone()).collect()
    }
}

/// One variable cluster and its observation partition.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VarCluster {
    /// Sorted variable indices.
    pub members: Vec<usize>,
    /// Observation partition with tile statistics.
    pub obs: ObsPartition,
}

/// The complete co-clustering state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CoClustering {
    /// `var_assignment[v]` = slot of the variable cluster holding `v`.
    var_assignment: Vec<usize>,
    clusters: Vec<Option<VarCluster>>,
    prior: NormalGamma,
}

impl CoClustering {
    /// Random initialization (Alg. 3 lines 3–5): variables uniformly
    /// into `k0` clusters, observations of each cluster uniformly into
    /// `⌈√m⌉` clusters.
    pub fn random_init(
        data: &Dataset,
        k0: usize,
        prior: NormalGamma,
        master: &MasterRng,
        run: u64,
    ) -> Self {
        assert!(k0 >= 1, "need at least one initial cluster");
        let n = data.n_vars();
        let m = data.n_obs();
        let mut var_stream = master.stream(Domain::InitVarClusters, run);
        let mut var_assignment = Vec::with_capacity(n);
        let mut members: Vec<Vec<usize>> = vec![Vec::new(); k0];
        for v in 0..n {
            let c = var_stream.index_one_draw(k0);
            var_assignment.push(c);
            members[c].push(v);
        }
        let obs_k = (m as f64).sqrt().ceil().max(1.0) as usize;
        let consts = PriorConsts::new(&prior);
        let mut clusters: Vec<Option<VarCluster>> = Vec::with_capacity(k0);
        for (slot, vars) in members.into_iter().enumerate() {
            if vars.is_empty() {
                clusters.push(None);
                continue;
            }
            let mut obs_stream = master.stream2(Domain::InitObsClusters, run, slot as u64);
            let mut obs = ObsPartition::random(m, obs_k, &mut obs_stream);
            obs.rebuild_stats(data, &vars, &consts);
            clusters.push(Some(VarCluster { members: vars, obs }));
        }
        Self {
            var_assignment,
            clusters,
            prior,
        }
    }

    /// A co-clustering with a single variable cluster containing
    /// `vars`, and a random observation partition — the constrained
    /// GaneSH run of the tree-learning task (Alg. 4 line 3).
    pub fn single_var_cluster(
        data: &Dataset,
        vars: &[usize],
        prior: NormalGamma,
        master: &MasterRng,
        module_key: u64,
    ) -> Self {
        let m = data.n_obs();
        let obs_k = (m as f64).sqrt().ceil().max(1.0) as usize;
        let mut obs_stream = master.stream(Domain::TreeObsClusters, module_key);
        let mut obs = ObsPartition::random(m, obs_k, &mut obs_stream);
        let mut sorted = vars.to_vec();
        sorted.sort_unstable();
        obs.rebuild_stats(data, &sorted, &PriorConsts::new(&prior));
        let mut var_assignment = vec![usize::MAX; data.n_vars()];
        for &v in &sorted {
            var_assignment[v] = 0;
        }
        Self {
            var_assignment,
            clusters: vec![Some(VarCluster {
                members: sorted,
                obs,
            })],
            prior,
        }
    }

    /// The prior in force.
    pub fn prior(&self) -> &NormalGamma {
        &self.prior
    }

    /// Active variable-cluster slots in slot order.
    pub fn active_slots(&self) -> Vec<usize> {
        let mut out = Vec::new();
        self.fill_active_slots(&mut out);
        out
    }

    /// [`CoClustering::active_slots`] into a caller-owned buffer (the
    /// sweeps refill one per proposal).
    pub fn fill_active_slots(&self, out: &mut Vec<usize>) {
        out.clear();
        out.extend(
            self.clusters
                .iter()
                .enumerate()
                .filter_map(|(i, c)| c.as_ref().map(|_| i)),
        );
    }

    /// Whether `slot` currently holds a cluster.
    pub fn is_active(&self, slot: usize) -> bool {
        self.clusters.get(slot).is_some_and(|c| c.is_some())
    }

    /// Number of active variable clusters (the paper's K).
    pub fn n_active(&self) -> usize {
        self.clusters.iter().filter(|c| c.is_some()).count()
    }

    /// Slot of the cluster holding variable `v`.
    pub fn slot_of_var(&self, v: usize) -> usize {
        self.var_assignment[v]
    }

    /// The cluster at `slot` (must be active).
    pub fn cluster(&self, slot: usize) -> &VarCluster {
        self.clusters[slot].as_ref().expect("inactive var slot")
    }

    pub(crate) fn cluster_mut(&mut self, slot: usize) -> &mut VarCluster {
        self.clusters[slot].as_mut().expect("inactive var slot")
    }

    pub(crate) fn alloc_slot(&mut self) -> usize {
        if let Some(i) = self.clusters.iter().position(|c| c.is_none()) {
            i
        } else {
            self.clusters.push(None);
            self.clusters.len() - 1
        }
    }

    pub(crate) fn set_cluster(&mut self, slot: usize, cluster: Option<VarCluster>) {
        self.clusters[slot] = cluster;
    }

    pub(crate) fn set_var_slot(&mut self, v: usize, slot: usize) {
        self.var_assignment[v] = slot;
    }

    /// The member lists of the active variable clusters, in slot order
    /// — the cluster sample handed to consensus clustering.
    pub fn var_cluster_members(&self) -> Vec<Vec<usize>> {
        self.clusters
            .iter()
            .filter_map(|c| c.as_ref().map(|c| c.members.clone()))
            .collect()
    }

    /// Total co-clustering score from the maintained tile statistics.
    pub fn score(&self) -> f64 {
        let mut total = 0.0;
        for cluster in self.clusters.iter().flatten() {
            for (_, oc) in cluster.obs.iter_active() {
                total += self.prior.log_marginal(&oc.stats);
            }
        }
        total
    }

    /// Total score recomputed from the raw matrix (the oracle the
    /// incremental bookkeeping is tested against).
    pub fn score_from_scratch(&self, data: &Dataset) -> f64 {
        let mut total = 0.0;
        for cluster in self.clusters.iter().flatten() {
            for (_, oc) in cluster.obs.iter_active() {
                total += self
                    .prior
                    .log_marginal(&mn_score::tile_stats(data, &cluster.members, &oc.members));
            }
        }
        total
    }

    /// Check every structural invariant and the statistics cache
    /// against a from-scratch rebuild. Panics with a description on
    /// the first violation. Used by tests and debug assertions.
    pub fn validate(&self, data: &Dataset) {
        let mut seen_vars = vec![false; self.var_assignment.len()];
        for (slot, cluster) in self.clusters.iter().enumerate() {
            let Some(cluster) = cluster else { continue };
            assert!(!cluster.members.is_empty(), "active slot {slot} is empty");
            assert!(
                cluster.members.windows(2).all(|w| w[0] < w[1]),
                "slot {slot} members not sorted/unique"
            );
            for &v in &cluster.members {
                assert_eq!(self.var_assignment[v], slot, "assignment of var {v}");
                assert!(!seen_vars[v], "var {v} in two clusters");
                seen_vars[v] = true;
            }
            let mut seen_obs = vec![false; cluster.obs.n_obs()];
            for (oslot, oc) in cluster.obs.iter_active() {
                assert!(!oc.members.is_empty(), "active obs slot {oslot} empty");
                assert!(
                    oc.members.windows(2).all(|w| w[0] < w[1]),
                    "obs slot {oslot} members not sorted/unique"
                );
                for &o in &oc.members {
                    assert_eq!(cluster.obs.slot_of(o), oslot);
                    assert!(!seen_obs[o], "obs {o} in two clusters");
                    seen_obs[o] = true;
                }
                assert_eq!(
                    oc.lm.to_bits(),
                    self.prior.log_marginal(&oc.stats).to_bits(),
                    "stored log-marginal drift at slot {slot}/{oslot}"
                );
                let scratch = mn_score::tile_stats(data, &cluster.members, &oc.members);
                assert_eq!(oc.stats.count(), scratch.count(), "tile count drift");
                let tol = 1e-6 * scratch.sumsq().abs().max(1.0);
                assert!(
                    (oc.stats.sum() - scratch.sum()).abs() <= tol
                        && (oc.stats.sumsq() - scratch.sumsq()).abs() <= tol,
                    "tile stats drift at slot {slot}/{oslot}: {:?} vs {scratch:?}",
                    oc.stats
                );
            }
            assert!(
                seen_obs.iter().all(|&b| b),
                "slot {slot}: some observation unassigned"
            );
        }
        for (v, &slot) in self.var_assignment.iter().enumerate() {
            if slot != usize::MAX {
                assert!(seen_vars[v], "var {v} assigned to inactive slot {slot}");
            }
        }
        // The maintained total score must track the from-scratch
        // oracle — catches stat-cache drift that per-tile tolerances
        // could individually absorb.
        let cached = self.score();
        let scratch = self.score_from_scratch(data);
        let tol = 1e-6 * scratch.abs().max(1.0);
        assert!(
            (cached - scratch).abs() <= tol,
            "score drift: cached {cached} vs scratch {scratch}"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mn_data::synthetic;

    fn data() -> Dataset {
        synthetic::yeast_like(20, 12, 3).dataset
    }

    fn master() -> MasterRng {
        MasterRng::new(99)
    }

    #[test]
    fn random_init_is_valid_and_deterministic() {
        let d = data();
        let a = CoClustering::random_init(&d, 5, NormalGamma::default(), &master(), 0);
        a.validate(&d);
        let b = CoClustering::random_init(&d, 5, NormalGamma::default(), &master(), 0);
        assert_eq!(a, b);
        // Different run index gives a different initialization.
        let c = CoClustering::random_init(&d, 5, NormalGamma::default(), &master(), 1);
        assert_ne!(a, c);
    }

    #[test]
    fn score_matches_scratch_after_init() {
        let d = data();
        let s = CoClustering::random_init(&d, 4, NormalGamma::default(), &master(), 0);
        let cached = s.score();
        let scratch = s.score_from_scratch(&d);
        assert!(
            (cached - scratch).abs() < 1e-9 * scratch.abs().max(1.0),
            "{cached} vs {scratch}"
        );
    }

    #[test]
    fn obs_partition_move_and_merge_keep_stats() {
        let d = data();
        let vars: Vec<usize> = (0..d.n_vars()).collect();
        let mut stream = master().stream(Domain::User, 0);
        let consts = PriorConsts::new(&NormalGamma::default());
        let mut part = ObsPartition::random(d.n_obs(), 3, &mut stream);
        part.rebuild_stats(&d, &vars, &consts);

        // Move observation 0 to a fresh cluster.
        let col = mn_score::tile_stats(&d, &vars, &[0]);
        let new_slot = part.move_obs(0, &col, None, &consts);
        assert_eq!(part.slot_of(0), new_slot);
        let mut check = part.clone();
        check.rebuild_stats(&d, &vars, &consts);
        for (slot, oc) in part.iter_active() {
            let fresh = check.cluster(slot);
            assert_eq!(oc.members, fresh.members);
            assert!((oc.stats.sum() - fresh.stats.sum()).abs() < 1e-9);
        }

        // Merge it back into some other cluster.
        let other = part
            .active_slots()
            .into_iter()
            .find(|&s| s != new_slot)
            .unwrap();
        part.merge(new_slot, other, &consts);
        assert_eq!(part.slot_of(0), other);
        let mut check = part.clone();
        check.rebuild_stats(&d, &vars, &consts);
        for (slot, oc) in part.iter_active() {
            assert!((oc.stats.sumsq() - check.cluster(slot).stats.sumsq()).abs() < 1e-9);
            assert_eq!(oc.lm.to_bits(), consts.log_marginal(&oc.stats).to_bits());
        }
    }

    #[test]
    fn single_var_cluster_constrains_to_module() {
        let d = data();
        let s =
            CoClustering::single_var_cluster(&d, &[3, 1, 7], NormalGamma::default(), &master(), 42);
        s.validate(&d);
        assert_eq!(s.n_active(), 1);
        assert_eq!(s.cluster(0).members, vec![1, 3, 7]);
        assert_eq!(s.slot_of_var(3), 0);
        assert_eq!(s.slot_of_var(0), usize::MAX);
    }

    #[test]
    fn empty_random_obs_clusters_are_freed() {
        // k much larger than n_obs forces empty clusters.
        let mut stream = master().stream(Domain::User, 1);
        let part = ObsPartition::random(3, 10, &mut stream);
        assert!(part.n_active() <= 3);
        for (_, c) in part.iter_active() {
            assert!(!c.members.is_empty());
        }
    }

    #[test]
    fn cluster_members_in_slot_order() {
        let d = data();
        let s = CoClustering::random_init(&d, 3, NormalGamma::default(), &master(), 0);
        let lists = s.var_cluster_members();
        assert_eq!(lists.len(), s.n_active());
        let total: usize = lists.iter().map(Vec::len).sum();
        assert_eq!(total, d.n_vars());
    }
}
