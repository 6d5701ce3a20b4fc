//! The GaneSH driver (Algorithm 3) and the constrained
//! observation-only sampler used by tree learning (Algorithm 4, first
//! part).

use crate::scorer::SweepScorer;
use crate::state::{CoClustering, ObsPartition};
use crate::sweep::{merge_obs, merge_vars, reassign_obs, reassign_vars};
use mn_comm::ParEngine;
use mn_data::Dataset;
use mn_rand::MasterRng;
use mn_score::{NormalGamma, Scoring};
use serde::{Deserialize, Serialize};

/// Parameters of one GaneSH run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GaneshParams {
    /// Initial number of variable clusters `K₀`; `None` = the paper's
    /// default of `n/2`.
    pub init_clusters: Option<usize>,
    /// Number of update steps `U`.
    pub update_steps: usize,
    /// The normal-gamma prior for all tile scores.
    pub prior: NormalGamma,
}

impl Default for GaneshParams {
    fn default() -> Self {
        Self {
            init_clusters: None,
            update_steps: 1,
            prior: NormalGamma::default(),
        }
    }
}

impl GaneshParams {
    /// Resolved initial cluster count for `n` variables.
    pub fn resolved_init_clusters(&self, n: usize) -> usize {
        self.init_clusters.unwrap_or_else(|| (n / 2).max(1))
    }
}

/// One GaneSH co-clustering run (Alg. 3): random initialization
/// followed by `U` update steps, each a variable-reassignment sweep, a
/// variable-merge sweep, and per-cluster observation sweeps.
///
/// `run` indexes the run within the ensemble (the paper samples `G`
/// independent runs; each gets independent named streams).
pub fn ganesh<E: ParEngine>(
    engine: &mut E,
    data: &Dataset,
    master: &MasterRng,
    run: u64,
    params: &GaneshParams,
) -> CoClustering {
    ganesh_with_scoring(engine, data, master, run, params, Scoring::Kernel)
}

/// [`ganesh`] with every sweep's candidate-scoring path chosen by
/// `scoring`. `Scoring::Naive` samples the identical chain at the
/// per-candidate cost: the oracle the A/B suites and the `mn-bench`
/// records compare the kernel against, and task 1 of `monet
/// --reference`.
pub fn ganesh_with_scoring<E: ParEngine>(
    engine: &mut E,
    data: &Dataset,
    master: &MasterRng,
    run: u64,
    params: &GaneshParams,
    scoring: Scoring,
) -> CoClustering {
    let k0 = params.resolved_init_clusters(data.n_vars());
    engine.span_enter("ganesh-run");
    let mut state = CoClustering::random_init(data, k0, params.prior, master, run);
    let mut scorer = SweepScorer::new(state.prior());
    for step in 0..params.update_steps as u64 {
        reassign_vars(
            engine,
            &mut state,
            &mut scorer,
            data,
            master,
            run,
            step,
            scoring,
        );
        merge_vars(
            engine,
            &mut state,
            &mut scorer,
            data,
            master,
            run,
            step,
            scoring,
        );
        for slot in state.active_slots() {
            reassign_obs(
                engine,
                &mut state,
                &mut scorer,
                data,
                master,
                run,
                step,
                slot,
                scoring,
            );
            merge_obs(
                engine,
                &mut state,
                &mut scorer,
                master,
                run,
                step,
                slot,
                scoring,
            );
        }
    }
    engine.span_exit();
    state
}

/// Whether an ensemble of `g_runs` GaneSH runs on `p` ranks runs each
/// run whole on one rank ([`ParEngine::dist_tasks`]) rather than one
/// after another with every proposal's map split over all ranks: when
/// there are several ranks and no rank would sit idle (`1 < p ≤ G`).
/// The one place that decides the path; the pipeline's task-1 stage
/// (`monet::stages::run_ganesh`) is the one place that takes it.
pub fn runs_whole_per_rank(p: usize, g_runs: usize) -> bool {
    1 < p && p <= g_runs
}

/// The constrained sampler of Algorithm 4, lines 3–9: keep the
/// variable cluster fixed to `vars` and sample `update_steps` rounds of
/// observation clustering, recording the partitions after `burn_in`
/// steps. Returns `R = update_steps − burn_in` observation partitions.
/// `scoring` picks the sweeps' candidate-scoring path, as in
/// [`ganesh_with_scoring`].
#[allow(clippy::too_many_arguments)] // mirrors Alg. 4's explicit parameter list
pub fn sample_obs_partitions<E: ParEngine>(
    engine: &mut E,
    data: &Dataset,
    master: &MasterRng,
    module_key: u64,
    vars: &[usize],
    update_steps: usize,
    burn_in: usize,
    prior: NormalGamma,
    scoring: Scoring,
) -> Vec<ObsPartition> {
    assert!(
        burn_in < update_steps,
        "burn-in ({burn_in}) must be smaller than update steps ({update_steps})"
    );
    engine.span_enter("obs-sampler");
    let mut state = CoClustering::single_var_cluster(data, vars, prior, master, module_key);
    let mut scorer = SweepScorer::new(state.prior());
    let slot = 0;
    let mut samples = Vec::with_capacity(update_steps - burn_in);
    for step in 0..update_steps as u64 {
        reassign_obs(
            engine,
            &mut state,
            &mut scorer,
            data,
            master,
            module_key,
            step,
            slot,
            scoring,
        );
        merge_obs(
            engine,
            &mut state,
            &mut scorer,
            master,
            module_key,
            step,
            slot,
            scoring,
        );
        if step as usize >= burn_in {
            samples.push(state.cluster(slot).obs.clone());
        }
    }
    engine.span_exit();
    samples
}

#[cfg(test)]
mod tests {
    use super::*;
    use mn_comm::{SerialEngine, SimEngine, ThreadEngine};
    use mn_data::synthetic;

    fn data() -> Dataset {
        synthetic::yeast_like(20, 14, 9).dataset
    }

    fn params() -> GaneshParams {
        GaneshParams {
            init_clusters: Some(6),
            update_steps: 2,
            ..GaneshParams::default()
        }
    }

    #[test]
    fn ganesh_produces_valid_clustering() {
        let d = data();
        let master = MasterRng::new(11);
        let mut e = SerialEngine::new();
        let state = ganesh(&mut e, &d, &master, 0, &params());
        state.validate(&d);
        assert!(state.n_active() >= 1);
        // Every variable is in exactly one cluster.
        let total: usize = state.var_cluster_members().iter().map(Vec::len).sum();
        assert_eq!(total, d.n_vars());
    }

    #[test]
    fn ganesh_identical_across_engines_and_rank_counts() {
        let d = data();
        let master = MasterRng::new(11);
        let p = params();
        let serial = ganesh(&mut SerialEngine::new(), &d, &master, 0, &p);
        let sim16 = ganesh(&mut SimEngine::new(16), &d, &master, 0, &p);
        let sim1024 = ganesh(&mut SimEngine::new(1024), &d, &master, 0, &p);
        let threads = ganesh(&mut ThreadEngine::new(4), &d, &master, 0, &p);
        assert_eq!(serial, sim16);
        assert_eq!(serial, sim1024);
        assert_eq!(serial, threads);
    }

    #[test]
    fn ganesh_modes_learn_identical_clusterings() {
        // The Table-1 contract: the kernel and the naive oracle that
        // `--reference` runs sample the same chain (only the cost
        // differs).
        let d = data();
        let master = MasterRng::new(11);
        let run = |scoring| {
            ganesh_with_scoring(&mut SerialEngine::new(), &d, &master, 0, &params(), scoring)
        };
        assert_eq!(run(Scoring::Kernel), run(Scoring::Naive));
    }

    #[test]
    fn obs_sampler_returns_u_minus_b_partitions() {
        let d = data();
        let master = MasterRng::new(5);
        let mut e = SerialEngine::new();
        let vars: Vec<usize> = (0..8).collect();
        let samples = sample_obs_partitions(
            &mut e,
            &d,
            &master,
            0,
            &vars,
            5,
            2,
            NormalGamma::default(),
            Scoring::Kernel,
        );
        assert_eq!(samples.len(), 3);
        for part in &samples {
            assert_eq!(part.n_obs(), d.n_obs());
            let covered: usize = part.cluster_members().iter().map(Vec::len).sum();
            assert_eq!(covered, d.n_obs());
        }
    }

    #[test]
    #[should_panic(expected = "burn-in")]
    fn obs_sampler_rejects_bad_burn_in() {
        let d = data();
        let master = MasterRng::new(5);
        let mut e = SerialEngine::new();
        sample_obs_partitions(
            &mut e,
            &d,
            &master,
            0,
            &[0, 1],
            2,
            2,
            NormalGamma::default(),
            Scoring::Kernel,
        );
    }

    #[test]
    fn default_init_clusters_is_n_over_2() {
        let p = GaneshParams::default();
        assert_eq!(p.resolved_init_clusters(10), 5);
        assert_eq!(p.resolved_init_clusters(1), 1);
    }
}
