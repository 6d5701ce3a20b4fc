//! GENOMICA-style iterative two-step learner (extension).
//!
//! §1.1 and §6 of the paper: the *other* MoNet learning approach is
//! the iterative two-step algorithm of Segal et al. (implemented in
//! GENOMICA), which alternates (a) learning each module's regression
//! tree / CPD given the current assignment with (b) reassigning each
//! variable to the module whose CPD explains it best. The paper's
//! conclusions name "a parallel solution for GENOMICA that scales to
//! thousands of cores" as future work built from the same components —
//! this module is that construction: both steps execute over the same
//! [`ParEngine`] substrate, so the two-step learner inherits the
//! scaling and determinism properties of the main pipeline.
//!
//! The comparison example (`examples/consensus_ensemble.rs`) and the
//! `ablation_partition` bench treat this learner as the related-work
//! baseline.

use crate::config::LearnerConfig;
use crate::model::ModuleNetwork;
use crate::stages::finish_module_learning;
use mn_comm::{Collective, ParEngine, RunReport};
use mn_data::Dataset;
use mn_rand::{Domain, MasterRng};
use mn_score::{Scoring, SuffStats, COST_CELL, COST_LOGMARG};
use mn_tree::{learn_module_trees, ModuleEnsemble};

/// Parameters of the two-step learner.
#[derive(Debug, Clone)]
pub struct TwoStepParams {
    /// Number of modules K (fixed throughout, as in GENOMICA).
    pub n_modules: usize,
    /// Maximum outer iterations.
    pub max_iters: usize,
    /// Stop early when an iteration moves fewer than this many
    /// variables.
    pub min_moves: usize,
}

impl Default for TwoStepParams {
    fn default() -> Self {
        Self {
            n_modules: 4,
            max_iters: 3,
            min_moves: 1,
        }
    }
}

/// Score of one variable's row against a module's leaf partition: the
/// sum of normal-gamma marginals of the row restricted to each leaf of
/// the module's (first) regression tree.
fn row_fit(
    data: &Dataset,
    config: &LearnerConfig,
    ensemble: &ModuleEnsemble,
    var: usize,
) -> (f64, u64) {
    let row = data.values(var);
    let prior = &config.tree.prior;
    let mut score = 0.0;
    let mut work = 0u64;
    let tree = &ensemble.trees[0];
    for node in &tree.nodes {
        if !node.is_leaf() {
            continue;
        }
        let mut stats = SuffStats::empty();
        for &o in &node.obs {
            stats.add(row[o]);
        }
        work += node.obs.len() as u64 * COST_CELL;
        score += prior.log_marginal(&stats);
        work += COST_LOGMARG;
    }
    (score, work)
}

/// Learn a module network with the iterative two-step algorithm.
///
/// Uses the `tree` section of `config` for the CPD-learning step and
/// `config.seed` for all randomness. Returns the network and the
/// engine report (phases `"cpd"` and `"reassign"` alternate).
pub fn learn_two_step<E: ParEngine>(
    engine: &mut E,
    data: &Dataset,
    config: &LearnerConfig,
    params: &TwoStepParams,
) -> (ModuleNetwork, RunReport) {
    assert!(params.n_modules >= 1);
    assert!(params.max_iters >= 1);
    let master = MasterRng::new(config.seed);
    let n = data.n_vars();

    // Random initial assignment (one draw per variable).
    let mut stream = master.stream(Domain::InitVarClusters, u64::MAX);
    let mut assignment: Vec<usize> = (0..n)
        .map(|_| stream.index_one_draw(params.n_modules))
        .collect();

    let mut ensembles: Vec<ModuleEnsemble> = Vec::new();
    for iter in 0..params.max_iters {
        // Step (a): learn each module's tree ensemble under the current
        // assignment.
        engine.begin_phase("cpd");
        let mut members: Vec<Vec<usize>> = vec![Vec::new(); params.n_modules];
        for (v, &k) in assignment.iter().enumerate() {
            members[k].push(v);
        }
        ensembles = members
            .iter()
            .enumerate()
            .map(|(k, vars)| {
                // An emptied module keeps a degenerate single-obs-cluster
                // ensemble so indices stay aligned.
                let vars = if vars.is_empty() { vec![] } else { vars.clone() };
                learn_module_trees(
                    engine,
                    data,
                    &master,
                    iter * params.n_modules + k,
                    &vars,
                    &config.tree,
                )
            })
            .collect();

        // Step (b): reassign every variable to its best-fitting module.
        engine.begin_phase("reassign");
        let ensembles_ref = &ensembles;
        let config_ref = config;
        let fits: Vec<Vec<f64>> = engine.dist_map(n, params.n_modules, &|v| {
            let mut scores = Vec::with_capacity(params.n_modules);
            let mut work = 0u64;
            for ens in ensembles_ref {
                if ens.trees.is_empty() {
                    scores.push(f64::NEG_INFINITY);
                    continue;
                }
                let (s, w) = row_fit(data, config_ref, ens, v);
                scores.push(s);
                work += w;
            }
            (scores, work)
        });
        engine.collective(Collective::AllGather, n);

        let mut moves = 0usize;
        for (v, scores) in fits.iter().enumerate() {
            let best = scores
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1).then(b.0.cmp(&a.0)))
                .map(|(k, _)| k)
                .unwrap();
            if best != assignment[v] {
                assignment[v] = best;
                moves += 1;
            }
        }
        if moves < params.min_moves {
            break;
        }
    }

    // Final parent learning over the last ensembles (drop empty modules,
    // compacting indices).
    engine.begin_phase("parents");
    let compact: Vec<ModuleEnsemble> = ensembles
        .into_iter()
        .filter(|ens| !ens.vars.is_empty())
        .enumerate()
        .map(|(k, mut ens)| {
            ens.module = k;
            ens
        })
        .collect();
    let network = finish_module_learning(engine, data, config, &master, compact, Scoring::Kernel);
    (network, engine.report())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mn_comm::{SerialEngine, SimEngine};
    use mn_data::synthetic;

    #[test]
    fn two_step_learns_a_valid_network() {
        let d = synthetic::yeast_like(20, 14, 17).dataset;
        let config = LearnerConfig::paper_minimum(3);
        let params = TwoStepParams::default();
        let mut e = SerialEngine::new();
        let (net, report) = learn_two_step(&mut e, &d, &config, &params);
        net.validate();
        assert!(net.n_modules() >= 1);
        assert!(net.n_modules() <= params.n_modules);
        // All variables are assigned (two-step keeps everything).
        assert!(net.assignment.iter().all(|a| a.is_some()));
        assert!(report.phases.iter().any(|p| p.name == "cpd"));
        assert!(report.phases.iter().any(|p| p.name == "reassign"));
    }

    #[test]
    fn two_step_deterministic_across_engines() {
        let d = synthetic::yeast_like(20, 14, 17).dataset;
        let config = LearnerConfig::paper_minimum(3);
        let params = TwoStepParams::default();
        let (a, _) = learn_two_step(&mut SerialEngine::new(), &d, &config, &params);
        let (b, _) = learn_two_step(&mut SimEngine::new(128), &d, &config, &params);
        assert_eq!(a, b);
    }

    #[test]
    fn reassignment_groups_correlated_variables() {
        // With strong planted structure and enough iterations, two
        // variables of the same planted module should usually co-locate.
        let s = synthetic::generate(&mn_data::SyntheticConfig {
            noise_sd: 0.15,
            n_modules: Some(2),
            ..mn_data::SyntheticConfig::new(16, 40, 23)
        });
        let config = LearnerConfig::paper_minimum(5);
        let params = TwoStepParams {
            n_modules: 2,
            max_iters: 4,
            min_moves: 1,
        };
        let mut e = SerialEngine::new();
        let (net, _) = learn_two_step(&mut e, &s.dataset, &config, &params);
        // Count pairs of same-planted-module members that share a
        // learned module; require better than chance.
        let regs = s.truth.regulators.len();
        let mut same = 0usize;
        let mut total = 0usize;
        for a in regs..16 {
            for b in (a + 1)..16 {
                if s.truth.assignment[a] == s.truth.assignment[b] {
                    total += 1;
                    if net.assignment[a] == net.assignment[b] {
                        same += 1;
                    }
                }
            }
        }
        assert!(total > 0);
        assert!(
            same * 2 >= total,
            "only {same}/{total} planted pairs co-located"
        );
    }
}
