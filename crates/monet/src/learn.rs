//! The full learning pipeline: the three Lemon-Tree tasks wired
//! together over one execution engine (Fig. 2 of the paper).
//!
//! The stages themselves live in [`crate::stages`]; this module runs
//! them without a checkpoint store. [`crate::learn_with_checkpoint`]
//! runs the same stages with one.

use crate::config::LearnerConfig;
use crate::model::ModuleNetwork;
use crate::stages::learn_module_network_with;
use mn_comm::{ParEngine, RunReport};
use mn_data::Dataset;
use mn_score::Scoring;

/// Phase names used in every [`RunReport`] (the per-task breakdown of
/// Fig. 5a/5c/6b/6c).
pub mod phases {
    /// GaneSH co-clustering (task 1).
    pub const GANESH: &str = "ganesh";
    /// Consensus clustering (task 2).
    pub const CONSENSUS: &str = "consensus";
    /// Module learning — trees, splits, parents (task 3).
    pub const MODULES: &str = "modules";
}

/// Learn a module network from `data` under `config`, executing on
/// `engine`. Returns the network and the engine's per-phase report.
///
/// The pipeline is the paper's Figure 2:
/// 1. `G` GaneSH runs sample an ensemble of variable clusterings
///    (Alg. 3);
/// 2. consensus clustering (sequential, replicated on all ranks)
///    produces the modules;
/// 3. per module, regression-tree structures are learned (Alg. 4),
///    then parent splits are assigned over the global block-partitioned
///    candidate list (Alg. 5) and parent scores derived (Alg. 6).
pub fn learn_module_network<E: ParEngine>(
    engine: &mut E,
    data: &Dataset,
    config: &LearnerConfig,
) -> (ModuleNetwork, RunReport) {
    learn_module_network_with(engine, data, config, Scoring::Kernel, None)
        .expect("a learn without a checkpoint store does no checkpoint I/O")
}

#[cfg(test)]
mod tests {
    use super::*;
    use mn_comm::SerialEngine;
    use mn_data::synthetic;

    #[test]
    fn pipeline_learns_a_valid_network() {
        let d = synthetic::yeast_like(24, 16, 42).dataset;
        let config = LearnerConfig::paper_minimum(1);
        let mut engine = SerialEngine::new();
        let (net, report) = learn_module_network(&mut engine, &d, &config);
        net.validate();
        assert!(net.n_modules() >= 1, "no modules learned");
        assert_eq!(report.phases.len(), 3);
        assert_eq!(report.phases[0].name, phases::GANESH);
        assert_eq!(report.phases[1].name, phases::CONSENSUS);
        assert_eq!(report.phases[2].name, phases::MODULES);
    }

    #[test]
    fn module_learning_dominates_runtime() {
        // The paper's Fig. 5a claim: >90 % of sequential time is in the
        // module-learning task. At toy scale the share is smaller but
        // the ordering must already hold.
        let d = synthetic::yeast_like(24, 20, 42).dataset;
        let config = LearnerConfig::paper_minimum(1);
        let mut engine = SerialEngine::new();
        let (_, report) = learn_module_network(&mut engine, &d, &config);
        assert!(report.phase_s(phases::MODULES) > report.phase_s(phases::CONSENSUS));
    }
}
