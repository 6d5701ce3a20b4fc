//! Learner configuration.

use mn_consensus::ConsensusParams;
use mn_gibbs::GaneshParams;
use mn_tree::TreeParams;
use serde::{Deserialize, Serialize};

/// The complete configuration of one module-network learning run —
/// all of Lemon-Tree's execution parameters in one place.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LearnerConfig {
    /// Master PRNG seed (the experiments of §5 repeat each run with
    /// three different seeds).
    pub seed: u64,
    /// Number of independent GaneSH runs `G` (§5.1 uses `G = 1` for
    /// the minimum-runtime measurements; robustness studies use more).
    pub ganesh_runs: usize,
    /// GaneSH co-clustering parameters (task 1).
    pub ganesh: GaneshParams,
    /// Consensus-clustering parameters (task 2): threshold and
    /// spectral extraction.
    pub consensus: ConsensusParams,
    /// Module-learning parameters (task 3).
    pub tree: TreeParams,
    /// Candidate parents `P`; `None` = every variable (§5.1: "we use
    /// all the genes in the data sets as the candidate regulators").
    pub candidate_parents: Option<Vec<usize>>,
}

impl Default for LearnerConfig {
    fn default() -> Self {
        Self {
            seed: 0,
            ganesh_runs: 1,
            ganesh: GaneshParams::default(),
            consensus: ConsensusParams::default(),
            tree: TreeParams::default(),
            candidate_parents: None,
        }
    }
}

impl LearnerConfig {
    /// The paper's minimum-runtime configuration (§5.1): one GaneSH
    /// run, one update step, one regression tree per module, all
    /// variables as candidate parents.
    pub fn paper_minimum(seed: u64) -> Self {
        Self {
            seed,
            ganesh_runs: 1,
            ganesh: GaneshParams {
                update_steps: 1,
                ..GaneshParams::default()
            },
            tree: TreeParams {
                update_steps: 2,
                burn_in: 1, // R = 1 tree
                ..TreeParams::default()
            },
            ..Self::default()
        }
    }

    /// Validate cross-field consistency.
    pub fn validated(self) -> Result<Self, String> {
        if self.ganesh_runs == 0 {
            return Err("ganesh_runs must be >= 1".into());
        }
        if self.ganesh.update_steps == 0 {
            return Err("ganesh.update_steps must be >= 1".into());
        }
        if self.ganesh.init_clusters == Some(0) {
            return Err("ganesh.init_clusters must be >= 1".into());
        }
        if !(0.0..=1.0).contains(&self.consensus.threshold) {
            return Err(format!(
                "consensus threshold must be in [0,1], got {}",
                self.consensus.threshold
            ));
        }
        let _ = self.tree.clone().validated()?;
        self.ganesh.prior.validated()?;
        Ok(self)
    }

    /// Resolve the candidate-parent list for a data set of `n` variables.
    pub fn resolved_parents(&self, n: usize) -> Vec<usize> {
        match &self.candidate_parents {
            Some(list) => {
                assert!(
                    list.iter().all(|&v| v < n),
                    "candidate parent out of range"
                );
                list.clone()
            }
            None => (0..n).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        assert!(LearnerConfig::default().validated().is_ok());
        assert!(LearnerConfig::paper_minimum(7).validated().is_ok());
    }

    #[test]
    fn paper_minimum_has_one_tree() {
        let c = LearnerConfig::paper_minimum(0);
        assert_eq!(c.ganesh_runs, 1);
        assert_eq!(c.ganesh.update_steps, 1);
        assert_eq!(c.tree.trees_per_module(), 1);
    }

    #[test]
    fn bad_configs_rejected() {
        let c = LearnerConfig {
            ganesh_runs: 0,
            ..LearnerConfig::default()
        };
        assert!(c.validated().is_err());
        let mut c = LearnerConfig::default();
        c.ganesh.init_clusters = Some(0);
        assert!(c.validated().is_err());
        let c = LearnerConfig {
            consensus: ConsensusParams {
                threshold: 1.5,
                ..ConsensusParams::default()
            },
            ..LearnerConfig::default()
        };
        assert!(c.validated().is_err());
    }

    #[test]
    fn parents_default_to_all() {
        let c = LearnerConfig::default();
        assert_eq!(c.resolved_parents(4), vec![0, 1, 2, 3]);
        let c = LearnerConfig {
            candidate_parents: Some(vec![1, 3]),
            ..LearnerConfig::default()
        };
        assert_eq!(c.resolved_parents(4), vec![1, 3]);
    }

    #[test]
    fn default_config_serializes_without_path_toggles() {
        // The scoring path is a call's argument, never the config's:
        // nothing a user serializes can select the naive or dense
        // oracles.
        let json = serde_json::to_string(&LearnerConfig::default()).unwrap();
        for key in ["candidate_scoring", "split_scoring", "backend", "\"mode\""] {
            assert!(!json.contains(key), "{key} in {json}");
        }
        let back: LearnerConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
    }
}
