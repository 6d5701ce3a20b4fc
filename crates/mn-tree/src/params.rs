//! Parameters of the module-learning task.

use mn_score::{NormalGamma, ScoreMode};
use serde::{Deserialize, Serialize};

/// Parameters for Algorithms 4–6 (tree structures, split assignment,
/// parent learning).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TreeParams {
    /// GaneSH update steps `U` for the observation-cluster sampler of
    /// Algorithm 4 (the ensemble holds `U − B` trees).
    pub update_steps: usize,
    /// Burn-in steps `B` (< `update_steps`).
    pub burn_in: usize,
    /// Number of splits `J` chosen per internal node, by weighted and
    /// by uniform sampling each (Alg. 5 lines 11–13).
    pub splits_per_node: usize,
    /// Maximum discrete sampling steps `S` per split posterior
    /// (§2.2.3: "If S is the maximum number of discrete sampling steps
    /// for any split, then computing the posterior probability for a
    /// split requires O(Sm) time" — every step examines the node's
    /// full observation set, which is what makes the split loop the
    /// O(S·n·m²) dominant phase).
    pub max_sampling_steps: usize,
    /// The normal-gamma prior for node/merge scores.
    pub prior: NormalGamma,
    /// Scoring implementation mode (cost profile; decisions identical).
    pub mode: ScoreMode,
}

impl Default for TreeParams {
    fn default() -> Self {
        Self {
            update_steps: 2,
            burn_in: 1,
            splits_per_node: 2,
            max_sampling_steps: 8,
            prior: NormalGamma::default(),
            mode: ScoreMode::Incremental,
        }
    }
}

impl TreeParams {
    /// Number of regression trees sampled per module (`R = U − B`).
    pub fn trees_per_module(&self) -> usize {
        self.update_steps - self.burn_in
    }

    /// Validate parameter consistency.
    pub fn validated(self) -> Result<Self, String> {
        if self.burn_in >= self.update_steps {
            return Err(format!(
                "burn_in ({}) must be < update_steps ({})",
                self.burn_in, self.update_steps
            ));
        }
        if self.splits_per_node == 0 {
            return Err("splits_per_node must be >= 1".into());
        }
        if self.max_sampling_steps == 0 {
            return Err("sampling parameters must be >= 1".into());
        }
        self.prior.validated()?;
        Ok(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        assert!(TreeParams::default().validated().is_ok());
        assert_eq!(TreeParams::default().trees_per_module(), 1);
    }

    #[test]
    fn rejects_inconsistent() {
        let base = TreeParams::default();
        let p = TreeParams {
            burn_in: base.update_steps,
            ..base.clone()
        };
        assert!(p.validated().is_err());
        let p = TreeParams {
            splits_per_node: 0,
            ..base.clone()
        };
        assert!(p.validated().is_err());
        let p = TreeParams {
            max_sampling_steps: 0,
            ..base
        };
        assert!(p.validated().is_err());
    }
}
