//! # mn-score — Bayesian scores for module-network learning
//!
//! The decomposable scoring machinery shared by every task of the
//! learner (§2.2 of the paper): an own-built `ln Γ`, O(1)-updatable
//! sufficient statistics, the conjugate normal-gamma marginal
//! likelihood that scores co-clustering tiles, regression-tree nodes
//! and parent splits, and from-scratch tile scoring, the oracle that
//! the optimized incremental bookkeeping is tested against.

#![warn(missing_docs)]

pub mod gibbs_kernel;
pub mod normal_gamma;
pub mod scoring;
pub mod special;
pub mod split_kernel;
pub mod suffstats;
pub mod tile;

pub use split_kernel::{naive_sigmas, ScratchPool, SplitScratch};
pub use normal_gamma::{NormalGamma, PriorConsts};
pub use scoring::{Scoring, COST_CELL, COST_LOGMARG};
pub use special::{ln_beta, ln_gamma, ln_gamma_ratio};
pub use suffstats::SuffStats;
pub use tile::{coclustering_score, tile_score, tile_stats, var_cluster_score, var_obs_stats};
