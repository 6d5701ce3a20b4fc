//! # mn-tree — module learning (Lemon-Tree task 3)
//!
//! The most compute-intensive task of the paper (§2.2.3, §3.2.3):
//! learning, for each consensus module, an ensemble of regression-tree
//! structures (Algorithm 4), assigning candidate parent splits to
//! every internal tree node by block-partitioned posterior computation
//! and weighted/uniform random selection (Algorithm 5), and deriving
//! the module's parent scores (Algorithm 6 / `Learn-Parents`).
//!
//! * [`params`] — the task parameters `U, B, J, S` plus prior and mode.
//! * [`tree`] — regression-tree structures and Bayesian hierarchical
//!   merging.
//! * [`splits`] — the flat candidate-split list, posterior computation
//!   with data-dependent sampling cost (the paper's load-imbalance
//!   source), and split selection.
//! * [`parents`] — parent-score aggregation.
//! * [`mc_kernel`] — batched replay of the per-candidate Monte-Carlo
//!   confirmation streams (scalar and AVX-512 IFMA engines).

#![warn(missing_docs)]

pub mod mc_kernel;
pub mod params;
pub mod parents;
pub mod splits;
pub mod tree;

pub use params::TreeParams;
pub use parents::{learn_parents, ModuleParents};
pub use splits::{
    assign_splits, assign_splits_in, assign_splits_naive, ChosenSplit, NodeSplits, SplitAssignment, SplitContext,
    SplitIndex,
};
pub use tree::{build_tree, build_tree_with, learn_module_trees, ModuleEnsemble, RegTree, TreeNode};
