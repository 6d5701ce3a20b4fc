//! Regression-tree structures (Algorithm 4).
//!
//! For a module `M_i`, an ensemble of binary regression trees is
//! learned: leaves are sampled observation clusters (GaneSH with the
//! variable cluster pinned to the module — `mn-gibbs`'s
//! `sample_obs_partitions`), then merged bottom-up by Bayesian
//! hierarchical agglomeration. Per Alg. 4 lines 10–18, merge
//! candidates are *consecutive* subtrees in the working list, their
//! merge scores are computed in a block-partitioned parallel loop, the
//! best pair (all-reduce max) is merged, and the loop repeats until a
//! single root holds all observations.

use crate::params::TreeParams;
use mn_comm::{Collective, ParEngine};
use mn_data::Dataset;
use mn_gibbs::{sample_obs_partitions, ObsPartition};
use mn_obs::counters;
use mn_rand::MasterRng;
use mn_score::{PriorConsts, ScoreMode, SuffStats, COST_CELL, COST_LOGMARG};
use serde::{Deserialize, Serialize};

/// One node of a regression tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TreeNode {
    /// Sorted observation indices at this node.
    pub obs: Vec<usize>,
    /// Tile statistics of the module's variables over `obs`.
    pub stats: SuffStats,
    /// Children (internal nodes only). `left` was merged first; its
    /// leaves came earlier in slot order.
    pub left: Option<usize>,
    /// Right child.
    pub right: Option<usize>,
}

impl TreeNode {
    /// Whether the node is a leaf.
    pub fn is_leaf(&self) -> bool {
        self.left.is_none()
    }
}

/// A binary regression tree over the observations of one module.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RegTree {
    /// Node arena; leaves first (in observation-cluster slot order),
    /// internal nodes appended in merge order. The last node is the
    /// root.
    pub nodes: Vec<TreeNode>,
    /// Index of the root node.
    pub root: usize,
}

impl RegTree {
    /// Indices of internal (non-leaf) nodes, in arena order. Arena
    /// order is deterministic, so this ordering is part of the
    /// reproducibility contract for split assignment.
    pub fn internal_nodes(&self) -> Vec<usize> {
        (0..self.nodes.len())
            .filter(|&i| !self.nodes[i].is_leaf())
            .collect()
    }

    /// Number of leaves.
    pub fn n_leaves(&self) -> usize {
        self.nodes.iter().filter(|n| n.is_leaf()).count()
    }

    /// Depth of the tree (a single leaf has depth 1).
    pub fn depth(&self) -> usize {
        fn rec(tree: &RegTree, i: usize) -> usize {
            match (tree.nodes[i].left, tree.nodes[i].right) {
                (Some(l), Some(r)) => 1 + rec(tree, l).max(rec(tree, r)),
                _ => 1,
            }
        }
        rec(self, self.root)
    }

    /// Validate the structural invariants: the root covers all its
    /// leaves' observations, every internal node's observation list is
    /// the sorted union of its children's, and leaves partition the
    /// root's observations.
    pub fn validate(&self) {
        assert!(!self.nodes.is_empty());
        assert_eq!(self.root, self.nodes.len() - 1, "root must be last");
        for (i, node) in self.nodes.iter().enumerate() {
            assert!(
                node.obs.windows(2).all(|w| w[0] < w[1]),
                "node {i} obs not sorted/unique"
            );
            match (node.left, node.right) {
                (Some(l), Some(r)) => {
                    assert!(l < i && r < i, "child indices must precede parent");
                    let mut merged: Vec<usize> = self.nodes[l]
                        .obs
                        .iter()
                        .chain(&self.nodes[r].obs)
                        .copied()
                        .collect();
                    merged.sort_unstable();
                    assert_eq!(merged, node.obs, "node {i} obs != union of children");
                }
                (None, None) => {}
                _ => panic!("node {i} has exactly one child"),
            }
        }
    }
}

/// Merge gain of two subtree roots, with the cost profile of `mode`.
///
/// The incremental path evaluates all three marginals through the
/// build's shared [`PriorConsts`], whose count tables are grown in
/// replicated control flow before each merge round — so lookups here
/// are read-only (and bit-identical to direct Lanczos by construction).
fn merge_gain(
    data: &Dataset,
    vars: &[usize],
    a: &TreeNode,
    b: &TreeNode,
    params: &TreeParams,
    consts: &PriorConsts,
) -> (f64, u64) {
    match params.mode {
        ScoreMode::Incremental => (
            consts.log_marginal(&SuffStats::merged(&a.stats, &b.stats))
                - consts.log_marginal(&a.stats)
                - consts.log_marginal(&b.stats),
            3 * COST_LOGMARG,
        ),
        ScoreMode::Reference => {
            // From-scratch rebuild of all three blocks (Java profile).
            let sa = mn_score::tile_stats(data, vars, &a.obs);
            let sb = mn_score::tile_stats(data, vars, &b.obs);
            let merged = SuffStats::merged(&sa, &sb);
            let work = (vars.len() * (a.obs.len() + b.obs.len()) * 2) as u64 * COST_CELL
                + 3 * COST_LOGMARG;
            (
                params.prior.log_marginal(&merged)
                    - params.prior.log_marginal(&sa)
                    - params.prior.log_marginal(&sb),
                work,
            )
        }
    }
}

/// Build one regression tree from sampled observation clusters
/// (Alg. 4 lines 10–18).
///
/// `partition` supplies the leaves (active clusters in slot order,
/// with tile statistics over the module's variables already
/// maintained by the sampler).
pub fn build_tree<E: ParEngine>(
    engine: &mut E,
    data: &Dataset,
    vars: &[usize],
    partition: &ObsPartition,
    params: &TreeParams,
) -> RegTree {
    // Fresh count tables per build keep standalone callers simple;
    // ensemble learning shares one set across its trees (see
    // `learn_module_trees`).
    let mut consts = PriorConsts::new(&params.prior);
    build_tree_with(engine, data, vars, partition, params, &mut consts)
}

/// [`build_tree`] against caller-owned prior constants, whose `ln Γ` /
/// `ln` count tables the merge rounds grow.
///
/// The constants are scoped to the enclosing checkpoint unit (one
/// `learn_module_trees` call) — never wider — so a resumed run that
/// recomputes only some units observes exactly the counter deltas the
/// interrupted run recorded for them.
pub fn build_tree_with<E: ParEngine>(
    engine: &mut E,
    data: &Dataset,
    vars: &[usize],
    partition: &ObsPartition,
    params: &TreeParams,
    consts: &mut PriorConsts,
) -> RegTree {
    let mut nodes: Vec<TreeNode> = partition
        .iter_active()
        .map(|(_, oc)| TreeNode {
            obs: oc.members.clone(),
            stats: oc.stats,
            left: None,
            right: None,
        })
        .collect();
    assert!(!nodes.is_empty(), "partition has no clusters");
    engine.count(counters::TREE_TREES, 1);
    // Working list of current subtree roots.
    let mut roots: Vec<usize> = (0..nodes.len()).collect();

    // Bayesian hierarchical agglomeration (Heller & Ghahramani 2005,
    // Michoel et al. 2007 — the methods Alg. 4 cites): repeatedly merge
    // the best-scoring *pair* of current subtree roots. The paper's
    // pseudo-code scores "consecutive trees" because its working list
    // is kept in merge order; evaluating all pairs is the referenced
    // algorithm and costs the same O(L²) per level at L = O(√m) leaves.
    while roots.len() > 1 {
        engine.count(counters::TREE_MERGES, 1);
        let k = roots.len();
        let n_pairs = k * (k - 1) / 2;
        if params.mode == ScoreMode::Incremental {
            // Grow the count tables through the largest possible merged
            // count (the two biggest roots), in replicated control
            // flow: the scoring map below then only reads them, and
            // the fill/hit counts are engine- and rank-count-
            // independent. Each pair's gain performs three table
            // lookups (merged, left, right), all served from the
            // tables.
            let (mut m1, mut m2) = (0u64, 0u64);
            for &r in &roots {
                let c = nodes[r].stats.count();
                if c >= m1 {
                    m2 = m1;
                    m1 = c;
                } else if c > m2 {
                    m2 = c;
                }
            }
            let filled = consts.grow_through((m1 + m2) as usize) as u64;
            engine.count(counters::SCORE_LN_GAMMA_CALLS, filled + 3 * n_pairs as u64);
            engine.count(counters::SCORE_LN_GAMMA_TABLE_HITS, 3 * n_pairs as u64);
        }
        let nodes_ref = &nodes;
        let roots_ref = &roots;
        let consts: &PriorConsts = consts;
        // Map a flat pair index to (i, j), i < j, in lexicographic order.
        let unpack = move |mut idx: usize| -> (usize, usize) {
            for i in 0..k - 1 {
                let row = k - 1 - i;
                if idx < row {
                    return (i, i + 1 + idx);
                }
                idx -= row;
            }
            unreachable!("pair index out of range")
        };
        let gains: Vec<f64> = engine.dist_map(n_pairs, 1, &|p| {
            let (i, j) = unpack(p);
            merge_gain(
                data,
                vars,
                &nodes_ref[roots_ref[i]],
                &nodes_ref[roots_ref[j]],
                params,
                consts,
            )
        });
        // Alg. 4 line 15: all-reduce max over the per-rank best scores.
        engine.collective(Collective::AllReduce, 2);
        let best = gains
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1).then(b.0.cmp(&a.0)))
            .map(|(i, _)| i)
            .expect("non-empty gains");
        let (bi, bj) = unpack(best);

        let l = roots[bi];
        let r = roots[bj];
        let mut obs: Vec<usize> = nodes[l].obs.iter().chain(&nodes[r].obs).copied().collect();
        obs.sort_unstable();
        let stats = SuffStats::merged(&nodes[l].stats, &nodes[r].stats);
        nodes.push(TreeNode {
            obs,
            stats,
            left: Some(l),
            right: Some(r),
        });
        let parent = nodes.len() - 1;
        roots[bi] = parent;
        roots.remove(bj);
    }
    // Alg. 4 line 18: bcast the final tree.
    engine.collective(Collective::Bcast, nodes.len() * 4);
    let root = nodes.len() - 1;
    let tree = RegTree { nodes, root };
    debug_assert!({
        tree.validate();
        true
    });
    tree
}

/// The learned tree ensemble of one module.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModuleEnsemble {
    /// Module index within the module list.
    pub module: usize,
    /// Sorted variable members of the module.
    pub vars: Vec<usize>,
    /// The `R` regression trees (Alg. 4).
    pub trees: Vec<RegTree>,
}

/// Learn the regression-tree ensemble of one module (Algorithm 4):
/// sample `R = U − B` observation partitions with the constrained
/// GaneSH sampler, then build one tree per partition.
pub fn learn_module_trees<E: ParEngine>(
    engine: &mut E,
    data: &Dataset,
    master: &MasterRng,
    module: usize,
    vars: &[usize],
    params: &TreeParams,
) -> ModuleEnsemble {
    let mut sorted = vars.to_vec();
    sorted.sort_unstable();
    engine.span_enter("module");
    engine.count(counters::TREE_MODULES, 1);
    let partitions = sample_obs_partitions(
        engine,
        data,
        master,
        module as u64,
        &sorted,
        params.update_steps,
        params.burn_in,
        params.prior,
        params.mode,
    );
    // One set of count tables per module call — the checkpoint unit.
    // Merged-tile sizes repeat heavily across the ensemble's trees
    // (every tree covers the same observations), so the tables are hot
    // from the second tree on.
    let mut consts = PriorConsts::new(&params.prior);
    let trees = partitions
        .iter()
        .map(|part| build_tree_with(engine, data, &sorted, part, params, &mut consts))
        .collect();
    engine.span_exit();
    ModuleEnsemble {
        module,
        vars: sorted,
        trees,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mn_comm::{SerialEngine, SimEngine, ThreadEngine};
    use mn_data::synthetic;

    fn setup() -> (Dataset, Vec<usize>) {
        let d = synthetic::yeast_like(12, 16, 31).dataset;
        (d, (0..6).collect())
    }

    fn partition(data: &Dataset, vars: &[usize]) -> ObsPartition {
        let master = MasterRng::new(8);
        let mut e = SerialEngine::new();
        sample_obs_partitions(
            &mut e,
            data,
            &master,
            0,
            vars,
            2,
            1,
            TreeParams::default().prior,
            ScoreMode::Incremental,
        )
        .pop()
        .unwrap()
    }

    #[test]
    fn tree_is_structurally_valid() {
        let (d, vars) = setup();
        let part = partition(&d, &vars);
        let mut e = SerialEngine::new();
        let tree = build_tree(&mut e, &d, &vars, &part, &TreeParams::default());
        tree.validate();
        assert_eq!(tree.nodes[tree.root].obs.len(), d.n_obs());
        assert_eq!(tree.n_leaves(), part.n_active());
        // A binary tree over L leaves has exactly L - 1 internal nodes.
        assert_eq!(tree.internal_nodes().len(), tree.n_leaves() - 1);
    }

    #[test]
    fn tree_identical_across_engines() {
        let (d, vars) = setup();
        let part = partition(&d, &vars);
        let p = TreeParams::default();
        let a = build_tree(&mut SerialEngine::new(), &d, &vars, &part, &p);
        let b = build_tree(&mut ThreadEngine::new(3), &d, &vars, &part, &p);
        let c = build_tree(&mut SimEngine::new(512), &d, &vars, &part, &p);
        assert_eq!(a, b);
        assert_eq!(a, c);
    }

    #[test]
    fn modes_build_identical_trees() {
        let (d, vars) = setup();
        let part = partition(&d, &vars);
        let pi = TreeParams {
            mode: ScoreMode::Incremental,
            ..TreeParams::default()
        };
        let pr = TreeParams {
            mode: ScoreMode::Reference,
            ..TreeParams::default()
        };
        let a = build_tree(&mut SerialEngine::new(), &d, &vars, &part, &pi);
        let b = build_tree(&mut SerialEngine::new(), &d, &vars, &part, &pr);
        assert_eq!(a, b);
    }

    #[test]
    fn shared_warm_table_builds_identical_trees() {
        // Reusing one set of count tables across builds (the ensemble
        // steady state) must not perturb any merge decision.
        let (d, vars) = setup();
        let part = partition(&d, &vars);
        let p = TreeParams::default();
        let fresh = build_tree(&mut SerialEngine::new(), &d, &vars, &part, &p);
        let mut consts = PriorConsts::new(&p.prior);
        for _ in 0..2 {
            let shared =
                build_tree_with(&mut SerialEngine::new(), &d, &vars, &part, &p, &mut consts);
            assert_eq!(fresh, shared);
        }
        assert!(consts.covers(0));
    }

    #[test]
    fn single_leaf_tree() {
        let (d, vars) = setup();
        let mut part = ObsPartition::single_cluster(d.n_obs());
        part.rebuild_stats(&d, &vars, &PriorConsts::new(&TreeParams::default().prior));
        let mut e = SerialEngine::new();
        let tree = build_tree(&mut e, &d, &vars, &part, &TreeParams::default());
        tree.validate();
        assert_eq!(tree.n_leaves(), 1);
        assert!(tree.internal_nodes().is_empty());
        assert_eq!(tree.depth(), 1);
    }

    #[test]
    fn ensemble_has_r_trees() {
        let (d, vars) = setup();
        let master = MasterRng::new(8);
        let mut e = SerialEngine::new();
        let p = TreeParams {
            update_steps: 4,
            burn_in: 1,
            ..TreeParams::default()
        };
        let ens = learn_module_trees(&mut e, &d, &master, 0, &vars, &p);
        assert_eq!(ens.trees.len(), 3);
        for t in &ens.trees {
            t.validate();
            assert_eq!(t.nodes[t.root].obs.len(), d.n_obs());
        }
        assert_eq!(ens.vars, vars);
    }

    #[test]
    fn similar_leaves_merge_first() {
        // Hand-built partition: clusters {0,1} and {2,3} have similar
        // means; {4,5} is far away. The first merge must join the two
        // similar clusters (adjacent in slot order).
        let d = Dataset::new(
            mn_data::Matrix::from_vec(
                1,
                6,
                vec![0.0, 0.1, 0.2, 0.3, 50.0, 50.1],
            ),
            None,
            None,
        );
        let vars = vec![0usize];
        let consts = PriorConsts::new(&TreeParams::default().prior);
        let mut part = ObsPartition::single_cluster(6);
        part.rebuild_stats(&d, &vars, &consts);
        // Build the 3-cluster partition through the public move API.
        let col = |o: usize| mn_score::tile_stats(&d, &vars, &[o]);
        let s2 = part.move_obs(2, &col(2), None, &consts);
        part.move_obs(3, &col(3), Some(s2), &consts);
        let s4 = part.move_obs(4, &col(4), None, &consts);
        part.move_obs(5, &col(5), Some(s4), &consts);

        let mut e = SerialEngine::new();
        let tree = build_tree(&mut e, &d, &vars, &part, &TreeParams::default());
        tree.validate();
        // First internal node (index 3 after 3 leaves) merges leaves 0/1.
        let first_merge = &tree.nodes[3];
        assert_eq!(first_merge.obs, vec![0, 1, 2, 3]);
    }
}
