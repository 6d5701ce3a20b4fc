//! Property-based tests of the candidate-split index arithmetic: for
//! arbitrary tree-shape inventories, the flat-index layout must be a
//! bijection consistent with the segment structure.

use mn_score::SuffStats;
use mn_tree::{ModuleEnsemble, RegTree, SplitIndex, TreeNode};
use proptest::prelude::*;

/// Build a chain-shaped tree with the given leaf sizes (each leaf gets
/// `size` observations; internal nodes merge left-to-right).
fn chain_tree(leaf_sizes: &[usize]) -> RegTree {
    assert!(!leaf_sizes.is_empty());
    let mut nodes = Vec::new();
    let mut next_obs = 0usize;
    let mut leaf_ids = Vec::new();
    for &size in leaf_sizes {
        let obs: Vec<usize> = (next_obs..next_obs + size).collect();
        next_obs += size;
        leaf_ids.push(nodes.len());
        nodes.push(TreeNode {
            obs,
            stats: SuffStats::empty(),
            left: None,
            right: None,
        });
    }
    let mut current = leaf_ids[0];
    for &leaf in &leaf_ids[1..] {
        let mut obs = nodes[current].obs.clone();
        obs.extend(nodes[leaf].obs.iter().copied());
        obs.sort_unstable();
        nodes.push(TreeNode {
            obs,
            stats: SuffStats::empty(),
            left: Some(current),
            right: Some(leaf),
        });
        current = nodes.len() - 1;
    }
    let tree = RegTree {
        root: nodes.len() - 1,
        nodes,
    };
    tree.validate();
    tree
}

fn ensembles_from(shapes: &[Vec<usize>]) -> Vec<ModuleEnsemble> {
    shapes
        .iter()
        .enumerate()
        .map(|(k, leaf_sizes)| ModuleEnsemble {
            module: k,
            vars: vec![k],
            trees: vec![chain_tree(leaf_sizes)],
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn prop_locate_is_a_bijection(
        shapes in prop::collection::vec(
            prop::collection::vec(1usize..5, 1..5),
            1..4,
        ),
        n_parents in 1usize..6,
    ) {
        let ensembles = ensembles_from(&shapes);
        let index = SplitIndex::build(&ensembles, n_parents);

        // Total = Σ over internal nodes of n_parents * |obs(N)|.
        let expected_total: usize = ensembles
            .iter()
            .flat_map(|e| &e.trees)
            .flat_map(|t| t.internal_nodes().into_iter().map(move |n| t.nodes[n].obs.len()))
            .map(|n_obs| n_parents * n_obs)
            .sum();
        prop_assert_eq!(index.total, expected_total);

        // The (node, parent, obs) triples map one-to-one onto the flat
        // indices: node ranges tile [0, total) in order, each spanning
        // n_parents × |obs(N)| items laid out parent-major.
        let mut seen = vec![false; index.total];
        let mut cursor = 0;
        for (pos, entry) in index.nodes.iter().enumerate() {
            let (start, end) = index.node_range(pos);
            prop_assert_eq!((start, end), (cursor, cursor + n_parents * entry.n_obs));
            prop_assert_eq!(start, entry.base);
            for parent in 0..n_parents {
                for obs in 0..entry.n_obs {
                    let i = entry.base + parent * entry.n_obs + obs;
                    prop_assert!(i < end);
                    prop_assert!(!std::mem::replace(&mut seen[i], true));
                }
            }
            cursor = end;
        }
        prop_assert_eq!(cursor, index.total);
        prop_assert!(seen.iter().all(|&hit| hit));

        // Segment boundaries agree with node ranges, and each item's
        // segment id is the node whose range holds it.
        let segments = index.segments();
        prop_assert_eq!(segments.n_items(), index.total);
        prop_assert_eq!(segments.n_segments(), index.nodes.len());
        let ids: Vec<u32> = segments.ids().collect();
        for pos in 0..index.nodes.len() {
            let (start, end) = index.node_range(pos);
            prop_assert_eq!(segments.range(pos), start..end);
            prop_assert!(ids[start..end].iter().all(|&seg| seg as usize == pos));
        }
    }

    #[test]
    fn prop_chain_trees_validate(leaf_sizes in prop::collection::vec(1usize..6, 1..8)) {
        let tree = chain_tree(&leaf_sizes);
        prop_assert_eq!(tree.n_leaves(), leaf_sizes.len());
        let total: usize = leaf_sizes.iter().sum();
        prop_assert_eq!(tree.nodes[tree.root].obs.len(), total);
        if leaf_sizes.len() > 1 {
            prop_assert_eq!(tree.internal_nodes().len(), leaf_sizes.len() - 1);
        }
    }
}
