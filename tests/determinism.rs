//! The paper's central software property (§4.2): the learned network
//! is identical for every processor count and identical to the
//! sequential run, because the parallel PRNG streams are block-split
//! to match the block distribution of work. These tests assert
//! byte-identical serialized networks across engines, rank counts,
//! scoring paths, and partitioning strategies.

use mn_comm::{CostModel, ParEngine, PartitionStrategy, SerialEngine, SimEngine, ThreadEngine};
use mn_data::synthetic;
use mn_rand::MasterRng;
use mn_score::Scoring;
use mn_tree::{assign_splits, assign_splits_in, learn_parents, ModuleEnsemble, SplitContext};
use monet::{learn_module_network, learn_module_network_with, to_json, LearnerConfig};

fn dataset() -> mn_data::Dataset {
    synthetic::yeast_like(26, 18, 11).dataset
}

fn config() -> LearnerConfig {
    LearnerConfig::paper_minimum(77)
}

#[test]
fn identical_across_sim_rank_counts() {
    let d = dataset();
    let c = config();
    let (baseline, _) = learn_module_network(&mut SerialEngine::new(), &d, &c);
    let expected = to_json(&baseline);
    for p in [1usize, 2, 3, 16, 128, 1024, 4096] {
        let (net, report) = learn_module_network(&mut SimEngine::new(p), &d, &c);
        assert_eq!(to_json(&net), expected, "sim engine p={p} diverged");
        assert_eq!(report.nranks, p);
    }
}

#[test]
fn identical_across_thread_counts() {
    let d = dataset();
    let c = config();
    let (baseline, _) = learn_module_network(&mut SerialEngine::new(), &d, &c);
    let expected = to_json(&baseline);
    for p in [2usize, 3, 4] {
        let (net, _) = learn_module_network(&mut ThreadEngine::new(p), &d, &c);
        assert_eq!(to_json(&net), expected, "thread engine p={p} diverged");
    }
}

#[test]
fn identical_across_spmd_message_passing_ranks() {
    // The real distributed-memory path: every rank runs the entire
    // learner over the message fabric (point-to-point channels,
    // log-depth collectives), scoring only its own block in each
    // parallel loop — the in-process equivalent of the paper's MPI
    // deployment. Every rank must finish with the identical network,
    // equal to the sequential one.
    let d = dataset();
    let c = config();
    let (baseline, _) = learn_module_network(&mut SerialEngine::new(), &d, &c);
    let expected = to_json(&baseline);
    for p in [1usize, 2, 3, 4] {
        let networks = mn_comm::spmd_run(p, |engine| {
            let (net, report) = learn_module_network(engine, &d, &c);
            assert_eq!(report.nranks, p);
            to_json(&net)
        });
        for (rank, json) in networks.iter().enumerate() {
            assert_eq!(json, &expected, "spmd p={p} rank={rank} diverged");
        }
    }
}

#[test]
fn identical_across_partition_strategies() {
    // The partitioning strategy changes who computes what (and the
    // simulated time), never the results.
    let d = dataset();
    let c = config();
    let (baseline, _) = learn_module_network(&mut SerialEngine::new(), &d, &c);
    let expected = to_json(&baseline);
    for strategy in PartitionStrategy::ALL {
        let mut engine = SimEngine::new(64).with_strategy(strategy);
        let (net, _) = learn_module_network(&mut engine, &d, &c);
        assert_eq!(to_json(&net), expected, "{strategy:?} diverged");
    }
}

#[test]
fn identical_across_cost_models() {
    // The cost model only affects simulated clocks.
    let d = dataset();
    let c = config();
    let (a, ra) = learn_module_network(&mut SimEngine::new(32), &d, &c);
    let (b, rb) = learn_module_network(
        &mut SimEngine::with_cost(32, CostModel::free_comm()),
        &d,
        &c,
    );
    assert_eq!(a, b);
    // But the timings do differ: free comm is faster.
    assert!(rb.total_s() < ra.total_s());
    assert_eq!(rb.comm_s(), 0.0);
}

#[test]
fn identical_across_split_scoring_paths() {
    // The batched prefix-sum kernel and the naive per-candidate oracle
    // compute bit-identical separation scores (DESIGN.md §7), so on the
    // learned tree ensembles they assign identical splits across
    // engines, the network assembled from the oracle's assignment is
    // byte-identical too, and so is the network of a whole learn on
    // the naive oracles.
    let d = dataset();
    let c = config();
    let (net, _) = learn_module_network(&mut SerialEngine::new(), &d, &c);
    let ensembles: Vec<ModuleEnsemble> = net.modules.iter().map(|m| m.ensemble.clone()).collect();
    let parents = c.resolved_parents(d.n_vars());
    let master = MasterRng::new(c.seed);
    let naive = assign_splits_in(
        &mut SerialEngine::new(),
        &d,
        &master,
        &ensembles,
        &parents,
        &c.tree,
        Scoring::Naive,
        &mut SplitContext::new(),
    );
    let serial = assign_splits(
        &mut SerialEngine::new(),
        &d,
        &master,
        &ensembles,
        &parents,
        &c.tree,
    );
    assert_eq!(serial, naive, "serial kernel diverged");
    let threads = assign_splits(
        &mut ThreadEngine::new(4),
        &d,
        &master,
        &ensembles,
        &parents,
        &c.tree,
    );
    assert_eq!(threads, naive, "thread kernel diverged");
    let sim = assign_splits(
        &mut SimEngine::new(1024),
        &d,
        &master,
        &ensembles,
        &parents,
        &c.tree,
    );
    assert_eq!(sim, naive, "sim kernel diverged");

    let mut oracle_net = net.clone();
    let scored = learn_parents(&mut SerialEngine::new(), &ensembles, &naive);
    for (module, parents) in oracle_net.modules.iter_mut().zip(scored) {
        module.parents = parents;
    }
    assert_eq!(
        to_json(&oracle_net),
        to_json(&net),
        "assembled network diverged"
    );

    // `monet --reference`: the whole learn on the naive oracles (GaneSH,
    // the module observation sampler and split assignment) is the same
    // network on every engine.
    fn reference<E: ParEngine>(mut engine: E, d: &mn_data::Dataset, c: &LearnerConfig) -> String {
        let (net, _) = learn_module_network_with(&mut engine, d, c, Scoring::Naive, None).unwrap();
        to_json(&net)
    }
    let expected = to_json(&net);
    assert_eq!(reference(SerialEngine::new(), &d, &c), expected, "serial");
    assert_eq!(reference(ThreadEngine::new(3), &d, &c), expected, "threads:3");
    assert_eq!(reference(SimEngine::new(1024), &d, &c), expected, "sim:1024");
}

#[test]
fn different_seeds_learn_different_networks() {
    let d = dataset();
    let (a, _) = learn_module_network(&mut SerialEngine::new(), &d, &LearnerConfig::paper_minimum(1));
    let (b, _) = learn_module_network(&mut SerialEngine::new(), &d, &LearnerConfig::paper_minimum(2));
    assert_ne!(
        to_json(&a),
        to_json(&b),
        "different seeds should explore different networks"
    );
}

#[test]
fn repeated_runs_are_bitwise_stable() {
    let d = dataset();
    let c = config();
    let (a, _) = learn_module_network(&mut SerialEngine::new(), &d, &c);
    let (b, _) = learn_module_network(&mut SerialEngine::new(), &d, &c);
    assert_eq!(to_json(&a), to_json(&b));
}
