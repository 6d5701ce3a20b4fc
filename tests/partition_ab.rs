//! **Partition A/B suite** — the end-to-end invariance contract of
//! partitioning (DESIGN.md §14): the full learner pipeline produces the
//! byte-identical network and the bit-identical deterministic counters
//! that the serial run produces, on every engine. The real engines run
//! the paper's block split only; the simulator additionally runs the
//! ablation oracles ([`PartitionStrategy`]), which may only move work
//! between ranks (and change simulated time), never a decision.
//!
//! The pipeline runs two GaneSH runs, so the ensemble and its
//! consensus are on the checked path.

use mn_comm::{ParEngine, PartitionStrategy, SerialEngine, SimEngine, ThreadEngine};
use mn_data::synthetic;
use monet::{learn_module_network, to_json, LearnerConfig};
use std::collections::BTreeMap;

fn dataset() -> mn_data::Dataset {
    synthetic::yeast_like(22, 16, 7).dataset
}

fn config() -> LearnerConfig {
    let mut c = LearnerConfig::paper_minimum(31);
    c.ganesh_runs = 2;
    c
}

/// Run the pipeline on `engine`; return the network JSON and the
/// deterministic counters.
fn run_on<E: ParEngine>(mut engine: E) -> (String, BTreeMap<String, u64>) {
    let d = dataset();
    let c = config();
    let (net, _) = learn_module_network(&mut engine, &d, &c);
    let now = engine.now_s();
    (to_json(&net), engine.obs().snapshot(now).counters)
}

#[test]
fn thread_engine_is_strategy_invariant() {
    let (serial_net, serial_counters) = run_on(SerialEngine::new());
    let (net, counters) = run_on(ThreadEngine::new(3));
    assert_eq!(net, serial_net, "threads:3 changed the network");
    assert_eq!(counters, serial_counters, "threads:3 changed the counters");
}

#[test]
fn sim_engine_is_strategy_invariant_across_rank_counts() {
    let (serial_net, _) = run_on(SerialEngine::new());
    for p in [4usize, 16] {
        let (expected_net, expected_counters) = run_on(SimEngine::new(p));
        assert_eq!(
            expected_net, serial_net,
            "sim:{p} Block diverged from serial"
        );
        for strategy in PartitionStrategy::ALL {
            let (net, counters) = run_on(SimEngine::new(p).with_strategy(strategy));
            assert_eq!(net, expected_net, "sim:{p} {strategy} changed the network");
            assert_eq!(
                counters, expected_counters,
                "sim:{p} {strategy} changed the counters"
            );
        }
    }
}

#[test]
fn msg_engine_is_strategy_invariant_on_every_rank() {
    let (serial_net, serial_counters) = run_on(SerialEngine::new());
    let d = dataset();
    let c = config();
    let per_rank = mn_comm::spmd_run(3, |engine| {
        let (net, _) = learn_module_network(engine, &d, &c);
        let now = engine.now_s();
        (to_json(&net), engine.obs().snapshot(now).counters)
    });
    for (rank, (net, counters)) in per_rank.iter().enumerate() {
        assert_eq!(net, &serial_net, "msg:3 rank {rank} changed the network");
        // Counters are replicated control flow (mn-obs contract), so
        // every rank matches serial.
        assert_eq!(
            counters, &serial_counters,
            "msg:3 rank {rank} changed the counters"
        );
    }
}
