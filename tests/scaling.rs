//! Scaling-behaviour integration tests: the qualitative claims of the
//! paper's evaluation (§5.3) must hold on the simulation engine.
//!
//! The workloads here are scaled down by orders of magnitude from the
//! paper's genome-scale data sets, so the communication constants are
//! scaled down by the same factor (`CostModel::scaled_comm`) to keep
//! the compute:communication ratio representative — see EXPERIMENTS.md
//! for the calibration argument.

use mn_comm::{CostModel, SerialEngine, SimEngine};
use mn_data::synthetic;
use monet::{learn_module_network, phases, LearnerConfig};

/// Communication scale-down matching the workload scale-down.
const COMM_SCALE: f64 = 150.0;

fn dataset() -> mn_data::Dataset {
    synthetic::yeast_like(60, 40, 19).dataset
}

fn config() -> LearnerConfig {
    let mut c = LearnerConfig::paper_minimum(3);
    // A realistic initial cluster count keeps the task mix in the
    // paper's regime (see EXPERIMENTS.md).
    c.ganesh.init_clusters = Some(8);
    c
}

fn sim_report(p: usize) -> mn_comm::RunReport {
    let d = dataset();
    let (_, report) = learn_module_network(
        &mut SimEngine::with_cost(p, CostModel::scaled_comm(COMM_SCALE)),
        &d,
        &config(),
    );
    report
}

fn simulated_total(p: usize) -> f64 {
    sim_report(p).total_s()
}

#[test]
fn simulated_runtime_decreases_with_ranks_then_saturates() {
    let t1 = simulated_total(1);
    let t4 = simulated_total(4);
    let t16 = simulated_total(16);
    let t64 = simulated_total(64);
    assert!(t4 < t1, "t4={t4} t1={t1}");
    assert!(t16 < t4, "t16={t16} t4={t4}");
    assert!(t64 < t16, "t64={t64} t16={t16}");
    // Speedup is sublinear at larger p (comm + imbalance), the paper's
    // tapering observation.
    let s64 = t1 / t64;
    assert!(s64 < 64.0, "speedup {s64} cannot exceed ideal");
    assert!(s64 > 4.0, "speedup {s64} too weak for 64 ranks");
}

#[test]
fn efficiency_declines_with_rank_count() {
    let t4 = simulated_total(4);
    let t64 = simulated_total(64);
    let t1024 = simulated_total(1024);
    let eff = |p: usize, tp: f64| 4.0 * t4 / (p as f64 * tp);
    assert!(eff(64, t64) <= 1.01);
    assert!(
        eff(1024, t1024) < eff(64, t64),
        "relative efficiency must decline: {} vs {}",
        eff(1024, t1024),
        eff(64, t64)
    );
}

#[test]
fn module_task_dominates_and_consensus_negligible() {
    // Fig. 5a's breakdown claims, checked on the simulated timeline at
    // p = 1 (the sequential breakdown).
    let report = sim_report(1);
    let modules = report.phase_s(phases::MODULES);
    let ganesh = report.phase_s(phases::GANESH);
    let consensus = report.phase_s(phases::CONSENSUS);
    assert!(
        modules > ganesh,
        "module learning ({modules}) must dominate GaneSH ({ganesh})"
    );
    assert!(
        consensus < 0.05 * report.total_s(),
        "consensus ({consensus}) must be negligible vs total {}",
        report.total_s()
    );
}

#[test]
fn ganesh_share_grows_at_scale() {
    // The paper's Fig. 5c observation: "Figure 5c shows a higher
    // percentage of run-time in the GaneSH task on 1024 cores, when
    // compared to Figure 5a" — GaneSH stops scaling before the module
    // task does.
    let share = |report: &mn_comm::RunReport| {
        report.phase_s(phases::GANESH) / report.total_s()
    };
    let at_1 = share(&sim_report(1));
    let at_1024 = share(&sim_report(1024));
    assert!(
        at_1024 > at_1,
        "GaneSH share must grow with p: {at_1:.3} -> {at_1024:.3}"
    );
}

#[test]
fn split_loop_imbalance_grows_with_ranks() {
    // §5.3.1: "the imbalance steadily increases" with p.
    let imbalance = |p: usize| sim_report(p).phase_imbalance(phases::MODULES);
    let low = imbalance(4);
    let high = imbalance(1024);
    assert!(
        high > low,
        "imbalance must grow with p: p=4 -> {low}, p=1024 -> {high}"
    );
}

#[test]
fn serial_wall_clock_grows_with_observations() {
    // Fig. 3's qualitative claim at test scale: more observations,
    // more time (superlinear growth is asserted at bench scale).
    let run = |m: usize| {
        let d = synthetic::yeast_like(24, m, 9).dataset;
        let (_, report) =
            learn_module_network(&mut SerialEngine::new(), &d, &LearnerConfig::paper_minimum(3));
        report.total_s()
    };
    let t_small = run(10);
    let t_large = run(40);
    assert!(
        t_large > t_small,
        "runtime must grow with m: {t_small} vs {t_large}"
    );
}

#[test]
fn extreme_rank_counts_hit_an_amdahl_floor() {
    // Non-scaling components (small candidate lists, collective
    // latency) bound efficiency at extreme p — the paper's §5.3.2
    // observation (23.4 % relative efficiency at 4096 cores).
    let t64 = simulated_total(64);
    let t4096 = simulated_total(4096);
    let eff = 64.0 * t64 / (4096.0 * t4096);
    assert!(t4096 > 0.0);
    assert!(
        eff < 0.9,
        "relative efficiency at 4096 ranks suspiciously high: {eff}"
    );
}
