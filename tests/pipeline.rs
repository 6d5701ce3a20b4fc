//! Cross-crate integration tests: the full learning pipeline end to
//! end, on all engines, with quality checks against planted structure.

use mn_comm::{SerialEngine, SimEngine, ThreadEngine};
use mn_consensus::{adjusted_rand_index, labels_from_clusters};
use mn_data::{synthetic, SyntheticConfig};
use mn_score::Scoring;
use monet::{learn_module_network, learn_module_network_with, phases, LearnerConfig};

fn strong_signal_data(n: usize, m: usize, seed: u64) -> mn_data::synthetic::SyntheticDataset {
    synthetic::generate(&SyntheticConfig {
        noise_sd: 0.2,
        n_modules: Some(3),
        n_regulators: Some(3),
        ..SyntheticConfig::new(n, m, seed)
    })
}

#[test]
fn full_pipeline_on_serial_engine() {
    let s = strong_signal_data(30, 24, 100);
    let config = LearnerConfig::paper_minimum(1);
    let mut engine = SerialEngine::new();
    let (net, report) = learn_module_network(&mut engine, &s.dataset, &config);
    net.validate();
    assert!(net.n_modules() >= 2, "expected multiple modules");
    assert_eq!(report.phases.len(), 3);
    assert!(report.total_s() > 0.0);
}

#[test]
fn learned_modules_recover_planted_structure() {
    // The synthetic-substitution audit (DESIGN.md §2): with a strong
    // planted signal, the learned module assignment must agree with
    // the planted one far better than chance.
    let s = strong_signal_data(30, 40, 7);
    let mut config = LearnerConfig::paper_minimum(1);
    config.ganesh.update_steps = 3;
    let mut engine = SerialEngine::new();
    let (net, _) = learn_module_network(&mut engine, &s.dataset, &config);

    let learned_clusters: Vec<Vec<usize>> = net
        .modules
        .iter()
        .map(|module| module.vars.clone())
        .collect();
    let learned = labels_from_clusters(30, &learned_clusters);
    let ari = adjusted_rand_index(&learned, &s.truth.assignment);
    assert!(ari > 0.3, "ARI vs planted structure too low: {ari}");
}

#[test]
fn planted_regulators_score_highly() {
    // With the candidate-parent list restricted to the planted
    // regulators (the Lemon-Tree candidate-regulator workflow), a
    // module's top-ranked parent should be one of the regulators that
    // actually drives the module's planted counterpart — far above the
    // ~25 % chance level of 8 regulators with 1–3 true parents each.
    let s = synthetic::generate(&SyntheticConfig {
        noise_sd: 0.2,
        n_modules: Some(3),
        n_regulators: Some(8),
        ..SyntheticConfig::new(32, 48, 13)
    });
    let mut config = LearnerConfig::paper_minimum(2);
    config.ganesh.update_steps = 2;
    config.candidate_parents = Some(s.truth.regulators.clone());
    let mut engine = SerialEngine::new();
    let (net, _) = learn_module_network(&mut engine, &s.dataset, &config);

    // Aggregate over modules: candidates that are true planted parents
    // of a module's majority planted module must outscore the other
    // regulator candidates on average (unranked candidates score 0).
    let mut true_scores = Vec::new();
    let mut false_scores = Vec::new();
    for module in &net.modules {
        let mut counts = vec![0usize; s.truth.n_modules()];
        for &v in &module.vars {
            counts[s.truth.assignment[v]] += 1;
        }
        let majority = counts
            .iter()
            .enumerate()
            .max_by_key(|&(_, &c)| c)
            .map(|(k, _)| k)
            .unwrap();
        for &reg in &s.truth.regulators {
            let score = module.parents.weighted.get(&reg).copied().unwrap_or(0.0);
            if s.truth.parents[majority].contains(&reg) {
                true_scores.push(score);
            } else {
                false_scores.push(score);
            }
        }
    }
    assert!(!true_scores.is_empty() && !false_scores.is_empty());
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    assert!(
        mean(&true_scores) > mean(&false_scores),
        "true planted parents did not outscore non-parents: {:.3} vs {:.3}",
        mean(&true_scores),
        mean(&false_scores)
    );
}

#[test]
fn reference_and_optimized_learn_identical_networks() {
    // Table 1's correctness contract: "we verified that our
    // implementation learns the exact same MoNets as the ones learned
    // by Lemon-Tree in all the cases". `--reference` runs the learn
    // entry on the naive oracles.
    let s = strong_signal_data(24, 18, 5);
    let config = LearnerConfig::paper_minimum(9);
    let learn = |scoring| {
        learn_module_network_with(&mut SerialEngine::new(), &s.dataset, &config, scoring, None)
            .unwrap()
            .0
    };
    let (a, b) = (learn(Scoring::Kernel), learn(Scoring::Naive));
    assert_eq!(monet::to_json(&a), monet::to_json(&b));
}

#[test]
fn xml_and_json_outputs_are_consistent() {
    let s = strong_signal_data(20, 14, 3);
    let config = LearnerConfig::paper_minimum(4);
    let (net, _) = learn_module_network(&mut SerialEngine::new(), &s.dataset, &config);
    let json = monet::to_json(&net);
    let back = monet::from_json(&json).unwrap();
    assert_eq!(net, back);
    let xml = monet::to_xml(&net);
    assert_eq!(xml.matches("<Module ").count(), net.n_modules());
}

#[test]
fn acyclicity_postprocessing_yields_dag() {
    let s = strong_signal_data(24, 20, 6);
    let config = LearnerConfig::paper_minimum(8);
    let (net, _) = learn_module_network(&mut SerialEngine::new(), &s.dataset, &config);
    let dag = monet::acyclic::dag_edges(&net);
    assert!(monet::acyclic::is_acyclic(net.n_modules(), &dag));
    // Post-processing only removes edges.
    let raw = net.module_edges();
    assert!(dag.len() <= raw.len());
    for e in &dag {
        assert!(raw.contains(e));
    }
}

#[test]
fn engines_report_comparable_phase_structure() {
    let s = strong_signal_data(20, 14, 2);
    let config = LearnerConfig::paper_minimum(1);
    let (_, serial) = learn_module_network(&mut SerialEngine::new(), &s.dataset, &config);
    let (_, sim) = learn_module_network(&mut SimEngine::new(8), &s.dataset, &config);
    let (_, threads) = learn_module_network(&mut ThreadEngine::new(2), &s.dataset, &config);
    for report in [&serial, &sim, &threads] {
        let names: Vec<&str> = report.phases.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, vec![phases::GANESH, phases::CONSENSUS, phases::MODULES]);
    }
}

#[test]
fn two_step_baseline_runs_end_to_end() {
    let s = strong_signal_data(20, 16, 4);
    let config = LearnerConfig::paper_minimum(6);
    let params = monet::genomica::TwoStepParams {
        n_modules: 3,
        max_iters: 2,
        min_moves: 1,
    };
    let (net, report) =
        monet::genomica::learn_two_step(&mut SerialEngine::new(), &s.dataset, &config, &params);
    net.validate();
    assert!(report.phases.len() >= 3);
}
