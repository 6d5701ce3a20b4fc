//! Ensemble robustness: run several independent GaneSH chains, build
//! the consensus modules, and compare (a) single-run clusterings,
//! (b) the consensus, and (c) the GENOMICA-style two-step baseline
//! against the planted structure — the methodological argument for
//! Lemon-Tree's ensemble approach (§1.1 of the paper).
//!
//! ```text
//! cargo run --release -p monet --example consensus_ensemble
//! ```

use mn_comm::SerialEngine;
use mn_consensus::{adjusted_rand_index, labels_from_clusters, ConsensusParams};
use mn_data::{synthetic, SyntheticConfig};
use mn_gibbs::GaneshParams;
use mn_score::Scoring;
use monet::genomica::{learn_two_step, TwoStepParams};
use monet::stages::{run_consensus, run_ganesh};
use monet::LearnerConfig;

fn main() {
    let n = 36;
    let synth = synthetic::generate(&SyntheticConfig {
        noise_sd: 0.35,
        n_modules: Some(4),
        ..SyntheticConfig::new(n, 30, 99)
    });
    let data = &synth.dataset;
    let truth = &synth.truth.assignment;
    println!(
        "data: {} genes x {} observations, {} planted modules",
        n,
        data.n_obs(),
        synth.truth.n_modules()
    );

    // Ensemble of G independent GaneSH runs (the pipeline's task 1,
    // without a checkpoint store).
    let g = 9;
    let config = LearnerConfig {
        seed: 5,
        ganesh_runs: g,
        ganesh: GaneshParams {
            init_clusters: Some(8),
            update_steps: 3,
            ..GaneshParams::default()
        },
        consensus: ConsensusParams {
            threshold: 0.3,
            ..ConsensusParams::default()
        },
        ..LearnerConfig::default()
    };
    let mut engine = SerialEngine::new();
    let ensemble = run_ganesh(&mut engine, data, &config, Scoring::Kernel, None).expect("no store");

    println!("\nper-run agreement with planted modules (ARI):");
    let mut run_aris = Vec::new();
    for (i, sample) in ensemble.iter().enumerate() {
        let ari = adjusted_rand_index(&labels_from_clusters(n, sample), truth);
        println!("  run {i}: {ari:.3} ({} clusters)", sample.len());
        run_aris.push(ari);
    }
    let mean_ari = run_aris.iter().sum::<f64>() / run_aris.len() as f64;

    // Consensus across the ensemble (task 2).
    let consensus = run_consensus(&mut engine, data, &config, &ensemble, None).expect("no store");
    let consensus_ari = adjusted_rand_index(&labels_from_clusters(n, &consensus), truth);
    println!(
        "\nconsensus of {g} runs: {consensus_ari:.3} ({} modules) — single-run mean {mean_ari:.3}",
        consensus.len()
    );

    // The GENOMICA-style two-step baseline on the same data.
    let config = LearnerConfig::paper_minimum(5);
    let two_step_params = TwoStepParams {
        n_modules: 4,
        max_iters: 3,
        min_moves: 1,
    };
    let (two_step_net, _) =
        learn_two_step(&mut SerialEngine::new(), data, &config, &two_step_params);
    let ts_clusters: Vec<Vec<usize>> = two_step_net
        .modules
        .iter()
        .map(|m| m.vars.clone())
        .collect();
    let ts_ari = adjusted_rand_index(&labels_from_clusters(n, &ts_clusters), truth);
    println!("GENOMICA-style two-step baseline: {ts_ari:.3} ({} modules)", ts_clusters.len());

    println!("\nsummary:");
    println!("  single GaneSH run (mean) : {mean_ari:.3}");
    println!("  Lemon-Tree consensus     : {consensus_ari:.3}");
    println!("  two-step baseline        : {ts_ari:.3}");
}
