//! Strong-scaling study (the workflow behind Figures 5b/6a): learn the
//! same network at a range of simulated rank counts and print the
//! speedup/efficiency table, verifying on the way that every rank
//! count produces the identical network.
//!
//! ```text
//! cargo run --release -p monet --example scaling_study -- [n] [m]
//! ```

use mn_comm::{CostModel, SerialEngine, SimEngine};
use mn_data::synthetic;
use monet::{learn_module_network, to_json, LearnerConfig};

fn main() {
    let mut args = std::env::args().skip(1);
    let n: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(50);
    let m: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(32);

    let data = synthetic::yeast_like(n, m, 3).dataset;
    let config = LearnerConfig::paper_minimum(3);

    // Measured sequential baseline (the paper's T1).
    let (reference, serial_report) =
        learn_module_network(&mut SerialEngine::new(), &data, &config);
    let reference_json = to_json(&reference);
    println!(
        "sequential wall-clock (optimized implementation): {:.3}s",
        serial_report.total_s()
    );

    // Simulated cluster runs. The workload is orders of magnitude
    // smaller than the paper's, so the communication constants are
    // scaled by the same factor to keep the compute:communication
    // ratio representative (see EXPERIMENTS.md, Calibration).
    let model = CostModel::scaled_comm(150.0);
    let (_, sim1) = learn_module_network(&mut SimEngine::with_cost(1, model), &data, &config);
    let t1 = sim1.total_s();
    println!("\nsimulated strong scaling ({} genes x {} observations):", n, m);
    println!(
        "{:>6} {:>12} {:>10} {:>12} {:>10}",
        "p", "time (s)", "speedup", "efficiency", "imbalance"
    );
    for p in [1usize, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096] {
        let (net, report) =
            learn_module_network(&mut SimEngine::with_cost(p, model), &data, &config);
        assert_eq!(
            to_json(&net),
            reference_json,
            "network diverged at p={p} — determinism broken"
        );
        let tp = report.total_s();
        println!(
            "{:>6} {:>12.4} {:>10.1} {:>11.1}% {:>10.2}",
            p,
            tp,
            t1 / tp,
            100.0 * t1 / (p as f64 * tp),
            report.phase_imbalance(monet::phases::MODULES)
        );
    }
    println!("\nall rank counts learned the identical network (checked).");
}
