//! **Table 1** — sequential runtime of the Lemon-Tree cost profile vs
//! our optimized implementation, across an n × m grid subsampled from
//! a yeast-like compendium, with the speedup column and the
//! identical-network check.
//!
//! Both columns run the entry `monet` runs,
//! [`monet::learn_module_network_with`]: the reference column with
//! `Scoring::Naive` (`monet --reference`), whose GaneSH sweeps, module
//! observation sampler and split assignment rescore every candidate
//! from the state, the optimized column with `Scoring::Kernel`.
//! Consensus, the tree merges and parent scoring have one path and run
//! the same code in both. The oracles' weights are bit-identical to the
//! kernels', so the networks are identical by construction.
//!
//! Paper's grid: n ∈ {1000, 2000, 3000} × m ∈ {125, ..., 1000},
//! speedups 3.6–3.8×. Scaled grid (≈10× smaller in each dimension):
//! n ∈ {100, 200, 300} × m ∈ {25, 50, 75, 100}. The shape claims
//! reproduced: the optimized implementation wins across the whole
//! grid, and both learn identical networks.
//!
//! ```text
//! cargo run --release -p mn-bench --bin table1 [-- --quick]
//! ```

use mn_bench::{time_it, write_record, Args, Table};
use mn_comm::SerialEngine;
use mn_data::synthetic;
use mn_score::Scoring;
use monet::{learn_module_network_with, to_json, LearnerConfig, ModuleNetwork};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    n: usize,
    m: usize,
    reference_s: f64,
    optimized_s: f64,
    speedup: f64,
    identical_networks: bool,
}

fn main() {
    let args = Args::capture();
    let (ns, ms): (Vec<usize>, Vec<usize>) = if args.has("quick") {
        (vec![60, 120], vec![16, 24])
    } else {
        (vec![100, 200, 300], vec![25, 50, 75, 100])
    };

    // One full-size compendium; each cell uses the paper's
    // first-n × first-m subsampling protocol.
    let full = synthetic::yeast_like(
        *ns.iter().max().unwrap(),
        *ms.iter().max().unwrap(),
        1,
    )
    .dataset;

    let mut table = Table::new(&["n", "m", "lemon-tree-ref (s)", "ours (s)", "speedup", "same net"]);
    let mut rows = Vec::new();
    for &n in &ns {
        for &m in &ms {
            let data = full.subsample(n, m);
            let config = LearnerConfig::paper_minimum(1);
            let learn = |scoring| -> ModuleNetwork {
                learn_module_network_with(&mut SerialEngine::new(), &data, &config, scoring, None)
                    .expect("a learn without a checkpoint store does no checkpoint I/O")
                    .0
            };
            let (net_ref, t_ref) = time_it(|| learn(Scoring::Naive));
            let (net_opt, t_opt) = time_it(|| learn(Scoring::Kernel));
            let identical = to_json(&net_ref) == to_json(&net_opt);
            let speedup = t_ref / t_opt;
            table.row(&[
                n.to_string(),
                m.to_string(),
                format!("{t_ref:.2}"),
                format!("{t_opt:.2}"),
                format!("{speedup:.1}"),
                identical.to_string(),
            ]);
            rows.push(Row {
                n,
                m,
                reference_s: t_ref,
                optimized_s: t_opt,
                speedup,
                identical_networks: identical,
            });
        }
    }

    println!("Table 1 — sequential comparison (reference vs optimized):\n");
    table.print();
    let mean = rows.iter().map(|r| r.speedup).sum::<f64>() / rows.len() as f64;
    println!("\nmean speedup: {mean:.2}x (paper: 3.6-3.8x)");
    let all_same = rows.iter().all(|r| r.identical_networks);
    println!("identical networks in every cell: {all_same} (paper: verified identical)");
    write_record("table1", &rows);
    assert!(all_same, "reference and optimized diverged");
}
