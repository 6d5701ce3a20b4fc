//! **Table 2** — parallel runtimes for the (scaled) complete
//! A. thaliana data set at large rank counts, with relative speedup
//! and efficiency versus p = 256.
//!
//! Paper: 256 → 4096 cores reduces the runtime from ~2 days to ~4.2 h;
//! relative efficiency at 4096 is 69.9 % — *better* than the yeast
//! data set's (~47 % vs its 256-core baseline), because the larger
//! problem gives every rank more work.
//!
//! ```text
//! cargo run --release -p mn-bench --bin table2 [-- --quick]
//! ```

use mn_bench::{write_record, Args, Table, COMM_SCALE};
use mn_comm::{CostModel, SimEngine};
use mn_data::synthetic;
use monet::{learn_module_network, LearnerConfig};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    p: usize,
    total_s: f64,
    relative_speedup: f64,
    relative_efficiency_pct: f64,
}

fn run(data: &mn_data::Dataset, config: &LearnerConfig, p: usize) -> f64 {
    let (_, r) = learn_module_network(
        &mut SimEngine::with_cost(p, CostModel::scaled_comm(COMM_SCALE)),
        data,
        config,
    );
    r.total_s()
}

fn main() {
    let args = Args::capture();
    let (n, m) = if args.has("quick") {
        (200usize, 60usize)
    } else {
        (600usize, 150usize)
    };
    // The thaliana-like preset plants denser regulatory structure, as
    // the real compendium's higher module count does.
    let data = synthetic::thaliana_like(n, m, 1).dataset;
    let mut config = LearnerConfig::paper_minimum(1);
    // See fig5: a realistic initial cluster count keeps the task mix in
    // the paper's regime.
    config.ganesh.init_clusters = Some((n / 15).max(8));

    println!(
        "Table 2 — complete (scaled) A. thaliana data set: {n} genes x {m} observations\n"
    );
    let ps = [256usize, 512, 1024, 2048, 4096];
    let mut rows = Vec::new();
    let mut t256 = 0.0;
    for &p in &ps {
        let t = run(&data, &config, p);
        if p == 256 {
            t256 = t;
        }
        rows.push(Row {
            p,
            total_s: t,
            relative_speedup: t256 / t,
            relative_efficiency_pct: 100.0 * 256.0 * t256 / (p as f64 * t),
        });
    }
    let mut table = Table::new(&["p", "run-time (s)", "rel speedup", "rel efficiency (%)"]);
    for r in &rows {
        table.row(&[
            r.p.to_string(),
            format!("{:.4}", r.total_s),
            format!("{:.1}", r.relative_speedup),
            format!("{:.1}", r.relative_efficiency_pct),
        ]);
    }
    table.print();

    // The paper's cross-data-set comparison: the yeast data set at the
    // same rank range scales worse than the larger thaliana set.
    let yeast = synthetic::yeast_like((n * 2) / 3, m * 2 / 3, 1).dataset;
    let y256 = run(&yeast, &config, 256);
    let y4096 = run(&yeast, &config, 4096);
    let yeast_eff = 100.0 * 256.0 * y256 / (4096.0 * y4096);
    let thaliana_eff = rows.last().unwrap().relative_efficiency_pct;
    println!(
        "\nrelative efficiency at p=4096: thaliana-like {thaliana_eff:.1}% vs \
         smaller yeast-like {yeast_eff:.1}% \
         (paper: 69.9% vs ~47% — the larger data set scales better)"
    );
    write_record("table2", &rows);
    assert!(
        rows.last().unwrap().relative_speedup > 1.0,
        "no scaling beyond 256 ranks"
    );
    assert!(
        thaliana_eff > yeast_eff,
        "larger data set should hold efficiency better"
    );
}
