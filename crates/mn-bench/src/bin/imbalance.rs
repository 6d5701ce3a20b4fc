//! **Load-imbalance study** (§5.3.1's metric) — the deviation
//! `(max − avg) / avg` of the split-posterior loop's per-rank runtime,
//! as a function of the rank count.
//!
//! Paper: "the measured load imbalance is less than 0.3 when p ≤ 64
//! ... and then the imbalance steadily increases from 0.5 using
//! p = 128 to 2.6 using p = 1024." The imbalance is intrinsic: the
//! number of discrete sampling steps per split "cannot be estimated a
//! priori and varies significantly across splits".
//!
//! This binary isolates exactly that loop: the tree ensembles are
//! learned once, then the split-assignment phase alone is replayed on
//! simulation engines of increasing size.
//!
//! ```text
//! cargo run --release -p mn-bench --bin imbalance [-- --quick]
//! ```

use mn_bench::{write_record, Args, Table, COMM_SCALE};
use mn_comm::{CostModel, ParEngine, SerialEngine, SimEngine};
use mn_data::synthetic;
use mn_rand::MasterRng;
use mn_tree::{assign_splits, learn_module_trees, TreeParams};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    p: usize,
    elapsed_s: f64,
    imbalance: f64,
}

fn main() {
    let args = Args::capture();
    let (n, m) = if args.has("quick") {
        (120usize, 60usize)
    } else {
        (300usize, 100usize)
    };
    let data = synthetic::yeast_like(n, m, 1).dataset;
    let master = MasterRng::new(1);
    let params = TreeParams::default();

    // Stage the inputs once: modules of equal slices (the imbalance is
    // a property of the split loop, not of the clustering).
    let k = (n / 40).max(2);
    let per = n / k;
    let mut setup_engine = SerialEngine::new();
    let ensembles: Vec<_> = (0..k)
        .map(|i| {
            let vars: Vec<usize> = (i * per..(i + 1) * per).collect();
            learn_module_trees(&mut setup_engine, &data, &master, i, &vars, &params)
        })
        .collect();
    let parents: Vec<usize> = (0..n).collect();

    println!(
        "Split-posterior loop imbalance, {n} genes x {m} observations, \
         {k} modules (paper §5.3.1):\n"
    );
    let mut rows = Vec::new();
    let mut table = Table::new(&["p", "phase time (s)", "imbalance (max-avg)/avg"]);
    for p in [4usize, 16, 64, 128, 256, 512, 1024, 2048, 4096] {
        let mut engine = SimEngine::with_cost(p, CostModel::scaled_comm(COMM_SCALE));
        engine.begin_phase("splits");
        assign_splits(&mut engine, &data, &master, &ensembles, &parents, &params);
        let report = engine.report();
        let imbalance = report.phase_imbalance("splits");
        table.row(&[
            p.to_string(),
            format!("{:.4}", report.total_s()),
            format!("{imbalance:.2}"),
        ]);
        rows.push(Row {
            p,
            elapsed_s: report.total_s(),
            imbalance,
        });
    }
    table.print();
    println!(
        "\nshape check: small (<~0.3-0.5) at p <= 64, steadily increasing beyond \
         (paper: <0.3 at p<=64, 0.5 at 128, 2.6 at 1024)"
    );
    write_record("imbalance", &rows);

    let at = |p: usize| rows.iter().find(|r| r.p == p).unwrap().imbalance;
    assert!(at(64) < at(1024), "imbalance must grow with p");
    assert!(at(4) < 0.5, "imbalance at p=4 should be small, got {}", at(4));
}
