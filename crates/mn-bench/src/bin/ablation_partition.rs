//! **Ablation: work partitioning of the split loop** (§3.2.3).
//!
//! The paper argues that the "simple parallelization scheme" — owning
//! all computations of a module/tree/node on one processor — is
//! sub-optimal ("the total number of splits assigned to different
//! processors will vary significantly, thus leading to severe load
//! imbalance") and adopts a block split of the flat candidate list.
//! Its future-work section proposes dynamic load balancing on top.
//!
//! This ablation replays the split-assignment phase under every
//! [`PartitionStrategy`] and reports the simulated phase time and
//! imbalance, verifying the paper's argument quantitatively — and that
//! every strategy produces the identical assignment. The per-node and
//! self-scheduling rows are simulator oracles: they assign owners from
//! the true per-item costs.
//!
//! ```text
//! cargo run --release -p mn-bench --bin ablation_partition [-- --quick]
//! ```

use mn_bench::{write_record, Args, Table, COMM_SCALE};
use mn_comm::{CostModel, ParEngine, PartitionStrategy, SerialEngine, SimEngine};
use mn_data::synthetic;
use mn_rand::MasterRng;
use mn_tree::{assign_splits, learn_module_trees, TreeParams};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    strategy: String,
    p: usize,
    elapsed_s: f64,
    imbalance: f64,
}

fn main() {
    let args = Args::capture();
    let (n, m) = if args.has("quick") {
        (120usize, 60usize)
    } else {
        (240usize, 100usize)
    };
    let data = synthetic::yeast_like(n, m, 1).dataset;
    let master = MasterRng::new(1);
    let params = TreeParams::default();

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

    println!("Partitioning ablation for the split-posterior loop:\n");
    let mut rows = Vec::new();
    let mut table = Table::new(&["strategy", "p", "phase time (s)", "imbalance"]);
    let mut baseline_result = None;
    for &(strategy, label) in &[
        (PartitionStrategy::SegmentOwner, "per-node owner (strawman)"),
        (PartitionStrategy::Block, "block split (paper)"),
        (
            PartitionStrategy::SelfScheduling,
            "self-scheduling (future work)",
        ),
    ] {
        for &p in &[64usize, 256, 1024] {
            let mut engine = SimEngine::with_model(p, CostModel::scaled_comm(COMM_SCALE))
                .with_strategy(strategy);
            engine.begin_phase("splits");
            let result =
                assign_splits(&mut engine, &data, &master, &ensembles, &parents, &params);
            let report = engine.report();
            // Identical decisions under every strategy.
            match &baseline_result {
                None => baseline_result = Some(result),
                Some(base) => assert_eq!(base, &result, "strategy changed the result"),
            }
            table.row(&[
                label.to_string(),
                p.to_string(),
                format!("{:.4}", report.phase_s("splits")),
                format!("{:.2}", report.phase_imbalance("splits")),
            ]);
            rows.push(Row {
                strategy: label.to_string(),
                p,
                elapsed_s: report.phase_s("splits"),
                imbalance: report.phase_imbalance("splits"),
            });
        }
    }
    table.print();
    println!(
        "\nshape check: per-node ownership suffers the worst imbalance \
         (the paper's \"severe load imbalance\" argument), the paper's block \
         split is far better, and dynamic self-scheduling (future work) is \
         best at large p. All strategies produced identical assignments."
    );
    write_record("ablation_partition", &rows);

    let time_of = |s: &str, p: usize| {
        rows.iter()
            .find(|r| r.strategy.starts_with(s) && r.p == p)
            .unwrap()
            .elapsed_s
    };
    assert!(time_of("block", 1024) <= time_of("per-node", 1024));
    assert!(time_of("self-scheduling", 1024) <= time_of("block", 1024));
}
