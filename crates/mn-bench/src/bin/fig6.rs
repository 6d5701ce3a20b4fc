//! **Figure 6** — scalability for the (scaled) *complete* yeast
//! compendium: relative speedup and runtimes from small to extreme
//! rank counts.
//!
//! Paper (§5.3.2): p is doubled from 4 to 4096; scaling is good up to
//! p = 128 (22.6× relative speedup, >70 % relative efficiency), then
//! tapers to 239.3× (23.4 % relative efficiency) at p = 4096 due to
//! the non-scaling GaneSH share and split-loop load imbalance.
//!
//! * part **a**: relative speedup vs p = 4 (Fig. 6a),
//! * part **b**: runtimes for p ≤ 128 (Fig. 6b),
//! * part **c**: runtimes for p = 128…4096 (Fig. 6c).
//!
//! ```text
//! cargo run --release -p mn-bench --bin fig6 [-- --part a|b|c] [--quick]
//! ```

use mn_bench::{write_record, Args, Table, COMM_SCALE};
use mn_comm::{CostModel, RunReport, SimEngine};
use mn_data::synthetic;
use monet::{learn_module_network, phases, LearnerConfig};
use serde::Serialize;

#[derive(Serialize)]
struct Point {
    p: usize,
    total_s: f64,
    ganesh_s: f64,
    consensus_s: f64,
    modules_s: f64,
    relative_speedup: f64,
    relative_efficiency_pct: f64,
}

fn main() {
    let args = Args::capture();
    let part: String = args.get("part", "all".to_string());
    let (n, m) = if args.has("quick") {
        (150usize, 60usize)
    } else {
        (400usize, 120usize)
    };
    let data = synthetic::yeast_like(n, m, 1).dataset;
    let mut config = LearnerConfig::paper_minimum(1);
    // See fig5: a realistic initial cluster count keeps the task mix in
    // the paper's regime.
    config.ganesh.init_clusters = Some((n / 15).max(8));

    println!(
        "Figure 6 — complete (scaled) yeast data set: {n} genes x {m} observations\n"
    );

    let ps: Vec<usize> = (2..=12).map(|k| 1usize << k).collect(); // 4..4096
    let mut reports: Vec<(usize, RunReport)> = Vec::new();
    for &p in &ps {
        let (_, r) = learn_module_network(
            &mut SimEngine::with_cost(p, CostModel::scaled_comm(COMM_SCALE)),
            &data,
            &config,
        );
        reports.push((p, r));
    }
    let t4 = reports[0].1.total_s();
    let points: Vec<Point> = reports
        .iter()
        .map(|(p, r)| Point {
            p: *p,
            total_s: r.total_s(),
            ganesh_s: r.phase_s(phases::GANESH),
            consensus_s: r.phase_s(phases::CONSENSUS),
            modules_s: r.phase_s(phases::MODULES),
            relative_speedup: t4 / r.total_s(),
            relative_efficiency_pct: 100.0 * 4.0 * t4 / (*p as f64 * r.total_s()),
        })
        .collect();

    if part == "a" || part == "all" {
        println!("Figure 6a — relative speedup vs p = 4:\n");
        let mut table = Table::new(&["p", "rel speedup", "rel efficiency (%)"]);
        for pt in &points {
            table.row(&[
                pt.p.to_string(),
                format!("{:.1}", pt.relative_speedup),
                format!("{:.1}", pt.relative_efficiency_pct),
            ]);
        }
        table.print();
        println!(
            "\nshape check: strong scaling to ~p=128, tapering beyond \
             (paper: 22.6x at 128, 239.3x / 23.4% at 4096)\n"
        );
    }

    for (label, lo, hi, fig) in [("b", 4usize, 128usize, "6b"), ("c", 128, 4096, "6c")] {
        if part == label || part == "all" {
            println!("Figure {fig} — runtimes for p in [{lo}, {hi}]:\n");
            let mut table = Table::new(&["p", "ganesh (s)", "consensus (s)", "modules (s)", "total (s)"]);
            for pt in points.iter().filter(|pt| pt.p >= lo && pt.p <= hi) {
                table.row(&[
                    pt.p.to_string(),
                    format!("{:.4}", pt.ganesh_s),
                    format!("{:.5}", pt.consensus_s),
                    format!("{:.4}", pt.modules_s),
                    format!("{:.4}", pt.total_s),
                ]);
            }
            table.print();
            println!();
        }
    }
    write_record("fig6", &points);

    // Shape assertions: monotone improvement into the hundreds of
    // ranks, then an efficiency cliff at p = 4096.
    let at = |p: usize| points.iter().find(|pt| pt.p == p).unwrap();
    assert!(at(128).total_s < at(4).total_s);
    assert!(at(128).relative_efficiency_pct > at(4096).relative_efficiency_pct);
}
