//! **Figure 5** — scalability for data sets with different numbers of
//! observations subsampled from the (scaled) complete yeast compendium.
//!
//! * part **a** (Fig. 5a): sequential runtime per task, one bar per m —
//!   module learning dominates (94.7 % at the smallest m rising to
//!   99.4 % in the paper), consensus negligible.
//! * part **b** (Fig. 5b): strong-scaling speedup for p = 2…1024 on the
//!   simulation engine — near-ideal at small p (~75 % efficiency at 64
//!   cores in the paper), tapering from split-loop load imbalance; the
//!   smallest data set's curve diverges early (too little work).
//! * part **c** (Fig. 5c): runtime and per-task breakdown at p = 1024 —
//!   the GaneSH share is visibly larger than in 5a.
//!
//! ```text
//! cargo run --release -p mn-bench --bin fig5 [-- --part a|b|c] [--quick]
//! ```

use mn_bench::{write_record, Args, Table, COMM_SCALE};
use mn_comm::{CostModel, SimEngine};
use mn_data::synthetic;
use monet::{learn_module_network, phases, LearnerConfig};
use serde::Serialize;

const N: usize = 300;

fn config() -> LearnerConfig {
    let mut c = LearnerConfig::paper_minimum(1);
    // A realistic initial cluster count (the paper's runs provide one;
    // the n/2 fallback would spend most of the runtime in GaneSH and
    // consensus, which is not the paper's regime).
    c.ganesh.init_clusters = Some((N / 15).max(8));
    c
}

fn engine(p: usize) -> SimEngine {
    SimEngine::with_cost(p, CostModel::scaled_comm(COMM_SCALE))
}

#[derive(Serialize)]
struct Breakdown {
    m: usize,
    p: usize,
    ganesh_s: f64,
    consensus_s: f64,
    modules_s: f64,
    total_s: f64,
    modules_share: f64,
}

#[derive(Serialize)]
struct SpeedupSeries {
    m: usize,
    t1_s: f64,
    ps: Vec<usize>,
    seconds: Vec<f64>,
    speedups: Vec<f64>,
}

fn breakdown(data: &mn_data::Dataset, m: usize, p: usize) -> Breakdown {
    let (_, r) = learn_module_network(&mut engine(p), data, &config());
    Breakdown {
        m,
        p,
        ganesh_s: r.phase_s(phases::GANESH),
        consensus_s: r.phase_s(phases::CONSENSUS),
        modules_s: r.phase_s(phases::MODULES),
        total_s: r.total_s(),
        modules_share: r.phase_s(phases::MODULES) / r.total_s(),
    }
}

fn print_breakdowns(title: &str, rows: &[Breakdown]) {
    println!("{title}\n");
    let mut table = Table::new(&[
        "m",
        "p",
        "ganesh (s)",
        "consensus (s)",
        "modules (s)",
        "total (s)",
        "modules %",
    ]);
    for b in rows {
        table.row(&[
            b.m.to_string(),
            b.p.to_string(),
            format!("{:.4}", b.ganesh_s),
            format!("{:.5}", b.consensus_s),
            format!("{:.4}", b.modules_s),
            format!("{:.4}", b.total_s),
            format!("{:.1}", 100.0 * b.modules_share),
        ]);
    }
    table.print();
}

fn main() {
    let args = Args::capture();
    let part: String = args.get("part", "all".to_string());
    let ms: Vec<usize> = if args.has("quick") {
        vec![25, 50]
    } else {
        vec![20, 40, 60, 80, 100]
    };
    let full = synthetic::yeast_like(N, *ms.iter().max().unwrap(), 1).dataset;
    let datasets: Vec<(usize, mn_data::Dataset)> =
        ms.iter().map(|&m| (m, full.subsample(N, m))).collect();

    if part == "a" || part == "all" {
        let rows: Vec<Breakdown> = datasets.iter().map(|(m, d)| breakdown(d, *m, 1)).collect();
        print_breakdowns(
            "Figure 5a — sequential (p = 1) per-task breakdown:",
            &rows,
        );
        println!(
            "\nshape check: module-learning share grows with m \
             ({:.1}% -> {:.1}%; paper: 94.7% -> 99.4%)\n",
            100.0 * rows.first().unwrap().modules_share,
            100.0 * rows.last().unwrap().modules_share
        );
        write_record("fig5a", &rows);
        assert!(
            rows.last().unwrap().modules_share >= rows.first().unwrap().modules_share,
            "module share should grow with m"
        );
    }

    if part == "b" || part == "all" {
        let ps = [2usize, 4, 8, 16, 32, 64, 128, 256, 512, 1024];
        println!("Figure 5b — strong-scaling speedup (simulated ranks):\n");
        let mut header: Vec<String> = vec!["p".into()];
        header.extend(ms.iter().map(|m| format!("m={m}")));
        let mut table = Table::new(&header);
        let mut series: Vec<SpeedupSeries> = datasets
            .iter()
            .map(|(m, d)| {
                let (_, r1) = learn_module_network(&mut engine(1), d, &config());
                SpeedupSeries {
                    m: *m,
                    t1_s: r1.total_s(),
                    ps: ps.to_vec(),
                    seconds: Vec::new(),
                    speedups: Vec::new(),
                }
            })
            .collect();
        for &p in &ps {
            let mut row = vec![p.to_string()];
            for (s, (_, d)) in series.iter_mut().zip(&datasets) {
                let (_, r) = learn_module_network(&mut engine(p), d, &config());
                let t = r.total_s();
                s.seconds.push(t);
                s.speedups.push(s.t1_s / t);
                row.push(format!("{:.1}", s.t1_s / t));
            }
            table.row(&row);
        }
        table.print();
        println!(
            "\nshape check: larger data sets sustain scaling further \
             (paper: m=125 curve diverges, larger m reach 273-288x at p=1024)\n"
        );
        write_record("fig5b", &series);
        // The largest data set must out-scale the smallest at p=1024.
        let last_p = ps.len() - 1;
        assert!(
            series.last().unwrap().speedups[last_p]
                >= series.first().unwrap().speedups[last_p],
            "largest m should scale at least as well as smallest at max p"
        );
    }

    if part == "c" || part == "all" {
        let rows: Vec<Breakdown> = datasets
            .iter()
            .map(|(m, d)| breakdown(d, *m, 1024))
            .collect();
        print_breakdowns("Figure 5c — breakdown at p = 1024:", &rows);
        println!(
            "\nshape check: GaneSH share at p=1024 exceeds its sequential share \
             (paper: \"a higher percentage of run-time in the GaneSH task on 1024 cores\")\n"
        );
        write_record("fig5c", &rows);
    }
}
