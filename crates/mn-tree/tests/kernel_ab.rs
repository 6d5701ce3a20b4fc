//! A/B determinism of the split-assignment execution paths: the
//! batched prefix-sum kernel and the naive per-candidate oracle must
//! produce byte-identical serialized [`SplitAssignment`]s for every
//! engine and rank count — and (on the simulated machine) identical
//! per-item work accounting, so all imbalance figures are
//! path-independent.

use mn_comm::{ParEngine, SerialEngine, SimEngine, ThreadEngine};
use mn_data::{synthetic, Dataset};
use mn_rand::MasterRng;
use mn_score::Scoring;
use mn_tree::{assign_splits_in, learn_module_trees, ModuleEnsemble, SplitContext, TreeParams};

fn setup() -> (Dataset, Vec<ModuleEnsemble>, MasterRng) {
    let d = synthetic::yeast_like(14, 18, 77).dataset;
    let master = MasterRng::new(13);
    let mut e = SerialEngine::new();
    let params = TreeParams::default();
    let ensembles = vec![
        learn_module_trees(&mut e, &d, &master, 0, &(0..5).collect::<Vec<_>>(), &params),
        learn_module_trees(&mut e, &d, &master, 1, &(5..10).collect::<Vec<_>>(), &params),
    ];
    (d, ensembles, master)
}

fn assignment_json<E: ParEngine>(
    engine: &mut E,
    d: &Dataset,
    master: &MasterRng,
    ensembles: &[ModuleEnsemble],
    scoring: Scoring,
) -> String {
    let parents: Vec<usize> = (0..d.n_vars()).collect();
    let params = TreeParams::default();
    let ctx = &mut SplitContext::new();
    let out = assign_splits_in(
        engine, d, master, ensembles, &parents, &params, scoring, ctx,
    );
    serde_json::to_string(&out).expect("assignment serializes")
}

#[test]
fn kernel_matches_naive_byte_identically_across_engines() {
    let (d, ensembles, master) = setup();
    let reference = assignment_json(
        &mut SerialEngine::new(),
        &d,
        &master,
        &ensembles,
        Scoring::Naive,
    );
    // Serial kernel.
    assert_eq!(
        assignment_json(
            &mut SerialEngine::new(),
            &d,
            &master,
            &ensembles,
            Scoring::Kernel
        ),
        reference,
        "serial kernel diverged"
    );
    // Threaded kernel at several worker counts.
    for p in [2usize, 4] {
        assert_eq!(
            assignment_json(
                &mut ThreadEngine::new(p),
                &d,
                &master,
                &ensembles,
                Scoring::Kernel
            ),
            reference,
            "thread kernel p={p} diverged"
        );
    }
    // Simulated machine at rank counts that slice segments finely
    // (p=1024 makes most blocks smaller than a segment, so the
    // kernel constantly handles partial runs).
    for p in [1usize, 16, 1024] {
        assert_eq!(
            assignment_json(
                &mut SimEngine::new(p),
                &d,
                &master,
                &ensembles,
                Scoring::Kernel
            ),
            reference,
            "sim kernel p={p} diverged"
        );
    }
}

/// A fixture whose nodes span two and three mask words (150
/// observations at the root). The default fixture's nodes never hold
/// more than 64 observations, so it cannot reach the multi-word path.
fn wide_setup() -> (Dataset, Vec<ModuleEnsemble>, MasterRng) {
    let d = synthetic::yeast_like(10, 150, 41).dataset;
    let master = MasterRng::new(17);
    let params = TreeParams::default();
    let ensembles = vec![learn_module_trees(
        &mut SerialEngine::new(),
        &d,
        &master,
        0,
        &(0..5).collect::<Vec<_>>(),
        &params,
    )];
    let widths: Vec<usize> = ensembles[0]
        .trees
        .iter()
        .flat_map(|t| {
            t.internal_nodes()
                .into_iter()
                .map(|node| t.nodes[node].obs.len())
        })
        .collect();
    assert!(
        widths.iter().any(|&n| n > 128) && widths.iter().any(|&n| (65..=128).contains(&n)),
        "fixture must hold two- and three-word nodes, got widths {widths:?}"
    );
    (d, ensembles, master)
}

#[test]
fn wide_nodes_kernel_matches_naive_with_identical_work_accounting() {
    let (d, ensembles, master) = wide_setup();
    let mut naive_serial = SerialEngine::new();
    let reference = assignment_json(&mut naive_serial, &d, &master, &ensembles, Scoring::Naive);
    let mut kernel_serial = SerialEngine::new();
    assert_eq!(
        assignment_json(&mut kernel_serial, &d, &master, &ensembles, Scoring::Kernel),
        reference,
        "serial kernel diverged"
    );
    assert_eq!(
        kernel_serial.work_units(),
        naive_serial.work_units(),
        "serial work units diverged"
    );
    // The thread engine accounts wall time, not units: its check
    // is the assignment itself.
    assert_eq!(
        assignment_json(
            &mut ThreadEngine::new(3),
            &d,
            &master,
            &ensembles,
            Scoring::Kernel
        ),
        reference,
        "threads:3 kernel diverged"
    );
    let mut naive_sim = SimEngine::new(4);
    let mut kernel_sim = SimEngine::new(4);
    for (engine, scoring) in [
        (&mut naive_sim, Scoring::Naive),
        (&mut kernel_sim, Scoring::Kernel),
    ] {
        assert_eq!(
            assignment_json(engine, &d, &master, &ensembles, scoring),
            reference,
            "sim:4 {scoring:?} diverged"
        );
    }
    assert_eq!(
        kernel_sim.report(),
        naive_sim.report(),
        "sim:4 report diverged"
    );
}

#[test]
fn kernel_reports_identical_work_accounting() {
    // The kernel charges each item the same cost the naive path does
    // (exact pass + MC rounds), so the simulated-machine report —
    // busy times, imbalance, comm — is bit-identical between paths.
    let (d, ensembles, master) = setup();
    for p in [1usize, 16, 1024] {
        let mut ea = SimEngine::new(p);
        let mut eb = SimEngine::new(p);
        let a = assignment_json(&mut ea, &d, &master, &ensembles, Scoring::Naive);
        let b = assignment_json(&mut eb, &d, &master, &ensembles, Scoring::Kernel);
        assert_eq!(a, b);
        assert_eq!(ea.report(), eb.report(), "sim report diverged at p={p}");
    }
    // Serial work-unit totals agree as well.
    let mut ea = SerialEngine::new();
    let mut eb = SerialEngine::new();
    assignment_json(&mut ea, &d, &master, &ensembles, Scoring::Naive);
    assignment_json(&mut eb, &d, &master, &ensembles, Scoring::Kernel);
    assert_eq!(ea.work_units(), eb.work_units());
}
