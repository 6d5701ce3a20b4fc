//! GaneSH ensembles with each run whole on one rank: when `1 < p ≤ G`
//! (`mn_gibbs::runs_whole_per_rank`), run `g` goes to the rank that
//! owns it under the block split, on a fresh one-rank engine
//! (`ParEngine::dist_tasks`), and its counter and flight deltas are
//! folded in run order. Everything observable must equal the serial
//! run: the network bytes, every counter, the deterministic flight
//! sequence and — on the checkpointed path — every unit record.

use mn_comm::{
    silence_injected_panics, FaultPlan, ParEngine, SerialEngine, SimEngine, ThreadEngine,
};
use mn_data::{synthetic, Dataset};
use mn_obs::FlightEvent;
use mn_score::Scoring;
use monet::stages::run_ganesh;
use monet::{
    learn_module_network, learn_module_network_with, learn_with_checkpoint, to_json, LearnerConfig,
    ResumePolicy,
};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

fn dataset() -> Dataset {
    synthetic::yeast_like(24, 16, 13).dataset
}

fn config(g_runs: usize) -> LearnerConfig {
    let mut c = LearnerConfig::paper_minimum(21);
    c.ganesh_runs = g_runs;
    c
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("monet_ens_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// What one learn leaves behind that must not depend on the engine.
#[derive(Debug, PartialEq)]
struct Observed {
    network: String,
    counters: BTreeMap<String, u64>,
    flight: Vec<FlightEvent>,
    /// `ganesh_run_<g>.json` bytes of a checkpointed learn.
    units: Vec<Vec<u8>>,
}

fn observe<E: ParEngine>(
    engine: &mut E,
    data: &Dataset,
    config: &LearnerConfig,
    scoring: Scoring,
    ckpt: Option<&Path>,
) -> Observed {
    let store = ckpt.map(|dir| (dir, ResumePolicy::Auto));
    let (network, _) = learn_module_network_with(engine, data, config, scoring, store).unwrap();
    let units = match ckpt {
        None => Vec::new(),
        Some(dir) => (0..config.ganesh_runs)
            .map(|g| std::fs::read(dir.join(format!("ganesh_run_{g}.json"))).unwrap_or_default())
            .collect(),
    };
    Observed {
        network: to_json(&network),
        counters: engine.obs().counters().clone(),
        flight: engine
            .obs()
            .flight()
            .det_events()
            .into_iter()
            .map(|r| r.event)
            .collect(),
        units,
    }
}

#[derive(Debug, Clone, Copy)]
enum Spec {
    Threads(usize),
    Sim(usize),
    Msg(usize),
}

/// Learn on `spec`, plain or checkpointed into a fresh directory.
fn observe_on(
    spec: Spec,
    data: &Dataset,
    config: &LearnerConfig,
    scoring: Scoring,
    ckpt: bool,
) -> Observed {
    let dir = ckpt.then(|| tmpdir(&format!("{spec:?}_{}", config.ganesh_runs)));
    let dir = dir.as_deref();
    let out = match spec {
        Spec::Threads(p) => observe(&mut ThreadEngine::new(p), data, config, scoring, dir),
        Spec::Sim(p) => observe(&mut SimEngine::new(p), data, config, scoring, dir),
        Spec::Msg(p) => {
            let mut ranks = mn_comm::spmd_run(p, |e| observe(e, data, config, scoring, dir));
            for (r, rank) in ranks.iter().enumerate().skip(1) {
                assert_eq!(rank, &ranks[0], "msg:{p}: rank {r} disagrees with rank 0");
            }
            ranks.swap_remove(0)
        }
    };
    if let Some(dir) = dir {
        std::fs::remove_dir_all(dir).ok();
    }
    out
}

/// Every engine that takes the run-per-rank path for `g_runs` runs.
fn whole_run_engines(g_runs: usize) -> Vec<Spec> {
    let mut specs = vec![Spec::Threads(2), Spec::Sim(2), Spec::Msg(2)];
    if g_runs >= 3 {
        specs.push(Spec::Threads(3));
    }
    if g_runs >= 4 {
        specs.push(Spec::Sim(4));
    }
    specs
}

/// Returns the serial run's network bytes.
fn check_against_serial(config: &LearnerConfig, scoring: Scoring, ckpt: bool) -> String {
    let data = dataset();
    let dir = ckpt.then(|| tmpdir(&format!("serial_{}", config.ganesh_runs)));
    let serial = observe(
        &mut SerialEngine::new(),
        &data,
        config,
        scoring,
        dir.as_deref(),
    );
    if let Some(dir) = dir {
        std::fs::remove_dir_all(dir).ok();
    }
    for spec in whole_run_engines(config.ganesh_runs) {
        let (Spec::Threads(p) | Spec::Sim(p) | Spec::Msg(p)) = spec;
        assert!(
            mn_gibbs::runs_whole_per_rank(p, config.ganesh_runs),
            "{spec:?}"
        );
        let got = observe_on(spec, &data, config, scoring, ckpt);
        let label = format!("{spec:?} G={} checkpointed={ckpt}", config.ganesh_runs);
        assert_eq!(got.network, serial.network, "{label}: network");
        assert_eq!(got.counters, serial.counters, "{label}: counters");
        assert_eq!(got.flight, serial.flight, "{label}: flight sequence");
        assert_eq!(got.units, serial.units, "{label}: unit records");
    }
    serial.network
}

#[test]
fn plain_learns_equal_serial_with_runs_whole_per_rank() {
    for g_runs in [2, 3, 4] {
        check_against_serial(&config(g_runs), Scoring::Kernel, false);
    }
}

#[test]
fn checkpointed_learns_equal_serial_with_runs_whole_per_rank() {
    for g_runs in [2, 3, 4] {
        check_against_serial(&config(g_runs), Scoring::Kernel, true);
    }
}

#[test]
fn reference_scoring_equals_serial_with_runs_whole_per_rank() {
    // `--reference` runs each whole run on the naive oracles; it learns
    // the kernel's network, on one rank and with each run on its own.
    let naive = check_against_serial(&config(2), Scoring::Naive, false);
    let (kernel, _) = learn_module_network(&mut SerialEngine::new(), &dataset(), &config(2));
    assert_eq!(naive, to_json(&kernel));
}

/// Counters under the cross-run contract: all but `checkpoint.*`.
fn equivalence_counters<E: ParEngine>(engine: &E) -> BTreeMap<String, u64> {
    engine
        .obs()
        .counters()
        .iter()
        .filter(|(name, _)| !name.starts_with("checkpoint."))
        .map(|(name, &v)| (name.clone(), v))
        .collect()
}

#[test]
fn a_kill_after_the_ensemble_resumes_from_every_run_unit() {
    silence_injected_panics();
    let data = dataset();
    let config = config(4);
    let mut serial = SerialEngine::new();
    let (reference, _) = learn_module_network(&mut serial, &data, &config);

    // The first engine event after task 1 is the kill point.
    let mut probe = ThreadEngine::new(2);
    run_ganesh(&mut probe, &data, &config, Scoring::Kernel, None).unwrap();
    assert_eq!(
        probe.fault_events(),
        1,
        "on the run-per-rank path the ensemble is one engine event"
    );
    let kill_at = probe.fault_events() + 1;

    let dir = tmpdir("kill_after_t1");
    let mut doomed = ThreadEngine::new(2).with_fault_plan(FaultPlan::new().kill(0, kill_at));
    let killed = catch_unwind(AssertUnwindSafe(|| {
        learn_with_checkpoint(&mut doomed, &data, &config, &dir)
    }));
    assert!(killed.is_err(), "the kill at event {kill_at} did not fire");

    let mut resumed = ThreadEngine::new(2);
    let (network, _) = learn_with_checkpoint(&mut resumed, &data, &config, &dir).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    let skipped = resumed
        .obs()
        .counter(mn_obs::counters::CHECKPOINT_UNITS_SKIPPED);
    assert!(
        skipped >= 4,
        "resume restored {skipped} units, not the 4 runs"
    );
    assert_eq!(
        to_json(&network),
        to_json(&reference),
        "resumed network diverged"
    );
    assert_eq!(
        equivalence_counters(&resumed),
        equivalence_counters(&serial),
        "resumed counters diverged"
    );
}
