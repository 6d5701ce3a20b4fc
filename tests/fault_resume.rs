//! Kill–resume equivalence: a run killed at an arbitrary fault point
//! and resumed from its fine-grained checkpoint must finish with the
//! network, counters, and phase sequence of an uninterrupted run —
//! bit-identically, on every engine.
//!
//! Fault points are deterministic event indices ([`mn_comm::FaultPlan`]):
//! engine events (each `dist_map*` / `collective` / `replicated` call)
//! on the single-process engines, per-endpoint fabric events
//! (sends + receives) on the message-passing engine. Each sweep probes
//! the event ranges of the three pipeline tasks first, then plants
//! kills across all of them — GaneSH mid-ensemble, consensus, and
//! module learning mid-task — so resume is exercised *within* tasks,
//! not just at stage boundaries.

use mn_comm::{
    silence_injected_panics, FaultPlan, ParEngine, SerialEngine, SimEngine, ThreadEngine,
};
use mn_data::{synthetic, Dataset};
use mn_obs::flightrec::{det_overlap_matches, parse_dump, FlightRecord};
use mn_obs::{FlightEvent, FlightRec};
use mn_score::Scoring;
use monet::stages::{run_consensus, run_ganesh, run_module_learning};
use monet::{learn_with_checkpoint, to_json, LearnerConfig};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

fn setup() -> (Dataset, LearnerConfig) {
    let mut config = LearnerConfig::paper_minimum(9);
    // Two GaneSH runs so task 1 spans multiple checkpoint units.
    config.ganesh_runs = 2;
    (synthetic::yeast_like(20, 14, 5).dataset, config)
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("monet_fault_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Counters under the cross-run equivalence contract: everything
/// except the `checkpoint.*` bookkeeping (a resumed run legitimately
/// skips units the killed run wrote) and `fault.*` (reserved).
fn equivalence_counters<E: ParEngine>(engine: &E) -> BTreeMap<String, u64> {
    engine
        .obs()
        .counters()
        .iter()
        .filter(|(name, _)| !name.starts_with("checkpoint.") && !name.starts_with("fault."))
        .map(|(name, &v)| (name.clone(), v))
        .collect()
}

fn phase_names(report: &mn_comm::RunReport) -> Vec<String> {
    report.phases.iter().map(|p| p.name.clone()).collect()
}

/// Post-mortem dump contract: dumping `flight` into `dir` must produce
/// a parseable `flightrec-rank<k>.jsonl`. Returns the deterministic
/// records the dump holds, for replay comparison.
fn assert_dump(flight: &FlightRec, dir: &Path, label: &str) -> Vec<FlightRecord> {
    std::fs::create_dir_all(dir).unwrap();
    let path = flight
        .dump_to_dir(dir)
        .unwrap_or_else(|e| panic!("{label}: flight dump failed: {e}"));
    assert!(path.exists(), "{label}: dump missing at {}", path.display());
    let records = parse_dump(&std::fs::read_to_string(&path).unwrap())
        .unwrap_or_else(|e| panic!("{label}: dump unparseable: {e}"));
    records
        .into_iter()
        .filter(|r| r.event.is_deterministic())
        .collect()
}

/// The killed engine's black box must contain its own fault injection.
fn assert_fault_recorded(flight: &FlightRec, label: &str) {
    assert!(
        flight
            .local_events()
            .iter()
            .any(|r| matches!(r.event, FlightEvent::FaultInjected { .. })),
        "{label}: kill not recorded in flight recorder"
    );
}

/// A single-process engine the sweep can construct fresh or with a
/// fault plan, and whose deterministic event clock it can read.
trait SweepEngine: ParEngine + Sized {
    const LABEL: &'static str;
    fn fresh() -> Self;
    fn with_plan(plan: FaultPlan) -> Self;
    fn events(&self) -> u64;
}

impl SweepEngine for SerialEngine {
    const LABEL: &'static str = "serial";
    fn fresh() -> Self {
        SerialEngine::new()
    }
    fn with_plan(plan: FaultPlan) -> Self {
        SerialEngine::new().with_fault_plan(plan)
    }
    fn events(&self) -> u64 {
        self.fault_events()
    }
}

impl SweepEngine for ThreadEngine {
    const LABEL: &'static str = "threads:3";
    fn fresh() -> Self {
        ThreadEngine::new(3)
    }
    fn with_plan(plan: FaultPlan) -> Self {
        ThreadEngine::new(3).with_fault_plan(plan)
    }
    fn events(&self) -> u64 {
        self.fault_events()
    }
}

impl SweepEngine for SimEngine {
    const LABEL: &'static str = "sim:4";
    fn fresh() -> Self {
        SimEngine::new(4)
    }
    fn with_plan(plan: FaultPlan) -> Self {
        SimEngine::new(4).with_fault_plan(plan)
    }
    fn events(&self) -> u64 {
        self.fault_events()
    }
}

/// Engine-event index of the last event of each task, probed by
/// running the three stages without a store and reading the fault
/// clock in between. The checkpointed learn runs the same stages and
/// issues the same number of engine events
/// (`checkpointed_learn_issues_the_plain_learns_engine_events` pins
/// that), so these boundaries are valid targets for kills inside a
/// checkpointed run.
fn probe_task_boundaries<E: SweepEngine>(data: &Dataset, config: &LearnerConfig) -> (u64, u64, u64) {
    let mut engine = E::fresh();
    let ensemble = run_ganesh(&mut engine, data, config, Scoring::Kernel, None).unwrap();
    let e1 = engine.events();
    let modules = run_consensus(&mut engine, data, config, &ensemble, None).unwrap();
    let e2 = engine.events();
    run_module_learning(&mut engine, data, config, &modules, Scoring::Kernel, None).unwrap();
    let e3 = engine.events();
    (e1, e2, e3)
}

/// Checkpointing adds no engine event: a checkpointed learn issues
/// exactly the plain learn's count, on the run-per-rank path
/// (threads:2, G = 4) and the split-proposal path (sim:4, G = 4).
fn assert_checkpointed_events_match_plain<E: ParEngine>(
    mk: impl Fn() -> E,
    events: fn(&E) -> u64,
    label: &str,
) {
    let (data, mut config) = setup();
    config.ganesh_runs = 4;
    let mut plain = mk();
    monet::learn_module_network(&mut plain, &data, &config);
    let dir = tmpdir(&format!("{label}_events"));
    let mut ckpt = mk();
    learn_with_checkpoint(&mut ckpt, &data, &config, &dir).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(events(&ckpt), events(&plain), "{label}");
}

#[test]
fn checkpointed_learn_issues_the_plain_learns_engine_events() {
    let threads = || ThreadEngine::new(2);
    assert_checkpointed_events_match_plain(threads, ThreadEngine::fault_events, "threads:2");
    let sim = || SimEngine::new(4);
    assert_checkpointed_events_match_plain(sim, SimEngine::fault_events, "sim:4");
}

/// Fault points covering all three tasks: early / mid / end of task 1,
/// the consensus event, and early / mid / final events of task 3.
fn fault_points(e1: u64, e2: u64, e3: u64) -> Vec<u64> {
    let mut points = vec![1, e1.div_ceil(2), e1, e2, e2 + 1, e2 + (e3 - e2).div_ceil(2), e3];
    points.sort_unstable();
    points.dedup();
    points
}

fn sweep_single_process<E: SweepEngine>() {
    silence_injected_panics();
    let (d, c) = setup();

    // Uninterrupted, checkpoint-free reference.
    let mut ref_engine = E::fresh();
    let (ref_net, ref_report) = monet::learn_module_network(&mut ref_engine, &d, &c);
    let ref_json = to_json(&ref_net);
    let ref_counters = equivalence_counters(&ref_engine);

    let (e1, e2, e3) = probe_task_boundaries::<E>(&d, &c);
    assert!(e1 < e2 && e2 < e3, "degenerate task boundaries {e1}/{e2}/{e3}");

    // Fault-free *checkpointed* reference flight: a killed checkpointed
    // run must replay-match its deterministic prefix (the CkptUnit
    // events only exist on the checkpointed code path).
    let ref_dir = tmpdir(&format!("{}_flightref", E::LABEL));
    let mut flight_ref_engine = E::fresh();
    learn_with_checkpoint(&mut flight_ref_engine, &d, &c, &ref_dir).unwrap();
    let ref_det = flight_ref_engine.obs().flight().det_events();
    std::fs::remove_dir_all(&ref_dir).ok();

    for event in fault_points(e1, e2, e3) {
        let label = format!("{} kill@{event} (t1≤{e1}, t2≤{e2}, t3≤{e3})", E::LABEL);
        let dir = tmpdir(&format!("{}_{event}", E::LABEL));

        // Phase 1: run with a kill planted at `event`; the injected
        // crash unwinds out of the learner mid-run. Flight recorder and
        // death stash are held outside the unwind path, like the CLI
        // harness holds them.
        let mut engine = E::with_plan(FaultPlan::new().kill(0, event));
        let flight = engine.obs().flight();
        let stash = engine.death_stash();
        let killed = catch_unwind(AssertUnwindSafe(|| {
            learn_with_checkpoint(&mut engine, &d, &c, &dir)
        }));
        assert!(killed.is_err(), "{label}: fault did not fire");

        // Post-mortem contract at every fault point: the dead engine
        // left a dumpable black box recording its own kill, a stashed
        // final snapshot, and a deterministic record that replay-matches
        // the fault-free reference up to the moment of death.
        let dump_dir = tmpdir(&format!("{}_{event}_dump", E::LABEL));
        let dumped_det = assert_dump(&flight, &dump_dir, &label);
        std::fs::remove_dir_all(&dump_dir).ok();
        assert!(!dumped_det.is_empty(), "{label}: empty deterministic record");
        assert_fault_recorded(&flight, &label);
        assert!(stash.get().is_some(), "{label}: no death snapshot stashed");
        if let Err(e) = det_overlap_matches(&dumped_det, &ref_det) {
            panic!("{label}: flight replay mismatch: {e}");
        }

        // Phase 2: resume on a fresh, fault-free engine. Everything
        // observable must be bit-identical to the uninterrupted run.
        let mut engine = E::fresh();
        let (net, report) = learn_with_checkpoint(&mut engine, &d, &c, &dir)
            .unwrap_or_else(|e| panic!("{label}: resume failed: {e}"));
        assert_eq!(to_json(&net), ref_json, "{label}: network diverged");
        assert_eq!(
            equivalence_counters(&engine),
            ref_counters,
            "{label}: counters diverged"
        );
        assert_eq!(
            phase_names(&report),
            phase_names(&ref_report),
            "{label}: phase sequence diverged"
        );
        assert_eq!(report.nranks, ref_report.nranks, "{label}");
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn kill_resume_equivalence_serial() {
    sweep_single_process::<SerialEngine>();
}

#[test]
fn kill_resume_equivalence_threads() {
    sweep_single_process::<ThreadEngine>();
}

#[test]
fn kill_resume_equivalence_sim() {
    sweep_single_process::<SimEngine>();
}

#[test]
fn kill_resume_equivalence_msg() {
    silence_injected_panics();
    let (d, c) = setup();
    let p = 3;

    // Uninterrupted, checkpoint-free reference (rank 0's view; the
    // determinism suite already asserts all ranks agree).
    let reference = mn_comm::spmd_run(p, |engine| {
        let (net, report) = monet::learn_module_network(engine, &d, &c);
        (
            to_json(&net),
            equivalence_counters(engine),
            phase_names(&report),
        )
    });
    let (ref_json, ref_counters, ref_phases) = reference[0].clone();

    // Probe the per-endpoint fabric-event total of a full checkpointed
    // run (checkpointing adds io_barrier traffic, so probe the same
    // code path the kills will interrupt), and keep its deterministic
    // flight record as the replay reference.
    let probe_dir = tmpdir("msg_probe");
    let probe = mn_comm::spmd_run(p, |engine| {
        learn_with_checkpoint(engine, &d, &c, &probe_dir).unwrap();
        (engine.endpoint().events(), engine.obs().flight().det_events())
    });
    std::fs::remove_dir_all(&probe_dir).ok();
    let total = probe.iter().map(|(e, _)| *e).min().unwrap();
    let ref_det = probe[0].1.clone();
    assert!(total > 12, "fabric event total {total} too small to sweep");

    // Kill the I/O rank (0) and a non-writer rank (1) at fabric events
    // spread over the whole run.
    let cases: Vec<(usize, u64)> = vec![
        (1, total / 6),
        (0, total / 3),
        (1, total / 2),
        (0, 2 * total / 3),
        (1, 5 * total / 6),
    ];
    for (victim, event) in cases {
        let label = format!("msg:{p} kill rank {victim}@{event}/{total}");
        let dir = tmpdir(&format!("msg_{victim}_{event}"));

        let (outcomes, capture) = mn_comm::spmd_run_faulty_recorded(
            p,
            FaultPlan::new().kill(victim, event),
            None,
            |engine| learn_with_checkpoint(engine, &d, &c, &dir).map(|_| ()),
        );
        assert!(
            outcomes[victim].is_err(),
            "{label}: victim survived: {outcomes:?}"
        );

        // Post-mortem contract: *every* rank — victim included — leaves
        // a parseable per-rank dump; the victim recorded its own kill
        // and stashed a final snapshot; and the victim's deterministic
        // record replay-matches every survivor and the fault-free
        // reference on the seq overlap window.
        let dump_dir = tmpdir(&format!("msg_{victim}_{event}_dump"));
        let per_rank_det: Vec<Vec<FlightRecord>> = capture
            .flights
            .iter()
            .enumerate()
            .map(|(rank, flight)| assert_dump(flight, &dump_dir, &format!("{label} rank {rank}")))
            .collect();
        std::fs::remove_dir_all(&dump_dir).ok();
        assert_fault_recorded(&capture.flights[victim], &label);
        assert!(
            capture.stashes[victim].get().is_some(),
            "{label}: victim left no death snapshot"
        );
        for rank in 0..p {
            if rank != victim {
                if let Err(e) = det_overlap_matches(&per_rank_det[victim], &per_rank_det[rank]) {
                    panic!("{label}: victim/rank-{rank} flight replay mismatch: {e}");
                }
            }
        }
        if let Err(e) = det_overlap_matches(&per_rank_det[victim], &ref_det) {
            panic!("{label}: victim/reference flight replay mismatch: {e}");
        }

        // Resume fault-free; every rank must reproduce the reference.
        let resumed = mn_comm::spmd_run(p, |engine| {
            let (net, report) = learn_with_checkpoint(engine, &d, &c, &dir)
                .unwrap_or_else(|e| panic!("{label}: resume failed: {e}"));
            (
                to_json(&net),
                equivalence_counters(engine),
                phase_names(&report),
                report.nranks,
            )
        });
        for (rank, (json, counters, phases, nranks)) in resumed.iter().enumerate() {
            assert_eq!(json, &ref_json, "{label}: rank {rank} network diverged");
            assert_eq!(counters, &ref_counters, "{label}: rank {rank} counters diverged");
            assert_eq!(phases, &ref_phases, "{label}: rank {rank} phases diverged");
            assert_eq!(*nranks, p, "{label}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Recursive checkpoint-directory copy, so one killed run can seed two
/// independent resumes (the replay-determinism half of the elastic
/// contract).
fn copy_dir(src: &Path, dst: &Path) {
    std::fs::create_dir_all(dst).unwrap();
    for entry in std::fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        let to = dst.join(entry.file_name());
        if entry.file_type().unwrap().is_dir() {
            copy_dir(&entry.path(), &to);
        } else {
            std::fs::copy(entry.path(), &to).unwrap();
        }
    }
}

/// Elastic restart (DESIGN.md §14): a run checkpointed at `p` ranks is
/// killed mid-task-3, then resumed at a *different* rank count `p′`.
/// Checkpoint units are rank-count independent (per GaneSH run / per
/// module tree), and the v2 manifest records the origin rank count as
/// provenance only, so the resume must succeed and finish with the
/// byte-identical network of an uninterrupted run — and two resumes
/// from the same checkpoint must replay-match each other's
/// deterministic flight record.
fn elastic_resume<A: SweepEngine, B: ParEngine>(mk_resume: impl Fn() -> B, resume_label: &str) {
    silence_injected_panics();
    let (d, c) = setup();
    let (ref_net, _) = monet::learn_module_network(&mut SerialEngine::new(), &d, &c);
    let ref_json = to_json(&ref_net);

    let (e1, e2, e3) = probe_task_boundaries::<A>(&d, &c);
    assert!(e1 < e2 && e2 < e3, "degenerate task boundaries {e1}/{e2}/{e3}");
    // Mid task 3: the checkpoint holds completed task-1 and task-2
    // units plus a partial tree sweep when the kill lands.
    let event = e2 + (e3 - e2).div_ceil(2);
    let label = format!("{} kill@{event} → resume {resume_label}", A::LABEL);
    let dir = tmpdir(&format!("elastic_{}_{resume_label}", A::LABEL));

    let mut engine = A::with_plan(FaultPlan::new().kill(0, event));
    let killed = catch_unwind(AssertUnwindSafe(|| {
        learn_with_checkpoint(&mut engine, &d, &c, &dir)
    }));
    assert!(killed.is_err(), "{label}: fault did not fire");

    // Duplicate the dead run's checkpoint so the second resume sees the
    // same starting state (the first resume completes the store).
    let dir_b = tmpdir(&format!("elastic_{}_{resume_label}_b", A::LABEL));
    copy_dir(&dir, &dir_b);

    let mut first = mk_resume();
    let (net, _) = learn_with_checkpoint(&mut first, &d, &c, &dir)
        .unwrap_or_else(|e| panic!("{label}: elastic resume failed: {e}"));
    assert_eq!(to_json(&net), ref_json, "{label}: network diverged");
    let det_first = first.obs().flight().det_events();

    let mut second = mk_resume();
    let (net2, _) = learn_with_checkpoint(&mut second, &d, &c, &dir_b)
        .unwrap_or_else(|e| panic!("{label}: second elastic resume failed: {e}"));
    assert_eq!(to_json(&net2), ref_json, "{label}: replayed network diverged");
    if let Err(e) = det_overlap_matches(&det_first, &second.obs().flight().det_events()) {
        panic!("{label}: elastic replay flight mismatch: {e}");
    }
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&dir_b).ok();
}

#[test]
fn elastic_resume_serial_to_two_ranks() {
    // p = 1 → p′ = 2p: the serial checkpoint restarts on a parallel
    // engine.
    elastic_resume::<SerialEngine, _>(|| ThreadEngine::new(2), "threads:2");
}

#[test]
fn elastic_resume_threads_shrink_and_grow() {
    // p = 3 → p′ ∈ {p − 1, 2p}.
    elastic_resume::<ThreadEngine, _>(|| ThreadEngine::new(2), "threads:2");
    elastic_resume::<ThreadEngine, _>(|| ThreadEngine::new(6), "threads:6");
}

#[test]
fn elastic_resume_sim_shrink_and_grow() {
    // p = 4 → p′ ∈ {p − 1, 2p}.
    elastic_resume::<SimEngine, _>(|| SimEngine::new(3), "sim:3");
    elastic_resume::<SimEngine, _>(|| SimEngine::new(8), "sim:8");
}

#[test]
fn elastic_resume_msg_shrink_and_grow() {
    // The real fabric: checkpoint at p = 3 ranks, kill a non-writer
    // rank mid-run, resume the surviving store at p′ ∈ {2, 6}. Every
    // rank of the elastic resume must reproduce the uninterrupted
    // reference, and a second resume from a copy of the checkpoint
    // must replay-match the first's deterministic flight record.
    silence_injected_panics();
    let (d, c) = setup();
    let p = 3;
    let reference = mn_comm::spmd_run(p, |engine| {
        let (net, _) = monet::learn_module_network(engine, &d, &c);
        to_json(&net)
    });
    let ref_json = reference[0].clone();

    let probe_dir = tmpdir("msg_elastic_probe");
    let probe = mn_comm::spmd_run(p, |engine| {
        learn_with_checkpoint(engine, &d, &c, &probe_dir).unwrap();
        engine.endpoint().events()
    });
    std::fs::remove_dir_all(&probe_dir).ok();
    let total = probe.iter().copied().min().unwrap();

    for p_prime in [2usize, 6] {
        let label = format!("msg:{p} → msg:{p_prime}");
        let dir = tmpdir(&format!("msg_elastic_{p_prime}"));
        let (outcomes, _) = mn_comm::spmd_run_faulty_recorded(
            p,
            FaultPlan::new().kill(1, total / 2),
            None,
            |engine| learn_with_checkpoint(engine, &d, &c, &dir).map(|_| ()),
        );
        assert!(outcomes[1].is_err(), "{label}: victim survived");

        let dir_b = tmpdir(&format!("msg_elastic_{p_prime}_b"));
        copy_dir(&dir, &dir_b);

        let first = mn_comm::spmd_run(p_prime, |engine| {
            let (net, report) = learn_with_checkpoint(engine, &d, &c, &dir)
                .unwrap_or_else(|e| panic!("{label}: elastic resume failed: {e}"));
            assert_eq!(report.nranks, p_prime, "{label}");
            (to_json(&net), engine.obs().flight().det_events())
        });
        for (rank, (json, _)) in first.iter().enumerate() {
            assert_eq!(json, &ref_json, "{label}: rank {rank} network diverged");
        }
        let second = mn_comm::spmd_run(p_prime, |engine| {
            let (net, _) = learn_with_checkpoint(engine, &d, &c, &dir_b)
                .unwrap_or_else(|e| panic!("{label}: second elastic resume failed: {e}"));
            (to_json(&net), engine.obs().flight().det_events())
        });
        assert_eq!(second[0].0, ref_json, "{label}: replayed network diverged");
        if let Err(e) = det_overlap_matches(&first[0].1, &second[0].1) {
            panic!("{label}: elastic replay flight mismatch: {e}");
        }
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&dir_b).ok();
    }
}

#[test]
fn fault_free_checkpointed_msg_run_matches_plain_run() {
    // The fault-free half of the contract on the real fabric: enabling
    // checkpointing (including its uncounted io_barrier) must not
    // perturb the network or the equivalence counters.
    let (d, c) = setup();
    let p = 3;
    let plain = mn_comm::spmd_run(p, |engine| {
        let (net, _) = monet::learn_module_network(engine, &d, &c);
        (to_json(&net), equivalence_counters(engine))
    });
    let dir = tmpdir("msg_plain_eq");
    let ckpt = mn_comm::spmd_run(p, |engine| {
        let (net, _) = learn_with_checkpoint(engine, &d, &c, &dir).unwrap();
        (to_json(&net), equivalence_counters(engine))
    });
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(plain, ckpt);
}
