//! The pipeline's three tasks as stage functions, each optionally
//! checkpointed.
//!
//! §5.3 of the paper: "any intermediate files and the final MoNet
//! structure ... are written to the disk by the process with rank 0".
//! [`run_ganesh`], [`run_consensus`] and [`run_module_learning`] are the
//! only implementation of the three Lemon-Tree tasks. Each takes an
//! optional [`CheckpointStore`]: with `None` a stage computes its units
//! and nothing else (the plain [`crate::learn_module_network`]); with a
//! store it restores the units the store holds and persists the ones it
//! computes, so a long run (the paper's runs last hours even on 4096
//! cores) resumes after an interruption without repeating finished
//! work ([`learn_with_checkpoint`]).
//!
//! Tasks 1 and 3 also take the [`Scoring`] path of their candidate
//! lists: the GaneSH sweeps, the module trees' observation sampler and
//! split assignment. `Scoring::Naive` runs the per-candidate oracles,
//! the Lemon-Tree cost profile of Table 1 (`monet --reference`); it
//! learns the same network as `Scoring::Kernel`. Consensus clustering,
//! the tree merges and parent scoring have one path.

use crate::checkpoint::{CheckpointError, CheckpointStore, ResumePolicy, UnitRecord};
use crate::config::LearnerConfig;
use crate::learn::phases;
use crate::model::{Module, ModuleNetwork};
use mn_comm::{ParEngine, RunReport};
use mn_consensus::{build_cooccurrence, extract_clusters};
use mn_data::Dataset;
use mn_gibbs::{ganesh_with_scoring, runs_whole_per_rank};
use mn_rand::MasterRng;
use mn_score::Scoring;
use mn_tree::{
    assign_splits_in, learn_module_trees_with_scoring, learn_parents, ModuleEnsemble, SplitContext,
};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;

/// Task 1: sample the GaneSH co-clustering ensemble, one unit per run
/// (`ganesh_run_<g>`); `ensemble[g]` holds the variable clusters of run
/// `g`.
///
/// The paper runs the `G` instances concurrently on `p/G` processors
/// each "without any communication". When `1 < p ≤ G`
/// ([`runs_whole_per_rank`]) every run the store lacks is a task of
/// [`ParEngine::dist_tasks`]: it goes whole to the rank that owns it
/// under the block split, and the units then commit in run order, each
/// with its run's own counter deltas folded in. Otherwise (one rank, or
/// more ranks than runs) the runs go one after another, each proposal's
/// map split over all ranks. Each run draws only from its own keyed
/// streams, so the ensemble, the counters and the deterministic flight
/// sequence are the same on both paths.
pub fn run_ganesh<E: ParEngine>(
    engine: &mut E,
    data: &Dataset,
    config: &LearnerConfig,
    scoring: Scoring,
    mut store: Option<&mut CheckpointStore>,
) -> Result<Vec<Vec<Vec<usize>>>, CheckpointError> {
    let master = MasterRng::new(config.seed);
    let params = &config.ganesh;
    engine.begin_phase(phases::GANESH);
    let g_runs = config.ganesh_runs;
    let mut computed = BTreeMap::new();
    if runs_whole_per_rank(engine.nranks(), g_runs) {
        let missing: Vec<usize> = (0..g_runs)
            .filter(|&run| {
                store.as_deref().is_none_or(|store| {
                    store
                        .get::<Vec<Vec<usize>>>(&format!("ganesh_run_{run}"))
                        .is_none()
                })
            })
            .collect();
        let runs = engine.dist_tasks(missing.len(), &|i, task| {
            let run = missing[i] as u64;
            ganesh_with_scoring(task, data, &master, run, params, scoring).var_cluster_members()
        });
        computed.extend(missing.into_iter().zip(runs));
    }
    let mut ensemble = Vec::with_capacity(g_runs);
    for run in 0..g_runs {
        ensemble.push(run_unit(
            engine,
            store.as_deref_mut(),
            format_args!("ganesh_run_{run}"),
            |engine| match computed.remove(&run) {
                Some((members, delta)) => {
                    delta.fold_into(engine.obs_mut());
                    members
                }
                None => ganesh_with_scoring(engine, data, &master, run as u64, params, scoring)
                    .var_cluster_members(),
            },
        )?);
    }
    Ok(ensemble)
}

/// Task 2: consensus clustering of the ensemble, sharded over the
/// engine; returns the module member lists. Two units: the thresholded
/// matrix (`consensus_cooc`, in its canonical upper-triangle form) and
/// the extracted partition (`consensus`), so a run killed between the
/// build and the extraction resumes from the matrix.
pub fn run_consensus<E: ParEngine>(
    engine: &mut E,
    data: &Dataset,
    config: &LearnerConfig,
    ensemble: &[Vec<Vec<usize>>],
    mut store: Option<&mut CheckpointStore>,
) -> Result<Vec<Vec<usize>>, CheckpointError> {
    engine.begin_phase(phases::CONSENSUS);
    let matrix = run_unit(
        engine,
        store.as_deref_mut(),
        format_args!("consensus_cooc"),
        |engine| build_cooccurrence(engine, data.n_vars(), ensemble, &config.consensus),
    )?;
    run_unit(engine, store, format_args!("consensus"), |engine| {
        extract_clusters(engine, &matrix, &config.consensus).clusters
    })
}

/// Task 3: learn each module's tree ensemble (one unit per module,
/// `module_<k>`), then assign splits, score parents and assemble the
/// network. The tail is deterministic given the tree ensembles (the
/// split/parent streams are keyed, not positional), so it is recomputed
/// rather than persisted.
pub fn run_module_learning<E: ParEngine>(
    engine: &mut E,
    data: &Dataset,
    config: &LearnerConfig,
    modules: &[Vec<usize>],
    scoring: Scoring,
    mut store: Option<&mut CheckpointStore>,
) -> Result<ModuleNetwork, CheckpointError> {
    let master = MasterRng::new(config.seed);
    engine.begin_phase(phases::MODULES);
    let mut ensembles = Vec::with_capacity(modules.len());
    for (k, vars) in modules.iter().enumerate() {
        ensembles.push(run_unit(
            engine,
            store.as_deref_mut(),
            format_args!("module_{k}"),
            |engine| {
                let tree = &config.tree;
                learn_module_trees_with_scoring(engine, data, &master, k, vars, tree, scoring)
            },
        )?);
    }
    let network = finish_module_learning(engine, data, config, &master, ensembles, scoring);
    Ok(network)
}

/// The three stages in order, sharing one optional store.
pub(crate) fn run_pipeline<E: ParEngine>(
    engine: &mut E,
    data: &Dataset,
    config: &LearnerConfig,
    scoring: Scoring,
    mut store: Option<&mut CheckpointStore>,
) -> Result<ModuleNetwork, CheckpointError> {
    let ensemble = run_ganesh(engine, data, config, scoring, store.as_deref_mut())?;
    let modules = run_consensus(engine, data, config, &ensemble, store.as_deref_mut())?;
    run_module_learning(engine, data, config, &modules, scoring, store)
}

/// The tail of task 3, shared with the two-step baseline
/// ([`crate::genomica::learn_two_step`]): split assignment over the
/// global candidate list on the `scoring` path, parent scoring, and
/// network assembly. Module `k` is `ensembles[k]`.
pub(crate) fn finish_module_learning<E: ParEngine>(
    engine: &mut E,
    data: &Dataset,
    config: &LearnerConfig,
    master: &MasterRng,
    ensembles: Vec<ModuleEnsemble>,
    scoring: Scoring,
) -> ModuleNetwork {
    let parents_list = config.resolved_parents(data.n_vars());
    let assignment = assign_splits_in(
        engine,
        data,
        master,
        &ensembles,
        &parents_list,
        &config.tree,
        scoring,
        &mut SplitContext::new(),
    );
    let parents = learn_parents(engine, &ensembles, &assignment);

    let mut var_assignment: Vec<Option<usize>> = vec![None; data.n_vars()];
    let mut modules = Vec::with_capacity(ensembles.len());
    for ((k, ensemble), parents) in ensembles.into_iter().enumerate().zip(parents) {
        for &v in &ensemble.vars {
            var_assignment[v] = Some(k);
        }
        modules.push(Module {
            index: k,
            vars: ensemble.vars.clone(),
            ensemble,
            parents,
        });
    }
    let network = ModuleNetwork {
        var_names: data.var_names.clone(),
        modules,
        assignment: var_assignment,
        seed: config.seed,
    };
    network.validate();
    network
}

/// Counter increments produced since the `before` snapshot — the
/// deltas persisted with a checkpoint unit so a resume can replay
/// them.
fn counter_delta<E: ParEngine>(
    before: &BTreeMap<String, u64>,
    engine: &E,
) -> BTreeMap<String, u64> {
    engine
        .obs()
        .counters()
        .iter()
        .filter_map(|(name, &after)| {
            let delta = after - before.get(name).copied().unwrap_or(0);
            // Keys that first appeared inside the window are recorded
            // even at delta 0 (`incr(_, 0)` creates a counter — e.g. a
            // consensus run that dropped nothing), so a resumed run
            // exposes the identical counter key set.
            (delta > 0 || !before.contains_key(name)).then(|| (name.clone(), delta))
        })
        .collect()
}

/// Execute one unit. Without a store this is exactly `compute(engine)`:
/// no unit name is formatted, no counter is read, nothing is recorded.
/// With one, restore the unit (replaying its counter deltas so the
/// recorder state is bit-identical to having computed it) when the
/// store holds it, otherwise compute it, capture the deltas, and
/// persist both. `checkpoint.units_written` / `checkpoint.units_skipped`
/// are bumped *outside* the captured window, identically on every rank,
/// and excluded from cross-run equivalence (see [`mn_obs::counters`]).
fn run_unit<E, T>(
    engine: &mut E,
    store: Option<&mut CheckpointStore>,
    unit: fmt::Arguments<'_>,
    compute: impl FnOnce(&mut E) -> T,
) -> Result<T, CheckpointError>
where
    E: ParEngine,
    T: Serialize + Deserialize,
{
    let Some(store) = store else {
        return Ok(compute(engine));
    };
    let unit = unit.to_string();
    if let Some(record) = store.get::<T>(&unit) {
        for (name, by) in &record.counters {
            engine.obs_mut().incr(name, *by);
        }
        engine.count(mn_obs::counters::CHECKPOINT_UNITS_SKIPPED, 1);
        // Restores happen identically on every rank (the post-load
        // io_barrier replicates the decision), so this is a
        // *deterministic* flight event: replay-comparable across
        // engines and rank counts.
        engine.obs().flight_event(mn_obs::FlightEvent::CkptUnit {
            unit,
            written: false,
        });
        return Ok(record.value);
    }
    let before = engine.obs().counters().clone();
    let value = compute(engine);
    let counters = counter_delta(&before, engine);
    let record = UnitRecord { value, counters };
    store.put(&unit, &record)?;
    engine.count(mn_obs::counters::CHECKPOINT_UNITS_WRITTEN, 1);
    // Recorded on all ranks (not just the io rank): unit completion is
    // replicated control flow, and the deterministic flight sequence
    // must not depend on which rank holds the file handle.
    engine.obs().flight_event(mn_obs::FlightEvent::CkptUnit {
        unit,
        written: true,
    });
    Ok(record.value)
}

/// Run the pipeline with fine-grained checkpointing in the directory
/// `dir`, under [`ResumePolicy::Auto`] (an unusable or mismatched
/// checkpoint is silently discarded). See
/// [`learn_with_checkpoint_policy`] for the semantics.
pub fn learn_with_checkpoint<E: ParEngine, P: AsRef<Path>>(
    engine: &mut E,
    data: &Dataset,
    config: &LearnerConfig,
    dir: P,
) -> Result<(ModuleNetwork, RunReport), CheckpointError> {
    learn_with_checkpoint_policy(engine, data, config, dir, ResumePolicy::Auto)
}

/// Run the pipeline, resuming from (and extending) the checkpoint
/// directory `dir`.
///
/// The stages run with the opened store, so progress is persisted per
/// *unit* — each GaneSH run of task 1 (`ganesh_run_<g>.json`), the
/// thresholded matrix and the consensus partition of task 2
/// (`consensus_cooc.json`, `consensus.json`), and each module's tree
/// ensemble of task 3 (`module_<k>.json`) — and a run killed mid-task
/// resumes after the last completed unit rather than at a stage
/// boundary. Split assignment and parent scoring recompute from the
/// stored ensembles (they are deterministic under the keyed-stream
/// discipline).
///
/// Restored units replay their recorded counter deltas, and every
/// phase is begun whether or not its units were skipped, so a resumed
/// run finishes with the same counters, phase sequence, and (by the
/// keyed-stream discipline) bit-identical network as the uninterrupted
/// run — the property `tests/fault_resume.rs` sweeps. Only
/// [`ParEngine::io_rank`] writes; an uncounted
/// [`ParEngine::io_barrier`] after the load keeps SPMD ranks' resume
/// decisions replicated without perturbing the accounting.
pub fn learn_with_checkpoint_policy<E: ParEngine, P: AsRef<Path>>(
    engine: &mut E,
    data: &Dataset,
    config: &LearnerConfig,
    dir: P,
    policy: ResumePolicy,
) -> Result<(ModuleNetwork, RunReport), CheckpointError> {
    let checkpoint = Some((dir.as_ref(), policy));
    learn_module_network_with(engine, data, config, Scoring::Kernel, checkpoint)
}

/// The one learn entry, which the batch CLI and `mn-bench table1`
/// call: validate `config`, open the checkpoint store when `checkpoint`
/// names a directory and its resume policy, and run the three stages on
/// the `scoring` path. `Scoring::Naive` is `monet --reference`.
/// [`crate::learn_module_network`] and [`learn_with_checkpoint_policy`]
/// are this entry on `Scoring::Kernel`.
pub fn learn_module_network_with<E: ParEngine>(
    engine: &mut E,
    data: &Dataset,
    config: &LearnerConfig,
    scoring: Scoring,
    checkpoint: Option<(&Path, ResumePolicy)>,
) -> Result<(ModuleNetwork, RunReport), CheckpointError> {
    let config = config.clone().validated().expect("invalid configuration");
    let mut store = match checkpoint {
        Some((dir, policy)) => {
            let (nranks, io_rank) = (engine.nranks(), engine.io_rank());
            let store = CheckpointStore::open_run(dir, &config, data, nranks, policy, io_rank)?;
            engine.io_barrier();
            Some(store)
        }
        None => None,
    };
    let network = run_pipeline(engine, data, &config, scoring, store.as_mut())?;
    Ok((network, engine.report()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::learn::learn_module_network;
    use mn_comm::SerialEngine;
    use mn_data::synthetic;
    use std::path::PathBuf;

    fn setup() -> (Dataset, LearnerConfig) {
        (
            synthetic::yeast_like(20, 14, 31).dataset,
            LearnerConfig::paper_minimum(6),
        )
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("monet_stages_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    /// Counters minus the `checkpoint.*` bookkeeping — the set the
    /// cross-run equivalence contract covers.
    fn equivalence_counters(engine: &SerialEngine) -> BTreeMap<String, u64> {
        engine
            .obs()
            .counters()
            .iter()
            .filter(|(name, _)| !name.starts_with("checkpoint."))
            .map(|(name, &v)| (name.clone(), v))
            .collect()
    }

    #[test]
    fn staged_run_equals_one_shot_run() {
        let (d, c) = setup();
        let (oneshot, _) = learn_module_network(&mut SerialEngine::new(), &d, &c);

        let mut engine = SerialEngine::new();
        let kernel = Scoring::Kernel;
        let ensemble = run_ganesh(&mut engine, &d, &c, kernel, None).unwrap();
        let modules = run_consensus(&mut engine, &d, &c, &ensemble, None).unwrap();
        let staged = run_module_learning(&mut engine, &d, &c, &modules, kernel, None).unwrap();
        assert_eq!(oneshot, staged);
    }

    #[test]
    fn checkpointed_run_is_identical_to_plain_run() {
        // The crash-consistency contract's fault-free half: enabling
        // checkpointing perturbs neither the network nor the counters.
        let (d, c) = setup();
        let dir = tmpdir("plain_eq");
        let mut plain_engine = SerialEngine::new();
        let (plain, plain_report) = learn_module_network(&mut plain_engine, &d, &c);

        let mut ckpt_engine = SerialEngine::new();
        let (ckpt, ckpt_report) =
            learn_with_checkpoint(&mut ckpt_engine, &d, &c, &dir).unwrap();
        assert_eq!(
            crate::to_json(&plain),
            crate::to_json(&ckpt),
            "checkpoint writes must not perturb the learned network"
        );
        assert_eq!(
            equivalence_counters(&plain_engine),
            equivalence_counters(&ckpt_engine)
        );
        let phase_names =
            |r: &mn_comm::RunReport| r.phases.iter().map(|p| p.name.clone()).collect::<Vec<_>>();
        assert_eq!(phase_names(&plain_report), phase_names(&ckpt_report));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_roundtrips_and_resumes() {
        let (d, c) = setup();
        let dir = tmpdir("resume");

        let mut e1 = SerialEngine::new();
        let (first, _) = learn_with_checkpoint(&mut e1, &d, &c, &dir).unwrap();
        let written = e1.obs().counter(mn_obs::counters::CHECKPOINT_UNITS_WRITTEN);
        assert!(written >= 3, "expected ≥3 units (G runs + consensus + modules)");
        assert_eq!(e1.obs().counter(mn_obs::counters::CHECKPOINT_UNITS_SKIPPED), 0);

        // Second run restores every unit; network, equivalence
        // counters, and phase sequence are bit-identical.
        let mut e2 = SerialEngine::new();
        let (second, report2) = learn_with_checkpoint(&mut e2, &d, &c, &dir).unwrap();
        assert_eq!(first, second);
        assert_eq!(
            e2.obs().counter(mn_obs::counters::CHECKPOINT_UNITS_SKIPPED),
            written,
            "every persisted unit should have been restored"
        );
        assert_eq!(equivalence_counters(&e1), equivalence_counters(&e2));
        assert_eq!(report2.phases.len(), 3, "phases are begun even when skipped");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn partial_checkpoint_resumes_mid_task() {
        // Drop the consensus + module units from a finished checkpoint:
        // the resumed run restores the GaneSH runs, recomputes the rest,
        // and still matches bit-for-bit.
        let (d, c) = setup();
        let dir = tmpdir("partial");
        let mut e1 = SerialEngine::new();
        let (first, _) = learn_with_checkpoint(&mut e1, &d, &c, &dir).unwrap();

        let manifest_path = dir.join(crate::checkpoint::MANIFEST_FILE);
        let mut manifest: crate::checkpoint::Manifest =
            serde_json::from_str(&std::fs::read_to_string(&manifest_path).unwrap()).unwrap();
        manifest
            .entries
            .retain(|unit, _| unit.starts_with("ganesh_run_"));
        std::fs::write(&manifest_path, serde_json::to_string(&manifest).unwrap()).unwrap();

        let mut e2 = SerialEngine::new();
        let (second, _) = learn_with_checkpoint(&mut e2, &d, &c, &dir).unwrap();
        assert_eq!(first, second);
        assert_eq!(equivalence_counters(&e1), equivalence_counters(&e2));
        assert!(
            e2.obs().counter(mn_obs::counters::CHECKPOINT_UNITS_SKIPPED) > 0
                && e2.obs().counter(mn_obs::counters::CHECKPOINT_UNITS_WRITTEN) > 0,
            "resume should mix restored and recomputed units"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mismatched_checkpoint_is_ignored() {
        let (d, c) = setup();
        let dir = tmpdir("mismatch");
        learn_with_checkpoint(&mut SerialEngine::new(), &d, &c, &dir).unwrap();

        // Different seed: stale checkpoint must not be reused (Auto
        // discards it silently).
        let mut c2 = c.clone();
        c2.seed = 999;
        let mut e2 = SerialEngine::new();
        let (net2, _) = learn_with_checkpoint(&mut e2, &d, &c2, &dir).unwrap();
        assert_eq!(
            e2.obs().counter(mn_obs::counters::CHECKPOINT_UNITS_SKIPPED),
            0,
            "stale checkpoint should have been discarded"
        );
        let (reference, _) = learn_module_network(&mut SerialEngine::new(), &d, &c2);
        assert_eq!(net2, reference);

        // Strict refuses the same mismatch with a typed error.
        let err = learn_with_checkpoint_policy(
            &mut SerialEngine::new(),
            &d,
            &c,
            &dir,
            ResumePolicy::Strict,
        )
        .unwrap_err();
        assert!(matches!(err, CheckpointError::Mismatch { .. }), "{err:?}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
