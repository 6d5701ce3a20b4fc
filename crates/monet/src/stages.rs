//! The pipeline as resumable stages, with checkpointing.
//!
//! §5.3 of the paper: "any intermediate files and the final MoNet
//! structure ... are written to the disk by the process with rank 0".
//! This module exposes the three Lemon-Tree tasks as separate stage
//! functions with serializable outputs, plus a [`Checkpoint`] that
//! persists completed stages so a long run (the paper's runs last
//! hours even on 4096 cores) can resume after an interruption without
//! repeating finished work.
//!
//! [`crate::learn_module_network`] is the one-shot composition of
//! these stages; [`learn_with_checkpoint`] is the resumable one.

use crate::checkpoint::{
    data_fingerprint, CheckpointError, CheckpointStore, ResumePolicy, UnitRecord,
};
use crate::config::LearnerConfig;
use crate::learn::phases;
use crate::model::{Module, ModuleNetwork};
use mn_comm::ParEngine;
use mn_consensus::{build_cooccurrence, consensus_outcome, extract_clusters, SparseSymMatrix};
use mn_data::Dataset;
use mn_gibbs::{ganesh, ganesh_ensemble, runs_whole_per_rank};
use mn_rand::MasterRng;
use mn_tree::{assign_splits, learn_module_trees, learn_parents, ModuleEnsemble};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::Path;

/// Output of task 1 (GaneSH): the sampled variable-cluster ensemble.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GaneshOutput {
    /// `ensemble[g]` = the variable clusters of run `g`.
    pub ensemble: Vec<Vec<Vec<usize>>>,
}

/// Output of task 2 (consensus): the module member lists.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConsensusOutput {
    /// `modules[k]` = sorted variables of module `k`.
    pub modules: Vec<Vec<usize>>,
}

/// Task 1: sample the GaneSH co-clustering ensemble.
pub fn run_ganesh<E: ParEngine>(
    engine: &mut E,
    data: &Dataset,
    config: &LearnerConfig,
) -> GaneshOutput {
    let master = MasterRng::new(config.seed);
    engine.begin_phase(phases::GANESH);
    GaneshOutput {
        ensemble: ganesh_ensemble(engine, data, &master, config.ganesh_runs, &config.ganesh),
    }
}

/// Task 2: consensus clustering of the ensemble, sharded over the
/// engine.
pub fn run_consensus<E: ParEngine>(
    engine: &mut E,
    data: &Dataset,
    config: &LearnerConfig,
    ganesh: &GaneshOutput,
) -> ConsensusOutput {
    engine.begin_phase(phases::CONSENSUS);
    let outcome = consensus_outcome(engine, data.n_vars(), &ganesh.ensemble, &config.consensus);
    ConsensusOutput {
        modules: outcome.clusters,
    }
}

/// Task 3: learn trees, assign splits, score parents, and assemble the
/// network.
pub fn run_module_learning<E: ParEngine>(
    engine: &mut E,
    data: &Dataset,
    config: &LearnerConfig,
    consensus: &ConsensusOutput,
) -> ModuleNetwork {
    let master = MasterRng::new(config.seed);
    engine.begin_phase(phases::MODULES);
    let ensembles: Vec<_> = consensus
        .modules
        .iter()
        .enumerate()
        .map(|(k, vars)| learn_module_trees(engine, data, &master, k, vars, &config.tree))
        .collect();
    finish_module_learning(engine, data, config, &master, ensembles)
}

/// The tail of task 3 shared by the one-shot and checkpointed paths:
/// split assignment over the global candidate list, parent scoring,
/// and network assembly. Deterministic given the tree ensembles (the
/// split/parent streams are keyed, not positional), so checkpointed
/// runs recompute it instead of persisting it.
fn finish_module_learning<E: ParEngine>(
    engine: &mut E,
    data: &Dataset,
    config: &LearnerConfig,
    master: &MasterRng,
    ensembles: Vec<ModuleEnsemble>,
) -> ModuleNetwork {
    let parents_list = config.resolved_parents(data.n_vars());
    let assignment = assign_splits(engine, data, master, &ensembles, &parents_list, &config.tree);
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

/// A persisted pipeline state: completed stage outputs plus the
/// fingerprint that guards against resuming with a different problem.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Checkpoint {
    /// Master seed of the run.
    pub seed: u64,
    /// Data fingerprint: (n, m, sum of all cells) — cheap and
    /// sufficient to catch "resumed against the wrong matrix".
    pub fingerprint: (usize, usize, f64),
    /// Completed task 1, if any.
    pub ganesh: Option<GaneshOutput>,
    /// Completed task 2, if any.
    pub consensus: Option<ConsensusOutput>,
}

impl Checkpoint {
    /// Fresh checkpoint for a (data, config) pair.
    pub fn new(data: &Dataset, config: &LearnerConfig) -> Self {
        Self {
            seed: config.seed,
            fingerprint: Self::fingerprint(data),
            ganesh: None,
            consensus: None,
        }
    }

    fn fingerprint(data: &Dataset) -> (usize, usize, f64) {
        (
            data.n_vars(),
            data.n_obs(),
            data.matrix.as_slice().iter().sum(),
        )
    }

    /// Whether this checkpoint belongs to the given problem.
    pub fn matches(&self, data: &Dataset, config: &LearnerConfig) -> bool {
        self.seed == config.seed && self.fingerprint == Self::fingerprint(data)
    }

    /// Persist as JSON.
    pub fn save<P: AsRef<Path>>(&self, path: P) -> std::io::Result<()> {
        let text = serde_json::to_string(self).expect("checkpoint serialization");
        std::fs::write(path, text)
    }

    /// Load from JSON.
    pub fn load<P: AsRef<Path>>(path: P) -> std::io::Result<Self> {
        let text = std::fs::read_to_string(path)?;
        serde_json::from_str(&text)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }
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

/// Execute one checkpoint unit: restore it (replaying its counter
/// deltas so the recorder state is bit-identical to having computed
/// it) when the store holds it, otherwise compute it, capture the
/// deltas, and persist both. `checkpoint.units_written` /
/// `checkpoint.units_skipped` are bumped *outside* the captured
/// window, identically on every rank, and excluded from cross-run
/// equivalence (see [`mn_obs::counters`]).
fn run_unit<E, T>(
    engine: &mut E,
    store: &mut CheckpointStore,
    unit: &str,
    compute: impl FnOnce(&mut E) -> T,
) -> Result<T, CheckpointError>
where
    E: ParEngine,
    T: Serialize + Deserialize,
{
    if let Some(record) = store.get::<T>(unit) {
        for (name, by) in &record.counters {
            engine.obs_mut().incr(name, *by);
        }
        engine.count(mn_obs::counters::CHECKPOINT_UNITS_SKIPPED, 1);
        // Restores happen identically on every rank (the post-load
        // io_barrier replicates the decision), so this is a
        // *deterministic* flight event: replay-comparable across
        // engines and rank counts.
        engine.obs().flight_event(mn_obs::FlightEvent::CkptUnit {
            unit: unit.to_string(),
            written: false,
        });
        return Ok(record.value);
    }
    let before = engine.obs().counters().clone();
    let value = compute(engine);
    let counters = counter_delta(&before, engine);
    let record = UnitRecord { value, counters };
    store.put(unit, &record)?;
    engine.count(mn_obs::counters::CHECKPOINT_UNITS_WRITTEN, 1);
    // Recorded on all ranks (not just the io rank): unit completion is
    // replicated control flow, and the deterministic flight sequence
    // must not depend on which rank holds the file handle.
    engine.obs().flight_event(mn_obs::FlightEvent::CkptUnit {
        unit: unit.to_string(),
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
) -> Result<(ModuleNetwork, mn_comm::RunReport), CheckpointError> {
    learn_with_checkpoint_policy(engine, data, config, dir, ResumePolicy::Auto)
}

/// Run the pipeline, resuming from (and extending) the checkpoint
/// directory `dir`.
///
/// Progress is persisted per *unit* — each GaneSH run of task 1
/// (`ganesh_run_<g>.json`), the consensus partition of task 2
/// (`consensus.json`), and each module's tree ensemble of task 3
/// (`module_<k>.json`) — so a run killed mid-task resumes after the
/// last completed unit rather than at a stage boundary. Split
/// assignment and parent scoring recompute from the stored ensembles
/// (they are deterministic under the keyed-stream discipline). When the
/// GaneSH runs go whole to ranks ([`mn_gibbs::runs_whole_per_rank`]),
/// the runs the store lacks are computed first and their units then
/// commit in run order, each with its run's own counter deltas.
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
) -> Result<(ModuleNetwork, mn_comm::RunReport), CheckpointError> {
    let config = config.clone().validated().expect("invalid configuration");
    let mut store = CheckpointStore::open(
        dir,
        config.seed,
        data_fingerprint(data),
        engine.nranks(),
        policy,
        engine.io_rank(),
    )?;
    engine.io_barrier();

    // Task 1 — one unit per GaneSH run (independent keyed streams).
    let master = MasterRng::new(config.seed);
    engine.begin_phase(phases::GANESH);
    let g_runs = config.ganesh_runs;
    let unit = |run: usize| format!("ganesh_run_{run}");
    let mut computed = BTreeMap::new();
    if runs_whole_per_rank(engine.nranks(), g_runs) {
        let missing: Vec<usize> = (0..g_runs)
            .filter(|&run| store.get::<Vec<Vec<usize>>>(&unit(run)).is_none())
            .collect();
        let runs = engine.dist_tasks(missing.len(), &|i, task| {
            ganesh(task, data, &master, missing[i] as u64, &config.ganesh).var_cluster_members()
        });
        computed.extend(missing.into_iter().zip(runs));
    }
    let mut ensemble = Vec::with_capacity(g_runs);
    for run in 0..g_runs {
        ensemble.push(run_unit(engine, &mut store, &unit(run), |engine| {
            match computed.remove(&run) {
                Some((members, delta)) => {
                    delta.fold_into(engine.obs_mut());
                    members
                }
                None => ganesh(engine, data, &master, run as u64, &config.ganesh)
                    .var_cluster_members(),
            }
        })?);
    }
    let ganesh_out = GaneshOutput { ensemble };

    // Task 2 — two units: the thresholded matrix (persisted in its
    // canonical upper-triangle CSR form, `consensus_cooc.json`) and the
    // extracted partition (`consensus.json`), so a run killed between
    // the build and the extraction resumes from the matrix.
    engine.begin_phase(phases::CONSENSUS);
    let parts = run_unit(engine, &mut store, "consensus_cooc", |engine| {
        build_cooccurrence(engine, data.n_vars(), &ganesh_out.ensemble, &config.consensus)
            .to_parts()
    })?;
    let matrix = SparseSymMatrix::from_parts(parts);
    let modules = run_unit(engine, &mut store, "consensus", |engine| {
        extract_clusters(engine, &matrix, &config.consensus).clusters
    })?;
    let consensus = ConsensusOutput { modules };

    // Task 3 — one unit per module's tree ensemble, then the
    // deterministic tail (splits, parents, assembly) recomputed.
    let master = MasterRng::new(config.seed);
    engine.begin_phase(phases::MODULES);
    let mut ensembles = Vec::with_capacity(consensus.modules.len());
    for (k, vars) in consensus.modules.iter().enumerate() {
        let unit = format!("module_{k}");
        ensembles.push(run_unit(engine, &mut store, &unit, |engine| {
            learn_module_trees(engine, data, &master, k, vars, &config.tree)
        })?);
    }
    let network = finish_module_learning(engine, data, &config, &master, ensembles);
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
        let t1 = run_ganesh(&mut engine, &d, &c);
        let t2 = run_consensus(&mut engine, &d, &c, &t1);
        let staged = run_module_learning(&mut engine, &d, &c, &t2);
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

    #[test]
    fn checkpoint_serialization_roundtrip() {
        let (d, c) = setup();
        let mut cp = Checkpoint::new(&d, &c);
        cp.ganesh = Some(GaneshOutput {
            ensemble: vec![vec![vec![0, 1], vec![2]]],
        });
        let path = std::env::temp_dir().join("monet_checkpoint_serde.json");
        cp.save(&path).unwrap();
        let loaded = Checkpoint::load(&path).unwrap();
        assert_eq!(cp, loaded);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn checkpoint_matches_same_dims_different_data() {
        // Same (n, m) but different cells: the cell-sum component of
        // the fingerprint must reject the swap.
        let (d, c) = setup();
        let cp = Checkpoint::new(&d, &c);
        let mut other = d.clone();
        let first = other.matrix.get(0, 0);
        other.matrix.set(0, 0, first + 1.0);
        assert_eq!((d.n_vars(), d.n_obs()), (other.n_vars(), other.n_obs()));
        assert!(cp.matches(&d, &c));
        assert!(!cp.matches(&other, &c), "same dims, different cells");
    }

    #[test]
    fn checkpoint_matches_same_data_different_seed() {
        let (d, c) = setup();
        let cp = Checkpoint::new(&d, &c);
        let mut c2 = c.clone();
        c2.seed = c.seed + 1;
        assert!(cp.matches(&d, &c));
        assert!(!cp.matches(&d, &c2), "same data, different seed");
    }
}
