//! The four workloads and how their inputs are made from `--seed`.
//!
//! A workload is a *population* of learning problems of one shape, not
//! one data set: a single learn's wall-clock depends on how many
//! modules and tree nodes the sampler happens to find (interquartile
//! spread ≈ 5–17 % between seeds at these sizes), so a run measures a
//! sequence of independent units — unit `u` of seed `s` is the data
//! set and learner seed [`unit_seed`]`(s, u)` — and reports the median
//! over units. The program only ever sees the generated TSV files.

use mn_data::{GroundTruth, SyntheticConfig};
use monet::LearnerConfig;
use std::path::Path;
use std::time::Instant;

/// What kind of load a workload puts on the program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Batch CLI: one `monet` child per learn.
    Batch,
    /// `monet serve` with two closed-loop clients.
    Serve,
}

/// One workload: the shape of its units and the learner flags beyond
/// the CLI defaults (`G = 1`, one update step, one tree, `J = 2`,
/// `S = 8`).
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub kind: Kind,
    pub n_vars: usize,
    pub n_obs: usize,
    /// `--ganesh-runs`.
    pub ganesh_runs: usize,
    /// Whether every measured learn writes a fresh checkpoint
    /// directory.
    pub checkpointed: bool,
}

/// Sized so one unit (a serial and a `threads:2` learn) costs ≈ 1–2.5 s
/// on the 2-core reference box, i.e. 10–25 units in the 25 s a run
/// measures; see README.md for the probe numbers behind each shape.
pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "wide_obs",
        kind: Kind::Batch,
        n_vars: 200,
        n_obs: 130,
        ganesh_runs: 1,
        checkpointed: false,
    },
    Spec {
        name: "many_vars",
        kind: Kind::Batch,
        n_vars: 1400,
        n_obs: 20,
        ganesh_runs: 1,
        checkpointed: false,
    },
    Spec {
        name: "ensemble_ckpt",
        kind: Kind::Batch,
        n_vars: 600,
        n_obs: 40,
        ganesh_runs: 4,
        checkpointed: true,
    },
    Spec {
        name: "serve_jobs",
        kind: Kind::Serve,
        n_vars: 120,
        n_obs: 40,
        ganesh_runs: 1,
        checkpointed: false,
    },
];

pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Seed of unit `u` under benchmark seed `seed`: distinct for every
/// `(seed, u)` the benchmark uses, and used both to generate the unit's
/// data and as its learner `--seed`.
pub fn unit_seed(seed: u64, u: u64) -> u64 {
    seed.wrapping_mul(1_000_003).wrapping_add(u)
}

impl Spec {
    /// The configuration `monet --seed <seed> [--ganesh-runs G]` builds
    /// (its `base_config`): the in-process learns must use exactly
    /// this, which the byte-identity check confirms on every run.
    pub fn learner_config(&self, seed: u64) -> LearnerConfig {
        let mut config = LearnerConfig::paper_minimum(seed);
        config.ganesh_runs = self.ganesh_runs;
        config
            .validated()
            .expect("CLI-default configuration is valid")
    }

    /// The learner flags of this workload for a `monet` child.
    pub fn learner_args(&self, seed: u64) -> Vec<String> {
        let mut args = vec!["--seed".to_string(), seed.to_string()];
        if self.ganesh_runs != 1 {
            args.push("--ganesh-runs".into());
            args.push(self.ganesh_runs.to_string());
        }
        args
    }
}

/// One generated learning problem.
pub struct Unit {
    pub seed: u64,
    /// TSV path, relative to the harness's working directory.
    pub tsv: String,
    /// What the generator planted (for the recovery score).
    pub truth: GroundTruth,
    /// Seconds spent generating the data (`mn-data.generate_ms`).
    pub generate_s: f64,
    /// Seconds of the whole set-up: generate + write the TSV.
    pub setup_s: f64,
}

/// Set up unit `u`: generate its data set and write it once as TSV;
/// every run of the unit — child, in-process, served — reads that file.
pub fn make_unit(spec: &Spec, seed: u64, u: u64, dir: &Path) -> std::io::Result<Unit> {
    let started = Instant::now();
    let seed = unit_seed(seed, u);
    let generated = mn_data::generate(&SyntheticConfig::new(spec.n_vars, spec.n_obs, seed));
    let generate_s = started.elapsed().as_secs_f64();
    let tsv = dir.join(format!("u{u}.tsv"));
    mn_data::write_tsv_file(&generated.dataset, &tsv)?;
    Ok(Unit {
        seed,
        tsv: tsv.to_string_lossy().into_owned(),
        truth: generated.truth,
        generate_s,
        setup_s: started.elapsed().as_secs_f64(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_seeds_do_not_collide_across_seeds_and_units() {
        let mut seen = std::collections::BTreeSet::new();
        for seed in 0..50u64 {
            for u in 0..200u64 {
                assert!(
                    seen.insert(unit_seed(seed, u)),
                    "collision at ({seed}, {u})"
                );
            }
        }
        // No overflow panic on any seed the driver may pass.
        let _ = unit_seed(u64::MAX, 199);
    }

    #[test]
    fn workload_names_are_unique_and_found() {
        for w in &WORKLOADS {
            assert_eq!(find(w.name).map(|f| f.name), Some(w.name));
        }
        assert!(find("nope").is_none());
        assert_eq!(
            find("ensemble_ckpt").unwrap().learner_args(5),
            ["--seed", "5", "--ganesh-runs", "4"]
        );
    }
}
