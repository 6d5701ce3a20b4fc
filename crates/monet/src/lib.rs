//! # monet — parallel construction of module networks
//!
//! A Rust reproduction of *Parallel Construction of Module Networks*
//! (Srivastava, Chockalingam, Aluru & Aluru, SC '21): the Lemon-Tree
//! module-network learning pipeline — GaneSH Gibbs co-clustering,
//! consensus clustering, and regression-tree module learning — with
//! the paper's distributed-memory parallelization, deterministic
//! parallel randomness (the learned network is identical for every
//! rank count), and the per-candidate naive scoring that reproduces
//! Lemon-Tree's sequential cost profile (Table 1) with the same
//! networks.
//!
//! ## Quickstart
//!
//! ```
//! use mn_comm::{ParEngine, SerialEngine};
//! use monet::{learn_module_network, LearnerConfig};
//!
//! let data = mn_data::synthetic::yeast_like(24, 16, 7).dataset;
//! let config = LearnerConfig::paper_minimum(7);
//! let mut engine = SerialEngine::new();
//! let (network, report) = learn_module_network(&mut engine, &data, &config);
//! assert!(network.n_modules() >= 1);
//! println!("learned {} modules in {:.3}s", network.n_modules(), report.total_s());
//! ```
//!
//! To reproduce the paper's cluster-scale runs, swap the engine:
//! `mn_comm::SimEngine::new(4096)` simulates 4096 ranks under the τ/μ
//! communication model; `mn_comm::ThreadEngine::new(p)` runs `p` real
//! rank-threads. The learned network is identical in all cases.
//!
//! ## Crate map
//!
//! | crate | paper section | contents |
//! |---|---|---|
//! | `mn-data` | §2.1, §5.1 | matrices, I/O, synthetic data |
//! | `mn-rand` | §3.1, §4.2 | splittable streams, sampling oracles |
//! | `mn-comm` | §3.1–3.2 | engines, τ/μ cost model, partitioning |
//! | `mn-score` | §2.2.1 | normal-gamma scores, sufficient statistics |
//! | `mn-gibbs` | §2.2.1, §3.2.1 | GaneSH co-clustering |
//! | `mn-consensus` | §2.2.2, §3.2.2 | co-occurrence + spectral clustering |
//! | `mn-tree` | §2.2.3, §3.2.3 | trees, split assignment, parents |
//! | `monet` | §2.2, §3.2, §6 | pipeline, model, output, extensions |

#![warn(missing_docs)]

pub mod acyclic;
pub mod checkpoint;
pub mod config;
pub mod genomica;
pub mod learn;
pub mod model;
pub mod output;
pub mod run_metrics;
pub mod stages;

pub use checkpoint::{CheckpointError, CheckpointStore, ResumePolicy};
pub use config::LearnerConfig;
pub use learn::{learn_module_network, phases};
pub use model::{Module, ModuleEdge, ModuleNetwork, NetworkSummary};
pub use output::{from_json, to_json, to_xml, write_json_file, write_xml_file};
pub use run_metrics::RunMetrics;
pub use stages::{learn_module_network_with, learn_with_checkpoint, learn_with_checkpoint_policy};

// Re-export the sibling crates so downstream users (and the examples)
// need only one dependency.
pub use mn_comm;
pub use mn_consensus;
pub use mn_data;
pub use mn_gibbs;
pub use mn_obs;
pub use mn_rand;
pub use mn_score;
pub use mn_tree;
