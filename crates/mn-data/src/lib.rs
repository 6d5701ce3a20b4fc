//! # mn-data — data sets for module-network learning
//!
//! Expression matrices (§2.1 of the paper: an `n × m` matrix of
//! observations of `n` random variables), TSV I/O in the layout of the
//! Zenodo compendia the paper evaluates on, the paper's
//! first-n-by-first-m subsampling protocol, and a synthetic
//! module-structured generator with planted ground truth (the
//! documented substitute for the proprietary-scale real data; see
//! DESIGN.md §2).

#![warn(missing_docs)]

pub mod dataset;
pub mod io;
pub mod matrix;
pub mod preprocess;
pub mod synthetic;

pub use dataset::Dataset;
pub use io::{read_tsv, read_tsv_file, write_tsv, write_tsv_file, DataError, ReadError};
pub use matrix::Matrix;
pub use preprocess::{filter_most_variable, impute_missing, log2_transform, standard_pipeline};
pub use synthetic::{
    generate, noise_only, thaliana_like, yeast_like, GroundTruth, SyntheticConfig,
    SyntheticDataset,
};
