//! Scoring implementation modes.
//!
//! §4.1 of the paper: the authors reimplemented Lemon-Tree in
//! optimized C++ and measured a stable 3.6–3.8× speedup over the Java
//! original *while producing exactly the same networks*. We reproduce
//! that relationship with two score-computation modes that make
//! identical decisions (same deltas up to floating-point, same moves,
//! same learned network) but differ in cost profile:
//!
//! * [`ScoreMode::Incremental`] — the optimized implementation:
//!   sufficient statistics of every tile are maintained across moves,
//!   so a score delta touches only the affected row/column and O(1)
//!   per-tile state.
//! * [`ScoreMode::Reference`] — the Lemon-Tree cost profile: every
//!   score evaluation rebuilds the statistics of the blocks it touches
//!   from the raw matrix, as the Java implementation's
//!   object-per-cluster design does.
//!
//! Table 1 of the paper is regenerated by running the same learning
//! configuration under both modes and reporting the runtime ratio.

use serde::{Deserialize, Serialize};

/// Work-unit cost of visiting one matrix cell in an inner scoring loop
/// (the unit in which all kernel costs are expressed; see
/// `mn-comm::CostModel::work_unit_s` for the seconds conversion).
pub const COST_CELL: u64 = 1;

/// Work-unit cost of one normal-gamma log-marginal evaluation
/// (a handful of `ln Γ` and `ln` calls — roughly 30 cell visits).
pub const COST_LOGMARG: u64 = 30;

/// How block statistics are obtained during scoring.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum ScoreMode {
    /// Maintain sufficient statistics incrementally (optimized C++
    /// implementation of §4.1).
    #[default]
    Incremental,
    /// Recompute statistics from raw values on every evaluation
    /// (Lemon-Tree cost profile).
    Reference,
}

impl ScoreMode {
    /// Human-readable label used in experiment output.
    pub fn label(self) -> &'static str {
        match self {
            ScoreMode::Incremental => "ours (optimized)",
            ScoreMode::Reference => "lemon-tree (reference)",
        }
    }
}

/// Execution path of the exact separation pass of split assignment.
/// Both paths produce bit-identical scores (the kernel's equivalence
/// is proven in `split_kernel` and DESIGN.md §7). Production always
/// runs the kernel; the naive path is the oracle the A/B tests and the
/// `mn-bench` records compare it against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SplitScoring {
    /// Batched prefix-sum kernel: one sort per (node, parent) segment,
    /// O(n log n) for all n candidates.
    Kernel,
    /// Per-candidate rescan: O(n) per candidate, O(n²) per segment.
    Naive,
}

/// How the Gibbs sweeps of the GaneSH co-clustering evaluate the
/// per-move candidate list. Both paths produce bit-identical weights
/// (the kernel's equivalence is argued in `gibbs_kernel` and DESIGN.md
/// §9). Production always runs the kernel; the naive path is the
/// oracle the A/B tests and the `mn-bench` records compare it against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CandidateScoring {
    /// Batched candidate engine: the candidate-independent removal
    /// delta is hoisted out of the candidate loop and each candidate's
    /// weight is a pure function of the state, evaluated inside the
    /// segment-batched map with one `Segments` boundary per candidate.
    Kernel,
    /// One full rescore per candidate (row/column statistics rebuilt
    /// for every candidate) — the cost profile of Alg. 1 line 8 taken
    /// literally.
    Naive,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_distinct() {
        assert_ne!(
            ScoreMode::Incremental.label(),
            ScoreMode::Reference.label()
        );
    }

    #[test]
    fn default_is_optimized() {
        assert_eq!(ScoreMode::default(), ScoreMode::Incremental);
    }
}
