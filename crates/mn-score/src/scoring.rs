//! Work-unit costs and the one scoring-path selector.
//!
//! §4.1 of the paper: the authors reimplemented Lemon-Tree in
//! optimized C++ and measured a stable 3.6–3.8× speedup over the Java
//! original *while producing exactly the same networks*. Here the two
//! hot phases — the Gibbs sweeps of GaneSH and the exact pass of split
//! assignment — each have a batched kernel and a per-candidate naive
//! oracle with bit-identical results. [`Scoring`] picks one of the two
//! for a call; `monet --reference` runs the naive oracles, which is the
//! per-candidate recomputation cost profile Table 1 compares against.

/// Work-unit cost of visiting one matrix cell in an inner scoring loop
/// (the unit in which all kernel costs are expressed; see
/// `mn-comm::CostModel::work_unit_s` for the seconds conversion).
pub const COST_CELL: u64 = 1;

/// Work-unit cost of one normal-gamma log-marginal evaluation
/// (a handful of `ln Γ` and `ln` calls — roughly 30 cell visits).
pub const COST_LOGMARG: u64 = 30;

/// Which path scores a candidate list. Both paths produce bit-identical
/// weights and report identical per-item work (the equivalences are
/// argued in [`crate::gibbs_kernel`], [`crate::split_kernel`] and
/// DESIGN.md §7 and §9), so they make the same draws and learn the same
/// network. The learner runs `Kernel`; `Naive` is the oracle the A/B
/// tests and the `mn-bench` records compare it against, and the Table 1
/// baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scoring {
    /// Batched kernels. Gibbs sweeps hoist the candidate-independent
    /// removal delta and score each candidate as a pure function of the
    /// state inside one segment-batched map; split assignment runs one
    /// sort per (node, parent) segment, O(n log n) for all n
    /// candidates.
    Kernel,
    /// One full rescore per candidate: the Gibbs statistics are rebuilt
    /// for every candidate (Alg. 1 line 8 taken literally), and each
    /// split's separation pass rescans the node, O(n²) per segment.
    Naive,
}
