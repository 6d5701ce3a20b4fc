//! # mn-gibbs — GaneSH Gibbs co-clustering (Lemon-Tree task 1)
//!
//! The two-way clustering sampler of Joshi et al. that Lemon-Tree's
//! first task runs (§2.2.1 of the paper), with the parallel score
//! evaluation of §3.2.1: candidate lists are block-partitioned over
//! ranks through `mn-comm`'s [`ParEngine`](mn_comm::ParEngine), and
//! every random choice flows through the collective sampling oracles
//! of `mn-rand`, so a run is deterministic across engines and rank
//! counts.
//!
//! * [`state`] — the co-clustering state with incrementally maintained
//!   tile statistics.
//! * [`moves`] — score deltas and state updates for the four Gibbs
//!   moves.
//! * [`sweep`] — the four parallel sweep functions of Algorithms 1–2,
//!   sharing one proposal step; each candidate is scored by the kernel
//!   or by the naive oracle (bit-identical weights — DESIGN.md §9).
//! * [`scorer`] — the kernel's pure candidate functions and its
//!   per-sweep replicated state.
//! * [`mod@ganesh`] — the GaneSH driver (Algorithm 3), the choice of
//!   how an ensemble of runs maps onto ranks, and the constrained
//!   observation-only sampler used by the module-learning task
//!   (Algorithm 4).

#![warn(missing_docs)]

pub mod ganesh;
pub mod moves;
pub mod scorer;
pub mod state;
pub mod sweep;

pub use ganesh::{
    ganesh, ganesh_with_scoring, runs_whole_per_rank, sample_obs_partitions, GaneshParams,
};
pub use scorer::SweepScorer;
pub use moves::MoveTarget;
pub use state::{CoClustering, ObsCluster, ObsPartition, VarCluster};
