//! The counter registry: every deterministic event counter in the
//! pipeline, by name.
//!
//! Names are dot-separated `<subsystem>.<event>` strings. The set is
//! closed on purpose — a counter is part of the cross-engine
//! equivalence contract (see the crate docs), so adding one means
//! adding it to the golden files and the equality suite too.

/// Block-partitioned map invocations (`ParEngine::dist_map*`).
pub const ENGINE_DIST_MAPS: &str = "engine.dist_maps";
/// Work items executed across all `dist_map*` calls (the union of all
/// ranks' blocks — identical on every engine by the SPMD contract).
pub const ENGINE_ITEMS: &str = "engine.items";
/// Work units charged through `ParEngine::replicated`.
pub const ENGINE_REPLICATED_UNITS: &str = "engine.replicated_units";

/// Explicit collective operations (`ParEngine::collective`).
pub const COMM_COLLECTIVES: &str = "comm.collectives";
/// Total payload of explicit collectives, in 8-byte words.
pub const COMM_COLLECTIVE_WORDS: &str = "comm.collective_words";
/// Total payload of the all-gathers implied by `dist_map*`
/// (`n_items × words_per_item`), in 8-byte words.
pub const COMM_ALLGATHER_WORDS: &str = "comm.allgather_words";

/// Gibbs sweeps executed (reassign/merge, variables and observations).
pub const GIBBS_SWEEPS: &str = "gibbs.sweeps";
/// Moves proposed across all sweeps (one per sweep iteration).
pub const GIBBS_MOVES_PROPOSED: &str = "gibbs.moves_proposed";
/// Proposed moves that changed the state (reassignment to a different
/// cluster, or an actual merge).
pub const GIBBS_MOVES_ACCEPTED: &str = "gibbs.moves_accepted";
/// Sweeps executed with the batched candidate-scoring kernel.
pub const GIBBS_KERNEL_DISPATCHES: &str = "gibbs.kernel_dispatches";
/// Sweeps executed with the naive per-candidate scoring path.
pub const GIBBS_NAIVE_DISPATCHES: &str = "gibbs.naive_dispatches";
/// Column-statistics cache lookups of the observation sweeps served
/// without recomputation (kernel path only; the variable sweeps keep
/// no cache — their candidates read tile log-marginals from the state.
/// Lookups happen in replicated control flow, so the count is
/// deterministic across engines and rank counts).
pub const GIBBS_CACHE_HITS: &str = "gibbs.cache_hits";
/// Column-statistics cache lookups that computed (first lookup of an
/// observation in a sweep).
pub const GIBBS_CACHE_MISSES: &str = "gibbs.cache_misses";

/// Module tree ensembles learned (one per module).
pub const TREE_MODULES: &str = "tree.modules";
/// Regression trees built.
pub const TREE_TREES: &str = "tree.trees";
/// Pair merges performed across all tree builds.
pub const TREE_MERGES: &str = "tree.merges";

/// Checkpoint units computed and persisted this run. Only present
/// when checkpointing is enabled; together with
/// [`CHECKPOINT_UNITS_SKIPPED`] it is excluded from cross-run
/// equivalence comparisons and from the golden files (a resumed run
/// legitimately skips what the interrupted run wrote).
pub const CHECKPOINT_UNITS_WRITTEN: &str = "checkpoint.units_written";
/// Checkpoint units restored from disk instead of recomputed.
pub const CHECKPOINT_UNITS_SKIPPED: &str = "checkpoint.units_skipped";

/// Stored upper-triangle entries (diagonal included) of the
/// thresholded co-occurrence matrix of task 2. The dense test oracle
/// counts its post-threshold non-zeros exactly as the sparse path
/// counts its stored entries.
pub const CONSENSUS_NNZ: &str = "consensus.nnz";
/// Power-iteration matrix–vector products executed by task 2's
/// spectral extraction (each one a sharded `dist_map` over the active
/// rows).
pub const CONSENSUS_MATVEC_DISPATCHES: &str = "consensus.matvec_dispatches";
/// Variables discarded by the spectral extraction's minimum-cluster-
/// size filter — truncation made observable, per the no-silent-caps
/// rule.
pub const CONSENSUS_DROPPED_VARS: &str = "consensus.dropped_vars";

/// Candidate splits scored in the split-assignment phase.
pub const SPLITS_SCORED: &str = "splits.scored";
/// Tree nodes that received split assignments.
pub const SPLITS_NODES: &str = "splits.nodes";
/// Split-assignment phases executed with the batched prefix-sum kernel.
pub const SPLITS_KERNEL_DISPATCHES: &str = "splits.kernel_dispatches";
/// Split-assignment phases executed with the naive per-candidate pass.
pub const SPLITS_NAIVE_DISPATCHES: &str = "splits.naive_dispatches";

/// `ln Γ` values needed in replicated control flow, all through
/// `PriorConsts`' count tables: in the tree-merge phase, cells filled
/// plus the three lookups of every scored pair; in the Gibbs sweeps
/// (kernel path), cells filled plus the log-marginals evaluated in
/// replicated flow. Lookups inside Gibbs maps are not counted. Counted analytically — never from shared state a threaded
/// engine fills in a scheduling-dependent order — so the value is
/// deterministic across engines and rank counts.
pub const SCORE_LN_GAMMA_CALLS: &str = "score.ln_gamma_calls";
/// The [`SCORE_LN_GAMMA_CALLS`] answered from a table instead of
/// running the Lanczos series; `calls - hits` is the number of Lanczos
/// evaluations actually performed in replicated flow.
pub const SCORE_LN_GAMMA_TABLE_HITS: &str = "score.ln_gamma_table_hits";
/// Scratch-arena reuses in the split-assignment kernel: segments
/// scored into arena buffers that were already warm from an earlier
/// segment of the same phase (i.e. segments beyond the first). A
/// canonical per-call count — actual pool handoffs vary with thread
/// scheduling, so the counter records the scheduling-independent
/// reuse opportunity instead.
pub const SCORE_SCRATCH_REUSES: &str = "score.scratch_reuses";
