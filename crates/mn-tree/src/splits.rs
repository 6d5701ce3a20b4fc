//! Parallel assignment of parent splits to tree nodes (Algorithm 5).
//!
//! This is the phase that dominates the paper's runtime (>90 % of
//! sequential time, §5.3.1) and whose data-dependent per-split cost is
//! the source of the load imbalance that caps scaling at large `p`.
//!
//! ## The candidate-split list
//!
//! For every module `M_i`, tree `T ∈ T(M_i)`, internal node `N`,
//! candidate parent `X_i ∈ P`, and observation `D_j ∈ obs(N)`, the
//! tuple `⟨M_i, T, N, X_i, D_j⟩` is a candidate split: "is `X_i`'s
//! value above or below its value in observation `D_j`?". Rather than
//! materializing the tuples (the paper's `cand-splits` list), we index
//! them arithmetically: [`SplitIndex`] stores one entry per node with
//! a base offset, so item `i` of the flat list maps to its tuple in
//! O(log #nodes). Tuples of one node are contiguous — the property the
//! paper relies on for the segmented-scan selection step — and the
//! flat list is block-partitioned over ranks for load balance.
//!
//! ## Split posteriors
//!
//! A split's quality is how well the predicate `X_i ≤ v` separates the
//! node's two children (the tree structure is already fixed). Per
//! §2.2.3 the posterior is "computed by sampling from a discrete
//! distribution" with at most `S` steps, and "the candidate splits
//! with zero posterior probability are discarded". Concretely (a
//! behavioural equivalent documented in DESIGN.md):
//!
//! 1. an exact pass over the node's observations computes the
//!    separation score `σ ∈ [-1, 1]` (fraction correctly separated
//!    minus fraction misclassified);
//! 2. a Monte-Carlo confirmation loop draws `s_eff = 1 +
//!    ⌊S·(1-|σ|)⌋` rounds, each examining `|obs(N)|` sampled
//!    observations (the O(m)-per-step cost the paper's O(Sm)-per-split
//!    bound states) — ambiguous splits need more sampling steps, which
//!    reproduces the paper's "time ... cannot be estimated a priori
//!    and varies significantly across splits" — and discards the split
//!    when the sampled estimate does not confirm the exact score's
//!    direction;
//! 3. the posterior weight is `|σ|` — a regression-tree child order is
//!    an artifact of the merge order, so a predicate that cleanly
//!    separates the children in *either* orientation is a good split.

use crate::mc_kernel;
use crate::params::TreeParams;
use crate::tree::ModuleEnsemble;
use mn_comm::{Collective, ParEngine, Segments};
use mn_data::Dataset;
use mn_obs::counters;
use mn_rand::{select_unif_rand, select_wtd_rand_batch, Domain, Lcg128, MasterRng};
use mn_score::{ScoreMode, ScratchPool, SplitScoring, SplitScratch, COST_CELL};
use serde::{Deserialize, Serialize};

/// One node's entry in the flat candidate-split index.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct NodeEntry {
    /// Module position in the ensemble list.
    pub module: usize,
    /// Tree position within the module's ensemble.
    pub tree: usize,
    /// Node index within the tree's arena.
    pub node: usize,
    /// Offset of this node's first candidate split in the flat list.
    pub base: usize,
    /// Observations at the node (`|obs(N)|`).
    pub n_obs: usize,
}

/// Arithmetic index over the global candidate-split list
/// (all modules × trees × internal nodes × parents × observations).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SplitIndex {
    /// Per-node entries in (module, tree, node-arena) order.
    pub nodes: Vec<NodeEntry>,
    /// Number of candidate parents `|P|`.
    pub n_parents: usize,
    /// Total number of candidate splits.
    pub total: usize,
}

impl SplitIndex {
    /// Build the index for an ensemble list and `n_parents` candidate
    /// parents.
    pub fn build(ensembles: &[ModuleEnsemble], n_parents: usize) -> Self {
        let mut nodes = Vec::new();
        let mut base = 0usize;
        for (mi, ens) in ensembles.iter().enumerate() {
            for (ti, tree) in ens.trees.iter().enumerate() {
                for node in tree.internal_nodes() {
                    let n_obs = tree.nodes[node].obs.len();
                    nodes.push(NodeEntry {
                        module: mi,
                        tree: ti,
                        node,
                        base,
                        n_obs,
                    });
                    base += n_parents * n_obs;
                }
            }
        }
        Self {
            nodes,
            n_parents,
            total: base,
        }
    }

    /// Map flat item `i` to `(node-entry position, parent position,
    /// observation position within the node)`.
    pub fn locate(&self, i: usize) -> (usize, usize, usize) {
        debug_assert!(i < self.total);
        // Binary search for the node whose [base, base+span) contains i.
        let pos = self
            .nodes
            .partition_point(|e| e.base <= i)
            .checked_sub(1)
            .expect("item before first node");
        let entry = &self.nodes[pos];
        let within = i - entry.base;
        (pos, within / entry.n_obs, within % entry.n_obs)
    }

    /// The `(start, end)` item range of node-entry `pos`.
    pub fn node_range(&self, pos: usize) -> (usize, usize) {
        let entry = &self.nodes[pos];
        (entry.base, entry.base + self.n_parents * entry.n_obs)
    }

    /// The boundary structure of the flat list (segment = node entry),
    /// handed to the segmented engine maps for the partitioning
    /// ablation and the batched scoring kernel. O(#nodes) memory —
    /// per-item segment ids are never materialized.
    pub fn segments(&self) -> Segments {
        Segments::from_lens(self.nodes.iter().map(|entry| self.n_parents * entry.n_obs))
    }
}

/// A chosen split: parent variable, split value, and its posterior.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChosenSplit {
    /// Candidate parent variable index (into the data set).
    pub var: usize,
    /// Split value (the parent's value in the chosen observation).
    pub value: f64,
    /// Posterior weight of the split (0 for discarded uniform picks).
    pub posterior: f64,
}

/// The splits chosen for one tree node.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeSplits {
    /// Which node (index into `SplitIndex::nodes`).
    pub entry: usize,
    /// `J` splits chosen by posterior-weighted sampling (empty if every
    /// candidate at the node was discarded).
    pub weighted: Vec<ChosenSplit>,
    /// `J` splits chosen uniformly at random.
    pub uniform: Vec<ChosenSplit>,
}

/// Result of the split-assignment phase.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SplitAssignment {
    /// The index the posteriors refer to.
    pub index: SplitIndex,
    /// Chosen splits per node, in node-entry order.
    pub node_splits: Vec<NodeSplits>,
}

/// Read-only view of one node's bit-packed left-membership mask:
/// bit `i` is set iff `node_obs[i]` belongs to the node's left child.
///
/// The masks of all nodes live contiguously in one arena
/// ([`SplitContext`]), replacing the per-node `Vec<Vec<bool>>` the
/// phase used to allocate on every call.
#[derive(Debug, Clone, Copy)]
struct Bits<'a> {
    words: &'a [u64],
}

impl Bits<'_> {
    #[inline]
    fn get(self, i: usize) -> bool {
        self.words[i >> 6] >> (i & 63) & 1 == 1
    }
}

/// Append a node's bit-packed left-membership mask to the arena. Both
/// observation lists are maintained in sorted order by the tree
/// builder — the `binary_search` below silently returns garbage on
/// unsorted input, so the assumption is checked in debug builds.
fn push_left_membership_mask(node_obs: &[usize], left_obs: &[usize], words: &mut Vec<u64>) {
    debug_assert!(
        node_obs.windows(2).all(|w| w[0] < w[1]),
        "node observation list must be sorted and duplicate-free"
    );
    debug_assert!(
        left_obs.windows(2).all(|w| w[0] < w[1]),
        "left-child observation list must be sorted and duplicate-free"
    );
    let base = words.len();
    words.resize(base + node_obs.len().div_ceil(64).max(1), 0);
    for (i, o) in node_obs.iter().enumerate() {
        if left_obs.binary_search(o).is_ok() {
            words[base + (i >> 6)] |= 1u64 << (i & 63);
        }
    }
}

/// The separation score σ of the predicate `parent ≤ value` against a
/// node's two children. Exactly one pass over the node's observations;
/// bit `i` of `mask` marks whether `node_obs[i]` belongs to the left
/// child.
fn separation_score(row: &[f64], value: f64, node_obs: &[usize], mask: Bits<'_>) -> f64 {
    let total = node_obs.len();
    debug_assert!(total > 0);
    let mut correct = 0usize;
    for (i, &o) in node_obs.iter().enumerate() {
        if (row[o] <= value) == mask.get(i) {
            correct += 1;
        }
    }
    (2.0 * correct as f64 - total as f64) / total as f64
}

/// Posterior of one candidate split, with work accounting — the naive
/// path: one exact separation pass per candidate.
///
/// Deterministic: the Monte-Carlo confirmation generator is keyed by
/// the flat item index (a cheap O(1)-construction `Lcg128`; millions
/// of per-item streams make a full ChaCha key schedule per item the
/// dominant cost otherwise), so every engine, rank count, and scoring
/// mode draws the same values.
#[allow(clippy::too_many_arguments)]
fn split_posterior(
    row: &[f64],
    seed: u64,
    params: &TreeParams,
    item: usize,
    value: f64,
    node_obs: &[usize],
    mask: Bits<'_>,
) -> (f64, u64) {
    let sigma = separation_score(row, value, node_obs, mask);
    let mut gather = Vec::new();
    mc_confirm(
        row, seed, params, item, value, node_obs, mask, sigma, &mut gather,
    )
}

/// The Monte-Carlo confirmation shared by the naive and the batched
/// kernel paths: given the exact separation score σ of a candidate
/// (however it was computed), draw `s_eff` sampling rounds from the
/// candidate's own PRNG stream and derive the posterior. The reported
/// work includes the exact pass (`n` cells) so that per-item
/// accounting — and therefore every simulated-imbalance figure — is
/// identical between the two paths.
#[allow(clippy::too_many_arguments)]
fn mc_confirm(
    row: &[f64],
    seed: u64,
    params: &TreeParams,
    item: usize,
    value: f64,
    node_obs: &[usize],
    mask: Bits<'_>,
    sigma: f64,
    gather: &mut Vec<f64>,
) -> (f64, u64) {
    let n = node_obs.len();
    let s_eff = 1 + (params.max_sampling_steps as f64 * (1.0 - sigma.abs())).floor() as usize;

    // Monte-Carlo confirmation: sample chunks of observations and check
    // the predicate against child membership; a split whose sampled
    // estimate is not positive has zero posterior (§2.2.3's discard).
    let mut rng = Lcg128::from_key(seed, Domain::SplitPosterior.tag(), item as u64);
    let mut agree: i64 = 0;
    let mut work = n as u64 * COST_CELL; // the exact pass
    for _ in 0..s_eff {
        // One O(m) sampling step: examine |obs(N)| sampled observations.
        for _ in 0..n {
            let pick = rng.index_one_draw(n);
            let consistent = (row[node_obs[pick]] <= value) == mask.get(pick);
            agree += if consistent { 1 } else { -1 };
        }
        if params.mode == ScoreMode::Reference {
            // The Java cost profile: no caching of the exact pass — the
            // reference implementation re-materializes the node's value
            // list and re-derives the separation score every sampling
            // round. The gather lands in a reusable arena buffer; the
            // per-round work charge (the actual cost model) is
            // unchanged.
            gather.clear();
            gather.extend(node_obs.iter().map(|&o| row[o]));
            std::hint::black_box(&*gather);
            std::hint::black_box(separation_score(row, value, node_obs, mask));
            work += 2 * n as u64 * COST_CELL;
        }
    }
    work += (s_eff * n) as u64 * COST_CELL;
    // Orientation-free quality: the MC estimate must agree with the
    // exact score's direction, otherwise the split is discarded
    // (§2.2.3's zero-posterior discard).
    let confirmed = agree != 0 && (agree > 0) == (sigma > 0.0);
    let posterior = if confirmed { sigma.abs() } else { 0.0 };
    (posterior, work)
}

/// Items a Monte-Carlo bucket holds before it runs: four full
/// [`mc_kernel::LANES`] groups, so bucket memory stays bounded however
/// long the scored range is.
const BUCKET_FLUSH: usize = 4 * mc_kernel::LANES;

/// One `s_eff` class of Monte-Carlo survivors: every lane in a bucket
/// draws the same number of rounds, so the bucket maps directly onto
/// fixed-trip SIMD lane groups.
#[derive(Debug, Default)]
struct McBucket {
    /// Initial per-item LCG states.
    states: Vec<u128>,
    /// Per-item consistency masks, `⌈n/64⌉` words each.
    cons: Vec<u64>,
    /// Indices of the items' results in the map's output.
    out_idx: Vec<usize>,
    /// Exact separation scores (the posterior magnitude if confirmed).
    sigma: Vec<f64>,
}

impl McBucket {
    /// Draw `t` picks from an `n`-observation node for every queued
    /// item, patch the confirmed items' posteriors into `out`, and
    /// empty the bucket.
    fn flush(&mut self, n: usize, t: usize, hits: &mut Vec<u64>, out: &mut [(f64, u64)]) {
        mc_kernel::mc_hits_wide(&self.states, &self.cons, n, t, hits);
        for ((&h, &sigma), &idx) in hits.iter().zip(&self.sigma).zip(&self.out_idx) {
            let agree = 2 * h as i64 - t as i64;
            if agree != 0 && (agree > 0) == (sigma > 0.0) {
                out[idx].0 = sigma.abs();
            }
        }
        self.clear();
    }

    fn clear(&mut self) {
        self.states.clear();
        self.cons.clear();
        self.out_idx.clear();
        self.sigma.clear();
    }
}

/// Per-worker scratch for the batched scoring kernel: the sort/scan
/// buffers of [`SplitScratch`] plus the SIMD lane buffers of the fused
/// Monte-Carlo path. Pooled in a [`ScratchPool`] so the steady-state
/// scoring loop performs no allocation.
#[derive(Debug, Default)]
struct SegScratch {
    split: SplitScratch,
    /// Unpacked membership mask (`ScoreMode::Reference` only).
    bools: Vec<bool>,
    /// Monte-Carlo survivors bucketed by `s_eff` in one pass
    /// (`buckets[se - 1]` holds the `s_eff = se` class, item order
    /// preserved within each bucket).
    buckets: Vec<McBucket>,
    hits: Vec<u64>,
    /// Reference-mode per-round value gather.
    gather: Vec<f64>,
}

/// Reusable state of the split-assignment phase: the scoring scratch
/// pool, the bit-packed membership-mask arena, and the selection
/// buffers. Create one per learner run (or benchmark) and pass it to
/// [`assign_splits_in`]; after the first call warms the arenas, the
/// steady-state phase allocates nothing.
///
/// The context holds no clustering-dependent state — every buffer is
/// cleared or overwritten before use — so reusing it across calls,
/// sweeps, and GaneSH runs cannot change any result.
#[derive(Debug, Default)]
pub struct SplitContext {
    pool: ScratchPool<SegScratch>,
    mask_words: Vec<u64>,
    mask_offsets: Vec<usize>,
    sel_scratch: Vec<(f64, usize)>,
    sel_out: Vec<usize>,
}

impl SplitContext {
    /// A fresh context with cold arenas.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Compute posteriors for the full candidate list and choose `J`
/// weighted plus `J` uniform splits per node (Algorithm 5).
///
/// `candidate_parents` is the paper's `P` (§5.1 uses all variables).
/// Convenience wrapper over [`assign_splits_in`] with a fresh
/// [`SplitContext`]; callers invoking the phase repeatedly should hold
/// a context of their own to keep the arenas warm.
pub fn assign_splits<E: ParEngine>(
    engine: &mut E,
    data: &Dataset,
    master: &MasterRng,
    ensembles: &[ModuleEnsemble],
    candidate_parents: &[usize],
    params: &TreeParams,
) -> SplitAssignment {
    let mut ctx = SplitContext::new();
    assign_splits_in(
        engine,
        data,
        master,
        ensembles,
        candidate_parents,
        params,
        &mut ctx,
    )
}

/// [`assign_splits`] against caller-owned scratch arenas.
pub fn assign_splits_in<E: ParEngine>(
    engine: &mut E,
    data: &Dataset,
    master: &MasterRng,
    ensembles: &[ModuleEnsemble],
    candidate_parents: &[usize],
    params: &TreeParams,
    ctx: &mut SplitContext,
) -> SplitAssignment {
    let index = SplitIndex::build(ensembles, candidate_parents.len());
    let segments = index.segments();

    engine.span_enter("assign-splits");
    engine.count(counters::SPLITS_SCORED, index.total as u64);
    engine.count(counters::SPLITS_NODES, index.nodes.len() as u64);
    engine.count(
        match params.split_scoring {
            SplitScoring::Naive => counters::SPLITS_NAIVE_DISPATCHES,
            SplitScoring::Kernel => counters::SPLITS_KERNEL_DISPATCHES,
        },
        1,
    );
    // Arena reuse made observable. Actual pool handoffs depend on
    // thread scheduling, so the counter records the canonical
    // scheduling-independent quantity: every segment after the first
    // scores into buffers a previous segment already warmed.
    let scratch_reuses = index.nodes.len().saturating_sub(1) as u64;
    if params.split_scoring == SplitScoring::Kernel && scratch_reuses > 0 {
        engine.count(counters::SCORE_SCRATCH_REUSES, scratch_reuses);
    }

    // Precompute each node's left-child membership mask, bit-packed
    // into one contiguous arena, so the hot per-split loops test
    // membership in O(1) without any per-node allocation.
    ctx.mask_words.clear();
    ctx.mask_offsets.clear();
    ctx.mask_offsets.push(0);
    for entry in &index.nodes {
        let tree = &ensembles[entry.module].trees[entry.tree];
        let node = &tree.nodes[entry.node];
        let left = &tree.nodes[node.left.expect("internal node")].obs;
        push_left_membership_mask(&node.obs, left, &mut ctx.mask_words);
        ctx.mask_offsets.push(ctx.mask_words.len());
    }

    // Lines 6–7: block-partitioned posterior computation over the flat
    // candidate list — the phase whose imbalance the paper measures.
    // Both execution paths produce bit-identical posteriors and report
    // identical per-item costs; the kernel amortizes the exact
    // separation pass over each (node, parent) run it is handed and,
    // in Incremental mode, batches the Monte-Carlo confirmation draws
    // through a vectorized replay of the same per-item generators.
    let index_ref = &index;
    let mask_words: &[u64] = &ctx.mask_words;
    let mask_offsets: &[usize] = &ctx.mask_offsets;
    let node_mask = |pos: usize| Bits {
        words: &mask_words[mask_offsets[pos]..mask_offsets[pos + 1]],
    };
    let seed = master.seed();
    engine.span_enter("score-splits");
    let posteriors: Vec<f64> = match params.split_scoring {
        SplitScoring::Naive => engine.dist_map_segmented(&segments, 1, &|item| {
            let (pos, parent_pos, obs_pos) = index_ref.locate(item);
            let entry = &index_ref.nodes[pos];
            let node = &ensembles[entry.module].trees[entry.tree].nodes[entry.node];
            let var = candidate_parents[parent_pos];
            let row = data.values(var);
            let value = row[node.obs[obs_pos]];
            split_posterior(row, seed, params, item, value, &node.obs, node_mask(pos))
        }),
        SplitScoring::Kernel => {
            let pool = &ctx.pool;
            engine.dist_map_segmented_batch(&segments, 1, &|pos, range, out| {
                let entry = &index_ref.nodes[pos];
                let node = &ensembles[entry.module].trees[entry.tree].nodes[entry.node];
                let mask = node_mask(pos);
                let n = entry.n_obs;
                let mut guard = pool.acquire();
                let sc = &mut *guard;
                // The range may start or end mid-run when a block
                // boundary bisects the segment; each overlapped
                // (node, parent) run still needs the full sorted pass
                // (a candidate's σ depends on all of the node's
                // observations), after which only the owned items are
                // emitted.
                let first_parent = (range.start - entry.base) / n;
                let last_parent = (range.end - 1 - entry.base) / n;
                if params.mode == ScoreMode::Incremental {
                    score_range_fast(
                        sc,
                        data,
                        seed,
                        params,
                        entry,
                        &node.obs,
                        mask,
                        candidate_parents,
                        &range,
                        first_parent,
                        last_parent,
                        out,
                    );
                } else {
                    // The Table 1 cost emulation: per-item scalar
                    // confirmation with the reference per-round work.
                    sc.bools.clear();
                    sc.bools.extend((0..n).map(|i| mask.get(i)));
                    for (off, &var) in candidate_parents[first_parent..=last_parent]
                        .iter()
                        .enumerate()
                    {
                        let run_start = entry.base + (first_parent + off) * n;
                        let lo = range.start.max(run_start);
                        let hi = range.end.min(run_start + n);
                        let row = data.values(var);
                        let sigmas = sc.split.compute(row, &node.obs, &sc.bools);
                        for item in lo..hi {
                            let obs_pos = item - run_start;
                            let value = row[node.obs[obs_pos]];
                            out.push(mc_confirm(
                                row,
                                seed,
                                params,
                                item,
                                value,
                                &node.obs,
                                mask,
                                sigmas[obs_pos],
                                &mut sc.gather,
                            ));
                        }
                    }
                }
            })
        }
    };

    engine.span_exit(); // score-splits

    // Segmented-scan + local selection + all-gather (§3.2.3's
    // implementation note). The scan's payload is one word per item;
    // the gather carries 3 words per chosen split.
    engine.span_enter("select-splits");
    engine.collective(Collective::Scan, 1);

    let j = params.splits_per_node;
    let sel_scratch = &mut ctx.sel_scratch;
    let sel_out = &mut ctx.sel_out;
    let mut node_splits = Vec::with_capacity(index.nodes.len());
    for pos in 0..index.nodes.len() {
        let (start, end) = index.node_range(pos);
        let weights = &posteriors[start..end];
        let entry = &index.nodes[pos];
        let resolve = |within: usize, posterior: f64| -> ChosenSplit {
            let parent_pos = within / entry.n_obs;
            let obs_pos = within % entry.n_obs;
            let var = candidate_parents[parent_pos];
            let node = &ensembles[entry.module].trees[entry.tree].nodes[entry.node];
            ChosenSplit {
                var,
                value: data.values(var)[node.obs[obs_pos]],
                posterior,
            }
        };

        let mut wstream = master.stream(Domain::SplitSelectWeighted, pos as u64);
        let total_weight: f64 = weights.iter().sum();
        let weighted: Vec<ChosenSplit> = if total_weight > 0.0 {
            // Fused selection: all J targets are drawn up front (in
            // stream order) and served by ONE merged prefix walk over
            // the node's posteriors instead of J independent walks —
            // same draws, same picks, a J-fold cheaper scan.
            select_wtd_rand_batch(&mut wstream, weights, j, sel_scratch, sel_out);
            sel_out
                .iter()
                .map(|&within| resolve(within, weights[within]))
                .collect()
        } else {
            // Every candidate was discarded: the node gets no weighted
            // splits (Alg. 5 keeps only positive-posterior splits).
            Vec::new()
        };

        let mut ustream = master.stream(Domain::SplitSelectUniform, pos as u64);
        let uniform: Vec<ChosenSplit> = (0..j)
            .map(|_| {
                let within = select_unif_rand(&mut ustream, weights.len());
                resolve(within, weights[within])
            })
            .collect();

        node_splits.push(NodeSplits {
            entry: pos,
            weighted,
            uniform,
        });
    }
    engine.collective(
        Collective::AllGather,
        node_splits.len() * j * 2 * 3,
    );
    engine.span_exit(); // select-splits
    engine.span_exit(); // assign-splits

    // Imbalance-feedback point (§5.3.1): split scoring is the phase
    // whose cost "cannot be estimated a priori", so after each
    // selection round the engine may re-evaluate its partitioning for
    // the next one. Posteriors are item-ordered and selection streams
    // node-keyed, so a re-partition cannot change any chosen split.
    engine.partition_feedback();

    SplitAssignment { index, node_splits }
}

/// The fast Monte-Carlo path (Incremental mode, nodes of any width):
/// score `range` of node `entry`, appending one `(posterior, work)`
/// per item to `out`.
///
/// Bit-identical to the scalar path by construction:
///
/// * the exact pass is [`SplitScratch::compute_masks`], whose σ values
///   are the same f64 expressions as [`separation_score`] and whose
///   `⌈n/64⌉`-word consistency masks encode exactly the scalar
///   predicate `(row[node_obs[pick]] <= value) == left(pick)`;
/// * `σ == 0` ⇒ the confirmation can only yield posterior `0.0`
///   (`confirmed` multiplies `|σ| = 0`), and `|σ| == 1` ⇒ the mask is
///   all-ones/all-zeros so every draw agrees and the posterior is
///   `1.0` — both shortcuts skip draws safely because each item owns a
///   private keyed generator (no shared stream to keep in step);
/// * the remaining items are pushed with posterior `0.0`, queued in
///   their `s_eff` bucket, and replay their own `Lcg128` streams inside
///   [`mc_kernel::mc_hits_wide`] when the bucket flushes (at
///   [`BUCKET_FLUSH`] items, and at the end of the range), which
///   patches the confirmed posteriors in place. The kernel is verified
///   draw-for-draw against [`Lcg128`] (and the IFMA engine lane-for-lane
///   against the scalar engine) in `mc_kernel`'s tests; since every
///   item's generator is its own, neither flush order nor lane grouping
///   can change a hit count.
///
/// Work accounting is the same closed form the scalar path charges:
/// `(n + s_eff·n) · COST_CELL` per item.
#[allow(clippy::too_many_arguments)]
fn score_range_fast(
    sc: &mut SegScratch,
    data: &Dataset,
    seed: u64,
    params: &TreeParams,
    entry: &NodeEntry,
    node_obs: &[usize],
    mask: Bits<'_>,
    candidate_parents: &[usize],
    range: &std::ops::Range<usize>,
    first_parent: usize,
    last_parent: usize,
    out: &mut Vec<(f64, u64)>,
) {
    let n = entry.n_obs;
    let w = n.div_ceil(64);
    // MC items have 0 < |σ| < 1, hence s_eff ∈ [1, S]; the max(1)
    // keeps one bucket alive for S = 0 (where s_eff is pinned to 1).
    let n_buckets = (params.max_sampling_steps).max(1);
    sc.buckets.resize_with(n_buckets, McBucket::default);
    // Empty already unless a previous call on this scratch unwound.
    sc.buckets.iter_mut().for_each(McBucket::clear);
    let s = params.max_sampling_steps as f64;
    for (off, &var) in candidate_parents[first_parent..=last_parent]
        .iter()
        .enumerate()
    {
        let run_start = entry.base + (first_parent + off) * n;
        let lo = range.start.max(run_start);
        let hi = range.end.min(run_start + n);
        let row = data.values(var);
        let (sigmas, cons) = sc.split.compute_masks(row, node_obs, mask.words);
        for item in lo..hi {
            let obs_pos = item - run_start;
            let sigma = sigmas[obs_pos];
            let s_eff = 1 + (s * (1.0 - sigma.abs())).floor() as usize;
            let work = (n + s_eff * n) as u64 * COST_CELL;
            if sigma == 0.0 {
                // Unconfirmable: posterior would be |σ| = 0 whether or
                // not the draws agree.
                out.push((0.0, work));
            } else if sigma.abs() == 1.0 {
                // Every observation satisfies (or violates) the
                // predicate, so every draw agrees with σ's direction.
                out.push((1.0, work));
            } else {
                // Bucket by s_eff in this same pass, so every lane of
                // a SIMD batch draws the same number of rounds.
                let b = &mut sc.buckets[s_eff - 1];
                b.states.push(
                    Lcg128::from_key(seed, Domain::SplitPosterior.tag(), item as u64).state(),
                );
                b.cons.extend(cons[obs_pos * w..(obs_pos + 1) * w].iter().copied());
                b.out_idx.push(out.len());
                b.sigma.push(sigma);
                out.push((0.0, work));
                if b.out_idx.len() == BUCKET_FLUSH {
                    b.flush(n, s_eff * n, &mut sc.hits, out);
                }
            }
        }
    }
    for (bi, b) in sc.buckets[..n_buckets].iter_mut().enumerate() {
        if !b.out_idx.is_empty() {
            b.flush(n, (bi + 1) * n, &mut sc.hits, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::learn_module_trees;
    use mn_comm::{SerialEngine, SimEngine, ThreadEngine};
    use mn_data::synthetic;

    fn setup() -> (Dataset, Vec<ModuleEnsemble>, MasterRng) {
        let d = synthetic::yeast_like(14, 18, 77).dataset;
        let master = MasterRng::new(13);
        let mut e = SerialEngine::new();
        let params = TreeParams::default();
        let ensembles = vec![
            learn_module_trees(&mut e, &d, &master, 0, &(0..5).collect::<Vec<_>>(), &params),
            learn_module_trees(&mut e, &d, &master, 1, &(5..10).collect::<Vec<_>>(), &params),
        ];
        (d, ensembles, master)
    }

    #[test]
    fn index_is_contiguous_and_locatable() {
        let (_, ensembles, _) = setup();
        let index = SplitIndex::build(&ensembles, 14);
        assert!(index.total > 0);
        // Every item locates into a consistent node range.
        for i in (0..index.total).step_by(7) {
            let (pos, parent_pos, obs_pos) = index.locate(i);
            let (start, end) = index.node_range(pos);
            assert!(i >= start && i < end);
            assert!(parent_pos < 14);
            assert!(obs_pos < index.nodes[pos].n_obs);
            // Reconstruct the flat index.
            assert_eq!(
                start + parent_pos * index.nodes[pos].n_obs + obs_pos,
                i
            );
        }
        // Ranges tile [0, total).
        let mut cursor = 0;
        for pos in 0..index.nodes.len() {
            let (start, end) = index.node_range(pos);
            assert_eq!(start, cursor);
            cursor = end;
        }
        assert_eq!(cursor, index.total);
    }

    #[test]
    fn segments_match_node_ranges() {
        let (_, ensembles, _) = setup();
        let index = SplitIndex::build(&ensembles, 3);
        let segments = index.segments();
        assert_eq!(segments.n_items(), index.total);
        assert_eq!(segments.n_segments(), index.nodes.len());
        for (i, segment) in segments.ids().enumerate() {
            let (pos, _, _) = index.locate(i);
            assert_eq!(segment as usize, pos);
        }
        // Boundary structure matches the node ranges exactly.
        for pos in 0..index.nodes.len() {
            let (start, end) = index.node_range(pos);
            assert_eq!(segments.range(pos), start..end);
        }
    }

    #[test]
    fn membership_mask_marks_members() {
        let mut words = Vec::new();
        push_left_membership_mask(&[1, 4, 7, 9], &[4, 9], &mut words);
        let mask = Bits { words: &words };
        assert!(!mask.get(0) && mask.get(1) && !mask.get(2) && mask.get(3));
        assert_eq!(mask.words, &[0b1010]);
        // A second node appends after the first without disturbing it.
        let base = words.len();
        push_left_membership_mask(&[2, 3], &[], &mut words);
        assert_eq!(&words[base..], &[0]);
        assert_eq!(&words[..base], &[0b1010]);
        // Wide nodes span multiple words.
        let wide_obs: Vec<usize> = (0..70).collect();
        let wide_left: Vec<usize> = vec![0, 63, 64, 69];
        let mut wide = Vec::new();
        push_left_membership_mask(&wide_obs, &wide_left, &mut wide);
        assert_eq!(wide.len(), 2);
        let wmask = Bits { words: &wide };
        for i in 0..70 {
            assert_eq!(wmask.get(i), wide_left.contains(&i), "bit {i}");
        }
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "must be sorted")]
    fn membership_mask_rejects_unsorted_input() {
        push_left_membership_mask(&[5, 1, 3], &[1], &mut Vec::new());
    }

    #[test]
    fn separation_score_limits() {
        let row = [0.0, 1.0, 2.0, 3.0];
        let obs = [0usize, 1, 2, 3];
        // Perfect split: left = low values (bits 0 and 1 set).
        assert_eq!(
            separation_score(&row, 1.5, &obs, Bits { words: &[0b0011] }),
            1.0
        );
        // Anti-perfect.
        assert_eq!(
            separation_score(&row, 1.5, &obs, Bits { words: &[0b1100] }),
            -1.0
        );
        // Useless value (everything on one side): half correct.
        assert_eq!(
            separation_score(&row, 10.0, &obs, Bits { words: &[0b0011] }),
            0.0
        );
    }

    #[test]
    fn assignment_is_deterministic_across_engines() {
        let (d, ensembles, master) = setup();
        let parents: Vec<usize> = (0..d.n_vars()).collect();
        let params = TreeParams::default();
        let a = assign_splits(
            &mut SerialEngine::new(),
            &d,
            &master,
            &ensembles,
            &parents,
            &params,
        );
        let b = assign_splits(
            &mut ThreadEngine::new(4),
            &d,
            &master,
            &ensembles,
            &parents,
            &params,
        );
        let c = assign_splits(
            &mut SimEngine::new(1024),
            &d,
            &master,
            &ensembles,
            &parents,
            &params,
        );
        assert_eq!(a, b);
        assert_eq!(a, c);
    }

    #[test]
    fn modes_choose_identical_splits() {
        let (d, ensembles, master) = setup();
        let parents: Vec<usize> = (0..d.n_vars()).collect();
        let pi = TreeParams {
            mode: ScoreMode::Incremental,
            ..TreeParams::default()
        };
        let pr = TreeParams {
            mode: ScoreMode::Reference,
            ..TreeParams::default()
        };
        let a = assign_splits(&mut SerialEngine::new(), &d, &master, &ensembles, &parents, &pi);
        let b = assign_splits(&mut SerialEngine::new(), &d, &master, &ensembles, &parents, &pr);
        assert_eq!(a.node_splits, b.node_splits);
    }

    #[test]
    fn reference_mode_costs_more() {
        let (d, ensembles, master) = setup();
        let parents: Vec<usize> = (0..d.n_vars()).collect();
        let pi = TreeParams {
            mode: ScoreMode::Incremental,
            ..TreeParams::default()
        };
        let pr = TreeParams {
            mode: ScoreMode::Reference,
            ..TreeParams::default()
        };
        let mut ei = SerialEngine::new();
        let mut er = SerialEngine::new();
        assign_splits(&mut ei, &d, &master, &ensembles, &parents, &pi);
        assign_splits(&mut er, &d, &master, &ensembles, &parents, &pr);
        assert!(
            er.work_units() as f64 > 1.8 * ei.work_units() as f64,
            "reference {} vs incremental {}",
            er.work_units(),
            ei.work_units()
        );
    }

    #[test]
    fn chosen_splits_have_valid_fields() {
        let (d, ensembles, master) = setup();
        let parents: Vec<usize> = (0..d.n_vars()).collect();
        let params = TreeParams::default();
        let out = assign_splits(
            &mut SerialEngine::new(),
            &d,
            &master,
            &ensembles,
            &parents,
            &params,
        );
        assert_eq!(out.node_splits.len(), out.index.nodes.len());
        for ns in &out.node_splits {
            assert!(ns.weighted.len() == params.splits_per_node || ns.weighted.is_empty());
            assert_eq!(ns.uniform.len(), params.splits_per_node);
            for s in ns.weighted.iter().chain(&ns.uniform) {
                assert!(s.var < d.n_vars());
                assert!(s.value.is_finite());
                assert!(s.posterior >= 0.0 && s.posterior <= 1.0);
            }
            // Weighted picks always carry positive posterior.
            for s in &ns.weighted {
                assert!(s.posterior > 0.0);
            }
        }
    }

    #[test]
    fn planted_regulator_wins_on_engineered_node() {
        // Engineer a module whose two children are exactly separated by
        // variable 0's values: candidate splits on variable 0 must get
        // high posteriors and dominate the weighted picks.
        let n_obs = 20;
        let mut values = vec![0.0; 2 * n_obs];
        for o in 0..n_obs {
            values[o] = if o < 10 { -1.0 } else { 1.0 }; // regulator
            values[n_obs + o] = if o < 10 { -2.0 } else { 2.0 }; // member
        }
        let d = Dataset::new(mn_data::Matrix::from_vec(2, n_obs, values), None, None);
        let master = MasterRng::new(3);
        let mut e = SerialEngine::new();
        let params = TreeParams {
            splits_per_node: 4,
            ..TreeParams::default()
        };
        let ens = learn_module_trees(&mut e, &d, &master, 0, &[1], &params);
        let parents = vec![0usize];
        let out = assign_splits(&mut e, &d, &master, &[ens], &parents, &params);
        // At least one node has weighted splits, and all name var 0.
        let any_weighted = out
            .node_splits
            .iter()
            .flat_map(|ns| &ns.weighted)
            .collect::<Vec<_>>();
        assert!(!any_weighted.is_empty());
        assert!(any_weighted.iter().all(|s| s.var == 0));
    }

    #[test]
    fn context_reuse_is_bit_identical() {
        let (d, ensembles, master) = setup();
        let parents: Vec<usize> = (0..d.n_vars()).collect();
        let params = TreeParams::default();
        let fresh = assign_splits(
            &mut SerialEngine::new(),
            &d,
            &master,
            &ensembles,
            &parents,
            &params,
        );
        // One warm context across repeated calls (the intended steady
        // state) must match fresh-context results exactly.
        let mut ctx = SplitContext::new();
        for _ in 0..3 {
            let again = assign_splits_in(
                &mut SerialEngine::new(),
                &d,
                &master,
                &ensembles,
                &parents,
                &params,
                &mut ctx,
            );
            assert_eq!(fresh, again);
        }
    }

    #[test]
    fn fast_path_matches_scalar_confirmation_item_by_item() {
        // Every item's (posterior, work) — not just the chosen splits —
        // against the naive per-item path, for one- to three-word
        // nodes, over a whole segment (buckets flush mid-range) and a
        // range bisected on both sides.
        let d = synthetic::yeast_like(12, 150, 3).dataset;
        let params = TreeParams::default();
        let parents: Vec<usize> = (0..d.n_vars()).collect();
        let mut sc = SegScratch::default();
        for n in [40usize, 64, 100, 150] {
            let node_obs: Vec<usize> = (0..n).collect();
            let left: Vec<usize> = node_obs
                .iter()
                .copied()
                .filter(|&o| d.values(0)[o] + d.values(1)[o] < 0.0)
                .collect();
            let mut words = Vec::new();
            push_left_membership_mask(&node_obs, &left, &mut words);
            let mask = Bits { words: &words };
            let entry = NodeEntry {
                module: 0,
                tree: 0,
                node: 0,
                base: 1000,
                n_obs: n,
            };
            let total = parents.len() * n;
            for range in [1000..1000 + total, 1000 + n / 2 + 7..1000 + total - n - 3] {
                let first = (range.start - entry.base) / n;
                let last = (range.end - 1 - entry.base) / n;
                let mut out = vec![(-1.0, 0)];
                score_range_fast(
                    &mut sc, &d, 21, &params, &entry, &node_obs, mask, &parents, &range, first,
                    last, &mut out,
                );
                assert_eq!(out.len(), 1 + range.len());
                for (item, &got) in range.clone().zip(&out[1..]) {
                    let within = item - entry.base;
                    let row = d.values(parents[within / n]);
                    let value = row[node_obs[within % n]];
                    let want = split_posterior(row, 21, &params, item, value, &node_obs, mask);
                    assert_eq!(got, want, "n={n} item {item}");
                }
            }
        }
    }

    #[test]
    fn wide_nodes_match_naive_path() {
        // > 64 observations forces the kernel's wide (multi-word mask)
        // path; it must agree with the naive per-candidate pass.
        let d = synthetic::yeast_like(8, 80, 31).dataset;
        let master = MasterRng::new(5);
        let mut e = SerialEngine::new();
        let params = TreeParams::default();
        let ensembles = vec![learn_module_trees(
            &mut e,
            &d,
            &master,
            0,
            &(0..4).collect::<Vec<_>>(),
            &params,
        )];
        let parents: Vec<usize> = (0..d.n_vars()).collect();
        assert!(
            ensembles[0].trees.iter().any(|t| t
                .internal_nodes()
                .into_iter()
                .any(|node| t.nodes[node].obs.len() > 64)),
            "setup must produce at least one wide node"
        );
        let naive = assign_splits(
            &mut SerialEngine::new(),
            &d,
            &master,
            &ensembles,
            &parents,
            &TreeParams {
                split_scoring: SplitScoring::Naive,
                ..TreeParams::default()
            },
        );
        let kernel = assign_splits(
            &mut SerialEngine::new(),
            &d,
            &master,
            &ensembles,
            &parents,
            &TreeParams {
                split_scoring: SplitScoring::Kernel,
                ..TreeParams::default()
            },
        );
        assert_eq!(naive, kernel);
    }
}
