//! Allocation regression for the steady-state split-assignment loop:
//! once a [`SplitContext`]'s arenas are warm, repeated
//! `assign_splits_in` calls must allocate only the O(nodes) result
//! structures — never per-candidate — and the allocation count must be
//! exactly reproducible call over call. The live heap a warm call adds
//! at its high-water mark must stay O(largest segment + nodes × J): the
//! phase selects each node's splits where its posteriors are, so no
//! posterior vector over the whole candidate list may come back.
//!
//! Single test on purpose: the counting allocator is process-global,
//! so a second concurrent test would perturb the counts.

use mn_comm::SerialEngine;
use mn_data::synthetic;
use mn_rand::MasterRng;
use mn_score::Scoring;
use mn_tree::{assign_splits_in, learn_module_trees, SplitContext, TreeParams};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Bytes currently allocated, and the high-water mark since the last
/// [`reset_peak`].
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

fn grow_live(bytes: usize) {
    let live = LIVE.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrink_live(bytes: usize) {
    LIVE.fetch_sub(bytes as u64, Ordering::Relaxed);
}

/// Restart the high-water mark at the current live size; returns it.
fn reset_peak() -> u64 {
    let live = LIVE.load(Ordering::Relaxed);
    PEAK.store(live, Ordering::Relaxed);
    live
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        grow_live(layout.size());
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink_live(layout.size());
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        grow_live(new_size);
        shrink_live(layout.size());
        // SAFETY: forwarded unchanged; the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// One fixture's warm-path contract: after a first call warms the
/// context, repeated calls allocate a reproducible count that stays
/// O(nodes), far below the candidate count, and raise the live heap by
/// O(largest segment + nodes × J) bytes, not O(candidates).
fn assert_warm_allocations_stay_per_node(n_vars: usize, n_obs: usize, modules: usize, seed: u64) {
    let d = synthetic::yeast_like(n_vars, n_obs, seed).dataset;
    let master = MasterRng::new(4);
    let params = TreeParams::default();
    let mut engine = SerialEngine::new();
    let ensembles: Vec<_> = (0..modules)
        .map(|k| {
            let vars: Vec<usize> = (k * n_vars / modules..(k + 1) * n_vars / modules).collect();
            learn_module_trees(&mut engine, &d, &master, k, &vars, &params)
        })
        .collect();
    let parents: Vec<usize> = (0..d.n_vars()).collect();

    let mut ctx = SplitContext::new();
    let run = |ctx: &mut SplitContext| {
        let before = ALLOCS.load(Ordering::Relaxed);
        let live = reset_peak();
        let out = assign_splits_in(
            &mut SerialEngine::new(),
            &d,
            &master,
            &ensembles,
            &parents,
            &params,
            Scoring::Kernel,
            ctx,
        );
        let peak = PEAK.load(Ordering::Relaxed) - live;
        (ALLOCS.load(Ordering::Relaxed) - before, peak, out)
    };

    // First call warms the arenas (and may allocate freely).
    let (_, _, baseline) = run(&mut ctx);
    let total_candidates = baseline.index.total as u64;
    assert!(total_candidates > 1000, "setup too small to be meaningful");

    // Steady state: the allocation count is exactly reproducible...
    let (warm_a, peak, out_a) = run(&mut ctx);
    let (warm_b, _, out_b) = run(&mut ctx);
    assert_eq!(out_a, baseline);
    assert_eq!(out_b, baseline);
    assert_eq!(
        warm_a, warm_b,
        "steady-state allocation count must be deterministic ({n_vars}×{n_obs})"
    );
    // ...and scales with nodes/results, not with the candidate list:
    // the per-candidate structures (membership masks, gather buffers,
    // MC lane staging, selection scratch) all live in the context.
    assert!(
        warm_a < total_candidates / 4,
        "warm call allocated {warm_a} times for {total_candidates} candidates \
         ({n_vars}×{n_obs}) — a per-candidate allocation crept back into the hot loop"
    );

    // A node's results are buffered whole (an 8-byte posterior and its
    // 16-byte costed form, each in a vector grown by doubling) while it
    // is scored and selected; each node keeps 2J chosen splits and its
    // index entry.
    let index = &baseline.index;
    let largest = (0..index.nodes.len())
        .map(|pos| index.node_range(pos))
        .map(|(start, end)| end - start)
        .max()
        .unwrap_or(0) as u64;
    let nodes = index.nodes.len() as u64;
    let j = params.splits_per_node as u64;
    let bound = 96 * largest + nodes * (256 + 2 * j * 24) + 16 * 1024;
    assert!(
        peak <= bound,
        "a warm call raised the live heap by {peak} bytes (bound {bound}: largest segment \
         {largest} items, {nodes} nodes, J = {j}; {total_candidates} candidates would be \
         {} bytes of posteriors alone) ({n_vars}×{n_obs})",
        8 * total_candidates
    );
}

#[test]
fn warm_split_assignment_does_not_allocate_per_candidate() {
    assert_warm_allocations_stay_per_node(20, 30, 2, 9);
    // Nodes wider than 64 observations: multi-word masks and the wide
    // Monte-Carlo buckets must be warm-path allocation-free too.
    assert_warm_allocations_stay_per_node(10, 150, 2, 9);
    // Many nodes, so the candidate list dwarfs its largest segment.
    assert_warm_allocations_stay_per_node(60, 40, 12, 9);
}
