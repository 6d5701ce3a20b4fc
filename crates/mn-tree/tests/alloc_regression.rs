//! Allocation regression for the steady-state split-assignment loop
//! (ISSUE 6 satellite 3): once a [`SplitContext`]'s arenas are warm,
//! repeated `assign_splits_in` calls must allocate only the O(nodes)
//! result structures — never per-candidate — and the allocation count
//! must be exactly reproducible call over call.
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

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// One fixture's warm-path contract: after a first call warms the
/// context, repeated calls allocate a reproducible count that stays
/// O(nodes), far below the candidate count.
fn assert_warm_allocations_stay_per_node(n_vars: usize, n_obs: usize, seed: u64) {
    let d = synthetic::yeast_like(n_vars, n_obs, seed).dataset;
    let master = MasterRng::new(4);
    let params = TreeParams::default();
    let mut engine = SerialEngine::new();
    let half = n_vars / 2;
    let ensembles = vec![
        learn_module_trees(
            &mut engine,
            &d,
            &master,
            0,
            &(0..half).collect::<Vec<_>>(),
            &params,
        ),
        learn_module_trees(
            &mut engine,
            &d,
            &master,
            1,
            &(half..n_vars).collect::<Vec<_>>(),
            &params,
        ),
    ];
    let parents: Vec<usize> = (0..d.n_vars()).collect();

    let mut ctx = SplitContext::new();
    let run = |ctx: &mut SplitContext| {
        let before = ALLOCS.load(Ordering::Relaxed);
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
        (ALLOCS.load(Ordering::Relaxed) - before, out)
    };

    // First call warms the arenas (and may allocate freely).
    let (_, baseline) = run(&mut ctx);
    let total_candidates = baseline.index.total as u64;
    assert!(total_candidates > 1000, "setup too small to be meaningful");

    // Steady state: the allocation count is exactly reproducible...
    let (warm_a, out_a) = run(&mut ctx);
    let (warm_b, out_b) = run(&mut ctx);
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
}

#[test]
fn warm_split_assignment_does_not_allocate_per_candidate() {
    assert_warm_allocations_stay_per_node(20, 30, 9);
    // Nodes wider than 64 observations: multi-word masks and the wide
    // Monte-Carlo buckets must be warm-path allocation-free too.
    assert_warm_allocations_stay_per_node(10, 150, 9);
}
