//! Allocation regression for the GaneSH kernel scorer (ISSUE 14): the
//! per-sweep caches are dense tables plus one statistics arena, and the
//! candidate list is one scorer-owned buffer, so
//!
//! * a warm `reassign_vars` proposal allocates a number of times that
//!   does not grow with the candidate count K, and
//! * dropping the scorer frees one buffer per table row, not one per
//!   cached entry.
//!
//! Single test on purpose: the counting allocator is process-global,
//! so a second concurrent test would perturb the counts.

use mn_comm::SerialEngine;
use mn_data::{synthetic, Dataset};
use mn_gibbs::sweep::reassign_vars;
use mn_gibbs::{CoClustering, SweepScorer};
use mn_rand::MasterRng;
use mn_score::{CandidateScoring, NormalGamma, ScoreMode};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static FREES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        FREES.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded unchanged; the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// `2k` variables in `k` initial clusters (≈ 0.86 k of them non-empty)
/// over 12 observations — the many-clusters, few-observations shape
/// where GaneSH dominates.
fn setup(k: usize) -> (Dataset, CoClustering, MasterRng) {
    let d = synthetic::yeast_like(2 * k, 12, 7).dataset;
    let master = MasterRng::new(3);
    let s = CoClustering::random_init(
        &d,
        k,
        NormalGamma::default(),
        ScoreMode::Incremental,
        &master,
        0,
    );
    (d, s, master)
}

/// One kernel-path proposal of `x`, exactly the scorer calls
/// `reassign_vars` makes, with the engine's output buffer supplied by
/// the caller. Returns the number of allocations it made.
fn propose(
    scorer: &mut SweepScorer,
    d: &Dataset,
    s: &CoClustering,
    x: usize,
    slots: &[usize],
    outs: &mut Vec<(f64, f64)>,
) -> u64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    let consts = scorer.consts();
    let (rem, _) = scorer.var_removal(d, s, x);
    let prep = scorer.prep_var_candidates(d, s, x, s.slot_of_var(x), slots);
    outs.clear();
    outs.extend((0..prep.len()).map(|i| prep.eval(&consts, i, rem).0));
    scorer.store_var_adds(x, slots, outs);
    ALLOCS.load(Ordering::Relaxed) - before
}

/// Allocations of (a first proposal of a fresh variable, a re-proposal
/// of an already proposed one) once the scorer is warm, against at
/// least `k_min` candidate clusters.
fn warm_proposal_allocs(k: usize, k_min: usize) -> (u64, u64) {
    let (d, s, _) = setup(k);
    let slots = s.active_slots();
    assert!(
        slots.len() >= k_min,
        "only {} candidate clusters",
        slots.len()
    );
    let mut outs = Vec::with_capacity(slots.len() + 1);
    let mut scorer = SweepScorer::new(s.prior());
    for x in 0..8 {
        propose(&mut scorer, &d, &s, x, &slots, &mut outs);
    }
    // A variable the scorer has not seen: two table rows and whatever
    // the arena's amortized doubling asks for.
    let fresh = propose(&mut scorer, &d, &s, 8, &slots, &mut outs);
    // A re-proposal against untouched clusters: lookups only.
    let again = propose(&mut scorer, &d, &s, 3, &slots, &mut outs);
    (fresh, again)
}

/// Allocations per proposal of one whole `reassign_vars` sweep.
fn sweep_allocs_per_proposal(k: usize) -> u64 {
    let (d, mut s, master) = setup(k);
    let mut e = SerialEngine::new();
    let before = ALLOCS.load(Ordering::Relaxed);
    reassign_vars(&mut e, &mut s, &d, &master, 0, 0, CandidateScoring::Kernel);
    (ALLOCS.load(Ordering::Relaxed) - before) / d.n_vars() as u64
}

#[test]
fn kernel_scorer_allocations_do_not_scale_with_candidates_or_entries() {
    // Per proposal, at K ≈ 256 and K ≈ 1024.
    for (k, k_min) in [(320, 256), (1250, 1024)] {
        let (fresh, again) = warm_proposal_allocs(k, k_min);
        assert!(
            fresh <= 8,
            "first proposal of a variable allocated {fresh} times against {k_min}+ candidates"
        );
        assert_eq!(
            again, 0,
            "a re-proposal must be allocation-free (K ≥ {k_min})"
        );
    }

    // Through the real sweep (engine output buffers, accepted moves and
    // table rows included): a constant per proposal, whatever K is.
    let small = sweep_allocs_per_proposal(320);
    let large = sweep_allocs_per_proposal(640);
    assert!(
        small <= 24 && large <= 24,
        "reassign_vars allocates {small} / {large} times per proposal at K ≈ 280 / 550 — \
         a per-candidate allocation crept back into the sweep"
    );

    // Dropping the scorer: one free per table row.
    let (d, s, _) = setup(320);
    let slots = s.active_slots();
    let mut outs = Vec::with_capacity(slots.len() + 1);
    let mut scorer = SweepScorer::new(s.prior());
    let n_proposed = 64;
    for x in 0..n_proposed {
        propose(&mut scorer, &d, &s, x, &slots, &mut outs);
    }
    let entries = scorer.hits() + scorer.misses();
    assert!(entries > 50_000, "setup too small to be meaningful");
    let before = FREES.load(Ordering::Relaxed);
    drop(scorer);
    let frees = FREES.load(Ordering::Relaxed) - before;
    // Two `[variable][slot]` tables (one row per proposed variable),
    // one `[slot][oslot]` table (one row per cluster slot), and a
    // constant number of flat buffers.
    let rows = (2 * n_proposed + slots.len() + 32) as u64;
    assert!(
        frees <= rows,
        "dropping the scorer freed {frees} buffers for {entries} cache lookups \
         (expected at most {rows}: one per table row)"
    );
}
