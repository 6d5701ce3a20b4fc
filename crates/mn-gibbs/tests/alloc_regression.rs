//! Allocation regression for the GaneSH kernel scorer. A candidate's
//! weight is a pure function of the state evaluated inside the map,
//! and the sweep keeps no per-(variable, cluster) tables, so
//!
//! * a warm `reassign_vars` proposal allocates a number of times that
//!   does not grow with the candidate count K (scoring the candidates
//!   themselves allocates nothing), and
//! * the live heap a whole sweep adds stays linear in the number of
//!   candidates and variables — it does not grow with proposals × K,
//!   which is what per-sweep memo tables of row statistics and whole
//!   deltas did (tens of MB at 1400 × 20).
//!
//! Single test on purpose: the counting allocator is process-global,
//! so a second concurrent test would perturb the counts.

use mn_comm::SerialEngine;
use mn_data::{synthetic, Dataset};
use mn_gibbs::scorer::var_candidate;
use mn_gibbs::sweep::reassign_vars;
use mn_gibbs::{CoClustering, SweepScorer};
use mn_rand::MasterRng;
use mn_score::{CandidateScoring, NormalGamma, ScoreMode};
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

/// One kernel-path proposal of `x` — the removal delta, every
/// candidate's score and the replicated absorb of the scores, exactly
/// what `reassign_vars` evaluates — with caller-owned buffers standing
/// in for the engine's output. Returns the number of allocations it
/// made.
fn propose(
    scorer: &mut SweepScorer,
    d: &Dataset,
    s: &CoClustering,
    x: usize,
    slots: &[usize],
    (items, weights): (&mut Vec<(f64, u64)>, &mut Vec<f64>),
) -> u64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    let (rem, _) = scorer.var_removal(d, s, x);
    items.clear();
    let candidates = slots.iter().map(|&slot| Some(slot)).chain([None]);
    items
        .extend(candidates.map(|slot| var_candidate(scorer.consts(), d, s, x, slot, rem).item().0));
    scorer.take_weights(items, weights);
    ALLOCS.load(Ordering::Relaxed) - before
}

/// Allocations per proposal of one whole `reassign_vars` sweep, and
/// the live heap bytes the sweep added at its high-water mark.
fn sweep_allocs_and_peak(k: usize) -> (u64, u64, usize) {
    let (d, mut s, master) = setup(k);
    let n_cand = s.n_active() + 1;
    let mut e = SerialEngine::new();
    let before = ALLOCS.load(Ordering::Relaxed);
    let live = reset_peak();
    reassign_vars(&mut e, &mut s, &d, &master, 0, 0, CandidateScoring::Kernel);
    let peak = PEAK.load(Ordering::Relaxed) - live;
    let per_proposal = (ALLOCS.load(Ordering::Relaxed) - before) / d.n_vars() as u64;
    (per_proposal, peak, n_cand)
}

#[test]
fn kernel_scorer_allocations_do_not_scale_with_candidates_or_entries() {
    // Scoring a proposal's candidates, at K ≈ 256 and K ≈ 1024: the
    // candidate functions are pure, so once the count tables hold the
    // counts the first proposal evaluated, not a single allocation.
    for (k, k_min) in [(320, 256), (1250, 1024)] {
        let (d, s, _) = setup(k);
        let slots = s.active_slots();
        assert!(
            slots.len() >= k_min,
            "only {} candidate clusters",
            slots.len()
        );
        let mut scorer = SweepScorer::new(s.prior());
        let mut items = Vec::with_capacity(slots.len() + 1);
        let mut weights = Vec::with_capacity(slots.len() + 1);
        propose(&mut scorer, &d, &s, 0, &slots, (&mut items, &mut weights));
        for x in 1..16 {
            let allocs = propose(&mut scorer, &d, &s, x, &slots, (&mut items, &mut weights));
            assert_eq!(
                allocs, 0,
                "proposal of {x} allocated against {k_min}+ candidates"
            );
        }
    }

    // Through the real sweep (engine output buffers, accepted moves and
    // the count tables included): a constant per proposal, whatever K
    // is, and a live-heap high-water mark linear in K + n.
    let (small, small_peak, small_k) = sweep_allocs_and_peak(320);
    let (large, large_peak, large_k) = sweep_allocs_and_peak(640);
    assert!(
        small <= 24 && large <= 24,
        "reassign_vars allocates {small} / {large} times per proposal at K ≈ 280 / 550 — \
         a per-candidate allocation crept back into the sweep"
    );
    for (peak, k) in [(small_peak, small_k), (large_peak, large_k)] {
        let n_vars = 2 * (k - 1) as u64;
        let bound = 256 * (k as u64 + n_vars);
        assert!(
            peak <= bound,
            "one reassign_vars sweep at K = {k} raised the live heap by {peak} bytes \
             (bound {bound}: linear in K + n, not proposals × K = {})",
            n_vars * k as u64
        );
    }
}
