//! Allocation regression for writing a checkpoint unit: serializing
//! the co-occurrence unit (`UnitRecord<SparseSymMatrix>`, the one unit
//! that grows with n²) to JSON may raise the live heap by at most 3×
//! the text it writes. The output `String`'s own doubling needs up to
//! that (the old and the new buffer are both live while it grows); a
//! value tree of the unit next to its text (tens of bytes per stored
//! entry) needs several times more.
//!
//! Single test on purpose: the counting allocator is process-global,
//! so a second concurrent test would perturb the counts.

use mn_consensus::{SparseParts, SparseSymMatrix};
use monet::checkpoint::UnitRecord;
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

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
        grow_live(new_size);
        shrink_live(layout.size());
        // SAFETY: forwarded unchanged; the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// A thresholded co-occurrence matrix of `n` variables, each sharing a
/// module with its next `band - 1` neighbours in a fraction of the runs
/// of a 4-run ensemble (the values a real matrix stores).
fn banded_cooc(n: usize, band: usize) -> SparseSymMatrix {
    let mut row_ptr = vec![0];
    let mut col = Vec::new();
    let mut val = Vec::new();
    for i in 0..n {
        for j in i..(i + band).min(n) {
            col.push(j as u32);
            val.push(((i + j) % 4 + 1) as f64 / 4.0);
        }
        row_ptr.push(col.len());
    }
    SparseSymMatrix::from_parts(SparseParts {
        n,
        row_ptr,
        col,
        val,
    })
}

#[test]
fn writing_the_cooccurrence_unit_holds_no_value_tree() {
    let matrix = banded_cooc(1200, 48);
    let nnz = matrix.nnz_upper() as u64;
    assert!(nnz >= 50_000);
    let record = UnitRecord {
        value: matrix,
        counters: BTreeMap::from([
            ("consensus.nnz".to_string(), nnz),
            ("engine.dist_maps".to_string(), 1),
        ]),
    };

    let base = reset_peak();
    let text = serde_json::to_string(&record).unwrap();
    let raised = PEAK.load(Ordering::Relaxed) - base;
    let bound = 3 * text.len() as u64;
    assert!(
        raised <= bound,
        "writing a {}-byte unit raised the live heap by {raised} B, above 3× its text ({bound} B)",
        text.len()
    );
}
