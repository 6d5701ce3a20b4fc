//! The SPMD execution abstraction.
//!
//! The parallel algorithms of §3.2 all share one shape: a flat list of
//! independent score computations is block-partitioned over ranks
//! (Alg. 1 line 6, Alg. 2 line 6, Alg. 4 line 11, Alg. 5 line 5), every
//! rank computes its block, and the results are made globally visible
//! by a collective (all-gather / all-reduce), after which all ranks
//! make the same sampling decision from a shared PRNG stream.
//!
//! [`ParEngine`] captures exactly that contract. Because every rank
//! ends each step with identical state, an engine may execute the
//! union of the work on however many physical resources it has, as
//! long as it (a) partitions the work list the way the paper does and
//! (b) accounts time per *virtual* rank. Four implementations back the
//! five engine specs:
//!
//! * [`crate::serial::SerialEngine`] (`serial`) — one rank, measured
//!   wall-clock; this is the optimized sequential implementation of §4.1.
//! * [`crate::thread::ThreadEngine`] (`threads:p`) — `p` OS threads with
//!   real shared-memory collectives; validates that partitioned
//!   execution produces identical results.
//! * [`crate::sim::SimEngine`] (`sim:p`) — `p` *virtual* ranks with
//!   per-rank clocks and the τ/μ collective cost model; reproduces the
//!   paper's scaling experiments for `p` up to 4096 on one machine
//!   (DESIGN.md §2 documents this substitution).
//! * [`crate::msg::SpmdEngine`] (`msg:p`, and `proc:p` over real OS
//!   processes) — true SPMD: one engine per rank over a message fabric.
//!
//! All four run the same map driver ([`crate::driver`]); each supplies
//! only how its ranks' slices run and how the results meet.

use crate::cost::Collective;
use crate::driver::{EngineCore, TaskDelta};
use crate::metrics::RunReport;
use crate::segments::Segments;
use crate::serial::SerialEngine;
use mn_obs::Recorder;
use std::ops::Range;

/// A work item's result together with its cost in work units.
pub type Costed<T> = (T, u64);

/// The payload bound of everything an engine moves between ranks.
///
/// In-process engines only need `Send + Clone` (a result genuinely
/// fans out to every rank), but the multi-process transport
/// ([`crate::msg::proc`]) additionally has to serialize payloads onto
/// a socket — so every distributed result type must also round-trip
/// through serde. All result types in this workspace are plain data;
/// the blanket impl makes the bound invisible at call sites.
pub trait Wire: Send + Clone + serde::Serialize + serde::Deserialize + 'static {}

impl<T: Send + Clone + serde::Serialize + serde::Deserialize + 'static> Wire for T {}

/// A segment-batched kernel: called with `(segment, item range)` where
/// the range is a sub-range of the segment's items (engines cut
/// segments at block-partition boundaries), it must push exactly one
/// costed result per item of the range, in item order. Batching lets a
/// kernel amortize per-segment setup (gather, sort, prefix sums)
/// across the items it is handed, while per-item costs keep the
/// engines' accounting identical to the per-item map.
pub type SegmentBatchFn<'a, T> = &'a (dyn Fn(usize, Range<usize>, &mut Vec<Costed<T>>) + Sync);

/// A segment selection of [`ParEngine::dist_map_segmented_select`]:
/// called once per segment with the segment's index and all of its
/// results in item order (empty for an empty segment), it returns the
/// small value that stands for the segment on every rank.
pub type SelectFn<'a, T, S> = &'a (dyn Fn(usize, &[T]) -> S + Sync);

/// One whole task of [`ParEngine::dist_tasks`]: called with the task
/// index and the fresh one-rank engine the task runs on.
pub type TaskFn<'a, T> = &'a (dyn Fn(usize, &mut SerialEngine) -> T + Sync);

/// The SPMD execution contract used by all parallel algorithms.
///
/// Implementations must guarantee: `dist_map` returns `f(i)` for every
/// `i` in `0..n_items`, in item order, regardless of rank count —
/// which, combined with the shared-stream sampling discipline of
/// `mn-rand`, yields the paper's determinism property (the learned
/// network is independent of `p`).
///
/// An engine implements two maps through [`crate::driver`]:
/// [`ParEngine::dist_map_segmented_batch`], which all-gathers every
/// result, and [`ParEngine::dist_map_segmented_select`], which
/// all-gathers one selection per segment; [`ParEngine::dist_map`]
/// wraps its closure as a batch kernel. The remaining methods default to the shared
/// [`EngineCore`].
pub trait ParEngine {
    /// The state every engine shares (see [`crate::driver`]).
    fn core(&self) -> &EngineCore;

    /// Mutable access to the shared state.
    fn core_mut(&mut self) -> &mut EngineCore;

    /// Number of (virtual) ranks.
    fn nranks(&self) -> usize {
        self.core().p
    }

    /// Block-partitioned map with all-gather semantics.
    ///
    /// `f(i)` computes item `i`'s result and reports its cost in work
    /// units; `words_per_item` is the size of one result in 8-byte
    /// words for communication accounting of the implied all-gather.
    /// The [`Wire`] bound exists because on message-passing engines a
    /// result value genuinely fans out to every rank (and on the
    /// multi-process transport it crosses a socket); all result types
    /// in this workspace are plain data. A flat list has no segments,
    /// so the simulator's segment-aware oracle strategies keep the
    /// block split here.
    fn dist_map<T: Wire>(
        &mut self,
        n_items: usize,
        words_per_item: usize,
        f: &(dyn Fn(usize) -> Costed<T> + Sync),
    ) -> Vec<T> {
        let batch = |_seg, range: Range<usize>, out: &mut Vec<Costed<T>>| out.extend(range.map(f));
        self.dist_map_segmented_batch(&Segments::flat(n_items), words_per_item, &batch)
    }

    /// Segment-batched map with all-gather semantics.
    ///
    /// Each call of `f` covers a contiguous sub-range of one segment's
    /// items (see [`SegmentBatchFn`]); engines partition the flat item
    /// list exactly as [`ParEngine::dist_map`] does — block boundaries
    /// may bisect a segment, in which case the kernel is invoked on
    /// the partial range on each side — and attribute each item's
    /// reported cost to the rank that owns the item. Results are
    /// returned in item order; determinism therefore matches the
    /// per-item map as long as the kernel's per-item results do. A
    /// kernel that pushes any other number of results than items
    /// panics the map.
    fn dist_map_segmented_batch<T: Wire>(
        &mut self,
        segments: &Segments,
        words_per_item: usize,
        f: SegmentBatchFn<'_, T>,
    ) -> Vec<T>;

    /// Segment-batched map with per-segment selection (§3.2.3's
    /// segmented scan, local selection and all-gather of the chosen
    /// values): the items run under exactly the block split, kernel
    /// calls and per-item costs of
    /// [`ParEngine::dist_map_segmented_batch`], but no rank ever holds
    /// the whole result list. `select(seg, &results)` runs once per
    /// segment, empty ones included, on that segment's results in item
    /// order, on the rank that owns the segment's first item; the call
    /// returns the selections in segment order on every rank.
    ///
    /// Only the pieces of the at most `p − 1` segments a block boundary
    /// cuts move to their owner, then the selections are all-gathered.
    /// `words_per_select` is the size of one selection in 8-byte words:
    /// the all-gathered payload the counters and the simulator charge.
    fn dist_map_segmented_select<T: Wire, S: Wire>(
        &mut self,
        segments: &Segments,
        words_per_select: usize,
        f: SegmentBatchFn<'_, T>,
        select: SelectFn<'_, T, S>,
    ) -> Vec<S>;

    /// Run `n_tasks` independent programs, each whole on one rank: task
    /// `i` runs start to finish, as `f(i, task_engine)`, on the rank
    /// that owns item `i` under the block split, on a fresh one-rank
    /// [`SerialEngine`] that shares this engine's cancel token (so a
    /// cancel still lands at the task's next engine event) but not its
    /// fault plan. This is the paper's `G` GaneSH instances run
    /// "concurrently on p/G processors each without any communication".
    ///
    /// Returns every task's output with its [`TaskDelta`], in task
    /// order, on every rank: threads hand the outputs back through the
    /// pool, msg and proc all-gather them, and the simulator charges
    /// rank `r` the one-rank simulated time of its tasks. The call
    /// itself counts nothing; the caller folds task `i`'s delta into
    /// this engine in task order ([`TaskDelta::fold_into`]), which
    /// leaves every counter and the deterministic flight sequence
    /// exactly as running the tasks one after another here would.
    fn dist_tasks<T: Wire>(&mut self, n_tasks: usize, f: TaskFn<'_, T>) -> Vec<(T, TaskDelta)>;

    /// Charge a collective operation of `words` total payload (8-byte
    /// words). The default is for shared memory: nothing moves, but
    /// the logical event still counts (the counter contract is
    /// engine-independent).
    fn collective(&mut self, op: Collective, words: usize) {
        let _ = op;
        let core = self.core_mut();
        core.tick();
        core.obs.count_collective(words);
        core.telemetry_tick();
    }

    /// Charge computation executed redundantly on every rank (e.g. the
    /// sequential consensus-clustering task of §3.2.2, which the paper
    /// runs "on all p processors"). The default is for real engines,
    /// which do the replicated work inline in the caller: only the
    /// logical units are counted.
    fn replicated(&mut self, work_units: u64) {
        let core = self.core_mut();
        core.tick();
        core.obs.count_replicated(work_units);
    }

    /// Mark the beginning of a named phase (for per-task breakdowns).
    fn begin_phase(&mut self, name: &str) {
        self.core_mut().begin_phase(name);
    }

    /// Finish the run: close all open observability spans and read the
    /// per-phase report off them ([`RunReport::from_spans`]). Engines
    /// are consumed by convention after `report`. An SPMD rank reports
    /// its own view; `merge_ranks` over the ranks' snapshots gives the
    /// run's.
    fn report(&mut self) -> RunReport {
        self.core_mut().report()
    }

    /// The engine's observability recorder (spans, counters,
    /// histograms). Under SPMD each rank owns its own recorder; the
    /// other engines observe all ranks through one.
    fn obs(&self) -> &Recorder {
        &self.core().obs
    }

    /// Mutable access to the recorder, for counters and custom spans.
    fn obs_mut(&mut self) -> &mut Recorder {
        &mut self.core_mut().obs
    }

    /// The stash this engine fills with a final observability snapshot
    /// just before it dies on an injected fault or communication
    /// failure. The handle is an `Arc`: clone it *before* handing the
    /// engine to `catch_unwind`, then read it after the unwind for
    /// post-mortem export.
    fn death_stash(&self) -> mn_obs::SnapshotStash {
        self.core().stash.clone()
    }

    /// Seconds since the engine's epoch, on the engine's own clock:
    /// wall time for the real engines, the simulated bulk-synchronous
    /// clock for [`crate::sim::SimEngine`].
    fn now_s(&self) -> f64 {
        self.core().now_s()
    }

    /// Open a child span under the innermost open span.
    fn span_enter(&mut self, name: &str) {
        let now = self.now_s();
        self.obs_mut().span_enter(name, now);
    }

    /// Close the innermost open span.
    fn span_exit(&mut self) {
        let now = self.now_s();
        self.obs_mut().span_exit(now);
    }

    /// Increment a deterministic event counter (see
    /// [`mn_obs::counters`]). Must only be called from replicated
    /// control flow — never inside a `dist_map` closure.
    fn count(&mut self, counter: &str, by: u64) {
        self.obs_mut().incr(counter, by);
    }

    /// Whether this execution context should perform file I/O (e.g.
    /// checkpoint writes). `true` everywhere except non-zero SPMD
    /// ranks: the paper routes all file I/O through rank 0, and one
    /// writer is what makes atomic tmp-file + rename checkpointing
    /// race-free.
    fn io_rank(&self) -> bool {
        true
    }

    /// Does nothing. Every engine runs the block split, so there is no
    /// partitioning to re-evaluate; the method stays only because the
    /// `bench_e2e` harness still calls it.
    #[doc(hidden)]
    fn partition_feedback(&mut self) {}

    /// Attach a cooperative cancellation token (see
    /// [`crate::cancel`]): the engine observes it at every engine
    /// event — the same clock fault injection ticks — and unwinds with
    /// the typed payload [`crate::cancel::JobCancelled`] once a stop
    /// has been requested. The msg engine, whose events live in the
    /// fabric, runs to completion; the in-process engines honor it,
    /// which is what `monet-serve` schedules jobs on.
    fn set_cancel_token(&mut self, token: crate::cancel::CancelToken) {
        self.core_mut().cancel = Some(token);
    }

    /// Synchronize all ranks *without* touching the deterministic
    /// counters or the cost model — unlike [`ParEngine::collective`],
    /// which is part of the accounted algorithm. Checkpointed
    /// execution calls this once after every rank has loaded the
    /// checkpoint store, so no rank can publish new checkpoint files
    /// while a peer is still reading old ones; because nothing is
    /// counted, enabling checkpointing cannot perturb a run's
    /// accounting. No-op on single-process engines.
    fn io_barrier(&mut self) {}
}

/// Convenience: run `f` inside a named phase.
pub fn with_phase<E: ParEngine + ?Sized, T>(
    engine: &mut E,
    name: &str,
    f: impl FnOnce(&mut E) -> T,
) -> T {
    engine.begin_phase(name);
    f(engine)
}

/// Convenience: run `f` inside a named observability span (balanced
/// enter/exit even though `f` chooses its own control flow; spans are
/// not unwound on panic — the engines are consumed on panic anyway).
pub fn with_span<E: ParEngine + ?Sized, T>(
    engine: &mut E,
    name: &str,
    f: impl FnOnce(&mut E) -> T,
) -> T {
    engine.span_enter(name);
    let out = f(engine);
    engine.span_exit();
    out
}

/// Re-export for implementors and callers.
pub use crate::cost::Collective as CollectiveOp;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serial::SerialEngine;

    #[test]
    fn with_phase_passes_through() {
        let mut e = SerialEngine::new();
        let v = with_phase(&mut e, "x", |e| {
            e.dist_map(3, 1, &|i| (i * 2, 1)) // trivial work
        });
        assert_eq!(v, vec![0, 2, 4]);
    }

    #[test]
    fn with_span_nests_under_phase_and_counts_events() {
        let mut e = SerialEngine::new();
        e.begin_phase("p");
        let v = with_span(&mut e, "child", |e| e.dist_map(4, 2, &|i| (i, 1)));
        assert_eq!(v.len(), 4);
        let snap = e.obs().snapshot(e.now_s());
        assert!(snap.spans.iter().any(|s| s.path == "run/p/child"));
        assert_eq!(snap.counters.get("engine.dist_maps"), Some(&1));
        assert_eq!(snap.counters.get("engine.items"), Some(&4));
        assert_eq!(snap.counters.get("comm.allgather_words"), Some(&8));
    }
}
