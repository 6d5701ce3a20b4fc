//! The one map driver and the state every engine shares.
//!
//! Every parallel algorithm of §3.2 has the same shape: a flat list of
//! score computations is split over the ranks, each rank computes its
//! slice, and an all-gather makes the results global. `drive` writes
//! that shape once — split → run slices → meet:
//!
//! 1. rank `r` owns the paper's block, `block_range(n, p, r)` (Alg. 5
//!    line 5), and runs the segments clipped to it (`block_runs`);
//! 2. the engine runs its ranks' slices and makes the results meet
//!    (`RunSlices`: inline, persistent rank threads, `allgatherv`, or one
//!    simulated pass charged with τ/μ);
//! 3. the rank-order concatenation of the blocks is the result in item
//!    order.
//!
//! `drive_select` runs the same split for the select map, but a rank
//! keeps no more than the segment it is working on: each segment is
//! selected where its first item lives (`select_block`), and only the
//! pieces of segments a block boundary cuts travel to that rank, to be
//! joined there (`join_blocks` in one process, a send per piece
//! between SPMD ranks) before the selections meet.
//!
//! [`EngineCore`] holds what every engine needs besides that: the
//! recorder, the clock, the fault clock and cancel token. Busy and
//! communication seconds go to the recorder's open spans and nowhere
//! else; [`RunReport`] is read back from its phase spans. The
//! [`ParEngine`] accessors read the core, so they are written once.

use crate::cancel::{check_cancel, CancelToken};
use crate::engine::{Costed, ParEngine, SegmentBatchFn, SelectFn, TaskFn, Wire};
use crate::fault::{FaultAction, FaultClock, FaultPlan, InjectedCrash};
use crate::hooks;
use crate::metrics::RunReport;
use crate::partition::{block_owner, block_range};
use crate::segments::Segments;
use crate::serial::SerialEngine;
use mn_obs::flightrec::FlightRecord;
use mn_obs::recorder::ROOT_SPAN;
use mn_obs::{FlightEvent, FlightRec, Recorder, SnapshotStash};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::ops::Range;
use std::time::Instant;

/// What an engine supplies to the driver: run the block slices it
/// executes and make the results meet.
pub(crate) trait RunSlices: ParEngine {
    /// Returns the rank-order concatenation of every rank's results,
    /// chunked any way: one gathered vector or one block per rank.
    fn run_slices<T: Wire>(
        &mut self,
        segments: &Segments,
        words_per_item: usize,
        f: SegmentBatchFn<'_, T>,
    ) -> Vec<Vec<T>>;

    /// The select map's half: run every rank's block through
    /// [`select_block`] and make the selections meet — one process
    /// joins the blocks with [`join_blocks`], SPMD ranks send the cut
    /// pieces to their segments' selectors and all-gather. Returns
    /// every selection in segment order.
    fn run_select<T: Wire, S: Wire>(
        &mut self,
        segments: &Segments,
        words_per_select: usize,
        f: SegmentBatchFn<'_, T>,
        select: SelectFn<'_, T, S>,
    ) -> Vec<S>;
}

/// The map every engine runs (`ParEngine::dist_map_segmented_batch`).
pub(crate) fn drive<X: RunSlices, T: Wire>(
    engine: &mut X,
    segments: &Segments,
    words_per_item: usize,
    f: SegmentBatchFn<'_, T>,
) -> Vec<T> {
    let n = segments.n_items();
    engine.core_mut().begin_map(n, n * words_per_item);
    let mut blocks = engine.run_slices(segments, words_per_item, f);
    if blocks.len() == 1 {
        return blocks.pop().expect("one block");
    }
    let mut all = Vec::with_capacity(blocks.iter().map(Vec::len).sum());
    blocks.into_iter().for_each(|block| all.extend(block));
    all
}

/// The select map every engine runs
/// (`ParEngine::dist_map_segmented_select`). It counts as one map of
/// the segments' items whose all-gather moves one selection per
/// segment.
pub(crate) fn drive_select<X: RunSlices, T: Wire, S: Wire>(
    engine: &mut X,
    segments: &Segments,
    words_per_select: usize,
    f: SegmentBatchFn<'_, T>,
    select: SelectFn<'_, T, S>,
) -> Vec<S> {
    let gathered = segments.n_segments() * words_per_select;
    engine.core_mut().begin_map(segments.n_items(), gathered);
    engine.run_select(segments, words_per_select, f, select)
}

/// One rank's share of a select map ([`select_block`]).
pub(crate) struct BlockSelect<T, S> {
    /// The results of the block's first items when they continue a
    /// segment that starts on an earlier rank: `(segment, results)`.
    pub(crate) lead: Option<(usize, Vec<T>)>,
    /// The selections of the segments the rank holds whole, in segment
    /// order, the empty segments it selects included.
    pub(crate) selections: Vec<S>,
    /// The first part of the segment the rank selects that runs past
    /// the block's end: `(segment, results)`.
    pub(crate) head: Option<(usize, Vec<T>)>,
}

/// The rank that selects the segment whose first item position is
/// `pos`: the owner of item `pos` under the block split, or the last
/// rank for the empty segments at the end of the list. Monotone in
/// `pos`, so the rank-order concatenation of the ranks' selections is
/// in segment order.
pub(crate) fn selector(n_items: usize, p: usize, pos: usize) -> usize {
    if pos < n_items {
        block_owner(n_items, p, pos)
    } else {
        p - 1
    }
}

/// The ranks after segment `seg`'s selector whose blocks hold a piece
/// of it, in rank order: the senders of its lead pieces.
pub(crate) fn piece_senders(
    segments: &Segments,
    p: usize,
    seg: usize,
) -> impl Iterator<Item = usize> + '_ {
    let n = segments.n_items();
    let range = segments.range(seg);
    (selector(n, p, range.start) + 1..p)
        .map(move |q| (q, block_range(n, p, q)))
        .take_while(move |&(_, (lo, _))| lo < range.end)
        .filter(|&(_, (lo, hi))| lo < hi)
        .map(|(q, _)| q)
}

/// Run rank `rank`'s block of a select map: the same kernel calls as
/// [`block_runs`], each item's cost handed to `charge` in item order.
/// A segment the block holds whole is selected at once and dropped, so
/// the rank buffers one segment at a time besides the two cut ends of
/// its block.
pub(crate) fn select_block<T, S>(
    segments: &Segments,
    p: usize,
    rank: usize,
    f: SegmentBatchFn<'_, T>,
    select: SelectFn<'_, T, S>,
    mut charge: impl FnMut(u64),
) -> BlockSelect<T, S> {
    let n = segments.n_items();
    let (lo, hi) = block_range(n, p, rank);
    let mut buf = Vec::new();
    let mut run = |seg: usize, range: Range<usize>, values: &mut Vec<T>| {
        buf.reserve_exact(range.len());
        call_kernel(f, seg, range, &mut buf);
        for (value, cost) in buf.drain(..) {
            charge(cost);
            values.push(value);
        }
    };
    let mut block = BlockSelect {
        lead: None,
        selections: Vec::new(),
        head: None,
    };
    if lo < hi {
        let seg = segments.segment_of(lo);
        let whole = segments.range(seg);
        if whole.start < lo {
            let end = whole.end.min(hi);
            let mut piece = Vec::with_capacity(end - lo);
            run(seg, lo..end, &mut piece);
            block.lead = Some((seg, piece));
        }
    }
    // The last rank also selects the empty segments past the last item.
    let starts_end = if rank + 1 == p { n + 1 } else { hi };
    let mut values = Vec::new();
    for seg in segments.starting_in(lo, starts_end) {
        let range = segments.range(seg);
        if range.end > hi {
            // Room for the pieces the head is joined with.
            let mut head = Vec::with_capacity(range.len());
            run(seg, range.start..hi, &mut head);
            block.head = Some((seg, head));
        } else {
            values.clear();
            if !range.is_empty() {
                values.reserve_exact(range.len());
                run(seg, range, &mut values);
            }
            block.selections.push(select(seg, &values));
        }
    }
    block
}

/// Join the blocks of every rank, in rank order, into all selections
/// in segment order: each cut segment is its selector's head plus the
/// lead pieces of the ranks after it, selected here.
pub(crate) fn join_blocks<T, S>(
    segments: &Segments,
    blocks: impl IntoIterator<Item = BlockSelect<T, S>>,
    select: SelectFn<'_, T, S>,
) -> Vec<S> {
    let mut out = Vec::with_capacity(segments.n_segments());
    let mut open: Option<(usize, Vec<T>)> = None;
    for block in blocks {
        if let Some((seg, piece)) = block.lead {
            let (head_seg, mut results) = open.take().expect("a lead piece continues a head");
            debug_assert_eq!(head_seg, seg);
            results.extend(piece);
            if results.len() == segments.range(seg).len() {
                out.push(select(seg, &results));
            } else {
                open = Some((seg, results));
            }
        }
        out.extend(block.selections);
        if block.head.is_some() {
            debug_assert!(open.is_none());
            open = block.head;
        }
    }
    debug_assert!(open.is_none(), "a cut segment was never completed");
    out
}

/// The whole-task map every engine runs (`ParEngine::dist_tasks`): a
/// flat list of `n_tasks` items through the engine's own `run_slices`,
/// so ownership, hand-back and accounting are the map's, but each item
/// is a whole task on a fresh one-rank engine and its cost is the
/// task's work units. The call is one engine event (cancel and fault
/// clock) and counts nothing.
pub(crate) fn dist_tasks<X: RunSlices, T: Wire>(
    engine: &mut X,
    n_tasks: usize,
    f: TaskFn<'_, T>,
) -> Vec<(T, TaskDelta)> {
    let core = engine.core_mut();
    core.tick();
    // The msg engine runs to completion on a cancel (its events live
    // in the fabric), so its tasks do too.
    let cancel = match core.style {
        Style::Spmd => None,
        _ => core.cancel.clone(),
    };
    let flight = core.obs.flight();
    let kernel = |_seg, tasks: Range<usize>, out: &mut Vec<Costed<(T, TaskDelta)>>| {
        for i in tasks {
            let mut task = SerialEngine::for_task(cancel.clone());
            let value = {
                let _restore = RestoreHooks(&flight);
                f(i, &mut task)
            };
            out.push(((value, TaskDelta::of(&task)), task.work_units()));
        }
    };
    let blocks = engine.run_slices(&Segments::flat(n_tasks), 1, &kernel);
    blocks.into_iter().flatten().collect()
}

/// A task engine installs its own observability hooks on the thread it
/// runs on; this puts the rank's back however the task ends.
struct RestoreHooks<'a>(&'a FlightRec);

impl Drop for RestoreHooks<'_> {
    fn drop(&mut self) {
        hooks::install_thread_hooks(self.0.clone());
    }
}

/// What one task of `ParEngine::dist_tasks` recorded that the
/// determinism contract covers: its counters and its deterministic
/// flight events.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaskDelta {
    /// Every counter of the task engine, zero-valued keys included.
    counters: BTreeMap<String, u64>,
    /// The task's deterministic flight records after its root span's
    /// enter; span paths start at the task engine's root span.
    flight: Vec<FlightRecord>,
}

impl TaskDelta {
    fn of(task: &SerialEngine) -> Self {
        Self {
            counters: task.obs().counters().clone(),
            flight: task
                .obs()
                .flight()
                .det_events()
                .into_iter()
                .skip(1)
                .collect(),
        }
    }

    /// Fold the delta into `obs` as if the task had run there, under
    /// its innermost open span: add every counter, and record every
    /// deterministic event with the task's root span replaced by that
    /// span. Folding each task's delta in task order reproduces the
    /// counters and flight sequence of running the tasks in turn.
    pub fn fold_into(&self, obs: &mut Recorder) {
        for (name, &by) in &self.counters {
            obs.incr(name, by);
        }
        let root = obs.open_span_path().to_string();
        let reroot = |path: &str| {
            let below = path.strip_prefix(ROOT_SPAN).unwrap_or(path);
            format!("{root}{below}")
        };
        for record in &self.flight {
            obs.flight_event(match &record.event {
                FlightEvent::SpanEnter { path } => FlightEvent::SpanEnter { path: reroot(path) },
                FlightEvent::SpanExit { path } => FlightEvent::SpanExit { path: reroot(path) },
                event => event.clone(),
            });
        }
    }
}

/// Rank `rank`'s kernel calls `(segment, sub-range)` in ascending item
/// order: the segments clipped to its block of the `p`-way split.
pub(crate) fn block_runs(
    segments: &Segments,
    p: usize,
    rank: usize,
) -> impl Iterator<Item = (usize, Range<usize>)> + '_ {
    let (lo, hi) = block_range(segments.n_items(), p, rank);
    segments.overlapping(lo, hi)
}

/// Call the kernel on each run in order and hand every result to
/// `emit`, enforcing the [`SegmentBatchFn`] contract: exactly one
/// result per item, or every later result would land on the wrong item.
pub(crate) fn run_kernel<T>(
    f: SegmentBatchFn<'_, T>,
    runs: impl Iterator<Item = (usize, Range<usize>)>,
    mut emit: impl FnMut(Costed<T>),
) {
    let mut buf = Vec::new();
    for (seg, range) in runs {
        call_kernel(f, seg, range, &mut buf);
        buf.drain(..).for_each(&mut emit);
    }
}

/// One kernel call into the empty `buf`, checked against the
/// [`SegmentBatchFn`] contract.
fn call_kernel<T>(
    f: SegmentBatchFn<'_, T>,
    seg: usize,
    range: Range<usize>,
    buf: &mut Vec<Costed<T>>,
) {
    let len = range.len();
    f(seg, range, buf);
    assert_eq!(
        buf.len(),
        len,
        "a SegmentBatchFn must push exactly one result per item"
    );
}

/// The engine families, which differ in clock and in whose events the
/// core sees. What a phase's busy, comm and elapsed time mean is not
/// among them: every engine charges the recorder's spans, and the
/// report reads them back the same way.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Style {
    /// The wall clock, one process observing all its ranks (serial,
    /// threads): busy is the time inside maps, per rank, and
    /// shared-memory collectives are free.
    Wall,
    /// One SPMD rank on the wall clock: its own busy time and measured
    /// communication. Its faults live in the fabric, so the
    /// engine-level fault clock never ticks.
    Spmd,
    /// The simulated bulk-synchronous clock, charged by the τ/μ model.
    Sim,
}

/// The state every engine shares; see the module docs.
#[derive(Debug, Clone)]
pub struct EngineCore {
    pub(crate) style: Style,
    pub(crate) p: usize,
    pub(crate) obs: Recorder,
    /// The simulated clock: bulk-synchronous seconds since creation.
    pub(crate) sim_now: f64,
    epoch: Instant,
    /// Engine-event clock for deterministic fault injection: every
    /// `dist_map*`/`collective`/`replicated` call is one event,
    /// attributed to rank 0 (the single-process convention).
    faults: FaultClock,
    /// Cooperative cancellation token, observed at every engine event.
    pub(crate) cancel: Option<CancelToken>,
    /// Last-snapshot stash filled just before an injected crash or
    /// communication failure (the handle is an `Arc`: clone it before
    /// `catch_unwind`).
    pub(crate) stash: SnapshotStash,
}

impl EngineCore {
    pub(crate) fn new(style: Style, p: usize, obs: Recorder) -> Self {
        assert!(p >= 1, "need at least one rank");
        Self {
            style,
            p,
            obs,
            sim_now: 0.0,
            epoch: Instant::now(),
            faults: FaultClock::new(FaultPlan::new(), 0),
            cancel: None,
            stash: SnapshotStash::new(),
        }
    }

    /// Engine events counted so far (for choosing sweep fault points).
    pub(crate) fn fault_events(&self) -> u64 {
        self.faults.events()
    }

    /// Attach a deterministic fault plan; rank-0 entries apply.
    pub(crate) fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.faults = FaultClock::new(plan, 0);
    }

    /// Seconds since the engine's epoch on its own clock.
    pub(crate) fn now_s(&self) -> f64 {
        match self.style {
            Style::Sim => self.sim_now,
            _ => self.epoch.elapsed().as_secs_f64(),
        }
    }

    /// One engine event: observe the cancel token, tick the fault
    /// clock, and on a scheduled `Kill` (or `Die`, which degrades to
    /// `Kill` off the proc transport) record the injection, stash a
    /// final snapshot, and unwind with [`InjectedCrash`]. `Delay`/`Drop`
    /// are fabric-level actions and stay ignored.
    pub(crate) fn tick(&mut self) {
        if self.style == Style::Spmd {
            return;
        }
        check_cancel(self.cancel.as_ref(), self.faults.events());
        if let Some(action @ (FaultAction::Kill | FaultAction::Die)) = self.faults.tick() {
            let event = self.faults.events();
            self.obs.flight_event(FlightEvent::FaultInjected {
                action: action.label().to_string(),
                event,
            });
            self.stash.store(self.obs.snapshot(self.now_s()));
            std::panic::panic_any(InjectedCrash {
                rank: self.faults.rank(),
                event,
            });
        }
    }

    pub(crate) fn telemetry_tick(&mut self) {
        let now = self.now_s();
        self.obs.telemetry_tick(now);
    }

    /// The engine event of one map over `n_items` items whose
    /// all-gather moves `gathered_words` words. Counters record the
    /// *logical* global call, identically on every engine and rank.
    pub(crate) fn begin_map(&mut self, n_items: usize, gathered_words: usize) {
        self.tick();
        self.obs.count_dist_map(n_items, 0);
        self.obs.incr(
            mn_obs::counters::COMM_ALLGATHER_WORDS,
            gathered_words as u64,
        );
        self.telemetry_tick();
    }

    /// Charge `dt` busy seconds to `rank` in every open span.
    pub(crate) fn charge_busy(&mut self, rank: usize, dt: f64) {
        self.obs.charge_busy_rank(rank, dt);
    }

    pub(crate) fn begin_phase(&mut self, name: &str) {
        let now = self.now_s();
        self.obs.begin_phase(name, now);
        self.obs.telemetry_tick(now);
    }

    /// Close every span and read the phase report off them.
    pub(crate) fn report(&mut self) -> RunReport {
        let now = self.now_s();
        self.obs.finish(now);
        // An SPMD rank's hooks belong to the thread that launched it.
        if self.style != Style::Spmd {
            hooks::clear_thread_hooks();
        }
        RunReport::from_spans(self.p, self.obs.closed_spans())
    }
}
