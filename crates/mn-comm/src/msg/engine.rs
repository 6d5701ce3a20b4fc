//! True SPMD execution: every rank runs the whole learner.
//!
//! [`spmd_run`] spawns `p` rank-threads over the message fabric and
//! executes the same program on each, exactly as `mpirun` launches the
//! paper's implementation. Each rank gets a [`SpmdEngine`] whose
//! `dist_map` computes only the rank's own block and assembles the
//! global result with a real [`allgatherv`]; everything outside
//! `dist_map` — move application, consensus clustering, split
//! selection — executes redundantly on every rank, which is precisely
//! the paper's design (replicated state, distributed scoring,
//! collective sampling).
//!
//! Combined with the shared-seed stream discipline of `mn-rand`, every
//! rank finishes with the identical learned network; `spmd_run`
//! returns all of them so callers can (and tests do) assert equality.

use crate::cost::Collective;
use crate::driver::{
    self, block_runs, piece_senders, run_kernel, select_block, selector, BlockSelect, EngineCore,
    RunSlices, Style, TaskDelta,
};
use crate::engine::{ParEngine, SegmentBatchFn, SelectFn, TaskFn, Wire};
use crate::fault::{CommError, FaultAbort, FaultPlan, InjectedCrash};
use crate::hooks;
use crate::msg::collectives::{allgatherv, barrier};
use crate::msg::fabric::{fabric_with_faults, Endpoint};
use crate::segments::Segments;
use mn_obs::{FlightEvent, FlightRec, Recorder, SnapshotStash};
use std::borrow::Cow;
use std::time::{Duration, Instant};

/// Unwrap a fabric result or abort this rank by unwinding with a typed
/// payload: [`InjectedCrash`] if the plan killed *this* rank,
/// [`FaultAbort`] for every other communication failure. The unwind
/// drops the rank's endpoint, so peers observe the disconnection and
/// cascade — [`spmd_run_faulty`] converts the payloads back into
/// per-rank `Err` values.
fn ok_or_abort<T>(result: Result<T, CommError>) -> T {
    match result {
        Ok(value) => value,
        Err(CommError::Injected { rank, event }) => {
            std::panic::panic_any(InjectedCrash { rank, event })
        }
        Err(err) => std::panic::panic_any(FaultAbort(err)),
    }
}

/// The per-rank engine handed to an SPMD program, over an [`Endpoint`]
/// of either transport: in-process rank threads ([`spmd_run`]) or one
/// OS-process worker ([`spmd_worker_engine`]) — the engine's protocols
/// are identical on both.
///
/// The core's recorder is this rank's: busy time lands in this rank's
/// slot only; [`mn_obs::recorder::merge_ranks`] combines the ranks
/// afterwards (and, as a side effect, verifies the counters agree).
pub struct SpmdEngine {
    ep: Endpoint,
    core: EngineCore,
}

impl SpmdEngine {
    /// Build the engine around externally-held capture handles: the
    /// flight recorder is shared with the endpoint (so fabric traffic
    /// and injected faults land in it) and with whoever holds `flight`
    /// outside this rank's thread; the stash outlives the rank's unwind.
    pub(crate) fn with_capture(ep: Endpoint, flight: FlightRec, stash: SnapshotStash) -> Self {
        let obs = Recorder::for_rank_with_flight(ep.nranks(), ep.rank(), flight.clone());
        ep.attach_obs(flight, obs.comm_matrix());
        let mut core = EngineCore::new(Style::Spmd, ep.nranks(), obs);
        core.stash = stash;
        Self { ep, core }
    }

    /// This rank's id.
    pub fn rank(&self) -> usize {
        self.ep.rank()
    }

    /// Direct access to the endpoint, for custom protocols.
    pub fn endpoint(&self) -> &Endpoint {
        &self.ep
    }

    /// Unwrap a fabric result or abort this rank like [`ok_or_abort`],
    /// but first leave a post-mortem trail: a `CommFailure` flight
    /// event (injected kills already recorded their `FaultInjected` at
    /// the fabric) and a final snapshot in the death stash.
    fn abort_on<T>(&mut self, result: Result<T, CommError>) -> T {
        if let Err(err) = &result {
            if !matches!(err, CommError::Injected { .. }) {
                self.core.obs.flight_event(FlightEvent::CommFailure {
                    detail: err.to_string(),
                });
            }
            let now = self.now_s();
            self.core.stash.store(self.core.obs.snapshot(now));
        }
        ok_or_abort(result)
    }
}

impl ParEngine for SpmdEngine {
    fn core(&self) -> &EngineCore {
        &self.core
    }

    fn core_mut(&mut self) -> &mut EngineCore {
        &mut self.core
    }

    fn dist_map_segmented_batch<T: Wire>(
        &mut self,
        segments: &Segments,
        words_per_item: usize,
        f: SegmentBatchFn<'_, T>,
    ) -> Vec<T> {
        driver::drive(self, segments, words_per_item, f)
    }

    fn dist_map_segmented_select<T: Wire, S: Wire>(
        &mut self,
        segments: &Segments,
        words_per_select: usize,
        f: SegmentBatchFn<'_, T>,
        select: SelectFn<'_, T, S>,
    ) -> Vec<S> {
        driver::drive_select(self, segments, words_per_select, f, select)
    }

    fn dist_tasks<T: Wire>(&mut self, n_tasks: usize, f: TaskFn<'_, T>) -> Vec<(T, TaskDelta)> {
        driver::dist_tasks(self, n_tasks, f)
    }

    fn collective(&mut self, _op: Collective, words: usize) {
        // The sampling oracles of §3.1 are collective calls; keep the
        // ranks lock-step with a real barrier.
        self.core.obs.count_collective(words);
        self.core.telemetry_tick();
        let start = Instant::now();
        let synced = barrier(&self.ep);
        self.core.obs.charge_comm(start.elapsed().as_secs_f64());
        self.abort_on(synced);
    }

    fn io_rank(&self) -> bool {
        // One checkpoint writer per fabric, as the paper routes all
        // file I/O through rank 0.
        self.ep.rank() == 0
    }

    fn io_barrier(&mut self) {
        // A real barrier, but uncounted: file-I/O ordering is not part
        // of the accounted algorithm, so enabling checkpointing leaves
        // every counter and cost figure untouched. The same goes for
        // the traffic matrix and flight record — SimEngine's
        // io_barrier is a no-op, and muting here keeps the msg and sim
        // matrices comparable (and checkpointing invisible to both).
        self.ep.set_obs_muted(true);
        let synced = barrier(&self.ep);
        self.ep.set_obs_muted(false);
        self.abort_on(synced);
    }
}

impl RunSlices for SpmdEngine {
    /// Compute this rank's block only, then make the results global
    /// with a real [`allgatherv`] of bare `T`.
    fn run_slices<T: Wire>(
        &mut self,
        segments: &Segments,
        _words_per_item: usize,
        f: SegmentBatchFn<'_, T>,
    ) -> Vec<Vec<T>> {
        let rank = self.ep.rank();
        let start = Instant::now();
        let mut local = Vec::new();
        run_kernel(
            f,
            block_runs(segments, self.ep.nranks(), rank),
            |(value, _)| local.push(value),
        );
        self.core.charge_busy(rank, start.elapsed().as_secs_f64());
        let comm_start = Instant::now();
        let gathered = allgatherv(&self.ep, local);
        self.core
            .obs
            .charge_comm(comm_start.elapsed().as_secs_f64());
        vec![self.abort_on(gathered)]
    }

    /// Select this rank's block, exchange the cut pieces, and make the
    /// selections global with one [`allgatherv`].
    fn run_select<T: Wire, S: Wire>(
        &mut self,
        segments: &Segments,
        _words_per_select: usize,
        f: SegmentBatchFn<'_, T>,
        select: SelectFn<'_, T, S>,
    ) -> Vec<S> {
        let (rank, p) = (self.ep.rank(), self.ep.nranks());
        let start = Instant::now();
        let block = select_block(segments, p, rank, f, select, |_| {});
        self.core.charge_busy(rank, start.elapsed().as_secs_f64());
        let comm_start = Instant::now();
        let gathered = exchange_selections(&self.ep, segments, block, select);
        self.core
            .obs
            .charge_comm(comm_start.elapsed().as_secs_f64());
        self.abort_on(gathered)
    }
}

/// The meeting of a select map on one SPMD rank: send the block's lead
/// piece to its segment's selector, complete the rank's own cut segment
/// from the pieces of the ranks after it and select it, then
/// all-gather every rank's selections. A rank sends before it receives,
/// so no wait is circular.
fn exchange_selections<T: Wire, S: Wire>(
    ep: &Endpoint,
    segments: &Segments,
    block: BlockSelect<T, S>,
    select: SelectFn<'_, T, S>,
) -> Result<Vec<S>, CommError> {
    let (n, p) = (segments.n_items(), ep.nranks());
    let mut selections = block.selections;
    if let Some((seg, piece)) = block.lead {
        ep.send_vec(selector(n, p, segments.range(seg).start), Cow::Owned(piece))?;
    }
    if let Some((seg, mut results)) = block.head {
        for q in piece_senders(segments, p, seg) {
            results.extend(ep.recv_vec::<T>(q)?);
        }
        selections.push(select(seg, &results));
    }
    allgatherv(ep, selections)
}

/// Run `program` as SPMD over `p` ranks; returns every rank's result
/// in rank order (callers assert they are identical, as the paper's
/// determinism property promises). [`spmd_run_faulty`] with an empty
/// plan and blocking receives; a rank that fails panics here.
pub fn spmd_run<R: Send>(p: usize, program: impl Fn(&mut SpmdEngine) -> R + Sync) -> Vec<R> {
    spmd_run_faulty(p, FaultPlan::new(), None, program)
        .into_iter()
        .enumerate()
        .map(|(rank, out)| out.unwrap_or_else(|e| panic!("rank {rank} failed: {e}")))
        .collect()
}

/// Build the engine for ONE rank of an externally-launched SPMD
/// program — the multi-process worker path, where each rank is its own
/// OS process (`monet worker`) and there is no in-process launcher to
/// hold the capture handles. Installs this thread's observability
/// hooks exactly as [`spmd_run`] does for its rank threads and returns
/// the rank's flight recorder and death stash so the worker can dump
/// them on a fault (its process *is* the rank: nothing outlives it but
/// what it writes to disk).
pub fn spmd_worker_engine(ep: Endpoint) -> (SpmdEngine, FlightRec, SnapshotStash) {
    let flight = FlightRec::new(ep.nranks(), ep.rank());
    let stash = SnapshotStash::new();
    let engine = SpmdEngine::with_capture(ep, flight.clone(), stash.clone());
    hooks::install_thread_hooks(engine.core.obs.flight());
    (engine, flight, stash)
}

/// The per-rank capture handles a recorded SPMD run keeps *outside*
/// the rank threads: flight recorders (every event up to each rank's
/// death survives the unwind) and death stashes (the final
/// observability snapshot of each rank that aborted). Index = rank.
pub struct SpmdCapture {
    /// Each rank's flight recorder, usable after the run for dumps and
    /// replay comparison even if the rank died.
    pub flights: Vec<FlightRec>,
    /// Each rank's death stash; empty for ranks that finished cleanly.
    pub stashes: Vec<SnapshotStash>,
}

/// Run `program` as SPMD over `p` ranks under a [`FaultPlan`],
/// returning each rank's outcome in rank order: `Ok(result)` for ranks
/// that finished, `Err(CommError::Injected { .. })` for ranks the plan
/// killed, and `Err(..)` with the observed failure for survivors that
/// aborted on a dead peer, timeout, or protocol mismatch. Panics that
/// are *not* fault-injection payloads propagate unchanged.
///
/// `recv_timeout` bounds every fabric receive so injected message
/// drops resolve to [`CommError::Timeout`] instead of deadlock; peer
/// *death* needs no timeout (the dropped endpoint disconnects the
/// channels), so `None` is safe for kill-only plans.
pub fn spmd_run_faulty<R: Send>(
    p: usize,
    plan: FaultPlan,
    recv_timeout: Option<Duration>,
    program: impl Fn(&mut SpmdEngine) -> R + Sync,
) -> Vec<Result<R, CommError>> {
    spmd_run_faulty_recorded(p, plan, recv_timeout, program).0
}

/// [`spmd_run_faulty`], returning in addition the per-rank capture
/// handles ([`SpmdCapture`]): flight recorders and death stashes that
/// are created *before* the rank threads start and therefore survive
/// every rank's unwind. This is the entry point for post-mortem
/// tooling — on a failed run, dump `capture.flights[k]` to
/// `flightrec-rank<k>.jsonl` and export the stashed snapshots.
pub fn spmd_run_faulty_recorded<R: Send>(
    p: usize,
    plan: FaultPlan,
    recv_timeout: Option<Duration>,
    program: impl Fn(&mut SpmdEngine) -> R + Sync,
) -> (Vec<Result<R, CommError>>, SpmdCapture) {
    let flights: Vec<FlightRec> = (0..p).map(|r| FlightRec::new(p, r)).collect();
    let stashes: Vec<SnapshotStash> = (0..p).map(|_| SnapshotStash::new()).collect();
    let endpoints = fabric_with_faults(p, plan, recv_timeout);
    let outcomes = std::thread::scope(|scope| {
        let handles: Vec<_> = endpoints
            .into_iter()
            .enumerate()
            .map(|(rank, ep)| {
                let program = &program;
                let flight = flights[rank].clone();
                let stash = stashes[rank].clone();
                scope.spawn(move || {
                    let mut engine = SpmdEngine::with_capture(ep, flight, stash);
                    hooks::install_thread_hooks(engine.core.obs.flight());
                    let out = program(&mut engine);
                    // Best-effort exit barrier: with faults active,
                    // peers may already be gone.
                    let _ = barrier(engine.endpoint());
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(out) => Ok(out),
                Err(payload) => match payload.downcast::<InjectedCrash>() {
                    Ok(crash) => Err(CommError::Injected {
                        rank: crash.rank,
                        event: crash.event,
                    }),
                    Err(payload) => match payload.downcast::<FaultAbort>() {
                        Ok(abort) => Err(abort.0),
                        Err(payload) => std::panic::resume_unwind(payload),
                    },
                },
            })
            .collect()
    });
    (outcomes, SpmdCapture { flights, stashes })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dist_map_assembles_rank_ordered_results() {
        for p in [1usize, 2, 3, 5] {
            let outs = spmd_run(p, |engine| engine.dist_map(17, 1, &|i| (i * 3, 1)));
            let expected: Vec<usize> = (0..17).map(|i| i * 3).collect();
            for (r, out) in outs.iter().enumerate() {
                assert_eq!(out, &expected, "p={p} rank={r}");
            }
        }
    }

    #[test]
    fn each_rank_computes_only_its_block() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let calls = AtomicUsize::new(0);
        let outs = spmd_run(4, |engine| {
            engine.dist_map(100, 1, &|i| {
                calls.fetch_add(1, Ordering::Relaxed);
                (i, 1)
            })
        });
        // Every item computed exactly once across all ranks.
        assert_eq!(calls.load(Ordering::Relaxed), 100);
        assert_eq!(outs[0].len(), 100);
    }

    #[test]
    fn phases_and_reports_work_per_rank() {
        let reports = spmd_run(3, |engine| {
            engine.begin_phase("a");
            engine.dist_map(30, 1, &|i| (i, 1));
            engine.collective(Collective::AllReduce, 1);
            engine.begin_phase("b");
            engine.dist_map(30, 1, &|i| (i, 1));
            engine.report()
        });
        for r in &reports {
            assert_eq!(r.nranks, 3);
            assert_eq!(r.phases.len(), 2);
            assert_eq!(r.phases[0].name, "a");
        }
    }

    #[test]
    fn faulty_run_reports_the_killed_rank_and_aborts_survivors() {
        crate::fault::silence_injected_panics();
        let plan = FaultPlan::new().kill(1, 3);
        let out = spmd_run_faulty(3, plan, None, |engine| {
            for _ in 0..5 {
                engine.dist_map(12, 1, &|i| (i, 1));
            }
            engine.rank()
        });
        assert!(
            matches!(out[1], Err(CommError::Injected { rank: 1, event: 3 })),
            "{out:?}"
        );
        for (rank, result) in out.iter().enumerate() {
            if rank != 1 {
                assert!(result.is_err(), "rank {rank} survived a dead peer: {out:?}");
            }
        }
    }

    #[test]
    fn recorded_faulty_run_captures_flight_and_stash() {
        crate::fault::silence_injected_panics();
        let plan = FaultPlan::new().kill(1, 3);
        let (out, capture) = spmd_run_faulty_recorded(3, plan, None, |engine| {
            engine.begin_phase("w");
            for _ in 0..5 {
                engine.dist_map(12, 1, &|i| (i, 1));
            }
            engine.rank()
        });
        assert!(
            matches!(out[1], Err(CommError::Injected { rank: 1, event: 3 })),
            "{out:?}"
        );
        // The killed rank's flight record survived its unwind: traffic
        // up to the death, then the injection itself.
        let locals = capture.flights[1].local_events();
        assert!(locals
            .iter()
            .any(|r| matches!(r.event, FlightEvent::FaultInjected { .. })));
        // ...and its final snapshot landed in the death stash.
        let snap = capture.stashes[1].get().expect("killed rank stashed");
        assert_eq!(snap.nranks, 3);
        // Survivors abort on the dead peer: comm failure recorded,
        // snapshot stashed.
        for r in [0usize, 2] {
            assert!(capture.stashes[r].get().is_some(), "rank {r} stash");
            assert!(
                capture.flights[r]
                    .local_events()
                    .iter()
                    .any(|rec| matches!(rec.event, FlightEvent::CommFailure { .. })),
                "rank {r} comm failure"
            );
        }
        // Deterministic span events agree on the overlap across every
        // pair of ranks, timestamps excluded.
        let a = capture.flights[0].det_events();
        let b = capture.flights[2].det_events();
        mn_obs::flightrec::det_overlap_matches(&a, &b).expect("survivor det overlap");
    }

    #[test]
    fn faulty_run_with_empty_plan_matches_spmd_run() {
        let plain = spmd_run(3, |engine| engine.dist_map(10, 1, &|i| (i * 2, 1)));
        let faulty = spmd_run_faulty(3, FaultPlan::new(), None, |engine| {
            engine.dist_map(10, 1, &|i| (i * 2, 1))
        });
        for (a, b) in plain.iter().zip(&faulty) {
            assert_eq!(Some(a), b.as_ref().ok());
        }
    }
}
