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
use crate::costmodel::Plan;
use crate::driver::{self, run_kernel, EngineCore, RunSlices, Style};
use crate::engine::{Costed, ParEngine, SegmentBatchFn, Wire};
use crate::fault::{CommError, FaultAbort, FaultPlan, InjectedCrash};
use crate::hooks;
use crate::msg::collectives::{allgatherv, allreduce, barrier};
use crate::msg::fabric::{fabric, fabric_with_faults, Endpoint, Fabric};
use crate::segments::Segments;
use mn_obs::{FlightEvent, FlightRec, Recorder, SnapshotStash};
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

/// The per-rank engine handed to an SPMD program. Generic over the
/// transport: [`Endpoint`] for in-process rank-threads (the default),
/// [`crate::msg::proc::ProcEndpoint`] for real OS-process workers —
/// the engine's protocols are identical on both.
///
/// The core's recorder is this rank's: busy time lands in this rank's
/// slot only; [`mn_obs::recorder::merge_ranks`] combines the ranks
/// afterwards (and, as a side effect, verifies the counters agree).
/// The governor is replicated SPMD state like the learner itself:
/// every rank sets the same strategy, plans from the same model, and
/// calibrates from the same *gathered* global units — so plans are
/// identical on all ranks by construction, which is what keeps the
/// fabric deadlock-free.
pub struct SpmdEngine<F: Fabric = Endpoint> {
    ep: F,
    core: EngineCore,
}

impl<F: Fabric> SpmdEngine<F> {
    fn new(ep: F) -> Self {
        let flight = FlightRec::new(ep.nranks(), ep.rank());
        Self::with_capture(ep, flight, SnapshotStash::new())
    }

    /// Build the engine around externally-held capture handles: the
    /// flight recorder is shared with the endpoint (so fabric traffic
    /// and injected faults land in it) and with whoever holds `flight`
    /// outside this rank's thread; the stash outlives the rank's unwind.
    pub(crate) fn with_capture(ep: F, flight: FlightRec, stash: SnapshotStash) -> Self {
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
    pub fn endpoint(&self) -> &F {
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

impl<F: Fabric> ParEngine for SpmdEngine<F> {
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

impl<F: Fabric> RunSlices for SpmdEngine<F> {
    /// Compute this rank's slice only, then make the results global
    /// with a real [`allgatherv`] — of bare `T` under Block, of costed
    /// pairs under an owner plan: shipping the units is what
    /// replicates the calibration inputs, so every rank's model evolves
    /// identically and the next plan agrees everywhere.
    fn run_slices<T: Wire, E: Wire>(
        &mut self,
        plan: &Plan,
        segments: &Segments,
        _words_per_item: usize,
        f: SegmentBatchFn<'_, T>,
        keep: fn(Costed<T>) -> E,
    ) -> Vec<Vec<E>> {
        let rank = self.ep.rank();
        let start = Instant::now();
        let mut local = Vec::new();
        run_kernel(f, plan.runs(segments, self.ep.nranks(), rank), |c| {
            local.push(keep(c))
        });
        self.core.charge_busy(rank, start.elapsed().as_secs_f64());
        let comm_start = Instant::now();
        let gathered = allgatherv(&self.ep, local);
        self.core
            .obs
            .charge_comm(comm_start.elapsed().as_secs_f64());
        vec![self.abort_on(gathered)]
    }
}

/// Run `program` as SPMD over `p` ranks; returns every rank's result
/// in rank order (callers assert they are identical, as the paper's
/// determinism property promises).
pub fn spmd_run<R: Send>(p: usize, program: impl Fn(&mut SpmdEngine) -> R + Sync) -> Vec<R> {
    let endpoints = fabric(p);
    std::thread::scope(|scope| {
        let handles: Vec<_> = endpoints
            .into_iter()
            .map(|ep| {
                let program = &program;
                scope.spawn(move || {
                    let mut engine = SpmdEngine::new(ep);
                    hooks::install_thread_hooks(engine.core.obs.flight());
                    let out = program(&mut engine);
                    ok_or_abort(barrier(engine.endpoint()));
                    out
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
}

/// Build the engine for ONE rank of an externally-launched SPMD
/// program — the multi-process worker path, where each rank is its own
/// OS process (`monet worker`) and there is no in-process launcher to
/// hold the capture handles. Installs this thread's observability
/// hooks exactly as [`spmd_run`] does for its rank threads and returns
/// the rank's flight recorder and death stash so the worker can dump
/// them on a fault (its process *is* the rank: nothing outlives it but
/// what it writes to disk).
pub fn spmd_worker_engine<F: Fabric>(ep: F) -> (SpmdEngine<F>, FlightRec, SnapshotStash) {
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

/// All-reduce helper for SPMD programs. Aborts the rank (unwinding
/// with a fault payload) on a communication failure; run under
/// [`spmd_run_faulty`] to observe the failure as a `Result`.
pub fn spmd_allreduce<F: Fabric, T: Wire>(
    engine: &SpmdEngine<F>,
    value: T,
    op: impl Fn(T, T) -> T,
) -> T {
    ok_or_abort(allreduce(engine.endpoint(), value, op))
}

/// All-gather helper for SPMD programs. Aborts the rank on a
/// communication failure, like [`spmd_allreduce`].
pub fn spmd_allgatherv<F: Fabric, T: Wire>(engine: &SpmdEngine<F>, local: Vec<T>) -> Vec<T> {
    ok_or_abort(allgatherv(engine.endpoint(), local))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::PartitionStrategy;

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

    #[test]
    fn every_strategy_matches_block_results_on_every_rank() {
        let f = |i: usize| (i.wrapping_mul(2654435761) % 1013, (i as u64 % 17) + 1);
        let expected_flat: Vec<usize> = (0..53).map(|i| f(i).0).collect();
        for strategy in PartitionStrategy::ALL {
            for p in [1usize, 2, 3, 5] {
                let outs = spmd_run(p, |engine| {
                    engine.set_partition_strategy(strategy);
                    let segments = Segments::from_lens([7usize, 1, 30, 0, 12, 3]);
                    let mut all = Vec::new();
                    // Two rounds so the second plans from a calibrated
                    // model (and, for CostGuided, a possibly-engaged
                    // ratchet) — identically on every rank.
                    for _ in 0..2 {
                        all.push(engine.dist_map(53, 1, &f));
                        all.push(engine.dist_map_segmented(&segments, 1, &f));
                        all.push(engine.dist_map_segmented_batch(
                            &segments,
                            1,
                            &|_seg, range, out| out.extend(range.map(f)),
                        ));
                        engine.partition_feedback();
                    }
                    all
                });
                for (r, out) in outs.iter().enumerate() {
                    for round in out {
                        assert_eq!(round, &expected_flat, "{strategy} p={p} rank={r}");
                    }
                }
            }
        }
    }

    #[test]
    fn helpers_allreduce_and_gather() {
        let outs = spmd_run(4, |engine| {
            let sum = spmd_allreduce(engine, engine.rank() as u32, |a, b| a + b);
            let all = spmd_allgatherv(engine, vec![engine.rank()]);
            (sum, all)
        });
        for (sum, all) in outs {
            assert_eq!(sum, 6);
            assert_eq!(all, vec![0, 1, 2, 3]);
        }
    }
}
