//! The one map driver and the state every engine shares.
//!
//! Every parallel algorithm of §3.2 has the same shape: a flat list of
//! score computations is split over the ranks, each rank computes its
//! slice, and an all-gather makes the results global. [`drive`] writes
//! that shape once — plan → run slices → meet → assemble:
//!
//! 1. the replicated [`PartitionGovernor`] plans the split ([`Plan`]);
//! 2. the engine runs its ranks' slices and makes the results meet
//!    ([`RunSlices`]: inline, persistent rank threads, `allgatherv`, or one
//!    simulated pass charged with τ/μ);
//! 3. the plan assembles the gathered blocks in item order; owner plans
//!    also feed the measured per-item units back to the governor.
//!
//! [`EngineCore`] holds what every engine needs besides that: the
//! recorder, phases, per-rank busy time, the clock, the fault clock and
//! cancel token, and the governor. The [`ParEngine`] accessors read it,
//! so they are written once.

use crate::cancel::{check_cancel, CancelToken};
use crate::costmodel::{PartitionGovernor, Plan};
use crate::engine::{Costed, ParEngine, SegmentBatchFn, Wire};
use crate::fault::{FaultAction, FaultClock, FaultPlan, InjectedCrash};
use crate::hooks;
use crate::metrics::{PhaseReport, RunReport};
use crate::partition::PartitionStrategy;
use crate::segments::Segments;
use mn_obs::{FlightEvent, Recorder, SnapshotStash};
use std::ops::Range;
use std::time::Instant;

/// What an engine supplies to the driver: run the slices of `plan` it
/// executes and make the results meet.
pub(crate) trait RunSlices: ParEngine {
    /// Returns the rank-order concatenation of every rank's results,
    /// chunked any way (see [`Plan::assemble`]), each result passed
    /// through `keep` — bare `T` under [`Plan::Block`], the costed pair
    /// under [`Plan::Owners`].
    fn run_slices<T: Wire, E: Wire>(
        &mut self,
        plan: &Plan,
        segments: &Segments,
        words_per_item: usize,
        f: SegmentBatchFn<'_, T>,
        keep: fn(Costed<T>) -> E,
    ) -> Vec<Vec<E>>;
}

/// The map every engine runs (`ParEngine::dist_map_segmented_batch`).
pub(crate) fn drive<X: RunSlices, T: Wire>(
    engine: &mut X,
    segments: &Segments,
    words_per_item: usize,
    f: SegmentBatchFn<'_, T>,
) -> Vec<T> {
    let core = engine.core_mut();
    core.begin_map(segments.n_items(), words_per_item);
    let p = core.p;
    match core.gov.plan(p, segments) {
        Plan::Block => {
            let blocks = engine.run_slices(&Plan::Block, segments, words_per_item, f, |(v, _)| v);
            Plan::Block.assemble(blocks)
        }
        plan => {
            let blocks = engine.run_slices(&plan, segments, words_per_item, f, |c| c);
            let (values, costs): (Vec<T>, Vec<u64>) = plan.assemble(blocks).into_iter().unzip();
            engine.core_mut().gov.observe_map(p, segments, &costs);
            values
        }
    }
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
        let len = range.len();
        f(seg, range, &mut buf);
        assert_eq!(
            buf.len(),
            len,
            "a SegmentBatchFn must push exactly one result per item"
        );
        buf.drain(..).for_each(&mut emit);
    }
}

/// The engine families, which differ in clock and in what a phase
/// report means.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Style {
    /// One rank on the wall clock; the whole phase counts as busy.
    Serial,
    /// Wall clock, measured per-rank busy; shared-memory collectives
    /// are free.
    Threads,
    /// One SPMD rank on the wall clock: its own busy time, the rest of
    /// the phase is communication and waiting. Its faults live in the
    /// fabric, so the engine-level fault clock never ticks.
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
    /// Partitioning state: strategy, online cost model, and the
    /// imbalance-feedback ratchet.
    pub(crate) gov: PartitionGovernor,
    /// Busy seconds in the current phase, one slot per rank this engine
    /// accounts for: all `p`, or a single slot (serial, one SPMD rank).
    pub(crate) busy: Vec<f64>,
    /// Simulated communication and elapsed seconds of the current phase.
    pub(crate) comm: f64,
    pub(crate) elapsed: f64,
    /// The simulated clock: bulk-synchronous seconds since creation.
    pub(crate) sim_now: f64,
    epoch: Instant,
    phases: Vec<PhaseReport>,
    current: Option<(String, Instant)>,
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
            gov: PartitionGovernor::new(PartitionStrategy::Block),
            busy: vec![0.0; if style == Style::Spmd { 1 } else { p }],
            comm: 0.0,
            elapsed: 0.0,
            sim_now: 0.0,
            epoch: Instant::now(),
            phases: Vec::new(),
            current: None,
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

    /// The engine event of one map. Counters record the *logical*
    /// global call, identically on every engine and rank.
    pub(crate) fn begin_map(&mut self, n_items: usize, words_per_item: usize) {
        self.tick();
        self.obs.count_dist_map(n_items, words_per_item);
        self.telemetry_tick();
    }

    /// Charge `dt` busy seconds to `rank` (to the single slot when the
    /// engine accounts for one rank only).
    pub(crate) fn charge_busy(&mut self, rank: usize, dt: f64) {
        let slot = if self.busy.len() == 1 { 0 } else { rank };
        self.busy[slot] += dt;
        self.obs.charge_busy_rank(rank, dt);
    }

    fn busy_max_avg(&self) -> (f64, f64) {
        let max = self.busy.iter().copied().fold(0.0, f64::max);
        (max, self.busy.iter().sum::<f64>() / self.busy.len() as f64)
    }

    fn close_phase(&mut self) {
        let Some((name, start)) = self.current.take() else {
            return;
        };
        let wall = start.elapsed().as_secs_f64();
        let (max, avg) = self.busy_max_avg();
        let (busy_max_s, busy_avg_s, comm_s, elapsed_s) = match self.style {
            Style::Serial => (wall, wall, 0.0, wall),
            Style::Threads => (max, avg, 0.0, wall),
            Style::Spmd => (max, avg, (wall - max).max(0.0), wall),
            Style::Sim => (max, avg, self.comm, self.elapsed),
        };
        self.phases.push(PhaseReport {
            name,
            busy_max_s,
            busy_avg_s,
            comm_s,
            elapsed_s,
        });
        self.busy.fill(0.0);
        self.comm = 0.0;
        self.elapsed = 0.0;
    }

    pub(crate) fn begin_phase(&mut self, name: &str) {
        self.close_phase();
        self.current = Some((name.to_string(), Instant::now()));
        let now = self.now_s();
        self.obs.begin_phase(name, now);
        self.obs.telemetry_tick(now);
    }

    pub(crate) fn report(&mut self) -> RunReport {
        self.close_phase();
        let now = self.now_s();
        self.obs.finish(now);
        // An SPMD rank's hooks belong to the thread that launched it.
        if self.style != Style::Spmd {
            hooks::clear_thread_hooks();
        }
        RunReport {
            nranks: self.p,
            phases: std::mem::take(&mut self.phases),
        }
    }

    /// Imbalance feedback from the busy time of the current phase
    /// window. Engage-only: wall-clock noise can pull the CostGuided
    /// ratchet forward but never back. With a single busy slot the
    /// measured imbalance is identically zero, so an SPMD rank — which
    /// sees only its own busy time — makes the same decision as every
    /// other rank, from the replicated unit-domain statistics alone.
    pub(crate) fn partition_feedback(&mut self) {
        let (max, avg) = self.busy_max_avg();
        self.gov.feedback((avg > 0.0).then(|| (max - avg) / avg));
    }
}
