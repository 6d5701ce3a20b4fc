//! The single-rank engine: the optimized sequential implementation.
//!
//! Executes every work item inline and measures *real wall-clock time*
//! per phase. This is the `T₁` of the paper's strong-scaling metrics
//! ("We use the run-time of our optimized sequential implementation as
//! T₁ in all the cases", §5.3) and the engine behind Table 1 and
//! Figures 3–4.

use crate::costmodel::Plan;
use crate::driver::{self, run_kernel, EngineCore, RunSlices, Style};
use crate::engine::{Costed, ParEngine, SegmentBatchFn, Wire};
use crate::fault::FaultPlan;
use crate::hooks;
use crate::segments::Segments;
use mn_obs::Recorder;
use std::time::Instant;

/// Sequential engine with wall-clock phase timing.
#[derive(Debug)]
pub struct SerialEngine {
    core: EngineCore,
    /// Total work units reported by kernels (exposed for calibration
    /// and for cross-checking SimEngine's accounting in tests).
    work_units: u64,
}

impl SerialEngine {
    /// New engine; phase timing starts at the first `begin_phase`.
    pub fn new() -> Self {
        Self {
            core: EngineCore::new(Style::Serial, 1, Recorder::new(1)),
            work_units: 0,
        }
    }

    /// Attach a deterministic fault plan. Engine events (each
    /// `dist_map*`, `collective`, or `replicated` call) are counted
    /// from 1 and attributed to rank 0; a scheduled `Kill` unwinds
    /// with [`crate::fault::InjectedCrash`].
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.core.set_fault_plan(plan);
        self
    }

    /// Engine events counted so far (for choosing sweep fault points).
    pub fn fault_events(&self) -> u64 {
        self.core.fault_events()
    }

    /// Work units accumulated so far.
    pub fn work_units(&self) -> u64 {
        self.work_units
    }
}

impl Default for SerialEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl ParEngine for SerialEngine {
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

    fn replicated(&mut self, work_units: u64) {
        self.core.tick();
        self.work_units += work_units;
        self.core.obs.count_replicated(work_units);
    }
}

impl RunSlices for SerialEngine {
    /// One rank: the whole list runs inline on the caller.
    fn run_slices<T: Wire, E: Wire>(
        &mut self,
        plan: &Plan,
        segments: &Segments,
        _words_per_item: usize,
        f: SegmentBatchFn<'_, T>,
        keep: fn(Costed<T>) -> E,
    ) -> Vec<Vec<E>> {
        hooks::install_thread_hooks(self.core.obs.flight());
        let start = Instant::now();
        let mut block = Vec::with_capacity(segments.n_items());
        run_kernel(f, plan.runs(segments, 1, 0), |(value, cost)| {
            self.work_units += cost;
            block.push(keep((value, cost)));
        });
        self.core.charge_busy(0, start.elapsed().as_secs_f64());
        vec![block]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_in_item_order() {
        let mut e = SerialEngine::new();
        let out = e.dist_map(5, 1, &|i| (10 - i, 1));
        assert_eq!(out, vec![10, 9, 8, 7, 6]);
    }

    #[test]
    fn work_units_accumulate() {
        let mut e = SerialEngine::new();
        e.dist_map(4, 1, &|i| (i, i as u64));
        assert_eq!(e.work_units(), 1 + 2 + 3);
        e.replicated(10);
        assert_eq!(e.work_units(), 16);
    }

    #[test]
    fn phases_are_recorded_in_order() {
        let mut e = SerialEngine::new();
        e.begin_phase("a");
        e.dist_map(10, 1, &|i| (i, 1));
        e.begin_phase("b");
        e.dist_map(10, 1, &|i| (i, 1));
        let r = e.report();
        assert_eq!(r.nranks, 1);
        assert_eq!(r.phases.len(), 2);
        assert_eq!(r.phases[0].name, "a");
        assert_eq!(r.phases[1].name, "b");
        assert!(r.phases.iter().all(|p| p.comm_s == 0.0));
        assert!(r.phases.iter().all(|p| p.elapsed_s >= 0.0));
    }

    #[test]
    fn work_without_phase_is_tolerated() {
        let mut e = SerialEngine::new();
        e.dist_map(3, 1, &|i| (i, 1));
        let r = e.report();
        assert!(r.phases.is_empty());
    }

    #[test]
    fn empty_map_is_empty() {
        let mut e = SerialEngine::new();
        let out: Vec<usize> = e.dist_map(0, 1, &|i| (i, 1));
        assert!(out.is_empty());
    }
}
