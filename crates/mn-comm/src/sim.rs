//! The virtual-SPMD simulation engine.
//!
//! Reproduces the paper's cluster-scale experiments on one machine:
//! `p` *virtual* ranks each own the block of every work list that the
//! paper's Algorithms 1–5 would assign them; the engine executes the
//! union of the work once and advances each virtual rank's clock by
//! the work units its block reported. Collectives synchronize all
//! clocks to the maximum and add the τ/μ model cost of
//! [`CostModel::collective_s`]. The simulated elapsed time of a phase
//! is therefore
//!
//! ```text
//! T_phase = Σ_steps ( max_r busy_r(step) + comm(step) )
//! ```
//!
//! — the bulk-synchronous execution time of the real algorithm, with
//! load imbalance arising from exactly the same source as on the real
//! cluster: data-dependent per-item costs inside equal-sized blocks
//! (§5.3.1: "the time required for this phase cannot be estimated a
//! priori and varies significantly across splits").
//!
//! Because results never depend on `p`, the network learned under
//! `SimEngine` is identical to the sequential one — the determinism
//! property the paper engineers via block-split PRNG streams, which
//! integration tests assert across engines.

use crate::cost::{Collective, CostModel};
use crate::driver::{self, block_runs, run_kernel, EngineCore, RunSlices, Style};
use crate::engine::{ParEngine, SegmentBatchFn, Wire};
use crate::fault::FaultPlan;
use crate::hooks;
use crate::partition::{assign_owners, PartitionStrategy};
use crate::segments::Segments;
use mn_obs::Recorder;

/// Virtual-SPMD engine with per-rank clocks and τ/μ collective costs.
///
/// Under the paper's block split every map runs the shared driver, as
/// on the real engines. The oracle strategies (SegmentOwner /
/// SelfScheduling) assign the items of segmented maps from *true*
/// per-item costs, a luxury only the simulator has; flat maps keep
/// the block split under them.
#[derive(Debug, Clone)]
pub struct SimEngine {
    core: EngineCore,
    cost: CostModel,
    strategy: PartitionStrategy,
}

/// One bulk-synchronous step's per-rank charges, accumulated in item
/// order so the f64 sums are reproducible.
struct Step {
    busy: Vec<f64>,
    counts: Vec<usize>,
}

impl Step {
    fn new(p: usize) -> Self {
        Self {
            busy: vec![0.0; p],
            counts: vec![0; p],
        }
    }

    fn charge(&mut self, cost: &CostModel, rank: usize, units: u64) {
        self.busy[rank] += cost.compute_s(units);
        self.counts[rank] += 1;
    }
}

impl SimEngine {
    /// A `p`-rank engine with the default cost model and the paper's
    /// block partitioning.
    pub fn new(p: usize) -> Self {
        Self::with_model(p, CostModel::default())
    }

    /// A `p`-rank engine with an explicit cost model.
    pub fn with_model(p: usize, cost: CostModel) -> Self {
        Self {
            core: EngineCore::new(Style::Sim, p, Recorder::new(p)),
            cost,
            strategy: PartitionStrategy::Block,
        }
    }

    /// Attach a deterministic fault plan (rank-0 entries apply; see
    /// [`crate::fault::FaultPlan`]). A scheduled `Kill` unwinds with
    /// [`crate::fault::InjectedCrash`] at that engine event.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.core.set_fault_plan(plan);
        self
    }

    /// Engine events counted so far (for choosing sweep fault points).
    pub fn fault_events(&self) -> u64 {
        self.core.fault_events()
    }

    /// Select the partitioning strategy (ablation hook; the default is
    /// the paper's block split).
    pub fn with_strategy(mut self, strategy: PartitionStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// The active cost model.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// Account one bulk-synchronous step: per-rank busy seconds plus a
    /// synchronizing collective of `comm_s` seconds. Also advances the
    /// simulated clock and charges the open observability spans, so
    /// simulated time flows into the same span tree wall-clock engines
    /// fill.
    fn account_step(&mut self, step_busy: &[f64], comm_s: f64) {
        let core = &mut self.core;
        let step_max = step_busy.iter().copied().fold(0.0, f64::max);
        for (b, &s) in core.busy.iter_mut().zip(step_busy) {
            *b += s;
        }
        core.comm += comm_s;
        core.elapsed += step_max + comm_s;
        core.sim_now += step_max + comm_s;
        core.obs.charge_busy(step_busy);
        core.obs.charge_comm(comm_s);
    }

    /// Close the step that ends a map: charge the all-gather, and
    /// synthesize its message-fabric traffic — each non-root rank ships
    /// its `esize`-byte results to rank 0 along the binomial reduce
    /// tree's leaf edges, then the concatenation is broadcast. Byte for
    /// byte the schedule [`crate::msg::collectives::allgatherv`]
    /// executes, so the merged sim matrix equals the merged msg matrix
    /// for the same program.
    fn finish_map(&mut self, step: Step, n_items: usize, words_per_item: usize, esize: usize) {
        let comm =
            self.cost
                .collective_s(Collective::AllGather, n_items * words_per_item, self.core.p);
        self.account_step(&step.busy, comm);
        self.core
            .obs
            .comm_matrix()
            .record_allgatherv(&step.counts, esize as u64);
    }
}

impl ParEngine for SimEngine {
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
        let strategy = self.strategy;
        if segments.is_flat() || strategy == PartitionStrategy::Block {
            return driver::drive(self, segments, words_per_item, f);
        }
        // The oracle step: evaluate the union once (item costs are
        // deterministic functions of the item), assign owners from the
        // true costs, then attribute each item's cost to its owner.
        let (n, p) = (segments.n_items(), self.core.p);
        self.core.begin_map(n, words_per_item);
        hooks::install_thread_hooks(self.core.obs.flight());
        let (mut values, mut costs) = (Vec::with_capacity(n), Vec::with_capacity(n));
        run_kernel(f, segments.iter(), |(v, c)| {
            values.push(v);
            costs.push(c);
        });
        let mut step = Step::new(p);
        for (&owner, &c) in assign_owners(strategy, p, &costs, segments)
            .iter()
            .zip(&costs)
        {
            step.charge(&self.cost, owner, c);
        }
        self.finish_map(step, n, words_per_item, std::mem::size_of::<T>());
        values
    }

    fn collective(&mut self, op: Collective, words: usize) {
        self.core.tick();
        self.core.obs.count_collective(words);
        let comm = self.cost.collective_s(op, words, self.core.p);
        self.account_step(&vec![0.0; self.core.p], comm);
        // The msg engine realizes `collective` as a zero-payload
        // barrier (reduce + broadcast of a unit value); synthesize the
        // same edges so the matrices agree.
        self.core.obs.comm_matrix().record_allreduce(0);
        self.core.telemetry_tick();
    }

    fn replicated(&mut self, work_units: u64) {
        self.core.tick();
        self.core.obs.count_replicated(work_units);
        let s = self.cost.compute_s(work_units);
        self.account_step(&vec![s; self.core.p], 0.0);
    }
}

impl RunSlices for SimEngine {
    /// The simulator runs every virtual rank's block in turn on the
    /// caller, charging each rank its items' costs.
    fn run_slices<T: Wire>(
        &mut self,
        segments: &Segments,
        words_per_item: usize,
        f: SegmentBatchFn<'_, T>,
    ) -> Vec<Vec<T>> {
        hooks::install_thread_hooks(self.core.obs.flight());
        let p = self.core.p;
        let mut step = Step::new(p);
        let blocks: Vec<Vec<T>> = (0..p)
            .map(|r| {
                let mut block = Vec::new();
                run_kernel(f, block_runs(segments, p, r), |(value, cost)| {
                    step.charge(&self.cost, r, cost);
                    block.push(value);
                });
                block
            })
            .collect();
        self.finish_map(
            step,
            segments.n_items(),
            words_per_item,
            std::mem::size_of::<T>(),
        );
        blocks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::RunReport;

    /// A map whose item costs are uniform.
    fn uniform_run(p: usize, items: usize, unit: u64) -> RunReport {
        let mut e = SimEngine::with_model(p, CostModel::free_comm());
        e.begin_phase("work");
        e.dist_map(items, 1, &|i| (i, unit));
        e.report()
    }

    #[test]
    fn results_identical_to_serial_order() {
        let mut e = SimEngine::new(7);
        let out = e.dist_map(10, 1, &|i| (i * i, 1));
        assert_eq!(out, (0..10).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn perfect_speedup_for_uniform_work_and_free_comm() {
        let t1 = uniform_run(1, 1024, 100).total_s();
        let t16 = uniform_run(16, 1024, 100).total_s();
        let t256 = uniform_run(256, 1024, 100).total_s();
        assert!((t1 / t16 - 16.0).abs() < 1e-6, "speedup {}", t1 / t16);
        assert!((t1 / t256 - 256.0).abs() < 1e-6, "speedup {}", t1 / t256);
    }

    #[test]
    fn skewed_costs_create_imbalance() {
        // One block of items is 100x more expensive; with block
        // partitioning the owning rank dominates.
        let make = |p: usize| {
            let mut e = SimEngine::with_model(p, CostModel::free_comm());
            e.begin_phase("work");
            e.dist_map(64, 1, &|i| (i, if i < 8 { 1000 } else { 10 }));
            e.report()
        };
        let r8 = make(8);
        assert!(
            r8.phase_imbalance("work") > 1.0,
            "imbalance {}",
            r8.phase_imbalance("work")
        );
        // Elapsed is bounded by the slowest rank, not the average.
        assert!(r8.phases[0].busy_max_s > r8.phases[0].busy_avg_s);
        assert!((r8.phases[0].elapsed_s - r8.phases[0].busy_max_s).abs() < 1e-12);
    }

    #[test]
    fn communication_grows_with_ranks() {
        let run = |p: usize| {
            let mut e = SimEngine::new(p);
            e.begin_phase("c");
            for _ in 0..100 {
                e.collective(Collective::AllReduce, 4);
            }
            e.report().comm_s()
        };
        assert_eq!(run(1), 0.0);
        assert!(run(4) > 0.0);
        assert!(run(1024) > run(4));
    }

    #[test]
    fn replicated_work_does_not_scale() {
        let run = |p: usize| {
            let mut e = SimEngine::with_model(p, CostModel::free_comm());
            e.begin_phase("r");
            e.replicated(1_000_000);
            e.report().total_s()
        };
        assert!((run(1) - run(64)).abs() < 1e-12);
    }

    #[test]
    fn self_scheduling_beats_block_on_skewed_segments() {
        let segments = Segments::from_lens(vec![8usize; 8]);
        // Expensive items are clustered at the front of the list, so the
        // block partition loads rank 0 heavily while self-scheduling
        // spreads them.
        let cost_of = |i: usize| if i < 8 { 500u64 } else { 5 };
        let run = |strategy: PartitionStrategy| {
            let mut e = SimEngine::with_model(8, CostModel::free_comm()).with_strategy(strategy);
            e.begin_phase("w");
            e.dist_map_segmented(&segments, 1, &|i| (i, cost_of(i)));
            e.report()
        };
        let block = run(PartitionStrategy::Block);
        let dynamic = run(PartitionStrategy::SelfScheduling);
        let owner = run(PartitionStrategy::SegmentOwner);
        assert!(dynamic.total_s() <= block.total_s());
        // All strategies compute the same results (already checked by
        // types); all account the same total busy work.
        let busy = |r: &RunReport| r.phases[0].busy_avg_s * r.nranks as f64;
        assert!((busy(&block) - busy(&dynamic)).abs() < 1e-9);
        assert!((busy(&block) - busy(&owner)).abs() < 1e-9);
    }

    #[test]
    fn batched_map_matches_per_item_accounting() {
        // The batched segment map must charge the same per-item costs
        // to the same ranks as the per-item map, for every strategy —
        // the property that keeps the imbalance figures identical.
        let segments = Segments::from_lens(vec![5usize, 9, 2, 16]);
        let cost_of = |i: usize| (i as u64 % 11) * 10 + 1;
        for strategy in PartitionStrategy::ALL {
            for p in [1usize, 3, 7, 32] {
                let mut per_item = SimEngine::new(p).with_strategy(strategy);
                per_item.begin_phase("w");
                let a = per_item.dist_map_segmented(&segments, 1, &|i| (i * 3, cost_of(i)));
                let ra = per_item.report();

                let mut batched = SimEngine::new(p).with_strategy(strategy);
                batched.begin_phase("w");
                let b = batched.dist_map_segmented_batch(&segments, 1, &|_seg, range, out| {
                    out.extend(range.map(|i| (i * 3, cost_of(i))));
                });
                let rb = batched.report();

                assert_eq!(a, b, "{strategy:?} p={p}");
                assert_eq!(ra, rb, "{strategy:?} p={p} accounting diverged");
            }
        }
    }

    #[test]
    fn strategies_do_not_change_results_or_counters() {
        let segments = Segments::from_lens(vec![3usize, 12, 1, 9]);
        let mut reference: Option<(Vec<usize>, _)> = None;
        for strategy in PartitionStrategy::ALL {
            let mut e = SimEngine::new(5).with_strategy(strategy);
            e.begin_phase("w");
            let mut out = e.dist_map(18, 2, &|i| (i * 7, (i as u64 % 3) + 1));
            out.extend(
                e.dist_map_segmented_batch(&segments, 1, &|_seg, range, out| {
                    out.extend(range.map(|i| (i + 100, (i as u64 % 6) + 1)))
                }),
            );
            let _ = e.report();
            let counters = e.obs().snapshot(e.now_s()).counters;
            match &reference {
                None => reference = Some((out, counters)),
                Some((ref_out, ref_counters)) => {
                    assert_eq!(&out, ref_out, "{strategy} changed results");
                    assert_eq!(&counters, ref_counters, "{strategy} changed counters");
                }
            }
        }
    }

    #[test]
    fn batched_map_cuts_segments_at_block_boundaries() {
        // One 10-item segment over 4 ranks: the kernel must see the
        // clipped sub-ranges of each rank's block, not whole segments.
        use std::sync::Mutex;
        let calls = Mutex::new(Vec::new());
        let segments = Segments::whole(10);
        let mut e = SimEngine::with_model(4, CostModel::free_comm());
        let out = e.dist_map_segmented_batch(&segments, 1, &|seg, range, out| {
            calls.lock().unwrap().push((seg, range.clone()));
            out.extend(range.map(|i| (i, 1)));
        });
        assert_eq!(out, (0..10).collect::<Vec<_>>());
        assert_eq!(
            calls.into_inner().unwrap(),
            vec![(0, 0..2), (0, 2..5), (0, 5..7), (0, 7..10)]
        );
    }

    #[test]
    fn phases_partition_the_timeline() {
        let mut e = SimEngine::with_model(4, CostModel::free_comm());
        e.begin_phase("a");
        e.dist_map(16, 1, &|i| (i, 10));
        e.begin_phase("b");
        e.dist_map(16, 1, &|i| (i, 30));
        let r = e.report();
        assert_eq!(r.phases.len(), 2);
        assert!(r.phases[1].elapsed_s > r.phases[0].elapsed_s);
        assert!((r.total_s() - (r.phases[0].elapsed_s + r.phases[1].elapsed_s)).abs() < 1e-15);
    }

    #[test]
    fn spans_carry_simulated_time_matching_the_phase_report() {
        let mut e = SimEngine::with_model(4, CostModel::free_comm());
        e.begin_phase("w");
        e.dist_map(16, 1, &|i| (i, 1000));
        let r = e.report();
        let snap = e.obs().snapshot(e.now_s());
        let span = snap.spans.iter().find(|s| s.path == "run/w").unwrap();
        assert!((span.elapsed_s() - r.phases[0].elapsed_s).abs() < 1e-12);
        let busy_max = span.busy_s.iter().copied().fold(0.0, f64::max);
        assert!((busy_max - r.phases[0].busy_max_s).abs() < 1e-12);
        assert_eq!(span.busy_s.len(), 4);
    }

    #[test]
    fn comm_matrix_matches_msg_engine_per_phase() {
        // The tentpole invariant: the sim engine's synthesized traffic
        // matrix equals, per phase and per (src, dst) pair, the merged
        // matrix of a real message-fabric run of the same program.
        use crate::msg::spmd_run;
        use mn_obs::CommMatrix;
        for p in [1usize, 2, 3, 4, 7] {
            let mut sim = SimEngine::new(p);
            sim.begin_phase("a");
            sim.dist_map(17, 1, &|i| (i as u64, 1));
            sim.collective(Collective::AllReduce, 1);
            sim.begin_phase("b");
            sim.dist_map(9, 1, &|i| (i as u64, 1));
            sim.report();
            let sim_mat = sim.obs().comm_matrix().snapshot();

            let rank_mats = spmd_run(p, |e| {
                e.begin_phase("a");
                e.dist_map(17, 1, &|i| (i as u64, 1));
                e.collective(Collective::AllReduce, 1);
                e.begin_phase("b");
                e.dist_map(9, 1, &|i| (i as u64, 1));
                e.report();
                e.obs().comm_matrix().snapshot()
            });
            let msg_mat = CommMatrix::merged(&rank_mats).expect("aligned phases");
            assert_eq!(sim_mat, msg_mat, "p={p}");
            if p > 1 {
                assert!(msg_mat.total_msgs() > 0, "p={p} recorded no traffic");
            }
        }
    }

    #[test]
    fn more_ranks_never_slower_on_uniform_work() {
        // Sanity for the scaling figures: with comm enabled, runtime
        // decreases monotonically until comm dominates.
        let t = |p: usize| {
            let mut e = SimEngine::new(p);
            e.begin_phase("w");
            e.dist_map(4096, 1, &|i| (i, 1000));
            e.report().total_s()
        };
        assert!(t(2) < t(1));
        assert!(t(8) < t(2));
        assert!(t(64) < t(8));
    }
}
