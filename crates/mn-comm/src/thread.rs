//! The real-thread engine.
//!
//! `p` OS threads execute the same block partition of every work list
//! that the MPI ranks of the paper (and the virtual ranks of
//! [`crate::sim::SimEngine`]) would, with shared-memory "collectives"
//! (results are concatenated in rank order, so the all-gather is a
//! no-op). This engine exists to demonstrate genuine parallel
//! execution of the partitioned algorithms and to validate, with real
//! concurrency, the determinism contract: the learned network is
//! byte-identical for any thread count.
//!
//! Wall-clock phase timing plus measured per-rank busy time give the
//! same report shape as the other engines, so the bench harness can
//! drive any engine uniformly.

use crate::costmodel::Plan;
use crate::driver::{self, run_kernel, EngineCore, RunSlices, Style};
use crate::engine::{Costed, ParEngine, SegmentBatchFn, Wire};
use crate::fault::FaultPlan;
use crate::hooks;
use crate::segments::Segments;
use mn_obs::Recorder;
use std::time::Instant;

/// Multi-threaded engine over `p` rank-threads.
#[derive(Debug)]
pub struct ThreadEngine {
    core: EngineCore,
}

impl ThreadEngine {
    /// Engine with `p` rank-threads (`p ≥ 1`).
    pub fn new(p: usize) -> Self {
        Self {
            core: EngineCore::new(Style::Threads, p, Recorder::new(p)),
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
}

impl ParEngine for ThreadEngine {
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
}

impl RunSlices for ThreadEngine {
    /// One scoped thread per rank; the rank-order concatenation of
    /// their blocks is the all-gather of Alg. 5. One rank, or at most
    /// one item, runs inline on the caller, charged to rank 0.
    fn run_slices<T: Wire, E: Wire>(
        &mut self,
        plan: &Plan,
        segments: &Segments,
        _words_per_item: usize,
        f: SegmentBatchFn<'_, T>,
        keep: fn(Costed<T>) -> E,
    ) -> Vec<Vec<E>> {
        let p = self.core.p;
        let slice = |r: usize| {
            let start = Instant::now();
            let mut block = Vec::new();
            run_kernel(f, plan.runs(segments, p, r), |c| block.push(keep(c)));
            (block, start.elapsed().as_secs_f64())
        };
        let inline = p == 1 || segments.n_items() <= 1;
        let done: Vec<(Vec<E>, f64)> = if inline {
            hooks::install_thread_hooks(self.core.obs.flight());
            (0..p).map(slice).collect()
        } else {
            let flight = self.core.obs.flight();
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..p)
                    .map(|r| {
                        let (flight, slice) = (flight.clone(), &slice);
                        scope.spawn(move || {
                            hooks::install_thread_hooks(flight);
                            slice(r)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
                    .collect()
            })
        };
        let mut blocks = Vec::with_capacity(p);
        for (r, (block, dt)) in done.into_iter().enumerate() {
            self.core.charge_busy(if inline { 0 } else { r }, dt);
            blocks.push(block);
        }
        blocks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::PartitionStrategy;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_match_serial_for_any_thread_count() {
        let f = |i: usize| (i * 31 % 97, 1u64);
        let expected: Vec<usize> = (0..100).map(|i| f(i).0).collect();
        for p in [1usize, 2, 3, 4, 7] {
            let mut e = ThreadEngine::new(p);
            let out = e.dist_map(100, 1, &f);
            assert_eq!(out, expected, "p={p}");
        }
    }

    #[test]
    fn every_item_computed_exactly_once() {
        let counter = AtomicUsize::new(0);
        let mut e = ThreadEngine::new(4);
        let out = e.dist_map(53, 1, &|i| {
            counter.fetch_add(1, Ordering::Relaxed);
            (i, 1)
        });
        assert_eq!(out.len(), 53);
        assert_eq!(counter.load(Ordering::Relaxed), 53);
    }

    #[test]
    fn phase_report_has_wall_times() {
        let mut e = ThreadEngine::new(2);
        e.begin_phase("work");
        e.dist_map(64, 1, &|i| {
            // Small but nonzero work.
            let mut acc = 0u64;
            for k in 0..500 {
                acc = acc.wrapping_add((i as u64).wrapping_mul(k));
            }
            (acc, 1)
        });
        let r = e.report();
        assert_eq!(r.nranks, 2);
        assert_eq!(r.phases.len(), 1);
        assert!(r.phases[0].elapsed_s > 0.0);
        assert!(r.phases[0].busy_max_s >= r.phases[0].busy_avg_s);
    }

    #[test]
    fn empty_and_tiny_maps() {
        let mut e = ThreadEngine::new(8);
        let empty: Vec<usize> = e.dist_map(0, 1, &|i| (i, 1));
        assert!(empty.is_empty());
        let one = e.dist_map(1, 1, &|i| (i + 5, 1));
        assert_eq!(one, vec![5]);
    }

    #[test]
    fn every_strategy_matches_block_results() {
        let f = |i: usize| (i.wrapping_mul(2654435761) % 1013, (i as u64 % 17) + 1);
        let segments = Segments::from_lens([7usize, 1, 30, 0, 12, 3]);
        let mut reference = ThreadEngine::new(3);
        let expect_flat = reference.dist_map(53, 1, &f);
        let expect_seg = reference.dist_map_segmented(&segments, 1, &f);
        for strategy in PartitionStrategy::ALL {
            for p in [1usize, 2, 3, 5, 8] {
                let mut e = ThreadEngine::new(p);
                e.set_partition_strategy(strategy);
                assert_eq!(e.partition_strategy(), strategy);
                // Repeat so the cost model has observations on the
                // second round (exercises calibrated planning too).
                for _ in 0..2 {
                    let flat = e.dist_map(53, 1, &f);
                    assert_eq!(flat, expect_flat, "{strategy} p={p} flat");
                    let seg = e.dist_map_segmented(&segments, 1, &f);
                    assert_eq!(seg, expect_seg, "{strategy} p={p} segmented");
                    let batched = e.dist_map_segmented_batch(&segments, 1, &|_seg, range, out| {
                        out.extend(range.map(f))
                    });
                    assert_eq!(batched, expect_seg, "{strategy} p={p} batched");
                    e.partition_feedback();
                }
            }
        }
    }

    #[test]
    fn strategy_does_not_change_counters() {
        let segments = Segments::from_lens([9usize, 4, 20]);
        let mut snaps = Vec::new();
        for strategy in PartitionStrategy::ALL {
            let mut e = ThreadEngine::new(4);
            e.set_partition_strategy(strategy);
            e.begin_phase("t");
            e.dist_map(33, 2, &|i| (i, 1));
            e.dist_map_segmented_batch(&segments, 3, &|_seg, range, out| {
                out.extend(range.map(|i| (i, (i as u64 % 5) + 1)))
            });
            let _ = e.report();
            snaps.push(e.obs().snapshot(e.now_s()).counters);
        }
        for (i, snap) in snaps.iter().enumerate().skip(1) {
            assert_eq!(snap, &snaps[0], "strategy #{i} perturbed counters");
        }
    }
}
