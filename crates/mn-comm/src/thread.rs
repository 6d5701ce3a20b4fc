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
//! A learn is thousands of small maps (GaneSH parallelizes *within*
//! each proposal, Alg. 1–3), so the cost of handing a map to the ranks
//! decides whether threads pay at all. The engine therefore keeps
//! `p − 1` persistent rank workers, spawned once by
//! [`ThreadEngine::new`]; rank 0's slice always runs on the caller
//! thread. A map publishes its job, bumps an epoch counter and unparks
//! the workers, which spin on the epoch for a bounded number of polls
//! (none when there are more ranks than CPUs) and then park. The caller
//! runs rank 0, waits for a pending counter to reach zero the same way,
//! and collects one result block per rank.
//!
//! Safety: the job is a closure borrowing the caller's stack frame,
//! handed to the workers with its lifetime erased (the one `unsafe`
//! block, in `Pool::dispatch`). That is sound because the caller does
//! not leave the map — by returning *or* by unwinding — until every
//! worker is done with the job: rank 0 and every worker run their slice
//! under `catch_unwind`, nothing between publishing the job and waiting
//! for `pending == 0` can panic, and only after the wait does the caller
//! clear the job and re-raise rank 0's panic, or else the
//! lowest-ranked worker's. `dispatch` takes `&mut self`, so no two maps
//! ever share the workers.
//!
//! Wall-clock phase timing plus measured per-rank busy time give the
//! same report shape as the other engines, so the bench harness can
//! drive any engine uniformly.

use crate::costmodel::Plan;
use crate::driver::{self, run_kernel, EngineCore, RunSlices, Style};
use crate::engine::{Costed, ParEngine, SegmentBatchFn, Wire};
use crate::fault::FaultPlan;
use crate::hooks;
use crate::partition::block_range;
use crate::segments::Segments;
use mn_obs::{FlightRec, Recorder};
use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle, Thread};
use std::time::Instant;

/// Multi-threaded engine over `p` ranks: the caller plus `p − 1`
/// persistent worker threads.
#[derive(Debug)]
pub struct ThreadEngine {
    core: EngineCore,
    pool: Pool,
}

impl ThreadEngine {
    /// Engine with `p` ranks (`p ≥ 1`); spawns the `p − 1` workers.
    pub fn new(p: usize) -> Self {
        let core = EngineCore::new(Style::Threads, p, Recorder::new(p));
        let pool = Pool::new(p, core.obs.flight());
        Self { core, pool }
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
    /// Rank 0's slice on the caller, every other rank's on its worker;
    /// the rank-order concatenation of their blocks is the all-gather
    /// of Alg. 5. One rank, or at most one item, runs inline on the
    /// caller, charged to rank 0.
    fn run_slices<T: Wire, E: Wire>(
        &mut self,
        plan: &Plan,
        segments: &Segments,
        _words_per_item: usize,
        f: SegmentBatchFn<'_, T>,
        keep: fn(Costed<T>) -> E,
    ) -> Vec<Vec<E>> {
        let p = self.core.p;
        let n = segments.n_items();
        let slice = |r: usize| {
            let start = Instant::now();
            let mut block = match plan {
                Plan::Block => {
                    let (lo, hi) = block_range(n, p, r);
                    Vec::with_capacity(hi - lo)
                }
                Plan::Owners(_) => Vec::new(),
            };
            run_kernel(f, plan.runs(segments, p, r), |c| block.push(keep(c)));
            (block, start.elapsed().as_secs_f64())
        };
        hooks::install_thread_hooks(self.core.obs.flight());
        let inline = p == 1 || n <= 1;
        let done: Vec<(Vec<E>, f64)> = if inline {
            (0..p).map(slice).collect()
        } else {
            self.pool.run(slice)
        };
        let mut blocks = Vec::with_capacity(p);
        for (r, (block, dt)) in done.into_iter().enumerate() {
            self.core.charge_busy(if inline { 0 } else { r }, dt);
            blocks.push(block);
        }
        blocks
    }
}

/// Polls of a wait condition before the waiting thread parks, when
/// every rank has a CPU of its own: long enough to bridge the caller's
/// short sequential stretch between the back-to-back maps of one
/// proposal, short enough that idle workers hand the CPU back during
/// longer ones. With more ranks than CPUs a spinning thread holds the
/// CPU a runnable rank needs, so waits park at once.
const SPIN_POLLS: u32 = 4000;

/// Lock a mutex whose every update is one assignment, so the data is
/// valid even if a holder panicked.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Poll `ready` until it holds: spin for `spin` polls, then park
/// between polls. Whoever makes `ready` true unparks this thread
/// afterwards; an unpark that lands before the park makes the park
/// return at once, so no wake-up is lost, and a stale one only costs an
/// extra poll.
fn wait_until(spin: u32, mut ready: impl FnMut() -> bool) {
    let mut polls = 0;
    while !ready() {
        if polls < spin {
            polls += 1;
            std::hint::spin_loop();
        } else {
            thread::park();
        }
    }
}

/// What one map hands the workers.
#[derive(Clone)]
struct Job {
    /// Runs one rank's slice. Borrowed from the caller's frame, which
    /// outlives every use (module docs).
    task: &'static (dyn Fn(usize) + Sync),
    /// Unparked by the worker that finishes last.
    caller: Thread,
}

/// What the caller and the workers share.
struct Shared {
    /// Bumped (`Release`) after `job` and `pending` are set; a worker
    /// that sees a new value (`Acquire`) sees both.
    epoch: AtomicU64,
    /// Workers still running the current job. Each decrements it
    /// (`AcqRel`) after storing its panic, if any; the caller's
    /// `Acquire` load of zero makes every worker's writes visible.
    pending: AtomicUsize,
    /// Set (`Release`) once, by `Drop`; workers return on seeing it.
    shutdown: AtomicBool,
    job: Mutex<Option<Job>>,
    /// Slot `r − 1` holds worker rank `r`'s panic in the current job.
    panics: Vec<Mutex<Option<Box<dyn Any + Send>>>>,
    /// Polls every wait spins before parking ([`SPIN_POLLS`]).
    spin: u32,
}

/// The persistent rank workers of one engine: worker `r − 1` runs rank
/// `r`'s slice of every map.
struct Pool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool")
            .field("workers", &self.workers.len())
            .finish()
    }
}

impl Pool {
    /// Spawn workers for ranks `1..p`, each recording into `flight`.
    fn new(p: usize, flight: FlightRec) -> Self {
        let cpus = thread::available_parallelism().map_or(1, |n| n.get());
        let shared = Arc::new(Shared {
            epoch: AtomicU64::new(0),
            pending: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            job: Mutex::new(None),
            panics: (1..p).map(|_| Mutex::new(None)).collect(),
            spin: if p <= cpus { SPIN_POLLS } else { 0 },
        });
        let workers = (1..p)
            .map(|rank| {
                let (shared, flight) = (Arc::clone(&shared), flight.clone());
                thread::Builder::new()
                    .name(format!("mn-rank-{rank}"))
                    .spawn(move || work(&shared, rank, flight))
                    .expect("spawn a rank worker thread")
            })
            .collect();
        Self { shared, workers }
    }

    /// `slice(r)` for every rank `r`, in rank order: rank 0 on the
    /// caller, the others on their workers. A panic on any rank is
    /// re-raised here once every rank has finished.
    fn run<R: Send>(&mut self, slice: impl Fn(usize) -> R + Sync) -> Vec<R> {
        let slots: Vec<Mutex<Option<R>>> =
            (0..=self.workers.len()).map(|_| Mutex::new(None)).collect();
        self.dispatch(&|r| {
            let out = slice(r);
            *lock(&slots[r]) = Some(out);
        });
        slots
            .into_iter()
            .map(|slot| {
                let slot = slot.into_inner().unwrap_or_else(PoisonError::into_inner);
                slot.expect("every rank stores its result")
            })
            .collect()
    }

    /// Run `task(r)` for every rank and return after all have finished,
    /// re-raising rank 0's panic or else the lowest-ranked worker's.
    fn dispatch(&mut self, task: &(dyn Fn(usize) + Sync)) {
        // SAFETY: only the lifetime changes. The erased reference is
        // stored in `shared.job` and called by the workers; every
        // worker is done with it once `pending` reads zero, and this
        // function does not return or unwind before that: the code up
        // to the wait cannot panic (`lock` never fails, rank 0's slice
        // runs under `catch_unwind`), and the job is cleared right
        // after the wait, while `task` is still borrowed. `&mut self`
        // keeps a second dispatch off the same workers meanwhile.
        let task: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(task) };
        let shared = &*self.shared;
        *lock(&shared.job) = Some(Job {
            task,
            caller: thread::current(),
        });
        shared.pending.store(self.workers.len(), Ordering::Relaxed);
        shared.epoch.fetch_add(1, Ordering::Release);
        for worker in &self.workers {
            worker.thread().unpark();
        }
        let own = panic::catch_unwind(AssertUnwindSafe(|| task(0)));
        wait_until(shared.spin, || shared.pending.load(Ordering::Acquire) == 0);
        *lock(&shared.job) = None;
        let mut worker_panic = None;
        for slot in &shared.panics {
            if let Some(payload) = lock(slot).take() {
                worker_panic.get_or_insert(payload);
            }
        }
        if let Some(payload) = own.err().or(worker_panic) {
            panic::resume_unwind(payload);
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        for worker in &self.workers {
            worker.thread().unpark();
        }
        for worker in self.workers.drain(..) {
            // A worker catches every kernel panic, so it only ends by
            // returning: there is no error to report, and `Drop` must
            // not panic.
            let _ = worker.join();
        }
    }
}

/// Worker loop for `rank`: run the job of each new epoch, until shutdown.
fn work(shared: &Shared, rank: usize, flight: FlightRec) {
    hooks::install_thread_hooks(flight);
    let mut seen = 0;
    loop {
        wait_until(shared.spin, || {
            shared.shutdown.load(Ordering::Acquire) || shared.epoch.load(Ordering::Acquire) != seen
        });
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        // The epoch cannot move again before this worker decrements
        // `pending` below.
        seen = shared.epoch.load(Ordering::Acquire);
        let caller = {
            let job = lock(&shared.job)
                .clone()
                .expect("a new epoch publishes a job");
            if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| (job.task)(rank))) {
                *lock(&shared.panics[rank - 1]) = Some(payload);
            }
            job.caller
        };
        // The job's task may dangle from here on; only `caller` is used.
        if shared.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
            caller.unpark();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::PartitionStrategy;
    use std::sync::{Barrier, RwLock, RwLockReadGuard};
    use std::time::Duration;

    /// Tests that create engines share this lock; the one that counts
    /// worker threads takes it exclusively, so no other test's workers
    /// come or go while it counts.
    static POOLS: RwLock<()> = RwLock::new(());

    fn pools() -> RwLockReadGuard<'static, ()> {
        POOLS.read().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn results_match_serial_for_any_thread_count() {
        let _pools = pools();
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
        let _pools = pools();
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
        let _pools = pools();
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
        let _pools = pools();
        let mut e = ThreadEngine::new(8);
        let empty: Vec<usize> = e.dist_map(0, 1, &|i| (i, 1));
        assert!(empty.is_empty());
        let one = e.dist_map(1, 1, &|i| (i + 5, 1));
        assert_eq!(one, vec![5]);
    }

    #[test]
    fn every_strategy_matches_block_results() {
        let _pools = pools();
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
        let _pools = pools();
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

    /// Run `map` on `e`, expecting it to panic; return the payload text.
    fn panic_text(e: &mut ThreadEngine, map: impl FnOnce(&mut ThreadEngine)) -> String {
        let payload = panic::catch_unwind(AssertUnwindSafe(|| map(e))).expect_err("map panics");
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .expect("string payload")
    }

    #[test]
    fn a_panic_on_any_rank_is_reraised_with_its_payload() {
        let _pools = pools();
        let mut e = ThreadEngine::new(3);
        // 9 items over 3 ranks: item 0 is rank 0's, item 7 rank 2's.
        for (item, rank) in [(0usize, 0usize), (7, 2)] {
            let text = panic_text(&mut e, |e| {
                e.dist_map(9, 1, &|i| {
                    if i == item {
                        panic!("kernel panic on rank {rank}");
                    }
                    (i, 1)
                });
            });
            assert_eq!(text, format!("kernel panic on rank {rank}"));
            // No stale payload or lost worker: the next map is clean.
            assert_eq!(e.dist_map(9, 1, &|i| (i, 1)), (0..9).collect::<Vec<_>>());
        }
        // Both workers panic: the lower rank's payload wins.
        let text = panic_text(&mut e, |e| {
            e.dist_map(9, 1, &|i| {
                if i >= 3 {
                    panic!("kernel panic on rank {}", i / 3);
                }
                (i, 1)
            });
        });
        assert_eq!(text, "kernel panic on rank 1");
    }

    #[test]
    fn a_rank_0_panic_waits_for_the_other_ranks() {
        let _pools = pools();
        let mut e = ThreadEngine::new(2);
        let borrowed = vec![1u64; 4096];
        let both_started = Barrier::new(2);
        let rank0_panicking = AtomicBool::new(false);
        let rank1_done = AtomicBool::new(false);
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
            e.dist_map(2, 1, &|i| {
                both_started.wait();
                if i == 0 {
                    rank0_panicking.store(true, Ordering::SeqCst);
                    panic!("rank 0 gives up");
                }
                while !rank0_panicking.load(Ordering::SeqCst) {
                    std::hint::spin_loop();
                }
                // Rank 0 is unwinding; keep reading the caller's stack.
                thread::sleep(Duration::from_millis(20));
                let sum: u64 = borrowed.iter().sum();
                rank1_done.store(true, Ordering::SeqCst);
                (sum as usize, 1)
            });
        }));
        assert!(outcome.is_err(), "rank 0's panic reaches the caller");
        assert!(
            rank1_done.load(Ordering::SeqCst),
            "the unwind left the map while rank 1 still read borrowed data"
        );
    }

    /// Live rank workers of any engine in this process.
    fn live_workers() -> usize {
        std::fs::read_dir("/proc/self/task")
            .expect("list this process's threads")
            .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
            .filter(|comm| comm.starts_with("mn-rank-"))
            .count()
    }

    /// Whether the worker count reaches `expected` within 10 s: a new
    /// thread names itself shortly after it starts, and a joined one
    /// can linger in /proc for a moment after it exits.
    fn workers_settle_at(expected: usize) -> bool {
        let deadline = Instant::now() + Duration::from_secs(10);
        while live_workers() != expected {
            if Instant::now() > deadline {
                return false;
            }
            thread::sleep(Duration::from_millis(5));
        }
        true
    }

    #[test]
    fn dropping_an_engine_joins_its_workers() {
        let _only = POOLS.write().unwrap_or_else(PoisonError::into_inner);
        let before = live_workers();
        let probe = ThreadEngine::new(4);
        assert!(
            workers_settle_at(before + 3),
            "ThreadEngine::new(4) runs 3 workers"
        );
        drop(probe);
        for _ in 0..200 {
            drop(ThreadEngine::new(4));
        }
        assert!(
            workers_settle_at(before),
            "{} workers alive, {before} before",
            live_workers()
        );
    }

    #[test]
    fn back_to_back_maps_never_lose_a_wakeup() {
        let _pools = pools();
        let mut e = ThreadEngine::new(8);
        for k in 0..20_000usize {
            let out = e.dist_map(16, 1, &|i| (i + k, 1));
            assert_eq!(out[15], 15 + k);
        }
    }

    #[test]
    fn every_rank_records_into_the_flight_recorder() {
        let _pools = pools();
        let mut e = ThreadEngine::new(3);
        e.dist_map(3, 1, &|i| {
            mn_obs::flightrec::note_rng_jump(i as u64);
            (i, 1)
        });
        let mut draws: Vec<u64> = e
            .obs()
            .flight()
            .local_events()
            .into_iter()
            .filter_map(|r| match r.event {
                mn_obs::FlightEvent::RngJump { draw } => Some(draw),
                _ => None,
            })
            .collect();
        draws.sort_unstable();
        assert_eq!(draws, [0, 1, 2], "one rng-jump per rank, rank 0 included");
    }
}
