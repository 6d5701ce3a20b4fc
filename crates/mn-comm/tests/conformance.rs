//! One conformance suite for every engine.
//!
//! The same program of maps runs on serial, threads, sim and msg: flat,
//! per-item segmented and batched maps over lists with empty segments,
//! `n = 0` and `n = 1`, for two rounds. The real engines run the block
//! split; the simulator also runs the two ablation oracles. Every run
//! must return the serial results and the serial counters, compute
//! every item exactly once inside its segment, and cut its kernel calls
//! per rank the way the block split says whenever the split is the
//! block split — which includes flat maps under the oracles.

use mn_comm::{
    block_range, spmd_run, spmd_run_faulty, CostModel, FaultPlan, ParEngine, PartitionStrategy,
    PhaseReport, Segments, SerialEngine, SimEngine, ThreadEngine,
};
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::Mutex;
use std::thread::ThreadId;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Spec {
    Serial,
    Threads(usize),
    Sim(usize),
    Msg(usize),
}

const ENGINES: [Spec; 14] = [
    Spec::Serial,
    Spec::Threads(1),
    Spec::Threads(2),
    Spec::Threads(3),
    Spec::Threads(5),
    Spec::Threads(8),
    Spec::Sim(1),
    Spec::Sim(3),
    Spec::Sim(7),
    Spec::Sim(32),
    Spec::Msg(1),
    Spec::Msg(2),
    Spec::Msg(3),
    Spec::Msg(5),
];

impl Spec {
    fn nranks(self) -> usize {
        match self {
            Spec::Serial => 1,
            Spec::Threads(p) | Spec::Sim(p) | Spec::Msg(p) => p,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Form {
    Flat,
    Segmented,
    Batch,
}

/// The work lists: empty segments inside, an empty list, one item.
fn lists() -> [Segments; 3] {
    [
        Segments::from_lens([7, 1, 30, 0, 12, 3]),
        Segments::from_lens([0, 0]),
        Segments::from_lens([0, 1, 0]),
    ]
}

/// Every map of one round, in program order.
fn round_maps() -> Vec<(Form, Segments)> {
    let mut maps: Vec<_> = lists().into_iter().map(|s| (Form::Flat, s)).collect();
    for segments in lists() {
        maps.push((Form::Segmented, segments.clone()));
        maps.push((Form::Batch, segments));
    }
    maps
}

fn value(i: usize) -> usize {
    i.wrapping_mul(2654435761) % 1013
}

/// Skewed per-item costs, so any non-block split shows in accounting.
fn cost(i: usize) -> u64 {
    if i < 8 {
        500
    } else {
        (i as u64 % 17) + 1
    }
}

/// Where a kernel call cut the list: `(segment, or None per item; range)`.
type Cut = (Option<usize>, Range<usize>);

/// One kernel call: `(map, thread, segment or None for per-item, range)`.
type Call = (usize, ThreadId, Option<usize>, Range<usize>);

struct Outcome {
    results: Vec<Vec<usize>>,
    counters: BTreeMap<String, u64>,
    phases: Vec<PhaseReport>,
}

/// Two rounds of every map, each round's flat maps in their own phase.
fn program<E: ParEngine>(e: &mut E, log: &Mutex<Vec<Call>>) -> Outcome {
    let note = |map: usize, seg: Option<usize>, range: Range<usize>| {
        log.lock()
            .unwrap()
            .push((map, std::thread::current().id(), seg, range));
    };
    let mut results = Vec::new();
    for round in 0..2 {
        for (k, (form, segments)) in round_maps().into_iter().enumerate() {
            let map = round * round_maps().len() + k;
            if k == 0 {
                e.begin_phase("flat");
            } else if k == lists().len() {
                e.begin_phase("segmented");
            }
            let words = k % 3 + 1;
            let item = |i: usize| {
                note(map, None, i..i + 1);
                (value(i), cost(i))
            };
            results.push(match form {
                Form::Flat => e.dist_map(segments.n_items(), words, &item),
                Form::Segmented => e.dist_map_segmented(&segments, words, &item),
                Form::Batch => e.dist_map_segmented_batch(&segments, words, &|seg, range, out| {
                    note(map, Some(seg), range.clone());
                    out.extend(range.map(|i| (value(i), cost(i))));
                }),
            });
        }
    }
    let phases = e.report().phases;
    let counters = e.obs().snapshot(e.now_s()).counters;
    Outcome {
        results,
        counters,
        phases,
    }
}

/// Run the program on `spec` (the simulator under `strategy`, every
/// other engine under the block split); msg ranks must agree with each
/// other.
fn run(spec: Spec, strategy: PartitionStrategy, log: &Mutex<Vec<Call>>) -> Outcome {
    match spec {
        Spec::Serial => program(&mut SerialEngine::new(), log),
        Spec::Threads(p) => program(&mut ThreadEngine::new(p), log),
        Spec::Sim(p) => program(&mut SimEngine::new(p).with_strategy(strategy), log),
        Spec::Msg(p) => {
            let mut ranks = spmd_run(p, |e| {
                let out = program(e, log);
                (out.results, out.counters)
            });
            for (r, rank) in ranks.iter().enumerate() {
                assert_eq!(rank, &ranks[0], "msg:{p}: rank {r} disagrees with rank 0");
            }
            let (results, counters) = ranks.swap_remove(0);
            Outcome {
                results,
                counters,
                phases: Vec::new(),
            }
        }
    }
}

/// Check one map's kernel calls: every item exactly once, batch calls
/// inside one segment, and — when the split is the block split — each
/// rank's calls clipped to its block (the simulator runs every rank's
/// block in turn on one thread; the other engines one rank per thread).
fn check_calls(
    spec: Spec,
    strategy: PartitionStrategy,
    form: Form,
    segments: &Segments,
    calls: &[Call],
) {
    let ctx = format!("{spec:?} {strategy} {form:?} {segments:?}");
    let n = segments.n_items();
    let mut seen = vec![0u32; n];
    for (_, _, seg, range) in calls {
        if let Some(seg) = seg {
            let within = segments.range(*seg);
            assert!(
                range.start >= within.start && range.end <= within.end,
                "{ctx}: {range:?}"
            );
        }
        range.clone().for_each(|i| seen[i] += 1);
    }
    assert!(seen.iter().all(|&s| s == 1), "{ctx}: coverage {seen:?}");

    let p = spec.nranks();
    if strategy != PartitionStrategy::Block && form != Form::Flat {
        if form == Form::Batch {
            // The oracles evaluate the union once, in whole segments.
            let got: Vec<_> = calls
                .iter()
                .map(|(_, _, s, r)| (s.unwrap(), r.clone()))
                .collect();
            assert_eq!(got, segments.iter().collect::<Vec<_>>(), "{ctx}");
        }
        return;
    }
    let per_rank: Vec<Vec<Cut>> = (0..p)
        .map(|r| {
            let (lo, hi) = block_range(n, p, r);
            match form {
                Form::Batch => segments
                    .overlapping(lo, hi)
                    .map(|(s, g)| (Some(s), g))
                    .collect(),
                _ => (lo..hi).map(|i| (None, i..i + 1)).collect(),
            }
        })
        .filter(|calls: &Vec<_>| !calls.is_empty())
        .collect();
    let expected = match spec {
        Spec::Sim(_) => vec![per_rank.concat()]
            .into_iter()
            .filter(|c| !c.is_empty())
            .collect(),
        _ => per_rank,
    };
    let mut by_thread: Vec<(ThreadId, Vec<Cut>)> = Vec::new();
    for (_, thread, seg, range) in calls {
        match by_thread.iter_mut().find(|(t, _)| t == thread) {
            Some((_, group)) => group.push((*seg, range.clone())),
            None => by_thread.push((*thread, vec![(*seg, range.clone())])),
        }
    }
    let mut got: Vec<_> = by_thread.into_iter().map(|(_, group)| group).collect();
    got.sort_by_key(|group| group[0].1.start);
    assert_eq!(
        got, expected,
        "{ctx}: kernel calls not cut at block boundaries"
    );
}

#[test]
fn every_engine_and_strategy_conforms_to_serial() {
    let maps: Vec<(Form, Segments)> = (0..2).flat_map(|_| round_maps()).collect();
    let expected: Vec<Vec<usize>> = maps
        .iter()
        .map(|(_, segments)| (0..segments.n_items()).map(value).collect())
        .collect();
    let reference = run(
        Spec::Serial,
        PartitionStrategy::Block,
        &Mutex::new(Vec::new()),
    );
    assert_eq!(reference.results, expected);
    assert_eq!(reference.counters["engine.dist_maps"], maps.len() as u64);

    for spec in ENGINES {
        let strategies: &[PartitionStrategy] = match spec {
            Spec::Sim(_) => &PartitionStrategy::ALL,
            _ => &[PartitionStrategy::Block],
        };
        for &strategy in strategies {
            let log = Mutex::new(Vec::new());
            let out = run(spec, strategy, &log);
            assert_eq!(out.results, expected, "{spec:?} {strategy}: results");
            assert_eq!(
                out.counters, reference.counters,
                "{spec:?} {strategy}: counters"
            );
            let log = log.into_inner().unwrap();
            for (map, (form, segments)) in maps.iter().enumerate() {
                let calls: Vec<Call> = log.iter().filter(|c| c.0 == map).cloned().collect();
                check_calls(spec, strategy, *form, segments, &calls);
            }
            if let Spec::Sim(p) = spec {
                check_sim_block_busy(p, strategy, &out.phases);
            }
        }
    }
}

/// The simulator's accounting shows the split its kernel calls cannot:
/// in a phase whose maps all run the block split — flat maps under
/// every strategy, segmented maps under Block — each virtual rank is
/// charged exactly its blocks' item costs.
fn check_sim_block_busy(p: usize, strategy: PartitionStrategy, phases: &[PhaseReport]) {
    let model = CostModel::default();
    let block_busy = |maps_per_list: f64| {
        let mut busy = vec![0.0; p];
        for segments in lists() {
            for (r, b) in busy.iter_mut().enumerate() {
                let (lo, hi) = block_range(segments.n_items(), p, r);
                *b += maps_per_list * (lo..hi).map(|i| model.compute_s(cost(i))).sum::<f64>();
            }
        }
        busy
    };
    for phase in phases {
        let busy = match phase.name.as_str() {
            "flat" => block_busy(1.0),
            "segmented" if strategy == PartitionStrategy::Block => block_busy(2.0),
            _ => continue,
        };
        let max = busy.iter().copied().fold(0.0, f64::max);
        let avg = busy.iter().sum::<f64>() / p as f64;
        assert!(
            (phase.busy_max_s - max).abs() <= 1e-9 * max
                && (phase.busy_avg_s - avg).abs() <= 1e-9 * avg,
            "sim:{p} {strategy} {phase:?}: not the block split's busy ({max}, {avg})"
        );
    }
}

/// A kernel that breaks the contract: one result too many per call.
fn miscounting(_seg: usize, range: Range<usize>, out: &mut Vec<(usize, u64)>) {
    out.extend(range.map(|i| (i, 1)));
    out.push((0, 1));
}

fn miscounted_map<E: ParEngine>(e: &mut E) -> Vec<usize> {
    e.dist_map_segmented_batch(&Segments::from_lens([4, 0, 5]), 1, &miscounting)
}

#[test]
#[should_panic(expected = "exactly one result per item")]
fn kernel_contract_is_enforced_on_serial() {
    miscounted_map(&mut SerialEngine::new());
}

#[test]
#[should_panic(expected = "exactly one result per item")]
fn kernel_contract_is_enforced_on_threads() {
    miscounted_map(&mut ThreadEngine::new(3));
}

#[test]
#[should_panic(expected = "exactly one result per item")]
fn kernel_contract_is_enforced_on_sim() {
    miscounted_map(&mut SimEngine::new(3));
}

#[test]
#[should_panic(expected = "exactly one result per item")]
fn kernel_contract_is_enforced_on_msg() {
    spmd_run_faulty(3, FaultPlan::new(), None, miscounted_map);
}
