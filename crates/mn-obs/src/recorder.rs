//! Hierarchical span recording with per-rank busy attribution.
//!
//! A [`Recorder`] owns a stack of open spans and a log of closed ones.
//! Time charged via [`Recorder::charge_busy`] / [`Recorder::charge_comm`]
//! lands on the innermost open span *and all of its ancestors*, so a
//! parent span's busy time is always ≥ the sum of its children and the
//! paper's §5.3.1 imbalance metric `(busy_max − busy_avg)/busy_avg`
//! can be evaluated at any depth of the tree.
//!
//! Timestamps are plain `f64` seconds relative to an engine-chosen
//! epoch: wall-clock engines pass `Instant`-derived offsets, the sim
//! engine passes its virtual clock — both produce the same span tree
//! shape, which is what makes the chrome-trace export engine-agnostic.

use std::collections::BTreeMap;
use std::time::Instant;

use serde::{Deserialize, Serialize};

use crate::commatrix::{CommMatrix, CommMatrixHandle};
use crate::flightrec::{FlightEvent, FlightRec};
use crate::hist::Histogram;
use crate::sink;
use crate::snapshot::TelemetryHandle;

/// The conventional name of the root span every [`Recorder`] opens.
pub const ROOT_SPAN: &str = "run";

/// One closed span: where it sat in the tree, when it ran, and the
/// per-rank busy seconds and communication seconds charged to it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanRecord {
    /// Span name, e.g. `"sweep:reassign-vars"`.
    pub name: String,
    /// Slash-joined path from the root, e.g. `"run/ganesh/ganesh-run"`.
    pub path: String,
    /// Depth in the tree (the root span is 0).
    pub depth: usize,
    /// Start time, seconds since the recorder's epoch.
    pub start_s: f64,
    /// End time, seconds since the recorder's epoch.
    pub end_s: f64,
    /// Busy seconds charged to this span, per rank.
    pub busy_s: Vec<f64>,
    /// Communication seconds charged to this span.
    pub comm_s: f64,
}

impl SpanRecord {
    /// Wall (or simulated) duration of the span.
    pub fn elapsed_s(&self) -> f64 {
        (self.end_s - self.start_s).max(0.0)
    }

    /// The busiest rank's and the mean busy seconds of the span.
    pub fn busy_max_mean(&self) -> (f64, f64) {
        max_and_mean(&self.busy_s)
    }
}

/// The maximum and the mean of per-rank busy seconds (0 when empty).
fn max_and_mean(busy: &[f64]) -> (f64, f64) {
    let max = busy.iter().copied().fold(0.0, f64::max);
    (max, busy.iter().sum::<f64>() / busy.len().max(1) as f64)
}

#[derive(Debug, Clone)]
struct OpenSpan {
    name: String,
    path: String,
    depth: usize,
    start_s: f64,
    busy_s: Vec<f64>,
    comm_s: f64,
}

impl OpenSpan {
    fn close(self, end_s: f64) -> SpanRecord {
        SpanRecord {
            name: self.name,
            path: self.path,
            depth: self.depth,
            start_s: self.start_s,
            end_s,
            busy_s: self.busy_s,
            comm_s: self.comm_s,
        }
    }
}

/// Telemetry push state: the sink's sender half plus the wall-clock
/// rate limiter (wall clock even under sim, whose `now_s` is virtual —
/// cadence is about the observer, not the simulated run).
#[derive(Debug, Clone)]
struct Telemetry {
    handle: TelemetryHandle,
    last_push: Option<Instant>,
}

/// The per-engine (or, under SPMD, per-rank) observability state:
/// span stack, closed-span log, counters, timing histograms, flight
/// recorder, and communication matrix.
#[derive(Debug, Clone)]
pub struct Recorder {
    nranks: usize,
    rank: Option<usize>,
    stack: Vec<OpenSpan>,
    spans: Vec<SpanRecord>,
    counters: BTreeMap<String, u64>,
    hists: BTreeMap<String, Histogram>,
    flight: FlightRec,
    comm: CommMatrixHandle,
    telemetry: Option<Telemetry>,
}

impl Recorder {
    fn build(nranks: usize, rank: Option<usize>, flight: Option<FlightRec>) -> Self {
        let nranks = nranks.max(1);
        let mut r = Self {
            nranks,
            rank,
            stack: Vec::new(),
            spans: Vec::new(),
            counters: BTreeMap::new(),
            hists: BTreeMap::new(),
            flight: flight.unwrap_or_else(|| FlightRec::new(nranks, rank.unwrap_or(0))),
            comm: CommMatrixHandle::new(nranks),
            telemetry: None,
        };
        r.push_span(ROOT_SPAN, 0.0);
        r
    }

    /// A recorder for an engine that observes all `nranks` ranks at
    /// once (serial, thread, sim). Opens the root `"run"` span at
    /// time 0.
    pub fn new(nranks: usize) -> Self {
        Self::build(nranks, None, None)
    }

    /// A recorder owned by one rank of an SPMD program. Busy charges
    /// from this rank land in slot `rank`; [`merge_ranks`] later
    /// combines the per-rank recorders into one snapshot.
    pub fn for_rank(nranks: usize, rank: usize) -> Self {
        Self::build(nranks, Some(rank), None)
    }

    /// Like [`Recorder::for_rank`], but recording flight events into a
    /// caller-supplied black box — the launch harness keeps a clone of
    /// `flight` outside the rank's unwind path so it can dump the
    /// record after the rank dies.
    pub fn for_rank_with_flight(nranks: usize, rank: usize, flight: FlightRec) -> Self {
        Self::build(nranks, Some(rank), Some(flight))
    }

    /// Number of ranks this recorder attributes busy time across.
    pub fn nranks(&self) -> usize {
        self.nranks
    }

    /// The owning rank, when this recorder belongs to one SPMD rank.
    pub fn rank(&self) -> Option<usize> {
        self.rank
    }

    /// A handle to this recorder's flight recorder (clones share the
    /// same ring buffers).
    pub fn flight(&self) -> FlightRec {
        self.flight.clone()
    }

    /// A handle to this recorder's communication matrix. Fabric
    /// endpoints attach a clone so sends land in the right phase.
    pub fn comm_matrix(&self) -> CommMatrixHandle {
        self.comm.clone()
    }

    /// Record a flight-recorder event on behalf of the engine (fault
    /// injections, communication failures).
    pub fn flight_event(&self, event: FlightEvent) {
        self.flight.record(event);
    }

    fn push_span(&mut self, name: &str, now_s: f64) {
        let (path, depth) = match self.stack.last() {
            Some(parent) => (format!("{}/{}", parent.path, name), parent.depth + 1),
            None => (name.to_string(), 0),
        };
        self.flight
            .record(FlightEvent::SpanEnter { path: path.clone() });
        self.stack.push(OpenSpan {
            name: name.to_string(),
            path,
            depth,
            start_s: now_s,
            busy_s: vec![0.0; self.nranks],
            comm_s: 0.0,
        });
    }

    fn pop_span(&mut self, now_s: f64) {
        if let Some(span) = self.stack.pop() {
            let record = span.close(now_s);
            self.flight.record(FlightEvent::SpanExit {
                path: record.path.clone(),
            });
            self.hists
                .entry(record.name.clone())
                .or_default()
                .record(record.elapsed_s());
            self.spans.push(record);
        }
    }

    /// Open a child span under the innermost open span.
    pub fn span_enter(&mut self, name: &str, now_s: f64) {
        self.push_span(name, now_s);
    }

    /// The slash-joined path of the innermost open span (`""` once
    /// [`Recorder::finish`] has closed the root).
    pub fn open_span_path(&self) -> &str {
        self.stack.last().map_or("", |span| span.path.as_str())
    }

    /// Close the innermost open span. The root span can only be closed
    /// by [`Recorder::finish`].
    pub fn span_exit(&mut self, now_s: f64) {
        if self.stack.len() > 1 {
            self.pop_span(now_s);
        }
    }

    /// Close any open phase (and its descendants) and open a new
    /// depth-1 span named `name` under the root. The communication
    /// matrix opens a matching phase bucket.
    pub fn begin_phase(&mut self, name: &str, now_s: f64) {
        while self.stack.len() > 1 {
            self.pop_span(now_s);
        }
        self.push_span(name, now_s);
        self.comm.begin_phase(name);
    }

    /// Close every open span, root included, and push a final
    /// telemetry snapshot if a sink is attached.
    pub fn finish(&mut self, now_s: f64) {
        while !self.stack.is_empty() {
            self.pop_span(now_s);
        }
        self.telemetry_flush(now_s);
    }

    /// Attach a telemetry sink: [`Recorder::telemetry_tick`] starts
    /// pushing rate-limited snapshots through `handle`.
    pub fn set_telemetry(&mut self, handle: TelemetryHandle) {
        self.telemetry = Some(Telemetry {
            handle,
            last_push: None,
        });
    }

    /// Push a telemetry snapshot if one is due (at most one per the
    /// sink's configured interval). Engines call this from their
    /// replicated entry points; it is a cheap clock check when no sink
    /// is attached or the interval has not elapsed.
    pub fn telemetry_tick(&mut self, now_s: f64) {
        let Some(tel) = &self.telemetry else { return };
        let due = match tel.last_push {
            None => true,
            Some(last) => last.elapsed() >= tel.handle.interval(),
        };
        if due {
            self.telemetry_flush(now_s);
        }
    }

    /// Push a telemetry snapshot unconditionally (run end, death).
    pub fn telemetry_flush(&mut self, now_s: f64) {
        let Some(tel) = &mut self.telemetry else { return };
        tel.last_push = Some(Instant::now());
        let handle = tel.handle.clone();
        handle.push(self.snapshot(now_s), now_s);
    }

    /// Charge per-rank busy seconds to every open span.
    pub fn charge_busy(&mut self, busy_s: &[f64]) {
        for span in &mut self.stack {
            for (slot, b) in span.busy_s.iter_mut().zip(busy_s) {
                *slot += b;
            }
        }
    }

    /// Charge busy seconds to one rank's slot in every open span.
    pub fn charge_busy_rank(&mut self, rank: usize, busy_s: f64) {
        for span in &mut self.stack {
            if let Some(slot) = span.busy_s.get_mut(rank) {
                *slot += busy_s;
            }
        }
    }

    /// Charge communication seconds to every open span.
    pub fn charge_comm(&mut self, comm_s: f64) {
        for span in &mut self.stack {
            span.comm_s += comm_s;
        }
    }

    /// Increment a named counter (see [`crate::counters`]).
    pub fn incr(&mut self, counter: &str, by: u64) {
        *self.counters.entry(counter.to_string()).or_insert(0) += by;
    }

    /// Current value of a counter (0 if never incremented).
    pub fn counter(&self, counter: &str) -> u64 {
        self.counters.get(counter).copied().unwrap_or(0)
    }

    /// All counters, by name. Checkpointed execution snapshots this
    /// around each unit of work to persist the unit's exact counter
    /// deltas (see `monet::checkpoint`).
    pub fn counters(&self) -> &std::collections::BTreeMap<String, u64> {
        &self.counters
    }

    /// Count one `dist_map*` call: the map itself, its logical item
    /// total, and the implied all-gather payload. Call with the
    /// *global* `n_items`, never a rank-local block size.
    pub fn count_dist_map(&mut self, n_items: usize, words_per_item: usize) {
        self.incr(crate::counters::ENGINE_DIST_MAPS, 1);
        self.incr(crate::counters::ENGINE_ITEMS, n_items as u64);
        self.incr(
            crate::counters::COMM_ALLGATHER_WORDS,
            (n_items * words_per_item) as u64,
        );
    }

    /// Count one explicit collective with its payload in words.
    pub fn count_collective(&mut self, words: usize) {
        self.incr(crate::counters::COMM_COLLECTIVES, 1);
        self.incr(crate::counters::COMM_COLLECTIVE_WORDS, words as u64);
    }

    /// Count replicated work units.
    pub fn count_replicated(&mut self, units: u64) {
        self.incr(crate::counters::ENGINE_REPLICATED_UNITS, units);
    }

    /// Emit one progress line through the quiet-able sink. Under SPMD
    /// only rank 0 prints, so `p` ranks produce one line, not `p`.
    pub fn note(&self, msg: &str) {
        if self.rank.is_none() || self.rank == Some(0) {
            sink::note(msg);
        }
    }

    /// The spans closed so far, in completion order (children before
    /// parents): every span once [`Recorder::finish`] has run.
    pub fn closed_spans(&self) -> &[SpanRecord] {
        &self.spans
    }

    /// Freeze the current state into a serializable snapshot. Spans
    /// still open are materialized as if they ended at `now_s` (the
    /// recorder itself is not mutated), so `&self` reporting works
    /// mid-run.
    pub fn snapshot(&self, now_s: f64) -> ObsSnapshot {
        let mut spans = self.spans.clone();
        let mut hists = self.hists.clone();
        // Outer spans first so open ancestors precede open children.
        for open in &self.stack {
            let record = open.clone().close(now_s);
            hists
                .entry(record.name.clone())
                .or_default()
                .record(record.elapsed_s());
            spans.push(record);
        }
        ObsSnapshot {
            nranks: self.nranks,
            spans,
            counters: self.counters.clone(),
            histograms: hists,
            comm: self.comm.snapshot(),
        }
    }
}

/// A frozen, serializable view of one recorder: the span log plus
/// counters and histograms. `RUN_METRICS.json` is built from it and
/// the chrome-trace exporter consumes it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ObsSnapshot {
    /// Number of ranks busy time is attributed across.
    pub nranks: usize,
    /// Closed spans, in completion order (children before parents).
    pub spans: Vec<SpanRecord>,
    /// Deterministic event counters, by name (sorted).
    pub counters: BTreeMap<String, u64>,
    /// Span-duration histograms, keyed by span *name* (not path).
    pub histograms: BTreeMap<String, Histogram>,
    /// Per-phase src→dst communication matrix. Under SPMD each rank's
    /// snapshot holds its own sender rows; [`merge_ranks`] sums them.
    pub comm: CommMatrix,
}

/// Per-path aggregate over all spans sharing that path: totals plus
/// the paper's §5.3.1 imbalance metric at that level of the tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanAgg {
    /// Slash-joined span path.
    pub path: String,
    /// Number of span instances aggregated.
    pub count: u64,
    /// Total elapsed (wall or simulated) seconds.
    pub elapsed_s: f64,
    /// Busiest rank's total busy seconds.
    pub busy_max_s: f64,
    /// Mean busy seconds across ranks.
    pub busy_avg_s: f64,
    /// Total communication seconds.
    pub comm_s: f64,
    /// `(busy_max − busy_avg)/busy_avg`, 0 when idle.
    pub imbalance: f64,
    /// Median span duration, from the span-name histogram (shared by
    /// all paths ending in the same name).
    pub p50_s: f64,
    /// 95th-percentile span duration, from the span-name histogram.
    pub p95_s: f64,
    /// 99th-percentile span duration, from the span-name histogram.
    pub p99_s: f64,
}

impl ObsSnapshot {
    /// Aggregate spans by path, sorted by path for stable output.
    pub fn aggregate_spans(&self) -> Vec<SpanAgg> {
        let mut by_path: BTreeMap<&str, (u64, f64, Vec<f64>, f64)> = BTreeMap::new();
        for span in &self.spans {
            let entry = by_path
                .entry(span.path.as_str())
                .or_insert_with(|| (0, 0.0, vec![0.0; self.nranks], 0.0));
            entry.0 += 1;
            entry.1 += span.elapsed_s();
            for (slot, b) in entry.2.iter_mut().zip(&span.busy_s) {
                *slot += b;
            }
            entry.3 += span.comm_s;
        }
        by_path
            .into_iter()
            .map(|(path, (count, elapsed_s, busy, comm_s))| {
                let (busy_max_s, busy_avg_s) = max_and_mean(&busy);
                let imbalance = if busy_avg_s > 0.0 {
                    (busy_max_s - busy_avg_s) / busy_avg_s
                } else {
                    0.0
                };
                let name = path.rsplit('/').next().unwrap_or(path);
                let hist = self.histograms.get(name);
                SpanAgg {
                    path: path.to_string(),
                    count,
                    elapsed_s,
                    busy_max_s,
                    busy_avg_s,
                    comm_s,
                    imbalance,
                    p50_s: hist.map_or(0.0, Histogram::p50_s),
                    p95_s: hist.map_or(0.0, Histogram::p95_s),
                    p99_s: hist.map_or(0.0, Histogram::p99_s),
                }
            })
            .collect()
    }
}

/// Why [`merge_ranks`] refused to combine per-rank snapshots, carrying
/// the *first* divergence so the operator can see exactly which
/// counter or span broke the replicated-control-flow contract on which
/// rank.
#[derive(Debug, Clone, PartialEq)]
pub enum MergeError {
    /// No snapshots were supplied.
    NoSnapshots,
    /// A counter differs between rank 0 and `rank`. A divergence here
    /// means a counter was incremented from partition-dependent code.
    CounterDivergence {
        /// The diverging rank.
        rank: usize,
        /// First diverging counter name (in sorted counter order).
        counter: String,
        /// Rank 0's value (`None` if rank 0 never incremented it).
        rank0: Option<u64>,
        /// The diverging rank's value (`None` if never incremented).
        other: Option<u64>,
    },
    /// The span logs have different lengths.
    SpanLogLength {
        /// The diverging rank.
        rank: usize,
        /// Rank 0's span count.
        rank0: usize,
        /// The diverging rank's span count.
        other: usize,
    },
    /// The span logs disagree on a span path.
    SpanPathDivergence {
        /// The diverging rank.
        rank: usize,
        /// Index of the first diverging span in the span log.
        index: usize,
        /// Rank 0's span path at that index.
        rank0: String,
        /// The diverging rank's span path at that index.
        other: String,
    },
    /// The per-rank communication matrices cannot be summed (phase
    /// lists misaligned).
    CommMatrix(
        /// Description of the misalignment.
        String,
    ),
}

impl std::fmt::Display for MergeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MergeError::NoSnapshots => write!(f, "merge_ranks: no snapshots"),
            MergeError::CounterDivergence {
                rank,
                counter,
                rank0,
                other,
            } => write!(
                f,
                "counter divergence between rank 0 and rank {rank}: \
                 counter {counter:?} is {rank0:?} on rank 0 but {other:?} on rank {rank}"
            ),
            MergeError::SpanLogLength { rank, rank0, other } => write!(
                f,
                "span-log length divergence between rank 0 and rank {rank}: \
                 {rank0} spans vs {other}"
            ),
            MergeError::SpanPathDivergence {
                rank,
                index,
                rank0,
                other,
            } => write!(
                f,
                "span-log path divergence between rank 0 and rank {rank} \
                 at span {index}: {rank0:?} vs {other:?}"
            ),
            MergeError::CommMatrix(detail) => {
                write!(f, "communication-matrix divergence: {detail}")
            }
        }
    }
}

impl std::error::Error for MergeError {}

/// First key at which two counter maps differ, walking the union of
/// keys in sorted order.
fn first_counter_divergence(
    a: &BTreeMap<String, u64>,
    b: &BTreeMap<String, u64>,
) -> Option<(String, Option<u64>, Option<u64>)> {
    a.iter()
        .map(|(k, v)| (k, Some(*v), b.get(k).copied()))
        .chain(
            b.iter()
                .filter(|(k, _)| !a.contains_key(*k))
                .map(|(k, v)| (k, None, Some(*v))),
        )
        .filter(|(_, va, vb)| va != vb)
        .min_by(|(ka, ..), (kb, ..)| ka.cmp(kb))
        .map(|(k, va, vb)| (k.clone(), va, vb))
}

/// Combine per-rank SPMD snapshots into one. All ranks run the same
/// program, so their span logs must align span-for-span; per-rank busy
/// vectors are summed elementwise (each rank only fills its own slot),
/// span windows take the min start / max end across ranks, comm
/// seconds take the per-span max (ranks overlap inside the same
/// collective), and communication matrices sum elementwise (each rank
/// recorded only its own sender rows).
///
/// Counters are part of the determinism contract: they must be
/// identical on every rank, and any divergence is returned as a typed
/// [`MergeError`] carrying the first differing counter or span so the
/// CLI can surface it as a nonzero exit instead of a panic.
pub fn merge_ranks(snapshots: &[ObsSnapshot]) -> Result<ObsSnapshot, MergeError> {
    let mut merged = snapshots.first().cloned().ok_or(MergeError::NoSnapshots)?;
    for (r, snap) in snapshots.iter().enumerate().skip(1) {
        if snap.counters != merged.counters {
            let (counter, rank0, other) =
                first_counter_divergence(&snapshots[0].counters, &snap.counters)
                    .expect("maps differ, so a first divergence exists");
            return Err(MergeError::CounterDivergence {
                rank: r,
                counter,
                rank0,
                other,
            });
        }
        if snap.spans.len() != merged.spans.len() {
            return Err(MergeError::SpanLogLength {
                rank: r,
                rank0: merged.spans.len(),
                other: snap.spans.len(),
            });
        }
        for (index, (m, s)) in merged.spans.iter_mut().zip(&snap.spans).enumerate() {
            if m.path != s.path {
                return Err(MergeError::SpanPathDivergence {
                    rank: r,
                    index,
                    rank0: m.path.clone(),
                    other: s.path.clone(),
                });
            }
            m.start_s = m.start_s.min(s.start_s);
            m.end_s = m.end_s.max(s.end_s);
            m.comm_s = m.comm_s.max(s.comm_s);
            for (slot, b) in m.busy_s.iter_mut().zip(&s.busy_s) {
                *slot += b;
            }
        }
    }
    merged.comm = CommMatrix::merged(
        &snapshots.iter().map(|s| s.comm.clone()).collect::<Vec<_>>(),
    )
    .map_err(MergeError::CommMatrix)?;
    Ok(merged)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters;

    #[test]
    fn charges_propagate_to_ancestors() {
        let mut rec = Recorder::new(2);
        rec.begin_phase("ganesh", 1.0);
        rec.span_enter("sweep", 1.0);
        rec.charge_busy(&[2.0, 1.0]);
        rec.charge_comm(0.5);
        rec.span_exit(3.0);
        rec.finish(4.0);
        let snap = rec.snapshot(4.0);
        assert_eq!(snap.spans.len(), 3);
        let sweep = &snap.spans[0];
        let phase = &snap.spans[1];
        let root = &snap.spans[2];
        assert_eq!(sweep.path, "run/ganesh/sweep");
        assert_eq!(phase.path, "run/ganesh");
        assert_eq!(root.path, "run");
        for span in [sweep, phase, root] {
            assert_eq!(span.busy_s, vec![2.0, 1.0]);
            assert_eq!(span.comm_s, 0.5);
        }
        assert_eq!(sweep.depth, 2);
        assert!((sweep.elapsed_s() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn begin_phase_closes_previous_phase_but_not_root() {
        let mut rec = Recorder::new(1);
        rec.begin_phase("a", 0.0);
        rec.span_enter("inner", 0.0);
        rec.begin_phase("b", 2.0);
        rec.finish(3.0);
        let snap = rec.snapshot(3.0);
        let paths: Vec<&str> = snap.spans.iter().map(|s| s.path.as_str()).collect();
        assert_eq!(paths, vec!["run/a/inner", "run/a", "run/b", "run"]);
    }

    #[test]
    fn span_exit_never_pops_root() {
        let mut rec = Recorder::new(1);
        rec.span_exit(1.0);
        rec.charge_busy(&[1.0]);
        let snap = rec.snapshot(2.0);
        assert_eq!(snap.spans.len(), 1);
        assert_eq!(snap.spans[0].path, "run");
        assert_eq!(snap.spans[0].busy_s, vec![1.0]);
    }

    #[test]
    fn snapshot_materializes_open_spans_without_mutating() {
        let mut rec = Recorder::new(1);
        rec.begin_phase("p", 0.5);
        let snap = rec.snapshot(2.0);
        assert_eq!(snap.spans.len(), 2);
        assert_eq!(snap.spans[0].path, "run");
        assert_eq!(snap.spans[1].path, "run/p");
        assert!((snap.spans[1].elapsed_s() - 1.5).abs() < 1e-12);
        // Recorder still has both spans open.
        rec.finish(3.0);
        assert_eq!(rec.snapshot(3.0).spans.len(), 2);
    }

    #[test]
    fn counters_and_helpers() {
        let mut rec = Recorder::new(4);
        rec.count_dist_map(100, 3);
        rec.count_dist_map(10, 1);
        rec.count_collective(7);
        rec.count_replicated(5);
        assert_eq!(rec.counter(counters::ENGINE_DIST_MAPS), 2);
        assert_eq!(rec.counter(counters::ENGINE_ITEMS), 110);
        assert_eq!(rec.counter(counters::COMM_ALLGATHER_WORDS), 310);
        assert_eq!(rec.counter(counters::COMM_COLLECTIVES), 1);
        assert_eq!(rec.counter(counters::COMM_COLLECTIVE_WORDS), 7);
        assert_eq!(rec.counter(counters::ENGINE_REPLICATED_UNITS), 5);
        assert_eq!(rec.counter("no.such"), 0);
    }

    #[test]
    fn aggregate_computes_imbalance_per_path() {
        let mut rec = Recorder::new(2);
        rec.begin_phase("p", 0.0);
        rec.charge_busy(&[3.0, 1.0]);
        rec.begin_phase("p", 2.0);
        rec.charge_busy(&[1.0, 1.0]);
        rec.finish(4.0);
        let aggs = rec.snapshot(4.0).aggregate_spans();
        let p = aggs.iter().find(|a| a.path == "run/p").unwrap();
        assert_eq!(p.count, 2);
        // Summed busy: [4, 2] -> max 4, avg 3 -> imbalance 1/3.
        assert!((p.busy_max_s - 4.0).abs() < 1e-12);
        assert!((p.busy_avg_s - 3.0).abs() < 1e-12);
        assert!((p.imbalance - 1.0 / 3.0).abs() < 1e-12);
        let root = aggs.iter().find(|a| a.path == "run").unwrap();
        assert_eq!(root.count, 1);
        assert!((root.elapsed_s - 4.0).abs() < 1e-12);
    }

    #[test]
    fn merge_ranks_sums_busy_and_checks_counters() {
        let mk = |rank: usize, busy: f64| {
            let mut rec = Recorder::for_rank(2, rank);
            rec.begin_phase("p", 0.0);
            rec.charge_busy_rank(rank, busy);
            rec.incr(counters::GIBBS_SWEEPS, 3);
            rec.finish(1.0 + rank as f64);
            rec.snapshot(1.0 + rank as f64)
        };
        let merged = merge_ranks(&[mk(0, 2.0), mk(1, 5.0)]).unwrap();
        let p = &merged.spans[0];
        assert_eq!(p.path, "run/p");
        assert_eq!(p.busy_s, vec![2.0, 5.0]);
        let root = &merged.spans[1];
        assert!((root.end_s - 2.0).abs() < 1e-12);
        assert_eq!(merged.counters.get(counters::GIBBS_SWEEPS), Some(&3));
    }

    #[test]
    fn merge_ranks_reports_first_counter_divergence() {
        let mk = |n: u64| {
            let mut rec = Recorder::for_rank(2, 0);
            rec.incr(counters::GIBBS_SWEEPS, n);
            // A counter that agrees, sorting *before* the diverging
            // one, must not be reported.
            rec.incr("a.same", 7);
            rec.finish(1.0);
            rec.snapshot(1.0)
        };
        let err = merge_ranks(&[mk(1), mk(2)]).unwrap_err();
        assert_eq!(
            err,
            MergeError::CounterDivergence {
                rank: 1,
                counter: counters::GIBBS_SWEEPS.to_string(),
                rank0: Some(1),
                other: Some(2),
            }
        );
        let msg = err.to_string();
        assert!(msg.contains("rank 1"), "{msg}");
        assert!(msg.contains(counters::GIBBS_SWEEPS), "{msg}");
    }

    #[test]
    fn merge_ranks_reports_missing_counter_and_span_divergence() {
        let base = |extra: bool| {
            let mut rec = Recorder::for_rank(2, 0);
            if extra {
                rec.incr("z.only", 1);
            }
            rec.finish(1.0);
            rec.snapshot(1.0)
        };
        let err = merge_ranks(&[base(true), base(false)]).unwrap_err();
        assert_eq!(
            err,
            MergeError::CounterDivergence {
                rank: 1,
                counter: "z.only".into(),
                rank0: Some(1),
                other: None,
            }
        );

        let spanned = |name: &str| {
            let mut rec = Recorder::for_rank(2, 0);
            rec.begin_phase(name, 0.0);
            rec.finish(1.0);
            rec.snapshot(1.0)
        };
        let err = merge_ranks(&[spanned("a"), spanned("b")]).unwrap_err();
        assert_eq!(
            err,
            MergeError::SpanPathDivergence {
                rank: 1,
                index: 0,
                rank0: "run/a".into(),
                other: "run/b".into(),
            }
        );
        assert_eq!(merge_ranks(&[]).unwrap_err(), MergeError::NoSnapshots);
    }

    #[test]
    fn merge_ranks_sums_comm_matrices() {
        let mk = |rank: usize| {
            let mut rec = Recorder::for_rank(2, rank);
            rec.begin_phase("p", 0.0);
            rec.comm_matrix().record(rank, 1 - rank, 10);
            rec.finish(1.0);
            rec.snapshot(1.0)
        };
        let merged = merge_ranks(&[mk(0), mk(1)]).unwrap();
        assert_eq!(merged.comm.total_msgs(), 2);
        assert_eq!(merged.comm.total_bytes(), 20);
        let phase = merged.comm.phase("p").unwrap();
        assert_eq!(phase.msgs, vec![0, 1, 1, 0]);
    }

    #[test]
    fn span_flow_records_deterministic_flight_events() {
        use crate::flightrec::FlightEvent;
        let mut rec = Recorder::new(1);
        rec.begin_phase("p", 0.0);
        rec.span_enter("inner", 0.0);
        rec.span_exit(1.0);
        rec.finish(2.0);
        let events: Vec<FlightEvent> = rec
            .flight()
            .det_events()
            .into_iter()
            .map(|r| r.event)
            .collect();
        assert_eq!(
            events,
            vec![
                FlightEvent::SpanEnter { path: "run".into() },
                FlightEvent::SpanEnter {
                    path: "run/p".into()
                },
                FlightEvent::SpanEnter {
                    path: "run/p/inner".into()
                },
                FlightEvent::SpanExit {
                    path: "run/p/inner".into()
                },
                FlightEvent::SpanExit {
                    path: "run/p".into()
                },
                FlightEvent::SpanExit { path: "run".into() },
            ]
        );
    }

    #[test]
    fn aggregates_carry_histogram_percentiles() {
        let mut rec = Recorder::new(1);
        for i in 0..4 {
            rec.begin_phase("p", i as f64);
        }
        rec.finish(4.0);
        let aggs = rec.snapshot(4.0).aggregate_spans();
        let p = aggs.iter().find(|a| a.path == "run/p").unwrap();
        // Four 1 s instances: every percentile estimates ~1 s (clamped
        // to the observed max).
        assert!(p.p50_s > 0.0);
        assert!(p.p50_s <= p.p95_s && p.p95_s <= p.p99_s);
        assert!(p.p99_s <= rec.snapshot(4.0).histograms["p"].max_s + 1e-12);
    }

    #[test]
    fn snapshot_json_roundtrip() {
        let mut rec = Recorder::new(2);
        rec.begin_phase("p", 0.0);
        rec.charge_busy(&[1.0, 2.0]);
        rec.incr(counters::SPLITS_SCORED, 42);
        rec.finish(1.0);
        let snap = rec.snapshot(1.0);
        let json = serde_json::to_string(&snap).unwrap();
        let back: ObsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(snap, back);
    }
}
