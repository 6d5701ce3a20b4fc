//! # mn-obs — structured observability for the `monet` pipeline
//!
//! The paper's entire evaluation (§5, Fig. 5–6, Table 2) is built on
//! per-phase runtime breakdowns, communication shares, and the
//! load-imbalance metric of the split-posterior loop. This crate is
//! the measurement substrate behind those figures — and behind any
//! future scaling work, which needs attribution *below* the phase
//! level:
//!
//! * **Hierarchical spans** ([`Recorder`]): a `run → phase →
//!   ganesh-run/sweep` and `modules → module → tree/assign-splits`
//!   tree. Every engine charges per-rank busy seconds and
//!   communication seconds into the innermost open span and all of its
//!   ancestors, and nowhere else, so the paper's §5.3.1 imbalance
//!   metric `(max − avg)/avg` is available at every level of the
//!   hierarchy, and `mn_comm::RunReport` is a view of the depth-1
//!   phase spans.
//! * **Deterministic event counters** ([`counters`]): logical event
//!   counts (moves proposed/accepted, splits scored, kernel vs naive
//!   dispatches, collective calls and payload words). Counters count
//!   *algorithmic* events, never timing or partitioning artifacts, so
//!   they are bit-identical across every engine and rank count — a
//!   cheap cross-engine equivalence check that the integration tests
//!   assert on.
//! * **Timing histograms** ([`Histogram`]): log₂-bucketed span
//!   durations with p50/p95/p99 estimators, cheap enough to stay
//!   always-on.
//! * **Flight recorder** ([`flightrec`]): an always-on, bounded-memory
//!   ring of compact per-rank events (span enter/exit, send/recv,
//!   checkpoint units, fault injections, RNG jumps) dumped as
//!   `flightrec-rank<k>.jsonl` when a run fails — the black box for
//!   post-mortem debugging of rank deaths.
//! * **Communication matrix** ([`commatrix`]): per-phase src→dst
//!   message and byte counts, recorded at the sender inside the msg
//!   fabric and synthesized identically by the sim engine.
//! * **Live telemetry** ([`snapshot`]): versioned JSONL snapshot
//!   deltas with heartbeats ([`TelemetrySink`]), the streaming surface
//!   a future `monet-serve` will put on the wire.
//! * **Artifact export** ([`trace`]): a chrome://tracing JSON timeline
//!   with one track per rank, and a serializable [`ObsSnapshot`] from
//!   which the `monet` CLI builds `RUN_METRICS.json`.
//! * **Output sink** ([`sink`]): the single quiet-able channel for
//!   human-readable progress output, replacing scattered `eprintln!`s.
//!
//! The crate is dependency-light by design: it builds against the
//! workspace's vendored `serde`/`serde_json` stubs and nothing else,
//! so it works in the offline build container.
//!
//! ## Counter determinism contract
//!
//! A counter may only be incremented from *replicated* control flow —
//! code that every rank executes identically (the serial sections of
//! the SPMD program, or the engine entry points that receive identical
//! arguments on every engine). Incrementing from inside a `dist_map`
//! closure is forbidden: the closure runs on one rank's block only, so
//! the count would depend on the partition. The engines in `mn-comm`
//! count at the trait-call boundary (items, maps, collective words);
//! the algorithm crates count domain events before/after the parallel
//! sections. Under this contract `serial == threads:p == sim:p ==
//! msg:p` for every counter and every `p`.

#![warn(missing_docs)]

pub mod commatrix;
pub mod counters;
pub mod flightrec;
pub mod hist;
pub mod recorder;
pub mod sink;
pub mod snapshot;
pub mod trace;

pub use commatrix::{CommMatrix, CommMatrixHandle};
pub use flightrec::{FlightEvent, FlightRec};
pub use hist::Histogram;
pub use recorder::{merge_ranks, MergeError, ObsSnapshot, Recorder, SpanAgg, SpanRecord};
pub use sink::{is_quiet, set_quiet};
pub use snapshot::{
    SnapshotStash, TelemetryHandle, TelemetrySink, TelemetryStream,
    TELEMETRY_SCHEMA_VERSION,
};
pub use trace::chrome_trace_json;
