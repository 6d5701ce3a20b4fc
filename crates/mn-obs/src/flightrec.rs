//! The per-rank flight recorder: a bounded-memory black box.
//!
//! Long SPMD runs die in ways the span tree cannot explain after the
//! fact: the recorder that owned the spans unwound with the rank. The
//! flight recorder is the always-on complement — a fixed-size ring
//! buffer of compact events ([`FlightEvent`]) held behind a clonable
//! [`FlightRec`] handle, so the harness that launched a rank can keep a
//! handle *outside* the unwind path and dump the black box after the
//! rank is gone (`flightrec-rank<k>.jsonl`, one JSON object per line).
//!
//! Events come in two classes:
//!
//! * **Deterministic** events (span enter/exit, checkpoint unit
//!   commits) are recorded from replicated control flow only, exactly
//!   like the counters of [`crate::counters`]. Their sequence —
//!   timestamps excluded — is bit-identical across every engine and
//!   rank count, which is what lets the kill–resume suite assert that
//!   a dead rank's black box replay-matches the survivors', and what
//!   the committed golden record pins.
//! * **Local** events (fabric send/recv with peer + wire bytes,
//!   dropped messages, injected faults, communication failures, RNG
//!   stream jumps) describe what *this* rank physically did. They are
//!   partition- and engine-dependent by nature and are excluded from
//!   cross-engine comparison.
//!
//! The two classes live in separate rings so a burst of hot local
//! events can never evict the deterministic record. Each ring keeps a
//! monotone per-class sequence number; eviction is visible as a
//! nonzero `dropped` count in the dump header, and cross-rank
//! comparison works on the seq-number overlap window
//! ([`det_overlap_matches`]).

use std::collections::VecDeque;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use serde::{Content, DeError, Deserialize, Serialize};

/// Schema version stamped into every dump's header line.
pub const FLIGHTREC_SCHEMA_VERSION: u32 = 1;

/// Default capacity of the deterministic-event ring.
pub const DEFAULT_DET_CAPACITY: usize = 4096;

/// Default capacity of the local-event ring.
pub const DEFAULT_LOCAL_CAPACITY: usize = 8192;

/// One compact flight-recorder event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlightEvent {
    /// A span was opened (deterministic). `path` is the slash-joined
    /// span path, e.g. `"run/ganesh/ganesh-run"`.
    SpanEnter {
        /// Slash-joined span path.
        path: String,
    },
    /// A span was closed (deterministic).
    SpanExit {
        /// Slash-joined span path.
        path: String,
    },
    /// A checkpoint unit committed (deterministic): `written` is true
    /// when the unit was computed and persisted this run, false when
    /// it was restored from the store. Recorded on every rank at the
    /// same replicated point, not only on the I/O rank.
    CkptUnit {
        /// Checkpoint unit name, e.g. `"ganesh_run_0"`.
        unit: String,
        /// `true` = computed and written; `false` = restored.
        written: bool,
    },
    /// A fabric message left this rank (local).
    Send {
        /// Destination rank.
        peer: usize,
        /// Shallow wire bytes of the payload.
        bytes: u64,
    },
    /// A fabric message arrived at this rank (local).
    Recv {
        /// Source rank.
        peer: usize,
        /// Shallow wire bytes of the payload.
        bytes: u64,
    },
    /// An outgoing message was discarded by a `Drop` fault (local).
    MsgDropped {
        /// Destination rank of the discarded message.
        peer: usize,
    },
    /// The fault plan fired on this rank (local).
    FaultInjected {
        /// Action label: `"kill"`, `"delay"`, or `"drop"`.
        action: String,
        /// The fabric/engine event number the fault fired at.
        event: u64,
    },
    /// This rank is aborting on a communication error (local). The
    /// last event of a survivor that observed a dead peer.
    CommFailure {
        /// Human-readable rendering of the `CommError`-shaped cause.
        detail: String,
    },
    /// An O(1) PRNG stream jump (local; jumps happen inside
    /// block-partitioned loops, so their sequence is rank-dependent).
    RngJump {
        /// The logical draw position jumped to (or jump length, for
        /// relative jumps).
        draw: u64,
    },
}

impl FlightEvent {
    /// Whether this event belongs to the deterministic class (recorded
    /// from replicated control flow; cross-engine comparable).
    pub fn is_deterministic(&self) -> bool {
        matches!(
            self,
            FlightEvent::SpanEnter { .. }
                | FlightEvent::SpanExit { .. }
                | FlightEvent::CkptUnit { .. }
        )
    }

    /// The event's kind tag, as serialized into the dump.
    pub fn kind(&self) -> &'static str {
        match self {
            FlightEvent::SpanEnter { .. } => "span-enter",
            FlightEvent::SpanExit { .. } => "span-exit",
            FlightEvent::CkptUnit { .. } => "ckpt-unit",
            FlightEvent::Send { .. } => "send",
            FlightEvent::Recv { .. } => "recv",
            FlightEvent::MsgDropped { .. } => "msg-dropped",
            FlightEvent::FaultInjected { .. } => "fault-injected",
            FlightEvent::CommFailure { .. } => "comm-failure",
            FlightEvent::RngJump { .. } => "rng-jump",
        }
    }
}

/// One recorded event: per-class sequence number, seconds since the
/// recorder's creation, and the event itself.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightRecord {
    /// Per-class sequence number, counted from 0 at recorder creation
    /// (monotone even across ring eviction).
    pub seq: u64,
    /// Seconds since the recorder was created (wall clock; excluded
    /// from all determinism comparisons and goldens).
    pub t_s: f64,
    /// The event.
    pub event: FlightEvent,
}

impl Serialize for FlightRecord {
    fn serialize_value(&self) -> Content {
        let mut pairs: Vec<(String, Content)> = vec![
            ("seq".into(), Content::U64(self.seq)),
            ("t_s".into(), Content::F64(self.t_s)),
            (
                "class".into(),
                Content::Str(
                    if self.event.is_deterministic() {
                        "det"
                    } else {
                        "local"
                    }
                    .into(),
                ),
            ),
            ("kind".into(), Content::Str(self.event.kind().into())),
        ];
        match &self.event {
            FlightEvent::SpanEnter { path } | FlightEvent::SpanExit { path } => {
                pairs.push(("path".into(), Content::Str(path.clone())));
            }
            FlightEvent::CkptUnit { unit, written } => {
                pairs.push(("unit".into(), Content::Str(unit.clone())));
                pairs.push(("written".into(), Content::Bool(*written)));
            }
            FlightEvent::Send { peer, bytes } | FlightEvent::Recv { peer, bytes } => {
                pairs.push(("peer".into(), Content::U64(*peer as u64)));
                pairs.push(("bytes".into(), Content::U64(*bytes)));
            }
            FlightEvent::MsgDropped { peer } => {
                pairs.push(("peer".into(), Content::U64(*peer as u64)));
            }
            FlightEvent::FaultInjected { action, event } => {
                pairs.push(("action".into(), Content::Str(action.clone())));
                pairs.push(("event".into(), Content::U64(*event)));
            }
            FlightEvent::CommFailure { detail } => {
                pairs.push(("detail".into(), Content::Str(detail.clone())));
            }
            FlightEvent::RngJump { draw } => {
                pairs.push(("draw".into(), Content::U64(*draw)));
            }
        }
        Content::Map(pairs)
    }
}

impl Deserialize for FlightRecord {
    fn deserialize_value(value: &Content) -> Result<Self, DeError> {
        let kind: String = serde::map_field(value, "kind")?;
        let event = match kind.as_str() {
            "span-enter" => FlightEvent::SpanEnter {
                path: serde::map_field(value, "path")?,
            },
            "span-exit" => FlightEvent::SpanExit {
                path: serde::map_field(value, "path")?,
            },
            "ckpt-unit" => FlightEvent::CkptUnit {
                unit: serde::map_field(value, "unit")?,
                written: serde::map_field(value, "written")?,
            },
            "send" => FlightEvent::Send {
                peer: serde::map_field(value, "peer")?,
                bytes: serde::map_field(value, "bytes")?,
            },
            "recv" => FlightEvent::Recv {
                peer: serde::map_field(value, "peer")?,
                bytes: serde::map_field(value, "bytes")?,
            },
            "msg-dropped" => FlightEvent::MsgDropped {
                peer: serde::map_field(value, "peer")?,
            },
            "fault-injected" => FlightEvent::FaultInjected {
                action: serde::map_field(value, "action")?,
                event: serde::map_field(value, "event")?,
            },
            "comm-failure" => FlightEvent::CommFailure {
                detail: serde::map_field(value, "detail")?,
            },
            "rng-jump" => FlightEvent::RngJump {
                draw: serde::map_field(value, "draw")?,
            },
            other => return Err(DeError::msg(format!("unknown flight event kind {other:?}"))),
        };
        Ok(FlightRecord {
            seq: serde::map_field(value, "seq")?,
            t_s: serde::map_field(value, "t_s")?,
            event,
        })
    }
}

/// A bounded ring with a monotone sequence number: eviction drops the
/// oldest record but the count of everything ever recorded survives.
#[derive(Debug)]
struct Ring {
    cap: usize,
    next_seq: u64,
    buf: VecDeque<FlightRecord>,
}

impl Ring {
    fn new(cap: usize) -> Self {
        Self {
            cap: cap.max(1),
            next_seq: 0,
            buf: VecDeque::new(),
        }
    }

    fn push(&mut self, t_s: f64, event: FlightEvent) {
        if self.buf.len() == self.cap {
            self.buf.pop_front();
        }
        self.buf.push_back(FlightRecord {
            seq: self.next_seq,
            t_s,
            event,
        });
        self.next_seq += 1;
    }

    fn dropped(&self) -> u64 {
        self.next_seq - self.buf.len() as u64
    }
}

#[derive(Debug)]
struct Inner {
    nranks: usize,
    rank: usize,
    epoch: Instant,
    enabled: bool,
    det: Ring,
    local: Ring,
}

/// Clonable handle to one rank's flight recorder. Clones share the
/// same ring buffers, which is the point: the launch harness keeps a
/// clone outside the rank's unwind path and can dump the black box
/// after the rank panicked or was killed.
#[derive(Debug, Clone)]
pub struct FlightRec {
    inner: Arc<Mutex<Inner>>,
}

impl FlightRec {
    /// A recorder for `rank` of `nranks` with default ring capacities.
    pub fn new(nranks: usize, rank: usize) -> Self {
        Self::with_capacity(nranks, rank, DEFAULT_DET_CAPACITY, DEFAULT_LOCAL_CAPACITY)
    }

    /// A recorder with explicit per-class ring capacities. Capacities
    /// must match across engines for the deterministic record to
    /// compare bit-identically after eviction.
    pub fn with_capacity(nranks: usize, rank: usize, det_cap: usize, local_cap: usize) -> Self {
        Self {
            inner: Arc::new(Mutex::new(Inner {
                nranks: nranks.max(1),
                rank,
                epoch: Instant::now(),
                enabled: true,
                det: Ring::new(det_cap),
                local: Ring::new(local_cap),
            })),
        }
    }

    /// The owning rank.
    pub fn rank(&self) -> usize {
        self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner).rank
    }

    /// Enable or disable recording (the recorder is always-on by
    /// default; the bench harness disables it to measure overhead).
    pub fn set_enabled(&self, enabled: bool) {
        self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner).enabled = enabled;
    }

    /// Record one event into its class ring.
    pub fn record(&self, event: FlightEvent) {
        let mut inner = self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        if !inner.enabled {
            return;
        }
        let t_s = inner.epoch.elapsed().as_secs_f64();
        if event.is_deterministic() {
            inner.det.push(t_s, event);
        } else {
            inner.local.push(t_s, event);
        }
    }

    /// The retained deterministic-class records, oldest first.
    pub fn det_events(&self) -> Vec<FlightRecord> {
        self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner).det.buf.iter().cloned().collect()
    }

    /// The retained local-class records, oldest first.
    pub fn local_events(&self) -> Vec<FlightRecord> {
        self.inner
            .lock()
            .unwrap()
            .local
            .buf
            .iter()
            .cloned()
            .collect()
    }

    /// Deterministic-class events ever recorded (including evicted).
    pub fn det_recorded(&self) -> u64 {
        self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner).det.next_seq
    }

    /// Serialize the black box as JSONL: one header object, then every
    /// retained record (deterministic ring first, then local), one
    /// JSON object per line.
    pub fn dump_jsonl(&self) -> String {
        let inner = self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let header = Content::Map(vec![
            (
                "schema_version".into(),
                Content::U64(FLIGHTREC_SCHEMA_VERSION as u64),
            ),
            ("kind".into(), Content::Str("header".into())),
            ("rank".into(), Content::U64(inner.rank as u64)),
            ("nranks".into(), Content::U64(inner.nranks as u64)),
            ("det_dropped".into(), Content::U64(inner.det.dropped())),
            ("local_dropped".into(), Content::U64(inner.local.dropped())),
        ]);
        let mut out = serde_json::to_string(&header).expect("header serializes");
        out.push('\n');
        for record in inner.det.buf.iter().chain(inner.local.buf.iter()) {
            out.push_str(&serde_json::to_string(record).expect("record serializes"));
            out.push('\n');
        }
        out
    }

    /// Write the black box to `dir` as `flightrec-rank<k>.jsonl` and
    /// return the path.
    pub fn dump_to_dir(&self, dir: &Path) -> std::io::Result<PathBuf> {
        let path = dir.join(dump_filename(self.rank()));
        let mut file = std::fs::File::create(&path)?;
        file.write_all(self.dump_jsonl().as_bytes())?;
        Ok(path)
    }
}

/// The conventional dump file name for one rank's black box.
pub fn dump_filename(rank: usize) -> String {
    format!("flightrec-rank{rank}.jsonl")
}

/// Parse a dump produced by [`FlightRec::dump_jsonl`] back into its
/// records (the header line is validated and skipped).
pub fn parse_dump(jsonl: &str) -> Result<Vec<FlightRecord>, String> {
    let mut lines = jsonl.lines().filter(|l| !l.trim().is_empty());
    let header = lines.next().ok_or("empty flight-recorder dump")?;
    let header: Content = serde_json::from_str(header).map_err(|e| e.to_string())?;
    let version: u64 = serde::map_field(&header, "schema_version").map_err(|e| e.to_string())?;
    if version != FLIGHTREC_SCHEMA_VERSION as u64 {
        return Err(format!(
            "flight-recorder schema version {version} (expected {FLIGHTREC_SCHEMA_VERSION})"
        ));
    }
    lines
        .map(|line| serde_json::from_str::<FlightRecord>(line).map_err(|e| e.to_string()))
        .collect()
}

/// Compare two deterministic-class records on their sequence-number
/// overlap window, ignoring timestamps. Ring eviction and early death
/// both truncate a record, so the comparable region is
/// `max(first seqs) ..= min(last seqs)`; inside it the events must be
/// identical. Returns the first divergence as an error message.
pub fn det_overlap_matches(a: &[FlightRecord], b: &[FlightRecord]) -> Result<usize, String> {
    let (Some(a0), Some(b0)) = (a.first(), b.first()) else {
        return Ok(0); // one side recorded nothing: vacuously consistent
    };
    let lo = a0.seq.max(b0.seq);
    let hi = a.last().unwrap().seq.min(b.last().unwrap().seq);
    if lo > hi {
        return Ok(0); // disjoint windows
    }
    let slice = |records: &[FlightRecord], name: &str| -> Result<Vec<FlightRecord>, String> {
        let start = records
            .iter()
            .position(|r| r.seq == lo)
            .ok_or_else(|| format!("{name}: seq {lo} missing (non-contiguous ring?)"))?;
        Ok(records[start..start + (hi - lo + 1) as usize].to_vec())
    };
    let wa = slice(a, "left")?;
    let wb = slice(b, "right")?;
    for (ra, rb) in wa.iter().zip(&wb) {
        if ra.seq != rb.seq || ra.event != rb.event {
            return Err(format!(
                "deterministic event divergence at seq {}: {:?} vs {:?}",
                ra.seq, ra.event, rb.event
            ));
        }
    }
    Ok(wa.len())
}

// ---------------------------------------------------------------------
// Thread-local recorder: lets leaf code (PRNG jumps inside partitioned
// loops) reach the active rank's flight recorder without plumbing a
// handle through every call signature. Engines install it on each
// compute thread; unset means events are silently discarded.
// ---------------------------------------------------------------------

thread_local! {
    static THREAD_REC: std::cell::RefCell<Option<FlightRec>> =
        const { std::cell::RefCell::new(None) };
}

/// Install (or clear) this thread's flight recorder. Engines call this
/// on every compute thread before running partitioned work.
pub fn set_thread_recorder(rec: Option<FlightRec>) {
    THREAD_REC.with(|slot| *slot.borrow_mut() = rec);
}

/// Record a local-class event into this thread's recorder, if one is
/// installed. Cheap no-op otherwise.
pub fn note_local(event: FlightEvent) {
    THREAD_REC.with(|slot| {
        if let Some(rec) = slot.borrow().as_ref() {
            rec.record(event);
        }
    });
}

/// Record an O(1) RNG stream jump on this thread's recorder.
pub fn note_rng_jump(draw: u64) {
    note_local(FlightEvent::RngJump { draw });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes_route_to_their_rings() {
        let rec = FlightRec::new(2, 1);
        rec.record(FlightEvent::SpanEnter { path: "run".into() });
        rec.record(FlightEvent::Send { peer: 0, bytes: 16 });
        rec.record(FlightEvent::SpanExit { path: "run".into() });
        let det = rec.det_events();
        let local = rec.local_events();
        assert_eq!(det.len(), 2);
        assert_eq!(local.len(), 1);
        assert_eq!(det[0].seq, 0);
        assert_eq!(det[1].seq, 1);
        assert_eq!(local[0].seq, 0);
        assert!(det.iter().all(|r| r.event.is_deterministic()));
        assert!(!local[0].event.is_deterministic());
    }

    #[test]
    fn ring_evicts_oldest_but_keeps_seq() {
        let rec = FlightRec::with_capacity(1, 0, 3, 3);
        for i in 0..5u64 {
            rec.record(FlightEvent::SpanEnter {
                path: format!("s{i}"),
            });
        }
        let det = rec.det_events();
        assert_eq!(det.len(), 3);
        assert_eq!(det[0].seq, 2);
        assert_eq!(det[2].seq, 4);
        assert_eq!(rec.det_recorded(), 5);
    }

    #[test]
    fn disabled_recorder_drops_everything() {
        let rec = FlightRec::new(1, 0);
        rec.set_enabled(false);
        rec.record(FlightEvent::SpanEnter { path: "x".into() });
        assert!(rec.det_events().is_empty());
        rec.set_enabled(true);
        rec.record(FlightEvent::SpanEnter { path: "y".into() });
        assert_eq!(rec.det_events().len(), 1);
    }

    #[test]
    fn dump_roundtrips_through_jsonl() {
        let rec = FlightRec::new(3, 2);
        rec.record(FlightEvent::SpanEnter {
            path: "run/ganesh".into(),
        });
        rec.record(FlightEvent::CkptUnit {
            unit: "ganesh_run_0".into(),
            written: true,
        });
        rec.record(FlightEvent::Recv { peer: 0, bytes: 64 });
        rec.record(FlightEvent::FaultInjected {
            action: "kill".into(),
            event: 17,
        });
        rec.record(FlightEvent::CommFailure {
            detail: "peer 1 disconnected".into(),
        });
        rec.record(FlightEvent::RngJump { draw: 1234 });
        rec.record(FlightEvent::MsgDropped { peer: 1 });
        let dump = rec.dump_jsonl();
        let parsed = parse_dump(&dump).unwrap();
        let expected: Vec<FlightRecord> = rec
            .det_events()
            .into_iter()
            .chain(rec.local_events())
            .collect();
        assert_eq!(parsed, expected);
        // Header carries rank coordinates.
        let header: Content = serde_json::from_str(dump.lines().next().unwrap()).unwrap();
        assert_eq!(header.get("rank").and_then(Content::as_u64), Some(2));
        assert_eq!(header.get("nranks").and_then(Content::as_u64), Some(3));
    }

    #[test]
    fn overlap_comparison_tolerates_truncation() {
        let mk = |n: u64| {
            let rec = FlightRec::new(1, 0);
            for i in 0..n {
                rec.record(FlightEvent::SpanEnter {
                    path: format!("s{i}"),
                });
            }
            rec.det_events()
        };
        // The short record is a prefix of the long one.
        assert!(det_overlap_matches(&mk(3), &mk(7)).is_ok());
        // Divergence inside the window is reported.
        let mut other = mk(3);
        other[1].event = FlightEvent::SpanEnter { path: "zzz".into() };
        let err = det_overlap_matches(&mk(3), &other).unwrap_err();
        assert!(err.contains("seq 1"), "{err}");
        // Timestamps are ignored.
        let mut shifted = mk(3);
        for r in &mut shifted {
            r.t_s += 100.0;
        }
        assert!(det_overlap_matches(&mk(3), &shifted).is_ok());
    }

    #[test]
    fn thread_local_hook_reaches_installed_recorder() {
        let rec = FlightRec::new(1, 0);
        set_thread_recorder(Some(rec.clone()));
        note_rng_jump(99);
        set_thread_recorder(None);
        note_rng_jump(100); // discarded: no recorder installed
        let local = rec.local_events();
        assert_eq!(local.len(), 1);
        assert_eq!(local[0].event, FlightEvent::RngJump { draw: 99 });
    }
}
