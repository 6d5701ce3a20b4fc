//! Live telemetry: versioned JSONL snapshot deltas, plus the
//! death-stash used by post-mortem reporting.
//!
//! A run that streams telemetry owns one [`TelemetrySink`] — a writer
//! thread draining a channel of [`ObsSnapshot`]s. Engines push
//! rate-limited snapshots through a clonable [`TelemetryHandle`] (the
//! recorder decides cadence; the sink decides formatting), and the
//! writer thread turns each into one JSONL line via
//! [`TelemetryStream`]:
//!
//! * line 0 is a full `"snapshot"` (counters, span aggregates, comm
//!   totals, rank count);
//! * subsequent lines are `"delta"`s carrying only the counters and
//!   span aggregates that changed since the previous line;
//! * when no snapshot arrives within the configured interval the
//!   writer emits a `"heartbeat"` line, so a stalled run is visible as
//!   heartbeats without progress.
//!
//! Every line carries `schema_version` ([`TELEMETRY_SCHEMA_VERSION`])
//! and a monotone `seq`. This JSONL surface is exactly what
//! `monet-serve` will later stream over HTTP (ROADMAP item 1).

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use serde::{Content, Serialize};

use crate::recorder::{ObsSnapshot, SpanAgg};

/// Schema version stamped into every telemetry line (and into
/// `RUN_METRICS.json`, which shares the snapshot schema).
pub const TELEMETRY_SCHEMA_VERSION: u32 = 2;

/// Incremental JSONL formatter: feed it successive snapshots of the
/// same run and it emits a full first line, then deltas. Pure state
/// machine — the writer thread owns one, and tests drive it directly.
#[derive(Debug, Default)]
pub struct TelemetryStream {
    seq: u64,
    last_counters: BTreeMap<String, u64>,
    last_aggs: BTreeMap<String, SpanAgg>,
    last_comm: Option<(u64, u64)>,
}

impl TelemetryStream {
    /// A stream that has emitted nothing yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of lines emitted so far.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    fn base(&mut self, kind: &str) -> Vec<(String, Content)> {
        let seq = self.seq;
        self.seq += 1;
        vec![
            (
                "schema_version".into(),
                Content::U64(TELEMETRY_SCHEMA_VERSION as u64),
            ),
            ("seq".into(), Content::U64(seq)),
            ("kind".into(), Content::Str(kind.into())),
        ]
    }

    /// Format one snapshot as a JSONL line: a full `"snapshot"` the
    /// first time, a `"delta"` with only changed counters/span
    /// aggregates afterwards.
    pub fn line(&mut self, snap: &ObsSnapshot, now_s: f64) -> String {
        let first = self.seq == 0;
        let aggs: BTreeMap<String, SpanAgg> = snap
            .aggregate_spans()
            .into_iter()
            .map(|a| (a.path.clone(), a))
            .collect();
        let comm = (snap.comm.total_msgs(), snap.comm.total_bytes());

        let changed_counters: Vec<(String, Content)> = snap
            .counters
            .iter()
            .filter(|(k, v)| first || self.last_counters.get(*k) != Some(v))
            .map(|(k, v)| (k.clone(), Content::U64(*v)))
            .collect();
        let changed_aggs: Vec<Content> = aggs
            .values()
            .filter(|a| first || self.last_aggs.get(&a.path) != Some(a))
            .map(Serialize::serialize_value)
            .collect();

        let mut pairs = self.base(if first { "snapshot" } else { "delta" });
        pairs.push(("now_s".into(), Content::F64(now_s)));
        if first {
            pairs.push(("nranks".into(), Content::U64(snap.nranks as u64)));
        }
        pairs.push(("counters".into(), Content::Map(changed_counters)));
        pairs.push(("spans".into(), Content::Seq(changed_aggs)));
        if first || self.last_comm != Some(comm) {
            pairs.push((
                "comm".into(),
                Content::Map(vec![
                    ("msgs".into(), Content::U64(comm.0)),
                    ("bytes".into(), Content::U64(comm.1)),
                ]),
            ));
        }

        self.last_counters = snap.counters.clone();
        self.last_aggs = aggs;
        self.last_comm = Some(comm);
        serde_json::to_string(&Content::Map(pairs)).expect("telemetry line serializes")
    }

    /// Format a heartbeat line (no payload; proves liveness).
    pub fn heartbeat(&mut self) -> String {
        let pairs = self.base("heartbeat");
        serde_json::to_string(&Content::Map(pairs)).expect("heartbeat serializes")
    }
}

/// Clonable sender half of a telemetry sink: the recorder pushes
/// rate-limited snapshots through it.
#[derive(Debug, Clone)]
pub struct TelemetryHandle {
    tx: mpsc::Sender<(ObsSnapshot, f64)>,
    interval: Duration,
}

impl TelemetryHandle {
    /// A handle whose pushes arrive on the returned receiver, for a
    /// consumer that renders the stream itself (`monet serve` logs
    /// each job's lines). The stream ends when the last clone of the
    /// handle drops. `interval` is advertised to recorders through
    /// [`TelemetryHandle::interval`] as the push rate limit.
    pub fn channel(interval: Duration) -> (Self, mpsc::Receiver<(ObsSnapshot, f64)>) {
        let (tx, rx) = mpsc::channel();
        let interval = interval.max(Duration::from_millis(1));
        (Self { tx, interval }, rx)
    }

    /// The configured emission interval (recorders use it to
    /// rate-limit pushes; the writer uses it as heartbeat cadence).
    pub fn interval(&self) -> Duration {
        self.interval
    }

    /// Push one snapshot to the writer thread. Quietly drops the
    /// snapshot if the writer is gone — telemetry must never take a
    /// run down.
    pub fn push(&self, snap: ObsSnapshot, now_s: f64) {
        let _ = self.tx.send((snap, now_s));
    }
}

/// The owning half of a telemetry stream: a writer thread that turns
/// pushed snapshots into JSONL lines and emits heartbeats while idle.
/// Dropping the last [`TelemetryHandle`] *and* calling
/// [`TelemetrySink::finish`] shuts the writer down cleanly.
#[derive(Debug)]
pub struct TelemetrySink {
    tx: Option<mpsc::Sender<(ObsSnapshot, f64)>>,
    interval: Duration,
    writer: Option<std::thread::JoinHandle<std::io::Result<()>>>,
}

impl TelemetrySink {
    /// Spawn a writer thread emitting JSONL to `out`, heartbeating
    /// every `interval`.
    pub fn to_writer(mut out: Box<dyn Write + Send>, interval: Duration) -> Self {
        let (tx, rx) = mpsc::channel::<(ObsSnapshot, f64)>();
        let interval = interval.max(Duration::from_millis(1));
        let writer = std::thread::Builder::new()
            .name("mn-telemetry".into())
            .spawn(move || -> std::io::Result<()> {
                let mut stream = TelemetryStream::new();
                loop {
                    match rx.recv_timeout(interval) {
                        Ok((snap, now_s)) => {
                            writeln!(out, "{}", stream.line(&snap, now_s))?;
                            out.flush()?;
                        }
                        Err(mpsc::RecvTimeoutError::Timeout) => {
                            // Heartbeats before the first snapshot would
                            // break the "line 0 is a full snapshot"
                            // contract; stay silent until data arrives.
                            if stream.seq() > 0 {
                                writeln!(out, "{}", stream.heartbeat())?;
                                out.flush()?;
                            }
                        }
                        Err(mpsc::RecvTimeoutError::Disconnected) => break,
                    }
                }
                out.flush()
            })
            .expect("spawn telemetry writer");
        Self {
            tx: Some(tx),
            interval,
            writer: Some(writer),
        }
    }

    /// Open `path` (`"-"` means stdout) and stream telemetry into it.
    pub fn to_path(path: &str, interval: Duration) -> std::io::Result<Self> {
        let out: Box<dyn Write + Send> = if path == "-" {
            Box::new(std::io::stdout())
        } else {
            Box::new(std::fs::File::create(path)?)
        };
        Ok(Self::to_writer(out, interval))
    }

    /// A sender half for recorders to push through.
    pub fn handle(&self) -> TelemetryHandle {
        TelemetryHandle {
            tx: self.tx.clone().expect("sink not finished"),
            interval: self.interval,
        }
    }

    /// Drop the sink's sender and join the writer thread, surfacing
    /// any I/O error it hit. Handles still held elsewhere keep the
    /// writer alive until they drop too.
    pub fn finish(mut self) -> std::io::Result<()> {
        self.tx = None;
        match self.writer.take() {
            Some(h) => h.join().unwrap_or(Ok(())),
            None => Ok(()),
        }
    }
}

impl Drop for TelemetrySink {
    fn drop(&mut self) {
        self.tx = None;
        if let Some(h) = self.writer.take() {
            let _ = h.join();
        }
    }
}

/// A slot the dying code path fills with its final [`ObsSnapshot`].
/// The launch harness holds a clone outside the unwind path, so even
/// after a rank panicked (injected kill, comm abort) its span tree up
/// to the moment of death is available for post-mortem export.
#[derive(Debug, Clone, Default)]
pub struct SnapshotStash {
    inner: Arc<Mutex<Option<ObsSnapshot>>>,
}

impl SnapshotStash {
    /// An empty stash.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fill the stash (last writer wins).
    pub fn store(&self, snap: ObsSnapshot) {
        *self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner) = Some(snap);
    }

    /// A clone of the stashed snapshot, if any.
    pub fn get(&self) -> Option<ObsSnapshot> {
        self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner).clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::Recorder;

    fn snap_with(counter_val: u64, busy: f64) -> ObsSnapshot {
        let mut rec = Recorder::new(2);
        rec.begin_phase("p", 0.0);
        rec.charge_busy(&[busy, 1.0]);
        rec.incr("x.count", counter_val);
        rec.snapshot(1.0)
    }

    #[test]
    fn first_line_is_full_then_deltas_shrink() {
        let mut stream = TelemetryStream::new();
        let l0 = stream.line(&snap_with(5, 1.0), 1.0);
        let v0: Content = serde_json::from_str(&l0).unwrap();
        assert_eq!(v0["kind"].as_str(), Some("snapshot"));
        assert_eq!(v0["seq"].as_u64(), Some(0));
        assert_eq!(
            v0["schema_version"].as_u64(),
            Some(TELEMETRY_SCHEMA_VERSION as u64)
        );
        assert_eq!(v0["nranks"].as_u64(), Some(2));
        assert_eq!(v0["counters"]["x.count"].as_u64(), Some(5));
        assert!(!v0["spans"].as_array().unwrap().is_empty());

        // Same state again: the delta carries no counters and no spans.
        let l1 = stream.line(&snap_with(5, 1.0), 2.0);
        let v1: Content = serde_json::from_str(&l1).unwrap();
        assert_eq!(v1["kind"].as_str(), Some("delta"));
        assert_eq!(v1["seq"].as_u64(), Some(1));
        assert!(v1["counters"].as_object().unwrap().is_empty());
        assert!(v1["spans"].as_array().unwrap().is_empty());

        // Changed counter: only it appears.
        let l2 = stream.line(&snap_with(9, 1.0), 3.0);
        let v2: Content = serde_json::from_str(&l2).unwrap();
        assert_eq!(v2["counters"]["x.count"].as_u64(), Some(9));

        let hb = stream.heartbeat();
        let vh: Content = serde_json::from_str(&hb).unwrap();
        assert_eq!(vh["kind"].as_str(), Some("heartbeat"));
        assert_eq!(vh["seq"].as_u64(), Some(3));
    }

    #[test]
    fn sink_writes_lines_and_heartbeats() {
        use std::sync::{Arc, Mutex};
        #[derive(Clone)]
        struct Shared(Arc<Mutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let buf = Shared(Arc::new(Mutex::new(Vec::new())));
        let sink = TelemetrySink::to_writer(Box::new(buf.clone()), Duration::from_millis(5));
        let handle = sink.handle();
        handle.push(snap_with(1, 1.0), 0.5);
        // Give the writer time to drain and then idle into heartbeats.
        std::thread::sleep(Duration::from_millis(40));
        handle.push(snap_with(2, 1.0), 1.5);
        drop(handle);
        sink.finish().unwrap();
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        let lines: Vec<Content> = text
            .lines()
            .map(|l| serde_json::from_str(l).unwrap())
            .collect();
        assert!(lines.len() >= 3, "expected snapshot+heartbeat(s)+delta: {text}");
        assert_eq!(lines[0]["kind"].as_str(), Some("snapshot"));
        assert!(lines.iter().any(|l| l["kind"].as_str() == Some("heartbeat")));
        assert_eq!(lines.last().unwrap()["kind"].as_str(), Some("delta"));
        // seq is dense and monotone across kinds.
        for (i, l) in lines.iter().enumerate() {
            assert_eq!(l["seq"].as_u64(), Some(i as u64));
        }
    }

    #[test]
    fn stash_roundtrip() {
        let stash = SnapshotStash::new();
        assert!(stash.get().is_none());
        let outside = stash.clone();
        stash.store(snap_with(3, 1.0));
        assert_eq!(outside.get().unwrap().counters.get("x.count"), Some(&3));
    }
}
