//! Job objects: lifecycle state machine, per-job event log, counters.

use mn_comm::{CancelToken, EngineSpec};
use monet::LearnerConfig;
use std::collections::BTreeMap;
use std::sync::{Condvar, Mutex};
use std::time::Duration;

fn unpoison<T>(r: Result<T, std::sync::PoisonError<T>>) -> T {
    r.unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Where a job is in its lifecycle.
///
/// ```text
/// Queued -> Running -> Done | Failed | Cancelled | Suspended
/// Suspended -> Queued (resume)      Queued/Suspended -> Cancelled
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Waiting in the tenant's FIFO for a worker.
    Queued,
    /// A worker is learning on it right now.
    Running,
    /// Stopped between engine events; checkpoints persist, resumable.
    Suspended,
    /// Terminally cancelled by the client (or server shutdown).
    Cancelled,
    /// Completed; the final network is available.
    Done,
    /// The learner failed; the error message is recorded.
    Failed,
}

impl JobState {
    /// Stable wire label.
    pub fn label(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Suspended => "suspended",
            JobState::Cancelled => "cancelled",
            JobState::Done => "done",
            JobState::Failed => "failed",
        }
    }

    /// Terminal states never transition again.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobState::Cancelled | JobState::Done | JobState::Failed
        )
    }
}

/// Cap on retained event-log lines per job. Watchers that fall more
/// than this far behind see a `dropped` count instead of old lines.
const EVENT_LOG_CAP: usize = 100_000;

struct EventLogInner {
    /// Retained lines; index of `lines[0]` in the full stream is
    /// `dropped`.
    lines: Vec<String>,
    /// Lines discarded off the front to honor [`EVENT_LOG_CAP`].
    dropped: usize,
    /// Set when the job reaches a terminal state: watchers drain and
    /// finish instead of blocking forever.
    closed: bool,
}

/// An append-only, bounded, multi-reader event log. Writers push
/// rendered JSON lines (telemetry deltas, lifecycle events); `watch`
/// connections replay from any offset and then block for more.
pub struct EventLog {
    inner: Mutex<EventLogInner>,
    cond: Condvar,
}

impl Default for EventLog {
    fn default() -> Self {
        EventLog {
            inner: Mutex::new(EventLogInner {
                lines: Vec::new(),
                dropped: 0,
                closed: false,
            }),
            cond: Condvar::new(),
        }
    }
}

impl EventLog {
    /// Append one line and wake all watchers.
    pub fn push(&self, line: String) {
        let mut inner = unpoison(self.inner.lock());
        if inner.closed {
            return;
        }
        inner.lines.push(line);
        if inner.lines.len() > EVENT_LOG_CAP {
            let excess = inner.lines.len() - EVENT_LOG_CAP;
            inner.lines.drain(..excess);
            inner.dropped += excess;
        }
        self.cond.notify_all();
    }

    /// Mark the stream finished and wake all watchers. Idempotent.
    pub fn close(&self) {
        let mut inner = unpoison(self.inner.lock());
        inner.closed = true;
        self.cond.notify_all();
    }

    /// Total lines ever pushed (including dropped ones) — the offset
    /// one past the newest line.
    pub fn len(&self) -> usize {
        let inner = unpoison(self.inner.lock());
        inner.dropped + inner.lines.len()
    }

    /// Whether nothing has ever been pushed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Fetch lines from stream offset `from`, blocking up to `wait`
    /// for news when nothing is available yet.
    ///
    /// Returns `(next_offset, lines, closed)`. If `from` has already
    /// been dropped, delivery restarts at the oldest retained line
    /// (`next_offset` accounts for the skip). `closed` is only
    /// reported once the caller has drained everything.
    pub fn read_from(&self, from: usize, wait: Duration) -> (usize, Vec<String>, bool) {
        let mut inner = unpoison(self.inner.lock());
        loop {
            let oldest = inner.dropped;
            let newest = inner.dropped + inner.lines.len();
            let start = from.max(oldest);
            if start < newest {
                let lines = inner.lines[start - oldest..].to_vec();
                return (newest, lines, false);
            }
            if inner.closed {
                return (newest, Vec::new(), true);
            }
            let (guard, timeout) = unpoison(self.cond.wait_timeout(inner, wait));
            inner = guard;
            if timeout.timed_out() {
                let newest = inner.dropped + inner.lines.len();
                return (from.max(newest.min(from)), Vec::new(), false);
            }
        }
    }
}

/// Mutable job fields, guarded by [`Job::inner`].
pub struct JobInner {
    /// Engine to run on. Mutable: an elastic `resume` may change it.
    pub engine: EngineSpec,
    /// The full learner configuration the tenant submitted.
    pub config: LearnerConfig,
    /// Lifecycle state.
    pub state: JobState,
    /// The live run's cancellation token. `None` unless Running.
    /// Tokens latch, so every (re)start installs a fresh one.
    pub cancel: Option<CancelToken>,
    /// Exact `monet::output::to_json` string of the final network.
    /// Stored verbatim so `result` is byte-identical to the batch CLI.
    pub result_json: Option<String>,
    /// Failure message, when `state == Failed`.
    pub error: Option<String>,
    /// Deterministic engine counters from the last completed run
    /// segment, merged across suspend/resume segments.
    pub counters: BTreeMap<String, u64>,
    /// Wall-clock learning seconds charged to the tenant so far.
    pub busy_s: f64,
}

/// One submitted learn job.
pub struct Job {
    /// Server-assigned id, `job-<n>`.
    pub id: String,
    /// Owning tenant (the fairness and accounting domain).
    pub tenant: String,
    /// Name of the registered dataset this job learns from.
    pub dataset: String,
    /// Mutable state; lock order is always `Sched` before `Job`.
    pub inner: Mutex<JobInner>,
    /// Streamed progress: telemetry lines and lifecycle events.
    pub events: EventLog,
}

impl Job {
    /// A fresh queued job.
    pub fn new(
        id: String,
        tenant: String,
        dataset: String,
        engine: EngineSpec,
        config: LearnerConfig,
    ) -> Job {
        Job {
            id,
            tenant,
            dataset,
            inner: Mutex::new(JobInner {
                engine,
                config,
                state: JobState::Queued,
                cancel: None,
                result_json: None,
                error: None,
                counters: BTreeMap::new(),
                busy_s: 0.0,
            }),
            events: EventLog::default(),
        }
    }

    /// Lock and read the current state.
    pub fn state(&self) -> JobState {
        unpoison(self.inner.lock()).state
    }

    /// Push a lifecycle event line (same stream as telemetry, typed
    /// `"event"` so schema-gated consumers can tell them apart).
    pub fn push_event(&self, what: &str, detail: &str) {
        use serde::Content;
        let line = serde_json::to_string(&Content::Map(vec![
            ("type".into(), Content::Str("event".into())),
            ("job".into(), Content::Str(self.id.clone())),
            ("what".into(), Content::Str(what.into())),
            ("detail".into(), Content::Str(detail.into())),
        ]))
        .expect("event line serializes");
        self.events.push(line);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn event_log_replays_blocks_and_closes() {
        let log = Arc::new(EventLog::default());
        log.push("a".into());
        log.push("b".into());

        // Replay from 0.
        let (next, lines, closed) = log.read_from(0, Duration::from_millis(1));
        assert_eq!((next, closed), (2, false));
        assert_eq!(lines, vec!["a".to_string(), "b".to_string()]);

        // Nothing new yet: timed-out wait returns empty, not closed.
        let (_, lines, closed) = log.read_from(2, Duration::from_millis(1));
        assert!(lines.is_empty() && !closed);

        // A blocked reader is woken by a concurrent push.
        let log2 = Arc::clone(&log);
        let t = std::thread::spawn(move || log2.read_from(2, Duration::from_secs(5)));
        std::thread::sleep(Duration::from_millis(20));
        log.push("c".into());
        let (next, lines, closed) = t.join().unwrap();
        assert_eq!((next, closed), (3, false));
        assert_eq!(lines, vec!["c".to_string()]);

        // Close wakes waiters and reports closed once drained.
        log.close();
        let (_, lines, closed) = log.read_from(3, Duration::from_secs(5));
        assert!(lines.is_empty() && closed);
        // Pushes after close are ignored.
        log.push("late".into());
        assert_eq!(log.len(), 3);
    }

    #[test]
    fn event_log_drops_oldest_beyond_cap_and_reports_offsets() {
        let log = EventLog::default();
        for i in 0..(EVENT_LOG_CAP + 10) {
            log.push(format!("line-{i}"));
        }
        assert_eq!(log.len(), EVENT_LOG_CAP + 10);
        // Offset 0 was dropped: delivery restarts at the oldest
        // retained line, and next_offset still counts the full stream.
        let (next, lines, _) = log.read_from(0, Duration::from_millis(1));
        assert_eq!(next, EVENT_LOG_CAP + 10);
        assert_eq!(lines.len(), EVENT_LOG_CAP);
        assert_eq!(lines[0], "line-10");
    }

    #[test]
    fn job_states_label_and_terminality() {
        assert_eq!(JobState::Queued.label(), "queued");
        assert!(!JobState::Queued.is_terminal());
        assert!(!JobState::Running.is_terminal());
        assert!(!JobState::Suspended.is_terminal());
        assert!(JobState::Cancelled.is_terminal());
        assert!(JobState::Done.is_terminal());
        assert!(JobState::Failed.is_terminal());
    }
}
