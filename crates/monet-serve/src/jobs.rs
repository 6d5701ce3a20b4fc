//! Job objects: lifecycle state machine and the per-job event log.
//!
//! A job's output lives in files beside its checkpoint directory
//! `<jobs dir>/<id>/`: the event log `<id>.events.jsonl` from the first
//! line on, and the network `<id>.network.json` once the job is done.
//! Memory keeps only what a live job needs, so the server's heap does
//! not grow with the jobs it has served.

use mn_comm::{CancelToken, EngineSpec};
use monet::LearnerConfig;
use std::fs::{File, OpenOptions};
use std::io::{self, BufRead, BufReader, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
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

/// Bytes of delivered lines after which one [`EventLog::read_from`]
/// call returns, so a watcher replaying a long log holds a bounded
/// batch in memory, not the whole file.
const READ_BATCH: usize = 64 * 1024;

struct EventLogInner {
    /// Whole lines in the file.
    lines: usize,
    /// Byte length of those lines: the file's length after the last
    /// successful push.
    bytes: u64,
    /// Set when the job reaches a terminal state: watchers drain and
    /// finish instead of blocking forever.
    closed: bool,
}

/// An append-only, multi-reader event log kept in a JSONL file.
/// Writers push rendered JSON lines (telemetry deltas, lifecycle
/// events); `watch` connections replay from any line and then block
/// for more. Memory holds only the line count, the byte length and the
/// `closed` flag.
pub struct EventLog {
    path: PathBuf,
    inner: Mutex<EventLogInner>,
    cond: Condvar,
}

/// A watcher's position in an [`EventLog`].
#[derive(Debug)]
pub struct Cursor {
    /// First line the watcher asked for.
    from: usize,
    /// Lines of the file consumed so far, skipped or delivered.
    line: usize,
    /// Byte offset in the file of line `line`.
    byte: u64,
}

impl Cursor {
    /// A cursor that delivers lines from `from` on.
    pub fn new(from: usize) -> Cursor {
        Cursor {
            from,
            line: 0,
            byte: 0,
        }
    }

    /// The line offset one past the newest line delivered (`from`
    /// while the log is shorter than that).
    pub fn offset(&self) -> usize {
        self.line.max(self.from)
    }
}

impl EventLog {
    /// An empty log that will live at `path`; the file is created by
    /// the first push.
    pub fn new(path: PathBuf) -> EventLog {
        EventLog {
            path,
            inner: Mutex::new(EventLogInner {
                lines: 0,
                bytes: 0,
                closed: false,
            }),
            cond: Condvar::new(),
        }
    }

    /// Append one line (which must not contain a newline) and wake all
    /// watchers. A failed write leaves the log as it was.
    pub fn push(&self, line: &str) -> io::Result<()> {
        if line.contains('\n') {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "an event line must not contain a newline",
            ));
        }
        let mut inner = unpoison(self.inner.lock());
        if inner.closed {
            return Ok(());
        }
        let record = format!("{line}\n");
        // The first push truncates, so a file left behind under this
        // name holds no line the count does not know of.
        let mut file = if inner.lines == 0 {
            File::create(&self.path)?
        } else {
            OpenOptions::new().append(true).open(&self.path)?
        };
        if let Err(e) = file.write_all(record.as_bytes()) {
            // A torn tail would shift every later line: cut the file
            // back to its last whole line.
            let _ = file.set_len(inner.bytes);
            return Err(e);
        }
        inner.lines += 1;
        inner.bytes += record.len() as u64;
        self.cond.notify_all();
        Ok(())
    }

    /// Mark the stream finished and wake all watchers. Idempotent.
    pub fn close(&self) {
        let mut inner = unpoison(self.inner.lock());
        inner.closed = true;
        self.cond.notify_all();
    }

    /// Lines pushed so far: the offset one past the newest line.
    pub fn len(&self) -> usize {
        unpoison(self.inner.lock()).lines
    }

    /// Whether nothing has been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Fetch the lines after `cursor` and advance it, blocking up to
    /// `wait` for news when nothing is available yet.
    ///
    /// Returns `(lines, closed)`; `lines` is empty when the wait ran
    /// out. `closed` is only reported once the cursor has drained
    /// every line, so a watcher woken by the close still receives the
    /// lines pushed before it.
    pub fn read_from(
        &self,
        cursor: &mut Cursor,
        wait: Duration,
    ) -> io::Result<(Vec<String>, bool)> {
        let (lines, bytes) = {
            let mut inner = unpoison(self.inner.lock());
            let mut waited = false;
            loop {
                if cursor.offset() < inner.lines {
                    break (inner.lines, inner.bytes);
                }
                if inner.closed {
                    return Ok((Vec::new(), true));
                }
                if waited {
                    return Ok((Vec::new(), false));
                }
                inner = unpoison(self.cond.wait_timeout(inner, wait)).0;
                waited = true;
            }
        };
        // The first `bytes` bytes are `lines` whole lines and never
        // change again, so they are read without the lock.
        let mut file = File::open(&self.path)?;
        file.seek(SeekFrom::Start(cursor.byte))?;
        let mut reader = BufReader::new(file.take(bytes - cursor.byte));
        let mut out = Vec::new();
        let mut batch = 0;
        while cursor.line < lines && batch < READ_BATCH {
            let mut line = String::new();
            let n = reader.read_line(&mut line)?;
            if line.pop() != Some('\n') {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    format!("{} is shorter than its {lines} lines", self.path.display()),
                ));
            }
            cursor.line += 1;
            cursor.byte += n as u64;
            if cursor.line > cursor.from {
                batch += n;
                out.push(line);
            }
        }
        Ok((out, false))
    }
}

/// Mutable job fields, guarded by [`Job::inner`].
pub struct JobInner {
    /// Engine to run on. Mutable: an elastic `resume` may change it.
    pub engine: EngineSpec,
    /// The full learner configuration the tenant submitted, held while
    /// the job waits to run (queued or suspended). The running worker
    /// takes it, hands it back on suspension and drops it at a
    /// terminal state.
    pub config: Option<LearnerConfig>,
    /// Lifecycle state.
    pub state: JobState,
    /// The live run's cancellation token. `None` unless Running.
    /// Tokens latch, so every (re)start installs a fresh one.
    pub cancel: Option<CancelToken>,
    /// Failure message, when `state == Failed`.
    pub error: Option<String>,
    /// Wall-clock learning seconds charged to the tenant so far.
    pub busy_s: f64,
}

impl JobInner {
    /// Enter the terminal `state`, dropping what only a live job needs.
    pub fn terminate(&mut self, state: JobState) {
        debug_assert!(state.is_terminal(), "{state:?} is not terminal");
        self.state = state;
        self.cancel = None;
        self.config = None;
    }
}

/// One submitted learn job.
pub struct Job {
    /// Server-assigned id, `job-<n>`.
    pub id: String,
    /// Owning tenant (the fairness and accounting domain).
    pub tenant: String,
    /// Name of the registered dataset this job learns from.
    pub dataset: String,
    /// Directory holding the job's checkpoint directory and files.
    dir: PathBuf,
    /// Mutable state; lock order is always `Sched` before `Job`.
    pub inner: Mutex<JobInner>,
    /// Streamed progress: telemetry lines and lifecycle events, in
    /// `<dir>/<id>.events.jsonl`.
    pub events: EventLog,
}

impl Job {
    /// A fresh queued job whose files live under `dir`.
    pub fn new(
        id: String,
        tenant: String,
        dataset: String,
        engine: EngineSpec,
        config: LearnerConfig,
        dir: &Path,
    ) -> Job {
        let events = EventLog::new(dir.join(format!("{id}.events.jsonl")));
        Job {
            id,
            tenant,
            dataset,
            dir: dir.to_path_buf(),
            inner: Mutex::new(JobInner {
                engine,
                config: Some(config),
                state: JobState::Queued,
                cancel: None,
                error: None,
                busy_s: 0.0,
            }),
            events,
        }
    }

    /// The job's checkpoint directory, `<dir>/<id>`.
    pub fn checkpoint_dir(&self) -> PathBuf {
        self.dir.join(&self.id)
    }

    /// Where a done job's network lives: the exact
    /// `monet::output::to_json` bytes, so `result` is byte-identical
    /// to the batch CLI. Beside the checkpoint directory, not in it,
    /// because a forced restart wipes every `*.json` there.
    pub fn network_path(&self) -> PathBuf {
        self.dir.join(format!("{}.network.json", self.id))
    }

    /// Lock and read the current state.
    pub fn state(&self) -> JobState {
        unpoison(self.inner.lock()).state
    }

    /// A lifecycle event line for the event log (same stream as
    /// telemetry, typed `"event"` so schema-gated consumers can tell
    /// them apart).
    pub fn event_line(&self, what: &str, detail: &str) -> String {
        use serde::Content;
        serde_json::to_string(&Content::Map(vec![
            ("type".into(), Content::Str("event".into())),
            ("job".into(), Content::Str(self.id.clone())),
            ("what".into(), Content::Str(what.into())),
            ("detail".into(), Content::Str(detail.into())),
        ]))
        .expect("event line serializes")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    fn log_in(tag: &str) -> EventLog {
        let dir = std::env::temp_dir().join(format!("mnjobs_{}_{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        EventLog::new(dir.join("job-0.events.jsonl"))
    }

    #[test]
    fn event_log_replays_blocks_and_closes() {
        let log = Arc::new(log_in("replay"));
        log.push("a").unwrap();
        log.push("b").unwrap();
        assert_eq!(std::fs::read_to_string(&log.path).unwrap(), "a\nb\n");

        // Replay from 0.
        let mut cursor = Cursor::new(0);
        let (lines, closed) = log
            .read_from(&mut cursor, Duration::from_millis(1))
            .unwrap();
        assert_eq!((cursor.offset(), closed), (2, false));
        assert_eq!(lines, ["a", "b"]);

        // Nothing new yet: timed-out wait returns empty, not closed.
        let (lines, closed) = log
            .read_from(&mut cursor, Duration::from_millis(1))
            .unwrap();
        assert!(lines.is_empty() && !closed);

        // A blocked reader is woken by a concurrent push.
        let log2 = Arc::clone(&log);
        let t = std::thread::spawn(move || {
            log2.read_from(&mut cursor, Duration::from_secs(5))
                .map(|read| (read, cursor))
        });
        std::thread::sleep(Duration::from_millis(20));
        log.push("c").unwrap();
        let ((lines, closed), mut cursor) = t.join().unwrap().unwrap();
        assert_eq!((cursor.offset(), closed), (3, false));
        assert_eq!(lines, ["c"]);

        // A last push and the close land together: the watcher gets
        // the line first, and `closed` only once it has drained.
        log.push("done").unwrap();
        log.close();
        let (lines, closed) = log.read_from(&mut cursor, Duration::from_secs(5)).unwrap();
        assert_eq!((lines, closed), (vec!["done".to_string()], false));
        let (lines, closed) = log.read_from(&mut cursor, Duration::from_secs(5)).unwrap();
        assert!(lines.is_empty() && closed);
        // Pushes after close are ignored.
        log.push("late").unwrap();
        assert_eq!(log.len(), 4);

        // Replay from a middle line, and from past the end.
        let mut cursor = Cursor::new(2);
        let (lines, _) = log
            .read_from(&mut cursor, Duration::from_millis(1))
            .unwrap();
        assert_eq!(lines, ["c", "done"]);
        let mut cursor = Cursor::new(9);
        let (lines, closed) = log
            .read_from(&mut cursor, Duration::from_millis(1))
            .unwrap();
        assert!(lines.is_empty() && closed);
        assert_eq!(cursor.offset(), 9);
    }

    #[test]
    fn event_log_refuses_embedded_newlines_and_starts_a_stale_file_afresh() {
        let log = log_in("stale");
        std::fs::write(&log.path, "left over\n").unwrap();
        assert!(log.push("two\nlines").is_err());
        assert_eq!(log.len(), 0);
        log.push("first").unwrap();
        assert_eq!(std::fs::read_to_string(&log.path).unwrap(), "first\n");
    }

    #[test]
    fn long_replays_come_back_in_bounded_batches() {
        let log = log_in("batches");
        let line = "x".repeat(1000);
        for _ in 0..200 {
            log.push(&line).unwrap();
        }
        log.close();
        let mut cursor = Cursor::new(0);
        let mut sizes = Vec::new();
        loop {
            let (lines, closed) = log
                .read_from(&mut cursor, Duration::from_millis(1))
                .unwrap();
            if closed {
                break;
            }
            assert!(lines.iter().all(|l| *l == line));
            sizes.push(lines.len());
        }
        assert_eq!(sizes.iter().sum::<usize>(), 200);
        assert!(sizes.len() > 1, "one batch held the whole log: {sizes:?}");
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
