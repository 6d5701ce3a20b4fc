//! The server: accept loop, fair scheduler, worker pool, job runner.

use crate::error::ServeError;
use crate::jobs::{Cursor, Job, JobState};
use crate::proto::{self, DataSpec, Request};
use mn_comm::msg::proc::{ProcAddr, ProcListener, ProcStream};
use mn_comm::{
    CancelKind, CancelToken, EngineSpec, JobCancelled, ParEngine, SerialEngine, SimEngine,
    ThreadEngine,
};
use mn_data::Dataset;
use mn_obs::{TelemetryHandle, TelemetryStream};
use monet::checkpoint::write_atomic;
use monet::{CheckpointError, LearnerConfig, ResumePolicy};
use serde::Content;
use std::collections::{BTreeMap, VecDeque};
use std::io::{self, BufReader, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

fn unpoison<T>(r: Result<T, std::sync::PoisonError<T>>) -> T {
    r.unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Server configuration (the `monet serve` flags).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address, `unix:<path>` or `tcp:<host:port>`.
    pub addr: ProcAddr,
    /// Worker pool size: jobs learning concurrently.
    pub workers: usize,
    /// Admission limit: queued (not yet running) jobs across all
    /// tenants; submissions beyond it get a typed backpressure error.
    pub max_queue: usize,
    /// Root for persistent state. Each job checkpoints under
    /// `<state_dir>/jobs/<job-id>/` and keeps its event log
    /// (`<job-id>.events.jsonl`) and network (`<job-id>.network.json`)
    /// beside that directory.
    pub state_dir: PathBuf,
    /// Telemetry emission interval for running jobs.
    pub telemetry_interval: Duration,
}

impl ServeConfig {
    /// Defaults for everything but the address and state dir.
    pub fn new(addr: ProcAddr, state_dir: PathBuf) -> ServeConfig {
        ServeConfig {
            addr,
            workers: 2,
            max_queue: 64,
            state_dir,
            telemetry_interval: Duration::from_millis(50),
        }
    }
}

/// Per-tenant accounting totals.
#[derive(Debug, Default, Clone)]
pub struct TenantAccount {
    /// Jobs ever admitted.
    pub submitted: u64,
    /// Jobs that reached `Done`.
    pub completed: u64,
    /// Jobs that reached `Cancelled`.
    pub cancelled: u64,
    /// Suspensions that took effect (a job may suspend repeatedly).
    pub suspended: u64,
    /// Jobs that reached `Failed`.
    pub failed: u64,
    /// Learning seconds charged (completed segments).
    pub busy_s: f64,
    /// Deterministic engine counters summed over completed jobs.
    pub counters: BTreeMap<String, u64>,
}

/// Scheduler state: one mutex, locked briefly; never held while
/// learning or doing I/O. Lock order is `Sched` before `Job::inner`.
struct Sched {
    /// Registered datasets by `(tenant, name)`.
    datasets: BTreeMap<(String, String), Arc<Dataset>>,
    /// All jobs ever admitted, by id.
    jobs: BTreeMap<String, Arc<Job>>,
    /// Job ids in admission order (for listing).
    order: Vec<String>,
    /// Queued job ids, FIFO per tenant.
    queues: BTreeMap<String, VecDeque<String>>,
    /// Tenant served last — fairness resumes strictly after it.
    rr_last: Option<String>,
    /// Total queued jobs (the backpressure measure).
    queued_total: usize,
    /// Next job id suffix.
    next_job: u64,
    /// Accounting per tenant.
    accounts: BTreeMap<String, TenantAccount>,
}

impl Sched {
    /// Pop the next job fairly: round-robin over tenants in sorted
    /// cyclic order starting strictly after the last-served tenant,
    /// FIFO within each tenant. One tenant with a deep queue cannot
    /// starve the others.
    fn pop_fair(&mut self) -> Option<Arc<Job>> {
        let tenants: Vec<String> = self.queues.keys().cloned().collect();
        if tenants.is_empty() {
            return None;
        }
        let start = match &self.rr_last {
            Some(last) => tenants.iter().position(|t| t > last).unwrap_or(0),
            None => 0,
        };
        for i in 0..tenants.len() {
            let tenant = &tenants[(start + i) % tenants.len()];
            if let Some(id) = self.queues.get_mut(tenant).and_then(VecDeque::pop_front) {
                self.rr_last = Some(tenant.clone());
                self.queued_total -= 1;
                self.queues.retain(|_, q| !q.is_empty());
                return self.jobs.get(&id).cloned();
            }
        }
        None
    }

    fn enqueue(&mut self, tenant: &str, id: String) {
        self.queues
            .entry(tenant.to_string())
            .or_default()
            .push_back(id);
        self.queued_total += 1;
    }

    /// Remove a queued job id; true if it was actually queued.
    fn dequeue(&mut self, tenant: &str, id: &str) -> bool {
        let Some(q) = self.queues.get_mut(tenant) else {
            return false;
        };
        let Some(pos) = q.iter().position(|j| j == id) else {
            return false;
        };
        q.remove(pos);
        self.queued_total -= 1;
        self.queues.retain(|_, queue| !queue.is_empty());
        true
    }

    fn account(&mut self, tenant: &str) -> &mut TenantAccount {
        self.accounts.entry(tenant.to_string()).or_default()
    }
}

/// State shared by the accept loop, connection threads, and workers.
struct Shared {
    cfg: ServeConfig,
    /// `<state_dir>/jobs`, where every job keeps its files.
    jobs_dir: PathBuf,
    sched: Mutex<Sched>,
    work_ready: Condvar,
    shutdown: AtomicBool,
}

impl Shared {
    fn sched(&self) -> MutexGuard<'_, Sched> {
        unpoison(self.sched.lock())
    }
}

/// One past the highest `n` of any `job-<n>` entry (checkpoint
/// directory or job file) in `jobs_dir`. A restarted server numbers
/// its jobs from here, so a new job never opens an old job's
/// checkpoint or overwrites its files.
fn next_job_number(jobs_dir: &Path) -> io::Result<u64> {
    let mut next = 0;
    for entry in std::fs::read_dir(jobs_dir)? {
        let name = entry?.file_name();
        let Some(rest) = name.to_str().and_then(|n| n.strip_prefix("job-")) else {
            continue;
        };
        let digits = rest.split(|c: char| !c.is_ascii_digit()).next();
        if let Some(n) = digits.and_then(|d| d.parse::<u64>().ok()) {
            next = next.max(n.saturating_add(1));
        }
    }
    Ok(next)
}

/// A bound, not-yet-running server. Split from [`Server::run`] so the
/// caller can learn the resolved address (ephemeral TCP ports) before
/// blocking.
pub struct Server {
    listener: ProcListener,
    shared: Arc<Shared>,
}

impl Server {
    /// Bind the listener and initialize empty state.
    pub fn bind(cfg: ServeConfig) -> io::Result<Server> {
        // Engine-event unwinds (fault drills, cancellation) are normal
        // control flow here; keep them off stderr.
        mn_comm::silence_injected_panics();
        let jobs_dir = cfg.state_dir.join("jobs");
        std::fs::create_dir_all(&jobs_dir)?;
        let next_job = next_job_number(&jobs_dir)?;
        let listener = ProcListener::bind(&cfg.addr)?;
        // Record the *resolved* address (tcp:host:0 gets a real port)
        // so shutdown's self-connect wake-up can reach the listener.
        let mut cfg = cfg;
        cfg.addr = listener.addr().clone();
        let shared = Arc::new(Shared {
            cfg,
            jobs_dir,
            sched: Mutex::new(Sched {
                datasets: BTreeMap::new(),
                jobs: BTreeMap::new(),
                order: Vec::new(),
                queues: BTreeMap::new(),
                rr_last: None,
                queued_total: 0,
                next_job,
                accounts: BTreeMap::new(),
            }),
            work_ready: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        Ok(Server { listener, shared })
    }

    /// The resolved listen address (differs from the configured one
    /// for `tcp:host:0`).
    pub fn local_addr(&self) -> &ProcAddr {
        self.listener.addr()
    }

    /// Serve until a `shutdown` request: spawns the worker pool, then
    /// accepts connections (one thread each). Returns after all queued
    /// and running jobs have reached a terminal state.
    pub fn run(self) -> io::Result<()> {
        let workers: Vec<_> = (0..self.shared.cfg.workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&self.shared);
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker")
            })
            .collect();

        loop {
            let stream = match self.listener.accept() {
                Ok(s) => s,
                Err(_) if self.shared.shutdown.load(Ordering::SeqCst) => break,
                Err(e) => {
                    if self.shared.shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    return Err(e);
                }
            };
            if self.shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let shared = Arc::clone(&self.shared);
            let _ = std::thread::Builder::new()
                .name("serve-conn".into())
                .spawn(move || {
                    let _ = serve_connection(&shared, stream);
                });
        }

        for w in workers {
            let _ = w.join();
        }
        Ok(())
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut sched = shared.sched();
            loop {
                if let Some(job) = sched.pop_fair() {
                    break Some(job);
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    break None;
                }
                // Timed wait: robust against a missed notify.
                let (guard, _) = unpoison(
                    shared
                        .work_ready
                        .wait_timeout(sched, Duration::from_millis(200)),
                );
                sched = guard;
            }
        };
        match job {
            Some(job) => run_job(shared, &job),
            None => return,
        }
    }
}

/// The outcome a learn segment hands back through `catch_unwind`: the
/// network's `to_json` bytes, busy seconds and the engine counters.
type SegmentOk = (String, f64, BTreeMap<String, u64>);

fn run_learn_on<E: ParEngine>(
    mut engine: E,
    token: CancelToken,
    telemetry: TelemetryHandle,
    data: &Dataset,
    config: &LearnerConfig,
    dir: &std::path::Path,
) -> Result<SegmentOk, CheckpointError> {
    engine.set_cancel_token(token);
    engine.obs_mut().set_telemetry(telemetry);
    let (network, report) =
        monet::learn_with_checkpoint_policy(&mut engine, data, config, dir, ResumePolicy::Auto)?;
    let counters = engine.obs().counters().clone();
    Ok((monet::to_json(&network), report.total_s(), counters))
}

fn run_segment(
    engine: EngineSpec,
    token: CancelToken,
    telemetry: TelemetryHandle,
    data: &Dataset,
    config: &LearnerConfig,
    dir: &std::path::Path,
) -> Result<SegmentOk, CheckpointError> {
    match engine {
        EngineSpec::Serial => run_learn_on(SerialEngine::new(), token, telemetry, data, config, dir),
        EngineSpec::Threads(p) => {
            run_learn_on(ThreadEngine::new(p), token, telemetry, data, config, dir)
        }
        EngineSpec::Sim(p) => run_learn_on(SimEngine::new(p), token, telemetry, data, config, dir),
        // Rejected at request parse; unreachable by construction.
        EngineSpec::Msg(_) | EngineSpec::Proc(_) => Err(CheckpointError::Io(io::Error::new(
            io::ErrorKind::Unsupported,
            "msg/proc engines are not serveable",
        ))),
    }
}

/// Append `line` to the log of a job whose state has already changed.
/// The change stands whether or not the line is written (`status`
/// reports it either way), so a log that cannot be appended to (disk
/// full, state dir removed) is reported on stderr, not raised.
fn log_line(job: &Job, line: &str) {
    if let Err(e) = job.events.push(line) {
        eprintln!("monet serve: {}: event log: {e}", job.id);
    }
}

/// [`log_line`] for a lifecycle event. A transition to `done`,
/// `failed`, `cancelled` or `suspended` appends its event under the
/// scheduler and job locks, before it changes the job's state: a
/// client that reads the new state finds the event on disk, and a
/// request sent on seeing the event waits for the new state. A
/// terminal transition closes the log only after, so a watcher's final
/// line reports that state.
fn log_event(job: &Job, what: &str, detail: &str) {
    log_line(job, &job.event_line(what, detail));
}

/// Run one job segment to its outcome. Called by a worker with no
/// locks held.
fn run_job(shared: &Shared, job: &Arc<Job>) {
    // Claim the job; a cancel that raced the queue pop wins here.
    let (engine, config, token) = {
        let mut inner = unpoison(job.inner.lock());
        if inner.state != JobState::Queued {
            return;
        }
        inner.state = JobState::Running;
        let token = CancelToken::new(); // tokens latch: fresh per segment
        inner.cancel = Some(token.clone());
        let config = inner.config.take().expect("a queued job holds its config");
        (inner.engine, config, token)
    };
    let data = {
        let sched = shared.sched();
        sched
            .datasets
            .get(&(job.tenant.clone(), job.dataset.clone()))
            .cloned()
    };
    let Some(data) = data else {
        finish_failed(shared, job, "dataset vanished (server bug)".into());
        return;
    };
    log_event(job, "running", &engine.to_string());

    // Telemetry: the engine pushes snapshots into a channel; a pump
    // thread renders them as versioned JSONL into the job's event log,
    // where any number of `watch` connections replay them.
    let (handle, rx) = TelemetryHandle::channel(shared.cfg.telemetry_interval);
    let pump_job = Arc::clone(job);
    let pump = std::thread::Builder::new()
        .name("serve-telemetry".into())
        .spawn(move || {
            let mut stream = TelemetryStream::new();
            while let Ok((snap, now_s)) = rx.recv() {
                log_line(&pump_job, &stream.line(&snap, now_s));
            }
        })
        .expect("spawn telemetry pump");

    let dir = job.checkpoint_dir();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        run_segment(engine, token, handle, &data, &config, &dir)
    }));

    // The engine (and its cloned handles) died with the closure, which
    // disconnects the channel and ends the pump.
    let _ = pump.join();

    match outcome {
        Ok(Ok((network_json, busy_s, counters))) => {
            // The bytes are on disk before the job reads done, so
            // `result` never finds a done job without its network.
            let path = job.network_path();
            if let Err(e) = write_atomic(&path, network_json.as_bytes()) {
                finish_failed(shared, job, format!("writing {}: {e}", path.display()));
                return;
            }
            let mut sched = shared.sched();
            let mut inner = unpoison(job.inner.lock());
            log_event(job, "done", "network ready");
            inner.terminate(JobState::Done);
            inner.busy_s += busy_s;
            drop(inner);
            let account = sched.account(&job.tenant);
            account.completed += 1;
            account.busy_s += busy_s;
            // Resumed segments replay restored counter deltas, so the
            // final segment's counters are the full-run counters.
            for (k, v) in counters {
                *account.counters.entry(k).or_insert(0) += v;
            }
            drop(sched);
            job.events.close();
        }
        Ok(Err(err)) => finish_failed(shared, job, err.to_string()),
        Err(payload) => match payload.downcast::<JobCancelled>() {
            Ok(cancelled) => {
                let mut sched = shared.sched();
                let mut inner = unpoison(job.inner.lock());
                let detail = format!("at event {}", cancelled.event);
                match cancelled.kind {
                    CancelKind::Cancel => {
                        log_event(job, "cancelled", &detail);
                        inner.terminate(JobState::Cancelled);
                        sched.account(&job.tenant).cancelled += 1;
                        drop(inner);
                        drop(sched);
                        job.events.close();
                    }
                    CancelKind::Suspend => {
                        log_event(job, "suspended", &detail);
                        inner.state = JobState::Suspended;
                        inner.cancel = None;
                        inner.config = Some(config);
                        sched.account(&job.tenant).suspended += 1;
                        // Not terminal: the log stays open for resume.
                    }
                }
            }
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_else(|| "learner panicked".into());
                finish_failed(shared, job, msg);
            }
        },
    }
}

fn finish_failed(shared: &Shared, job: &Arc<Job>, msg: String) {
    let mut sched = shared.sched();
    let mut inner = unpoison(job.inner.lock());
    log_event(job, "failed", &msg);
    inner.terminate(JobState::Failed);
    inner.error = Some(msg);
    sched.account(&job.tenant).failed += 1;
    drop(inner);
    drop(sched);
    job.events.close();
}

// ---------------------------------------------------------------------
// Connection handling
// ---------------------------------------------------------------------

fn write_line(stream: &mut ProcStream, line: &str) -> io::Result<()> {
    stream.write_all(line.as_bytes())?;
    stream.write_all(b"\n")?;
    stream.flush()
}

/// Serve one client connection: a request line in, a response line out
/// (plus streamed event lines for `watch`), until clean EOF. A client
/// that dies mid-line or floods past [`proto::MAX_LINE`] just loses
/// its connection; server state is untouched.
fn serve_connection(shared: &Arc<Shared>, stream: ProcStream) -> io::Result<()> {
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    loop {
        let line = match proto::read_line_bounded(&mut reader) {
            Ok(Some(line)) => line,
            Ok(None) => return Ok(()), // clean close
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                // Oversized or non-UTF-8 line: a typed refusal, then
                // hang up (the line boundary is lost).
                let _ = write_line(
                    &mut writer,
                    &proto::err_line(&ServeError::BadRequest(e.to_string())),
                );
                return Ok(());
            }
            // Mid-line death (kill-client case) or transport error.
            Err(e) => return Err(e),
        };
        if line.trim().is_empty() {
            continue;
        }
        let request = serde_json::from_str::<Content>(&line)
            .map_err(|e| ServeError::BadRequest(format!("invalid JSON: {e}")))
            .and_then(|value| Request::parse(&value));
        let request = match request {
            Ok(req) => req,
            Err(err) => {
                write_line(&mut writer, &proto::err_line(&err))?;
                continue;
            }
        };
        if let Request::Watch { job, from } = request {
            match watch(shared, &mut writer, &job, from) {
                Ok(()) => continue,
                Err(WatchAbort::Refused(err)) => {
                    write_line(&mut writer, &proto::err_line(&err))?;
                    continue;
                }
                Err(WatchAbort::Io(e)) => return Err(e), // watcher gone
            }
        }
        let shutdown = matches!(request, Request::Shutdown);
        let response = match handle(shared, request) {
            Ok(fields) => proto::ok_line(fields),
            Err(err) => proto::err_line(&err),
        };
        write_line(&mut writer, &response)?;
        if shutdown {
            initiate_shutdown(shared);
            return Ok(());
        }
    }
}

enum WatchAbort {
    Refused(ServeError),
    Io(io::Error),
}

/// Stream a job's event log from `from`: replayed history, then live
/// lines, then one final `{"ok":true,"done":true,...}` once the job is
/// terminal and the log is drained.
fn watch(
    shared: &Shared,
    writer: &mut ProcStream,
    job_id: &str,
    from: usize,
) -> Result<(), WatchAbort> {
    let job = shared
        .sched()
        .jobs
        .get(job_id)
        .cloned()
        .ok_or_else(|| WatchAbort::Refused(ServeError::UnknownJob(job_id.to_string())))?;
    let mut cursor = Cursor::new(from);
    loop {
        let (lines, closed) = job
            .events
            .read_from(&mut cursor, Duration::from_millis(200))
            .map_err(|e| {
                WatchAbort::Refused(ServeError::Internal(format!(
                    "reading the event log of {}: {e}",
                    job.id
                )))
            })?;
        for line in &lines {
            write_line(writer, line).map_err(WatchAbort::Io)?;
        }
        if closed {
            let done = proto::ok_line(vec![
                ("done".into(), Content::Bool(true)),
                ("job".into(), Content::Str(job.id.clone())),
                ("state".into(), Content::Str(job.state().label().into())),
                ("events".into(), Content::U64(cursor.offset() as u64)),
            ]);
            return write_line(writer, &done).map_err(WatchAbort::Io);
        }
    }
}

type Fields = Vec<(String, Content)>;

fn job_summary(job: &Job) -> Content {
    let inner = unpoison(job.inner.lock());
    Content::Map(vec![
        ("job".into(), Content::Str(job.id.clone())),
        ("tenant".into(), Content::Str(job.tenant.clone())),
        ("dataset".into(), Content::Str(job.dataset.clone())),
        ("engine".into(), Content::Str(inner.engine.to_string())),
        ("state".into(), Content::Str(inner.state.label().into())),
    ])
}

fn lookup_job(shared: &Shared, id: &str) -> Result<Arc<Job>, ServeError> {
    shared
        .sched()
        .jobs
        .get(id)
        .cloned()
        .ok_or_else(|| ServeError::UnknownJob(id.to_string()))
}

/// Execute one non-streaming request; returns the extra `ok_line`
/// fields.
fn handle(shared: &Arc<Shared>, request: Request) -> Result<Fields, ServeError> {
    match request {
        Request::Ping => Ok(vec![("pong".into(), Content::Bool(true))]),

        Request::Register {
            tenant,
            dataset,
            data,
        } => {
            let materialized = match data {
                DataSpec::Synthetic { n, m, seed } => {
                    mn_data::synthetic::check_shape(n, m).map_err(ServeError::BadRequest)?;
                    mn_data::synthetic::yeast_like(n, m, seed).dataset
                }
                DataSpec::TsvPath(path) => mn_data::read_tsv_file(&path)
                    .map_err(|e| ServeError::BadRequest(format!("reading {path}: {e}")))?,
            };
            let (n_vars, n_obs) = (materialized.n_vars(), materialized.n_obs());
            let mut sched = shared.sched();
            sched
                .datasets
                .insert((tenant.clone(), dataset.clone()), Arc::new(materialized));
            Ok(vec![
                ("dataset".into(), Content::Str(dataset)),
                ("n_vars".into(), Content::U64(n_vars as u64)),
                ("n_obs".into(), Content::U64(n_obs as u64)),
            ])
        }

        Request::Submit {
            tenant,
            dataset,
            engine,
            config,
        } => {
            if shared.shutdown.load(Ordering::SeqCst) {
                return Err(ServeError::ShuttingDown);
            }
            let mut sched = shared.sched();
            let Some(data) = sched.datasets.get(&(tenant.clone(), dataset.clone())) else {
                return Err(ServeError::UnknownDataset(format!("{tenant}/{dataset}")));
            };
            // The dataset is known here, so a candidate parent past its
            // last variable is refused now rather than failing the job
            // after GaneSH and consensus have run.
            let n_vars = data.n_vars();
            if let Some(v) = config.candidate_parents.iter().flatten().find(|&&v| v >= n_vars) {
                return Err(ServeError::BadRequest(format!(
                    "candidate parent {v} out of range for {n_vars} variables"
                )));
            }
            if sched.queued_total >= shared.cfg.max_queue {
                return Err(ServeError::Backpressure {
                    queued: sched.queued_total,
                    limit: shared.cfg.max_queue,
                });
            }
            let id = format!("job-{}", sched.next_job);
            sched.next_job += 1;
            let job = Arc::new(Job::new(
                id.clone(),
                tenant.clone(),
                dataset,
                engine,
                *config,
                &shared.jobs_dir,
            ));
            // Acknowledge only a job whose log exists.
            job.events
                .push(&job.event_line("queued", &engine.to_string()))
                .map_err(|e| ServeError::Internal(format!("event log of {id}: {e}")))?;
            sched.jobs.insert(id.clone(), Arc::clone(&job));
            sched.order.push(id.clone());
            sched.enqueue(&tenant, id.clone());
            sched.account(&tenant).submitted += 1;
            drop(sched);
            shared.work_ready.notify_all();
            Ok(vec![
                ("job".into(), Content::Str(id)),
                ("state".into(), Content::Str("queued".into())),
            ])
        }

        Request::Status { job } => {
            let job = lookup_job(shared, &job)?;
            let inner = unpoison(job.inner.lock());
            let mut fields = vec![
                ("job".into(), Content::Str(job.id.clone())),
                ("tenant".into(), Content::Str(job.tenant.clone())),
                ("dataset".into(), Content::Str(job.dataset.clone())),
                ("engine".into(), Content::Str(inner.engine.to_string())),
                ("state".into(), Content::Str(inner.state.label().into())),
                ("busy_s".into(), Content::F64(inner.busy_s)),
                ("events".into(), Content::U64(job.events.len() as u64)),
            ];
            if let Some(err) = &inner.error {
                fields.push(("error".into(), Content::Str(err.clone())));
            }
            Ok(fields)
        }

        Request::ResultOf { job } => {
            let job = lookup_job(shared, &job)?;
            let busy_s = {
                let inner = unpoison(job.inner.lock());
                match inner.state {
                    JobState::Done => inner.busy_s,
                    JobState::Failed => {
                        return Err(ServeError::Conflict(format!(
                            "job {} failed: {}",
                            job.id,
                            inner.error.as_deref().unwrap_or("unknown error")
                        )))
                    }
                    state => {
                        return Err(ServeError::Conflict(format!(
                            "job {} is {}, not done",
                            job.id,
                            state.label()
                        )))
                    }
                }
            };
            // Written before the job turned done and never again.
            let json = std::fs::read_to_string(job.network_path()).map_err(|e| {
                ServeError::Internal(format!("reading the network of {}: {e}", job.id))
            })?;
            Ok(vec![
                ("job".into(), Content::Str(job.id.clone())),
                // The exact `to_json` bytes, carried as a JSON string so
                // no float ever round-trips through the protocol's
                // number representation.
                ("network_json".into(), Content::Str(json)),
                ("busy_s".into(), Content::F64(busy_s)),
            ])
        }

        Request::Cancel { job } => {
            let job = lookup_job(shared, &job)?;
            let mut sched = shared.sched();
            let mut inner = unpoison(job.inner.lock());
            let state = match inner.state {
                JobState::Queued | JobState::Suspended => {
                    if inner.state == JobState::Queued {
                        sched.dequeue(&job.tenant, &job.id);
                    }
                    log_event(&job, "cancelled", "before running");
                    inner.terminate(JobState::Cancelled);
                    sched.account(&job.tenant).cancelled += 1;
                    drop(inner);
                    drop(sched);
                    job.events.close();
                    JobState::Cancelled
                }
                JobState::Running => {
                    // Cooperative: the engine unwinds at its next
                    // event; the worker records the terminal state.
                    if let Some(token) = &inner.cancel {
                        token.cancel();
                    }
                    JobState::Running
                }
                terminal => {
                    return Err(ServeError::Conflict(format!(
                        "job {} is already {}",
                        job.id,
                        terminal.label()
                    )))
                }
            };
            Ok(vec![
                ("job".into(), Content::Str(job.id.clone())),
                ("state".into(), Content::Str(state.label().into())),
            ])
        }

        Request::Suspend { job } => {
            let job = lookup_job(shared, &job)?;
            let mut sched = shared.sched();
            let mut inner = unpoison(job.inner.lock());
            let state = match inner.state {
                JobState::Queued => {
                    sched.dequeue(&job.tenant, &job.id);
                    log_event(&job, "suspended", "before running");
                    inner.state = JobState::Suspended;
                    sched.account(&job.tenant).suspended += 1;
                    JobState::Suspended
                }
                JobState::Running => {
                    if let Some(token) = &inner.cancel {
                        token.suspend();
                    }
                    JobState::Running
                }
                other => {
                    return Err(ServeError::Conflict(format!(
                        "cannot suspend job {} in state {}",
                        job.id,
                        other.label()
                    )))
                }
            };
            Ok(vec![
                ("job".into(), Content::Str(job.id.clone())),
                ("state".into(), Content::Str(state.label().into())),
            ])
        }

        Request::Resume { job, engine } => {
            if shared.shutdown.load(Ordering::SeqCst) {
                return Err(ServeError::ShuttingDown);
            }
            let job = lookup_job(shared, &job)?;
            let mut sched = shared.sched();
            let mut inner = unpoison(job.inner.lock());
            if inner.state != JobState::Suspended {
                return Err(ServeError::Conflict(format!(
                    "cannot resume job {} in state {}",
                    job.id,
                    inner.state.label()
                )));
            }
            if sched.queued_total >= shared.cfg.max_queue {
                return Err(ServeError::Backpressure {
                    queued: sched.queued_total,
                    limit: shared.cfg.max_queue,
                });
            }
            // Elastic resume: a different engine (even a different
            // rank count) continues from the same checkpoint — the
            // manifest records nranks as provenance only.
            if let Some(engine) = engine {
                inner.engine = engine;
            }
            let engine = inner.engine;
            inner.state = JobState::Queued;
            drop(inner);
            // Logged before a worker can pop the job and log `running`.
            log_event(&job, "resumed", &engine.to_string());
            sched.enqueue(&job.tenant, job.id.clone());
            drop(sched);
            shared.work_ready.notify_all();
            Ok(vec![
                ("job".into(), Content::Str(job.id.clone())),
                ("state".into(), Content::Str("queued".into())),
                ("engine".into(), Content::Str(engine.to_string())),
            ])
        }

        Request::Accounting { tenant } => {
            let sched = shared.sched();
            let tenants: Vec<(String, Content)> = sched
                .accounts
                .iter()
                .filter(|(name, _)| tenant.as_deref().is_none_or(|t| t == name.as_str()))
                .map(|(name, acct)| {
                    let counters: Vec<(String, Content)> = acct
                        .counters
                        .iter()
                        .map(|(k, v)| (k.clone(), Content::U64(*v)))
                        .collect();
                    (
                        name.clone(),
                        Content::Map(vec![
                            ("submitted".into(), Content::U64(acct.submitted)),
                            ("completed".into(), Content::U64(acct.completed)),
                            ("cancelled".into(), Content::U64(acct.cancelled)),
                            ("suspended".into(), Content::U64(acct.suspended)),
                            ("failed".into(), Content::U64(acct.failed)),
                            ("busy_s".into(), Content::F64(acct.busy_s)),
                            ("counters".into(), Content::Map(counters)),
                        ]),
                    )
                })
                .collect();
            Ok(vec![("tenants".into(), Content::Map(tenants))])
        }

        Request::Jobs { tenant } => {
            let sched = shared.sched();
            let jobs: Vec<Content> = sched
                .order
                .iter()
                .filter_map(|id| sched.jobs.get(id))
                .filter(|job| tenant.as_deref().is_none_or(|t| t == job.tenant))
                .map(|job| job_summary(job))
                .collect();
            Ok(vec![("jobs".into(), Content::Seq(jobs))])
        }

        Request::Shutdown => Ok(vec![("stopping".into(), Content::Bool(true))]),

        Request::Watch { .. } => unreachable!("watch is handled by the streaming path"),
    }
}

/// Flip the shutdown flag, cancel everything, wake all threads, and
/// unblock the accept loop.
fn initiate_shutdown(shared: &Arc<Shared>) {
    shared.shutdown.store(true, Ordering::SeqCst);
    let mut sched = shared.sched();
    // Cancel queued jobs outright...
    let queued: Vec<String> = sched.queues.values().flatten().cloned().collect();
    sched.queues.clear();
    sched.queued_total = 0;
    for id in queued {
        if let Some(job) = sched.jobs.get(&id).cloned() {
            log_event(&job, "cancelled", "server shutdown");
            unpoison(job.inner.lock()).terminate(JobState::Cancelled);
            sched.account(&job.tenant).cancelled += 1;
            job.events.close();
        }
    }
    // ...and ask running jobs to unwind at their next engine event.
    let running: Vec<Arc<Job>> = sched.jobs.values().cloned().collect();
    for job in running {
        let inner = unpoison(job.inner.lock());
        if let (JobState::Running, Some(token)) = (inner.state, &inner.cancel) {
            token.cancel();
        }
    }
    drop(sched);
    shared.work_ready.notify_all();
    // Self-connect to pop the blocking accept() so the loop observes
    // the flag.
    let addr = shared.cfg.addr.clone();
    let _ = mn_comm::msg::proc::connect(&addr, Duration::from_millis(500));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sched() -> Sched {
        Sched {
            datasets: BTreeMap::new(),
            jobs: BTreeMap::new(),
            order: Vec::new(),
            queues: BTreeMap::new(),
            rr_last: None,
            queued_total: 0,
            next_job: 0,
            accounts: BTreeMap::new(),
        }
    }

    fn queued_job(id: &str, tenant: &str) -> Arc<Job> {
        Arc::new(Job::new(
            id.to_string(),
            tenant.to_string(),
            "d".to_string(),
            EngineSpec::Serial,
            monet::LearnerConfig::paper_minimum(1),
            &std::env::temp_dir(),
        ))
    }

    #[test]
    fn pop_fair_round_robins_across_tenants() {
        let mut s = sched();
        // Tenant a floods five jobs before tenant b's one arrives.
        for i in 0..5 {
            let id = format!("a{i}");
            s.jobs.insert(id.clone(), queued_job(&id, "a"));
            s.enqueue("a", id);
        }
        s.jobs.insert("b0".into(), queued_job("b0", "b"));
        s.enqueue("b", "b0".into());

        let order: Vec<String> = std::iter::from_fn(|| s.pop_fair().map(|j| j.id.clone()))
            .collect();
        // b0 is served second, not sixth: round-robin alternates while
        // both tenants have work, FIFO within each tenant.
        assert_eq!(order, ["a0", "b0", "a1", "a2", "a3", "a4"]);
        assert_eq!(s.queued_total, 0);
    }

    #[test]
    fn dequeue_removes_only_queued_ids() {
        let mut s = sched();
        s.jobs.insert("x".into(), queued_job("x", "t"));
        s.enqueue("t", "x".into());
        assert!(s.dequeue("t", "x"));
        assert!(!s.dequeue("t", "x"));
        assert_eq!(s.queued_total, 0);
    }
}
