//! The server: accept loop, fair scheduler, worker pool, job runner.

use crate::error::ServeError;
use crate::jobs::{Job, JobState};
use crate::proto::{self, DataSpec, Request};
use mn_comm::msg::proc::{ProcAddr, ServiceListener, ServiceStream};
use mn_comm::{
    CancelKind, CancelToken, EngineSpec, JobCancelled, ParEngine, SerialEngine, SimEngine,
    ThreadEngine,
};
use mn_data::Dataset;
use mn_obs::{TelemetryHandle, TelemetryHub, TelemetryStream};
use monet::{CheckpointError, LearnerConfig, ResumePolicy};
use serde::Content;
use std::collections::{BTreeMap, VecDeque};
use std::io::{self, BufReader, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
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
    /// Root for persistent state; job checkpoints live under
    /// `<state_dir>/jobs/<job-id>`.
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
    sched: Mutex<Sched>,
    work_ready: Condvar,
    shutdown: AtomicBool,
}

impl Shared {
    fn sched(&self) -> MutexGuard<'_, Sched> {
        unpoison(self.sched.lock())
    }
}

/// A bound, not-yet-running server. Split from [`Server::run`] so the
/// caller can learn the resolved address (ephemeral TCP ports) before
/// blocking.
pub struct Server {
    listener: ServiceListener,
    shared: Arc<Shared>,
}

impl Server {
    /// Bind the listener and initialize empty state.
    pub fn bind(cfg: ServeConfig) -> io::Result<Server> {
        // Engine-event unwinds (fault drills, cancellation) are normal
        // control flow here; keep them off stderr.
        mn_comm::silence_injected_panics();
        std::fs::create_dir_all(&cfg.state_dir)?;
        let listener = ServiceListener::bind(&cfg.addr)?;
        // Record the *resolved* address (tcp:host:0 gets a real port)
        // so shutdown's self-connect wake-up can reach the listener.
        let mut cfg = cfg;
        cfg.addr = listener.addr().clone();
        let shared = Arc::new(Shared {
            cfg,
            sched: Mutex::new(Sched {
                datasets: BTreeMap::new(),
                jobs: BTreeMap::new(),
                order: Vec::new(),
                queues: BTreeMap::new(),
                rr_last: None,
                queued_total: 0,
                next_job: 0,
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

/// The outcome a learn segment hands back through `catch_unwind`.
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
        (inner.engine, inner.config.clone(), token)
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
    job.push_event("running", &engine.to_string());

    // Telemetry: the engine pushes snapshots into a hub; a pump thread
    // renders them as versioned JSONL into the job's event log, where
    // any number of `watch` connections replay them.
    let hub = TelemetryHub::new(shared.cfg.telemetry_interval);
    let handle = hub.handle();
    let rx = hub.subscribe();
    let pump_job = Arc::clone(job);
    let pump = std::thread::Builder::new()
        .name("serve-telemetry".into())
        .spawn(move || {
            let mut stream = TelemetryStream::new();
            while let Ok((snap, now_s)) = rx.recv() {
                pump_job.events.push(stream.line(&snap, now_s));
            }
        })
        .expect("spawn telemetry pump");

    let dir = shared.cfg.state_dir.join("jobs").join(&job.id);
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        run_segment(engine, token, handle, &data, &config, &dir)
    }));

    // The engine (and its cloned handles) died with the closure; after
    // finish() the hub disconnects every subscriber, ending the pump.
    hub.finish();
    let _ = pump.join();

    match outcome {
        Ok(Ok((network_json, busy_s, counters))) => {
            let mut sched = shared.sched();
            let mut inner = unpoison(job.inner.lock());
            inner.state = JobState::Done;
            inner.cancel = None;
            inner.result_json = Some(network_json);
            // Resumed segments replay restored counter deltas, so the
            // final segment's counters are the full-run counters.
            inner.counters = counters;
            inner.busy_s += busy_s;
            let account = sched.account(&job.tenant);
            account.completed += 1;
            account.busy_s += busy_s;
            for (k, v) in &inner.counters {
                *account.counters.entry(k.clone()).or_insert(0) += *v;
            }
            drop(inner);
            job.push_event("done", "network ready");
            job.events.close();
        }
        Ok(Err(err)) => finish_failed(shared, job, err.to_string()),
        Err(payload) => match payload.downcast::<JobCancelled>() {
            Ok(cancelled) => {
                let mut sched = shared.sched();
                let mut inner = unpoison(job.inner.lock());
                inner.cancel = None;
                match cancelled.kind {
                    CancelKind::Cancel => {
                        inner.state = JobState::Cancelled;
                        sched.account(&job.tenant).cancelled += 1;
                        drop(inner);
                        drop(sched);
                        job.push_event("cancelled", &format!("at event {}", cancelled.event));
                        job.events.close();
                    }
                    CancelKind::Suspend => {
                        inner.state = JobState::Suspended;
                        sched.account(&job.tenant).suspended += 1;
                        drop(inner);
                        drop(sched);
                        // Not terminal: the log stays open for resume.
                        job.push_event("suspended", &format!("at event {}", cancelled.event));
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
    inner.state = JobState::Failed;
    inner.cancel = None;
    inner.error = Some(msg.clone());
    sched.account(&job.tenant).failed += 1;
    drop(inner);
    drop(sched);
    job.push_event("failed", &msg);
    job.events.close();
}

// ---------------------------------------------------------------------
// Connection handling
// ---------------------------------------------------------------------

fn write_line(stream: &mut ServiceStream, line: &str) -> io::Result<()> {
    stream.write_all(line.as_bytes())?;
    stream.write_all(b"\n")?;
    stream.flush()
}

/// Serve one client connection: a request line in, a response line out
/// (plus streamed event lines for `watch`), until clean EOF. A client
/// that dies mid-line or floods past [`proto::MAX_LINE`] just loses
/// its connection; server state is untouched.
fn serve_connection(shared: &Arc<Shared>, stream: ServiceStream) -> io::Result<()> {
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
    writer: &mut ServiceStream,
    job_id: &str,
    from: usize,
) -> Result<(), WatchAbort> {
    let job = shared
        .sched()
        .jobs
        .get(job_id)
        .cloned()
        .ok_or_else(|| WatchAbort::Refused(ServeError::UnknownJob(job_id.to_string())))?;
    let mut offset = from;
    loop {
        let (next, lines, closed) = job.events.read_from(offset, Duration::from_millis(200));
        for line in &lines {
            write_line(writer, line).map_err(WatchAbort::Io)?;
        }
        offset = next.max(offset);
        if closed {
            let done = proto::ok_line(vec![
                ("done".into(), Content::Bool(true)),
                ("job".into(), Content::Str(job.id.clone())),
                ("state".into(), Content::Str(job.state().label().into())),
                ("events".into(), Content::U64(offset as u64)),
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
            if !sched
                .datasets
                .contains_key(&(tenant.clone(), dataset.clone()))
            {
                return Err(ServeError::UnknownDataset(format!("{tenant}/{dataset}")));
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
            ));
            job.push_event("queued", &engine.to_string());
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
            let inner = unpoison(job.inner.lock());
            match (&inner.state, &inner.result_json) {
                (JobState::Done, Some(json)) => Ok(vec![
                    ("job".into(), Content::Str(job.id.clone())),
                    // The exact `to_json` bytes, carried as a JSON
                    // string so no float ever round-trips through the
                    // protocol's number representation.
                    ("network_json".into(), Content::Str(json.clone())),
                    ("busy_s".into(), Content::F64(inner.busy_s)),
                ]),
                (JobState::Failed, _) => Err(ServeError::Conflict(format!(
                    "job {} failed: {}",
                    job.id,
                    inner.error.as_deref().unwrap_or("unknown error")
                ))),
                (state, _) => Err(ServeError::Conflict(format!(
                    "job {} is {}, not done",
                    job.id,
                    state.label()
                ))),
            }
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
                    inner.state = JobState::Cancelled;
                    inner.cancel = None;
                    sched.account(&job.tenant).cancelled += 1;
                    drop(inner);
                    drop(sched);
                    job.push_event("cancelled", "before running");
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
                    inner.state = JobState::Suspended;
                    sched.account(&job.tenant).suspended += 1;
                    drop(inner);
                    drop(sched);
                    job.push_event("suspended", "before running");
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
            sched.enqueue(&job.tenant, job.id.clone());
            drop(sched);
            job.push_event("resumed", &engine.to_string());
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
            let mut inner = unpoison(job.inner.lock());
            inner.state = JobState::Cancelled;
            sched.account(&job.tenant).cancelled += 1;
            drop(inner);
            job.push_event("cancelled", "server shutdown");
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
    let _ = mn_comm::msg::proc::service_connect(&addr, Duration::from_millis(500));
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
