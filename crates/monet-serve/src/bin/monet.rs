//! `monet` — command-line module-network learner.
//!
//! ```text
//! monet --input expression.tsv [--engine serial|threads:<p>|sim:<p>|msg:<p>|proc:<p>]
//!       [--seed N] [--ganesh-runs G] [--update-steps U]
//!       [--init-clusters K0] [--trees R] [--splits-per-node J]
//!       [--sampling-steps S] [--threshold T] [--reference]
//!       [--candidates file.txt] [--xml out.xml] [--json out.json]
//!       [--trace trace.json] [--metrics-out metrics.json]
//!       [--checkpoint-dir dir] [--resume] [--force-restart]
//!       [--fault spec] [--comm-timeout-ms T]
//!       [--telemetry-out path|-] [--telemetry-interval-ms T]
//!       [--flightrec-dir dir]
//!       [--dag] [--quiet]
//! monet --synthetic n,m [--engine ...]   # demo without an input file
//! monet serve --listen unix:<path>|tcp:<host:port> [--state-dir dir]
//!       [--workers N] [--max-queue N] [--telemetry-interval-ms T]
//! monet client --connect <addr> <op> [flags]   # talk to a server
//! ```
//!
//! The defaults reproduce the paper's minimum-runtime configuration
//! (§5.1): one GaneSH run, one update step, one regression tree per
//! module, every gene a candidate regulator.
//!
//! Batch, the hidden `worker`, `serve` and each `client` op declare
//! their flags as `(name, takes_value)` tables read by one parser: an
//! unknown flag, or a missing or unparsable value, prints that usage
//! and exits 2. One function turns the shared learn flags into the
//! [`LearnerConfig`] of batch runs and of `client submit` alike.
//!
//! `--trace` writes a chrome://tracing timeline (open in
//! `chrome://tracing` or <https://ui.perfetto.dev>) with one track per
//! rank; `--metrics-out` writes `RUN_METRICS.json`, the machine-readable
//! superset of the run report (see [`monet::RunMetrics`]).
//!
//! `--checkpoint-dir` enables fine-grained checkpointing (per GaneSH
//! run / per module tree; DESIGN.md §10): a killed run resumes after
//! the last completed unit. `--resume` requires a valid checkpoint to
//! exist (a corrupt or mismatched one is a clean error); add
//! `--force-restart` to wipe it and start over. `--fault` plants
//! deterministic faults (`kill:<rank>@<event>`, `delay:<rank>@<event>:<ms>`,
//! `drop:<rank>@<event>`, `seed:<n>`) for kill–resume drills; a
//! fault-aborted run exits with code 3. `--comm-timeout-ms` (≥ 1)
//! bounds every fabric receive on the msg engine so dropped messages
//! surface as timeouts instead of hangs.
//!
//! `--telemetry-out` streams live run telemetry as versioned JSONL
//! (DESIGN.md §13): a full snapshot line, then deltas, with heartbeat
//! lines while the run is between snapshots; `-` streams to stdout.
//! `--telemetry-interval-ms` sets both the snapshot rate limit and the
//! heartbeat cadence (default 1000).
//!
//! The flight recorder is always on: every rank keeps a bounded ring
//! of compact events (spans, sends/receives, checkpoint units, fault
//! injections, RNG jumps). A failed run dumps one
//! `flightrec-rank<k>.jsonl` per rank into `--flightrec-dir` (default
//! `.`); passing the flag explicitly also dumps after successful runs.
//!
//! `--engine proc:<p>` runs the msg fabric over `p` real supervised OS
//! processes (DESIGN.md §15): this process becomes the supervisor, and
//! each rank is a `monet worker` child connected over a Unix-domain
//! socket (`MN_PROC_ADDR=tcp:host:port` switches to TCP loopback). The
//! hidden `worker` subcommand is that child entrypoint — it takes
//! `--proc-rank`/`--proc-nranks`/`--proc-socket` plus the forwarded run
//! flags, and is not meant to be invoked by hand. A worker that dies —
//! a real SIGKILL, a `sigkill:<r>@<k>` fault, or an injected kill — is
//! detected by the supervisor (socket EOF, or heartbeat staleness for
//! stalls), the survivors abort with `PeerDisconnected`, and the run
//! exits 3 with per-rank flight-recorder dumps; results on the happy
//! path are byte-identical to every other engine.
//!
//! `monet serve` runs the learner as a long-lived multi-tenant service
//! (DESIGN.md §16): line-delimited JSON over a Unix or TCP socket,
//! a fixed worker pool with fair per-tenant scheduling and bounded
//! admission, live telemetry via `watch`, cooperative cancel/suspend,
//! and per-job checkpointing with elastic resume. `monet client` is
//! the matching command-line client (ops: `ping`, `register`,
//! `submit`, `status`, `watch`, `result`, `cancel`, `suspend`,
//! `resume`, `accounting`, `jobs`, `shutdown`, `raw`); it checks an
//! op's flags before it connects, and a served job's result is
//! byte-identical to this binary's batch `--json` output for the same
//! dataset, seed, and config.

use mn_comm::msg::proc::{
    connect_worker, ProcAddr, Supervisor, WorkerConfig, DEFAULT_CONNECT_TIMEOUT,
};
use mn_comm::{
    silence_injected_panics, spmd_run_faulty_recorded, CommError, EngineSpec, Fabric, FaultAbort,
    FaultPlan, InjectedCrash, ObsSnapshot, ParEngine, RunReport, SerialEngine, SimEngine,
    ThreadEngine,
};
use mn_data::Dataset;
use mn_obs::{FlightRec, SnapshotStash, TelemetryHandle, TelemetrySink};
use mn_score::ScoreMode;
use monet::{
    learn_module_network, learn_with_checkpoint_policy, LearnerConfig, ModuleNetwork, ResumePolicy,
    RunMetrics,
};
use std::collections::BTreeMap;
use std::fmt::Display;
use std::process::ExitCode;
use std::str::FromStr;
use std::time::Duration;

// ---------------------------------------------------------------------
// Flag tables and the one parser
// ---------------------------------------------------------------------

/// The flags one subcommand accepts: `(name, takes_value)`.
type Table = &'static [(&'static str, bool)];

/// The learn flags, shared by batch runs, workers and `client submit`.
const LEARN_FLAGS: [(&str, bool); 9] = [
    ("--seed", true),
    ("--ganesh-runs", true),
    ("--update-steps", true),
    ("--init-clusters", true),
    ("--trees", true),
    ("--splits-per-node", true),
    ("--sampling-steps", true),
    ("--threshold", true),
    ("--reference", false),
];

const BATCH_FLAGS: Table = &[
    ("--input", true),
    ("--synthetic", true),
    ("--engine", true),
    ("--candidates", true),
    ("--xml", true),
    ("--json", true),
    ("--trace", true),
    ("--metrics-out", true),
    ("--checkpoint-dir", true),
    ("--resume", false),
    ("--force-restart", false),
    ("--fault", true),
    ("--comm-timeout-ms", true),
    ("--telemetry-out", true),
    ("--telemetry-interval-ms", true),
    ("--flightrec-dir", true),
    ("--dag", false),
    ("--quiet", false),
];

/// The hidden `worker` subcommand's coordinates, ahead of the forwarded
/// batch flags.
const WORKER_FLAGS: Table = &[
    ("--proc-rank", true),
    ("--proc-nranks", true),
    ("--proc-socket", true),
];

/// The server address every `client` op takes, before or after the op.
const CONNECT_FLAG: Table = &[("--connect", true)];

const SERVE_FLAGS: Table = &[
    ("--listen", true),
    ("--state-dir", true),
    ("--workers", true),
    ("--max-queue", true),
    ("--telemetry-interval-ms", true),
];

/// The flags of one `client` op, besides `--connect` (and the learn
/// flags `submit` takes); `None` for an unknown op.
fn client_op_flags(op: &str) -> Option<Table> {
    Some(match op {
        "ping" | "shutdown" | "raw" => &[],
        "register" => &[
            ("--tenant", true),
            ("--dataset", true),
            ("--synthetic", true),
            ("--seed", true),
            ("--tsv", true),
        ],
        "submit" => &[("--tenant", true), ("--dataset", true), ("--engine", true)],
        "status" | "cancel" | "suspend" => &[("--job", true)],
        "resume" => &[("--job", true), ("--engine", true)],
        "watch" => &[("--job", true), ("--from", true)],
        "result" => &[("--job", true), ("--json", true)],
        "accounting" | "jobs" => &[("--tenant", true)],
        _ => return None,
    })
}

/// One subcommand's parsed command line: the value of every flag given
/// (`""` for a switch) and, where the subcommand takes them, its bare
/// words.
struct Flags {
    values: BTreeMap<&'static str, String>,
    words: Vec<String>,
    usage: fn() -> !,
}

impl Flags {
    /// Read `args` against `tables`. A flag outside them, a flag
    /// without its value, or a bare word where `words` is false prints
    /// `usage` and exits 2. A repeated flag keeps its last value.
    fn parse(args: &[String], tables: &[Table], words: bool, usage: fn() -> !) -> Flags {
        let mut flags = Flags {
            values: BTreeMap::new(),
            words: Vec::new(),
            usage,
        };
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            if words && !arg.starts_with("--") {
                flags.words.push(arg.clone());
                continue;
            }
            let entry = tables.iter().flat_map(|t| t.iter()).find(|(n, _)| n == arg);
            match entry {
                Some(&(name, true)) => {
                    let value = args.next().unwrap_or_else(|| usage());
                    flags.values.insert(name, value.clone());
                }
                Some(&(name, false)) => {
                    flags.values.insert(name, String::new());
                }
                None if arg == "--help" || arg == "-h" => usage(),
                None => {
                    eprintln!("unknown flag {arg:?}");
                    usage()
                }
            }
        }
        flags
    }

    /// The value of `name` as a `T`: `None` when the flag is absent, a
    /// usage error (exit 2) when its value does not parse.
    fn get<T: FromStr>(&self, name: &str) -> Option<T>
    where
        T::Err: Display,
    {
        let value = self.values.get(name)?;
        Some(value.parse().unwrap_or_else(|e| {
            eprintln!("{name} {value:?}: {e}");
            (self.usage)()
        }))
    }

    /// Whether the switch (or flag) `name` was given.
    fn has(&self, name: &str) -> bool {
        self.values.contains_key(name)
    }
}

/// `n,m`: the shape of a synthetic data set.
#[derive(Clone, Copy)]
struct Shape(usize, usize);

impl FromStr for Shape {
    type Err = String;

    fn from_str(s: &str) -> Result<Shape, String> {
        let (n, m) = s.split_once(',').ok_or("expected n,m")?;
        let count = |v: &str| v.parse::<usize>().map_err(|e| e.to_string());
        Ok(Shape(count(n)?, count(m)?))
    }
}

/// The config the learn flags ask for, before candidate regulators are
/// resolved. Batch runs, workers and `client submit` all build their
/// config here, so a served job's config is the batch CLI's by
/// construction. An absent flag keeps the paper-minimum value (§5.1).
fn learn_config(flags: &Flags) -> LearnerConfig {
    let [seed, runs, steps, k0, trees, splits, sampling, threshold, reference] =
        LEARN_FLAGS.map(|(name, _)| name);
    let mut config = LearnerConfig::paper_minimum(flags.get(seed).unwrap_or(0));
    config.ganesh_runs = flags.get(runs).unwrap_or(config.ganesh_runs);
    config.ganesh.update_steps = flags.get(steps).unwrap_or(config.ganesh.update_steps);
    config.ganesh.init_clusters = flags.get(k0);
    // `R` trees take `R + 1` update steps after one burn-in step.
    if let Some(r) = flags.get::<usize>(trees) {
        config.tree.update_steps = r.checked_add(1).unwrap_or_else(|| {
            eprintln!("{trees} {r}: too many trees");
            (flags.usage)()
        });
    }
    config.tree.splits_per_node = flags.get(splits).unwrap_or(config.tree.splits_per_node);
    config.tree.max_sampling_steps = flags
        .get(sampling)
        .unwrap_or(config.tree.max_sampling_steps);
    config.consensus.threshold = flags.get(threshold).unwrap_or(config.consensus.threshold);
    if flags.has(reference) {
        config = config.with_mode(ScoreMode::Reference);
    }
    config
}

// ---------------------------------------------------------------------
// Batch runs: in-process engines, the proc supervisor and its workers
// ---------------------------------------------------------------------

/// The batch (and worker) flags, read and checked once.
struct Options {
    input: Option<String>,
    synthetic: Option<Shape>,
    engine: EngineSpec,
    /// The learn flags' config, before candidate resolution.
    config: LearnerConfig,
    candidates: Option<String>,
    xml: Option<String>,
    json: Option<String>,
    trace: Option<String>,
    metrics_out: Option<String>,
    /// `--checkpoint-dir` with the resume policy the switches ask for.
    checkpoint: Option<(String, ResumePolicy)>,
    fault: Option<String>,
    comm_timeout: Option<Duration>,
    telemetry_out: Option<String>,
    telemetry_interval: Duration,
    flightrec_dir: Option<String>,
    dag: bool,
    quiet: bool,
    /// Set when invoked as the hidden `worker` subcommand: this process
    /// is one rank of a `proc:<p>` run.
    worker: Option<WorkerOpts>,
}

/// The `monet worker` coordinates: which rank this process is, how
/// many ranks the fabric has, and where the supervisor listens.
struct WorkerOpts {
    rank: usize,
    nranks: usize,
    socket: String,
}

fn usage() -> ! {
    eprintln!(
        "usage: monet --input <expression.tsv> | --synthetic <n,m>\n\
         \x20      [--engine serial|threads:<p>|sim:<p>|msg:<p>|proc:<p>] [--seed N]\n\
         \x20      [--ganesh-runs G] [--update-steps U] [--init-clusters K0]\n\
         \x20      [--trees R] [--splits-per-node J] [--sampling-steps S]\n\
         \x20      [--threshold T] [--reference]\n\
         \x20      [--candidates file]\n\
         \x20      [--xml out.xml] [--json out.json]\n\
         \x20      [--trace trace.json] [--metrics-out metrics.json]\n\
         \x20      [--checkpoint-dir dir] [--resume] [--force-restart]\n\
         \x20      [--fault kill:<r>@<k>|sigkill:<r>@<k>|delay:<r>@<k>:<ms>|drop:<r>@<k>|seed:<n>]\n\
         \x20      [--comm-timeout-ms T]\n\
         \x20      [--telemetry-out path|-] [--telemetry-interval-ms T]\n\
         \x20      [--flightrec-dir dir]\n\
         \x20      [--dag] [--quiet]\n\
         \x20apart from batch runs: monet serve --listen <addr> [...]\n\
         \x20                       monet client --connect <addr> <op> [...]"
    );
    std::process::exit(2)
}

/// Parse a batch command line, or with `worker` the hidden `monet
/// worker` one: `--proc-rank k --proc-nranks p --proc-socket addr`
/// plus the forwarded batch flags.
fn parse_options(args: &[String], worker: bool) -> Options {
    let tables: &[Table] = if worker {
        &[BATCH_FLAGS, &LEARN_FLAGS, WORKER_FLAGS]
    } else {
        &[BATCH_FLAGS, &LEARN_FLAGS]
    };
    let flags = Flags::parse(args, tables, false, usage);
    let refuse = |why: &str| -> ! {
        eprintln!("{why}");
        usage()
    };
    let synthetic = flags.get::<Shape>("--synthetic");
    if flags.has("--input") == synthetic.is_some() {
        refuse("exactly one of --input / --synthetic is required");
    }
    if let Some(Shape(n, m)) = synthetic {
        mn_data::synthetic::check_shape(n, m).unwrap_or_else(|e| refuse(&e));
    }
    let checkpoint_dir = flags.get::<String>("--checkpoint-dir");
    let policy = if flags.has("--force-restart") {
        ResumePolicy::ForceRestart
    } else if flags.has("--resume") {
        ResumePolicy::Strict
    } else {
        ResumePolicy::Auto
    };
    if policy != ResumePolicy::Auto && checkpoint_dir.is_none() {
        refuse("--resume / --force-restart require --checkpoint-dir");
    }
    let comm_timeout_ms = flags.get::<u64>("--comm-timeout-ms");
    if comm_timeout_ms == Some(0) {
        refuse("--comm-timeout-ms must be >= 1");
    }
    let worker = worker.then(|| {
        match (
            flags.get("--proc-rank"),
            flags.get("--proc-nranks"),
            flags.get("--proc-socket"),
        ) {
            (Some(rank), Some(nranks), Some(socket)) if rank < nranks => WorkerOpts {
                rank,
                nranks,
                socket,
            },
            _ => refuse("worker requires --proc-rank < --proc-nranks and --proc-socket"),
        }
    });
    Options {
        input: flags.get("--input"),
        synthetic,
        engine: flags.get("--engine").unwrap_or(EngineSpec::Serial),
        config: learn_config(&flags),
        candidates: flags.get("--candidates"),
        xml: flags.get("--xml"),
        json: flags.get("--json"),
        trace: flags.get("--trace"),
        metrics_out: flags.get("--metrics-out"),
        checkpoint: checkpoint_dir.map(|dir| (dir, policy)),
        fault: flags.get("--fault"),
        comm_timeout: comm_timeout_ms.map(Duration::from_millis),
        telemetry_out: flags.get("--telemetry-out"),
        telemetry_interval: Duration::from_millis(
            flags.get("--telemetry-interval-ms").unwrap_or(1000),
        ),
        flightrec_dir: flags.get("--flightrec-dir"),
        dag: flags.has("--dag"),
        quiet: flags.has("--quiet"),
        worker,
    }
}

/// The prologue of every batch path — in-process run, proc supervisor
/// and proc worker: load the data, build the config (resolving
/// `--candidates` against the data's variable names) and parse the
/// fault plan for `nranks` ranks.
fn prepare(opts: &Options, nranks: usize) -> Result<(Dataset, LearnerConfig, FaultPlan), String> {
    let data = match (&opts.input, opts.synthetic) {
        (Some(path), _) => {
            mn_data::read_tsv_file(path).map_err(|e| format!("reading {path}: {e}"))?
        }
        (None, Some(Shape(n, m))) => mn_data::synthetic::yeast_like(n, m, opts.config.seed).dataset,
        (None, None) => unreachable!("the parser requires --input or --synthetic"),
    };
    let mut config = opts.config.clone();
    if let Some(path) = &opts.candidates {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        let mut indices = Vec::new();
        for name in text.split_whitespace() {
            match data.var_names.iter().position(|v| v == name) {
                Some(idx) => indices.push(idx),
                None => return Err(format!("candidate regulator {name:?} not in data set")),
            }
        }
        config.candidate_parents = Some(indices);
    }
    let config = config.validated()?;
    let plan = match &opts.fault {
        Some(spec) => FaultPlan::parse(spec, nranks)?,
        None => FaultPlan::new(),
    };
    Ok((data, config, plan))
}

/// Why a run produced no network: an ordinary error (exit 1) or a
/// fault abort — injected or observed communication failure (exit 3,
/// so kill–resume drills can tell the two apart).
enum RunFailure {
    Error(String),
    Fault(String),
}

/// Per-rank post-mortem handles collected *outside* the unwind path:
/// flight recorders (always usable, even for ranks that died) and
/// death stashes (filled by a dying rank with its final snapshot).
/// Index = rank.
#[derive(Default)]
struct Capture {
    flights: Vec<FlightRec>,
    stashes: Vec<SnapshotStash>,
}

impl Capture {
    /// Dump every rank's flight recorder as `flightrec-rank<k>.jsonl`
    /// into `--flightrec-dir` (default `.`, created if missing).
    /// Best-effort: dump failures are reported but never change the
    /// exit code — post-mortem tooling must not mask the original
    /// failure.
    fn dump_flight_recorders(&self, opts: &Options) {
        let dir = std::path::Path::new(opts.flightrec_dir.as_deref().unwrap_or("."));
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("warning: flight recorder dir {}: {e}", dir.display());
            return;
        }
        for flight in &self.flights {
            match flight.dump_to_dir(dir) {
                Ok(path) => {
                    if !opts.quiet {
                        eprintln!("flight recorder: {}", path.display());
                    }
                }
                Err(e) => eprintln!("warning: flight recorder dump: {e}"),
            }
        }
    }

    /// The first stashed death snapshot, if any rank left one — the
    /// best post-mortem timeline a failed run has.
    fn death_snapshot(&self) -> Option<ObsSnapshot> {
        self.stashes.iter().find_map(|s| s.get())
    }
}

/// The tail of a failed run, shared by the in-process engines and the
/// proc worker: every failed run leaves its per-rank flight recorder
/// dumps and — when a dying rank stashed its final snapshot — the
/// best-effort timeline `--trace` asked for. Exits 1 for an error, 3
/// for a fault.
fn fail(opts: &Options, capture: &Capture, failure: RunFailure) -> ExitCode {
    capture.dump_flight_recorders(opts);
    if let Some(path) = &opts.trace {
        if let Some(snap) = capture.death_snapshot() {
            let trace = mn_comm::obs::chrome_trace_json(&snap);
            if let Err(e) = std::fs::write(path, trace) {
                eprintln!("warning: writing {path}: {e}");
            } else if !opts.quiet {
                eprintln!("post-mortem trace: {path}");
            }
        }
    }
    match failure {
        RunFailure::Error(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
        RunFailure::Fault(e) => {
            eprintln!("fault: {e}");
            ExitCode::from(3)
        }
    }
}

fn run_on<E: ParEngine>(
    engine: &mut E,
    data: &Dataset,
    config: &LearnerConfig,
    ckpt: Option<&(String, ResumePolicy)>,
) -> Result<(ModuleNetwork, RunReport, ObsSnapshot), RunFailure> {
    let (network, report) = match ckpt {
        Some((dir, policy)) => learn_with_checkpoint_policy(engine, data, config, dir, *policy)
            .map_err(|e| RunFailure::Error(e.to_string()))?,
        None => learn_module_network(engine, data, config),
    };
    let now = engine.now_s();
    let snapshot = engine.obs().snapshot(now);
    Ok((network, report, snapshot))
}

/// Convert a caught panic payload into a fault failure, or propagate
/// it unchanged when it is not a fault-injection payload.
fn fault_failure(payload: Box<dyn std::any::Any + Send>) -> RunFailure {
    match payload.downcast::<InjectedCrash>() {
        Ok(crash) => RunFailure::Fault(format!(
            "injected kill: rank {} at event {}",
            crash.rank, crash.event
        )),
        Err(payload) => match payload.downcast::<FaultAbort>() {
            Ok(abort) => RunFailure::Fault(format!("communication failure: {}", abort.0)),
            Err(payload) => std::panic::resume_unwind(payload),
        },
    }
}

/// Run a single-process engine, catching fault-injection unwinds so an
/// aborted run exits cleanly (code 3) instead of with a panic trace.
/// The engine's flight recorder and death stash are cloned into
/// `capture` *before* the unwind-catching closure takes the engine, so
/// post-mortem dumps work even when the run dies.
fn run_single<E: ParEngine>(
    mut engine: E,
    data: &Dataset,
    config: &LearnerConfig,
    ckpt: Option<&(String, ResumePolicy)>,
    telemetry: Option<&TelemetryHandle>,
    capture: &mut Capture,
) -> Result<(ModuleNetwork, RunReport, ObsSnapshot), RunFailure> {
    if let Some(handle) = telemetry {
        engine.obs_mut().set_telemetry(handle.clone());
    }
    capture.flights.push(engine.obs().flight());
    capture.stashes.push(engine.death_stash());
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
        run_on(&mut engine, data, config, ckpt)
    })) {
        Ok(result) => result,
        Err(payload) => Err(fault_failure(payload)),
    }
}

fn run(
    opts: &Options,
    data: &Dataset,
    config: &LearnerConfig,
    plan: FaultPlan,
    telemetry: Option<&TelemetryHandle>,
    capture: &mut Capture,
) -> Result<(ModuleNetwork, RunReport, ObsSnapshot), RunFailure> {
    let ckpt = opts.checkpoint.as_ref();
    match opts.engine {
        // Single-process engines count *engine* events (each dist_map /
        // collective / replicated call), attributed to rank 0.
        EngineSpec::Serial => run_single(
            SerialEngine::new().with_fault_plan(plan),
            data,
            config,
            ckpt,
            telemetry,
            capture,
        ),
        EngineSpec::Threads(p) => run_single(
            ThreadEngine::new(p).with_fault_plan(plan),
            data,
            config,
            ckpt,
            telemetry,
            capture,
        ),
        EngineSpec::Sim(p) => run_single(
            SimEngine::new(p).with_fault_plan(plan),
            data,
            config,
            ckpt,
            telemetry,
            capture,
        ),
        EngineSpec::Msg(p) => {
            // True SPMD: every rank learns the full network. All ranks
            // produce the identical network and report (the determinism
            // contract); the per-rank observability snapshots are merged
            // so the timeline carries every rank's busy time. Faults are
            // fabric events (sends + receives, per endpoint); an empty
            // plan makes this path identical to the plain spmd_run.
            let (outcomes, spmd_capture) =
                spmd_run_faulty_recorded(p, plan, opts.comm_timeout, |engine| {
                    // The telemetry delta stream is a single per-stream
                    // state machine, so exactly one rank feeds it.
                    if engine.rank() == 0 {
                        if let Some(handle) = telemetry {
                            engine.obs_mut().set_telemetry(handle.clone());
                        }
                    }
                    run_on(engine, data, config, ckpt)
                });
            capture.flights = spmd_capture.flights;
            capture.stashes = spmd_capture.stashes;
            let mut results = Vec::with_capacity(p);
            // Survivors abort *because* a peer was killed; report the
            // injected kill as the cause, not the downstream abort.
            let mut survivor_failure: Option<RunFailure> = None;
            for (rank, outcome) in outcomes.into_iter().enumerate() {
                match outcome {
                    Ok(Ok(triple)) => results.push(triple),
                    Ok(Err(failure)) => return Err(failure),
                    Err(CommError::Injected { rank: r, event }) => {
                        return Err(RunFailure::Fault(format!(
                            "injected kill: rank {r} at fabric event {event}"
                        )))
                    }
                    Err(e) => {
                        survivor_failure
                            .get_or_insert(RunFailure::Fault(format!("rank {rank} aborted: {e}")));
                    }
                }
            }
            if let Some(failure) = survivor_failure {
                return Err(failure);
            }
            let snapshots: Vec<ObsSnapshot> = results.iter().map(|(_, _, s)| s.clone()).collect();
            // A merge failure here means the determinism contract
            // itself broke — surface the first divergence, don't panic.
            let merged = mn_comm::obs::merge_ranks(&snapshots)
                .map_err(|e| RunFailure::Error(format!("rank merge failed: {e}")))?;
            let (network, report, _) = results.swap_remove(0);
            Ok((network, report, merged))
        }
        // Dispatched to run_supervisor/run_worker_entry before run()
        // is ever reached; kept for match exhaustiveness.
        EngineSpec::Proc(_) => Err(RunFailure::Error(
            "proc engine must be launched from main".to_string(),
        )),
    }
}

/// Print `error: …` and exit 1: a failure while setting a run up,
/// before anything needs cleaning up.
fn exit_error(e: impl Display) -> ! {
    eprintln!("error: {e}");
    std::process::exit(1)
}

/// Open the `--telemetry-out` sink, if requested.
fn open_telemetry(opts: &Options) -> Option<TelemetrySink> {
    let path = opts.telemetry_out.as_ref()?;
    Some(
        TelemetrySink::to_path(path, opts.telemetry_interval)
            .unwrap_or_else(|e| exit_error(format!("opening telemetry stream {path}: {e}"))),
    )
}

/// Drain a telemetry sink and join its writer. The engines (and their
/// cloned handles) are gone by now.
fn close_telemetry(sink: Option<TelemetrySink>) {
    if let Some(Err(e)) = sink.map(TelemetrySink::finish) {
        eprintln!("warning: telemetry stream: {e}");
    }
}

fn main() -> ExitCode {
    // Injected kills, fabric aborts and cancellations unwind on
    // purpose and are reported as one `fault:` line: keep their panic
    // message and backtrace off stderr, plan or no plan.
    silence_injected_panics();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match args.first().map(String::as_str) {
        Some("serve") => return serve_main(&args[1..]),
        Some("client") => return client_main(&args[1..]),
        // The per-rank child entrypoint the proc-engine supervisor
        // spawns.
        Some("worker") => return run_worker_entry(parse_options(&args[1..], true)),
        _ => parse_options(&args, false),
    };
    let nranks = match opts.engine {
        EngineSpec::Serial => 1,
        EngineSpec::Threads(p) | EngineSpec::Sim(p) | EngineSpec::Msg(p) => p,
        EngineSpec::Proc(p) => return run_supervisor(&opts, p),
    };
    if opts.quiet {
        mn_comm::obs::set_quiet(true);
    }
    let (data, config, plan) = prepare(&opts, nranks).unwrap_or_else(|e| exit_error(e));
    let sink = open_telemetry(&opts);
    let handle = sink.as_ref().map(|s| s.handle());
    let mut capture = Capture::default();
    let result = run(&opts, &data, &config, plan, handle.as_ref(), &mut capture);
    drop(handle);
    close_telemetry(sink);
    match result {
        Ok((network, report, snapshot)) => {
            // An explicit dump directory asks for recorders even from
            // clean runs (replay comparison across engines).
            if opts.flightrec_dir.is_some() {
                capture.dump_flight_recorders(&opts);
            }
            write_outputs(&opts, &network, &report, &snapshot)
        }
        Err(failure) => fail(&opts, &capture, failure),
    }
}

/// Print the run summary and write every requested output artifact —
/// the tail of a successful run, shared by the single-process engines
/// (from `main`) and the rank-0 proc worker.
fn write_outputs(
    opts: &Options,
    network: &ModuleNetwork,
    report: &RunReport,
    snapshot: &ObsSnapshot,
) -> ExitCode {
    if !opts.quiet {
        let summary = network.summary();
        println!(
            "learned {} modules over {} genes ({} assigned), {} module edges",
            summary.n_modules, summary.n_vars, summary.n_assigned_vars, summary.n_edges
        );
        for phase in &report.phases {
            println!("  task {:<10} {:.4}s", phase.name, phase.elapsed_s);
        }
        println!(
            "total: {:.4}s on {} rank(s)",
            report.total_s(),
            report.nranks
        );
        if opts.dag {
            let dag = monet::acyclic::dag_edges(network);
            println!("acyclic module graph: {} edges", dag.len());
        }
    }
    if let Some(path) = &opts.xml {
        if let Err(e) = monet::write_xml_file(network, path) {
            eprintln!("error writing {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    if let Some(path) = &opts.json {
        if let Err(e) = monet::write_json_file(network, path) {
            eprintln!("error writing {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    if let Some(path) = &opts.trace {
        let trace = mn_comm::obs::chrome_trace_json(snapshot);
        if let Err(e) = std::fs::write(path, trace) {
            eprintln!("error writing {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    if let Some(path) = &opts.metrics_out {
        let metrics = RunMetrics::new(report, snapshot);
        if let Err(e) = metrics.write_file(path) {
            eprintln!("error writing {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

/// One rank of a `proc:<p>` run: connect to the supervisor, learn the
/// network over the proc fabric, and — on rank 0 — write every output
/// the user asked for. This is the `monet worker` entrypoint; the
/// supervisor spawns one per rank with the run flags forwarded
/// verbatim, so data loading and configuration are replicated exactly.
fn run_worker_entry(mut opts: Options) -> ExitCode {
    let w = opts.worker.take().expect("worker flags parsed");
    // Only rank 0 speaks: the summary, telemetry stream, and output
    // files all come from rank 0; the other ranks run silent.
    opts.quiet |= w.rank != 0;
    if opts.quiet {
        mn_comm::obs::set_quiet(true);
    }
    let (data, config, plan) = prepare(&opts, w.nranks).unwrap_or_else(|e| exit_error(e));
    let addr =
        ProcAddr::parse(&w.socket).unwrap_or_else(|e| exit_error(format!("--proc-socket: {e}")));
    let dump_dir = String::from(opts.flightrec_dir.as_deref().unwrap_or("."));
    // A supervisor that never appears (or never finishes the
    // handshake) is a bounded, typed failure — the same exit code 3 a
    // mid-run fault gets, since from this rank's perspective the
    // fabric failed.
    let ep = match connect_worker(WorkerConfig {
        rank: w.rank,
        nranks: w.nranks,
        addr,
        connect_timeout: opts.comm_timeout.unwrap_or(DEFAULT_CONNECT_TIMEOUT),
        recv_timeout: opts.comm_timeout,
        faults: plan,
        dump_dir: dump_dir.clone().into(),
    }) {
        Ok(ep) => ep,
        Err(e) => {
            eprintln!("fault: rank {} handshake: {e}", w.rank);
            return ExitCode::from(3);
        }
    };
    let (mut engine, flight, stash) = mn_comm::msg::spmd_worker_engine(ep);
    // A SIGTERMed or panicking worker still leaves its flight ring on
    // disk — this process IS the rank; nothing else holds the handle.
    let dump = {
        let flight = flight.clone();
        move || {
            let _ = std::fs::create_dir_all(&dump_dir);
            let _ = flight.dump_to_dir(std::path::Path::new(&dump_dir));
        }
    };
    mn_comm::sys::on_sigterm(dump.clone());
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        dump();
        prev(info);
    }));
    let sink = (w.rank == 0).then(|| open_telemetry(&opts)).flatten();
    let handle = sink.as_ref().map(|s| s.handle());
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        if let Some(handle) = &handle {
            engine.obs_mut().set_telemetry(handle.clone());
        }
        let (network, report, snapshot) =
            run_on(&mut engine, &data, &config, opts.checkpoint.as_ref())?;
        // Post-run snapshot gather so rank 0 can merge every rank's
        // timeline, mirroring the in-process launcher's thread-join
        // collection. Muted: post-run traffic is outside the
        // deterministic accounting contract.
        engine.endpoint().set_obs_muted(true);
        let all = mn_comm::msg::allgatherv(engine.endpoint(), vec![snapshot])
            .map_err(|e| RunFailure::Fault(format!("snapshot gather: {e}")))?;
        engine.endpoint().set_obs_muted(false);
        Ok((network, report, all))
    }));
    // Goodbye on every deliberate exit — success or diagnosed fault —
    // so the supervisor's EOF-is-death detection only fires for ranks
    // that really vanished (SIGKILL, crash). A survivor aborting on a
    // peer's death reports it through exit code 3, not by looking dead
    // itself.
    engine.endpoint().goodbye();
    drop(handle);
    close_telemetry(sink);
    // Only rank 0 writes the post-mortem trace, from its own stash.
    let capture = Capture {
        flights: vec![flight],
        stashes: if w.rank == 0 { vec![stash] } else { Vec::new() },
    };
    match outcome.unwrap_or_else(|payload| Err(fault_failure(payload))) {
        Ok((network, report, snapshots)) => {
            if opts.flightrec_dir.is_some() {
                capture.dump_flight_recorders(&opts);
            }
            if w.rank != 0 {
                return ExitCode::SUCCESS;
            }
            match mn_comm::obs::merge_ranks(&snapshots) {
                Ok(merged) => write_outputs(&opts, &network, &report, &merged),
                Err(e) => {
                    eprintln!("error: rank merge failed: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Err(RunFailure::Fault(e)) => fail(
            &opts,
            &capture,
            RunFailure::Fault(format!("rank {}: {e}", w.rank)),
        ),
        Err(failure) => fail(&opts, &capture, failure),
    }
}

/// The `--engine proc:<p>` parent: bind the socket, spawn one `monet
/// worker` child per rank, route messages and watch liveness until
/// every worker departs, then fold the children's exits into the run's
/// exit code — 0 clean, 3 for any real or injected fault (with a
/// one-line diagnosis naming the dead rank and its heartbeat age), 1
/// for ordinary errors.
fn run_supervisor(opts: &Options, p: usize) -> ExitCode {
    // Validate everything cheap before spawning: a typo should fail in
    // one process, not p+1.
    prepare(opts, p).unwrap_or_else(|e| exit_error(e));
    let addr = match std::env::var("MN_PROC_ADDR") {
        Ok(spec) => {
            ProcAddr::parse(&spec).unwrap_or_else(|e| exit_error(format!("MN_PROC_ADDR: {e}")))
        }
        Err(_) => ProcAddr::Unix(
            std::env::temp_dir().join(format!("mn-proc-{}.sock", std::process::id())),
        ),
    };
    let mut sup =
        Supervisor::bind(&addr, p).unwrap_or_else(|e| exit_error(format!("binding {addr}: {e}")));
    let worker_addr = sup.addr().to_string();
    let exe = std::env::current_exe()
        .unwrap_or_else(|e| exit_error(format!("resolving own executable: {e}")));
    // Forward the original command line verbatim (workers ignore
    // --engine); each child re-loads data and re-derives the identical
    // config, the SPMD way.
    let forwarded: Vec<String> = std::env::args().skip(1).collect();
    let mut children = Vec::with_capacity(p);
    for rank in 0..p {
        let spawned = std::process::Command::new(&exe)
            .arg("worker")
            .arg("--proc-rank")
            .arg(rank.to_string())
            .arg("--proc-nranks")
            .arg(p.to_string())
            .arg("--proc-socket")
            .arg(&worker_addr)
            .args(&forwarded)
            .spawn();
        match spawned {
            Ok(child) => children.push(child),
            Err(e) => {
                eprintln!("error: spawning worker {rank}: {e}");
                for child in &mut children {
                    let _ = child.kill();
                    let _ = child.wait();
                }
                return ExitCode::FAILURE;
            }
        }
    }
    let timeout = opts.comm_timeout.unwrap_or(DEFAULT_CONNECT_TIMEOUT);
    if let Err(e) = sup.accept_workers(timeout) {
        eprintln!("error: worker handshake: {e}");
        for child in &mut children {
            let _ = child.kill();
            let _ = child.wait();
        }
        return ExitCode::FAILURE;
    }
    let pids = sup.pids();
    let report = sup.route(|rank| {
        // The stall monitor declared this rank dead; make it so, which
        // turns the stall into an ordinary socket-EOF death.
        let _ = mn_comm::sys::send_signal(pids[rank], mn_comm::sys::SIGKILL);
    });
    if let ProcAddr::Unix(path) = &addr {
        let _ = std::fs::remove_file(path);
    }
    use std::os::unix::process::ExitStatusExt;
    let mut fault: Option<String> = None;
    let mut error: Option<String> = None;
    for (rank, mut child) in children.into_iter().enumerate() {
        let status = match child.wait() {
            Ok(status) => status,
            Err(e) => {
                error.get_or_insert(format!("waiting on rank {rank}: {e}"));
                continue;
            }
        };
        if let Some(sig) = status.signal() {
            fault.get_or_insert(format!("rank {rank} killed by signal {sig}"));
        } else {
            match status.code() {
                Some(0) | None => {}
                Some(3) => {
                    fault.get_or_insert(format!(
                        "rank {rank} aborted on a fault (diagnosis on its stderr above)"
                    ));
                }
                Some(code) => {
                    error.get_or_insert(format!("rank {rank} exited with code {code}"));
                }
            }
        }
    }
    // A routed death carries the most precise diagnosis: which rank
    // vanished, how it was detected, and how stale its heartbeat was.
    if let Some((rank, age, stalled)) = report.first_death() {
        let how = if stalled {
            "stalled (heartbeat timeout)"
        } else {
            "died (socket closed)"
        };
        eprintln!(
            "fault: rank {rank} {how}; last heartbeat {} ms before detection",
            age.as_millis()
        );
        return ExitCode::from(3);
    }
    if let Some(msg) = fault {
        eprintln!("fault: {msg}");
        return ExitCode::from(3);
    }
    if let Some(msg) = error {
        eprintln!("error: {msg}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

// ---------------------------------------------------------------------
// `monet serve` / `monet client` — the long-lived service (DESIGN.md
// §16)
// ---------------------------------------------------------------------

fn serve_usage() -> ! {
    eprintln!(
        "usage: monet serve --listen unix:<path>|tcp:<host:port>\n\
         \x20      [--state-dir dir] [--workers N] [--max-queue N]\n\
         \x20      [--telemetry-interval-ms T]"
    );
    std::process::exit(2)
}

fn serve_main(args: &[String]) -> ExitCode {
    use monet_serve::{ServeConfig, Server};
    let flags = Flags::parse(args, &[SERVE_FLAGS], false, serve_usage);
    let Some(listen) = flags.get::<String>("--listen") else {
        serve_usage()
    };
    let addr = match ProcAddr::parse(&listen) {
        Ok(addr) => addr,
        Err(e) => {
            eprintln!("error: --listen {listen}: {e}");
            return ExitCode::from(2);
        }
    };
    let state_dir: String = flags
        .get("--state-dir")
        .unwrap_or("monet-serve-state".into());
    let mut cfg = ServeConfig::new(addr, state_dir.into());
    cfg.workers = flags.get("--workers").unwrap_or(cfg.workers).max(1);
    cfg.max_queue = flags.get("--max-queue").unwrap_or(cfg.max_queue).max(1);
    if let Some(ms) = flags.get::<u64>("--telemetry-interval-ms") {
        cfg.telemetry_interval = Duration::from_millis(ms.max(1));
    }
    let server = Server::bind(cfg).unwrap_or_else(|e| exit_error(format!("binding listener: {e}")));
    // Scripts (CI, tests) wait for this exact line before connecting.
    println!("listening on {}", server.local_addr());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    match server.run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: serving: {e}");
            ExitCode::FAILURE
        }
    }
}

fn client_usage() -> ! {
    eprintln!(
        "usage: monet client --connect <addr> <op> [flags]\n\
         ops:\n\
         \x20 ping\n\
         \x20 register --tenant T --dataset D (--synthetic n,m [--seed s] | --tsv path)\n\
         \x20 submit --tenant T --dataset D [--engine serial|threads:<p>|sim:<p>]\n\
         \x20        [--seed N] [--ganesh-runs G] [--update-steps U] [--init-clusters K0]\n\
         \x20        [--trees R] [--splits-per-node J] [--sampling-steps S] [--threshold T]\n\
         \x20        [--reference]\n\
         \x20 status --job J | watch --job J [--from N] | result --job J [--json path]\n\
         \x20 cancel --job J | suspend --job J | resume --job J [--engine E]\n\
         \x20 accounting [--tenant T] | jobs [--tenant T] | shutdown | raw <line>"
    );
    std::process::exit(2)
}

fn client_main(args: &[String]) -> ExitCode {
    use monet_serve::client::Reply;
    use monet_serve::Client;

    // The op is the first word; `--connect` may come before or after it.
    let op_at = if args.first().is_some_and(|a| a == "--connect") {
        2
    } else {
        0
    };
    let Some(op) = args.get(op_at) else {
        client_usage()
    };
    let Some(table) = client_op_flags(op) else {
        client_usage()
    };
    let rest = [&args[..op_at], &args[op_at + 1..]].concat();
    let learn: Table = if op == "submit" { &LEARN_FLAGS } else { &[] };
    let tables = [CONNECT_FLAG, table, learn];
    let flags = Flags::parse(&rest, &tables, op == "raw", client_usage);
    let need = |name: &str| -> String { flags.get(name).unwrap_or_else(|| client_usage()) };
    let connect = need("--connect");
    let addr = match ProcAddr::parse(&connect) {
        Ok(addr) => addr,
        Err(e) => {
            eprintln!("error: --connect {connect}: {e}");
            return ExitCode::from(2);
        }
    };
    let mut client = Client::connect(&addr, Duration::from_secs(10))
        .unwrap_or_else(|e| exit_error(format!("connecting to {connect}: {e}")));

    // Each op prints the server's response line on stdout; a typed
    // refusal prints it and exits 1 (except `raw`, which only reports
    // transport failures — CI asserts on its output with jq).
    let print = |value: &serde::Content| {
        let line = serde_json::to_string(value).expect("response reserializes");
        println!("{line}");
        ExitCode::SUCCESS
    };
    let transport = |e: std::io::Error| {
        eprintln!("error: {e}");
        ExitCode::FAILURE
    };
    let finish = |reply: std::io::Result<Reply>| -> ExitCode {
        match reply {
            Ok(Reply::Ok(value)) => print(&value),
            Ok(Reply::Err(err)) => {
                println!("{}", monet_serve::proto::err_line(&err));
                ExitCode::FAILURE
            }
            Err(e) => transport(e),
        }
    };

    match op.as_str() {
        "ping" => finish(client.ping()),
        "register" => {
            let (tenant, dataset) = (need("--tenant"), need("--dataset"));
            if let Some(tsv) = flags.get::<String>("--tsv") {
                return finish(client.register_tsv(&tenant, &dataset, &tsv));
            }
            let Some(Shape(n, m)) = flags.get("--synthetic") else {
                client_usage()
            };
            let seed = flags.get("--seed").unwrap_or(0);
            finish(client.register_synthetic(&tenant, &dataset, n, m, seed))
        }
        "submit" => {
            let (tenant, dataset) = (need("--tenant"), need("--dataset"));
            let engine: String = flags.get("--engine").unwrap_or("serial".into());
            let config = match learn_config(&flags).validated() {
                Ok(config) => config,
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::from(2);
                }
            };
            finish(client.submit(&tenant, &dataset, &engine, &config))
        }
        "status" => finish(client.status(&need("--job"))),
        "cancel" => finish(client.cancel(&need("--job"))),
        "suspend" => finish(client.suspend(&need("--job"))),
        "resume" => {
            let engine = flags.get::<String>("--engine");
            finish(client.resume(&need("--job"), engine.as_deref()))
        }
        "watch" => {
            let from = flags.get("--from").unwrap_or(0);
            match client.watch(&need("--job"), from, |line| println!("{line}")) {
                Ok(done) => print(&done),
                Err(e) => transport(e),
            }
        }
        "result" => match client.result_of(&need("--job")) {
            Ok(Reply::Ok(value)) => {
                let Some(network_json) = value["network_json"].as_str() else {
                    eprintln!("error: response carried no network_json");
                    return ExitCode::FAILURE;
                };
                if let Some(path) = flags.get::<String>("--json") {
                    // The exact batch-CLI `--json` bytes.
                    if let Err(e) = std::fs::write(&path, network_json) {
                        eprintln!("error: writing {path}: {e}");
                        return ExitCode::FAILURE;
                    }
                } else {
                    println!("{network_json}");
                }
                ExitCode::SUCCESS
            }
            other => finish(other),
        },
        "accounting" => finish(client.accounting(flags.get::<String>("--tenant").as_deref())),
        "jobs" => finish(client.jobs(flags.get::<String>("--tenant").as_deref())),
        "shutdown" => finish(client.shutdown()),
        // "raw": send one arbitrary line and print whatever comes back
        // — the hostile-input drill hook. Exit 0 iff a response line
        // arrived; content assertions belong to the caller (jq).
        _ => {
            if flags.words.is_empty() {
                client_usage();
            }
            match client.raw(&flags.words.join(" ")) {
                Ok(value) => print(&value),
                Err(e) => transport(e),
            }
        }
    }
}
