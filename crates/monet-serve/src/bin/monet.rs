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
//! fault-aborted run exits with code 3. `--comm-timeout-ms` bounds
//! every fabric receive on the msg engine so dropped messages surface
//! as timeouts instead of hangs.
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
//! `resume`, `accounting`, `jobs`, `shutdown`, `raw`); a served job's
//! result is byte-identical to this binary's batch `--json` output for
//! the same dataset, seed, and config.

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
    learn_module_network, learn_with_checkpoint_policy, LearnerConfig, ModuleNetwork,
    ResumePolicy, RunMetrics,
};
use std::process::ExitCode;
use std::time::Duration;

struct Options {
    input: Option<String>,
    synthetic: Option<(usize, usize)>,
    engine: EngineSpec,
    seed: u64,
    ganesh_runs: usize,
    update_steps: usize,
    init_clusters: Option<usize>,
    trees: usize,
    splits_per_node: usize,
    sampling_steps: usize,
    threshold: f64,
    reference: bool,
    candidates: Option<String>,
    xml: Option<String>,
    json: Option<String>,
    trace: Option<String>,
    metrics_out: Option<String>,
    checkpoint_dir: Option<String>,
    resume: bool,
    force_restart: bool,
    fault: Option<String>,
    comm_timeout_ms: Option<u64>,
    telemetry_out: Option<String>,
    telemetry_interval_ms: u64,
    flightrec_dir: Option<String>,
    dag: bool,
    quiet: bool,
    /// Set when invoked as the hidden `worker` subcommand: this process
    /// is one rank of a `proc:<p>` run.
    worker: Option<WorkerOpts>,
}

impl Options {
    /// Flag defaults — shared by the batch parser and the `client
    /// submit` learn-flag parser, so a served job's config defaults
    /// match the batch CLI's exactly.
    fn defaults() -> Options {
        Options {
            input: None,
            synthetic: None,
            engine: EngineSpec::Serial,
            seed: 0,
            ganesh_runs: 1,
            update_steps: 1,
            init_clusters: None,
            trees: 1,
            splits_per_node: 2,
            sampling_steps: 8,
            threshold: 0.0,
            reference: false,
            candidates: None,
            xml: None,
            json: None,
            trace: None,
            metrics_out: None,
            checkpoint_dir: None,
            resume: false,
            force_restart: false,
            fault: None,
            comm_timeout_ms: None,
            telemetry_out: None,
            telemetry_interval_ms: 1000,
            flightrec_dir: None,
            dag: false,
            quiet: false,
            worker: None,
        }
    }
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

fn parse_options() -> Options {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // Hidden subcommand: `monet worker --proc-rank k --proc-nranks p
    // --proc-socket addr <forwarded run flags>` — the per-rank child
    // entrypoint the proc-engine supervisor spawns.
    let is_worker = args.first().map(String::as_str) == Some("worker");
    if is_worker {
        args.remove(0);
    }
    let mut proc_rank: Option<usize> = None;
    let mut proc_nranks: Option<usize> = None;
    let mut proc_socket: Option<String> = None;
    let mut opts = Options::defaults();
    let mut i = 0;
    let value = |args: &[String], i: &mut usize| -> String {
        *i += 1;
        args.get(*i).cloned().unwrap_or_else(|| usage())
    };
    while i < args.len() {
        match args[i].as_str() {
            "--input" => opts.input = Some(value(&args, &mut i)),
            "--synthetic" => {
                let v = value(&args, &mut i);
                let parts: Vec<&str> = v.split(',').collect();
                if parts.len() != 2 {
                    usage();
                }
                let n = parts[0].parse().unwrap_or_else(|_| usage());
                let m = parts[1].parse().unwrap_or_else(|_| usage());
                opts.synthetic = Some((n, m));
            }
            "--engine" => {
                opts.engine = value(&args, &mut i).parse().unwrap_or_else(|e| {
                    eprintln!("{e}");
                    usage()
                })
            }
            "--seed" => opts.seed = value(&args, &mut i).parse().unwrap_or_else(|_| usage()),
            "--ganesh-runs" => {
                opts.ganesh_runs = value(&args, &mut i).parse().unwrap_or_else(|_| usage())
            }
            "--update-steps" => {
                opts.update_steps = value(&args, &mut i).parse().unwrap_or_else(|_| usage())
            }
            "--init-clusters" => {
                opts.init_clusters =
                    Some(value(&args, &mut i).parse().unwrap_or_else(|_| usage()))
            }
            "--trees" => opts.trees = value(&args, &mut i).parse().unwrap_or_else(|_| usage()),
            "--splits-per-node" => {
                opts.splits_per_node = value(&args, &mut i).parse().unwrap_or_else(|_| usage())
            }
            "--sampling-steps" => {
                opts.sampling_steps = value(&args, &mut i).parse().unwrap_or_else(|_| usage())
            }
            "--threshold" => {
                opts.threshold = value(&args, &mut i).parse().unwrap_or_else(|_| usage())
            }
            "--reference" => opts.reference = true,
            "--candidates" => opts.candidates = Some(value(&args, &mut i)),
            "--xml" => opts.xml = Some(value(&args, &mut i)),
            "--json" => opts.json = Some(value(&args, &mut i)),
            "--trace" => opts.trace = Some(value(&args, &mut i)),
            "--metrics-out" => opts.metrics_out = Some(value(&args, &mut i)),
            "--checkpoint-dir" => opts.checkpoint_dir = Some(value(&args, &mut i)),
            "--resume" => opts.resume = true,
            "--force-restart" => opts.force_restart = true,
            "--fault" => opts.fault = Some(value(&args, &mut i)),
            "--comm-timeout-ms" => {
                opts.comm_timeout_ms =
                    Some(value(&args, &mut i).parse().unwrap_or_else(|_| usage()))
            }
            "--telemetry-out" => opts.telemetry_out = Some(value(&args, &mut i)),
            "--telemetry-interval-ms" => {
                opts.telemetry_interval_ms =
                    value(&args, &mut i).parse().unwrap_or_else(|_| usage())
            }
            "--flightrec-dir" => opts.flightrec_dir = Some(value(&args, &mut i)),
            "--dag" => opts.dag = true,
            "--quiet" => opts.quiet = true,
            "--proc-rank" if is_worker => {
                proc_rank = Some(value(&args, &mut i).parse().unwrap_or_else(|_| usage()))
            }
            "--proc-nranks" if is_worker => {
                proc_nranks = Some(value(&args, &mut i).parse().unwrap_or_else(|_| usage()))
            }
            "--proc-socket" if is_worker => proc_socket = Some(value(&args, &mut i)),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other:?}");
                usage()
            }
        }
        i += 1;
    }
    if opts.input.is_none() == opts.synthetic.is_none() {
        eprintln!("exactly one of --input / --synthetic is required");
        usage();
    }
    if (opts.resume || opts.force_restart) && opts.checkpoint_dir.is_none() {
        eprintln!("--resume / --force-restart require --checkpoint-dir");
        usage();
    }
    if is_worker {
        match (proc_rank, proc_nranks, proc_socket) {
            (Some(rank), Some(nranks), Some(socket)) if rank < nranks && nranks >= 1 => {
                opts.worker = Some(WorkerOpts {
                    rank,
                    nranks,
                    socket,
                });
            }
            _ => {
                eprintln!("worker requires --proc-rank < --proc-nranks and --proc-socket");
                usage();
            }
        }
    }
    opts
}

fn load_data(opts: &Options) -> Result<Dataset, String> {
    if let Some(path) = &opts.input {
        return mn_data::read_tsv_file(path).map_err(|e| format!("reading {path}: {e}"));
    }
    let (n, m) = opts.synthetic.unwrap();
    Ok(mn_data::synthetic::yeast_like(n, m, opts.seed).dataset)
}

/// The data-independent part of [`build_config`]: everything except
/// candidate-regulator resolution. `client submit` uses it directly,
/// which is what makes a served job's config byte-identical to the
/// batch CLI's for the same flags.
fn base_config(opts: &Options) -> LearnerConfig {
    let mut config = LearnerConfig::paper_minimum(opts.seed);
    config.ganesh_runs = opts.ganesh_runs;
    config.ganesh.update_steps = opts.update_steps;
    config.ganesh.init_clusters = opts.init_clusters;
    config.consensus.threshold = opts.threshold;
    config.tree.update_steps = opts.trees + 1;
    config.tree.burn_in = 1;
    config.tree.splits_per_node = opts.splits_per_node;
    config.tree.max_sampling_steps = opts.sampling_steps;
    if opts.reference {
        config = config.with_mode(ScoreMode::Reference);
    }
    config
}

fn build_config(opts: &Options, data: &Dataset) -> Result<LearnerConfig, String> {
    let mut config = base_config(opts);
    if let Some(path) = &opts.candidates {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        let names: Vec<String> = text.split_whitespace().map(String::from).collect();
        let mut indices = Vec::with_capacity(names.len());
        for name in &names {
            match data.var_names.iter().position(|v| v == name) {
                Some(idx) => indices.push(idx),
                None => return Err(format!("candidate regulator {name:?} not in data set")),
            }
        }
        config.candidate_parents = Some(indices);
    }
    config.validated()
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
    /// into `dir` (created if missing). Best-effort: dump failures are
    /// reported but never change the exit code — post-mortem tooling
    /// must not mask the original failure.
    fn dump_flight_recorders(&self, dir: &str, quiet: bool) {
        let dir = std::path::Path::new(dir);
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("warning: flight recorder dir {}: {e}", dir.display());
            return;
        }
        for flight in &self.flights {
            match flight.dump_to_dir(dir) {
                Ok(path) => {
                    if !quiet {
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

/// The checkpoint request derived from the flags: directory plus
/// resume policy.
fn checkpoint_request(opts: &Options) -> Option<(String, ResumePolicy)> {
    opts.checkpoint_dir.as_ref().map(|dir| {
        let policy = if opts.force_restart {
            ResumePolicy::ForceRestart
        } else if opts.resume {
            ResumePolicy::Strict
        } else {
            ResumePolicy::Auto
        };
        (dir.clone(), policy)
    })
}

fn run_on<E: ParEngine>(
    engine: &mut E,
    data: &Dataset,
    config: &LearnerConfig,
    ckpt: Option<&(String, ResumePolicy)>,
) -> Result<(ModuleNetwork, RunReport, ObsSnapshot), RunFailure> {
    let (network, report) = match ckpt {
        Some((dir, policy)) => {
            learn_with_checkpoint_policy(engine, data, config, dir, *policy)
                .map_err(|e| RunFailure::Error(e.to_string()))?
        }
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
    telemetry: Option<&TelemetryHandle>,
    capture: &mut Capture,
) -> Result<(ModuleNetwork, RunReport, ObsSnapshot), RunFailure> {
    let ckpt = checkpoint_request(opts);
    let nranks = match opts.engine {
        EngineSpec::Serial => 1,
        EngineSpec::Threads(p) | EngineSpec::Sim(p) | EngineSpec::Msg(p)
        | EngineSpec::Proc(p) => p,
    };
    let plan = match &opts.fault {
        Some(spec) => FaultPlan::parse(spec, nranks).map_err(RunFailure::Error)?,
        None => FaultPlan::new(),
    };
    if !plan.is_empty() {
        silence_injected_panics();
    }
    match opts.engine {
        // Single-process engines count *engine* events (each dist_map /
        // collective / replicated call), attributed to rank 0.
        EngineSpec::Serial => run_single(
            SerialEngine::new().with_fault_plan(plan),
            data,
            config,
            ckpt.as_ref(),
            telemetry,
            capture,
        ),
        EngineSpec::Threads(p) => run_single(
            ThreadEngine::new(p).with_fault_plan(plan),
            data,
            config,
            ckpt.as_ref(),
            telemetry,
            capture,
        ),
        EngineSpec::Sim(p) => run_single(
            SimEngine::new(p).with_fault_plan(plan),
            data,
            config,
            ckpt.as_ref(),
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
            let timeout = opts.comm_timeout_ms.map(Duration::from_millis);
            let (outcomes, spmd_capture) = spmd_run_faulty_recorded(p, plan, timeout, |engine| {
                // The telemetry delta stream is a single per-stream
                // state machine, so exactly one rank feeds it.
                if engine.rank() == 0 {
                    if let Some(handle) = telemetry {
                        engine.obs_mut().set_telemetry(handle.clone());
                    }
                }
                run_on(engine, data, config, ckpt.as_ref())
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
                        survivor_failure.get_or_insert(RunFailure::Fault(format!(
                            "rank {rank} aborted: {e}"
                        )));
                    }
                }
            }
            if let Some(failure) = survivor_failure {
                return Err(failure);
            }
            let snapshots: Vec<ObsSnapshot> =
                results.iter().map(|(_, _, s)| s.clone()).collect();
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

/// Open the `--telemetry-out` sink, if requested.
fn open_telemetry(opts: &Options) -> Result<Option<TelemetrySink>, String> {
    match &opts.telemetry_out {
        Some(path) => {
            let interval = Duration::from_millis(opts.telemetry_interval_ms);
            TelemetrySink::to_path(path, interval)
                .map(Some)
                .map_err(|e| format!("opening telemetry stream {path}: {e}"))
        }
        None => Ok(None),
    }
}

fn main() -> ExitCode {
    // Service subcommands dispatch before the batch flag parser (the
    // same pattern as the hidden `worker` subcommand).
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("serve") => return serve_main(&args[1..]),
        Some("client") => return client_main(&args[1..]),
        _ => {}
    }
    let opts = parse_options();
    if let Some(worker) = &opts.worker {
        return run_worker_entry(&opts, worker);
    }
    if let EngineSpec::Proc(p) = opts.engine {
        return run_supervisor(&opts, p);
    }
    if opts.quiet {
        mn_comm::obs::set_quiet(true);
    }
    let data = match load_data(&opts) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let config = match build_config(&opts, &data) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let sink = match open_telemetry(&opts) {
        Ok(sink) => sink,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let handle = sink.as_ref().map(|s| s.handle());
    let mut capture = Capture::default();
    let result = run(&opts, &data, &config, handle.as_ref(), &mut capture);
    drop(handle);
    if let Some(sink) = sink {
        // The engines (and their cloned handles) are gone by now, so
        // this only drains buffered lines and joins the writer.
        if let Err(e) = sink.finish() {
            eprintln!("warning: telemetry stream: {e}");
        }
    }
    let (network, report, snapshot) = match result {
        Ok(result) => {
            // An explicit dump directory asks for recorders even from
            // clean runs (replay comparison across engines).
            if let Some(dir) = &opts.flightrec_dir {
                capture.dump_flight_recorders(dir, opts.quiet);
            }
            result
        }
        Err(failure) => {
            // Post-mortem: every failed run leaves its per-rank flight
            // recorder dumps, and — when a dying rank stashed its final
            // snapshot — the best-effort timeline the --trace flag asked
            // for.
            let dir = opts.flightrec_dir.clone().unwrap_or_else(|| ".".to_string());
            capture.dump_flight_recorders(&dir, opts.quiet);
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
                    return ExitCode::FAILURE;
                }
                RunFailure::Fault(e) => {
                    eprintln!("fault: {e}");
                    return ExitCode::from(3);
                }
            }
        }
    };

    write_outputs(&opts, &network, &report, &snapshot)
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
        println!("total: {:.4}s on {} rank(s)", report.total_s(), report.nranks);
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
fn run_worker_entry(opts: &Options, w: &WorkerOpts) -> ExitCode {
    // Only rank 0 speaks: the summary, telemetry stream, and output
    // files all come from rank 0; the other ranks run silent.
    let quiet = opts.quiet || w.rank != 0;
    if quiet {
        mn_comm::obs::set_quiet(true);
    }
    let data = match load_data(opts) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let config = match build_config(opts, &data) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let plan = match &opts.fault {
        Some(spec) => match FaultPlan::parse(spec, w.nranks) {
            Ok(plan) => plan,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => FaultPlan::new(),
    };
    if !plan.is_empty() {
        silence_injected_panics();
    }
    let addr = match ProcAddr::parse(&w.socket) {
        Ok(addr) => addr,
        Err(e) => {
            eprintln!("error: --proc-socket: {e}");
            return ExitCode::FAILURE;
        }
    };
    let timeout = opts.comm_timeout_ms.map(Duration::from_millis);
    let dump_dir = opts
        .flightrec_dir
        .clone()
        .unwrap_or_else(|| ".".to_string());
    // A supervisor that never appears (or never finishes the
    // handshake) is a bounded, typed failure — the same exit code 3 a
    // mid-run fault gets, since from this rank's perspective the
    // fabric failed.
    let ep = match connect_worker(WorkerConfig {
        rank: w.rank,
        nranks: w.nranks,
        addr,
        connect_timeout: timeout.unwrap_or(DEFAULT_CONNECT_TIMEOUT),
        recv_timeout: timeout,
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
    {
        let flight = flight.clone();
        let dir = dump_dir.clone();
        mn_comm::sys::on_sigterm(move || {
            let _ = std::fs::create_dir_all(&dir);
            let _ = flight.dump_to_dir(std::path::Path::new(&dir));
        });
    }
    {
        let flight = flight.clone();
        let dir = dump_dir.clone();
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let _ = std::fs::create_dir_all(&dir);
            let _ = flight.dump_to_dir(std::path::Path::new(&dir));
            prev(info);
        }));
    }
    let sink = if w.rank == 0 {
        match open_telemetry(opts) {
            Ok(sink) => sink,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        None
    };
    let handle = sink.as_ref().map(|s| s.handle());
    let ckpt = checkpoint_request(opts);
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        if let Some(handle) = &handle {
            engine.obs_mut().set_telemetry(handle.clone());
        }
        let (network, report, snapshot) = run_on(&mut engine, &data, &config, ckpt.as_ref())?;
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
    let result = match outcome {
        Ok(result) => result,
        Err(payload) => Err(fault_failure(payload)),
    };
    // Goodbye on every deliberate exit — success or diagnosed fault —
    // so the supervisor's EOF-is-death detection only fires for ranks
    // that really vanished (SIGKILL, crash). A survivor aborting on a
    // peer's death reports it through exit code 3, not by looking dead
    // itself.
    engine.endpoint().goodbye();
    drop(handle);
    if let Some(sink) = sink {
        if let Err(e) = sink.finish() {
            eprintln!("warning: telemetry stream: {e}");
        }
    }
    let dump_flight = |always: bool| {
        if always || opts.flightrec_dir.is_some() {
            let dir = std::path::Path::new(&dump_dir);
            let _ = std::fs::create_dir_all(dir);
            match flight.dump_to_dir(dir) {
                Ok(path) => {
                    if !quiet {
                        eprintln!("flight recorder: {}", path.display());
                    }
                }
                Err(e) => eprintln!("warning: flight recorder dump: {e}"),
            }
        }
    };
    match result {
        Ok((network, report, snapshots)) => {
            dump_flight(false);
            if w.rank != 0 {
                return ExitCode::SUCCESS;
            }
            let merged = match mn_comm::obs::merge_ranks(&snapshots) {
                Ok(merged) => merged,
                Err(e) => {
                    eprintln!("error: rank merge failed: {e}");
                    return ExitCode::FAILURE;
                }
            };
            write_outputs(opts, &network, &report, &merged)
        }
        Err(failure) => {
            dump_flight(true);
            if w.rank == 0 {
                if let Some(path) = &opts.trace {
                    if let Some(snap) = stash.get() {
                        let trace = mn_comm::obs::chrome_trace_json(&snap);
                        if std::fs::write(path, trace).is_ok() && !quiet {
                            eprintln!("post-mortem trace: {path}");
                        }
                    }
                }
            }
            match failure {
                RunFailure::Error(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
                RunFailure::Fault(e) => {
                    eprintln!("fault: rank {}: {e}", w.rank);
                    ExitCode::from(3)
                }
            }
        }
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
    let data = match load_data(opts) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = build_config(opts, &data) {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    drop(data);
    if let Some(spec) = &opts.fault {
        if let Err(e) = FaultPlan::parse(spec, p) {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }
    let addr = match std::env::var("MN_PROC_ADDR") {
        Ok(spec) => match ProcAddr::parse(&spec) {
            Ok(addr) => addr,
            Err(e) => {
                eprintln!("error: MN_PROC_ADDR: {e}");
                return ExitCode::FAILURE;
            }
        },
        Err(_) => ProcAddr::Unix(
            std::env::temp_dir().join(format!("mn-proc-{}.sock", std::process::id())),
        ),
    };
    let mut sup = match Supervisor::bind(&addr, p) {
        Ok(sup) => sup,
        Err(e) => {
            eprintln!("error: binding {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let worker_addr = sup.addr().to_string();
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("error: resolving own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
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
    let timeout = opts
        .comm_timeout_ms
        .map(Duration::from_millis)
        .unwrap_or(DEFAULT_CONNECT_TIMEOUT);
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
    let mut listen: Option<String> = None;
    let mut state_dir = "monet-serve-state".to_string();
    let mut workers = 2usize;
    let mut max_queue = 64usize;
    let mut interval_ms = 50u64;
    let mut i = 0;
    let value = |args: &[String], i: &mut usize| -> String {
        *i += 1;
        args.get(*i).cloned().unwrap_or_else(|| serve_usage())
    };
    while i < args.len() {
        match args[i].as_str() {
            "--listen" => listen = Some(value(args, &mut i)),
            "--state-dir" => state_dir = value(args, &mut i),
            "--workers" => workers = value(args, &mut i).parse().unwrap_or_else(|_| serve_usage()),
            "--max-queue" => {
                max_queue = value(args, &mut i).parse().unwrap_or_else(|_| serve_usage())
            }
            "--telemetry-interval-ms" => {
                interval_ms = value(args, &mut i).parse().unwrap_or_else(|_| serve_usage())
            }
            _ => serve_usage(),
        }
        i += 1;
    }
    let Some(listen) = listen else { serve_usage() };
    let addr = match ProcAddr::parse(&listen) {
        Ok(addr) => addr,
        Err(e) => {
            eprintln!("error: --listen {listen}: {e}");
            return ExitCode::from(2);
        }
    };
    let mut cfg = ServeConfig::new(addr, state_dir.into());
    cfg.workers = workers.max(1);
    cfg.max_queue = max_queue.max(1);
    cfg.telemetry_interval = Duration::from_millis(interval_ms.max(1));
    let server = match Server::bind(cfg) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("error: binding listener: {e}");
            return ExitCode::FAILURE;
        }
    };
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

/// Flat `--flag value` parser for one client op. Boolean flags map to
/// `"true"`.
fn client_flags(args: &[String], bools: &[&str]) -> std::collections::BTreeMap<String, String> {
    let mut flags = std::collections::BTreeMap::new();
    let mut i = 0;
    while i < args.len() {
        let name = match args[i].strip_prefix("--") {
            Some(name) => name.to_string(),
            None => client_usage(),
        };
        if bools.contains(&name.as_str()) {
            flags.insert(name, "true".to_string());
        } else {
            i += 1;
            let Some(v) = args.get(i) else { client_usage() };
            flags.insert(name, v.clone());
        }
        i += 1;
    }
    flags
}

fn client_main(args: &[String]) -> ExitCode {
    use monet_serve::client::Reply;
    use monet_serve::Client;

    // `--connect` may appear before or after the op token.
    let mut connect: Option<String> = None;
    let mut rest: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--connect" {
            i += 1;
            connect = Some(args.get(i).cloned().unwrap_or_else(|| client_usage()));
        } else {
            rest.push(args[i].clone());
        }
        i += 1;
    }
    let Some(connect) = connect else {
        client_usage()
    };
    if rest.is_empty() {
        client_usage();
    }
    let op = rest.remove(0);
    let addr = match ProcAddr::parse(&connect) {
        Ok(addr) => addr,
        Err(e) => {
            eprintln!("error: --connect {connect}: {e}");
            return ExitCode::from(2);
        }
    };
    let mut client = match Client::connect(&addr, Duration::from_secs(10)) {
        Ok(client) => client,
        Err(e) => {
            eprintln!("error: connecting to {connect}: {e}");
            return ExitCode::FAILURE;
        }
    };

    // Each op prints the server's response line on stdout; a typed
    // refusal prints it and exits 1 (except `raw`, which only reports
    // transport failures — CI asserts on its output with jq).
    let finish = |reply: std::io::Result<Reply>| -> ExitCode {
        match reply {
            Ok(Reply::Ok(value)) => {
                println!("{}", serde_json::to_string(&value).expect("response reserializes"));
                ExitCode::SUCCESS
            }
            Ok(Reply::Err(err)) => {
                println!("{}", monet_serve::proto::err_line(&err));
                ExitCode::FAILURE
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        }
    };

    match op.as_str() {
        "ping" => finish(client.ping()),
        "register" => {
            let flags = client_flags(&rest, &[]);
            let (Some(tenant), Some(dataset)) = (flags.get("tenant"), flags.get("dataset"))
            else {
                client_usage()
            };
            if let Some(tsv) = flags.get("tsv") {
                return finish(client.register_tsv(tenant, dataset, tsv));
            }
            let Some(synth) = flags.get("synthetic") else {
                client_usage()
            };
            let parts: Vec<&str> = synth.split(',').collect();
            if parts.len() != 2 {
                client_usage();
            }
            let n: usize = parts[0].parse().unwrap_or_else(|_| client_usage());
            let m: usize = parts[1].parse().unwrap_or_else(|_| client_usage());
            let seed: u64 = flags
                .get("seed")
                .map(|s| s.parse().unwrap_or_else(|_| client_usage()))
                .unwrap_or(0);
            finish(client.register_synthetic(tenant, dataset, n, m, seed))
        }
        "submit" => {
            let flags = client_flags(&rest, &["reference"]);
            let (Some(tenant), Some(dataset)) = (flags.get("tenant"), flags.get("dataset"))
            else {
                client_usage()
            };
            let engine = flags.get("engine").map(String::as_str).unwrap_or("serial");
            // Learn flags land in the same Options the batch parser
            // fills, then go through the same config builder.
            let mut opts = Options::defaults();
            let parse = |flags: &std::collections::BTreeMap<String, String>,
                         name: &str,
                         default: usize|
             -> usize {
                flags
                    .get(name)
                    .map(|v| v.parse().unwrap_or_else(|_| client_usage()))
                    .unwrap_or(default)
            };
            opts.seed = flags
                .get("seed")
                .map(|v| v.parse().unwrap_or_else(|_| client_usage()))
                .unwrap_or(0);
            opts.ganesh_runs = parse(&flags, "ganesh-runs", opts.ganesh_runs);
            opts.update_steps = parse(&flags, "update-steps", opts.update_steps);
            opts.init_clusters = flags
                .get("init-clusters")
                .map(|v| v.parse().unwrap_or_else(|_| client_usage()));
            opts.trees = parse(&flags, "trees", opts.trees);
            opts.splits_per_node = parse(&flags, "splits-per-node", opts.splits_per_node);
            opts.sampling_steps = parse(&flags, "sampling-steps", opts.sampling_steps);
            opts.threshold = flags
                .get("threshold")
                .map(|v| v.parse().unwrap_or_else(|_| client_usage()))
                .unwrap_or(0.0);
            opts.reference = flags.contains_key("reference");
            let config = match base_config(&opts).validated() {
                Ok(config) => config,
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::from(2);
                }
            };
            finish(client.submit(tenant, dataset, engine, &config))
        }
        "status" | "result" | "cancel" | "suspend" | "resume" | "watch" => {
            let flags = client_flags(&rest, &[]);
            let Some(job) = flags.get("job") else {
                client_usage()
            };
            match op.as_str() {
                "status" => finish(client.status(job)),
                "cancel" => finish(client.cancel(job)),
                "suspend" => finish(client.suspend(job)),
                "resume" => finish(client.resume(job, flags.get("engine").map(String::as_str))),
                "watch" => {
                    let from: usize = flags
                        .get("from")
                        .map(|v| v.parse().unwrap_or_else(|_| client_usage()))
                        .unwrap_or(0);
                    match client.watch(job, from, |line| println!("{line}")) {
                        Ok(done) => {
                            println!(
                                "{}",
                                serde_json::to_string(&done).expect("response reserializes")
                            );
                            ExitCode::SUCCESS
                        }
                        Err(e) => {
                            eprintln!("error: {e}");
                            ExitCode::FAILURE
                        }
                    }
                }
                "result" => match client.result_of(job) {
                    Ok(monet_serve::client::Reply::Ok(value)) => {
                        let Some(network_json) = value["network_json"].as_str() else {
                            eprintln!("error: response carried no network_json");
                            return ExitCode::FAILURE;
                        };
                        if let Some(path) = flags.get("json") {
                            // The exact batch-CLI `--json` bytes.
                            if let Err(e) = std::fs::write(path, network_json) {
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
                _ => unreachable!(),
            }
        }
        "accounting" => {
            let flags = client_flags(&rest, &[]);
            finish(client.accounting(flags.get("tenant").map(String::as_str)))
        }
        "jobs" => {
            let flags = client_flags(&rest, &[]);
            finish(client.jobs(flags.get("tenant").map(String::as_str)))
        }
        "shutdown" => finish(client.shutdown()),
        "raw" => {
            // Send one arbitrary line and print whatever comes back —
            // the hostile-input drill hook. Exit 0 iff a response line
            // arrived; content assertions belong to the caller (jq).
            if rest.is_empty() {
                client_usage();
            }
            let line = rest.join(" ");
            match client.raw(&line) {
                Ok(value) => {
                    println!(
                        "{}",
                        serde_json::to_string(&value).expect("response reserializes")
                    );
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        _ => client_usage(),
    }
}
