//! End-to-end tests of `monet-serve`: the long-lived multi-tenant
//! learning service (DESIGN.md §16).
//!
//! The server runs in-process on a Unix socket; clients speak the real
//! wire protocol. The batch-comparison tests additionally shell out to
//! the `monet` binary, asserting that a served job's result is
//! byte-identical to the batch CLI's `--json` output for the same
//! flags.

use mn_comm::msg::proc::{connect, ProcAddr};
use monet::LearnerConfig;
use monet_serve::client::Reply;
use monet_serve::{Client, ServeConfig, Server};
use serde::Content;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::PathBuf;
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

fn monet_bin() -> PathBuf {
    let mut path = std::env::current_exe().expect("test exe path");
    path.pop();
    if path.ends_with("deps") {
        path.pop();
    }
    path.join("monet")
}

static NEXT_DIR: AtomicUsize = AtomicUsize::new(0);

fn fresh_dir(tag: &str) -> PathBuf {
    let n = NEXT_DIR.fetch_add(1, Ordering::SeqCst);
    let dir = std::env::temp_dir().join(format!("mnsrv_{}_{tag}_{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

struct TestServer {
    addr: ProcAddr,
    state_dir: PathBuf,
    thread: Option<std::thread::JoinHandle<std::io::Result<()>>>,
}

impl TestServer {
    fn start(tag: &str, workers: usize, max_queue: usize) -> TestServer {
        TestServer::start_in(&fresh_dir(tag), workers, max_queue)
    }

    /// A server on `dir/sock` whose state dir is `dir/state`, which
    /// may hold an earlier server's jobs.
    fn start_in(dir: &std::path::Path, workers: usize, max_queue: usize) -> TestServer {
        let addr = ProcAddr::Unix(dir.join("sock"));
        let mut cfg = ServeConfig::new(addr, dir.join("state"));
        cfg.workers = workers;
        cfg.max_queue = max_queue;
        cfg.telemetry_interval = Duration::from_millis(10);
        let server = Server::bind(cfg).expect("bind server");
        let addr = server.local_addr().clone();
        let state_dir = dir.join("state");
        let thread = std::thread::spawn(move || server.run());
        TestServer {
            addr,
            state_dir,
            thread: Some(thread),
        }
    }

    fn client(&self) -> Client {
        Client::connect(&self.addr, Duration::from_secs(10)).expect("connect")
    }

    /// Ask the server to stop and wait for it.
    fn shutdown(mut self) {
        let _ = self.client().shutdown();
        if let Some(t) = self.thread.take() {
            t.join().expect("server thread").expect("server run");
        }
    }
}

fn ok(reply: std::io::Result<Reply>) -> Content {
    match reply.expect("rpc transport") {
        Reply::Ok(value) => value,
        Reply::Err(err) => panic!("unexpected typed error: {err}"),
    }
}

fn err(reply: std::io::Result<Reply>) -> monet_serve::ServeError {
    match reply.expect("rpc transport") {
        Reply::Ok(value) => panic!("expected an error, got {value:?}"),
        Reply::Err(err) => err,
    }
}

/// Poll a job's status until it reaches `want` (panics on timeout or
/// on reaching a different terminal state first).
fn wait_state(client: &mut Client, job: &str, want: &str, timeout: Duration) {
    let deadline = Instant::now() + timeout;
    loop {
        let status = ok(client.status(job));
        let state = status["state"].as_str().expect("state").to_string();
        if state == want {
            return;
        }
        let terminal = matches!(state.as_str(), "done" | "failed" | "cancelled");
        assert!(
            !terminal,
            "job {job} reached terminal state {state:?} while waiting for {want:?} ({:?})",
            status["error"].as_str()
        );
        assert!(
            Instant::now() < deadline,
            "timed out waiting for job {job} to reach {want:?} (currently {state:?})"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn job_id(reply: std::io::Result<Reply>) -> String {
    ok(reply)["job"].as_str().expect("job id").to_string()
}

/// Watch `job` from line `from` to its end: the event lines, then the
/// final `done` response.
fn watch_all(client: &mut Client, job: &str, from: usize) -> (Vec<String>, Content) {
    let mut lines = Vec::new();
    let done = client
        .watch(job, from, |line| lines.push(line.to_string()))
        .expect("watch");
    (lines, done)
}

/// The `what` of every lifecycle event line, in order.
fn lifecycle(lines: &[String]) -> Vec<String> {
    lines
        .iter()
        .map(|l| serde_json::from_str::<Content>(l).unwrap())
        .filter(|v| v["type"].as_str() == Some("event"))
        .map(|v| v["what"].as_str().unwrap().to_string())
        .collect()
}

fn counters_of(value: &Content) -> BTreeMap<String, u64> {
    let Content::Map(pairs) = value else {
        panic!("counters is not a map: {value:?}")
    };
    pairs
        .iter()
        .filter(|(k, _)| !k.starts_with("checkpoint."))
        .map(|(k, v)| (k.clone(), v.as_u64().expect("counter value")))
        .collect()
}

/// A config that takes long enough (in a debug build) for suspension
/// and cancellation to land mid-run with a wide margin.
fn slow_config(seed: u64) -> LearnerConfig {
    let mut config = LearnerConfig::paper_minimum(seed);
    config.ganesh_runs = 2;
    config.tree.update_steps = 3; // --trees 2
    config.validated().unwrap()
}

#[test]
fn two_tenants_run_concurrently_with_consistent_accounting() {
    let server = TestServer::start("tenants", 2, 16);
    let mut alice = server.client();
    let mut bob = server.client();

    ok(alice.register_synthetic("alice", "expr", 16, 12, 3));
    ok(bob.register_synthetic("bob", "expr", 14, 10, 4));

    let cfg_a = LearnerConfig::paper_minimum(3);
    let cfg_b = LearnerConfig::paper_minimum(4);
    let job_a = ok(alice.submit("alice", "expr", "threads:2", &cfg_a))["job"]
        .as_str()
        .unwrap()
        .to_string();
    let job_b = ok(bob.submit("bob", "expr", "serial", &cfg_b))["job"]
        .as_str()
        .unwrap()
        .to_string();

    wait_state(&mut alice, &job_a, "done", Duration::from_secs(120));
    wait_state(&mut bob, &job_b, "done", Duration::from_secs(120));

    // Both tenants get valid, tenant-isolated results.
    let result_a = ok(alice.result_of(&job_a));
    let network_a = monet::from_json(result_a["network_json"].as_str().unwrap()).unwrap();
    network_a.validate();
    let result_b = ok(bob.result_of(&job_b));
    let network_b = monet::from_json(result_b["network_json"].as_str().unwrap()).unwrap();
    network_b.validate();

    // The served run charges exactly the deterministic counters an
    // identical in-process run produces (checkpoint bookkeeping
    // counters excluded — the batch path has no checkpoint store).
    let accounting = ok(alice.accounting(None));
    let acct_a = &accounting["tenants"]["alice"];
    assert_eq!(acct_a["submitted"].as_u64(), Some(1));
    assert_eq!(acct_a["completed"].as_u64(), Some(1));
    assert!(acct_a["busy_s"].as_f64().unwrap() > 0.0);
    let data = mn_data::synthetic::yeast_like(16, 12, 3).dataset;
    let mut engine = mn_comm::ThreadEngine::new(2);
    let (reference_network, _) = monet::learn_module_network(&mut engine, &data, &cfg_a);
    assert_eq!(
        result_a["network_json"].as_str().unwrap(),
        monet::to_json(&reference_network),
        "served result differs from the identical in-process run"
    );
    use mn_comm::ParEngine as _;
    let reference: BTreeMap<String, u64> = engine
        .obs()
        .counters()
        .iter()
        .filter(|(k, _)| !k.starts_with("checkpoint."))
        .map(|(k, v)| (k.clone(), *v))
        .collect();
    assert_eq!(
        counters_of(&acct_a["counters"]),
        reference,
        "tenant accounting counters drifted from the engine's"
    );

    // A job listing scoped to one tenant never shows the other's work.
    let jobs = ok(bob.jobs(Some("bob")));
    let Content::Seq(entries) = &jobs["jobs"] else {
        panic!("jobs is not a list")
    };
    assert_eq!(entries.len(), 1);
    assert_eq!(entries[0]["tenant"].as_str(), Some("bob"));

    server.shutdown();
}

#[test]
fn cancellation_backpressure_and_unknowns_are_typed() {
    let server = TestServer::start("cancel", 1, 1);
    let mut client = server.client();
    ok(client.register_synthetic("t", "d", 32, 24, 7));

    // Job A occupies the single worker; B fills the one queue slot.
    let slow = slow_config(7);
    let job_a = ok(client.submit("t", "d", "serial", &slow))["job"]
        .as_str()
        .unwrap()
        .to_string();
    wait_state(&mut client, &job_a, "running", Duration::from_secs(60));
    let job_b = ok(client.submit("t", "d", "serial", &slow))["job"]
        .as_str()
        .unwrap()
        .to_string();

    // The third submission is refused with typed backpressure, not a
    // hang and not a panic.
    match err(client.submit("t", "d", "serial", &slow)) {
        monet_serve::ServeError::Backpressure { queued, limit } => {
            assert_eq!((queued, limit), (1, 1));
        }
        other => panic!("expected backpressure, got {other}"),
    }

    // Unknown identifiers and malformed registrations are typed too.
    assert_eq!(err(client.status("job-999")).kind(), "unknown-job");
    assert_eq!(
        err(client.submit("t", "nope", "serial", &slow)).kind(),
        "unknown-dataset"
    );
    assert_eq!(
        err(client.register_tsv("t", "bad", "/nonexistent/data.tsv")).kind(),
        "bad-request"
    );
    // A synthetic shape the generator refuses, and a config the learner
    // refuses, are typed refusals on a connection that keeps serving.
    assert_eq!(
        err(client.register_synthetic("t", "tiny", 1, 10, 0)).kind(),
        "bad-request"
    );
    ok(client.ping());
    let mut no_clusters = slow_config(7);
    no_clusters.ganesh.init_clusters = Some(0);
    assert_eq!(
        err(client.submit("t", "d", "serial", &no_clusters)).kind(),
        "bad-request"
    );
    ok(client.ping());
    // A candidate parent past the dataset's 32 variables is refused at
    // submit time, before any worker runs.
    let mut bad_parents = slow_config(7);
    bad_parents.candidate_parents = Some(vec![0, 999]);
    assert_eq!(
        err(client.submit("t", "d", "serial", &bad_parents)).kind(),
        "bad-request"
    );
    ok(client.ping());
    assert_eq!(
        err(client.submit("t", "d", "msg:2", &slow)).kind(),
        "bad-request",
        "fabric engines must be refused by the service"
    );
    // A high surrogate escape followed by one that is not a low
    // surrogate is a typed refusal, not a parser panic that drops the
    // connection.
    let refusal = client
        .raw(r#"{"op":"status","job":"\ud83d\u0041"}"#)
        .unwrap();
    assert_eq!(refusal["error"]["kind"].as_str(), Some("bad-request"));
    ok(client.ping());

    // Cancel the queued job: immediate, no worker involved.
    let reply = ok(client.cancel(&job_b));
    assert_eq!(reply["state"].as_str(), Some("cancelled"));

    // Cancel the running job: cooperative, lands at the next engine
    // event.
    ok(client.cancel(&job_a));
    wait_state(&mut client, &job_a, "cancelled", Duration::from_secs(60));
    assert_eq!(err(client.result_of(&job_a)).kind(), "conflict");
    // Cancelling twice is a typed conflict, not a crash.
    assert_eq!(err(client.cancel(&job_a)).kind(), "conflict");

    // The watch stream of a cancelled job terminates with its state.
    let mut seen = Vec::new();
    let done = client
        .watch(&job_a, 0, |line| seen.push(line.to_string()))
        .unwrap();
    assert_eq!(done["state"].as_str(), Some("cancelled"));
    assert!(
        seen.iter().any(|l| l.contains("\"cancelled\"")),
        "lifecycle events missing from watch replay: {seen:?}"
    );

    let accounting = ok(client.accounting(Some("t")));
    let acct = &accounting["tenants"]["t"];
    assert_eq!(acct["submitted"].as_u64(), Some(2));
    assert_eq!(acct["cancelled"].as_u64(), Some(2));
    assert_eq!(acct["completed"].as_u64(), Some(0));

    server.shutdown();
}

#[test]
fn suspend_then_elastic_resume_matches_the_batch_cli_bytes() {
    let server = TestServer::start("elastic", 1, 8);
    let mut client = server.client();
    ok(client.register_synthetic("t", "d", 48, 36, 7));

    // Catch a job mid-run on two ranks. Suspension is cooperative (it
    // lands at the next engine event), so a fast job can finish before
    // the request arrives — submit fresh jobs until one is caught.
    // Each attempt that slips through just completes; only the caught
    // one is resumed below.
    let state_of = |client: &mut Client, job: &str| -> String {
        ok(client.status(job))["state"].as_str().unwrap().to_string()
    };
    let mut caught = None;
    for _ in 0..10 {
        let job = ok(client.submit("t", "d", "threads:2", &slow_config(7)))["job"]
            .as_str()
            .unwrap()
            .to_string();
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            let state = state_of(&mut client, &job);
            if state != "queued" {
                break;
            }
            assert!(Instant::now() < deadline, "job {job} never left the queue");
        }
        if state_of(&mut client, &job) == "done" {
            continue; // finished before we could even ask
        }
        ok(client.suspend(&job));
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            match state_of(&mut client, &job).as_str() {
                "suspended" => {
                    caught = Some(job.clone());
                    break;
                }
                "done" => break, // the request lost the race
                "running" => {
                    assert!(Instant::now() < deadline, "suspend of {job} never landed")
                }
                other => panic!("job {job} reached {other:?} after a suspend request"),
            }
        }
        if caught.is_some() {
            break;
        }
    }
    let job = caught.expect("no job could be caught mid-run in 10 attempts");

    // The job's checkpoint directory holds the completed units.
    let ckpt = server.state_dir.join("jobs").join(&job);
    assert!(
        std::fs::read_dir(&ckpt).map(|d| d.count() > 0).unwrap_or(false),
        "suspended job left no checkpoint state in {}",
        ckpt.display()
    );

    // A suspended job cannot produce a result and cannot resume onto a
    // fabric engine.
    assert_eq!(err(client.result_of(&job)).kind(), "conflict");
    assert_eq!(err(client.resume(&job, Some("proc:2"))).kind(), "bad-request");

    // ...resume elastically on one rank (p' != p).
    let reply = ok(client.resume(&job, Some("serial")));
    assert_eq!(reply["engine"].as_str(), Some("serial"));
    wait_state(&mut client, &job, "done", Duration::from_secs(120));
    let network_json = ok(client.result_of(&job))["network_json"]
        .as_str()
        .unwrap()
        .to_string();

    // The suspended-and-elastically-resumed run is byte-identical to a
    // one-shot batch CLI run of the same flags.
    let out = fresh_dir("elastic_cli").join("net.json");
    let output = Command::new(monet_bin())
        .args([
            "--synthetic",
            "48,36",
            "--seed",
            "7",
            "--ganesh-runs",
            "2",
            "--trees",
            "2",
            "--engine",
            "threads:2",
            "--quiet",
            "--json",
            out.to_str().unwrap(),
        ])
        .output()
        .expect("run monet");
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let batch = std::fs::read_to_string(&out).unwrap();
    assert_eq!(
        network_json, batch,
        "served suspend/elastic-resume result differs from the batch CLI"
    );

    // Exactly one suspension landed; every submitted attempt (caught
    // or not) eventually completed.
    let accounting = ok(client.accounting(Some("t")));
    let acct = &accounting["tenants"]["t"];
    assert_eq!(acct["suspended"].as_u64(), Some(1));
    assert!(acct["completed"].as_u64().unwrap() >= 1);
    assert_eq!(
        acct["completed"].as_u64().unwrap(),
        acct["submitted"].as_u64().unwrap(),
        "every attempt should end done (the caught one after resume)"
    );

    server.shutdown();
}

#[test]
fn hostile_clients_get_typed_errors_and_never_wedge_the_server() {
    let server = TestServer::start("hostile", 1, 8);

    // A client killed mid-frame: write half a request, no newline,
    // drop the socket.
    {
        let mut stream = connect(&server.addr, Duration::from_secs(5)).unwrap();
        stream.write_all(b"{\"op\":\"submi").unwrap();
        stream.flush().unwrap();
        drop(stream); // connection dies mid-line
    }

    // A line bomb: an unterminated request far past MAX_LINE. The
    // server must refuse with bounded memory and a typed error.
    {
        let mut stream = connect(&server.addr, Duration::from_secs(5)).unwrap();
        let chunk = vec![b'x'; 64 * 1024];
        for _ in 0..((monet_serve::MAX_LINE / chunk.len()) + 2) {
            // Writes may fail once the server hangs up mid-bomb;
            // that's the point.
            if stream.write_all(&chunk).is_err() {
                break;
            }
        }
        // If the socket is still open, the refusal line is readable.
        let mut reader = std::io::BufReader::new(stream);
        if let Ok(Some(line)) = monet_serve::proto::read_line_bounded(&mut reader) {
            let value: Content = serde_json::from_str(&line).unwrap();
            assert_eq!(value["ok"].as_bool(), Some(false));
            assert_eq!(value["error"]["kind"].as_str(), Some("bad-request"));
        }
    }

    // Corrupt frames on a healthy connection: typed bad-request, and
    // the connection stays usable for well-formed requests after.
    let mut client = server.client();
    let refusal = client.raw("this is not json").unwrap();
    assert_eq!(refusal["ok"].as_bool(), Some(false));
    assert_eq!(refusal["error"]["kind"].as_str(), Some("bad-request"));
    let refusal = client.raw("{\"op\":\"frobnicate\"}").unwrap();
    assert_eq!(refusal["error"]["kind"].as_str(), Some("bad-request"));

    // After all that abuse the server still serves: a full job runs
    // end to end on the same process.
    ok(client.register_synthetic("t", "d", 12, 10, 1));
    let job = ok(client.submit("t", "d", "serial", &LearnerConfig::paper_minimum(1)))["job"]
        .as_str()
        .unwrap()
        .to_string();
    wait_state(&mut client, &job, "done", Duration::from_secs(120));
    let network = monet::from_json(
        ok(client.result_of(&job))["network_json"].as_str().unwrap(),
    )
    .unwrap();
    network.validate();

    server.shutdown();
}

#[test]
fn served_result_is_byte_identical_to_the_batch_cli() {
    let server = TestServer::start("bytes", 1, 8);
    let mut client = server.client();
    ok(client.register_synthetic("t", "d", 24, 16, 5));
    let job = ok(client.submit("t", "d", "serial", &LearnerConfig::paper_minimum(5)))["job"]
        .as_str()
        .unwrap()
        .to_string();
    wait_state(&mut client, &job, "done", Duration::from_secs(120));
    let network_json = ok(client.result_of(&job))["network_json"]
        .as_str()
        .unwrap()
        .to_string();

    let out = fresh_dir("bytes_cli").join("net.json");
    let output = Command::new(monet_bin())
        .args([
            "--synthetic",
            "24,16",
            "--seed",
            "5",
            "--quiet",
            "--json",
            out.to_str().unwrap(),
        ])
        .output()
        .expect("run monet");
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert_eq!(network_json, std::fs::read_to_string(&out).unwrap());

    // The telemetry the job streamed is versioned JSONL: every line
    // carries the schema version, starting with a full snapshot.
    let mut lines = Vec::new();
    let done = client.watch(&job, 0, |line| lines.push(line.to_string())).unwrap();
    assert_eq!(done["state"].as_str(), Some("done"));
    let telemetry: Vec<Content> = lines
        .iter()
        .map(|l| serde_json::from_str(l).unwrap())
        .filter(|v: &Content| v["kind"].as_str().is_some())
        .collect();
    assert!(
        !telemetry.is_empty(),
        "watch replayed no telemetry lines: {lines:?}"
    );
    assert_eq!(telemetry[0]["kind"].as_str(), Some("snapshot"));
    for line in &telemetry {
        assert_eq!(
            line["schema_version"].as_u64(),
            Some(mn_obs::TELEMETRY_SCHEMA_VERSION as u64)
        );
    }

    server.shutdown();
}

#[test]
fn client_cli_submit_learns_the_batch_cli_network() {
    // The learn flags given to `monet client submit` build the config
    // the batch CLI builds from the same flags, so the served network
    // is the batch network byte for byte.
    let server = TestServer::start("cli_submit", 1, 8);
    ok(server.client().register_synthetic("t", "d", 24, 16, 5));
    let connect = server.addr.to_string();
    let client_cli = |args: &[&str]| {
        let output = Command::new(monet_bin())
            .args(["client", "--connect", &connect])
            .args(args)
            .output()
            .expect("run monet client");
        assert!(
            output.status.success(),
            "{args:?}: {}",
            String::from_utf8_lossy(&output.stderr)
        );
        String::from_utf8(output.stdout).unwrap()
    };
    let learn = [
        "--seed",
        "5",
        "--ganesh-runs",
        "2",
        "--update-steps",
        "2",
        "--init-clusters",
        "6",
        "--trees",
        "2",
        "--splits-per-node",
        "3",
        "--sampling-steps",
        "6",
        "--threshold",
        "0.1",
    ];
    let ack: Content = serde_json::from_str(&client_cli(
        &[&["submit", "--tenant", "t", "--dataset", "d"][..], &learn].concat(),
    ))
    .unwrap();
    let job = ack["job"].as_str().unwrap().to_string();
    wait_state(&mut server.client(), &job, "done", Duration::from_secs(120));
    let dir = fresh_dir("cli_submit_out");
    let (served, batch) = (dir.join("served.json"), dir.join("batch.json"));
    client_cli(&["result", "--job", &job, "--json", served.to_str().unwrap()]);
    let output = Command::new(monet_bin())
        .args(["--synthetic", "24,16", "--quiet", "--json", batch.to_str().unwrap()])
        .args(learn)
        .output()
        .expect("run monet");
    assert!(output.status.success());
    assert_eq!(
        std::fs::read(&served).unwrap(),
        std::fs::read(&batch).unwrap()
    );
    server.shutdown();
}

#[test]
fn old_client_config_with_retired_path_keys_runs_the_default_paths() {
    // A client built before the naive/dense scoring paths became test
    // oracles, or before `--reference` left the job config, still sends
    // their selectors in it. The server ignores the unknown keys and
    // learns the batch CLI's bytes.
    let server = TestServer::start("oldkeys", 1, 8);
    let mut client = server.client();
    ok(client.register_synthetic("t", "d", 24, 16, 5));
    let line =
        monet_serve::proto::submit_line("t", "d", "serial", &LearnerConfig::paper_minimum(5));
    let old_line = line
        .replacen(
            "\"ganesh\":{",
            "\"ganesh\":{\"mode\":\"Reference\",\"candidate_scoring\":\"Naive\",",
            1,
        )
        .replacen(
            "\"tree\":{",
            concat!(
                "\"tree\":{\"mode\":\"Reference\",",
                "\"split_scoring\":\"Naive\",\"candidate_scoring\":\"Naive\","
            ),
            1,
        )
        .replacen(
            "\"consensus\":{",
            "\"consensus\":{\"backend\":\"Dense\",",
            1,
        );
    assert!(
        !line.contains("\"mode\""),
        "a new client sends a scoring mode: {line}"
    );
    assert_eq!(old_line.matches("\"mode\":\"Reference\"").count(), 2);
    for key in [
        "\"candidate_scoring\":\"Naive\"",
        "\"split_scoring\":\"Naive\"",
        "\"backend\":\"Dense\"",
    ] {
        assert!(old_line.contains(key), "{key} not spliced into {old_line}");
    }
    let reply = client.raw(&old_line).unwrap();
    assert_eq!(reply["ok"].as_bool(), Some(true), "{reply:?}");
    let job = reply["job"].as_str().unwrap().to_string();
    wait_state(&mut client, &job, "done", Duration::from_secs(120));
    let network_json = ok(client.result_of(&job))["network_json"]
        .as_str()
        .unwrap()
        .to_string();

    let out = fresh_dir("oldkeys_cli").join("net.json");
    let output = Command::new(monet_bin())
        .args(["--synthetic", "24,16", "--seed", "5", "--quiet", "--json"])
        .arg(&out)
        .output()
        .expect("run monet");
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert_eq!(network_json, std::fs::read_to_string(&out).unwrap());

    server.shutdown();
}

#[test]
fn served_job_output_lives_in_files_beside_the_checkpoint() {
    let server = TestServer::start("files", 1, 8);
    let mut client = server.client();
    ok(client.register_synthetic("t", "d", 32, 24, 7));
    ok(client.register_synthetic("t", "big", 200, 120, 3));
    let jobs_dir = server.state_dir.join("jobs");

    // A occupies the single worker until it is cancelled, so B and C
    // wait in the queue.
    let a = job_id(client.submit("t", "big", "serial", &slow_config(7)));
    wait_state(&mut client, &a, "running", Duration::from_secs(60));
    let b = job_id(client.submit("t", "d", "serial", &LearnerConfig::paper_minimum(5)));
    let c = job_id(client.submit("t", "d", "serial", &LearnerConfig::paper_minimum(6)));
    assert_eq!(ok(client.suspend(&c))["state"].as_str(), Some("suspended"));

    std::thread::scope(|scope| {
        // Watchers of B attached before it runs and of the suspended C.
        let (attached, on_attach) = std::sync::mpsc::channel();
        let early = |job: String| {
            let attached = attached.clone();
            let mut client = server.client();
            scope.spawn(move || {
                let mut lines = Vec::new();
                let done = client
                    .watch(&job, 0, |line| {
                        if lines.is_empty() {
                            attached.send(()).unwrap();
                        }
                        lines.push(line.to_string());
                    })
                    .expect("watch");
                (lines, done)
            })
        };
        let before_b = early(b.clone());
        let suspended_c = early(c.clone());
        on_attach.recv().unwrap();
        on_attach.recv().unwrap();
        assert_eq!(ok(client.status(&b))["state"].as_str(), Some("queued"));

        ok(client.cancel(&a));
        // C queues behind B. Resumed here, every watcher thread ends
        // even if an assertion below fails.
        ok(client.resume(&c, None));
        wait_state(&mut client, &b, "running", Duration::from_secs(60));
        let (mid_lines, mid_done) = watch_all(&mut client, &b, 0);
        let (before_lines, before_done) = before_b.join().unwrap();

        // Before, during and after the run: one byte-identical stream
        // ending in `done`.
        let (after_lines, after_done) = watch_all(&mut client, &b, 0);
        assert_eq!(before_lines, after_lines);
        assert_eq!(mid_lines, after_lines);
        assert_eq!(before_done, after_done);
        assert_eq!(mid_done, after_done);
        assert_eq!(after_done["state"].as_str(), Some("done"));
        assert_eq!(
            lifecycle(&after_lines).last().map(String::as_str),
            Some("done")
        );
        assert!(after_lines.len() > 3, "no telemetry in {after_lines:?}");

        // The stream is the job's events file, line for line.
        let file = std::fs::read_to_string(jobs_dir.join(format!("{b}.events.jsonl"))).unwrap();
        assert_eq!(file.lines().collect::<Vec<_>>(), after_lines);
        let count = after_lines.len();
        assert_eq!(ok(client.status(&b))["events"].as_u64(), Some(count as u64));
        assert_eq!(after_done["events"].as_u64(), Some(count as u64));
        for k in [0, 1, count / 2, count - 1, count] {
            let (lines, done) = watch_all(&mut client, &b, k);
            assert_eq!(lines, after_lines[k..], "watch --from {k}");
            assert_eq!(done["events"].as_u64(), Some(count as u64));
        }

        // `result` reads the network file, the same bytes every call.
        let first = ok(client.result_of(&b))["network_json"]
            .as_str()
            .unwrap()
            .to_string();
        let second = ok(client.result_of(&b))["network_json"]
            .as_str()
            .unwrap()
            .to_string();
        assert_eq!(first, second);
        assert_eq!(
            first,
            std::fs::read_to_string(jobs_dir.join(format!("{b}.network.json"))).unwrap()
        );

        // The suspended job's log stays open across resume: its early
        // watcher sees one stream from queued to done.
        let (c_lines, c_done) = suspended_c.join().unwrap();
        assert_eq!(c_done["state"].as_str(), Some("done"));
        let whats = lifecycle(&c_lines);
        assert_eq!(whats[..3], ["queued", "suspended", "resumed"]);
        assert_eq!(whats[3..], ["running", "done"]);
        assert_eq!(watch_all(&mut client, &c, 0).0, c_lines);
    });

    // A cancelled job leaves its events and no network.
    assert_eq!(ok(client.status(&a))["state"].as_str(), Some("cancelled"));
    assert!(jobs_dir.join(format!("{a}.events.jsonl")).is_file());
    assert!(!jobs_dir.join(format!("{a}.network.json")).exists());

    // So does a failed one: a file where the next job's checkpoint
    // directory belongs makes its store fail to open.
    let next = ok(client.jobs(None))["jobs"].as_array().unwrap().len();
    let d = format!("job-{next}");
    std::fs::write(jobs_dir.join(&d), b"not a directory").unwrap();
    assert_eq!(
        job_id(client.submit("t", "d", "serial", &LearnerConfig::paper_minimum(5))),
        d
    );
    wait_state(&mut client, &d, "failed", Duration::from_secs(60));
    assert!(jobs_dir.join(format!("{d}.events.jsonl")).is_file());
    assert!(!jobs_dir.join(format!("{d}.network.json")).exists());
    assert_eq!(
        lifecycle(&watch_all(&mut client, &d, 0).0)
            .last()
            .map(String::as_str),
        Some("failed")
    );

    // A network that cannot be written fails the job with the error;
    // there is no in-memory copy to serve instead.
    let e = format!("job-{}", next + 1);
    std::fs::create_dir(jobs_dir.join(format!("{e}.network.json"))).unwrap();
    assert_eq!(
        job_id(client.submit("t", "d", "serial", &LearnerConfig::paper_minimum(5))),
        e
    );
    wait_state(&mut client, &e, "failed", Duration::from_secs(60));
    let status = ok(client.status(&e));
    assert!(
        status["error"].as_str().unwrap().contains("network.json"),
        "{status:?}"
    );
    assert_eq!(err(client.result_of(&e)).kind(), "conflict");
    // The failed write leaves no half-written network behind.
    assert!(!jobs_dir.join(format!("{e}.network.json.tmp")).exists());

    server.shutdown();
}

#[test]
fn a_restarted_server_numbers_jobs_after_the_ones_on_disk() {
    let dir = fresh_dir("restart");
    let server = TestServer::start_in(&dir, 1, 8);
    let mut client = server.client();
    ok(client.register_synthetic("t", "d", 24, 16, 3));
    let first = job_id(client.submit("t", "d", "serial", &LearnerConfig::paper_minimum(5)));
    wait_state(&mut client, &first, "done", Duration::from_secs(120));
    let jobs_dir = server.state_dir.join("jobs");
    let files = |id: &str| {
        ["events.jsonl", "network.json"]
            .map(|f| std::fs::read(jobs_dir.join(format!("{id}.{f}"))).unwrap())
    };
    let first_files = files(&first);
    server.shutdown();

    // The same state dir, the same data, a different config: a job
    // that reused the first id would open the first job's checkpoint
    // and overwrite its files.
    let server = TestServer::start_in(&dir, 1, 8);
    let mut client = server.client();
    ok(client.register_synthetic("t", "d", 24, 16, 3));
    let mut config = LearnerConfig::paper_minimum(5);
    config.ganesh.init_clusters = Some(7);
    config.ganesh.update_steps = 2;
    let second = job_id(client.submit("t", "d", "serial", &config));
    assert_ne!(second, first);
    wait_state(&mut client, &second, "done", Duration::from_secs(120));
    let served = ok(client.result_of(&second))["network_json"]
        .as_str()
        .unwrap()
        .to_string();

    let data = mn_data::synthetic::yeast_like(24, 16, 3).dataset;
    let (fresh, _) = monet::learn_module_network(&mut mn_comm::SerialEngine::new(), &data, &config);
    assert_eq!(
        served,
        monet::to_json(&fresh),
        "the restarted job resumed another job's work"
    );
    assert_eq!(files(&first), first_files, "the first job's files changed");
    server.shutdown();
}

#[test]
fn client_output_to_a_closed_pipe_ends_quietly() {
    use std::io::BufRead;
    let server = TestServer::start("pipe", 1, 8);
    let mut client = server.client();
    ok(client.register_synthetic("t", "d", 32, 24, 7));
    ok(client.register_synthetic("t", "big", 200, 120, 3));
    let busy = job_id(client.submit("t", "big", "serial", &slow_config(7)));
    wait_state(&mut client, &busy, "running", Duration::from_secs(60));
    // A suspended job's log stays open, so its watcher blocks.
    let job = job_id(client.submit("t", "d", "serial", &LearnerConfig::paper_minimum(5)));
    ok(client.suspend(&job));

    let mut watcher = Command::new(monet_bin())
        .args(["client", "--connect", &server.addr.to_string()])
        .args(["watch", "--job", &job])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("run monet client");
    // Read one line, as `| head -1` does, and close the pipe.
    let mut reader = std::io::BufReader::new(watcher.stdout.take().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("\"queued\""), "{line}");
    drop(reader);
    // The next line the watcher prints meets the closed pipe.
    ok(client.cancel(&job));
    let output = watcher.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(0), "stderr: {stderr}");
    assert!(stderr.is_empty(), "stderr: {stderr}");

    ok(client.cancel(&busy));
    server.shutdown();
}
