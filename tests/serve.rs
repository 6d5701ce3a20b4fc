//! End-to-end tests of `monet-serve`: the long-lived multi-tenant
//! learning service (DESIGN.md §16).
//!
//! The server runs in-process on a Unix socket; clients speak the real
//! wire protocol. The batch-comparison tests additionally shell out to
//! the `monet` binary, asserting that a served job's result is
//! byte-identical to the batch CLI's `--json` output for the same
//! flags.

use mn_comm::msg::proc::{service_connect, ProcAddr};
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
        let dir = fresh_dir(tag);
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
    assert_eq!(
        err(client.submit("t", "d", "msg:2", &slow)).kind(),
        "bad-request",
        "fabric engines must be refused by the service"
    );

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
        let mut stream = service_connect(&server.addr, Duration::from_secs(5)).unwrap();
        stream.write_all(b"{\"op\":\"submi").unwrap();
        stream.flush().unwrap();
        drop(stream); // connection dies mid-line
    }

    // A line bomb: an unterminated request far past MAX_LINE. The
    // server must refuse with bounded memory and a typed error.
    {
        let mut stream = service_connect(&server.addr, Duration::from_secs(5)).unwrap();
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
        "--reference",
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
    // oracles still sends their selectors in the job's config. The
    // server ignores the unknown keys and learns the batch CLI's bytes.
    let server = TestServer::start("oldkeys", 1, 8);
    let mut client = server.client();
    ok(client.register_synthetic("t", "d", 24, 16, 5));
    let line =
        monet_serve::proto::submit_line("t", "d", "serial", &LearnerConfig::paper_minimum(5));
    let old_line = line
        .replacen(
            "\"ganesh\":{",
            "\"ganesh\":{\"candidate_scoring\":\"Naive\",",
            1,
        )
        .replacen(
            "\"tree\":{",
            "\"tree\":{\"split_scoring\":\"Naive\",\"candidate_scoring\":\"Naive\",",
            1,
        )
        .replacen(
            "\"consensus\":{",
            "\"consensus\":{\"backend\":\"Dense\",",
            1,
        );
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
