//! End-to-end tests of the `monet` command-line binary.

use std::path::PathBuf;
use std::process::Command;

fn monet_bin() -> PathBuf {
    // Integration tests live next to the binary in target/<profile>/.
    let mut path = std::env::current_exe().expect("test exe path");
    path.pop(); // the deps/ directory
    if path.ends_with("deps") {
        path.pop();
    }
    path.join("monet")
}

#[test]
fn cli_learns_from_synthetic_and_writes_outputs() {
    let dir = std::env::temp_dir();
    let xml = dir.join("monet_cli_test.xml");
    let json = dir.join("monet_cli_test.json");
    let output = Command::new(monet_bin())
        .args([
            "--synthetic",
            "24,16",
            "--seed",
            "5",
            "--xml",
            xml.to_str().unwrap(),
            "--json",
            json.to_str().unwrap(),
            "--dag",
        ])
        .output()
        .expect("run monet");
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("learned"), "stdout: {stdout}");
    assert!(stdout.contains("acyclic module graph"));

    let xml_text = std::fs::read_to_string(&xml).unwrap();
    assert!(xml_text.starts_with("<?xml"));
    let json_text = std::fs::read_to_string(&json).unwrap();
    let network = monet::from_json(&json_text).unwrap();
    network.validate();
    std::fs::remove_file(xml).ok();
    std::fs::remove_file(json).ok();
}

#[test]
fn cli_reads_tsv_and_respects_candidates() {
    let dir = std::env::temp_dir();
    let tsv = dir.join("monet_cli_data.tsv");
    let cand = dir.join("monet_cli_cands.txt");
    let data = mn_data::synthetic::yeast_like(20, 14, 9).dataset;
    mn_data::write_tsv_file(&data, &tsv).unwrap();
    std::fs::write(&cand, "G0 G1 G2\n").unwrap();

    let output = Command::new(monet_bin())
        .args([
            "--input",
            tsv.to_str().unwrap(),
            "--candidates",
            cand.to_str().unwrap(),
            "--engine",
            "sim:64",
            "--quiet",
            "--json",
            dir.join("monet_cli_net2.json").to_str().unwrap(),
        ])
        .output()
        .expect("run monet");
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let network =
        monet::from_json(&std::fs::read_to_string(dir.join("monet_cli_net2.json")).unwrap())
            .unwrap();
    // Only G0..G2 may appear as parents.
    for module in &network.modules {
        for &var in module.parents.weighted.keys() {
            assert!(var < 3, "unexpected parent {var}");
        }
    }
    std::fs::remove_file(tsv).ok();
    std::fs::remove_file(cand).ok();
    std::fs::remove_file(dir.join("monet_cli_net2.json")).ok();
}

#[test]
fn cli_engine_choice_does_not_change_the_network() {
    let dir = std::env::temp_dir();
    let mut outputs = Vec::new();
    for (engine, tag) in [("serial", "a"), ("threads:3", "b"), ("sim:512", "c")] {
        let json = dir.join(format!("monet_cli_det_{tag}.json"));
        let output = Command::new(monet_bin())
            .args([
                "--synthetic",
                "20,14",
                "--seed",
                "7",
                "--engine",
                engine,
                "--quiet",
                "--json",
                json.to_str().unwrap(),
            ])
            .output()
            .expect("run monet");
        assert!(output.status.success());
        outputs.push(std::fs::read_to_string(&json).unwrap());
        std::fs::remove_file(json).ok();
    }
    assert_eq!(outputs[0], outputs[1]);
    assert_eq!(outputs[0], outputs[2]);
}

#[test]
fn cli_writes_trace_and_metrics_and_quiet_silences_stdout() {
    let dir = std::env::temp_dir();
    let trace = dir.join("monet_cli_trace.json");
    let metrics = dir.join("monet_cli_metrics.json");
    let output = Command::new(monet_bin())
        .args([
            "--synthetic",
            "20,14",
            "--seed",
            "7",
            "--engine",
            "sim:4",
            "--quiet",
            "--trace",
            trace.to_str().unwrap(),
            "--metrics-out",
            metrics.to_str().unwrap(),
        ])
        .output()
        .expect("run monet");
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    // --quiet: no stdout summary, no stderr progress notes.
    assert!(output.stdout.is_empty(), "stdout not quiet: {:?}", output.stdout);
    assert!(output.stderr.is_empty(), "stderr not quiet: {:?}", output.stderr);

    // The trace is valid chrome://tracing JSON with one track per rank.
    let trace_text = std::fs::read_to_string(&trace).unwrap();
    let value: serde_json::Value = serde_json::from_str(&trace_text).unwrap();
    let events = value["traceEvents"].as_array().expect("traceEvents");
    let tracks = events
        .iter()
        .filter(|e| e["ph"].as_str() == Some("M") && e["name"].as_str() == Some("thread_name"))
        .count();
    assert_eq!(tracks, 4, "expected one track per rank");

    // The metrics parse back and the report is a view of the phase
    // spans: each phase equals its depth-1 span's row, bit for bit.
    let metrics_text = std::fs::read_to_string(&metrics).unwrap();
    let run: monet::RunMetrics = serde_json::from_str(&metrics_text).unwrap();
    assert_eq!(run.nranks, 4);
    assert!(!run.report.phases.is_empty());
    for phase in &run.report.phases {
        let path = format!("run/{}", phase.name);
        let span = run
            .spans
            .iter()
            .find(|s| s.path == path)
            .unwrap_or_else(|| panic!("missing span {path}"));
        assert_eq!(
            (span.busy_max_s, span.busy_avg_s, span.comm_s, span.elapsed_s),
            (phase.busy_max_s, phase.busy_avg_s, phase.comm_s, phase.elapsed_s),
            "span {path}"
        );
    }
    assert!(run.counters["splits.scored"] > 0);
    std::fs::remove_file(trace).ok();
    std::fs::remove_file(metrics).ok();
}

#[test]
fn cli_msg_engine_matches_serial_network() {
    let dir = std::env::temp_dir();
    let mut outputs = Vec::new();
    for (engine, tag) in [("serial", "m0"), ("msg:3", "m1")] {
        let json = dir.join(format!("monet_cli_msg_{tag}.json"));
        let output = Command::new(monet_bin())
            .args([
                "--synthetic",
                "18,12",
                "--seed",
                "4",
                "--engine",
                engine,
                "--quiet",
                "--json",
                json.to_str().unwrap(),
            ])
            .output()
            .expect("run monet");
        assert!(
            output.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&output.stderr)
        );
        outputs.push(std::fs::read_to_string(&json).unwrap());
        std::fs::remove_file(json).ok();
    }
    assert_eq!(outputs[0], outputs[1], "msg engine changed the network");
}

#[test]
fn cli_non_finite_input_is_a_clean_typed_error() {
    // A NaN cell must exit nonzero with the typed DataError message
    // (line/column/value), not a panic backtrace.
    let dir = std::env::temp_dir();
    let tsv = dir.join("monet_cli_nan.tsv");
    std::fs::write(&tsv, "gene\to1\to2\nG0\t1.0\t2.0\nG1\tNaN\t0.5\n").unwrap();
    let output = Command::new(monet_bin())
        .args(["--input", tsv.to_str().unwrap()])
        .output()
        .expect("run monet");
    assert_eq!(output.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("non-finite") && stderr.contains("line 3"),
        "stderr: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    std::fs::remove_file(tsv).ok();
}

/// A scratch checkpoint directory plus the common argument set the
/// fault/resume CLI tests share.
fn checkpoint_scenario(tag: &str) -> (PathBuf, Vec<String>) {
    let ckpt = std::env::temp_dir().join(format!("monet_cli_ckpt_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&ckpt).ok();
    let args = [
        "--synthetic",
        "18,12",
        "--seed",
        "4",
        "--ganesh-runs",
        "2",
        "--quiet",
        "--checkpoint-dir",
        ckpt.to_str().unwrap(),
        // Failed runs always dump flight recorders; aim the default
        // at the scratch dir (callers may override with a later
        // --flightrec-dir) so no test litters the working directory.
        "--flightrec-dir",
        ckpt.to_str().unwrap(),
    ]
    .map(String::from)
    .to_vec();
    (ckpt, args)
}

#[test]
fn cli_fault_kill_then_resume_reproduces_uninterrupted_network() {
    let dir = std::env::temp_dir();

    // Uninterrupted, checkpoint-free reference network.
    let ref_json = dir.join("monet_cli_fr_ref.json");
    let output = Command::new(monet_bin())
        .args([
            "--synthetic",
            "18,12",
            "--seed",
            "4",
            "--ganesh-runs",
            "2",
            "--quiet",
            "--json",
            ref_json.to_str().unwrap(),
        ])
        .output()
        .expect("run monet");
    assert!(output.status.success());

    for engine in ["serial", "msg:3"] {
        let tag = engine.replace(':', "_");
        let (ckpt, args) = checkpoint_scenario(&tag);
        let nranks = if engine == "serial" { 1 } else { 3 };
        let frec = dir.join(format!("monet_cli_frec_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&frec).ok();

        // Phase 1: inject a kill mid-run. Fault aborts exit with 3 and
        // a descriptive message, never a panic trace.
        let output = Command::new(monet_bin())
            .args(&args)
            .args(["--engine", engine, "--fault", "kill:0@40"])
            .args(["--flightrec-dir", frec.to_str().unwrap()])
            .output()
            .expect("run monet");
        assert_eq!(
            output.status.code(),
            Some(3),
            "{engine}: stderr: {}",
            String::from_utf8_lossy(&output.stderr)
        );
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(stderr.contains("injected kill"), "{engine}: stderr: {stderr}");
        assert!(!stderr.contains("panicked"), "{engine}: stderr: {stderr}");
        assert!(
            ckpt.join("manifest.json").exists(),
            "{engine}: killed run left no checkpoint"
        );

        // Every failed run leaves one parseable black box per rank.
        for rank in 0..nranks {
            let dump = frec.join(format!("flightrec-rank{rank}.jsonl"));
            let text = std::fs::read_to_string(&dump).unwrap_or_else(|e| {
                panic!("{engine}: missing dump {}: {e}", dump.display())
            });
            mn_comm::obs::flightrec::parse_dump(&text)
                .unwrap_or_else(|e| panic!("{engine}: rank {rank} dump unparseable: {e}"));
        }
        // The killed rank's dump records the injection itself.
        let victim_dump = std::fs::read_to_string(frec.join("flightrec-rank0.jsonl")).unwrap();
        assert!(
            victim_dump.contains("fault-injected"),
            "{engine}: kill not in victim dump"
        );
        std::fs::remove_dir_all(&frec).ok();

        // Phase 2: --resume finishes the run; the network is identical
        // to the uninterrupted reference.
        let json = dir.join(format!("monet_cli_fr_{tag}.json"));
        let output = Command::new(monet_bin())
            .args(&args)
            .args(["--engine", engine, "--resume", "--json", json.to_str().unwrap()])
            .output()
            .expect("run monet");
        assert!(
            output.status.success(),
            "{engine}: resume failed: {}",
            String::from_utf8_lossy(&output.stderr)
        );
        assert_eq!(
            std::fs::read_to_string(&json).unwrap(),
            std::fs::read_to_string(&ref_json).unwrap(),
            "{engine}: resumed network diverged"
        );
        std::fs::remove_file(json).ok();
        std::fs::remove_dir_all(&ckpt).ok();
    }
    std::fs::remove_file(ref_json).ok();
}

#[test]
fn cli_corrupt_checkpoint_is_a_clean_error_and_force_restart_recovers() {
    let (ckpt, args) = checkpoint_scenario("corrupt");

    // Seed a valid checkpoint, then corrupt the manifest.
    let output = Command::new(monet_bin()).args(&args).output().expect("run monet");
    assert!(output.status.success());
    let manifest = ckpt.join("manifest.json");
    std::fs::write(&manifest, "{\"version\": 1, \"truncated").unwrap();

    // --resume on garbage: descriptive error, exit 1, no panic.
    let output = Command::new(monet_bin())
        .args(&args)
        .arg("--resume")
        .output()
        .expect("run monet");
    assert_eq!(output.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("corrupt checkpoint"), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");

    // --resume --force-restart wipes the directory and completes.
    let output = Command::new(monet_bin())
        .args(&args)
        .args(["--resume", "--force-restart"])
        .output()
        .expect("run monet");
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    std::fs::remove_dir_all(&ckpt).ok();
}

#[test]
fn cli_resume_with_no_checkpoint_is_a_clean_error() {
    let (ckpt, args) = checkpoint_scenario("missing");
    let output = Command::new(monet_bin())
        .args(&args)
        .arg("--resume")
        .output()
        .expect("run monet");
    assert_eq!(output.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("no checkpoint manifest"), "stderr: {stderr}");
    std::fs::remove_dir_all(&ckpt).ok();
}

/// The quiet-able sink and the chrome-trace exporter survive a rank
/// death on the real fabric: a mid-run kill under `--quiet --trace`
/// must still produce a well-formed post-mortem trace and metrics
/// record (from the dying rank's stashed snapshot), keep stdout silent,
/// exit 3, and never print a panic backtrace.
#[test]
fn cli_quiet_trace_survive_msg_rank_death() {
    let dir = std::env::temp_dir();
    let trace = dir.join(format!("monet_cli_pm_trace_{}.json", std::process::id()));
    let metrics = dir.join(format!("monet_cli_pm_metrics_{}.json", std::process::id()));
    let frec = dir.join(format!("monet_cli_pm_frec_{}", std::process::id()));
    std::fs::remove_dir_all(&frec).ok();
    std::fs::remove_file(&trace).ok();
    std::fs::remove_file(&metrics).ok();
    let output = Command::new(monet_bin())
        .args([
            "--synthetic",
            "18,12",
            "--seed",
            "4",
            "--engine",
            "msg:4",
            "--quiet",
            "--fault",
            "kill:1@60",
            "--trace",
            trace.to_str().unwrap(),
            "--metrics-out",
            metrics.to_str().unwrap(),
            "--flightrec-dir",
            frec.to_str().unwrap(),
        ])
        .output()
        .expect("run monet");
    assert_eq!(
        output.status.code(),
        Some(3),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.stdout.is_empty(), "stdout not quiet: {:?}", output.stdout);
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");

    // The post-mortem trace is well-formed chrome://tracing JSON even
    // though a rank died mid-run.
    let trace_text = std::fs::read_to_string(&trace).expect("post-mortem trace missing");
    let value: serde_json::Value =
        serde_json::from_str(&trace_text).expect("post-mortem trace is not valid JSON");
    assert!(
        !value["traceEvents"].as_array().expect("traceEvents").is_empty(),
        "post-mortem trace is empty"
    );
    // The dying rank's last snapshot makes the metrics record too.
    let metrics_text = std::fs::read_to_string(&metrics).expect("post-mortem metrics missing");
    let run: monet::RunMetrics =
        serde_json::from_str(&metrics_text).expect("post-mortem metrics do not parse");
    assert!(!run.counters.is_empty(), "post-mortem metrics carry no counters");
    assert!(!run.report.phases.is_empty(), "post-mortem metrics carry no phases");
    // All four ranks dumped their black boxes.
    for rank in 0..4 {
        assert!(
            frec.join(format!("flightrec-rank{rank}.jsonl")).exists(),
            "rank {rank} dump missing"
        );
    }
    std::fs::remove_file(&trace).ok();
    std::fs::remove_file(&metrics).ok();
    std::fs::remove_dir_all(&frec).ok();
}

/// `--telemetry-out` streams versioned JSONL: line 0 is a full
/// snapshot, every line parses, carries the schema version, and `seq`
/// is monotone.
#[test]
fn cli_telemetry_stream_is_versioned_jsonl() {
    let dir = std::env::temp_dir();
    let tel = dir.join(format!("monet_cli_tel_{}.jsonl", std::process::id()));
    let output = Command::new(monet_bin())
        .args([
            "--synthetic",
            "20,14",
            "--seed",
            "7",
            "--engine",
            "msg:4",
            "--quiet",
            "--telemetry-out",
            tel.to_str().unwrap(),
            "--telemetry-interval-ms",
            "10",
        ])
        .output()
        .expect("run monet");
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let text = std::fs::read_to_string(&tel).expect("telemetry stream missing");
    let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
    assert!(!lines.is_empty(), "telemetry stream is empty");
    for (i, line) in lines.iter().enumerate() {
        let value: serde_json::Value =
            serde_json::from_str(line).unwrap_or_else(|e| panic!("line {i} unparseable: {e}"));
        assert_eq!(
            value["schema_version"].as_u64(),
            Some(mn_comm::obs::TELEMETRY_SCHEMA_VERSION as u64),
            "line {i} schema version"
        );
        assert_eq!(value["seq"].as_u64(), Some(i as u64), "seq not monotone");
        let kind = value["kind"].as_str().expect("kind");
        if i == 0 {
            assert_eq!(kind, "snapshot", "line 0 must be a full snapshot");
            assert_eq!(value["nranks"].as_u64(), Some(4));
        } else {
            assert!(
                kind == "delta" || kind == "heartbeat",
                "line {i}: unexpected kind {kind}"
            );
        }
    }
    std::fs::remove_file(&tel).ok();
}

#[test]
fn cli_rejects_bad_usage() {
    // No input source.
    let output = Command::new(monet_bin()).output().expect("run monet");
    assert!(!output.status.success());
    // Bad engine.
    let output = Command::new(monet_bin())
        .args(["--synthetic", "10,10", "--engine", "gpu"])
        .output()
        .expect("run monet");
    assert!(!output.status.success());
    // Missing file.
    let output = Command::new(monet_bin())
        .args(["--input", "/nonexistent/file.tsv"])
        .output()
        .expect("run monet");
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("error"), "stderr: {stderr}");
    // --resume without --checkpoint-dir is a usage error (exit 2).
    let output = Command::new(monet_bin())
        .args(["--synthetic", "10,10", "--resume"])
        .output()
        .expect("run monet");
    assert_eq!(output.status.code(), Some(2));
    // Malformed --fault spec.
    let output = Command::new(monet_bin())
        .args(["--synthetic", "10,10", "--fault", "explode:everything"])
        .output()
        .expect("run monet");
    assert_eq!(output.status.code(), Some(1));
    // Out-of-range values are refused, never a panic (exit 101): a
    // usage error exits 2 and a config the learner refuses exits 1. A
    // client flag is checked before the client connects, so no server
    // needs to exist at the address.
    let client = ["client", "--connect", "unix:/nonexistent"];
    let submit = [&client[..], &["submit", "--tenant", "t", "--dataset", "d"]].concat();
    let cases: [(Vec<&str>, i32); 10] = [
        (vec!["--synthetic", "1,10"], 2),
        (vec!["--synthetic", "10,1"], 2),
        (vec!["--synthetic", "0,10"], 2),
        (vec!["--synthetic", "10,10", "--init-clusters", "0"], 1),
        (vec!["--synthetic", "10,10", "--trees", "18446744073709551615"], 2),
        (vec!["--synthetic", "10,10", "--comm-timeout-ms", "0"], 2),
        (vec!["--synthetic", "10,10", "--engine", "msg:2", "--comm-timeout-ms", "0"], 2),
        ([&submit[..], &["--bogus", "1"]].concat(), 2),
        ([&submit[..], &["--ganesh_runs", "4"]].concat(), 2),
        ([&client[..], &["status", "--job", "j", "--engine", "serial"]].concat(), 2),
    ];
    for (args, code) in cases {
        let output = Command::new(monet_bin()).args(&args).output().expect("run monet");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(code), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}

#[test]
fn cli_rejects_retired_scoring_flags() {
    // The naive Gibbs scorer and the dense consensus are test oracles,
    // not user-selectable paths, and every real engine runs the block
    // split: their old flags are usage errors, and neither usage text
    // offers them.
    for flag in ["--gibbs-naive", "--consensus-dense", "--partition"] {
        let output = Command::new(monet_bin())
            .args(["--synthetic", "10,10", flag])
            .output()
            .expect("run monet");
        assert_eq!(output.status.code(), Some(2), "{flag}");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.contains("unknown flag") && stderr.contains("usage:"),
            "{flag}: {stderr}"
        );
        let usage = stderr.split_once("usage:").unwrap().1;
        assert!(!usage.contains(flag), "batch usage still lists {flag}");
    }
    let output = Command::new(monet_bin())
        .arg("client")
        .output()
        .expect("run monet");
    assert_eq!(output.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("submit"), "client usage: {stderr}");
    for flag in ["--gibbs-naive", "--consensus-dense", "--partition"] {
        assert!(!stderr.contains(flag), "client usage still lists {flag}");
    }
}

#[test]
fn cli_reference_runs_the_naive_oracles_and_learns_the_default_network() {
    // Byte identity cannot tell a working `--reference` from a no-op
    // flag: the dispatch counters say which scoring path ran.
    let dir = std::env::temp_dir();
    let learn = |tag: &str, extra: &[&str]| {
        let json = dir.join(format!("monet_cli_ref_{tag}.json"));
        let metrics = dir.join(format!("monet_cli_ref_{tag}.metrics.json"));
        let output = Command::new(monet_bin())
            .args(["--synthetic", "20,14", "--seed", "7", "--quiet", "--json"])
            .arg(&json)
            .arg("--metrics-out")
            .arg(&metrics)
            .args(extra)
            .output()
            .expect("run monet");
        assert!(
            output.status.success(),
            "{extra:?}: {}",
            String::from_utf8_lossy(&output.stderr)
        );
        let network = std::fs::read(&json).unwrap();
        let run: monet::RunMetrics =
            serde_json::from_str(&std::fs::read_to_string(&metrics).unwrap()).unwrap();
        std::fs::remove_file(json).ok();
        std::fs::remove_file(metrics).ok();
        let count = |name: &str| run.counters.get(name).copied().unwrap_or(0);
        let dispatches = [
            "gibbs.kernel_dispatches",
            "gibbs.naive_dispatches",
            "splits.kernel_dispatches",
            "splits.naive_dispatches",
        ]
        .map(count);
        (network, dispatches)
    };
    let (default, [gibbs_kernel, gibbs_naive, splits_kernel, splits_naive]) = learn("default", &[]);
    assert!(gibbs_kernel > 0);
    assert_eq!((gibbs_naive, splits_kernel, splits_naive), (0, 1, 0));
    let (reference, [gibbs_kernel, gibbs_naive, splits_kernel, splits_naive]) =
        learn("reference", &["--reference"]);
    assert!(gibbs_naive > 0);
    assert_eq!((gibbs_kernel, splits_kernel, splits_naive), (0, 0, 1));
    assert_eq!(reference, default, "--reference changed the network");
}

#[test]
fn cli_checkpoint_guard_covers_the_scoring_path() {
    // A checkpoint written on one scoring path never resumes on the
    // other: its units would replay the other path's counters. With
    // --resume that is the config-mismatch error; without it the run
    // starts fresh on its own path and learns the same network.
    let metric = |run: &monet::RunMetrics, name: &str| run.counters.get(name).copied();
    for (tag, writer, reader) in [
        ("to_ref", &[][..], &["--reference"][..]),
        ("from_ref", &["--reference"][..], &[][..]),
    ] {
        let (ckpt, args) = checkpoint_scenario(tag);
        let written = ckpt.with_extension("written.json");
        let output = Command::new(monet_bin())
            .args(&args)
            .args(writer)
            .arg("--json")
            .arg(&written)
            .output()
            .expect("run monet");
        assert!(output.status.success(), "{tag}: seeding run failed");

        let output = Command::new(monet_bin())
            .args(&args)
            .args(reader)
            .arg("--resume")
            .output()
            .expect("run monet");
        assert_eq!(output.status.code(), Some(1), "{tag}: resumed across paths");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(stderr.contains("learner config digest"), "{tag}: {stderr}");
        assert!(!stderr.contains("panicked"), "{tag}: {stderr}");

        let fresh = ckpt.with_extension("fresh.json");
        let metrics = ckpt.with_extension("m.json");
        let output = Command::new(monet_bin())
            .args(&args)
            .args(reader)
            .arg("--json")
            .arg(&fresh)
            .arg("--metrics-out")
            .arg(&metrics)
            .output()
            .expect("run monet");
        assert!(
            output.status.success(),
            "{tag}: {}",
            String::from_utf8_lossy(&output.stderr)
        );
        assert_eq!(
            std::fs::read(&fresh).unwrap(),
            std::fs::read(&written).unwrap(),
            "{tag}: the fresh run learned another network"
        );
        let run: monet::RunMetrics =
            serde_json::from_str(&std::fs::read_to_string(&metrics).unwrap()).unwrap();
        let (other, own) = if reader.is_empty() {
            ("gibbs.naive_dispatches", "gibbs.kernel_dispatches")
        } else {
            ("gibbs.kernel_dispatches", "gibbs.naive_dispatches")
        };
        assert_eq!(metric(&run, other), None, "{tag}: replayed units");
        assert!(metric(&run, own).is_some_and(|n| n > 0), "{tag}: no {own}");
        for file in [written, fresh, metrics] {
            std::fs::remove_file(file).ok();
        }
        std::fs::remove_dir_all(&ckpt).ok();
    }
}

#[test]
fn cli_client_submit_refuses_reference() {
    // `--reference` is a batch flag: a served job has one scoring path.
    // The client checks its flags before it connects, so no server is
    // needed to see the refusal.
    let output = Command::new(monet_bin())
        .args([
            "client",
            "--connect",
            "unix:/nonexistent/monet.sock",
            "submit",
        ])
        .args(["--tenant", "t", "--dataset", "d", "--reference"])
        .output()
        .expect("run monet client");
    assert_eq!(output.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("unknown flag \"--reference\""), "{stderr}");
    let usage = stderr.split_once("usage:").unwrap().1;
    assert!(
        !usage.contains("--reference"),
        "client usage lists --reference"
    );
}
