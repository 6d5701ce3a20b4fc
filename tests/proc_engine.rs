//! End-to-end tests of the multi-process engine (`--engine proc:<p>`):
//! a supervisor spawns one `monet worker` OS process per rank and
//! routes the msg fabric over a Unix-domain socket. These tests cover
//! the acceptance drills from DESIGN.md §15: byte-identity with the
//! in-process engines, the real-SIGKILL kill-resume drill, bounded
//! handshake timeouts, the heartbeat stall monitor, and black-box
//! dumps from terminated workers.

use std::path::PathBuf;
use std::process::Command;
use std::time::{Duration, Instant};

use mn_comm::obs::flightrec::{det_overlap_matches, parse_dump, FlightRecord};

fn monet_bin() -> PathBuf {
    // Integration tests live next to the binary in target/<profile>/.
    let mut path = std::env::current_exe().expect("test exe path");
    path.pop(); // the deps/ directory
    if path.ends_with("deps") {
        path.pop();
    }
    path.join("monet")
}

/// Run one learning job with `extra` on top of a fixed scenario,
/// returning the raw process output.
fn run_scenario(extra: &[&str]) -> std::process::Output {
    Command::new(monet_bin())
        .args(["--synthetic", "30,20", "--seed", "4", "--quiet"])
        .args(extra)
        .output()
        .expect("run monet")
}

/// Parse a rank's dump and keep only the deterministic-class records
/// (the cross-rank comparable half of the black box).
fn det_records(path: &std::path::Path) -> Vec<FlightRecord> {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("missing dump {}: {e}", path.display()));
    parse_dump(&text)
        .unwrap_or_else(|e| panic!("dump {} unparseable: {e}", path.display()))
        .into_iter()
        .filter(|r| r.event.is_deterministic())
        .collect()
}

/// The learned network must not depend on process boundaries: serial,
/// in-process msg, and multi-process proc at several rank counts all
/// produce byte-identical JSON.
#[test]
fn proc_engine_matches_serial_byte_identically() {
    let dir = std::env::temp_dir();
    let mut outputs = Vec::new();
    for (engine, tag) in [("serial", "s"), ("msg:4", "m4"), ("proc:2", "p2"), ("proc:4", "p4")] {
        let json = dir.join(format!("monet_proc_det_{tag}_{}.json", std::process::id()));
        let output = run_scenario(&["--engine", engine, "--json", json.to_str().unwrap()]);
        assert!(
            output.status.success(),
            "{engine}: stderr: {}",
            String::from_utf8_lossy(&output.stderr)
        );
        outputs.push((engine, std::fs::read_to_string(&json).unwrap()));
        std::fs::remove_file(json).ok();
    }
    for (engine, text) in &outputs[1..] {
        assert_eq!(text, &outputs[0].1, "{engine} changed the network");
    }
}

/// The full kill-resume drill: a *real* `SIGKILL` (not an injected
/// panic) takes out rank 2 mid-run. The supervisor must detect the
/// death within the heartbeat bound, exit 3 with a one-line diagnosis
/// naming the dead rank, and leave one parseable flight-recorder dump
/// per rank whose deterministic rings replay-match the survivors'.
/// A fresh `--resume` at p' = 3 then finishes the job byte-identically
/// to an uninterrupted serial run — elastic restart across a real
/// process boundary.
#[test]
fn proc_sigkill_drill_diagnoses_dumps_and_resumes_elastically() {
    let dir = std::env::temp_dir();
    let id = std::process::id();
    let ckpt = dir.join(format!("monet_proc_drill_ckpt_{id}"));
    let frec = dir.join(format!("monet_proc_drill_frec_{id}"));
    std::fs::remove_dir_all(&ckpt).ok();
    std::fs::remove_dir_all(&frec).ok();

    // Uninterrupted, checkpoint-free reference network.
    let ref_json = dir.join(format!("monet_proc_drill_ref_{id}.json"));
    let output = run_scenario(&["--json", ref_json.to_str().unwrap()]);
    assert!(output.status.success());

    // Phase 1: rank 2 really dies (SIGKILL raised on its own process).
    let started = Instant::now();
    let output = run_scenario(&[
        "--engine",
        "proc:4",
        "--fault",
        "sigkill:2@50",
        "--checkpoint-dir",
        ckpt.to_str().unwrap(),
        "--flightrec-dir",
        frec.to_str().unwrap(),
    ]);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(3), "stderr: {stderr}");
    assert!(
        stderr.contains("rank 2") && stderr.contains("died"),
        "diagnosis does not name the dead rank: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    // Detection is bounded: well under the 2 s heartbeat timeout plus
    // slack, never a hang.
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "kill detection took {:?}",
        started.elapsed()
    );
    assert!(ckpt.join("manifest.json").exists(), "no checkpoint survived the kill");

    // Every rank — including the SIGKILLed one, which dumps just
    // before raising the signal — left a parseable black box, and the
    // victim's deterministic ring replay-matches each survivor's on
    // their overlap window.
    let victim = det_records(&frec.join("flightrec-rank2.jsonl"));
    assert!(!victim.is_empty(), "killed rank recorded no deterministic events");
    for survivor in [0usize, 1, 3] {
        let records = det_records(&frec.join(format!("flightrec-rank{survivor}.jsonl")));
        let overlap = det_overlap_matches(&victim, &records)
            .unwrap_or_else(|e| panic!("rank 2 vs rank {survivor}: {e}"));
        assert!(overlap > 0, "rank 2 and rank {survivor} share no det window");
    }

    // Phase 2: resume with one fewer process. The v2 manifest is
    // partition-independent, so p' = 3 != p = 4 must still reproduce
    // the uninterrupted network byte for byte.
    let json = dir.join(format!("monet_proc_drill_resumed_{id}.json"));
    let output = run_scenario(&[
        "--engine",
        "proc:3",
        "--resume",
        "--checkpoint-dir",
        ckpt.to_str().unwrap(),
        "--json",
        json.to_str().unwrap(),
    ]);
    assert!(
        output.status.success(),
        "resume failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert_eq!(
        std::fs::read_to_string(&json).unwrap(),
        std::fs::read_to_string(&ref_json).unwrap(),
        "elastic proc resume diverged from the uninterrupted network"
    );

    std::fs::remove_file(json).ok();
    std::fs::remove_file(ref_json).ok();
    std::fs::remove_dir_all(&ckpt).ok();
    std::fs::remove_dir_all(&frec).ok();
}

/// An *injected* fault on the proc engine surfaces exactly like a real
/// one: exit code 3 and a diagnosis naming the rank, never a panic
/// backtrace or a hang.
#[test]
fn proc_injected_kill_exits_3_with_diagnosis() {
    let frec = std::env::temp_dir().join(format!("monet_proc_inj_frec_{}", std::process::id()));
    std::fs::remove_dir_all(&frec).ok();
    let output = run_scenario(&[
        "--engine",
        "proc:2",
        "--fault",
        "kill:1@40",
        "--flightrec-dir",
        frec.to_str().unwrap(),
    ]);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(3), "stderr: {stderr}");
    assert!(
        stderr.contains("rank 1") && stderr.contains("injected kill"),
        "stderr: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    // The victim's dump records the injection itself.
    let dump = std::fs::read_to_string(frec.join("flightrec-rank1.jsonl")).unwrap();
    assert!(dump.contains("fault-injected"), "injection not in victim dump");
    std::fs::remove_dir_all(&frec).ok();
}

/// A worker whose supervisor never appears must fail with a typed
/// timeout inside the configured bound — exit 3, not a hang.
#[test]
fn proc_worker_handshake_timeout_is_bounded() {
    let socket = std::env::temp_dir().join(format!("monet_proc_never_{}.sock", std::process::id()));
    std::fs::remove_file(&socket).ok();
    let started = Instant::now();
    let output = Command::new(monet_bin())
        .args(["worker", "--proc-rank", "1", "--proc-nranks", "2"])
        .args(["--proc-socket", socket.to_str().unwrap()])
        .args(["--synthetic", "10,8", "--engine", "proc:2"])
        .args(["--comm-timeout-ms", "300", "--quiet"])
        .output()
        .expect("run monet worker");
    let elapsed = started.elapsed();
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(3), "stderr: {stderr}");
    assert!(
        stderr.contains("handshake") && stderr.contains("timed out"),
        "stderr: {stderr}"
    );
    assert!(elapsed < Duration::from_secs(10), "timeout not bounded: {elapsed:?}");
}

/// Find the pid of the worker holding `socket` in its argv with
/// `--proc-rank <rank>`, polling /proc until it appears.
fn find_worker_pid(socket: &str, rank: usize, deadline: Duration) -> Option<u32> {
    let started = Instant::now();
    let rank = rank.to_string();
    while started.elapsed() < deadline {
        for entry in std::fs::read_dir("/proc").ok()?.flatten() {
            let name = entry.file_name();
            let Some(pid) = name.to_str().and_then(|s| s.parse::<u32>().ok()) else {
                continue;
            };
            let Ok(raw) = std::fs::read(entry.path().join("cmdline")) else {
                continue;
            };
            let argv: Vec<&str> = raw
                .split(|&b| b == 0)
                .filter_map(|s| std::str::from_utf8(s).ok())
                .collect();
            let has_rank = argv
                .windows(2)
                .any(|w| w[0] == "--proc-rank" && w[1] == rank);
            // The supervisor renders the socket as `unix:<path>`;
            // match on the path suffix rather than the exact spelling.
            if has_rank && argv.iter().any(|a| a.ends_with(socket)) {
                return Some(pid);
            }
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    None
}

/// A `SIGTERM`ed worker flushes its flight ring to disk before dying,
/// and the supervisor diagnoses the departure as a death (the worker
/// never said goodbye) with exit code 3.
#[test]
fn proc_sigterm_dumps_flight_ring_before_exit() {
    let dir = std::env::temp_dir();
    let id = std::process::id();
    let frec = dir.join(format!("monet_proc_term_frec_{id}"));
    let socket = dir.join(format!("monet_proc_term_{id}.sock"));
    std::fs::remove_dir_all(&frec).ok();
    std::fs::remove_file(&socket).ok();

    // A long injected delay on rank 1 holds the run open so the test
    // can signal a live mid-run worker, not race a finished one.
    let mut child = Command::new(monet_bin())
        .args(["--synthetic", "30,20", "--seed", "4", "--quiet"])
        .args(["--engine", "proc:2", "--fault", "delay:1@30:10000"])
        .args(["--flightrec-dir", frec.to_str().unwrap()])
        .env("MN_PROC_ADDR", socket.to_str().unwrap())
        .spawn()
        .expect("spawn supervisor");

    let pid = find_worker_pid(socket.to_str().unwrap(), 1, Duration::from_secs(10))
        .expect("worker 1 never appeared in /proc");
    // Give the worker a beat to finish its handshake and install the
    // SIGTERM hook (it does so immediately after connecting).
    std::thread::sleep(Duration::from_millis(500));
    assert!(
        mn_comm::sys::send_signal(pid, mn_comm::sys::SIGTERM),
        "SIGTERM delivery failed"
    );

    let status = child.wait().expect("wait supervisor");
    assert_eq!(status.code(), Some(3), "supervisor exit after worker SIGTERM");
    // The terminated worker's black box is on disk and parses.
    let records = det_records(&frec.join("flightrec-rank1.jsonl"));
    assert!(!records.is_empty(), "SIGTERMed worker dumped no deterministic events");
    std::fs::remove_dir_all(&frec).ok();
    std::fs::remove_file(&socket).ok();
}

/// `SIGSTOP`: the worker stays alive but stops beating.
const SIGSTOP: i32 = 19;

/// Whether process `pid` has a thread named `name`.
fn has_thread(pid: u32, name: &str) -> bool {
    let Ok(tasks) = std::fs::read_dir(format!("/proc/{pid}/task")) else {
        return false;
    };
    tasks.flatten().any(|task| {
        std::fs::read_to_string(task.path().join("comm")).is_ok_and(|comm| comm.trim_end() == name)
    })
}

/// A worker that is alive but wedged is caught by the stall monitor,
/// not by socket EOF: the supervisor declares the rank dead once its
/// heartbeat is older than the stall bound, `SIGKILL`s it, exits 3
/// with a "stalled" diagnosis naming the rank, and leaves no worker
/// behind.
#[test]
fn proc_stalled_worker_is_killed_and_diagnosed() {
    let dir = std::env::temp_dir();
    let id = std::process::id();
    let socket = dir.join(format!("monet_proc_stall_{id}.sock"));
    let frec = dir.join(format!("monet_proc_stall_frec_{id}"));
    std::fs::remove_file(&socket).ok();
    std::fs::remove_dir_all(&frec).ok();
    let socket_str = socket.to_str().unwrap();

    // The injected delay holds the run open, heartbeats still flowing,
    // until the test freezes rank 1.
    let started = Instant::now();
    let mut child = Command::new(monet_bin())
        .args(["--synthetic", "30,20", "--seed", "4", "--quiet"])
        .args(["--engine", "proc:2", "--fault", "delay:1@30:10000"])
        .args(["--flightrec-dir", frec.to_str().unwrap()])
        .env("MN_PROC_ADDR", socket_str)
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn supervisor");

    let pid = find_worker_pid(socket_str, 1, Duration::from_secs(10))
        .expect("worker 1 never appeared in /proc");
    // Freeze the worker only once its heartbeat thread runs (it starts
    // after `Welcome`), so the supervisor sees a stall, not a worker
    // that never finished its handshake.
    let beating = Instant::now();
    while !has_thread(pid, "proc-hb-r1") {
        assert!(beating.elapsed() < Duration::from_secs(10), "worker 1 never started beating");
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(mn_comm::sys::send_signal(pid, SIGSTOP), "SIGSTOP delivery failed");

    // The 2 s stall bound plus slack, never a hang: past 30 s the test
    // kills the run itself and fails.
    let status = loop {
        if let Some(status) = child.try_wait().expect("poll supervisor") {
            break status;
        }
        if started.elapsed() > Duration::from_secs(30) {
            let _ = child.kill();
            mn_comm::sys::send_signal(pid, mn_comm::sys::SIGKILL);
            let _ = child.wait();
            panic!("the stalled run did not end within 30 s");
        }
        std::thread::sleep(Duration::from_millis(50));
    };
    let mut stderr = String::new();
    std::io::Read::read_to_string(&mut child.stderr.take().unwrap(), &mut stderr).unwrap();
    assert_eq!(status.code(), Some(3), "stderr: {stderr}");
    assert!(
        stderr.contains("rank 1 stalled (heartbeat timeout)"),
        "diagnosis does not name the stalled rank: {stderr}"
    );
    for rank in 0..2 {
        assert_eq!(
            find_worker_pid(socket_str, rank, Duration::from_millis(100)),
            None,
            "worker {rank} outlived its supervisor"
        );
    }
    assert!(!socket.exists(), "the supervisor left its socket file behind");
    // The failed run's black box lands in the given directory, not in
    // the working directory.
    let records = det_records(&frec.join("flightrec-rank0.jsonl"));
    assert!(!records.is_empty(), "rank 0 dumped no deterministic events");
    std::fs::remove_dir_all(&frec).ok();
}
