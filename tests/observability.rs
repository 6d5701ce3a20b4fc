//! The observability guarantees of the pipeline, end to end:
//!
//! * the deterministic event counters are bit-identical across all
//!   four engines and across rank counts (the `mn-obs` determinism
//!   contract);
//! * the counters match a committed golden record, so drift in the
//!   algorithm's event structure fails CI until acknowledged
//!   (regenerate with `UPDATE_GOLDEN=1 cargo test -p monet --test
//!   observability`);
//! * the chrome-trace export is schema-valid with one track per rank,
//!   and the observability snapshot round-trips through JSON;
//! * the flight recorder's deterministic event sequence is
//!   bit-identical across engines and rank counts (timestamps
//!   excluded) and matches its own committed golden record;
//! * the per-phase communication matrix of the real msg fabric equals
//!   the sim engine's synthesized matrix exactly and matches a golden
//!   record for a fixed seed, and both scoring paths move the same
//!   matrix;
//! * a broken determinism contract surfaces from `merge_ranks` as a
//!   typed [`obs::MergeError`] carrying the first divergence.

use mn_comm::{obs, spmd_run, ParEngine, SerialEngine, SimEngine, ThreadEngine};
use mn_score::Scoring;
use monet::{learn_module_network, learn_module_network_with, LearnerConfig};
use std::collections::BTreeMap;

fn dataset() -> mn_data::Dataset {
    mn_data::synthetic::yeast_like(20, 14, 9).dataset
}

fn config() -> LearnerConfig {
    LearnerConfig::paper_minimum(7)
}

/// Run the full pipeline on `engine` and return its final counters.
fn counters_on<E: ParEngine>(engine: &mut E) -> BTreeMap<String, u64> {
    let d = dataset();
    let c = config();
    learn_module_network(engine, &d, &c);
    let now = engine.now_s();
    engine.obs().snapshot(now).counters
}

/// SPMD run over `p` real rank-threads; `merge_ranks` additionally
/// asserts the per-rank counters agree rank-to-rank.
fn msg_counters(p: usize) -> BTreeMap<String, u64> {
    let d = dataset();
    let c = config();
    let snapshots = spmd_run(p, |engine| {
        learn_module_network(engine, &d, &c);
        let now = engine.now_s();
        engine.obs().snapshot(now)
    });
    obs::merge_ranks(&snapshots)
        .expect("per-rank counters must agree")
        .counters
}

#[test]
fn counters_bit_identical_across_all_engines_and_rank_counts() {
    let serial = counters_on(&mut SerialEngine::new());
    // The counters exist and count real work.
    for key in [
        "engine.dist_maps",
        "engine.items",
        "gibbs.sweeps",
        "gibbs.moves_proposed",
        "gibbs.moves_accepted",
        // The production scoring path is the batched kernel; its
        // dispatch marker and cache traffic must show up (the naive
        // counter moves only under `--reference` or the test oracle).
        "gibbs.kernel_dispatches",
        "gibbs.cache_hits",
        "gibbs.cache_misses",
        "tree.modules",
        "tree.trees",
        "tree.merges",
        "splits.scored",
        "splits.nodes",
        // The score-layer memoization and arena counters of the
        // default kernel paths (PR 6): table-served ln Γ lookups in
        // tree building + Gibbs scoring, and split-kernel scratch
        // reuse.
        "score.ln_gamma_calls",
        "score.ln_gamma_table_hits",
        "score.scratch_reuses",
        "comm.collectives",
        // Task 2, sharded over the engine: stored post-threshold
        // entries and sharded power-iteration matvecs.
        "consensus.nnz",
        "consensus.matvec_dispatches",
    ] {
        assert!(
            serial.get(key).copied().unwrap_or(0) > 0,
            "counter {key} never incremented: {serial:?}"
        );
    }

    assert_eq!(
        serial,
        counters_on(&mut ThreadEngine::new(3)),
        "threads:3 diverged from serial"
    );
    for p in [4usize, 9] {
        assert_eq!(
            serial,
            counters_on(&mut SimEngine::new(p)),
            "sim:{p} diverged from serial"
        );
    }
    for p in [2usize, 3] {
        assert_eq!(serial, msg_counters(p), "msg:{p} diverged from serial");
    }
}

#[test]
fn counters_match_golden_record() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/golden/counters_synthetic_20x14_seed7.json"
    );
    let counters = counters_on(&mut SerialEngine::new());
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        let text = serde_json::to_string_pretty(&counters).expect("serialize counters");
        std::fs::write(path, text + "\n").expect("write golden");
        return;
    }
    let text = std::fs::read_to_string(path)
        .expect("golden counter record missing — run with UPDATE_GOLDEN=1 to create it");
    let golden: BTreeMap<String, u64> = serde_json::from_str(&text).expect("parse golden");
    assert_eq!(
        counters, golden,
        "deterministic counters drifted from tests/golden/\
         counters_synthetic_20x14_seed7.json; if the algorithm change is \
         intentional, regenerate with UPDATE_GOLDEN=1"
    );
}

#[test]
fn chrome_trace_is_schema_valid_with_one_track_per_rank() {
    let d = dataset();
    let c = config();
    let mut engine = SimEngine::new(5);
    learn_module_network(&mut engine, &d, &c);
    let now = engine.now_s();
    let snapshot = engine.obs().snapshot(now);
    let text = obs::chrome_trace_json(&snapshot);

    let value: serde_json::Value = serde_json::from_str(&text).expect("trace parses");
    let events = value["traceEvents"].as_array().expect("traceEvents array");
    assert!(!events.is_empty());

    // One thread_name metadata record per rank.
    let tracks: Vec<&serde_json::Value> = events
        .iter()
        .filter(|e| e["ph"].as_str() == Some("M") && e["name"].as_str() == Some("thread_name"))
        .collect();
    assert_eq!(tracks.len(), 5, "expected one track per rank");
    for (r, track) in tracks.iter().enumerate() {
        assert_eq!(track["args"]["name"].as_str(), Some(format!("rank {r}").as_str()));
    }

    // Every complete event is well-formed: µs timestamps, a rank-valued
    // tid, and the span path in args.
    let mut complete = 0;
    for e in events.iter().filter(|e| e["ph"].as_str() == Some("X")) {
        complete += 1;
        assert!(e["ts"].as_f64().is_some(), "ts missing: {e:?}");
        assert!(e["dur"].as_f64().expect("dur") >= 0.0);
        let tid = e["tid"].as_u64().expect("tid") as usize;
        assert!(tid < 5, "tid {tid} out of rank range");
        assert!(e["args"]["path"].as_str().is_some(), "args.path missing");
    }
    assert!(complete > 0, "no complete events in trace");
}

/// Canonical, timestamp-free rendering of one deterministic flight
/// record: `seq kind payload`.
fn det_line(r: &obs::flightrec::FlightRecord) -> String {
    use obs::FlightEvent;
    match &r.event {
        FlightEvent::SpanEnter { path } => format!("{} enter {path}", r.seq),
        FlightEvent::SpanExit { path } => format!("{} exit {path}", r.seq),
        FlightEvent::CkptUnit { unit, written } => {
            format!("{} ckpt {unit} written={written}", r.seq)
        }
        other => panic!("non-deterministic event in det ring: {other:?}"),
    }
}

/// Run the full pipeline on `engine` and return its deterministic
/// flight sequence, canonically rendered.
fn det_flight_on<E: ParEngine>(engine: &mut E) -> Vec<String> {
    let d = dataset();
    let c = config();
    learn_module_network(engine, &d, &c);
    engine.obs().flight().det_events().iter().map(det_line).collect()
}

/// FNV-1a over the joined sequence, so the golden record stays small.
fn fnv64(lines: &[String]) -> u64 {
    let mut hash: u64 = 0xcbf29ce484222325;
    for line in lines {
        for byte in line.bytes().chain(std::iter::once(b'\n')) {
            hash ^= byte as u64;
            hash = hash.wrapping_mul(0x100000001b3);
        }
    }
    hash
}

#[test]
fn flight_det_sequence_bit_identical_across_engines_and_ranks() {
    let serial = det_flight_on(&mut SerialEngine::new());
    assert!(!serial.is_empty(), "flight recorder captured nothing");
    assert_eq!(
        serial,
        det_flight_on(&mut ThreadEngine::new(3)),
        "threads:3 flight diverged from serial"
    );
    for p in [4usize, 9] {
        assert_eq!(
            serial,
            det_flight_on(&mut SimEngine::new(p)),
            "sim:{p} flight diverged from serial"
        );
    }
    for p in [2usize, 3] {
        let d = dataset();
        let c = config();
        let per_rank = spmd_run(p, |engine| {
            learn_module_network(engine, &d, &c);
            engine
                .obs()
                .flight()
                .det_events()
                .iter()
                .map(det_line)
                .collect::<Vec<_>>()
        });
        for (rank, seq) in per_rank.iter().enumerate() {
            assert_eq!(
                seq, &serial,
                "msg:{p} rank {rank} flight diverged from serial"
            );
        }
    }
}

#[test]
fn flight_det_sequence_matches_golden_record() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/golden/flightrec_det_synthetic_20x14_seed7.txt"
    );
    let lines = det_flight_on(&mut SerialEngine::new());
    // Compact golden: length + FNV-64 digest + head/tail windows, so a
    // drift is both detected and legible in the diff.
    let mut record = String::new();
    record.push_str(&format!("det_len {}\n", lines.len()));
    record.push_str(&format!("fnv64 {:016x}\n", fnv64(&lines)));
    for line in lines.iter().take(40) {
        record.push_str(&format!("head {line}\n"));
    }
    for line in lines.iter().rev().take(40).rev() {
        record.push_str(&format!("tail {line}\n"));
    }
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, record).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(path)
        .expect("flight-recorder golden missing — run with UPDATE_GOLDEN=1 to create it");
    assert_eq!(
        record, golden,
        "deterministic flight sequence drifted from tests/golden/\
         flightrec_det_synthetic_20x14_seed7.txt; if the change is \
         intentional, regenerate with UPDATE_GOLDEN=1"
    );
}

#[test]
fn comm_matrix_sim_equals_msg_and_matches_golden() {
    let p = 3;
    let d = dataset();
    let c = config();

    // The real fabric's per-rank matrices, merged.
    let snapshots = spmd_run(p, |engine| {
        learn_module_network(engine, &d, &c);
        let now = engine.now_s();
        engine.obs().snapshot(now)
    });
    let msg_comm = obs::merge_ranks(&snapshots).expect("ranks agree").comm;
    assert!(msg_comm.total_msgs() > 0, "fabric recorded no traffic");

    // The sim engine synthesizes the identical matrix from the same
    // collective schedules — per phase, per pair, msgs and bytes.
    let mut sim = SimEngine::new(p);
    learn_module_network(&mut sim, &d, &c);
    let now = sim.now_s();
    let sim_comm = sim.obs().snapshot(now).comm;
    assert_eq!(sim_comm, msg_comm, "sim comm matrix diverged from msg fabric");

    // Golden record for the fixed seed.
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/golden/comm_matrix_msg3_20x14_seed7.json"
    );
    let text_now = serde_json::to_string_pretty(&msg_comm).expect("serialize comm matrix");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, text_now + "\n").expect("write golden");
        return;
    }
    let text = std::fs::read_to_string(path)
        .expect("comm-matrix golden missing — run with UPDATE_GOLDEN=1 to create it");
    let golden: obs::CommMatrix = serde_json::from_str(&text).expect("parse golden");
    assert_eq!(
        msg_comm, golden,
        "communication matrix drifted from tests/golden/\
         comm_matrix_msg3_20x14_seed7.json; if the change is intentional, \
         regenerate with UPDATE_GOLDEN=1"
    );
}

#[test]
fn comm_matrix_is_the_same_on_both_scoring_paths() {
    // Every GaneSH map item is a plain weight on both scoring paths,
    // so the kernel moves exactly the naive oracles' bytes, on the
    // real fabric and in the simulator's synthesized matrix alike.
    let d = dataset();
    let c = config();
    let comm = |scoring: Scoring, fabric: bool| {
        if fabric {
            let snapshots = spmd_run(3, |engine| {
                learn_module_network_with(engine, &d, &c, scoring, None).expect("learn");
                let now = engine.now_s();
                engine.obs().snapshot(now)
            });
            obs::merge_ranks(&snapshots).expect("ranks agree").comm
        } else {
            let mut sim = SimEngine::new(3);
            learn_module_network_with(&mut sim, &d, &c, scoring, None).expect("learn");
            let now = sim.now_s();
            sim.obs().snapshot(now).comm
        }
    };
    let kernel = comm(Scoring::Kernel, true);
    assert!(kernel.total_msgs() > 0, "fabric recorded no traffic");
    for (scoring, fabric) in [
        (Scoring::Kernel, false),
        (Scoring::Naive, true),
        (Scoring::Naive, false),
    ] {
        let engine = if fabric { "msg:3" } else { "sim:3" };
        assert_eq!(
            comm(scoring, fabric),
            kernel,
            "{scoring:?} on {engine} moved other traffic than the kernel on msg:3"
        );
    }
}

#[test]
fn merge_ranks_divergence_is_a_typed_error_with_first_diff() {
    let mut a = obs::Recorder::new(2);
    let mut b = obs::Recorder::new(2);
    a.count_dist_map(10, 1);
    b.count_dist_map(10, 1);
    b.count_dist_map(5, 1); // rank 1 ran one dist_map too many
    let err = obs::merge_ranks(&[a.snapshot(1.0), b.snapshot(1.0)])
        .expect_err("divergence must be rejected");
    match &err {
        obs::MergeError::CounterDivergence { rank, counter, .. } => {
            assert_eq!(*rank, 1);
            // First diverging counter in sorted order (count_dist_map
            // also charges the all-gather word counter).
            assert_eq!(counter, "comm.allgather_words");
        }
        other => panic!("wrong error variant: {other:?}"),
    }
    let msg = err.to_string();
    assert!(
        msg.contains("comm.allgather_words") && msg.contains("rank 1"),
        "diff not legible: {msg}"
    );
}

#[test]
fn snapshot_round_trips_through_json() {
    let d = dataset();
    let c = config();
    let mut engine = SimEngine::new(3);
    learn_module_network(&mut engine, &d, &c);
    let now = engine.now_s();
    let snapshot = engine.obs().snapshot(now);
    let text = serde_json::to_string(&snapshot).expect("serialize snapshot");
    let back: obs::ObsSnapshot = serde_json::from_str(&text).expect("parse snapshot");
    assert_eq!(snapshot, back);
}
