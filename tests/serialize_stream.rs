//! Streamed serialization writes the bytes of the value-tree path.
//!
//! `serde_json::to_string` and the proc wire codec write a value's
//! serialization events straight into their output; the tree path
//! first builds the value's `serde_json::Value` and writes that. On
//! every artifact the workspace writes — the network (`to_json`), a
//! checkpoint unit and manifest, the run metrics, the learner config
//! and a flight dump — both paths must give the same bytes, compact,
//! pretty and on the wire.

use mn_comm::msg::wire;
use mn_comm::SerialEngine;
use mn_consensus::SparseSymMatrix;
use mn_data::synthetic;
use mn_obs::flightrec::parse_dump;
use mn_obs::{FlightEvent, FlightRec};
use monet::checkpoint::{Manifest, UnitRecord, MANIFEST_FILE};
use monet::{learn_with_checkpoint, to_json, CheckpointStore, LearnerConfig, RunMetrics};
use serde::Serialize;
use std::path::PathBuf;

/// Streamed and tree-path bytes agree for `value`, as compact and
/// pretty JSON and on the wire.
fn assert_streams_like_the_tree<T: Serialize>(what: &str, value: &T) {
    let tree = value.serialize_value();
    assert_eq!(
        serde_json::to_string(value).unwrap(),
        serde_json::to_string(&tree).unwrap(),
        "{what}: compact JSON"
    );
    assert_eq!(
        serde_json::to_string_pretty(value).unwrap(),
        serde_json::to_string_pretty(&tree).unwrap(),
        "{what}: pretty JSON"
    );
    assert_eq!(
        wire::to_vec(value),
        wire::to_vec(&tree),
        "{what}: wire bytes"
    );
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("monet_stream_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

#[test]
fn a_checkpointed_learn_streams_the_tree_bytes() {
    let data = synthetic::yeast_like(60, 30, 7).dataset;
    let mut config = LearnerConfig::paper_minimum(7);
    config.ganesh_runs = 4;
    let dir = tmpdir("learn");
    let mut engine = SerialEngine::new();
    let (network, _) = learn_with_checkpoint(&mut engine, &data, &config, &dir).unwrap();

    // The network file is the pretty tree text.
    assert_streams_like_the_tree("network", &network);
    assert_eq!(
        to_json(&network),
        serde_json::to_string_pretty(&network.serialize_value()).unwrap()
    );

    // The metrics record of the same run.
    let snapshot = mn_comm::ParEngine::obs(&engine).snapshot(0.0);
    let metrics = RunMetrics::new(&snapshot);
    assert_streams_like_the_tree("run metrics", &metrics);
    assert_eq!(
        metrics.to_json(),
        serde_json::to_string_pretty(&metrics.serialize_value()).unwrap()
    );

    assert_streams_like_the_tree("learner config", &config);

    // The files the store wrote are the tree text of what it holds:
    // the co-occurrence unit run_consensus persisted, and the manifest.
    let store = CheckpointStore::open(
        &dir,
        config.seed,
        monet::checkpoint::data_fingerprint(&data),
        1,
        monet::ResumePolicy::Auto,
        false,
    )
    .unwrap();
    let cooc: UnitRecord<SparseSymMatrix> = store.get("consensus_cooc").expect("cooc unit");
    assert!(cooc.value.nnz_upper() > 0);
    assert_streams_like_the_tree("consensus_cooc unit", &cooc);
    assert_eq!(
        std::fs::read_to_string(dir.join("consensus_cooc.json")).unwrap(),
        serde_json::to_string(&cooc.serialize_value()).unwrap()
    );
    let manifest_text = std::fs::read_to_string(dir.join(MANIFEST_FILE)).unwrap();
    let manifest: Manifest = serde_json::from_str(&manifest_text).unwrap();
    assert!(manifest.entries.contains_key("consensus_cooc"));
    assert_streams_like_the_tree("manifest", &manifest);
    assert_eq!(
        manifest_text,
        serde_json::to_string_pretty(&manifest.serialize_value()).unwrap()
    );
    drop(store);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn flight_dump_lines_stream_the_tree_bytes() {
    let rec = FlightRec::new(2, 1);
    for event in [
        FlightEvent::SpanEnter { path: "run".into() },
        FlightEvent::SpanExit {
            path: "run/\"q\"".into(),
        },
        FlightEvent::CkptUnit {
            unit: "module_0".into(),
            written: true,
        },
        FlightEvent::Send { peer: 0, bytes: 64 },
        FlightEvent::Recv {
            peer: 0,
            bytes: u64::MAX,
        },
        FlightEvent::MsgDropped { peer: 0 },
        FlightEvent::FaultInjected {
            action: "kill".into(),
            event: 3,
        },
        FlightEvent::CommFailure {
            detail: "peer rank 0 disconnected\n".into(),
        },
        FlightEvent::RngJump { draw: 17 },
    ] {
        rec.record(event);
    }
    let records = [rec.det_events(), rec.local_events()].concat();
    assert_eq!(records.len(), 9);
    let dump = rec.dump_jsonl();
    let lines: Vec<&str> = dump.lines().skip(1).collect();
    assert_eq!(lines.len(), records.len());
    for (record, line) in records.iter().zip(lines) {
        assert_streams_like_the_tree(record.event.kind(), record);
        assert_eq!(
            line,
            serde_json::to_string(&record.serialize_value()).unwrap()
        );
    }
    assert_eq!(parse_dump(&dump).unwrap(), records);
}
