//! The traced run (`--trace 1`): per-layer numbers on unit 0 of the
//! workload. Times are this harness's own spans and microprobes around
//! public calls; counts are read from the `ObsSnapshot` / `RunMetrics`
//! / `accounting` outputs the program already emits. Metric names are
//! `<crate>.<metric>`; README.md says which end-to-end metric each is
//! expected to move, on which workload.

use crate::batch::{self, learn_child};
use crate::child::Exit;
use crate::serve::{self, JobTimes};
use crate::stats::{median, percentile, top_percentile, Digest};
use crate::trace::Tracer;
use crate::workload::{make_unit, Kind, Unit};
use crate::{Ctx, Outcome};
use mn_comm::msg::wire;
use mn_comm::{ParEngine, Segments, SerialEngine, ThreadEngine};
use mn_consensus::{
    adjusted_rand_index, build_cooccurrence, extract_clusters, labels_from_clusters,
};
use mn_data::Dataset;
use mn_rand::{Domain, MasterRng, Normal};
use mn_score::{NormalGamma, SplitScratch, SuffStats};
use monet::checkpoint::{data_fingerprint, UnitRecord};
use monet::{phases, CheckpointStore, LearnerConfig, Module, ModuleNetwork, ResumePolicy};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Median nanoseconds per call of `f`, over `reps` batches of `calls`.
fn ns_per_call(reps: usize, calls: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..calls {
                f();
            }
            t.elapsed().as_secs_f64() * 1e9 / calls as f64
        })
        .collect();
    median(&samples)
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut report = Outcome::default();
    let floor = batch::floor_child(ctx, "serial")?;
    report.put(
        "monet.process_floor_ms",
        floor.wall_s * 1e3,
        "ms",
        "24x16 serial child, spawn to exit",
    );
    let proc_floor = batch::floor_child(ctx, "proc:2")?;
    report.put(
        "mn-comm.proc2_spawn_ms",
        proc_floor.wall_s * 1e3,
        "ms",
        "24x16 proc:2 child: spawn + handshake + teardown floor",
    );

    let dir = Path::new("units");
    std::fs::create_dir_all(dir).map_err(|e| format!("creating units/: {e}"))?;
    let unit = make_unit(ctx.spec, ctx.seed, 0, dir).map_err(|e| format!("unit 0: {e}"))?;
    report.put(
        "mn-data.generate_ms",
        unit.generate_s * 1e3,
        "ms",
        "mn_data::generate, unit 0",
    );
    let mut data = None;
    let read_ns = ns_per_call(1, 5, || data = Some(mn_data::read_tsv_file(&unit.tsv)));
    report.put(
        "mn-data.read_tsv_ms",
        read_ns / 1e6,
        "ms",
        "read_tsv_file, mean of 5",
    );
    let data = data
        .expect("read at least once")
        .map_err(|e| format!("reading {}: {e}", unit.tsv))?;
    let config = ctx.spec.learner_config(unit.seed);

    microprobes(&mut report, ctx, &data);
    let (mut tracer, learned) = traced_learn(&mut report, &unit, &data, &config);
    children(&mut report, ctx, &unit, &learned)?;
    served(&mut report, &mut tracer, ctx)?;

    std::fs::create_dir_all(&ctx.out_dir).map_err(|e| format!("creating out dir: {e}"))?;
    let path = ctx.out_dir.join(format!("trace_{}.json", ctx.spec.name));
    std::fs::write(&path, tracer.chrome_json()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("trace written to {}", path.display());
    println!(
        "{:<34} {:>6} {:>12} {:>12}",
        "span", "count", "total ms", "self ms"
    );
    for (name, row) in tracer.table() {
        println!(
            "{name:<34} {:>6} {:>12.3} {:>12.3}",
            row.count,
            row.total_us / 1e3,
            row.self_us / 1e3
        );
    }
    Ok(report)
}

/// Per-call costs of single public functions, at the workload's
/// observation count where the function depends on it.
fn microprobes(report: &mut Outcome, ctx: &Ctx, data: &Dataset) {
    let m = ctx.spec.n_obs;
    let master = MasterRng::new(ctx.seed);
    let mut stream = master.stream(Domain::User, 0);
    let mut normal = Normal::new();

    // mn-rand
    let mut at = 1u64;
    let jump = ns_per_call(7, 20_000, || {
        at = at
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        stream.jump_to_draw(at >> 24);
        black_box(stream.next_u64());
    });
    report.put(
        "mn-rand.stream_jump_ns",
        jump,
        "ns",
        "jump_to_draw + one draw",
    );
    let weights: Vec<f64> = (0..64).map(|_| stream.next_f64() + 0.01).collect();
    let pick = ns_per_call(7, 20_000, || {
        black_box(mn_rand::select_wtd_rand(&mut stream, black_box(&weights)));
    });
    report.put(
        "mn-rand.select_wtd_rand_ns_per_item",
        pick / 64.0,
        "ns",
        "64 weights per draw",
    );

    // mn-score
    let row: Vec<f64> = (0..m).map(|_| normal.sample(&mut stream)).collect();
    let node_obs: Vec<usize> = (0..m).collect();
    let left_mask: Vec<bool> = (0..m).map(|i| i % 3 == 0).collect();
    let mut scratch = SplitScratch::new();
    let kernel = ns_per_call(7, 2_000, || {
        black_box(scratch.compute(black_box(&row), &node_obs, &left_mask));
    });
    report.put(
        "mn-score.split_kernel_ns_per_obs",
        kernel / m as f64,
        "ns",
        format!("SplitScratch::compute on one {m}-observation segment"),
    );
    let prior = NormalGamma::default();
    let stats = SuffStats::from_values(&row);
    let logm = ns_per_call(7, 20_000, || {
        black_box(prior.log_marginal(black_box(&stats)));
    });
    report.put(
        "mn-score.log_marginal_ns",
        logm,
        "ns",
        "NormalGamma::log_marginal",
    );

    // mn-tree
    let states: Vec<u128> = (0..mn_tree::mc_kernel::LANES)
        .map(|_| (stream.next_u64() as u128) << 64 | stream.next_u64() as u128)
        .collect();
    let cons: Vec<u64> = states.iter().map(|_| stream.next_u64()).collect();
    let (n, t) = (m.min(64), 64);
    let mut hits = Vec::new();
    let mc = ns_per_call(7, 2_000, || {
        mn_tree::mc_kernel::mc_hits(black_box(&states), &cons, n, t, &mut hits);
        black_box(&hits);
    });
    report.put(
        "mn-tree.mc_ns_per_draw",
        mc / (states.len() * t) as f64,
        "ns",
        format!("mc_hits, {} lanes x {t} draws", states.len()),
    );
    report.put(
        "mn-tree.ifma",
        f64::from(u8::from(mn_tree::mc_kernel::ifma_available())),
        "count",
        "1 = AVX-512 IFMA kernel, 0 = scalar fallback",
    );

    // mn-comm: engine dispatch with an empty kernel, 32 items a call.
    fn dist_map_us<E: ParEngine>(engine: &mut E) -> f64 {
        engine.begin_phase("probe");
        ns_per_call(5, 2_000, || {
            black_box(engine.dist_map(32, 1, &|i| (i as u64, 1)));
        }) / 1e3
    }
    let note = "empty kernel, 32 items, median of 5 x 2000 calls";
    report.put(
        "mn-comm.dist_map_us.serial",
        dist_map_us(&mut SerialEngine::new()),
        "us",
        note,
    );
    report.put(
        "mn-comm.dist_map_us.threads2",
        dist_map_us(&mut ThreadEngine::new(2)),
        "us",
        note,
    );
    let msg2 = mn_comm::msg::spmd_run(2, dist_map_us);
    report.put("mn-comm.dist_map_us.msg2", msg2[0], "us", note);
    let segments = Segments::from_lens([8, 8, 8, 8]);
    let mut threads = ThreadEngine::new(2);
    threads.begin_phase("probe");
    let batch = ns_per_call(5, 2_000, || {
        black_box(
            threads.dist_map_segmented_batch(&segments, 1, &|_, range, out| {
                out.extend(range.map(|i| (i as u64, 1)));
            }),
        );
    });
    report.put(
        "mn-comm.dist_map_seg_batch_us.threads2",
        batch / 1e3,
        "us",
        "4 segments x 8 items",
    );

    // mn-comm: wire codec and the in-process channel fabric.
    let words: Vec<f64> = (0..1024).map(|_| normal.sample(&mut stream)).collect();
    let mut bytes = Vec::new();
    let encode = ns_per_call(7, 500, || bytes = wire::to_vec(black_box(&words)));
    report.put(
        "mn-comm.wire_encode_ns_per_word",
        encode / 1024.0,
        "ns",
        "wire::to_vec, 1024 f64",
    );
    let decode = ns_per_call(7, 500, || {
        black_box(wire::from_slice::<Vec<f64>>(black_box(&bytes)).expect("round trip"));
    });
    report.put(
        "mn-comm.wire_decode_ns_per_word",
        decode / 1024.0,
        "ns",
        "wire::from_slice, 1024 f64",
    );
    for (name, total_words) in [
        ("mn-comm.chan_allgather_us.w8", 8),
        ("mn-comm.chan_allgather_us.w1024", 1024),
    ] {
        let per_rank: Vec<f64> = std::thread::scope(|scope| {
            let handles: Vec<_> = mn_comm::msg::fabric(2)
                .into_iter()
                .map(|ep| {
                    scope.spawn(move || {
                        let local = vec![1.0f64; total_words / 2];
                        ns_per_call(5, 1_000, || {
                            black_box(
                                mn_comm::msg::allgatherv(&ep, local.clone()).expect("allgatherv"),
                            );
                        })
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("fabric thread"))
                .collect()
        });
        report.put(
            name,
            per_rank[0] / 1e3,
            "us",
            "fabric(2) + allgatherv, as rank 0 sees it",
        );
    }

    // mn-obs, through the engine interface the learner uses.
    let mut engine = SerialEngine::new();
    engine.begin_phase("probe");
    let span = ns_per_call(5, 5_000, || {
        engine.span_enter("probe-span");
        engine.span_exit();
    });
    report.put(
        "mn-obs.span_pair_ns",
        span,
        "ns",
        "span_enter + span_exit on SerialEngine",
    );
    let count = ns_per_call(5, 20_000, || engine.count("bench.probe", 1));
    report.put(
        "mn-obs.count_ns",
        count,
        "ns",
        "ParEngine::count on SerialEngine",
    );

    // monet::checkpoint on a recorded unit payload: one GaneSH run's
    // variable clusters.
    let payload = UnitRecord {
        value: mn_gibbs::ganesh(
            &mut SerialEngine::new(),
            &data.subsample(data.n_vars().min(200), data.n_obs()),
            &master,
            0,
            &ctx.spec.learner_config(ctx.seed).ganesh,
        )
        .var_cluster_members(),
        counters: BTreeMap::from([("gibbs.sweeps".to_string(), 1u64)]),
    };
    let dir = Path::new("ckpt_probe");
    let open_store = || {
        CheckpointStore::open(
            dir,
            ctx.seed,
            data_fingerprint(data),
            1,
            ResumePolicy::Auto,
            true,
        )
        .expect("open checkpoint store")
    };
    let mut u = 0;
    let mut store = open_store();
    let put = ns_per_call(5, 4, || {
        u += 1;
        store
            .put(&format!("probe_{u}"), &payload)
            .expect("put unit");
    });
    report.put(
        "monet.ckpt_put_ms",
        put / 1e6,
        "ms",
        "unit file + manifest, atomic renames",
    );
    let get = ns_per_call(5, 20, || {
        black_box(
            store
                .get::<Vec<Vec<usize>>>("probe_1")
                .expect("stored unit"),
        );
    });
    report.put(
        "monet.ckpt_get_ms",
        get / 1e6,
        "ms",
        "decode one stored unit",
    );
    drop(store);
    let open = ns_per_call(5, 1, || drop(black_box(open_store())));
    report.put(
        "monet.ckpt_open_ms",
        open / 1e6,
        "ms",
        "lock + manifest + 20 unit files verified",
    );
}

/// What the in-process learns of unit 0 established.
struct Learned {
    /// The serial reference bytes' digest, made in-process.
    digest: Digest,
    /// Engine events of a whole serial learn (the fault clock's unit).
    engine_events: u64,
    collectives: u64,
}

/// The learn composed from the layers' public functions — the body of
/// `monet::learn_module_network`, one level down — each call in its own
/// span. Returns the network's JSON.
fn composed_learn(
    tracer: &mut Tracer,
    engine: &mut SerialEngine,
    data: &Dataset,
    config: &LearnerConfig,
) -> String {
    let master = MasterRng::new(config.seed);
    tracer.begin_run(1);
    let network = tracer.span("monet.learn", |t| {
        let ensemble: Vec<Vec<Vec<usize>>> = t.span("monet.ganesh", |t| {
            engine.begin_phase(phases::GANESH);
            (0..config.ganesh_runs as u64)
                .map(|run| {
                    t.span("mn-gibbs.ganesh", |_| {
                        let members = mn_gibbs::ganesh(engine, data, &master, run, &config.ganesh)
                            .var_cluster_members();
                        engine.partition_feedback();
                        members
                    })
                })
                .collect()
        });
        let modules = t.span("monet.consensus", |t| {
            engine.begin_phase(phases::CONSENSUS);
            let matrix = t.span("mn-consensus.cooccurrence", |_| {
                build_cooccurrence(engine, data.n_vars(), &ensemble, &config.consensus)
            });
            t.span("mn-consensus.spectral", |_| {
                extract_clusters(engine, &matrix, &config.consensus).clusters
            })
        });
        t.span("monet.modules", |t| {
            engine.begin_phase(phases::MODULES);
            let ensembles: Vec<_> = modules
                .iter()
                .enumerate()
                .map(|(k, vars)| {
                    t.span("mn-tree.learn_module_trees", |_| {
                        mn_tree::learn_module_trees(engine, data, &master, k, vars, &config.tree)
                    })
                })
                .collect();
            let candidates = config.resolved_parents(data.n_vars());
            let assignment = t.span("mn-tree.assign_splits", |_| {
                mn_tree::assign_splits(engine, data, &master, &ensembles, &candidates, &config.tree)
            });
            let parents = t.span("mn-tree.learn_parents", |_| {
                mn_tree::learn_parents(engine, &ensembles, &assignment)
            });
            let mut assignment = vec![None; data.n_vars()];
            let modules = ensembles
                .into_iter()
                .zip(parents)
                .enumerate()
                .map(|(k, (ensemble, parents))| {
                    for &v in &ensemble.vars {
                        assignment[v] = Some(k);
                    }
                    Module {
                        index: k,
                        vars: ensemble.vars.clone(),
                        ensemble,
                        parents,
                    }
                })
                .collect();
            ModuleNetwork {
                var_names: data.var_names.clone(),
                modules,
                assignment,
                seed: config.seed,
            }
        })
    });
    network.validate();
    tracer.span("monet.to_json", |_| monet::to_json(&network))
}

/// In-process learns of unit 0: the one-shot library call untraced and
/// the composed learn traced, twice each in turn, the faster of each
/// kept (their difference is the tracing overhead, so both sides get
/// the same chance at a quiet machine). Returns the kept trace.
fn traced_learn(
    report: &mut Outcome,
    unit: &Unit,
    data: &Dataset,
    config: &LearnerConfig,
) -> (Tracer, Learned) {
    let mut inproc_learn_s = f64::INFINITY;
    let mut digest = None;
    let mut kept: Option<(Tracer, SerialEngine, String)> = None;
    for _ in 0..2 {
        let t = Instant::now();
        let (plain, _) = monet::learn_module_network(&mut SerialEngine::new(), data, config);
        inproc_learn_s = inproc_learn_s.min(t.elapsed().as_secs_f64());
        digest = Some(Digest::of(monet::to_json(&plain).as_bytes()));

        let mut tracer = Tracer::new();
        let mut engine = SerialEngine::new();
        let json = composed_learn(&mut tracer, &mut engine, data, config);
        // The composed run must be the same learn as the one-shot call.
        report
            .ops
            .record(Some(Digest::of(json.as_bytes())) == digest);
        if kept
            .as_ref()
            .is_none_or(|(best, _, _)| tracer.total_s("monet.learn") < best.total_s("monet.learn"))
        {
            kept = Some((tracer, engine, json));
        }
    }
    let (tracer, engine, json) = kept.expect("two traced learns ran");
    let digest = digest.expect("two plain learns ran");
    let network = monet::from_json(&json).expect("the network's own JSON parses");

    let learn_s = tracer.total_s("monet.learn");
    let stages = ["monet.ganesh", "monet.consensus", "monet.modules"].map(|s| tracer.total_s(s));
    report.put(
        "monet.inproc_learn_s",
        inproc_learn_s,
        "s",
        "learn_module_network on SerialEngine, untraced, faster of two",
    );
    report.put(
        "monet.trace_overhead_frac",
        learn_s / inproc_learn_s - 1.0,
        "frac",
        format!(
            "traced {learn_s:.4} s over untraced {inproc_learn_s:.4} s, the faster of two each"
        ),
    );
    let share = |s: f64| format!("{:.1} % of the traced learn", 100.0 * s / learn_s);
    report.put("monet.ganesh_s", stages[0], "s", share(stages[0]));
    report.put("monet.consensus_s", stages[1], "s", share(stages[1]));
    report.put("monet.modules_s", stages[2], "s", share(stages[2]));
    report.put(
        "monet.stage_cover_frac",
        stages.iter().sum::<f64>() / inproc_learn_s,
        "frac",
        "three stage spans over monet.inproc_learn_s",
    );
    report.put(
        "monet.to_json_ms",
        tracer.total_s("monet.to_json") * 1e3,
        "ms",
        "pretty JSON of the network",
    );
    report.put(
        "monet.json_bytes",
        json.len() as f64,
        "count",
        "bytes of the --json output",
    );
    let truth = &unit.truth.assignment;
    let learned_labels = labels_from_clusters(
        data.n_vars(),
        &network
            .modules
            .iter()
            .map(|m| m.vars.clone())
            .collect::<Vec<_>>(),
    );
    report.put(
        "monet.module_ari",
        adjusted_rand_index(&learned_labels, truth),
        "frac",
        format!(
            "{} learned modules against {} planted",
            network.n_modules(),
            unit.truth.n_modules()
        ),
    );

    let counter = |name: &str| engine.obs().counter(name) as f64;
    let proposals = counter("gibbs.moves_proposed");
    let ganesh_s = tracer.total_s("mn-gibbs.ganesh");
    report.put(
        "mn-gibbs.ganesh_run_s",
        ganesh_s / config.ganesh_runs as f64,
        "s",
        format!("mean of {} ganesh() calls", config.ganesh_runs),
    );
    report.put(
        "mn-gibbs.sweeps",
        counter("gibbs.sweeps"),
        "count",
        "whole learn, tree sampler included",
    );
    report.put("mn-gibbs.moves_proposed", proposals, "count", "");
    report.put(
        "mn-gibbs.accept_ratio",
        counter("gibbs.moves_accepted") / proposals,
        "frac",
        "moves accepted / proposed",
    );
    report.put(
        "mn-gibbs.us_per_proposal",
        (ganesh_s + tracer.total_s("mn-tree.learn_module_trees")) * 1e6 / proposals,
        "us",
        "ganesh + tree-sampler span time per proposed move",
    );
    let hits = counter("gibbs.cache_hits");
    report.put(
        "mn-score.epoch_cache_hit_ratio",
        hits / (hits + counter("gibbs.cache_misses")),
        "frac",
        "gibbs.cache_hits / (hits + misses)",
    );
    report.put(
        "mn-score.ln_gamma_table_hit_ratio",
        counter("score.ln_gamma_table_hits") / counter("score.ln_gamma_calls"),
        "frac",
        "score.ln_gamma_table_hits / score.ln_gamma_calls",
    );
    report.put(
        "mn-consensus.cooccurrence_ms",
        tracer.total_s("mn-consensus.cooccurrence") * 1e3,
        "ms",
        "",
    );
    report.put(
        "mn-consensus.spectral_ms",
        tracer.total_s("mn-consensus.spectral") * 1e3,
        "ms",
        "",
    );
    report.put("mn-consensus.nnz", counter("consensus.nnz"), "count", "");
    report.put(
        "mn-consensus.matvec_dispatches",
        counter("consensus.matvec_dispatches"),
        "count",
        "",
    );
    let scored = counter("splits.scored");
    let assign_s = tracer.total_s("mn-tree.assign_splits");
    report.put(
        "mn-tree.trees_s",
        tracer.total_s("mn-tree.learn_module_trees"),
        "s",
        "sum over modules",
    );
    report.put("mn-tree.assign_splits_s", assign_s, "s", share(assign_s));
    report.put(
        "mn-tree.learn_parents_ms",
        tracer.total_s("mn-tree.learn_parents") * 1e3,
        "ms",
        "",
    );
    report.put("mn-tree.splits_scored", scored, "count", "");
    report.put(
        "mn-tree.ns_per_split_scored",
        assign_s * 1e9 / scored,
        "ns",
        "assign_splits span / splits.scored",
    );
    let dist_maps = counter("engine.dist_maps");
    let collectives = counter("comm.collectives");
    report.put("mn-comm.dist_maps", dist_maps, "count", "");
    report.put(
        "mn-comm.items_per_dist_map",
        counter("engine.items") / dist_maps,
        "count",
        "",
    );
    report.put("mn-comm.collectives", collectives, "count", "");
    report.put(
        "mn-comm.allgather_words",
        counter("comm.allgather_words"),
        "count",
        "",
    );
    let learned = Learned {
        digest,
        engine_events: engine.fault_events(),
        collectives: collectives as u64,
    };
    (tracer, learned)
}

/// `<run>.metrics.json` of a child started with `--metrics-out`.
fn read_metrics(path: &str) -> Result<serde_json::Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
}

/// The real binary on unit 0 in every mode an end-to-end run does not
/// time: one sample each, every network compared to the reference.
fn children(report: &mut Outcome, ctx: &Ctx, unit: &Unit, learned: &Learned) -> Result<(), String> {
    let stem = unit.tsv.trim_end_matches(".tsv").to_string();
    let learn = |report: &mut Outcome, engine: &str, tag: &str, extra: &[&str]| -> Exit {
        let extra: Vec<String> = extra.iter().map(|s| s.to_string()).collect();
        let (exit, digest, _) = learn_child(ctx, unit, engine, tag, &extra);
        report.ops.record(digest == Some(learned.digest));
        exit
    };

    let plain = learn(report, "serial", "plain", &[]);
    report.put(
        "monet.plain_learn_s",
        plain.wall_s,
        "s",
        "serial child, no checkpoint, one sample",
    );

    let metrics_path = format!("{stem}.threads2.metrics.json");
    let threads = learn(
        report,
        "threads:2",
        "threads2",
        &["--metrics-out", &metrics_path],
    );
    let metrics = read_metrics(&metrics_path)?;
    report.put(
        "mn-comm.threads2_efficiency",
        plain.wall_s / (2.0 * threads.wall_s),
        "frac",
        format!(
            "serial {:.4} s / (2 x threads:2 {:.4} s)",
            plain.wall_s, threads.wall_s
        ),
    );
    let run_span = metrics["spans"]
        .as_array()
        .and_then(|spans| spans.iter().find(|s| s["path"].as_str() == Some("run")))
        .ok_or("metrics: no span `run`")?;
    report.put(
        "mn-comm.threads2_imbalance",
        run_span["imbalance"].as_f64().unwrap_or(0.0),
        "frac",
        "imbalance of span `run` from --metrics-out (max over mean rank busy time, minus 1)",
    );
    report.put(
        "mn-comm.threads2_busy_s",
        run_span["busy_max_s"].as_f64().unwrap_or(0.0),
        "s",
        format!(
            "busiest rank's kernel time; the rest of {:.4} s is dispatch, gather and serial code",
            threads.wall_s
        ),
    );

    let msg = learn(report, "msg:2", "msg2", &[]);
    report.put(
        "mn-comm.msg2_learn_s",
        msg.wall_s,
        "s",
        "msg:2 child (rank threads over channels)",
    );
    let metrics_path = format!("{stem}.proc2.metrics.json");
    let proc2 = learn(report, "proc:2", "proc2", &["--metrics-out", &metrics_path]);
    report.put(
        "mn-comm.proc2_learn_s",
        proc2.wall_s,
        "s",
        "proc:2 child (supervisor + 2 workers)",
    );
    report.put(
        "mn-comm.proc2_us_per_collective",
        (proc2.wall_s - msg.wall_s) * 1e6 / learned.collectives.max(1) as f64,
        "us",
        format!("(proc:2 - msg:2) / {} collectives", learned.collectives),
    );
    let metrics = read_metrics(&metrics_path)?;
    // The comm matrix is kept per phase; the whole run is their sum.
    let cells = |key: &str| -> f64 {
        metrics["comm"]["phases"]
            .as_array()
            .into_iter()
            .flatten()
            .filter_map(|phase| phase[key].as_array())
            .flatten()
            .filter_map(|cell| cell.as_f64())
            .sum()
    };
    report.put(
        "mn-comm.proc2_msgs",
        cells("msgs"),
        "count",
        "comm matrix, all phases, all src->dst",
    );
    report.put(
        "mn-comm.proc2_bytes",
        cells("bytes"),
        "count",
        "comm matrix, all phases, all src->dst",
    );
    let comm_s: f64 = metrics["report"]["phases"]
        .as_array()
        .into_iter()
        .flatten()
        .filter_map(|phase| phase["comm_s"].as_f64())
        .sum();
    report.put(
        "mn-comm.proc2_comm_s",
        comm_s,
        "s",
        format!(
            "sum of phase comm_s: {:.0} % of the proc:2 run is routing and waiting",
            100.0 * comm_s / proc2.wall_s
        ),
    );

    let full = learn(
        report,
        "serial",
        "fullobs",
        &[
            "--trace",
            &format!("{stem}.fullobs.trace.json"),
            "--metrics-out",
            &format!("{stem}.fullobs.metrics.json"),
            "--telemetry-out",
            &format!("{stem}.fullobs.telemetry.jsonl"),
        ],
    );
    report.put(
        "mn-obs.full_obs_learn_s",
        full.wall_s,
        "s",
        "serial child with --trace --metrics-out --telemetry-out",
    );
    report.put(
        "mn-obs.full_obs_overhead_frac",
        full.wall_s / plain.wall_s - 1.0,
        "frac",
        format!(
            "over the plain serial child's {:.4} s, one sample each",
            plain.wall_s
        ),
    );
    let reference = learn(report, "serial", "reference", &["--reference"]);
    report.put(
        "monet.reference_learn_s",
        reference.wall_s,
        "s",
        "--reference (Lemon-Tree cost profile): Table 1 as a whole-run row",
    );

    // Checkpoint: write, then kill at 60 % of the run's engine events
    // and resume.
    let ckpt_dir = format!("{stem}.ckpt");
    let ckpt = learn(report, "serial", "ckpt", &["--checkpoint-dir", &ckpt_dir]);
    report.put(
        "monet.ckpt_learn_s",
        ckpt.wall_s,
        "s",
        "serial child with a fresh --checkpoint-dir",
    );
    let files: Vec<u64> = std::fs::read_dir(&ckpt_dir)
        .map_err(|e| format!("{ckpt_dir}: {e}"))?
        .flatten()
        .filter(|e| e.path().extension().is_some_and(|x| x == "json"))
        .filter_map(|e| e.metadata().ok().map(|m| m.len()))
        .collect();
    report.put(
        "monet.ckpt_units",
        files.len().saturating_sub(1) as f64,
        "count",
        "unit files beside the manifest",
    );
    report.put(
        "monet.ckpt_bytes",
        files.iter().sum::<u64>() as f64,
        "count",
        "bytes of unit files + manifest",
    );

    let kill_dir = format!("{stem}.kill.ckpt");
    let kill_at = (learned.engine_events * 6 / 10).max(1);
    let kill_extra = [
        "--checkpoint-dir".to_string(),
        kill_dir.clone(),
        "--fault".to_string(),
        format!("kill:0@{kill_at}"),
    ];
    let (killed, _, _) = learn_child(ctx, unit, "serial", "kill", &kill_extra);
    // The drill's first half succeeds by dying with the fault code.
    report.ops.record(killed.code == Some(3));
    let metrics_path = format!("{stem}.resume.metrics.json");
    let resume = learn(
        report,
        "serial",
        "resume",
        &[
            "--checkpoint-dir",
            &kill_dir,
            "--resume",
            "--metrics-out",
            &metrics_path,
        ],
    );
    report.put(
        "monet.resume_s",
        resume.wall_s,
        "s",
        format!(
            "--resume after kill:0@{kill_at} of {} engine events",
            learned.engine_events
        ),
    );
    let metrics = read_metrics(&metrics_path)?;
    report.put(
        "monet.resume_units_replayed",
        metrics["counters"]["checkpoint.units_skipped"]
            .as_f64()
            .unwrap_or(0.0),
        "count",
        "checkpoint.units_skipped of the resumed run",
    );
    Ok(())
}

/// The serving layer at this workload's shape: a short closed loop on
/// batch workloads, a longer one on `serve_jobs`, then an open burst
/// against the admission limit.
fn served(report: &mut Outcome, tracer: &mut Tracer, ctx: &Ctx) -> Result<(), String> {
    const MAX_QUEUE: usize = 2;
    let (n_datasets, jobs_per_client, warmup) = match ctx.spec.kind {
        Kind::Serve => (batch::SERVE_DATASETS, 160, 10),
        Kind::Batch => (1, 2, 0),
    };
    let setup = batch::serve_setup(ctx, Path::new("serve"), n_datasets, MAX_QUEUE)?;
    let server = &setup.server;
    report.put(
        "monet-serve.register_ms",
        setup.register_ms,
        "ms",
        "register_tsv round trip, median",
    );
    let mut control = server.connect()?;
    let ping = ns_per_call(5, 100, || {
        let _ = black_box(control.ping());
    });
    report.put(
        "monet-serve.ping_rtt_us",
        ping / 1e3,
        "us",
        "ping round trip on an idle server",
    );

    let make_config = |seed| ctx.spec.learner_config(seed);
    let (jobs, window_s) = serve::closed_loop(
        server,
        n_datasets,
        ctx.seed,
        "serial",
        &make_config,
        2,
        jobs_per_client,
    )?;
    let verdicts = batch::verify_jobs(ctx, &setup.data, &jobs, None);
    let mut measured: Vec<&JobTimes> = Vec::new();
    // Served latency minus the same problem learned in-process.
    let mut overheads = Vec::new();
    for (job, (ok, inproc_s)) in jobs.iter().zip(verdicts) {
        if report.ops.record(ok) && job.index >= warmup {
            measured.push(job);
            overheads.extend(inproc_s.map(|s| (job.latency_s() - s) * 1e3));
        }
    }
    if measured.is_empty() {
        return Err("no served job of the traced run succeeded".into());
    }
    for job in &measured {
        let run_id = 1_000 + job.tenant as u64 * 1_000_000 + job.index;
        let root = tracer.add("serve.job", job.submit, job.result, None, run_id);
        tracer.add("serve.submit", job.submit, job.ack, Some(root), run_id);
        if let (Some(running), Some(terminal)) = (job.running, job.terminal) {
            tracer.add("serve.queued", job.ack, running, Some(root), run_id);
            tracer.add("serve.running", running, terminal, Some(root), run_id);
            tracer.add("serve.result", terminal, job.result, Some(root), run_id);
        }
    }
    let ms = |f: &dyn Fn(&JobTimes) -> Option<f64>| -> f64 {
        let v: Vec<f64> = measured
            .iter()
            .filter_map(|j| f(j))
            .map(|s| s * 1e3)
            .collect();
        if v.is_empty() {
            0.0
        } else {
            median(&v)
        }
    };
    let n = measured.len();
    let latencies: Vec<f64> = measured.iter().map(|j| j.latency_s() * 1e3).collect();
    let p50 = median(&latencies);
    report.put(
        "monet-serve.job_latency_p50_ms",
        p50,
        "ms",
        format!("submit -> verified result, {n} jobs"),
    );
    report.put(
        "monet-serve.job_latency_p90_ms",
        percentile(&latencies, 90),
        "ms",
        match top_percentile(n) {
            Some(p) if p >= 90 => format!("{n} jobs"),
            _ => format!("only {n} jobs: fewer than ten beyond p90, read as an upper sample"),
        },
    );
    report.put(
        "monet-serve.first_event_p50_ms",
        ms(&|j| j.first_event.map(|t| (t - j.submit).as_secs_f64())),
        "ms",
        "submit -> first watch line",
    );
    report.put(
        "monet-serve.jobs_per_s",
        jobs.len() as f64 / window_s,
        "1/s",
        format!(
            "{} jobs in {window_s:.2} s, 2 closed-loop clients",
            jobs.len()
        ),
    );
    report.put(
        "monet-serve.submit_ack_ms",
        ms(&|j| Some((j.ack - j.submit).as_secs_f64())),
        "ms",
        "submit line -> ack",
    );
    report.put(
        "monet-serve.queue_wait_ms",
        ms(&|j| j.running.map(|t| (t - j.ack).as_secs_f64())),
        "ms",
        "ack -> running event seen",
    );
    report.put(
        "monet-serve.run_ms",
        ms(&|j| Some((j.terminal? - j.running?).as_secs_f64())),
        "ms",
        "running -> terminal event",
    );
    report.put(
        "monet-serve.result_fetch_ms",
        ms(&|j| j.terminal.map(|t| (j.result - t).as_secs_f64())),
        "ms",
        "terminal event -> result received",
    );
    let counts = |f: &dyn Fn(&JobTimes) -> usize| {
        median(&measured.iter().map(|j| f(j) as f64).collect::<Vec<_>>())
    };
    report.put(
        "monet-serve.result_bytes",
        counts(&|j| j.result_bytes),
        "count",
        "network_json bytes, median",
    );
    report.put(
        "monet-serve.events_per_job",
        counts(&|j| j.events),
        "count",
        "watch lines per job, median",
    );
    report.put(
        "monet-serve.overhead_ms",
        if overheads.is_empty() { 0.0 } else { median(&overheads) },
        "ms",
        format!(
            "job latency - the same problem learned in-process on an idle harness, median of {} jobs",
            overheads.len()
        ),
    );
    let accounting = serve::expect_ok("accounting", control.accounting(None))?;
    let busy_s: f64 = accounting["tenants"].as_object().map_or(0.0, |tenants| {
        tenants
            .iter()
            .filter_map(|(_, t)| t["busy_s"].as_f64())
            .sum()
    });
    report.put(
        "monet-serve.worker_util",
        busy_s / (2.0 * window_s),
        "frac",
        format!("accounting busy {busy_s:.3} s / (2 workers x {window_s:.3} s)"),
    );

    // Open burst: more submits at once than workers + queue can hold.
    let burst = 2 * MAX_QUEUE + 4;
    let started = Instant::now();
    let mut accepted = Vec::new();
    let mut rejects = 0u64;
    for i in 0..burst as u64 {
        let (d, seed) = serve::job_problem(ctx.seed, n_datasets, 0, 1_000 + i);
        match control.submit(
            &serve::tenant_name(0),
            &serve::dataset_name(d),
            "serial",
            &make_config(seed),
        ) {
            Ok(monet_serve::client::Reply::Ok(value)) => {
                accepted.extend(value["job"].as_str().map(str::to_string));
            }
            Ok(monet_serve::client::Reply::Err(monet_serve::ServeError::Backpressure {
                ..
            })) => rejects += 1,
            other => return Err(format!("burst submit: {other:?}")),
        }
    }
    for job in &accepted {
        let done = control.watch(job, 0, |_| {}).is_ok();
        report.ops.record(done);
    }
    report.put(
        "monet-serve.backpressure_rejects",
        rejects as f64,
        "count",
        format!(
            "typed refusals of {burst} back-to-back submits, --max-queue {MAX_QUEUE}, 2 workers"
        ),
    );
    report.put(
        "monet-serve.burst_drain_s",
        started.elapsed().as_secs_f64(),
        "s",
        format!(
            "first submit -> last of {} accepted jobs done",
            accepted.len()
        ),
    );
    drop(control);
    let exit = setup.server.shutdown(ctx.child_timeout);
    report.ops.record(exit.success());
    Ok(())
}
