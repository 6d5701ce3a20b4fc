//! Untraced end-to-end measurement: the real `monet` binary on the
//! workload's units, serial and `threads:2`, every output checked.

use crate::child::{self, Exit};
use crate::serve::{self, JobTimes, Server};
use crate::stats::{clean_samples, median, Digest, Ops};
use crate::workload::{make_unit, Kind, Spec, Unit};
use crate::{Ctx, Metric, Outcome};
use mn_comm::SerialEngine;
use mn_data::Dataset;
use monet::LearnerConfig;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

/// Units measured at least, however slow the machine.
const MIN_UNITS: u64 = 5;
/// A child during whose run the hypervisor took more than this share of
/// the machine's CPU time is verified and counted but not timed.
const MAX_STOLEN_FRAC: f64 = 0.01;
/// Served-job latencies a median needs before stolen ones are dropped.
const MIN_CLEAN_JOBS: usize = 20;
/// Datasets a serving run registers (per tenant).
pub const SERVE_DATASETS: usize = 32;
/// Jobs per client discarded before the measured ones.
const SERVE_WARMUP_JOBS: u64 = 10;
/// Served jobs per phase re-learned in-process to check their bytes.
const SERVE_VERIFIED_JOBS: usize = 16;
/// Jobs per client per second of `--seconds`, by phase: about half the
/// budget goes to each, at ≈ 24 ms a serial job with two clients and
/// ≈ 120 ms a `threads:2` job with one, on the reference box.
const SERVE_SERIAL_JOBS_PER_S: f64 = 20.0;
const SERVE_THREADS2_JOBS_PER_S: f64 = 4.0;

/// One `monet` batch learn as a child process. `tag` names the output
/// file; `extra` are flags beyond input, engine, seed and output.
pub fn learn_child(
    ctx: &Ctx,
    unit: &Unit,
    engine: &str,
    tag: &str,
    extra: &[String],
) -> (Exit, Option<Digest>, PathBuf) {
    let out = PathBuf::from(format!("{}.{tag}.json", unit.tsv.trim_end_matches(".tsv")));
    let mut cmd = Command::new(&ctx.monet);
    cmd.args([
        "--input", &unit.tsv, "--engine", engine, "--quiet", "--json",
    ])
    .arg(&out)
    .args(ctx.spec.learner_args(unit.seed))
    .args(extra)
    // The proc supervisor's socket: relative to the working
    // directory, so inside the checkout and short.
    .env("MN_PROC_ADDR", "unix:./proc.sock")
    .stdin(Stdio::null())
    .stdout(Stdio::null());
    if extra.iter().any(|flag| flag == "--fault") {
        // A kill drill reports its injected fault; that is not news.
        cmd.stderr(Stdio::null());
    }
    let exit = match child::run(&mut cmd, ctx.child_timeout) {
        Ok(exit) => exit,
        Err(e) => {
            eprintln!("bench_e2e: spawning {}: {e}", ctx.monet.display());
            Exit {
                code: None,
                timed_out: false,
                wall_s: 0.0,
                stolen_frac: 0.0,
                peak_rss_mb: 0.0,
            }
        }
    };
    let digest = if exit.success() {
        std::fs::read(&out).ok().map(|bytes| Digest::of(&bytes))
    } else {
        None
    };
    (exit, digest, out)
}

/// `--checkpoint-dir <fresh dir>` for workloads whose learns checkpoint.
fn checkpoint_args(spec: &Spec, unit: &Unit, tag: &str) -> Vec<String> {
    if !spec.checkpointed {
        return Vec::new();
    }
    let dir = format!("{}.{tag}.ckpt", unit.tsv.trim_end_matches(".tsv"));
    vec!["--checkpoint-dir".into(), dir]
}

/// The network `monet --engine serial` must produce for `data`, made
/// in-process from the library the binary is built from.
pub fn inproc_network_json(data: &Dataset, config: &LearnerConfig) -> String {
    let (network, _) = monet::learn_module_network(&mut SerialEngine::new(), data, config);
    monet::to_json(&network)
}

/// A tiny learn that pages the binary in and proves it runs at all.
/// Its time is the process floor (spawn + load + exit).
pub fn floor_child(ctx: &Ctx, engine: &str) -> Result<Exit, String> {
    let spec = Spec {
        n_vars: 24,
        n_obs: 16,
        ganesh_runs: 1,
        checkpointed: false,
        ..*ctx.spec
    };
    let dir = Path::new("floor");
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let unit = make_unit(&spec, ctx.seed, 0, dir).map_err(|e| format!("floor unit: {e}"))?;
    let floor_ctx = Ctx {
        spec: &spec,
        ..ctx.clone()
    };
    let (exit, digest, _) = learn_child(&floor_ctx, &unit, engine, engine, &[]);
    if digest.is_none() {
        return Err(format!("the {engine} warm-up learn failed: {exit:?}"));
    }
    Ok(exit)
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    match ctx.spec.kind {
        Kind::Batch => run_batch(ctx),
        Kind::Serve => run_serve(ctx),
    }
}

fn run_batch(ctx: &Ctx) -> Result<Outcome, String> {
    let spec = ctx.spec;
    floor_child(ctx, "serial")?;
    let dir = Path::new("units");
    std::fs::create_dir_all(dir).map_err(|e| format!("creating units/: {e}"))?;

    let mut ops = Ops::default();
    let mut setup = Vec::new();
    let mut serial = Vec::new();
    let mut threads2 = Vec::new();
    let mut rss = Vec::new();
    let mut first: Option<(Unit, PathBuf)> = None;
    let started = Instant::now();
    for u in 0u64.. {
        // Stop at the unit boundary nearest to the budget.
        let elapsed = started.elapsed().as_secs_f64();
        let per_unit = elapsed / u.max(1) as f64;
        if u >= MIN_UNITS && elapsed + per_unit / 2.0 >= ctx.seconds {
            break;
        }
        let unit = make_unit(spec, ctx.seed, u, dir).map_err(|e| format!("unit {u}: {e}"))?;
        setup.push(unit.setup_s);
        // Alternate which engine goes first, so neither always runs on
        // the caches the other left.
        let learn = |engine: &str| {
            let tag = engine.replace(':', "");
            learn_child(
                ctx,
                &unit,
                engine,
                &tag,
                &checkpoint_args(spec, &unit, &tag),
            )
        };
        let ((s_exit, s_digest, s_out), (t_exit, t_digest, _)) = if u % 2 == 0 {
            let serial = learn("serial");
            (serial, learn("threads:2"))
        } else {
            let threads = learn("threads:2");
            (learn("serial"), threads)
        };
        if ops.record(s_digest.is_some()) {
            serial.push((s_exit.wall_s, s_exit.stolen_frac <= MAX_STOLEN_FRAC));
            rss.push(s_exit.peak_rss_mb);
        }
        // The serial network is the unit's reference: the paper's
        // "identical for every p" is part of the failure count.
        if ops.record(t_digest.is_some() && t_digest == s_digest) {
            threads2.push((t_exit.wall_s, t_exit.stolen_frac <= MAX_STOLEN_FRAC));
        }
        // Outputs stay where they are (≈ 1 MB a unit); the whole
        // working directory goes when the run ends.
        first.get_or_insert((unit, s_out));
    }
    let measured_s = started.elapsed().as_secs_f64();

    // Anchor the references themselves: unit 0's serial bytes must be
    // what the library produces in-process for the same file.
    let (unit0, out0) = first.expect("at least one unit ran");
    let anchored = (|| {
        let data = mn_data::read_tsv_file(&unit0.tsv).ok()?;
        let child_bytes = std::fs::read(&out0).ok()?;
        let expect = inproc_network_json(&data, &spec.learner_config(unit0.seed));
        let network = monet::from_json(&expect).ok()?;
        network.validate();
        (Digest::of(expect.as_bytes()) == Digest::of(&child_bytes)).then_some(())
    })()
    .is_some();
    ops.record(anchored);

    if serial.is_empty() || threads2.is_empty() {
        return Err(format!("no learn of {} succeeded ({ops:?})", spec.name));
    }
    let (serial, serial_dropped) = clean_samples(&serial, MIN_UNITS as usize);
    let (threads2, threads2_dropped) = clean_samples(&threads2, MIN_UNITS as usize);
    let metrics = vec![
        Metric::new("setup_s", median(&setup), "s").note(format!(
            "median of {} unit set-ups (generate + write TSV)",
            setup.len()
        )),
        Metric::new("serial_learn_s", median(&serial), "s").note(format!(
            "median of {} units ({serial_dropped} more left out for hypervisor steal), measured {measured_s:.1} s",
            serial.len()
        )),
        Metric::new("threads2_learn_s", median(&threads2), "s").note(format!(
            "median of {} units ({threads2_dropped} more left out for hypervisor steal)",
            threads2.len()
        )),
        Metric::new("peak_rss_mb", median(&rss), "MB")
            .note(format!("serial child VmHWM, median of {} units", rss.len())),
    ];
    Ok(Outcome { metrics, ops })
}

/// A server with [`SERVE_DATASETS`] registered data sets per tenant,
/// and the same data in memory for the in-process checks.
pub struct ServeSetup {
    pub server: Server,
    pub data: Vec<Dataset>,
    pub setup_s: f64,
    /// Median wall-clock of one `register` request, ms.
    pub register_ms: f64,
}

/// One complete serving set-up in `dir`: generate and write the data
/// sets, start the server, register every data set for both tenants.
pub fn serve_setup(
    ctx: &Ctx,
    dir: &Path,
    n_datasets: usize,
    max_queue: usize,
) -> Result<ServeSetup, String> {
    let started = Instant::now();
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let mut units = Vec::new();
    for d in 0..n_datasets {
        units.push(
            make_unit(ctx.spec, ctx.seed, d as u64, dir)
                .map_err(|e| format!("dataset {d}: {e}"))?,
        );
    }
    let server = Server::start(&ctx.monet, dir, 2, max_queue, ctx.child_timeout)?;
    let mut client = server.connect()?;
    let mut register = Vec::new();
    for tenant in 0..2 {
        for (d, unit) in units.iter().enumerate() {
            let t = Instant::now();
            serve::expect_ok(
                "register",
                client.register_tsv(
                    &serve::tenant_name(tenant),
                    &serve::dataset_name(d),
                    &unit.tsv,
                ),
            )?;
            register.push(t.elapsed().as_secs_f64() * 1e3);
        }
    }
    let setup_s = started.elapsed().as_secs_f64();
    let data = units
        .iter()
        .map(|u| mn_data::read_tsv_file(&u.tsv).map_err(|e| format!("reading {}: {e}", u.tsv)))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(ServeSetup {
        server,
        data,
        setup_s,
        register_ms: median(&register),
    })
}

/// Check served jobs: every job must have returned a network; jobs of
/// `other` (the same problems on another engine) must agree byte for
/// byte; and [`SERVE_VERIFIED_JOBS`] of them, evenly spaced over both
/// tenants, are re-learned in-process. Returns the per-job verdicts, in order, with the
/// in-process learn's seconds for the jobs that were re-learned.
pub fn verify_jobs(
    ctx: &Ctx,
    data: &[Dataset],
    jobs: &[JobTimes],
    other: Option<&[JobTimes]>,
) -> Vec<(bool, Option<f64>)> {
    let reference: BTreeMap<(usize, u64), Option<Digest>> = other
        .unwrap_or(&[])
        .iter()
        .map(|j| ((j.tenant, j.index), j.digest))
        .collect();
    let stride = jobs.len().div_ceil(SERVE_VERIFIED_JOBS).max(1);
    jobs.iter()
        .enumerate()
        .map(|(i, job)| {
            let Some(digest) = job.digest else {
                return (false, None);
            };
            let agrees = reference
                .get(&(job.tenant, job.index))
                .is_none_or(|&expect| expect == Some(digest));
            if i % stride != 0 {
                return (agrees, None);
            }
            let (d, seed) = serve::job_problem(ctx.seed, data.len(), job.tenant, job.index);
            let t = Instant::now();
            let expect = inproc_network_json(&data[d], &ctx.spec.learner_config(seed));
            let inproc_s = t.elapsed().as_secs_f64();
            (
                agrees && Digest::of(expect.as_bytes()) == digest,
                Some(inproc_s),
            )
        })
        .collect()
}

fn run_serve(ctx: &Ctx) -> Result<Outcome, String> {
    floor_child(ctx, "serial")?;
    // Set up three times; the last server is the one measured.
    let mut setups = Vec::new();
    let mut kept: Option<ServeSetup> = None;
    for round in 0..3 {
        if let Some(previous) = kept.take() {
            let exit = previous.server.shutdown(ctx.child_timeout);
            if !exit.success() {
                return Err(format!("set-up server did not shut down cleanly: {exit:?}"));
            }
        }
        let setup = serve_setup(ctx, Path::new(&format!("serve{round}")), SERVE_DATASETS, 64)?;
        setups.push(setup.setup_s);
        kept = Some(setup);
    }
    let ServeSetup { server, data, .. } = kept.expect("three set-ups ran");

    let mut ops = Ops::default();
    let make_config = |seed| ctx.spec.learner_config(seed);
    let per_client = |rate: f64| ((rate * ctx.seconds) as u64).max(2 * SERVE_WARMUP_JOBS);
    let (serial_jobs, _) = serve::closed_loop(
        &server,
        data.len(),
        ctx.seed,
        "serial",
        &make_config,
        2,
        per_client(SERVE_SERIAL_JOBS_PER_S),
    )?;
    // One client for `threads:2`: two such jobs at once would put four
    // rank threads on the reference box's two cores, which measures
    // the oversubscription, not the engine.
    let (threads_jobs, _) = serve::closed_loop(
        &server,
        data.len(),
        ctx.seed,
        "threads:2",
        &make_config,
        1,
        per_client(SERVE_THREADS2_JOBS_PER_S),
    )?;
    let rss = child::vm_hwm_mb(server.pid());
    let exit = server.shutdown(ctx.child_timeout);
    ops.record(exit.success());

    let measured = |jobs: &[JobTimes], verdicts: &[(bool, Option<f64>)], ops: &mut Ops| {
        let mut latencies = Vec::new();
        for (job, &(ok, _)) in jobs.iter().zip(verdicts) {
            if ops.record(ok) && job.index >= SERVE_WARMUP_JOBS {
                latencies.push((job.latency_s(), !job.stolen));
            }
        }
        clean_samples(&latencies, MIN_CLEAN_JOBS)
    };
    let serial_ok = verify_jobs(ctx, &data, &serial_jobs, None);
    let threads_ok = verify_jobs(ctx, &data, &threads_jobs, Some(&serial_jobs));
    let (serial, serial_dropped) = measured(&serial_jobs, &serial_ok, &mut ops);
    let (threads2, threads2_dropped) = measured(&threads_jobs, &threads_ok, &mut ops);
    if serial.is_empty() || threads2.is_empty() {
        return Err(format!("no served job succeeded ({ops:?})"));
    }
    let metrics = vec![
        Metric::new("setup_s", median(&setups), "s").note(format!(
            "median of {} set-ups (write {SERVE_DATASETS} data sets, start server, register)",
            setups.len()
        )),
        Metric::new("serial_learn_s", median(&serial), "s").note(format!(
            "submit → verified result, p50 of {} served jobs ({serial_dropped} more left out for hypervisor steal), 2 closed-loop clients",
            serial.len()
        )),
        Metric::new("threads2_learn_s", median(&threads2), "s").note(format!(
            "same, engine threads:2, p50 of {} served jobs ({threads2_dropped} more left out), 1 closed-loop client",
            threads2.len()
        )),
        Metric::new("peak_rss_mb", rss.ok_or("server VmHWM unreadable")?, "MB")
            .note("server VmHWM after both phases".to_string()),
    ];
    Ok(Outcome { metrics, ops })
}
