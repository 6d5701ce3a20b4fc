//! `bench_e2e` — the repository's benchmark: what a whole `learn`
//! costs, end to end, on four workloads, and where each layer's share
//! of it goes. See README.md for the workloads, the metrics and how
//! they are expected to move; BENCHMARK.json at the repository root is
//! the machine-readable contract.
//!
//! End-to-end numbers (`--trace 0`) come from untraced runs of the
//! real `monet` binary; per-layer numbers (`--trace 1`) from a
//! separate traced run in which this harness wraps each call into a
//! layer's public functions in its own spans.

mod batch;
mod child;
mod layers;
mod serve;
mod stats;
mod trace;
mod workload;

use stats::Ops;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;
use workload::{Spec, WORKLOADS};

/// Everything one measurement needs.
#[derive(Clone)]
pub struct Ctx<'a> {
    /// The `monet` binary, absolute.
    pub monet: PathBuf,
    pub spec: &'a Spec,
    pub seed: u64,
    /// Measurement budget of an end-to-end run.
    pub seconds: f64,
    /// Hard deadline of every child; a child past it is killed and
    /// counts as a failed operation.
    pub child_timeout: Duration,
    /// Where the traced run writes `trace_<workload>.json`, absolute.
    pub out_dir: PathBuf,
}

/// One reported number.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Sample count, base of a ratio, or what was measured.
    pub note: String,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit,
            note: String::new(),
        }
    }

    pub fn note(mut self, note: String) -> Metric {
        self.note = note;
        self
    }
}

/// The result of one run of one workload.
#[derive(Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub ops: Ops,
}

impl Outcome {
    /// Add a metric.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str, note: impl Into<String>) {
        self.metrics
            .push(Metric::new(name, value, unit).note(note.into()));
    }

    /// The reported value of metric `name`.
    fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The contract's result object.
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.ops.failed == 0,
            self.ops.attempted,
            self.ops.failed,
            metrics.join(", ")
        )
    }

    fn print_table(&self, title: &str) {
        println!("== {title}");
        for m in &self.metrics {
            println!("{:<40} {:>16.6} {:<6} {}", m.name, m.value, m.unit, m.note);
        }
        println!(
            "{:<40} {:>16.6} {:<6} {} failed of {} operations",
            "failed_frac",
            self.ops.failed_frac(),
            "-",
            self.ops.failed,
            self.ops.attempted
        );
    }
}

struct Args {
    root: PathBuf,
    monet: PathBuf,
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: Option<bool>,
    check_repeat: bool,
    spread: Option<u64>,
}

fn usage() -> ! {
    eprintln!(
        "usage: bench_e2e --root <repo> --monet <binary> [--workload W] [--seed S]\n\
         \x20      [--seconds N] [--trace 0|1] [--check-repeat] [--spread RUNS]\n\
         workloads: {}",
        WORKLOADS.map(|w| w.name).join(", ")
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        root: PathBuf::new(),
        monet: PathBuf::new(),
        workload: None,
        seed: 1,
        seconds: None,
        trace: None,
        check_repeat: false,
        spread: None,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |i: &mut usize| -> &str {
        *i += 1;
        argv.get(*i).map(String::as_str).unwrap_or_else(|| usage())
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--root" => args.root = value(&mut i).into(),
            "--monet" => args.monet = value(&mut i).into(),
            "--workload" => args.workload = Some(value(&mut i).to_string()),
            "--seed" => args.seed = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--seconds" => args.seconds = Some(value(&mut i).parse().unwrap_or_else(|_| usage())),
            "--trace" => {
                args.trace = Some(match value(&mut i) {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                })
            }
            "--check-repeat" => args.check_repeat = true,
            "--spread" => args.spread = Some(value(&mut i).parse().unwrap_or_else(|_| usage())),
            _ => usage(),
        }
        i += 1;
    }
    if args.root.as_os_str().is_empty() || args.monet.as_os_str().is_empty() {
        usage();
    }
    if let Some(w) = &args.workload {
        if workload::find(w).is_none() {
            eprintln!("unknown workload {w:?}");
            usage();
        }
    }
    args
}

/// A metric declared in BENCHMARK.json.
struct Declared {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

/// `run_seconds` and the end-to-end metric declarations of
/// BENCHMARK.json — the one place bounds are written down.
fn read_contract(root: &Path) -> Result<(f64, Vec<Declared>), String> {
    let path = root.join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let value: serde_json::Value =
        serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let seconds = value["run_seconds"]
        .as_f64()
        .ok_or("BENCHMARK.json: no run_seconds")?;
    let declared = value["end_to_end"]
        .as_array()
        .ok_or("BENCHMARK.json: no end_to_end")?
        .iter()
        .map(|m| {
            Some(Declared {
                name: m["name"].as_str()?.to_string(),
                lower_is_better: m["better"].as_str()? == "lower",
                bound: m["bound"].as_f64()?,
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or("BENCHMARK.json: malformed end_to_end entry")?;
    Ok((seconds, declared))
}

/// The private working directory of this process: everything a run
/// writes, and every socket it binds, lives under it, and it is
/// removed when the run ends. The process changes into it so that all
/// paths handed to children stay relative and short.
struct WorkDir(PathBuf);

impl WorkDir {
    fn enter(out_dir: &Path) -> Result<WorkDir, String> {
        let dir = out_dir.join(format!("work-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        std::env::set_current_dir(&dir).map_err(|e| format!("entering {}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        child::kill_live_groups();
        let _ = std::env::set_current_dir("/");
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run_one(ctx: &Ctx, trace: bool) -> Result<Outcome, String> {
    // Each measurement starts from an empty working directory.
    for entry in std::fs::read_dir(".")
        .map_err(|e| format!("listing work dir: {e}"))?
        .flatten()
    {
        let path = entry.path();
        let _ = if path.is_dir() {
            std::fs::remove_dir_all(&path)
        } else {
            std::fs::remove_file(&path)
        };
    }
    let outcome = if trace {
        layers::run(ctx)
    } else {
        batch::run(ctx)
    }?;
    let title = format!(
        "{} seed {} — {}",
        ctx.spec.name,
        ctx.seed,
        if trace {
            "per-layer (traced run)"
        } else {
            "end-to-end (untraced)"
        }
    );
    outcome.print_table(&title);
    Ok(outcome)
}

/// `--check-repeat`: two full end-to-end sets back to back; every
/// declared metric of the second must be within its bound of the
/// first, and nothing may fail.
fn check_repeat(base: &Ctx, declared: &[Declared]) -> Result<bool, String> {
    let mut agree = true;
    let mut sets: Vec<Vec<Outcome>> = Vec::new();
    for set in 0..2 {
        println!("== set {}", set + 1);
        let mut outcomes = Vec::new();
        for spec in &WORKLOADS {
            outcomes.push(run_one(
                &Ctx {
                    spec,
                    ..base.clone()
                },
                false,
            )?);
        }
        sets.push(outcomes);
    }
    println!("== repeat check (second set against first)");
    for (w, spec) in WORKLOADS.iter().enumerate() {
        let (a, b) = (&sets[0][w], &sets[1][w]);
        if a.ops.failed + b.ops.failed > 0 {
            println!(
                "{:<14} FAILED OPERATIONS: {:?} then {:?}",
                spec.name, a.ops, b.ops
            );
            agree = false;
        }
        for d in declared {
            let (Some(first), Some(second)) = (a.value(&d.name), b.value(&d.name)) else {
                return Err(format!("{}: metric {} was not reported", spec.name, d.name));
            };
            let worse = if d.lower_is_better {
                second / first - 1.0
            } else {
                first / second - 1.0
            };
            let ok = worse <= d.bound;
            agree &= ok;
            println!(
                "{:<14} {:<20} {:>12.6} -> {:>12.6}  worse by {:>+7.2} % (bound {:.0} %) {}",
                spec.name,
                d.name,
                first,
                second,
                worse * 100.0,
                d.bound * 100.0,
                if ok { "ok" } else { "OUT OF BOUND" }
            );
        }
    }
    Ok(agree)
}

/// `--spread RUNS`: the acceptance check of the benchmark's driver, run
/// here — `RUNS` end-to-end runs per workload, each with another seed
/// (`--seed`, `--seed + 1`, …), and per metric the interquartile
/// distance over the median. Passes when every spread but `setup_s`'s
/// is within the metric's bound; the aim is a third of it.
fn spread(base: &Ctx, specs: &[&Spec], declared: &[Declared], runs: u64) -> Result<bool, String> {
    let mut within = true;
    let mut rows = Vec::new();
    for &spec in specs {
        let mut outcomes = Vec::new();
        for seed in base.seed..base.seed + runs {
            outcomes.push(run_one(
                &Ctx {
                    spec,
                    seed,
                    ..base.clone()
                },
                false,
            )?);
        }
        for d in declared {
            let values: Vec<f64> = outcomes.iter().filter_map(|o| o.value(&d.name)).collect();
            if values.len() != outcomes.len() {
                return Err(format!("{}: metric {} was not reported", spec.name, d.name));
            }
            let spread = stats::iqr_over_median(&values);
            let verdict = if spread <= d.bound / 3.0 {
                "steady"
            } else if spread <= d.bound {
                "within bound, above a third of it"
            } else if d.name == "setup_s" {
                "above its bound (exempt)"
            } else {
                within = false;
                "ABOVE ITS BOUND"
            };
            rows.push(format!(
                "{:<14} {:<20} median {:>12.6}  spread {:>6.2} %  (bound {:.0} %)  {verdict}",
                spec.name,
                d.name,
                stats::median(&values),
                spread * 100.0,
                d.bound * 100.0
            ));
        }
        let failed: u64 = outcomes.iter().map(|o| o.ops.failed).sum();
        if failed > 0 {
            within = false;
            rows.push(format!("{:<14} {failed} FAILED OPERATIONS", spec.name));
        }
    }
    println!("== spread over {runs} seeds from {}", base.seed);
    for row in rows {
        println!("{row}");
    }
    Ok(within)
}

fn real_main() -> Result<ExitCode, String> {
    let args = parse_args();
    let root = args
        .root
        .canonicalize()
        .map_err(|e| format!("--root: {e}"))?;
    let monet = args
        .monet
        .canonicalize()
        .map_err(|e| format!("--monet: {e}"))?;
    let (run_seconds, declared) = read_contract(&root)?;
    let out_dir = root.join("bench_e2e").join("out");
    child::install_signal_cleanup();
    let _work = WorkDir::enter(&out_dir)?;
    let base = Ctx {
        monet,
        spec: &WORKLOADS[0],
        seed: args.seed,
        seconds: args.seconds.unwrap_or(run_seconds),
        child_timeout: Duration::from_secs(120),
        out_dir,
    };
    if args.check_repeat {
        let agree = check_repeat(&base, &declared)?;
        return Ok(if agree {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        });
    }
    let specs: Vec<&Spec> = match &args.workload {
        Some(name) => vec![workload::find(name).expect("checked in parse_args")],
        None => WORKLOADS.iter().collect(),
    };
    if let Some(runs) = args.spread {
        let within = spread(&base, &specs, &declared, runs.max(2))?;
        return Ok(if within {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        });
    }
    let modes = match args.trace {
        Some(trace) => vec![trace],
        None => vec![false, true],
    };
    let mut lines = Vec::new();
    for spec in specs {
        for &trace in &modes {
            lines.push(
                run_one(
                    &Ctx {
                        spec,
                        ..base.clone()
                    },
                    trace,
                )?
                .json(),
            );
        }
    }
    // The driver's form (one workload, one mode) ends with the result
    // object alone on the last line; the all-in-one form prints one
    // object per run, in order. Failed operations are reported in the
    // object (`correct: false`), not through the exit code.
    for line in lines {
        println!("{line}");
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    real_main().unwrap_or_else(|e| {
        eprintln!("bench_e2e: {e}");
        ExitCode::FAILURE
    })
}
