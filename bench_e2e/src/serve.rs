//! The serving side: a `monet serve` child over a unix socket and
//! closed-loop in-process clients (`monet_serve::Client`), one
//! connection per tenant, the next `submit` only after the previous
//! `result` — callers of a learning service wait for their network.

use crate::child::{self, Exit, Running};
use crate::stats::Digest;
use mn_comm::msg::proc::ProcAddr;
use monet::LearnerConfig;
use monet_serve::client::Reply;
use monet_serve::Client;
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// A running `monet serve` child.
pub struct Server {
    running: Running,
    addr: ProcAddr,
}

impl Server {
    /// Start the server with a private state directory under `dir`
    /// (relative to the working directory, which keeps the socket path
    /// short) and wait for its `listening on` line.
    pub fn start(
        monet: &Path,
        dir: &Path,
        workers: usize,
        max_queue: usize,
        timeout: Duration,
    ) -> Result<Server, String> {
        let socket = format!("./{}/serve.sock", dir.display());
        let mut running = child::spawn(
            Command::new(monet)
                .arg("serve")
                .args(["--listen", &format!("unix:{socket}")])
                .arg("--state-dir")
                .arg(dir.join("state"))
                .args(["--workers", &workers.to_string()])
                .args(["--max-queue", &max_queue.to_string()])
                .stdin(Stdio::null())
                .stdout(Stdio::piped()),
        )
        .map_err(|e| format!("spawning monet serve: {e}"))?;
        let stdout = running.take_stdout().expect("stdout was piped");
        let (tx, rx) = mpsc::channel();
        // Detached on purpose: it ends at the pipe's EOF, which the
        // server's exit (or the group kill on drop) guarantees.
        std::thread::spawn(move || {
            let mut line = String::new();
            let _ = BufReader::new(stdout).read_line(&mut line);
            let _ = tx.send(line);
        });
        match rx.recv_timeout(timeout) {
            Ok(line) if line.starts_with("listening on ") => Ok(Server {
                running,
                addr: ProcAddr::Unix(socket.into()),
            }),
            Ok(line) => Err(format!("monet serve did not come up (said {line:?})")),
            Err(_) => Err("monet serve did not come up before the timeout".into()),
        }
    }

    pub fn pid(&self) -> u32 {
        self.running.pid()
    }

    pub fn connect(&self) -> Result<Client, String> {
        Client::connect(&self.addr, Duration::from_secs(10))
            .map_err(|e| format!("connecting to {}: {e}", self.addr))
    }

    /// Stop through the protocol's `shutdown` op and reap the child; a
    /// server that does not exit in time is killed and reported as
    /// timed out.
    pub fn shutdown(self, timeout: Duration) -> Exit {
        if let Ok(mut client) = self.connect() {
            let _ = client.shutdown();
        }
        self.running.wait(timeout)
    }
}

/// `op` must come back `ok`; anything else is an error string.
pub fn expect_ok(what: &str, reply: std::io::Result<Reply>) -> Result<serde_json::Value, String> {
    match reply {
        Ok(Reply::Ok(value)) => Ok(value),
        Ok(Reply::Err(e)) => Err(format!("{what}: {e}")),
        Err(e) => Err(format!("{what}: {e}")),
    }
}

/// Every instant of one served job the client can observe.
#[derive(Debug, Clone)]
pub struct JobTimes {
    pub tenant: usize,
    /// Position in the tenant's job sequence.
    pub index: u64,
    pub submit: Instant,
    pub ack: Instant,
    /// First `watch` line of any kind.
    pub first_event: Option<Instant>,
    /// The `running` lifecycle event.
    pub running: Option<Instant>,
    /// The terminal lifecycle event (`done`, `failed`, …).
    pub terminal: Option<Instant>,
    /// `result` response received.
    pub result: Instant,
    pub events: usize,
    pub result_bytes: usize,
    /// Hash of the returned network; `None` when the job failed.
    pub digest: Option<Digest>,
    /// Whether the hypervisor's steal counter moved while the job ran
    /// (see `child::steal_jiffies`); such a latency is not the
    /// server's.
    pub stolen: bool,
}

impl JobTimes {
    /// `submit` line sent → `result` bytes received.
    pub fn latency_s(&self) -> f64 {
        (self.result - self.submit).as_secs_f64()
    }
}

/// Submit one job, follow it with `watch`, fetch its result.
pub fn run_job(
    client: &mut Client,
    tenant: usize,
    index: u64,
    dataset: &str,
    engine: &str,
    config: &LearnerConfig,
) -> JobTimes {
    let tenant_name = tenant_name(tenant);
    let steal_before = child::steal_jiffies();
    let submit = Instant::now();
    let ack_reply = client.submit(&tenant_name, dataset, engine, config);
    let ack = Instant::now();
    let mut times = JobTimes {
        tenant,
        index,
        submit,
        ack,
        first_event: None,
        running: None,
        terminal: None,
        result: ack,
        events: 0,
        result_bytes: 0,
        digest: None,
        stolen: false,
    };
    let Ok(Reply::Ok(value)) = ack_reply else {
        return times;
    };
    let Some(job) = value["job"].as_str().map(str::to_string) else {
        return times;
    };
    let mut done = false;
    let watched = client.watch(&job, 0, |line| {
        let now = Instant::now();
        times.events += 1;
        times.first_event.get_or_insert(now);
        if line.contains("\"type\":\"event\"") {
            if line.contains("\"what\":\"running\"") {
                times.running.get_or_insert(now);
            } else if !line.contains("\"what\":\"queued\"") {
                done = line.contains("\"what\":\"done\"");
                times.terminal = Some(now);
            }
        }
    });
    if watched.is_ok() && done {
        if let Ok(Reply::Ok(value)) = client.result_of(&job) {
            if let Some(json) = value["network_json"].as_str() {
                times.result_bytes = json.len();
                times.digest = Some(Digest::of(json.as_bytes()));
            }
        }
    }
    times.result = Instant::now();
    times.stolen = child::steal_jiffies() > steal_before;
    times
}

pub fn tenant_name(tenant: usize) -> String {
    format!("tenant{tenant}")
}

pub fn dataset_name(d: usize) -> String {
    format!("d{d}")
}

/// Which problem job `index` of `tenant` is: `(dataset, learner seed)`.
/// The two tenants walk the datasets half a cycle apart so they rarely
/// learn the same problem at the same time.
pub fn job_problem(base_seed: u64, n_datasets: usize, tenant: usize, index: u64) -> (usize, u64) {
    let d = (index as usize + tenant * n_datasets.div_ceil(2)) % n_datasets;
    let seed = crate::workload::unit_seed(base_seed, 100_000 + 2 * index + tenant as u64);
    (d, seed)
}

/// `n_clients` closed-loop clients (one tenant and one connection
/// each) submit `jobs_per_client` `engine` jobs each. Returns every job, tenant by
/// tenant in submit order, and the wall-clock of the whole loop. The
/// job count is fixed rather than timed so that the same problems are
/// learned on every machine and the server's memory, which grows with
/// the jobs it remembers, is read at the same point.
pub fn closed_loop(
    server: &Server,
    n_datasets: usize,
    base_seed: u64,
    engine: &str,
    make_config: &(dyn Fn(u64) -> LearnerConfig + Sync),
    n_clients: usize,
    jobs_per_client: u64,
) -> Result<(Vec<JobTimes>, f64), String> {
    let mut clients = Vec::new();
    for _ in 0..n_clients {
        clients.push(server.connect()?);
    }
    let started = Instant::now();
    let jobs: Vec<Vec<JobTimes>> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(tenant, mut client)| {
                scope.spawn(move || {
                    let mut jobs = Vec::new();
                    for index in 0..jobs_per_client {
                        let (d, seed) = job_problem(base_seed, n_datasets, tenant, index);
                        jobs.push(run_job(
                            &mut client,
                            tenant,
                            index,
                            &dataset_name(d),
                            engine,
                            &make_config(seed),
                        ));
                    }
                    jobs
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let window_s = started.elapsed().as_secs_f64();
    Ok((jobs.into_iter().flatten().collect(), window_s))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tenants_walk_the_datasets_out_of_phase_with_distinct_seeds() {
        let (d0, s0) = job_problem(1, 8, 0, 0);
        let (d1, s1) = job_problem(1, 8, 1, 0);
        assert_eq!((d0, d1), (0, 4));
        assert_ne!(s0, s1);
        assert_eq!(job_problem(1, 8, 0, 8).0, 0);
        assert_eq!(job_problem(1, 1, 1, 5).0, 0);
        // The same job under the same benchmark seed is the same problem.
        assert_eq!(job_problem(3, 8, 1, 7), job_problem(3, 8, 1, 7));
        assert_ne!(job_problem(3, 8, 1, 7).1, job_problem(4, 8, 1, 7).1);
    }
}
