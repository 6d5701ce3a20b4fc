//! A blocking protocol client, used by `monet client` and the e2e
//! tests.

use crate::error::ServeError;
use crate::proto::{self, MAX_LINE};
use mn_comm::msg::proc::{connect, ProcAddr, ProcStream};
use monet::LearnerConfig;
use serde::Content;
use std::io::{self, BufReader, Write};
use std::time::Duration;

/// One connection to a `monet serve` process.
pub struct Client {
    reader: BufReader<ProcStream>,
    writer: ProcStream,
}

/// A response line, already checked for the `"ok"` discriminator.
#[derive(Debug)]
pub enum Reply {
    /// `{"ok":true,...}` — the full value for field access.
    Ok(Content),
    /// `{"ok":false,"error":{...}}` — decoded into the typed error.
    Err(ServeError),
}

fn decode_error(value: &Content) -> ServeError {
    let kind = value["error"]["kind"].as_str().unwrap_or("internal");
    let msg = value["error"]["msg"].as_str().unwrap_or("").to_string();
    match kind {
        "backpressure" => ServeError::Backpressure {
            queued: value["error"]["queued"].as_u64().unwrap_or(0) as usize,
            limit: value["error"]["limit"].as_u64().unwrap_or(0) as usize,
        },
        "unknown-job" => ServeError::UnknownJob(msg),
        "unknown-dataset" => ServeError::UnknownDataset(msg),
        "bad-request" => ServeError::BadRequest(msg),
        "conflict" => ServeError::Conflict(msg),
        "shutting-down" => ServeError::ShuttingDown,
        _ => ServeError::Internal(msg),
    }
}

impl Client {
    /// Connect, retrying with backoff up to `timeout` (covers the gap
    /// between spawning a server and its listener coming up).
    pub fn connect(addr: &ProcAddr, timeout: Duration) -> io::Result<Client> {
        let stream = connect(addr, timeout)?;
        let writer = stream.try_clone()?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Send one raw request line and read one response line. The
    /// public escape hatch: CI's corrupt-frame drill uses it to send
    /// deliberately malformed lines and assert on the typed refusal.
    pub fn raw(&mut self, line: &str) -> io::Result<Content> {
        self.send_line(line)?;
        self.read_value()
    }

    fn send_line(&mut self, line: &str) -> io::Result<()> {
        if line.len() + 1 > MAX_LINE {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("request line exceeds {MAX_LINE} bytes"),
            ));
        }
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()
    }

    fn read_value(&mut self) -> io::Result<Content> {
        match proto::read_line_bounded(&mut self.reader)? {
            Some(line) => serde_json::from_str(&line)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string())),
            None => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )),
        }
    }

    /// Send a request value, read the one response line, and decode
    /// the `ok` discriminator.
    pub fn rpc(&mut self, request: &Content) -> io::Result<Reply> {
        let line = serde_json::to_string(request)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        self.send_line(&line)?;
        let value = self.read_value()?;
        Ok(if value["ok"].as_bool() == Some(true) {
            Reply::Ok(value)
        } else {
            Reply::Err(decode_error(&value))
        })
    }

    fn simple(&mut self, pairs: Vec<(String, Content)>) -> io::Result<Reply> {
        self.rpc(&Content::Map(pairs))
    }

    fn op(op: &str) -> (String, Content) {
        ("op".into(), Content::Str(op.into()))
    }

    fn str(name: &str, v: &str) -> (String, Content) {
        (name.into(), Content::Str(v.into()))
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> io::Result<Reply> {
        self.simple(vec![Self::op("ping")])
    }

    /// Register a synthetic dataset.
    pub fn register_synthetic(
        &mut self,
        tenant: &str,
        dataset: &str,
        n: usize,
        m: usize,
        seed: u64,
    ) -> io::Result<Reply> {
        self.simple(vec![
            Self::op("register"),
            Self::str("tenant", tenant),
            Self::str("dataset", dataset),
            (
                "synthetic".into(),
                Content::Map(vec![
                    ("n".into(), Content::U64(n as u64)),
                    ("m".into(), Content::U64(m as u64)),
                    ("seed".into(), Content::U64(seed)),
                ]),
            ),
        ])
    }

    /// Register a TSV file readable by the server.
    pub fn register_tsv(&mut self, tenant: &str, dataset: &str, path: &str) -> io::Result<Reply> {
        self.simple(vec![
            Self::op("register"),
            Self::str("tenant", tenant),
            Self::str("dataset", dataset),
            Self::str("tsv_path", path),
        ])
    }

    /// Submit a learn job carrying the full serialized config;
    /// returns the job id on success.
    pub fn submit(
        &mut self,
        tenant: &str,
        dataset: &str,
        engine: &str,
        config: &LearnerConfig,
    ) -> io::Result<Reply> {
        let line = proto::submit_line(tenant, dataset, engine, config);
        self.send_line(&line)?;
        let value = self.read_value()?;
        Ok(if value["ok"].as_bool() == Some(true) {
            Reply::Ok(value)
        } else {
            Reply::Err(decode_error(&value))
        })
    }

    /// One-line job status.
    pub fn status(&mut self, job: &str) -> io::Result<Reply> {
        self.simple(vec![Self::op("status"), Self::str("job", job)])
    }

    /// Fetch the final network JSON (the exact batch-CLI bytes).
    pub fn result_of(&mut self, job: &str) -> io::Result<Reply> {
        self.simple(vec![Self::op("result"), Self::str("job", job)])
    }

    /// Cancel a job.
    pub fn cancel(&mut self, job: &str) -> io::Result<Reply> {
        self.simple(vec![Self::op("cancel"), Self::str("job", job)])
    }

    /// Suspend a job.
    pub fn suspend(&mut self, job: &str) -> io::Result<Reply> {
        self.simple(vec![Self::op("suspend"), Self::str("job", job)])
    }

    /// Resume a suspended job, optionally on a different engine.
    pub fn resume(&mut self, job: &str, engine: Option<&str>) -> io::Result<Reply> {
        let mut pairs = vec![Self::op("resume"), Self::str("job", job)];
        if let Some(engine) = engine {
            pairs.push(Self::str("engine", engine));
        }
        self.simple(pairs)
    }

    /// Per-tenant accounting totals.
    pub fn accounting(&mut self, tenant: Option<&str>) -> io::Result<Reply> {
        let mut pairs = vec![Self::op("accounting")];
        if let Some(tenant) = tenant {
            pairs.push(Self::str("tenant", tenant));
        }
        self.simple(pairs)
    }

    /// List jobs.
    pub fn jobs(&mut self, tenant: Option<&str>) -> io::Result<Reply> {
        let mut pairs = vec![Self::op("jobs")];
        if let Some(tenant) = tenant {
            pairs.push(Self::str("tenant", tenant));
        }
        self.simple(pairs)
    }

    /// Ask the server to stop; it cancels outstanding work and exits.
    pub fn shutdown(&mut self) -> io::Result<Reply> {
        self.simple(vec![Self::op("shutdown")])
    }

    /// Stream a job's event log from `from`, invoking `on_line` per
    /// event line, until the final `done` response (returned).
    pub fn watch<F: FnMut(&str)>(
        &mut self,
        job: &str,
        from: usize,
        mut on_line: F,
    ) -> io::Result<Content> {
        let line = serde_json::to_string(&Content::Map(vec![
            Self::op("watch"),
            Self::str("job", job),
            ("from".into(), Content::U64(from as u64)),
        ]))
        .expect("watch request serializes");
        self.send_line(&line)?;
        loop {
            let Some(line) = proto::read_line_bounded(&mut self.reader)? else {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the watch stream",
                ));
            };
            let value: Content = serde_json::from_str(&line)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
            match value["ok"].as_bool() {
                // The terminating response (ok:false is a refusal,
                // e.g. unknown job).
                Some(true) => return Ok(value),
                Some(false) => return Err(io::Error::other(decode_error(&value))),
                // An event line: telemetry or lifecycle.
                None => on_line(&line),
            }
        }
    }
}
