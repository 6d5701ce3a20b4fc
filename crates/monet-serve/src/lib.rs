//! # monet-serve — the long-lived module-network learning service
//!
//! ROADMAP item 1: a multi-tenant server wrapping the `monet` learner.
//! The server listens on the proc engine's own socket layer
//! ([`mn_comm::msg::proc::ProcListener`] on `unix:<path>` or
//! `tcp:<host:port>`); clients reach it with the same bounded
//! [`mn_comm::msg::proc::connect`], and both speak a line-delimited
//! JSON protocol ([`proto`]): register datasets, submit learn jobs
//! carrying a full serialized [`monet::LearnerConfig`], stream live
//! progress, and manage job lifecycles.
//!
//! Architecture (DESIGN.md §16):
//!
//! * **Transport** — thread-per-connection over a blocking accept
//!   loop; no async runtime. One request line in, one response line
//!   out, except `watch`, which streams event lines before its final
//!   `done` response.
//! * **Scheduling** — submitted jobs enter a bounded admission queue
//!   (typed [`error::ServeError::Backpressure`] when full) and are
//!   drained by a fixed worker pool, fair FIFO-per-tenant: workers
//!   round-robin across tenants with queued work, FIFO within each
//!   tenant, so one chatty tenant cannot starve the others.
//! * **Cancellation** — each running job holds a
//!   [`mn_comm::CancelToken`] checked at every engine event (the same
//!   points fault injection uses), so `cancel` and `suspend` land
//!   between engine events, after the last completed checkpoint unit.
//! * **Checkpointing** — every job persists through the `monet`
//!   checkpoint store under its own `state_dir/jobs/<job-id>`
//!   directory (exclusive writer lock per directory); `suspend` then
//!   `resume` — optionally on a different engine or rank count
//!   (elastic) — continues after the last completed unit and learns
//!   the byte-identical network.
//! * **Telemetry** — each running job pushes snapshots through a
//!   [`mn_obs::TelemetryHandle::channel`]; a pump thread renders the
//!   versioned JSONL telemetry lines into the job's event log, which
//!   any number of `watch` clients replay from any offset.
//! * **Job output on disk** — the event log
//!   (`state_dir/jobs/<job-id>.events.jsonl`) and a done job's network
//!   (`state_dir/jobs/<job-id>.network.json`) are files beside the
//!   checkpoint directory; memory keeps only what a live job needs, so
//!   the server does not grow with the jobs it has served.
//! * **Accounting** — per-tenant totals (job outcomes, busy seconds,
//!   merged deterministic counters) queryable over the protocol.

#![warn(missing_docs)]

pub mod client;
pub mod error;
pub mod jobs;
pub mod proto;
pub mod server;

pub use client::Client;
pub use error::ServeError;
pub use jobs::{Job, JobState};
pub use proto::{Request, MAX_LINE};
pub use server::{Server, ServeConfig};
