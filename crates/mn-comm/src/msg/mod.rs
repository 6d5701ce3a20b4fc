//! A real message-passing layer.
//!
//! The other engines in this crate either run on one rank
//! ([`crate::serial`]), share memory ([`crate::thread`]), or simulate
//! the machine ([`crate::sim`]). This module is the genuinely
//! distributed-memory path: ranks own private state, exchange data
//! only through explicit point-to-point messages ([`mod@fabric`]), and
//! synchronize through log-depth collective algorithms
//! ([`collectives`]) — the binomial broadcast, reduce+broadcast
//! all-reduce and gather-based all-gather whose cost shapes §3's
//! analysis assumes. [`engine::spmd_run`] launches a full
//! SPMD program (each rank runs the entire learner) over the fabric,
//! the in-process equivalent of the paper's `mpirun` deployment.

pub mod collectives;
pub mod engine;
pub mod fabric;
pub mod proc;
pub mod wire;

pub use collectives::{allgatherv, allreduce, barrier, bcast, reduce};
pub use engine::{
    spmd_allgatherv, spmd_allreduce, spmd_run, spmd_run_faulty, spmd_run_faulty_recorded,
    spmd_worker_engine, SpmdCapture, SpmdEngine,
};
pub use fabric::{fabric, fabric_with_faults, Endpoint, Fabric, RECV_TIMEOUT_ENV};
