//! A real message-passing layer.
//!
//! The other engines in this crate either run on one rank
//! ([`crate::serial`]), share memory ([`crate::thread`]), or simulate
//! the machine ([`crate::sim`]). This module is the genuinely
//! distributed-memory path: ranks own private state, exchange data
//! only through explicit point-to-point messages over one
//! [`Endpoint`] type ([`mod@fabric`]), and synchronize through
//! log-depth collective algorithms ([`collectives`]) — the binomial
//! broadcast, reduce+broadcast all-reduce and gather-based all-gather
//! whose cost shapes §3's analysis assumes. [`engine::spmd_run`]
//! launches a full SPMD program (each rank runs the entire learner)
//! over in-process endpoints, the in-process equivalent of the
//! paper's `mpirun` deployment; [`proc`] hands each OS-process worker
//! the same endpoint over a socket, so every layer above runs
//! unchanged on either transport.

pub mod collectives;
pub mod engine;
pub mod fabric;
pub mod proc;
pub mod wire;

pub use collectives::{allgatherv, allreduce, barrier, bcast, reduce};
pub use engine::{
    spmd_run, spmd_run_faulty, spmd_run_faulty_recorded, spmd_worker_engine, SpmdCapture,
    SpmdEngine,
};
pub use fabric::{fabric, fabric_with_faults, Endpoint};
