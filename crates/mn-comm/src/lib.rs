//! # mn-comm — the distributed-memory execution substrate
//!
//! Reproduces §3 of *Parallel Construction of Module Networks* (SC '21):
//! the networked distributed-memory machine model (τ setup time, μ
//! per-word transfer time, log-depth collectives) and the
//! block-partitioned bulk-synchronous execution pattern shared by all
//! of the paper's parallel algorithms.
//!
//! The paper runs on MPI over a 4096-core InfiniBand cluster. This
//! crate substitutes five engine specs over four interchangeable
//! implementations behind one [`ParEngine`] trait (the substitution is
//! documented in DESIGN.md §2):
//!
//! * [`SerialEngine`] (`serial`) — one rank, real wall-clock timing:
//!   the paper's optimized sequential implementation (`T₁`).
//! * [`ThreadEngine`] (`threads:p`) — real OS-thread SPMD over the
//!   identical block partition, demonstrating genuinely parallel
//!   execution and the p-independence of results.
//! * [`SimEngine`] (`sim:p`) — virtual SPMD with per-rank clocks and the
//!   τ/μ collective cost model, scaling to the paper's p = 4096 on a
//!   single machine while preserving the load-imbalance behaviour that
//!   shapes the paper's speedup curves.
//! * [`SpmdEngine`] (`msg:p`, and `proc:p` over real OS processes) —
//!   true SPMD: every rank runs the whole learner and exchanges results
//!   over the [`msg`] fabric.
//!
//! All four run one map driver ([`driver`]): rank `r` runs its block
//! of the paper's split, the engine makes the results meet, and their
//! rank-order concatenation is the result in item order. The same
//! driver runs independent whole tasks, one rank each
//! ([`ParEngine::dist_tasks`]), for the GaneSH runs of an ensemble.
//!
//! Partitioning strategies (the paper's block split, the sub-optimal
//! per-node owner strawman it argues against, and the dynamic
//! load-balancing scheme it proposes as future work) live in
//! [`partition`]. Only the simulator runs the latter two, as oracles
//! over true per-item costs for the ablation benches.

#![warn(missing_docs)]

pub mod cancel;
pub mod cost;
pub mod driver;
pub mod engine;
pub mod fault;
mod hooks;
pub mod metrics;
pub mod msg;
pub mod partition;
pub mod segments;
pub mod serial;
pub mod sim;
pub mod sys;
pub mod thread;

pub use cancel::{CancelKind, CancelToken, JobCancelled};
pub use cost::{Collective, CostModel};
pub use driver::{EngineCore, TaskDelta};
pub use fault::{
    silence_injected_panics, CommError, FaultAction, FaultAbort, FaultClock, FaultPlan,
    InjectedCrash,
};
pub use msg::{spmd_run, spmd_run_faulty, spmd_run_faulty_recorded, SpmdCapture, SpmdEngine};
pub use engine::{
    with_phase, with_span, Costed, ParEngine, SegmentBatchFn, SelectFn, TaskFn, Wire,
};
pub use metrics::{PhaseReport, RunReport};
pub use mn_obs::{self as obs, ObsSnapshot, Recorder};
pub use segments::Segments;
pub use partition::{
    assign_owners, block_owner, block_range, load_imbalance, rank_loads, PartitionStrategy,
};
pub use serial::SerialEngine;
pub use sim::SimEngine;
pub use thread::ThreadEngine;

/// The engines available to examples and the bench harness, as a
/// parseable configuration value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineSpec {
    /// `serial`
    Serial,
    /// `threads:<p>`
    Threads(usize),
    /// `sim:<p>`
    Sim(usize),
    /// `msg:<p>` — true SPMD over the message fabric.
    Msg(usize),
    /// `proc:<p>` — the msg fabric over real supervised OS processes.
    Proc(usize),
}

impl std::fmt::Display for EngineSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineSpec::Serial => write!(f, "serial"),
            EngineSpec::Threads(p) => write!(f, "threads:{p}"),
            EngineSpec::Sim(p) => write!(f, "sim:{p}"),
            EngineSpec::Msg(p) => write!(f, "msg:{p}"),
            EngineSpec::Proc(p) => write!(f, "proc:{p}"),
        }
    }
}

impl std::str::FromStr for EngineSpec {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.trim();
        if s == "serial" {
            return Ok(EngineSpec::Serial);
        }
        // (prefix, what the count counts, spec) for every `<name>:<p>` form.
        for (prefix, what, spec) in [
            (
                "threads:",
                "thread",
                EngineSpec::Threads as fn(usize) -> EngineSpec,
            ),
            ("sim:", "rank", EngineSpec::Sim),
            ("msg:", "rank", EngineSpec::Msg),
            ("proc:", "rank", EngineSpec::Proc),
        ] {
            if let Some(rest) = s.strip_prefix(prefix) {
                let p: usize = rest.parse().map_err(|e| format!("bad {what} count: {e}"))?;
                if p == 0 {
                    return Err(format!("{what} count must be >= 1"));
                }
                return Ok(spec(p));
            }
        }
        Err(format!(
            "unknown engine {s:?}; expected serial | threads:<p> | sim:<p> | msg:<p> | proc:<p>"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_spec_parses() {
        assert_eq!("serial".parse::<EngineSpec>().unwrap(), EngineSpec::Serial);
        assert_eq!(
            "threads:4".parse::<EngineSpec>().unwrap(),
            EngineSpec::Threads(4)
        );
        assert_eq!("sim:1024".parse::<EngineSpec>().unwrap(), EngineSpec::Sim(1024));
        assert_eq!("msg:4".parse::<EngineSpec>().unwrap(), EngineSpec::Msg(4));
        assert_eq!("proc:4".parse::<EngineSpec>().unwrap(), EngineSpec::Proc(4));
        assert!("sim:0".parse::<EngineSpec>().is_err());
        assert!("msg:0".parse::<EngineSpec>().is_err());
        assert!("proc:0".parse::<EngineSpec>().is_err());
        assert!("gpu".parse::<EngineSpec>().is_err());
        // The error texts are part of the CLI surface.
        let err = |s: &str| s.parse::<EngineSpec>().unwrap_err();
        assert_eq!(err("threads:0"), "thread count must be >= 1");
        assert_eq!(
            err("threads:x"),
            "bad thread count: invalid digit found in string"
        );
        assert_eq!(err("sim:0"), "rank count must be >= 1");
        assert_eq!(
            err("sim:x"),
            "bad rank count: invalid digit found in string"
        );
        assert_eq!(
            err("gpu"),
            "unknown engine \"gpu\"; expected serial | threads:<p> | sim:<p> | msg:<p> | proc:<p>"
        );
    }
}
