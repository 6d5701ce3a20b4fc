//! `RUN_METRICS.json` — the machine-readable run record.
//!
//! One account of a run, built from its observability snapshot
//! ([`mn_obs`]) alone: the per-phase breakdown ([`RunReport`], read off
//! the depth-1 phase spans), per-span aggregates with the paper's
//! §5.3.1 imbalance metric computed for *every* span (not just the
//! three top-level phases), the deterministic event counters, and the
//! span-duration histograms. A failed run's last snapshot makes a
//! record as well as a finished one's.
//!
//! The counters are bit-identical across engines and rank counts (the
//! `mn-obs` determinism contract), so two `RUN_METRICS.json` files from
//! the same problem on different engines differ only in their timing
//! fields — CI's counter-golden check relies on exactly this.

use mn_comm::RunReport;
use mn_obs::{CommMatrix, Histogram, ObsSnapshot, SpanAgg, TELEMETRY_SCHEMA_VERSION};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::Path;

/// The full metrics record of one run, written by `monet
/// --metrics-out`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunMetrics {
    /// Format version, shared with the telemetry stream
    /// ([`mn_obs::TELEMETRY_SCHEMA_VERSION`]). Version 1 denotes the
    /// legacy record that carried no version field (and no `comm`
    /// matrix or span percentiles); readers should treat a missing
    /// field as `1`. See DESIGN.md §13 for the compatibility note.
    pub schema_version: u32,
    /// Number of ranks that executed the run.
    pub nranks: usize,
    /// The per-phase view of the phase spans: each entry equals the
    /// `run/<name>` row of `spans` when the phase ran once. A serial
    /// phase's busy time is the time inside maps; on `msg`/`proc` the
    /// snapshot is merged over the ranks, so is the view.
    pub report: RunReport,
    /// Per-span-path aggregates (busy max/avg, comm, imbalance),
    /// sorted by path.
    pub spans: Vec<SpanAgg>,
    /// Deterministic event counters (engine-independent).
    pub counters: BTreeMap<String, u64>,
    /// Span-duration histograms keyed by span name.
    pub histograms: BTreeMap<String, Histogram>,
    /// Per-phase src→dst communication matrix (messages and shallow
    /// wire bytes, recorded at the sender). Merged across ranks on the
    /// msg engine; synthesized from the same collective edge schedules
    /// on the sim engine; empty (all zeros, or 1×1) on the
    /// shared-memory engines, whose collectives move no bytes.
    pub comm: CommMatrix,
}

impl RunMetrics {
    /// Assemble the record from an observability snapshot: one taken
    /// after [`mn_comm::ParEngine::report`] closed every span, merged
    /// over the ranks under SPMD, or a dying rank's last one.
    pub fn new(snapshot: &ObsSnapshot) -> Self {
        Self {
            schema_version: TELEMETRY_SCHEMA_VERSION,
            nranks: snapshot.nranks,
            report: RunReport::from_spans(snapshot.nranks, &snapshot.spans),
            spans: snapshot.aggregate_spans(),
            counters: snapshot.counters.clone(),
            histograms: snapshot.histograms.clone(),
            comm: snapshot.comm.clone(),
        }
    }

    /// Pretty-printed JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("metrics serialization")
    }

    /// Write the record as JSON to `path`.
    pub fn write_file<P: AsRef<Path>>(&self, path: P) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }

    /// Busy-time imbalance of the span `path` (0 if absent) — the
    /// §5.3.1 metric, now available at any granularity of the span
    /// tree rather than only per phase.
    pub fn span_imbalance(&self, path: &str) -> f64 {
        self.spans
            .iter()
            .find(|s| s.path == path)
            .map_or(0.0, |s| s.imbalance)
    }

    /// A deterministic counter of the run by name (0 if it never
    /// counted), e.g. `consensus.dropped_vars`: variables the consensus
    /// extraction dropped below the minimum cluster size, observable
    /// from the record alone per the no-silent-caps rule.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{learn_module_network, LearnerConfig};
    use mn_comm::{ParEngine, SimEngine};
    use mn_data::synthetic;
    use mn_obs::counters;

    #[test]
    fn metrics_embed_report_and_refine_phases() {
        let d = synthetic::yeast_like(18, 12, 3).dataset;
        let config = LearnerConfig::paper_minimum(3);
        let mut engine = SimEngine::new(4);
        let (_, report) = learn_module_network(&mut engine, &d, &config);
        let now = engine.now_s();
        let metrics = RunMetrics::new(&engine.obs().snapshot(now));

        assert_eq!(metrics.nranks, 4);
        assert_eq!(metrics.report, report);
        // Every phase is its depth-1 span's row, field for field.
        for phase in &report.phases {
            let path = format!("run/{}", phase.name);
            let agg = metrics
                .spans
                .iter()
                .find(|s| s.path == path)
                .unwrap_or_else(|| panic!("missing span {path}"));
            let row = (agg.busy_max_s, agg.busy_avg_s, agg.comm_s, agg.elapsed_s);
            let view = (phase.busy_max_s, phase.busy_avg_s, phase.comm_s, phase.elapsed_s);
            assert_eq!(row, view, "span {path}");
        }
        assert!(metrics.counters["gibbs.sweeps"] > 0);
        assert!(metrics.counters["splits.scored"] > 0);
        // The memoization/arena counters of the default (kernel)
        // scoring paths surface in the record.
        let hits = metrics.counter(counters::SCORE_LN_GAMMA_TABLE_HITS);
        assert!(metrics.counter(counters::SCORE_LN_GAMMA_CALLS) > hits);
        assert!(hits > 0);
        assert!(metrics.counter(counters::SCORE_SCRATCH_REUSES) > 0);
    }

    #[test]
    fn metrics_json_roundtrip() {
        let d = synthetic::yeast_like(16, 10, 1).dataset;
        let config = LearnerConfig::paper_minimum(1);
        let mut engine = SimEngine::new(3);
        learn_module_network(&mut engine, &d, &config);
        let now = engine.now_s();
        let metrics = RunMetrics::new(&engine.obs().snapshot(now));
        let text = metrics.to_json();
        let back: RunMetrics = serde_json::from_str(&text).expect("parse");
        assert_eq!(metrics, back);
    }

    /// Regression (ISSUE 5 satellite 4): variables discarded by the
    /// minimum-cluster-size filter are no longer silent — the counter
    /// lands in the metrics record.
    #[test]
    fn dropped_vars_surface_in_metrics() {
        use crate::stages::{run_consensus, run_ganesh};
        let d = synthetic::yeast_like(16, 10, 5).dataset;
        let mut config = LearnerConfig::paper_minimum(5);
        // Impossible bar: every extracted cluster is dropped.
        config.consensus.spectral.min_cluster_size = d.n_vars() + 1;
        let mut engine = SimEngine::new(2);
        let ensemble =
            run_ganesh(&mut engine, &d, &config, mn_score::Scoring::Kernel, None).unwrap();
        let modules = run_consensus(&mut engine, &d, &config, &ensemble, None).unwrap();
        assert!(modules.is_empty(), "nothing can clear the size bar");
        engine.report();
        let now = engine.now_s();
        let metrics = RunMetrics::new(&engine.obs().snapshot(now));
        assert!(
            metrics.counter(counters::CONSENSUS_DROPPED_VARS) > 0,
            "dropped variables must be observable: {:?}",
            metrics.counters
        );
    }

    #[test]
    fn span_imbalance_lookup() {
        let d = synthetic::yeast_like(16, 10, 1).dataset;
        let config = LearnerConfig::paper_minimum(1);
        let mut engine = SimEngine::new(5);
        learn_module_network(&mut engine, &d, &config);
        let now = engine.now_s();
        let metrics = RunMetrics::new(&engine.obs().snapshot(now));
        // The root span exists and the metric is finite.
        assert!(metrics.span_imbalance("run").is_finite());
        assert_eq!(metrics.span_imbalance("no/such/span"), 0.0);
    }
}
