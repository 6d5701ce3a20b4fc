//! Per-phase execution metrics.
//!
//! The paper's evaluation reports (a) per-task runtime breakdowns
//! (Fig. 5a/5c/6b/6c), (b) speedups and efficiencies (Fig. 5b/6a,
//! Table 2), and (c) a load-imbalance metric for the split-posterior
//! loop: "the deviation of the maximum run-time of the loop on any
//! process from the average run-time of the loop across all the
//! processes, normalized by the average run-time" (§5.3.1). A
//! [`RunReport`] carries exactly those quantities, and it is a view of
//! the recorder's phase spans ([`RunReport::from_spans`]): engines
//! charge busy and communication seconds once, into the
//! [`mn_obs::Recorder`], and every phase entry is read back from its
//! depth-1 span.

use mn_obs::SpanRecord;
use serde::{Deserialize, Serialize};

/// Metrics of one named phase of a run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhaseReport {
    /// Phase name (e.g. `"ganesh"`, `"consensus"`, `"modules"`).
    pub name: String,
    /// Maximum per-rank busy (compute) time in the phase, seconds.
    pub busy_max_s: f64,
    /// Mean per-rank busy time, seconds.
    pub busy_avg_s: f64,
    /// Communication time charged during the phase, seconds.
    pub comm_s: f64,
    /// Simulated (or measured) elapsed time of the phase, seconds.
    pub elapsed_s: f64,
}

impl PhaseReport {
    /// The entry of one phase span: the max and mean of its per-rank
    /// busy seconds, its communication seconds and its end − start.
    fn of_span(span: &SpanRecord) -> Self {
        let (busy_max_s, busy_avg_s) = span.busy_max_mean();
        Self {
            name: span.name.clone(),
            busy_max_s,
            busy_avg_s,
            comm_s: span.comm_s,
            elapsed_s: span.elapsed_s(),
        }
    }

    /// The paper's load-imbalance metric: `(max - avg) / avg` of the
    /// per-rank busy time. Zero for perfectly balanced phases (and for
    /// empty ones).
    pub fn imbalance(&self) -> f64 {
        if self.busy_avg_s <= 0.0 {
            0.0
        } else {
            (self.busy_max_s - self.busy_avg_s) / self.busy_avg_s
        }
    }
}

/// Metrics of one complete run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// Number of ranks that executed the run.
    pub nranks: usize,
    /// Phases in execution order.
    pub phases: Vec<PhaseReport>,
}

impl RunReport {
    /// The phase view of a span log: one entry per depth-1 span, in the
    /// order the spans closed (which is the order the phases ran).
    pub fn from_spans(nranks: usize, spans: &[SpanRecord]) -> Self {
        Self {
            nranks,
            phases: spans
                .iter()
                .filter(|span| span.depth == 1)
                .map(PhaseReport::of_span)
                .collect(),
        }
    }

    /// Total elapsed seconds across phases.
    pub fn total_s(&self) -> f64 {
        self.phases.iter().map(|p| p.elapsed_s).sum()
    }

    /// Total communication seconds across phases.
    pub fn comm_s(&self) -> f64 {
        self.phases.iter().map(|p| p.comm_s).sum()
    }

    /// Elapsed seconds of one phase by name, summed over its entries
    /// (0 if absent).
    pub fn phase_s(&self, name: &str) -> f64 {
        self.merged_phase(name).map_or(0.0, |p| p.elapsed_s)
    }

    /// All entries of one phase name merged into a single report, by
    /// summing busy/comm/elapsed time over the duplicates (a phase
    /// re-entered via `begin_phase` appears once per entry). `None` if
    /// the phase never ran. This is the busy-time-weighted view:
    /// `imbalance()` of the merged report weighs each entry by the
    /// busy time it contributed, consistent with [`RunReport::phase_s`].
    pub fn merged_phase(&self, name: &str) -> Option<PhaseReport> {
        let entries = self.phases.iter().filter(|p| p.name == name).cloned();
        entries.reduce(|mut m, p| {
            m.busy_max_s += p.busy_max_s;
            m.busy_avg_s += p.busy_avg_s;
            m.comm_s += p.comm_s;
            m.elapsed_s += p.elapsed_s;
            m
        })
    }

    /// Imbalance of one phase by name (0 if absent), computed over
    /// *all* entries with that name (see [`RunReport::merged_phase`])
    /// so it is consistent with the summing [`RunReport::phase_s`].
    pub fn phase_imbalance(&self, name: &str) -> f64 {
        self.merged_phase(name).map_or(0.0, |p| p.imbalance())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn phase(name: &str, busy_max: f64, busy_avg: f64, comm: f64, elapsed: f64) -> PhaseReport {
        PhaseReport {
            name: name.into(),
            busy_max_s: busy_max,
            busy_avg_s: busy_avg,
            comm_s: comm,
            elapsed_s: elapsed,
        }
    }

    #[test]
    fn imbalance_matches_paper_definition() {
        let p = phase("x", 3.0, 2.0, 0.0, 3.0);
        assert!((p.imbalance() - 0.5).abs() < 1e-12);
        let balanced = phase("x", 2.0, 2.0, 0.0, 2.0);
        assert_eq!(balanced.imbalance(), 0.0);
        let empty = phase("x", 0.0, 0.0, 0.0, 0.0);
        assert_eq!(empty.imbalance(), 0.0);
    }

    #[test]
    fn totals_and_lookup() {
        let r = RunReport {
            nranks: 4,
            phases: vec![
                phase("ganesh", 1.0, 0.9, 0.1, 1.1),
                phase("consensus", 0.1, 0.1, 0.0, 0.1),
                phase("modules", 8.0, 6.0, 0.4, 8.4),
            ],
        };
        assert!((r.total_s() - 9.6).abs() < 1e-12);
        assert!((r.comm_s() - 0.5).abs() < 1e-12);
        assert_eq!(r.phase_s("consensus"), 0.1);
        assert_eq!(r.phase_s("missing"), 0.0);
        assert!((r.phase_imbalance("modules") - 2.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn duplicate_phases_merge_consistently() {
        // A phase re-entered via begin_phase appears twice; phase_s
        // sums the entries, so the imbalance must be computed over the
        // merged entries too — not the first one found.
        let r = RunReport {
            nranks: 2,
            phases: vec![
                phase("w", 3.0, 2.0, 0.1, 3.1),
                phase("other", 9.0, 9.0, 0.0, 9.0),
                phase("w", 1.0, 1.0, 0.2, 1.2),
            ],
        };
        assert!((r.phase_s("w") - 4.3).abs() < 1e-12);
        let m = r.merged_phase("w").unwrap();
        assert!((m.busy_max_s - 4.0).abs() < 1e-12);
        assert!((m.busy_avg_s - 3.0).abs() < 1e-12);
        assert!((m.comm_s - 0.3).abs() < 1e-12);
        assert!((m.elapsed_s - 4.3).abs() < 1e-12);
        // (4-3)/3 over the merged totals, not the first entry's (3-2)/2.
        assert!((r.phase_imbalance("w") - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(r.merged_phase("missing"), None);
        assert_eq!(r.phase_imbalance("missing"), 0.0);
    }

    #[test]
    fn degenerate_reports_do_not_divide_by_zero() {
        let r = RunReport::default();
        assert_eq!(r.total_s(), 0.0);
        assert_eq!(r.comm_s(), 0.0);
        assert_eq!(r.phase_imbalance("x"), 0.0);
    }
}
