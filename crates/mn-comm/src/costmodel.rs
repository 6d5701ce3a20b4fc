//! Online per-item cost model and the partition governor.
//!
//! §5.3.1 observes that "the time required for this phase cannot be
//! estimated a priori and varies significantly across splits" — which
//! is exactly why the paper's block split leaves imbalance on the
//! table, and why a *dynamic* strategy needs a predictor: a real
//! engine must choose owners **before** any rank executes an item, so
//! it cannot use true per-item costs the way the sim engine's oracle
//! strategies do.
//!
//! The workaround this module implements: every engine already charges
//! measured per-item work units (the `Costed<T>` contract), and those
//! units are deterministic functions of the item — identical on every
//! engine and rank count. [`ItemCostModel`] calibrates online from
//! them, keyed by the one feature the engine can see before executing
//! (the item's segment length, which dominates both the split-scoring
//! cost `(1 + s_eff)·n·COST_CELL` and the Gibbs tile costs), and
//! predicts the next map's per-item cost. [`PartitionGovernor`] turns
//! those predictions into the [`Plan`] every engine executes for the
//! configured [`PartitionStrategy`] and runs the imbalance-feedback loop:
//! [`PartitionStrategy::CostGuided`] stays on the paper's block split
//! until the measured §5.3.1 imbalance of that split crosses
//! [`ENGAGE_THRESHOLD`], then switches to LPT packing over predicted
//! costs.
//!
//! Determinism: predictions feed only the owner *assignment*; results
//! are assembled in item order and the RNG streams are item-keyed, so
//! no assignment can change the learned network (DESIGN.md §14). On
//! the message engine every rank must still compute the *same*
//! assignment — guaranteed because calibration inputs are the gathered
//! global per-item units (replicated) and the feedback ratchet uses
//! only those deterministic unit-domain statistics there.

use crate::partition::{
    assign_owners, block_owner, block_range, load_imbalance, rank_loads, PartitionStrategy,
};
use crate::segments::Segments;
use std::collections::BTreeMap;
use std::ops::Range;

/// Online predictor of per-item work units, keyed by segment length.
///
/// Per observed segment length the model keeps the running mean of the
/// measured units; prediction is that mean, falling back to the global
/// mean for unseen lengths and to `1` (uniform) when cold. Integer
/// state only — the model must evolve identically on every engine and
/// rank.
#[derive(Debug, Clone, Default)]
pub struct ItemCostModel {
    /// Per segment length: `(items observed, total units)`.
    by_len: BTreeMap<usize, (u64, u128)>,
    items: u64,
    units: u128,
}

impl ItemCostModel {
    /// A cold model: predicts uniform cost `1` everywhere.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one item's measured units, observed in a segment of
    /// `seg_len` items.
    pub fn observe(&mut self, seg_len: usize, units: u64) {
        let slot = self.by_len.entry(seg_len).or_insert((0, 0));
        slot.0 += 1;
        slot.1 += u128::from(units);
        self.items += 1;
        self.units += u128::from(units);
    }

    /// Predicted work units of one item in a segment of `seg_len`
    /// items. Never zero, so the dynamic strategies keep a total order
    /// on loads.
    pub fn predict(&self, seg_len: usize) -> u64 {
        if let Some(&(k, total)) = self.by_len.get(&seg_len) {
            if k > 0 {
                return ((total / u128::from(k)) as u64).max(1);
            }
        }
        if self.items > 0 {
            ((self.units / u128::from(self.items)) as u64).max(1)
        } else {
            1
        }
    }

    /// Predicted per-item costs for a whole segmented list.
    pub fn predict_items(&self, segments: &Segments) -> Vec<u64> {
        let mut out = vec![1u64; segments.n_items()];
        for (_, range) in segments.iter() {
            let c = self.predict(range.len());
            out[range].fill(c);
        }
        out
    }

    /// Items observed so far.
    pub fn observations(&self) -> u64 {
        self.items
    }

    /// True until the first observation.
    pub fn is_cold(&self) -> bool {
        self.items == 0
    }
}

/// §5.3.1 imbalance above which [`PartitionStrategy::CostGuided`]
/// abandons the block split for LPT packing.
pub const ENGAGE_THRESHOLD: f64 = 0.10;

/// EWMA weight of the newest map's block-imbalance observation.
const EWMA_ALPHA: f64 = 0.5;

/// Per-engine partitioning state: the configured strategy, the online
/// cost model, and the imbalance-feedback ratchet.
#[derive(Debug, Clone)]
pub struct PartitionGovernor {
    strategy: PartitionStrategy,
    model: ItemCostModel,
    /// EWMA of the §5.3.1 imbalance the *block* split would have had
    /// on recent maps (computed counterfactually from measured units,
    /// whatever assignment actually ran — so engagement cannot
    /// oscillate once LPT flattens the realized imbalance).
    block_imbalance: f64,
    maps_observed: u64,
    engaged: bool,
}

impl Default for PartitionGovernor {
    fn default() -> Self {
        Self::new(PartitionStrategy::Block)
    }
}

impl PartitionGovernor {
    /// Governor for the given strategy, with a cold model.
    pub fn new(strategy: PartitionStrategy) -> Self {
        Self {
            strategy,
            model: ItemCostModel::new(),
            block_imbalance: 0.0,
            maps_observed: 0,
            engaged: false,
        }
    }

    /// The configured strategy.
    pub fn strategy(&self) -> PartitionStrategy {
        self.strategy
    }

    /// Reconfigure the strategy; calibration state is kept (the cost
    /// model is strategy-independent).
    pub fn set_strategy(&mut self, strategy: PartitionStrategy) {
        self.strategy = strategy;
    }

    /// The calibrated cost model.
    pub fn model(&self) -> &ItemCostModel {
        &self.model
    }

    /// Whether the CostGuided feedback loop has engaged LPT packing.
    pub fn engaged(&self) -> bool {
        self.engaged
    }

    /// EWMA of the counterfactual block-split imbalance (§5.3.1, work
    /// units domain).
    pub fn block_imbalance(&self) -> f64 {
        self.block_imbalance
    }

    /// The plan for an upcoming map of `segments` over `p` ranks:
    /// [`Plan::Block`] for the block strategy, and for flat maps under
    /// the segment-aware oracle strategies (a flat list has no segments
    /// to honor). Every other case plans [`Plan::Owners`] — possibly
    /// the block assignment itself (CostGuided before engagement),
    /// because the owner path is also what gathers the per-item units
    /// that calibrate the model.
    pub fn plan(&self, p: usize, segments: &Segments) -> Plan {
        let n = segments.n_items();
        let predicted = || self.model.predict_items(segments);
        Plan::Owners(match self.strategy {
            PartitionStrategy::Block => return Plan::Block,
            strategy if strategy.is_oracle() && segments.is_flat() => return Plan::Block,
            // Cost-independent: identical owners on every engine.
            PartitionStrategy::SegmentOwner => {
                assign_owners(PartitionStrategy::SegmentOwner, p, &vec![1u64; n], segments)
            }
            PartitionStrategy::SelfScheduling
            | PartitionStrategy::Lpt
            | PartitionStrategy::Chunked => assign_owners(self.strategy, p, &predicted(), segments),
            PartitionStrategy::CostGuided if self.engaged && !self.model.is_cold() => {
                assign_owners(PartitionStrategy::Lpt, p, &predicted(), segments)
            }
            PartitionStrategy::CostGuided => (0..n).map(|i| block_owner(n, p, i)).collect(),
        })
    }

    /// Record the realized per-item units of a strategy-mode map:
    /// calibrates the model and advances the counterfactual block
    /// imbalance that drives CostGuided engagement. Must be fed the
    /// *global* cost vector (identical on every rank).
    pub fn observe_map(&mut self, p: usize, segments: &Segments, costs: &[u64]) {
        debug_assert_eq!(costs.len(), segments.n_items());
        for (_, range) in segments.iter() {
            let len = range.len();
            for i in range {
                self.model.observe(len, costs[i]);
            }
        }
        if costs.is_empty() || p <= 1 {
            return;
        }
        let n = costs.len();
        let block: Vec<usize> = (0..n).map(|i| block_owner(n, p, i)).collect();
        let imb = load_imbalance(&rank_loads(p, &block, costs));
        self.maps_observed += 1;
        self.block_imbalance = if self.maps_observed == 1 {
            imb
        } else {
            EWMA_ALPHA * imb + (1.0 - EWMA_ALPHA) * self.block_imbalance
        };
        if self.block_imbalance > ENGAGE_THRESHOLD {
            self.engaged = true;
        }
    }

    /// The imbalance-feedback hook (§5.3.1), called between GaneSH
    /// runs and split-selection rounds. `measured_imbalance` is the
    /// engine's own busy-time imbalance for the elapsed window, when
    /// the engine has a replicated view of it (single-process engines;
    /// the msg engine passes `None` because each rank only measures
    /// its own busy time and the decision must be identical on every
    /// rank). Engagement is a ratchet: feedback can engage LPT, never
    /// disengage it — re-partitioning only ever moves *toward* the
    /// balanced assignment, so the loop cannot oscillate.
    pub fn feedback(&mut self, measured_imbalance: Option<f64>) {
        if let Some(m) = measured_imbalance {
            if m > ENGAGE_THRESHOLD {
                self.engaged = true;
            }
        }
        if self.block_imbalance > ENGAGE_THRESHOLD {
            self.engaged = true;
        }
    }
}

/// How one map's items are split over the ranks — the single plan type
/// every engine executes (DESIGN.md §2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Plan {
    /// The paper's split (Alg. 5 line 5): rank `r` owns the contiguous
    /// block `block_range(n, p, r)`. Results meet by concatenation and
    /// travel as bare `T`; no owner vector is built.
    Block,
    /// An owner per item. Results travel as costed pairs `(T, u64)`, are
    /// scattered back to item order, and calibrate the cost model.
    Owners(Vec<usize>),
}

impl Plan {
    /// Rank `rank`'s kernel calls `(segment, sub-range)` in ascending
    /// item order. Under `Block` these are the segments clipped to the
    /// rank's block; under `Owners`, the rank's maximal same-owner runs
    /// within each segment — the finest cut that satisfies both the
    /// kernel contract (one segment per call) and any owner vector.
    pub fn runs<'a>(
        &'a self,
        segments: &'a Segments,
        p: usize,
        rank: usize,
    ) -> impl Iterator<Item = (usize, Range<usize>)> + 'a {
        let (block, owned) = match self {
            Plan::Block => {
                let (lo, hi) = block_range(segments.n_items(), p, rank);
                (Some(segments.overlapping(lo, hi)), None)
            }
            Plan::Owners(owners) => {
                let runs = segments.iter().flat_map(move |(seg, range)| {
                    let mut i = range.start;
                    std::iter::from_fn(move || {
                        while i < range.end && owners[i] != rank {
                            i += 1;
                        }
                        let lo = i;
                        while i < range.end && owners[i] == rank {
                            i += 1;
                        }
                        (lo < i).then_some((seg, lo..i))
                    })
                });
                (None, Some(runs))
            }
        };
        block
            .into_iter()
            .flatten()
            .chain(owned.into_iter().flatten())
    }

    /// Put the ranks' results in item order. `blocks` is the rank-order
    /// concatenation of every rank's results (chunked any way: one
    /// gathered vector or one block per rank), each rank's in the order
    /// of its [`Plan::runs`].
    pub fn assemble<E>(&self, blocks: Vec<Vec<E>>) -> Vec<E> {
        let mut all = if blocks.len() == 1 {
            blocks.into_iter().next().expect("one block")
        } else {
            let mut all = Vec::with_capacity(blocks.iter().map(Vec::len).sum());
            blocks.into_iter().for_each(|block| all.extend(block));
            all
        };
        let Plan::Owners(owners) = self else {
            return all;
        };
        // Cut the concatenation into per-rank cursors (from the back, so
        // every element moves once), then let the owner vector pick the
        // next result of each item's owner.
        let mut counts = Vec::new();
        for &o in owners {
            if o >= counts.len() {
                counts.resize(o + 1, 0usize);
            }
            counts[o] += 1;
        }
        let mut cursors: Vec<_> = counts
            .iter()
            .rev()
            .map(|&c| all.split_off(all.len() - c).into_iter())
            .collect();
        cursors.reverse();
        owners
            .iter()
            .map(|&o| cursors[o].next().expect("one result per owned item"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_model_predicts_uniform() {
        let m = ItemCostModel::new();
        assert!(m.is_cold());
        assert_eq!(m.predict(5), 1);
        assert_eq!(m.predict(1000), 1);
    }

    #[test]
    fn model_learns_per_length_means() {
        let mut m = ItemCostModel::new();
        for _ in 0..10 {
            m.observe(4, 100);
            m.observe(16, 400);
        }
        assert_eq!(m.predict(4), 100);
        assert_eq!(m.predict(16), 400);
        // Unseen length: global mean.
        assert_eq!(m.predict(8), 250);
        assert_eq!(m.observations(), 20);
    }

    #[test]
    fn model_never_predicts_zero() {
        let mut m = ItemCostModel::new();
        m.observe(3, 0);
        assert_eq!(m.predict(3), 1);
        assert_eq!(m.predict(99), 1);
    }

    #[test]
    fn cost_guided_engages_on_skew_and_ratchets() {
        let mut gov = PartitionGovernor::new(PartitionStrategy::CostGuided);
        let segments = Segments::from_lens([8usize, 56]);
        let p = 8;
        let owners = |plan| match plan {
            Plan::Owners(owners) => owners,
            Plan::Block => panic!("cost-guided always plans owners"),
        };
        // Cold: the plan is the block assignment.
        let cold = owners(gov.plan(p, &segments));
        let block: Vec<usize> = (0..64).map(|i| block_owner(64, p, i)).collect();
        assert_eq!(cold, block);
        // One skewed map (expensive prefix) calibrates and engages.
        let costs: Vec<u64> = (0..64).map(|i| if i < 8 { 500 } else { 5 }).collect();
        gov.observe_map(p, &segments, &costs);
        assert!(gov.engaged(), "block imbalance {}", gov.block_imbalance());
        let hot = owners(gov.plan(p, &segments));
        assert_ne!(hot, block);
        // The engaged plan spreads the predicted load better than block.
        let predicted = gov.model().predict_items(&segments);
        let imb = |owners: &[usize]| load_imbalance(&rank_loads(p, owners, &predicted));
        assert!(imb(&hot) < imb(&block));
        // Balanced maps afterwards do not disengage the ratchet.
        gov.feedback(Some(0.0));
        assert!(gov.engaged());
    }

    #[test]
    fn block_strategy_has_no_plan() {
        // No owner vector under Block, nor for flat maps under the
        // segment-aware oracle strategies.
        let gov = PartitionGovernor::new(PartitionStrategy::Block);
        assert_eq!(gov.plan(4, &Segments::whole(10)), Plan::Block);
        for strategy in [
            PartitionStrategy::SegmentOwner,
            PartitionStrategy::SelfScheduling,
        ] {
            let gov = PartitionGovernor::new(strategy);
            assert_eq!(gov.plan(4, &Segments::flat(10)), Plan::Block);
            assert_ne!(gov.plan(4, &Segments::whole(10)), Plan::Block);
        }
    }

    #[test]
    fn owner_runs_cover_every_item_once_within_segments() {
        let segments = Segments::from_lens([5usize, 0, 7, 3]);
        let n = segments.n_items();
        let owners: Vec<usize> = (0..n).map(|i| i % 3).collect();
        let plan = Plan::Owners(owners.clone());
        let mut seen = vec![0u32; n];
        let mut blocks = Vec::new();
        for r in 0..3 {
            let mut block = Vec::new();
            for (seg, range) in plan.runs(&segments, 3, r) {
                let seg_range = segments.range(seg);
                assert!(range.start >= seg_range.start && range.end <= seg_range.end);
                for i in range {
                    assert_eq!(owners[i], r);
                    seen[i] += 1;
                    block.push(i);
                }
            }
            blocks.push(block);
        }
        assert!(seen.iter().all(|&s| s == 1));
        // Per-rank blocks and their gathered concatenation both
        // assemble back to item order.
        let item_order: Vec<usize> = (0..n).collect();
        assert_eq!(plan.assemble(blocks.clone()), item_order);
        assert_eq!(plan.assemble(vec![blocks.concat()]), item_order);
    }

    #[test]
    fn feedback_measured_hint_engages() {
        let mut gov = PartitionGovernor::new(PartitionStrategy::CostGuided);
        // No unit-domain evidence yet, but the engine's recorder saw a
        // badly imbalanced phase.
        gov.feedback(Some(0.8));
        assert!(gov.engaged());
    }
}
