//! The batched candidate scorer behind `CandidateScoring::Kernel`.
//!
//! One [`SweepScorer`] lives for the duration of one sweep. It holds
//! the per-sweep statistic caches that turn a candidate evaluation
//! into cache lookups plus a single constant-size normal-gamma
//! evaluation:
//!
//! * **row statistics** `(variable, cluster) → per-tile SuffStats` —
//!   valid for the whole variable sweep because observation
//!   memberships never change during it; invalidated per cluster slot
//!   only when the slot is freed or (re)created with a fresh
//!   partition;
//! * **whole-row statistics** `variable → lm(row)` for the
//!   fresh-cluster candidate — the row never changes, so never
//!   invalidated (computed by `SuffStats::from_values` in row order,
//!   exactly as the naive fresh-cluster delta does; summing cached
//!   per-tile statistics instead would change the accumulation order
//!   and break bit-identity);
//! * **column statistics** `observation → (SuffStats, lm)` for the
//!   observation sweeps — valid for the whole sweep because the
//!   owning variable cluster's membership is fixed during it;
//! * **tile log-marginals** keyed by slot, guarded by per-slot epoch
//!   counters bumped in O(1) when an accepted move changes the tile;
//! * **whole addition deltas** `(item, cluster) → (Δ, work)`, stored
//!   back after the parallel loop under the cluster's tile epoch, so a
//!   re-proposal against an untouched cluster is a lookup.
//!
//! Every cached value is produced by the same accumulation loop (same
//! element order) or the same pure function the naive path runs, so
//! serving it from the cache returns the identical bits — see
//! `mn_score::gibbs_kernel` for the full equivalence argument.
//!
//! Storage: every cache key is a pair of small dense indices, so each
//! cache is an [`EpochTable`] (`[variable][slot]`, `[slot][oslot]`,
//! `[observation][oslot]`; a single row for the 1-D keys). Row
//! statistics live in one per-sweep arena the tables index into, and
//! the candidate list handed to the parallel loop is one scorer-owned
//! [`CandidatePrep`] refilled per proposal, its tile terms in a flat
//! arena. Nothing is allocated per entry or per candidate, and
//! dropping the scorer frees one buffer per table row.
//!
//! The scorer also *reports* the naive path's per-item work for every
//! candidate (even when the answer came from the cache), mirroring the
//! split kernel's convention: block partitioning, per-item accounting,
//! and therefore every simulated-imbalance figure reproduce
//! byte-for-byte between the two scoring paths, and the speedup is
//! measured as real wall-clock (`bench_gibbs`).

use crate::moves::push_row_stats;
use crate::state::{CoClustering, ObsPartition};
use mn_data::Dataset;
use mn_score::gibbs_kernel::{addition_term, removal_term, EpochTable};
use mn_score::{LnGammaTable, NormalGamma, PriorConsts, SuffStats, COST_CELL, COST_LOGMARG};
use std::cell::Cell;

/// One tile-local addition term of a candidate's weight: the
/// candidate tile, the moving item's statistics restricted to it, and
/// the cached `log_marginal(tile)`.
#[derive(Debug, Clone, Copy)]
pub struct TileTerm {
    /// The candidate tile's sufficient statistics.
    pub tile: SuffStats,
    /// The moving item's statistics restricted to the tile.
    pub item: SuffStats,
    /// Cached `log_marginal(tile)`.
    pub lm_tile: f64,
}

/// One prepared candidate of a reassignment move. Tile terms live in
/// the owning [`CandidatePrep`]'s flat `terms` arena.
#[derive(Debug, Clone, Copy)]
enum CandEval {
    /// The item's current cluster: Δ = 0 by convention.
    Stay,
    /// An existing cluster: the addition terms `terms[start..end]`,
    /// accumulated from 0 in slot order as the naive delta does.
    Tiles { start: usize, end: usize, work: u64 },
    /// An existing cluster scored by the single term `terms[at]` (the
    /// observation sweeps have exactly one tile per candidate, and the
    /// naive delta there is the bare term, not `0 + term`).
    Tile { at: usize, work: u64 },
    /// An existing cluster whose whole addition delta was computed by
    /// an earlier proposal of the same item and is still epoch-valid:
    /// served with zero normal-gamma evaluations.
    Cached { add: f64, work: u64 },
    /// The fresh-cluster candidate: its score is the cached
    /// log-marginal of the item's own statistics.
    Fresh { lm: f64, work: u64 },
}

/// The prepared candidate list of one reassignment iteration,
/// assembled in replicated control flow; the block-partitioned loop
/// only reads it. Owned by the scorer and refilled per proposal, so a
/// warm proposal allocates nothing here.
#[derive(Debug, Default)]
pub struct CandidatePrep {
    cands: Vec<CandEval>,
    terms: Vec<TileTerm>,
}

impl CandidatePrep {
    /// Number of candidates (existing clusters + fresh).
    pub fn len(&self) -> usize {
        self.cands.len()
    }

    /// Whether the candidate list is empty (it never is in a sweep).
    pub fn is_empty(&self) -> bool {
        self.cands.is_empty()
    }

    /// `((weight, addition delta), reported work)` of candidate `i`,
    /// given the hoisted removal delta `rem`. The accumulation order
    /// matches the naive addition deltas term for term. The raw
    /// addition delta rides along so the sweep can store it back into
    /// the per-sweep cache — it must be the value accumulated here,
    /// not `weight − rem`, which rounds differently and would break
    /// bit-identity on the next serve.
    pub fn eval(&self, prior: &PriorConsts, i: usize, rem: f64) -> ((f64, f64), u64) {
        let term = |t: &TileTerm| addition_term(prior, &t.tile, &t.item, t.lm_tile);
        match self.cands[i] {
            CandEval::Stay => ((0.0, 0.0), 1),
            CandEval::Tiles { start, end, work } => {
                let mut add = 0.0;
                for t in &self.terms[start..end] {
                    add += term(t);
                }
                ((rem + add, add), work)
            }
            CandEval::Tile { at, work } => {
                let add = term(&self.terms[at]);
                ((rem + add, add), work)
            }
            CandEval::Cached { add, work } => ((rem + add, add), work),
            CandEval::Fresh { lm, work } => ((rem + lm, lm), work),
        }
    }
}

/// Prepared values of one variable-merge move: the candidate-
/// independent log-marginals, hoisted once per move.
#[derive(Debug, Default)]
pub struct VarMergePrep {
    /// `lm(tile)` of every source tile, in slot order — subtracted
    /// per candidate in this exact order, as the naive delta does.
    pub src_lms: Vec<f64>,
    /// `lm(tile)` of every destination tile, candidates back to back.
    dst_lms: Vec<f64>,
    /// Candidate `i`'s tiles are `dst_lms[dst_start[i]..dst_start[i + 1]]`.
    dst_start: Vec<usize>,
}

impl VarMergePrep {
    /// `lm(tile)` of candidate `i`'s destination tiles in slot order
    /// (empty for the stay candidate).
    pub fn dst_tile_lms(&self, i: usize) -> &[f64] {
        &self.dst_lms[self.dst_start[i]..self.dst_start[i + 1]]
    }
}

/// Prepared values of one observation-merge move.
#[derive(Debug, Default)]
pub struct ObsMergePrep {
    /// `lm` of the cluster being merged away (candidate-independent).
    pub lm_a: f64,
    /// Per candidate: `lm` of the merge target; `None` = stay.
    pub cand_lms: Vec<Option<f64>>,
}

fn epoch(v: &mut Vec<u64>, slot: usize) -> u64 {
    if slot >= v.len() {
        v.resize(slot + 1, 0);
    }
    v[slot]
}

fn bump(v: &mut Vec<u64>, slot: usize) {
    if slot >= v.len() {
        v.resize(slot + 1, 0);
    }
    v[slot] += 1;
}

/// Table-backed `log_marginal` with analytic hit accounting.
///
/// Only ever invoked from the scorer's replicated-control-flow prep
/// methods (never from the block-partitioned candidate loop), so both
/// the memo's fill order and the counts are engine- and
/// rank-count-independent. Empty blocks short-circuit to 0 without a
/// table lookup and are therefore not counted.
fn lm_via(
    prior: &NormalGamma,
    table: &LnGammaTable,
    calls: &Cell<u64>,
    hits: &Cell<u64>,
    stats: &SuffStats,
) -> f64 {
    if !stats.is_empty() {
        calls.set(calls.get() + 1);
        if (table.len() as u64) > stats.count() {
            hits.set(hits.get() + 1);
        }
    }
    prior.log_marginal_with(stats, table)
}

/// Per-sweep candidate-scoring cache (see the module docs).
#[derive(Debug)]
pub struct SweepScorer {
    /// The prior with its data-independent marginal terms evaluated
    /// once — what every term evaluation of the sweep goes through.
    consts: PriorConsts,
    /// The sweep's `ln Γ(α₀ + k/2)` memo — scoped to this scorer (one
    /// checkpoint unit's sweep), never wider, so kill/resume replays
    /// observe the same fill pattern the uninterrupted run recorded.
    table: LnGammaTable,
    /// `ln Γ` evaluations requested through the table / served from
    /// the memo. `Cell` so the table fill closures (which hold a
    /// shared borrow of the scorer's fields) can count; prep runs in
    /// replicated flow, so no synchronization is needed.
    lg_calls: Cell<u64>,
    lg_hits: Cell<u64>,
    /// The candidate lists handed to the parallel loops, refilled per
    /// proposal.
    prep: CandidatePrep,
    var_merge: VarMergePrep,
    obs_merge: ObsMergePrep,
    // Variable sweeps.
    /// `[variable][slot]` → where in `row_arena` the row's per-tile
    /// statistics start (one per active observation cluster, in slot
    /// order).
    row_stats: EpochTable<usize>,
    row_arena: Vec<SuffStats>,
    /// `[0][variable]`.
    whole_row_lm: EpochTable<f64>,
    /// `[slot][oslot]`.
    var_tile_lm: EpochTable<f64>,
    /// Whole addition deltas `[variable][slot] → (Δ, work)` computed
    /// by earlier proposals and stored back after the parallel loop —
    /// guarded by the slot's tile epoch, so a re-proposal against an
    /// untouched cluster costs zero normal-gamma evaluations.
    var_add: EpochTable<(f64, u64)>,
    /// Bumped when a variable-cluster slot's *observation partition*
    /// is replaced (slot freed or created) — guards `row_stats`.
    part_epoch: Vec<u64>,
    /// Bumped when any tile of a variable-cluster slot changes —
    /// guards `var_tile_lm`.
    var_tile_epoch: Vec<u64>,
    // Observation sweeps (one variable cluster per sweep).
    /// `[0][observation]`.
    col: EpochTable<(SuffStats, f64)>,
    /// `[0][oslot]`.
    obs_tile_lm: EpochTable<f64>,
    /// Whole addition deltas `[observation][oslot] → (Δ, work)`, the
    /// observation-sweep counterpart of `var_add`.
    obs_add: EpochTable<(f64, u64)>,
    /// Bumped when an observation cluster's tile changes — guards
    /// `obs_tile_lm`.
    obs_tile_epoch: Vec<u64>,
}

impl SweepScorer {
    /// A fresh (empty) per-sweep scorer, with its `ln Γ` memo keyed to
    /// `prior`'s shape `α₀`.
    pub fn new(prior: &NormalGamma) -> Self {
        Self {
            consts: PriorConsts::new(prior),
            table: LnGammaTable::new(prior.alpha0),
            lg_calls: Cell::new(0),
            lg_hits: Cell::new(0),
            prep: CandidatePrep::default(),
            var_merge: VarMergePrep::default(),
            obs_merge: ObsMergePrep::default(),
            row_stats: EpochTable::default(),
            row_arena: Vec::new(),
            whole_row_lm: EpochTable::default(),
            var_tile_lm: EpochTable::default(),
            var_add: EpochTable::default(),
            part_epoch: Vec::new(),
            var_tile_epoch: Vec::new(),
            col: EpochTable::default(),
            obs_tile_lm: EpochTable::default(),
            obs_add: EpochTable::default(),
            obs_tile_epoch: Vec::new(),
        }
    }

    /// The sweep's prior with its hoisted constants, for the term
    /// evaluations the sweep runs in its parallel loops.
    pub fn consts(&self) -> PriorConsts {
        self.consts
    }

    /// `ln Γ` evaluations requested through the sweep's memo table.
    pub fn ln_gamma_calls(&self) -> u64 {
        self.lg_calls.get()
    }

    /// `ln Γ` evaluations served from the memo (no Lanczos run).
    pub fn ln_gamma_table_hits(&self) -> u64 {
        self.lg_hits.get()
    }

    /// Total cache lookups served without recomputation.
    pub fn hits(&self) -> u64 {
        self.row_stats.hits()
            + self.whole_row_lm.hits()
            + self.var_tile_lm.hits()
            + self.var_add.hits()
            + self.col.hits()
            + self.obs_tile_lm.hits()
            + self.obs_add.hits()
    }

    /// Total cache lookups that had to compute.
    pub fn misses(&self) -> u64 {
        self.row_stats.misses()
            + self.whole_row_lm.misses()
            + self.var_tile_lm.misses()
            + self.var_add.misses()
            + self.col.misses()
            + self.obs_tile_lm.misses()
            + self.obs_add.misses()
    }

    // ----- variable-reassignment sweep -----

    /// Where in `row_arena` the statistics of variable `x`'s row under
    /// `slot`'s observation partition `obs` start — appended by the
    /// naive path's own accumulation loop on a miss.
    fn row_stats_at(&mut self, data: &Dataset, x: usize, slot: usize, obs: &ObsPartition) -> usize {
        let pe = epoch(&mut self.part_epoch, slot);
        let arena = &mut self.row_arena;
        self.row_stats.fetch(x, slot, pe, || {
            let at = arena.len();
            push_row_stats(data, x, obs, arena);
            at
        })
    }

    /// The hoisted removal delta of variable `x`, served from the
    /// caches; the reported work is the naive formula's (one cell
    /// visit per observation plus two log-marginals per tile), so both
    /// scoring paths charge identical replicated work.
    pub fn var_removal(&mut self, data: &Dataset, state: &CoClustering, x: usize) -> (f64, u64) {
        let prior = *state.prior();
        let cur = state.slot_of_var(x);
        let obs = &state.cluster(cur).obs;
        let at = self.row_stats_at(data, x, cur, obs);
        let te = epoch(&mut self.var_tile_epoch, cur);
        let mut delta = 0.0;
        let mut n_tiles = 0;
        for (oslot, oc) in obs.iter_active() {
            let tile = oc.stats;
            let lm_tile = self.var_tile_lm.fetch(cur, oslot, te, || {
                lm_via(&prior, &self.table, &self.lg_calls, &self.lg_hits, &tile)
            });
            delta += removal_term(&self.consts, &tile, &self.row_arena[at + n_tiles], lm_tile);
            n_tiles += 1;
        }
        let work = data.n_obs() as u64 * COST_CELL + 2 * n_tiles as u64 * COST_LOGMARG;
        (delta, work)
    }

    /// Prepare the candidate list of one variable-reassignment
    /// iteration: per existing cluster the per-tile addition terms,
    /// plus the fresh-cluster candidate. Runs in replicated control
    /// flow; cache hits/misses are therefore identical on every rank.
    pub fn prep_var_candidates(
        &mut self,
        data: &Dataset,
        state: &CoClustering,
        x: usize,
        cur: usize,
        slots: &[usize],
    ) -> &CandidatePrep {
        let prior = *state.prior();
        let cell_work = data.n_obs() as u64 * COST_CELL;
        self.prep.cands.clear();
        self.prep.terms.clear();
        for &slot in slots {
            if slot == cur {
                self.prep.cands.push(CandEval::Stay);
                continue;
            }
            let te = epoch(&mut self.var_tile_epoch, slot);
            if let Some((add, work)) = self.var_add.get(x, slot, te) {
                self.prep.cands.push(CandEval::Cached { add, work });
                continue;
            }
            let obs = &state.cluster(slot).obs;
            let at = self.row_stats_at(data, x, slot, obs);
            let start = self.prep.terms.len();
            for (i, (oslot, oc)) in obs.iter_active().enumerate() {
                let tile = oc.stats;
                let lm_tile = self.var_tile_lm.fetch(slot, oslot, te, || {
                    lm_via(&prior, &self.table, &self.lg_calls, &self.lg_hits, &tile)
                });
                self.prep.terms.push(TileTerm {
                    tile,
                    item: self.row_arena[at + i],
                    lm_tile,
                });
            }
            let end = self.prep.terms.len();
            let work = cell_work + 2 * (end - start) as u64 * COST_LOGMARG;
            self.prep.cands.push(CandEval::Tiles { start, end, work });
        }
        let lm = self.whole_row_lm.fetch(0, x, 0, || {
            let row = SuffStats::from_values(data.values(x));
            lm_via(&prior, &self.table, &self.lg_calls, &self.lg_hits, &row)
        });
        self.prep.cands.push(CandEval::Fresh {
            lm,
            work: cell_work + COST_LOGMARG,
        });
        &self.prep
    }

    /// Store the addition deltas the parallel loop just computed back
    /// into the whole-delta cache, stamped with the current tile
    /// epochs. `outs` is the loop's `(weight, addition delta)` output
    /// for the candidate list prepared last, index-aligned with
    /// `slots`; only candidates that were actually evaluated (not
    /// served from this cache, not stay) are stored.
    pub fn store_var_adds(&mut self, x: usize, slots: &[usize], outs: &[(f64, f64)]) {
        for (i, &slot) in slots.iter().enumerate() {
            if let CandEval::Tiles { work, .. } = self.prep.cands[i] {
                let e = epoch(&mut self.var_tile_epoch, slot);
                self.var_add.insert(x, slot, e, (outs[i].1, work));
            }
        }
    }

    /// Record an accepted variable reassignment from slot `from` to
    /// slot `to`. O(1): bumps the epochs guarding the tiles of both
    /// slots, and the partition epochs of a freed / freshly created
    /// slot.
    pub fn note_var_move(&mut self, from: usize, to: usize, from_freed: bool, to_created: bool) {
        bump(&mut self.var_tile_epoch, from);
        bump(&mut self.var_tile_epoch, to);
        if from_freed {
            bump(&mut self.part_epoch, from);
        }
        if to_created {
            bump(&mut self.part_epoch, to);
        }
    }

    // ----- variable-merge sweep -----

    /// Prepare one variable-merge move: hoist the source tiles'
    /// log-marginals (candidate-independent) and memoize every
    /// destination tile's log-marginal.
    pub fn prep_var_merge(
        &mut self,
        state: &CoClustering,
        slot: usize,
        candidates: &[usize],
    ) -> &VarMergePrep {
        let prior = *state.prior();
        let prep = &mut self.var_merge;
        prep.src_lms.clear();
        prep.dst_lms.clear();
        prep.dst_start.clear();
        let te_src = epoch(&mut self.var_tile_epoch, slot);
        for (oslot, oc) in state.cluster(slot).obs.iter_active() {
            let stats = oc.stats;
            prep.src_lms
                .push(self.var_tile_lm.fetch(slot, oslot, te_src, || {
                    lm_via(&prior, &self.table, &self.lg_calls, &self.lg_hits, &stats)
                }));
        }
        for &t in candidates {
            prep.dst_start.push(prep.dst_lms.len());
            if t == slot {
                continue;
            }
            let te = epoch(&mut self.var_tile_epoch, t);
            for (oslot, oc) in state.cluster(t).obs.iter_active() {
                let stats = oc.stats;
                prep.dst_lms.push(self.var_tile_lm.fetch(t, oslot, te, || {
                    lm_via(&prior, &self.table, &self.lg_calls, &self.lg_hits, &stats)
                }));
            }
        }
        prep.dst_start.push(prep.dst_lms.len());
        prep
    }

    /// Record an accepted merge of variable cluster `from` into `to`.
    pub fn note_var_merge(&mut self, from: usize, to: usize) {
        bump(&mut self.var_tile_epoch, from);
        bump(&mut self.var_tile_epoch, to);
        bump(&mut self.part_epoch, from); // slot freed
    }

    // ----- observation sweeps (inside one variable cluster) -----

    /// Column statistics and their log-marginal for observation `o`
    /// inside variable cluster `slot`, plus the naive column work.
    /// Valid for the whole observation sweep (the cluster's variable
    /// membership is fixed during it).
    pub fn obs_col(
        &mut self,
        data: &Dataset,
        state: &CoClustering,
        slot: usize,
        o: usize,
    ) -> (SuffStats, f64, u64) {
        let prior = *state.prior();
        let (col, lm) = self.col.fetch(0, o, 0, || {
            let (col, _) = state.column_stats(data, slot, o);
            let lm = lm_via(&prior, &self.table, &self.lg_calls, &self.lg_hits, &col);
            (col, lm)
        });
        let col_work = state.cluster(slot).members.len() as u64 * COST_CELL;
        (col, lm, col_work)
    }

    /// The hoisted removal delta of observation `o` (with the naive
    /// formula's work), served from the caches.
    pub fn obs_removal(
        &mut self,
        data: &Dataset,
        state: &CoClustering,
        slot: usize,
        o: usize,
    ) -> (f64, u64) {
        let prior = *state.prior();
        let (col, _, col_work) = self.obs_col(data, state, slot, o);
        let cur = state.cluster(slot).obs.slot_of(o);
        let tile = state.cluster(slot).obs.cluster(cur).stats;
        let te = epoch(&mut self.obs_tile_epoch, cur);
        let lm_tile = self.obs_tile_lm.fetch(0, cur, te, || {
            lm_via(&prior, &self.table, &self.lg_calls, &self.lg_hits, &tile)
        });
        (
            removal_term(&self.consts, &tile, &col, lm_tile),
            col_work + 2 * COST_LOGMARG,
        )
    }

    /// Prepare the candidate list of one observation-reassignment
    /// iteration: one addition term per existing observation cluster,
    /// plus the fresh-cluster candidate.
    pub fn prep_obs_candidates(
        &mut self,
        data: &Dataset,
        state: &CoClustering,
        slot: usize,
        o: usize,
        cur: usize,
        oslots: &[usize],
    ) -> &CandidatePrep {
        let prior = *state.prior();
        let (col, lm_col, col_work) = self.obs_col(data, state, slot, o);
        self.prep.cands.clear();
        self.prep.terms.clear();
        for &t in oslots {
            if t == cur {
                self.prep.cands.push(CandEval::Stay);
                continue;
            }
            let te = epoch(&mut self.obs_tile_epoch, t);
            if let Some((add, work)) = self.obs_add.get(o, t, te) {
                self.prep.cands.push(CandEval::Cached { add, work });
                continue;
            }
            let tile = state.cluster(slot).obs.cluster(t).stats;
            let lm_tile = self.obs_tile_lm.fetch(0, t, te, || {
                lm_via(&prior, &self.table, &self.lg_calls, &self.lg_hits, &tile)
            });
            self.prep.cands.push(CandEval::Tile {
                at: self.prep.terms.len(),
                work: col_work + 2 * COST_LOGMARG,
            });
            self.prep.terms.push(TileTerm {
                tile,
                item: col,
                lm_tile,
            });
        }
        self.prep.cands.push(CandEval::Fresh {
            lm: lm_col,
            work: col_work + COST_LOGMARG,
        });
        &self.prep
    }

    /// The observation-sweep counterpart of
    /// [`SweepScorer::store_var_adds`].
    pub fn store_obs_adds(&mut self, o: usize, oslots: &[usize], outs: &[(f64, f64)]) {
        for (i, &t) in oslots.iter().enumerate() {
            if let CandEval::Tile { work, .. } = self.prep.cands[i] {
                let e = epoch(&mut self.obs_tile_epoch, t);
                self.obs_add.insert(o, t, e, (outs[i].1, work));
            }
        }
    }

    /// Record an accepted observation reassignment between observation
    /// slots `from` and `to`.
    pub fn note_obs_move(&mut self, from: usize, to: usize) {
        bump(&mut self.obs_tile_epoch, from);
        bump(&mut self.obs_tile_epoch, to);
    }

    /// Prepare one observation-merge move: hoist the merged-away
    /// cluster's log-marginal and memoize each candidate's.
    pub fn prep_obs_merge(
        &mut self,
        state: &CoClustering,
        slot: usize,
        oslot: usize,
        candidates: &[usize],
    ) -> &ObsMergePrep {
        let prior = *state.prior();
        let sa = state.cluster(slot).obs.cluster(oslot).stats;
        let te_a = epoch(&mut self.obs_tile_epoch, oslot);
        let prep = &mut self.obs_merge;
        prep.lm_a = self.obs_tile_lm.fetch(0, oslot, te_a, || {
            lm_via(&prior, &self.table, &self.lg_calls, &self.lg_hits, &sa)
        });
        prep.cand_lms.clear();
        for &t in candidates {
            if t == oslot {
                prep.cand_lms.push(None);
                continue;
            }
            let sb = state.cluster(slot).obs.cluster(t).stats;
            let te = epoch(&mut self.obs_tile_epoch, t);
            prep.cand_lms
                .push(Some(self.obs_tile_lm.fetch(0, t, te, || {
                    lm_via(&prior, &self.table, &self.lg_calls, &self.lg_hits, &sb)
                })));
        }
        prep
    }

    /// Record an accepted merge of observation cluster `from` into
    /// `to`.
    pub fn note_obs_merge(&mut self, from: usize, to: usize) {
        bump(&mut self.obs_tile_epoch, from);
        bump(&mut self.obs_tile_epoch, to);
    }

    // ----- validation -----

    /// Check every epoch-valid cache entry against a fresh
    /// recomputation from `state`, bit for bit. `obs_slot` names the
    /// variable cluster the observation caches refer to (if any obs
    /// sweep used this scorer). Panics on the first mismatch; used by
    /// tests and the property suite.
    pub fn validate_against(
        &self,
        data: &Dataset,
        state: &CoClustering,
        obs_slot: Option<usize>,
    ) {
        let prior = *state.prior();
        let cur_epoch = |v: &Vec<u64>, slot: usize| v.get(slot).copied().unwrap_or(0);

        let mut fresh = Vec::new();
        for ((x, slot), e, &at) in self.row_stats.entries() {
            if e != cur_epoch(&self.part_epoch, slot) {
                continue; // stale by design; recomputed on next access
            }
            assert!(state.is_active(slot), "valid row-stat entry for freed slot");
            fresh.clear();
            push_row_stats(data, x, &state.cluster(slot).obs, &mut fresh);
            let cached = &self.row_arena[at..at + fresh.len()];
            for (a, b) in cached.iter().zip(&fresh) {
                assert_eq!(a.count(), b.count(), "row-stat count drift");
                assert_eq!(a.sum().to_bits(), b.sum().to_bits(), "row-stat sum drift");
                assert_eq!(a.sumsq().to_bits(), b.sumsq().to_bits(), "row-stat sumsq drift");
            }
        }
        for ((_, x), _, &lm) in self.whole_row_lm.entries() {
            let fresh = prior.log_marginal(&SuffStats::from_values(data.values(x)));
            assert_eq!(lm.to_bits(), fresh.to_bits(), "whole-row lm drift");
        }
        for ((slot, oslot), e, &lm) in self.var_tile_lm.entries() {
            if e != cur_epoch(&self.var_tile_epoch, slot) {
                continue;
            }
            assert!(state.is_active(slot), "valid tile-lm entry for freed slot");
            let tile = &state.cluster(slot).obs.cluster(oslot).stats;
            let fresh = prior.log_marginal(tile);
            assert_eq!(lm.to_bits(), fresh.to_bits(), "var tile lm drift");
        }
        for ((x, slot), e, &(add, work)) in self.var_add.entries() {
            if e != cur_epoch(&self.var_tile_epoch, slot) {
                continue;
            }
            assert!(state.is_active(slot), "valid var-add entry for freed slot");
            // A move of `x` into `slot` bumps the slot's tile epoch, so
            // a valid entry always refers to a foreign cluster and the
            // naive addition delta is well-defined.
            assert_ne!(state.slot_of_var(x), slot, "valid var-add entry for own slot");
            let (fresh, fresh_work) = state.var_addition_delta(data, x, slot);
            assert_eq!(add.to_bits(), fresh.to_bits(), "var add-delta drift");
            assert_eq!(work, fresh_work, "var add-delta work drift");
        }
        if let Some(slot) = obs_slot {
            for ((_, o), _, (col, lm)) in self.col.entries() {
                let (fresh, _) = state.column_stats(data, slot, o);
                assert_eq!(col.count(), fresh.count(), "col count drift");
                assert_eq!(col.sum().to_bits(), fresh.sum().to_bits(), "col sum drift");
                assert_eq!(
                    col.sumsq().to_bits(),
                    fresh.sumsq().to_bits(),
                    "col sumsq drift"
                );
                let fresh_lm = prior.log_marginal(&fresh);
                assert_eq!(lm.to_bits(), fresh_lm.to_bits(), "col lm drift");
            }
            for ((_, oslot), e, &lm) in self.obs_tile_lm.entries() {
                if e != cur_epoch(&self.obs_tile_epoch, oslot) {
                    continue;
                }
                let tile = &state.cluster(slot).obs.cluster(oslot).stats;
                let fresh = prior.log_marginal(tile);
                assert_eq!(lm.to_bits(), fresh.to_bits(), "obs tile lm drift");
            }
            for ((o, t), e, &(add, work)) in self.obs_add.entries() {
                if e != cur_epoch(&self.obs_tile_epoch, t) {
                    continue;
                }
                assert_ne!(
                    state.cluster(slot).obs.slot_of(o),
                    t,
                    "valid obs-add entry for own cluster"
                );
                let (fresh, fresh_work) = state.obs_addition_delta(data, slot, o, t);
                assert_eq!(add.to_bits(), fresh.to_bits(), "obs add-delta drift");
                assert_eq!(work, fresh_work, "obs add-delta work drift");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::moves::MoveTarget;
    use mn_data::synthetic;
    use mn_rand::MasterRng;
    use mn_score::ScoreMode;

    fn setup(seed: u64) -> (Dataset, CoClustering) {
        let d = synthetic::yeast_like(16, 12, seed).dataset;
        let s = CoClustering::random_init(
            &d,
            5,
            NormalGamma::default(),
            ScoreMode::Incremental,
            &MasterRng::new(seed),
            0,
        );
        (d, s)
    }

    /// Every candidate weight produced by the prepared evaluation
    /// carries the exact bits of the naive per-candidate delta.
    #[test]
    fn var_candidate_weights_bit_identical_to_naive() {
        for seed in [3u64, 11, 29] {
            let (d, s) = setup(seed);
            let mut scorer = SweepScorer::new(s.prior());
            let prior = scorer.consts();
            for x in 0..d.n_vars() {
                let cur = s.slot_of_var(x);
                let slots = s.active_slots();
                let (rem_k, wk) = scorer.var_removal(&d, &s, x);
                let (rem_n, wn) = s.var_removal_delta(&d, x);
                assert_eq!(rem_k.to_bits(), rem_n.to_bits(), "removal bits");
                assert_eq!(wk, wn, "removal work");
                let prep = scorer.prep_var_candidates(&d, &s, x, cur, &slots);
                for (i, &slot) in slots.iter().enumerate() {
                    let ((w, _), work) = prep.eval(&prior, i, rem_n);
                    if slot == cur {
                        assert_eq!((w, work), (0.0, 1));
                    } else {
                        let (add, naive_work) = s.var_addition_delta(&d, x, slot);
                        assert_eq!(w.to_bits(), (rem_n + add).to_bits(), "addition bits");
                        assert_eq!(work, naive_work, "addition work");
                    }
                }
                let ((w, _), work) = prep.eval(&prior, slots.len(), rem_n);
                let (add, naive_work) = s.var_new_cluster_delta(&d, x);
                assert_eq!(w.to_bits(), (rem_n + add).to_bits(), "fresh bits");
                assert_eq!(work, naive_work, "fresh work");
            }
            // Second pass: everything is served from the cache (hits
            // grow, misses don't) and the bits stay identical.
            let misses_before = scorer.misses();
            for x in 0..d.n_vars() {
                let (rem_k, _) = scorer.var_removal(&d, &s, x);
                assert_eq!(rem_k.to_bits(), s.var_removal_delta(&d, x).0.to_bits());
            }
            assert_eq!(scorer.misses(), misses_before, "second pass recomputed");
            assert!(scorer.hits() > 0);
        }
    }

    #[test]
    fn obs_candidate_weights_bit_identical_to_naive() {
        for seed in [5u64, 17] {
            let (d, s) = setup(seed);
            let slot = s.active_slots()[0];
            let mut scorer = SweepScorer::new(s.prior());
            let prior = scorer.consts();
            for o in 0..d.n_obs() {
                let cur = s.cluster(slot).obs.slot_of(o);
                let oslots = s.cluster(slot).obs.active_slots();
                let (rem_k, wk) = scorer.obs_removal(&d, &s, slot, o);
                let (rem_n, wn) = s.obs_removal_delta(&d, slot, o);
                assert_eq!(rem_k.to_bits(), rem_n.to_bits(), "obs removal bits");
                assert_eq!(wk, wn, "obs removal work");
                let prep = scorer.prep_obs_candidates(&d, &s, slot, o, cur, &oslots);
                for (i, &t) in oslots.iter().enumerate() {
                    let ((w, _), work) = prep.eval(&prior, i, rem_n);
                    if t == cur {
                        assert_eq!((w, work), (0.0, 1));
                    } else {
                        let (add, naive_work) = s.obs_addition_delta(&d, slot, o, t);
                        assert_eq!(w.to_bits(), (rem_n + add).to_bits(), "obs addition bits");
                        assert_eq!(work, naive_work, "obs addition work");
                    }
                }
                let ((w, _), work) = prep.eval(&prior, oslots.len(), rem_n);
                let (add, naive_work) = s.obs_new_cluster_delta(&d, slot, o);
                assert_eq!(w.to_bits(), (rem_n + add).to_bits(), "obs fresh bits");
                assert_eq!(work, naive_work, "obs fresh work");
            }
        }
    }

    #[test]
    fn caches_invalidate_on_moves_and_stay_consistent() {
        let (d, mut s) = setup(7);
        let mut scorer = SweepScorer::new(s.prior());
        // Warm the caches.
        for x in 0..d.n_vars() {
            let cur = s.slot_of_var(x);
            let slots = s.active_slots();
            scorer.var_removal(&d, &s, x);
            scorer.prep_var_candidates(&d, &s, x, cur, &slots);
        }
        // Apply a move, invalidate, and verify the valid entries still
        // match a fresh recomputation (the stale ones are skipped).
        let x = 3;
        let cur = s.slot_of_var(x);
        let to = s
            .active_slots()
            .into_iter()
            .find(|&t| t != cur)
            .unwrap();
        s.move_var(&d, x, MoveTarget::Existing(to));
        scorer.note_var_move(cur, to, !s.is_active(cur), false);
        scorer.validate_against(&d, &s, None);
        // The moved-into slot's removal delta is recomputed correctly.
        let (rem_k, _) = scorer.var_removal(&d, &s, x);
        assert_eq!(rem_k.to_bits(), s.var_removal_delta(&d, x).0.to_bits());
    }
}
