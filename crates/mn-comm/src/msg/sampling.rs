//! The distributed random-sampling oracles of §3.1, over the fabric.
//!
//! `Select-Unif-Rand(B)` and `Select-Wtd-Rand(B, W)` operate on a
//! *distributed* list: every rank holds one block of the elements
//! (and, for the weighted form, of the weights). The calls are
//! collective — all ranks participate and all ranks return the same
//! chosen element — with the costs the paper states:
//! `O(1)` / `O(|B|/p + log p)` computation and `O((τ + μ) log p)`
//! communication.
//!
//! The protocol matches §4.2's determinism recipe: every rank holds the
//! same PRNG stream state and consumes exactly one draw per call, so
//! the chosen element equals the one a sequential run (with the
//! gathered list) would choose — a property the tests assert directly
//! against `mn-rand`'s shared-list oracles.

use crate::fault::CommError;
use crate::msg::collectives::{allreduce, exscan};
use crate::msg::fabric::Fabric;
use mn_rand::Stream;

/// Distributed `Select-Unif-Rand`: choose an element of the
/// distributed list uniformly; every rank returns the chosen *global*
/// index. `local_len` is this rank's block length.
pub fn select_unif_rand_dist<F: Fabric>(
    ep: &F,
    stream: &mut Stream,
    local_len: usize,
) -> Result<usize, CommError> {
    let offset = exscan(ep, local_len, 0usize, |a, b| a + b)?;
    let total = allreduce(ep, local_len, |a, b| a + b)?;
    assert!(total > 0, "cannot sample from an empty distributed list");
    let _ = offset;
    Ok(stream.index_one_draw(total))
}

/// Distributed `Select-Wtd-Rand` over linear weights: every rank holds
/// `local_weights` for its block; all ranks return the chosen global
/// index. Consumes exactly one draw, and chooses exactly the element
/// the shared-list oracle (`mn_rand::select_wtd_rand` over the
/// concatenated weights) would choose.
pub fn select_wtd_rand_dist<F: Fabric>(
    ep: &F,
    stream: &mut Stream,
    local_weights: &[f64],
) -> Result<usize, CommError> {
    let local_sum: f64 = local_weights.iter().sum();
    // Prefix of the weight mass before this rank, and the global total.
    let prefix = exscan(ep, local_sum, 0.0, |a, b| a + b)?;
    let total = allreduce(ep, local_sum, |a, b| a + b)?;
    assert!(
        total > 0.0 && total.is_finite(),
        "weight sum must be positive and finite, got {total}"
    );
    // Index offset of this rank's block.
    let index_offset = exscan(ep, local_weights.len(), 0usize, |a, b| a + b)?;

    // Same draw on every rank.
    let target = stream.next_f64() * total;

    // The owning rank walks its block; everyone else contributes "not
    // mine". The all-reduce picks the unique claim (ties at block
    // boundaries resolve to the lower index, matching the sequential
    // prefix walk).
    let local_pick: Option<usize> = if target >= prefix && target < prefix + local_sum {
        let mut acc = prefix;
        let mut pick = None;
        let mut last_valid = None;
        for (i, &w) in local_weights.iter().enumerate() {
            if w > 0.0 {
                last_valid = Some(i);
            }
            acc += w;
            if target < acc {
                pick = Some(index_offset + i);
                break;
            }
        }
        pick.or(last_valid.map(|i| index_offset + i))
    } else {
        None
    };
    // Global last-valid fallback for the floating-point edge where the
    // target lands at/past the total: the highest positive-weight index.
    let local_last_valid = local_weights
        .iter()
        .enumerate()
        .rev()
        .find(|(_, &w)| w > 0.0)
        .map(|(i, _)| index_offset + i);

    let claim = allreduce(ep, local_pick, |a, b| match (a, b) {
        (Some(x), Some(y)) => Some(x.min(y)),
        (Some(x), None) | (None, Some(x)) => Some(x),
        (None, None) => None,
    })?;
    Ok(match claim {
        Some(idx) => idx,
        None => allreduce(ep, local_last_valid, |a, b| match (a, b) {
            (Some(x), Some(y)) => Some(x.max(y)),
            (Some(x), None) | (None, Some(x)) => Some(x),
            (None, None) => None,
        })?
        .expect("all choices have zero probability"),
    })
}

/// Distributed log-space weighted selection (the Gibbs-move form):
/// `local_log_weights` holds this rank's block of log-weights. The
/// global max is found by all-reduce, the shifted weights are handled
/// as in the linear form.
pub fn select_wtd_log_dist<F: Fabric>(
    ep: &F,
    stream: &mut Stream,
    local_log_weights: &[f64],
) -> Result<usize, CommError> {
    let local_max = local_log_weights
        .iter()
        .copied()
        .fold(f64::NEG_INFINITY, f64::max);
    let global_max = allreduce(ep, local_max, f64::max)?;
    assert!(
        global_max > f64::NEG_INFINITY,
        "all choices have zero probability"
    );
    let shifted: Vec<f64> = local_log_weights
        .iter()
        .map(|&lw| (lw - global_max).exp())
        .collect();
    select_wtd_rand_dist(ep, stream, &shifted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::fabric::{fabric, Endpoint};
    use crate::partition::block_range;
    use mn_rand::{select_wtd_log, select_wtd_rand, Domain, MasterRng};

    /// Run an SPMD closure over p ranks.
    fn spmd<R: Send>(p: usize, f: impl Fn(&Endpoint) -> R + Sync) -> Vec<R> {
        let endpoints = fabric(p);
        std::thread::scope(|scope| {
            let handles: Vec<_> = endpoints.iter().map(|ep| scope.spawn(|| f(ep))).collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        })
    }

    #[test]
    fn distributed_weighted_matches_shared_oracle() {
        // The determinism contract: the distributed oracle over a
        // block-partitioned weight list picks exactly the element the
        // shared-list oracle picks, for the same stream state.
        let master = MasterRng::new(77);
        let weights: Vec<f64> = (0..37).map(|i| ((i * 13 % 7) + 1) as f64).collect();
        for p in [1usize, 2, 3, 5, 8] {
            let mut shared_stream = master.stream(Domain::User, 0);
            let expected: Vec<usize> = (0..50)
                .map(|_| select_wtd_rand(&mut shared_stream, &weights))
                .collect();
            let results = spmd(p, |ep| {
                let (lo, hi) = block_range(weights.len(), p, ep.rank());
                let mut stream = master.stream(Domain::User, 0);
                (0..50)
                    .map(|_| select_wtd_rand_dist(ep, &mut stream, &weights[lo..hi]).unwrap())
                    .collect::<Vec<usize>>()
            });
            for (rank, picks) in results.iter().enumerate() {
                assert_eq!(picks, &expected, "p={p} rank={rank}");
            }
        }
    }

    #[test]
    fn distributed_log_weighted_matches_shared_oracle() {
        let master = MasterRng::new(5);
        let logw: Vec<f64> = (0..19).map(|i| (i as f64) * 0.17 - 2.0).collect();
        for p in [2usize, 4, 7] {
            let mut shared = master.stream(Domain::User, 1);
            let mut exps = Vec::new();
            let expected: Vec<usize> = (0..30)
                .map(|_| select_wtd_log(&mut shared, &logw, &mut exps))
                .collect();
            let results = spmd(p, |ep| {
                let (lo, hi) = block_range(logw.len(), p, ep.rank());
                let mut stream = master.stream(Domain::User, 1);
                (0..30)
                    .map(|_| select_wtd_log_dist(ep, &mut stream, &logw[lo..hi]).unwrap())
                    .collect::<Vec<usize>>()
            });
            for picks in &results {
                assert_eq!(picks, &expected, "p={p}");
            }
        }
    }

    #[test]
    fn distributed_uniform_is_rank_count_invariant() {
        let master = MasterRng::new(9);
        let n = 23;
        let mut reference_stream = master.stream(Domain::User, 2);
        let expected: Vec<usize> = (0..40)
            .map(|_| reference_stream.index_one_draw(n))
            .collect();
        for p in [1usize, 3, 6] {
            let results = spmd(p, |ep| {
                let (lo, hi) = block_range(n, p, ep.rank());
                let mut stream = master.stream(Domain::User, 2);
                (0..40)
                    .map(|_| select_unif_rand_dist(ep, &mut stream, hi - lo).unwrap())
                    .collect::<Vec<usize>>()
            });
            for picks in &results {
                assert_eq!(picks, &expected, "p={p}");
            }
        }
    }

    #[test]
    fn zero_weight_blocks_are_skipped() {
        // Ranks holding only zero weights never win.
        let master = MasterRng::new(3);
        let weights = [0.0, 0.0, 0.0, 5.0, 0.0, 0.0];
        let results = spmd(3, |ep| {
            let (lo, hi) = block_range(weights.len(), 3, ep.rank());
            let mut stream = master.stream(Domain::User, 3);
            (0..20)
                .map(|_| select_wtd_rand_dist(ep, &mut stream, &weights[lo..hi]).unwrap())
                .collect::<Vec<usize>>()
        });
        for picks in &results {
            assert!(picks.iter().all(|&i| i == 3), "{picks:?}");
        }
    }
}
