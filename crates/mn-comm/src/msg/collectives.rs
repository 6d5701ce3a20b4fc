//! Log-depth collective operations over the message fabric.
//!
//! These are the "standard parallel primitives such as bcast,
//! all-reduce, all-gather, and scan" that §3.2 builds its algorithms
//! from, implemented with the classic schedules whose costs the
//! paper's analysis assumes:
//!
//! * [`bcast`] — binomial tree, `⌈log₂ p⌉` rounds;
//! * [`reduce`] — mirror-image binomial tree;
//! * [`allreduce`] — reduce to rank 0 + broadcast (correct for any p,
//!   `2⌈log₂ p⌉` rounds — the textbook general-p schedule);
//! * [`allgatherv`] — gather at rank 0 (rank-ordered concatenation)
//!   + broadcast;
//! * [`barrier`] — a payload-free allreduce.
//!
//! All protocols are deterministic and lock-step: every rank must call
//! every collective in the same order with the same type parameters.
//!
//! Every collective returns `Result<_, CommError>`: a peer that dies
//! mid-protocol surfaces as an error on the ranks that were scheduled
//! to hear from (or talk to) it, and — because an erroring rank
//! unwinds and drops its own endpoint — the disconnection cascades
//! through the schedule until every surviving rank has aborted. No
//! rank is left blocked on a dead peer (with a receive timeout
//! configured, even a silently dropped message resolves to
//! [`CommError::Timeout`]).

use crate::engine::Wire;
use crate::fault::CommError;
use crate::msg::fabric::Fabric;
use std::mem::size_of;

/// Shallow wire size of one `Vec<T>` payload: `len * size_of::<T>()`.
/// This is the accounting convention of the communication matrix — a
/// deliberate, documented estimate (nested heap structure is not
/// traversed), applied consistently by the msg fabric and the sim
/// engine's synthesized traffic.
fn vec_wire<T>(v: &[T]) -> u64 {
    (std::mem::size_of_val(v)) as u64
}

/// Binomial-tree broadcast of `value` from `root` to all ranks.
pub fn bcast<F: Fabric, T: Wire>(
    ep: &F,
    root: usize,
    value: Option<T>,
) -> Result<T, CommError> {
    bcast_sized(ep, root, value, &|_| size_of::<T>() as u64)
}

/// [`bcast`] with a caller-supplied wire-size function, so payloads
/// with heap storage (`Vec<T>`) report honest byte counts to the
/// communication matrix.
fn bcast_sized<F: Fabric, T: Wire>(
    ep: &F,
    root: usize,
    value: Option<T>,
    wire: &dyn Fn(&T) -> u64,
) -> Result<T, CommError> {
    let p = ep.nranks();
    let rank = ep.rank();
    assert!(root < p);
    // Virtual ranks place the root at 0.
    let vrank = (rank + p - root) % p;
    let mut data: Option<T> = if rank == root {
        Some(value.expect("root must supply the broadcast value"))
    } else {
        None
    };
    // MPICH-style binomial schedule: receive in the round given by the
    // lowest set bit of the virtual rank, then forward to the virtual
    // ranks obtained by setting each lower bit.
    let mut mask = 1usize;
    while mask < p {
        if vrank & mask != 0 {
            let src = (vrank - mask + root) % p;
            data = Some(ep.recv_from::<T>(src)?);
            break;
        }
        mask <<= 1;
    }
    mask >>= 1;
    while mask > 0 {
        if vrank + mask < p {
            let dst = (vrank + mask + root) % p;
            let payload = data.clone().expect("data present by schedule");
            let bytes = wire(&payload);
            ep.send_to_sized(dst, payload, bytes)?;
        }
        mask >>= 1;
    }
    Ok(data.expect("broadcast did not reach this rank"))
}

/// Binomial-tree reduction of per-rank `value`s to `root` with the
/// associative combiner `op`. Non-root ranks return `Ok(None)`.
pub fn reduce<F: Fabric, T: Wire>(
    ep: &F,
    root: usize,
    value: T,
    op: impl Fn(T, T) -> T,
) -> Result<Option<T>, CommError> {
    let p = ep.nranks();
    let rank = ep.rank();
    let vrank = (rank + p - root) % p;
    let mut acc = value;
    let mut mask = 1usize;
    while mask < p {
        if vrank & mask != 0 {
            // Send our partial to the partner and retire.
            let dst_v = vrank - mask;
            let dst = (dst_v + root) % p;
            ep.send_to(dst, acc)?;
            return Ok(None);
        }
        // We may receive from vrank + mask if it exists.
        let src_v = vrank + mask;
        if src_v < p {
            let src = (src_v + root) % p;
            let other = ep.recv_from::<T>(src)?;
            acc = op(acc, other);
        }
        mask <<= 1;
    }
    Ok(Some(acc))
}

/// All-reduce: reduce to rank 0, broadcast the result.
pub fn allreduce<F: Fabric, T: Wire>(
    ep: &F,
    value: T,
    op: impl Fn(T, T) -> T,
) -> Result<T, CommError> {
    let reduced = reduce(ep, 0, value, op)?;
    bcast(ep, 0, reduced)
}

/// Variable-length all-gather: every rank contributes a `Vec<T>`; all
/// ranks receive the rank-ordered concatenation (the semantics the
/// split-selection phase of Alg. 5 needs).
pub fn allgatherv<F: Fabric, T: Wire>(
    ep: &F,
    local: Vec<T>,
) -> Result<Vec<T>, CommError> {
    let p = ep.nranks();
    let rank = ep.rank();
    if p == 1 {
        return Ok(local);
    }
    if rank == 0 {
        let mut all = local;
        for src in 1..p {
            let part = ep.recv_from::<Vec<T>>(src)?;
            all.extend(part);
        }
        bcast_sized(ep, 0, Some(all), &|v| vec_wire(v))
    } else {
        let bytes = vec_wire(&local);
        ep.send_to_sized(0, local, bytes)?;
        bcast_sized::<F, Vec<T>>(ep, 0, None, &|v| vec_wire(v))
    }
}

/// Barrier: a unit all-reduce.
pub fn barrier<F: Fabric>(ep: &F) -> Result<(), CommError> {
    allreduce(ep, (), |(), ()| ())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use crate::msg::fabric::{fabric, fabric_with_faults, Endpoint};
    use std::time::Duration;

    /// Run `f` as SPMD over p ranks, collecting each rank's result.
    fn spmd<R: Send>(p: usize, f: impl Fn(&Endpoint) -> R + Sync) -> Vec<R> {
        let endpoints = fabric(p);
        spmd_over(endpoints, f)
    }

    /// Like `spmd`, but each thread *owns* its endpoint, so a rank
    /// that returns (or unwinds) drops it and peers observe the
    /// disconnection — the liveness property the fault tests rely on.
    fn spmd_over<R: Send>(endpoints: Vec<Endpoint>, f: impl Fn(&Endpoint) -> R + Sync) -> Vec<R> {
        std::thread::scope(|scope| {
            let handles: Vec<_> = endpoints
                .into_iter()
                .map(|ep| {
                    let f = &f;
                    scope.spawn(move || f(&ep))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        })
    }

    #[test]
    fn bcast_reaches_everyone_from_any_root() {
        for p in [1usize, 2, 3, 4, 5, 7, 8] {
            for root in [0, p - 1, p / 2] {
                let out = spmd(p, |ep| {
                    let value = (ep.rank() == root).then(|| format!("msg-{root}"));
                    bcast(ep, root, value).unwrap()
                });
                assert!(out.iter().all(|v| v == &format!("msg-{root}")), "p={p} root={root}");
            }
        }
    }

    #[test]
    fn reduce_sums_to_root() {
        for p in [1usize, 2, 3, 5, 8] {
            let out = spmd(p, |ep| {
                reduce(ep, 0, ep.rank() as u64 + 1, |a, b| a + b).unwrap()
            });
            let expected: u64 = (1..=p as u64).sum();
            assert_eq!(out[0], Some(expected), "p={p}");
            assert!(out[1..].iter().all(Option::is_none));
        }
    }

    #[test]
    fn allreduce_max_on_all_ranks() {
        for p in [1usize, 2, 3, 6, 8] {
            let out = spmd(p, |ep| {
                allreduce(ep, (ep.rank() * 7 % 5, ep.rank()), |a, b| a.max(b)).unwrap()
            });
            let expected = (0..p).map(|r| (r * 7 % 5, r)).max().unwrap();
            assert!(out.iter().all(|&v| v == expected), "p={p}");
        }
    }

    #[test]
    fn allgatherv_concatenates_in_rank_order() {
        for p in [1usize, 2, 3, 4, 7] {
            let out = spmd(p, |ep| {
                // Rank r contributes r copies of r.
                let local = vec![ep.rank(); ep.rank()];
                allgatherv(ep, local).unwrap()
            });
            let expected: Vec<usize> = (0..p).flat_map(|r| vec![r; r]).collect();
            assert!(out.iter().all(|v| v == &expected), "p={p}");
        }
    }

    #[test]
    fn barrier_completes() {
        for p in [1usize, 2, 5, 8] {
            spmd(p, |ep| {
                for _ in 0..10 {
                    barrier(ep).unwrap();
                }
            });
        }
    }

    #[test]
    fn collectives_compose() {
        // A mixed program exercising protocol lock-step across rounds.
        let out = spmd(5, |ep| {
            let sum: u32 = allreduce(ep, ep.rank() as u32, |a, b| a + b).unwrap();
            let all = allgatherv(ep, vec![sum + ep.rank() as u32]).unwrap();
            let max = allreduce(ep, all[ep.rank()], |a, b| a.max(b)).unwrap();
            barrier(ep).unwrap();
            (sum, max)
        });
        assert!(out.iter().all(|&(s, m)| s == 10 && m == 14));
    }

    #[test]
    fn fabric_traffic_matches_synthesized_edge_schedules() {
        // The sim engine synthesizes msg traffic from the edge
        // schedules in mn_obs::commatrix. This test pins the two
        // implementations together: real barrier and allgatherv
        // traffic over the fabric, summed across ranks, must equal the
        // synthesized matrices byte for byte.
        use mn_obs::commatrix::{CommMatrix, CommMatrixHandle};
        use mn_obs::flightrec::FlightRec;
        for p in [1usize, 2, 3, 4, 5, 7, 8, 9] {
            let endpoints = fabric(p);
            let handles: Vec<CommMatrixHandle> =
                (0..p).map(|_| CommMatrixHandle::new(p)).collect();
            for (ep, handle) in endpoints.iter().zip(&handles) {
                ep.attach_obs(FlightRec::new(p, ep.rank()), handle.clone());
            }
            spmd_over(endpoints, |ep| {
                barrier(ep).unwrap();
                let local = vec![ep.rank() as u64; ep.rank() + 2];
                allgatherv(ep, local).unwrap();
            });
            let merged = CommMatrix::merged(
                &handles.iter().map(|h| h.snapshot()).collect::<Vec<_>>(),
            )
            .unwrap();

            let synth = CommMatrixHandle::new(p);
            synth.record_allreduce(0); // barrier payload is ()
            let counts: Vec<usize> = (0..p).map(|r| r + 2).collect();
            synth.record_allgatherv(&counts, std::mem::size_of::<u64>() as u64);
            assert_eq!(merged, synth.snapshot(), "p={p}");
        }
    }

    #[test]
    fn peer_death_aborts_every_survivor_without_deadlock() {
        // Rank 1 dies at its very first fabric event; everyone else
        // keeps running allreduce rounds. Every surviving rank must
        // come back with a CommError (not hang), because each abort
        // drops an endpoint and cascades the disconnection.
        let plan = FaultPlan::new().kill(1, 1);
        for p in [2usize, 3, 4, 5] {
            let endpoints = fabric_with_faults(p, plan.clone(), Some(Duration::from_secs(5)));
            let out = spmd_over(endpoints, |ep| -> Result<(), CommError> {
                for _ in 0..4 {
                    allreduce(ep, ep.rank() as u64, |a, b| a + b)?;
                }
                Ok(())
            });
            for (rank, result) in out.iter().enumerate() {
                assert!(result.is_err(), "p={p} rank={rank} should have aborted");
            }
            assert!(
                out.iter().any(|r| matches!(r, Err(CommError::Injected { rank: 1, .. }))),
                "p={p}: the killed rank reports the injection: {out:?}"
            );
        }
    }

    #[test]
    fn late_peer_death_reaches_all_ranks() {
        // Kill rank p-1 a few events in, mid-protocol: survivors still
        // all abort within the timeout.
        for p in [3usize, 4] {
            let plan = FaultPlan::new().kill(p - 1, 5);
            let endpoints = fabric_with_faults(p, plan, Some(Duration::from_secs(5)));
            let out = spmd_over(endpoints, |ep| -> Result<u64, CommError> {
                let mut acc = ep.rank() as u64;
                for _ in 0..20 {
                    acc = allreduce(ep, acc, |a, b| a.wrapping_add(b))?;
                }
                Ok(acc)
            });
            assert!(
                out.iter().all(Result::is_err),
                "p={p}: every rank aborts: {out:?}"
            );
        }
    }
}
