//! Property-based tests of the message-passing collectives: for
//! arbitrary rank counts, roots, and payloads, the log-depth protocols
//! must agree with their sequential definitions.

use mn_comm::msg::{allgatherv, allreduce, bcast, fabric, reduce, Endpoint};
use proptest::prelude::*;

fn spmd<R: Send>(p: usize, f: impl Fn(&Endpoint) -> R + Sync) -> Vec<R> {
    let endpoints = fabric(p);
    std::thread::scope(|scope| {
        let handles: Vec<_> = endpoints.iter().map(|ep| scope.spawn(|| f(ep))).collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn prop_bcast_delivers_everywhere(p in 1usize..10, root_pick in 0usize..100, payload in any::<u64>()) {
        let root = root_pick % p;
        let out = spmd(p, |ep| {
            let value = (ep.rank() == root).then_some(payload);
            bcast(ep, root, value).unwrap()
        });
        prop_assert!(out.iter().all(|&v| v == payload));
    }

    #[test]
    fn prop_reduce_matches_sequential_fold(
        p in 1usize..10,
        values in prop::collection::vec(-1000i64..1000, 10),
    ) {
        let out = spmd(p, |ep| reduce(ep, 0, values[ep.rank() % values.len()], |a, b| a + b).unwrap());
        let expected: i64 = (0..p).map(|r| values[r % values.len()]).sum();
        prop_assert_eq!(out[0], Some(expected));
    }

    #[test]
    fn prop_allreduce_is_rank_invariant(
        p in 1usize..10,
        values in prop::collection::vec(0u32..1_000_000, 10),
    ) {
        let out = spmd(p, |ep| {
            allreduce(ep, values[ep.rank() % values.len()], |a, b| a.max(b)).unwrap()
        });
        let expected = (0..p).map(|r| values[r % values.len()]).max().unwrap();
        prop_assert!(out.iter().all(|&v| v == expected));
    }

    #[test]
    fn prop_allgatherv_preserves_order_and_content(
        p in 1usize..8,
        lens in prop::collection::vec(0usize..5, 8),
    ) {
        let out = spmd(p, |ep| {
            let len = lens[ep.rank()];
            let local: Vec<(usize, usize)> = (0..len).map(|i| (ep.rank(), i)).collect();
            allgatherv(ep, local).unwrap()
        });
        let expected: Vec<(usize, usize)> = (0..p)
            .flat_map(|r| (0..lens[r]).map(move |i| (r, i)))
            .collect();
        for v in &out {
            prop_assert_eq!(v, &expected);
        }
    }
}
