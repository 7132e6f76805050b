//! Property-based tests for the fabric and the max–min fair allocator.

use proptest::prelude::*;
use vine_net::fairshare::{max_min_fair, max_min_fair_reference, FlowSpec};
use vine_net::Fabric;
use vine_simcore::SimTime;

fn flows_and_caps() -> impl Strategy<Value = (Vec<FlowSpec>, Vec<f64>)> {
    (2usize..10).prop_flat_map(|n_links| {
        let caps = proptest::collection::vec(1.0f64..1000.0, n_links..=n_links);
        let flows = proptest::collection::vec(
            (
                0..n_links,
                0..n_links,
                prop_oneof![Just(f64::INFINITY), 0.5f64..500.0],
            ),
            1..30,
        )
        .prop_map(|v| {
            v.into_iter()
                .map(|(e, i, cap)| FlowSpec {
                    egress_link: e,
                    ingress_link: i,
                    rate_cap: cap,
                })
                .collect::<Vec<_>>()
        });
        (flows, caps)
    })
}

/// The three max–min properties: feasible, cap-respecting and
/// work-conserving.
fn check_max_min(flows: &[FlowSpec], caps: &[f64], rates: &[f64]) {
    assert_eq!(rates.len(), flows.len());

    const TOL: f64 = 1e-6;

    // Feasibility: per-link usage within capacity. A flow whose egress
    // and ingress are the same link consumes it twice.
    for (l, &cap) in caps.iter().enumerate() {
        let used: f64 = flows
            .iter()
            .zip(rates)
            .map(|(f, r)| {
                let mut u = 0.0;
                if f.egress_link == l {
                    u += r;
                }
                if f.ingress_link == l {
                    u += r;
                }
                u
            })
            .sum();
        assert!(
            used <= cap * (1.0 + TOL) + TOL,
            "link {} over: {} > {}",
            l,
            used,
            cap
        );
    }

    // Cap respect and non-negativity.
    for (f, &r) in flows.iter().zip(rates) {
        assert!(r >= 0.0);
        assert!(r <= f.rate_cap * (1.0 + TOL) + TOL);
    }

    // Work conservation: every flow is limited by a saturated link or
    // its own cap.
    for (f, &r) in flows.iter().zip(rates) {
        let cap_binds = f.rate_cap.is_finite() && (r - f.rate_cap).abs() <= TOL * f.rate_cap + TOL;
        let link_sat = [f.egress_link, f.ingress_link].iter().any(|&l| {
            let used: f64 = flows
                .iter()
                .zip(rates)
                .map(|(g, r2)| {
                    let mut u = 0.0;
                    if g.egress_link == l {
                        u += r2;
                    }
                    if g.ingress_link == l {
                        u += r2;
                    }
                    u
                })
                .sum();
            used >= caps[l] * (1.0 - 1e-3) - TOL
        });
        assert!(
            cap_binds || link_sat,
            "flow {:?} at {} not bottlenecked",
            f,
            r
        );
    }
}

proptest! {
    /// Both allocators always produce a feasible, cap-respecting,
    /// work-conserving (max-min) allocation, and agree bit for bit.
    #[test]
    fn max_min_fair_properties((flows, caps) in flows_and_caps()) {
        let rates = max_min_fair(&flows, &caps);
        let reference = max_min_fair_reference(&flows, &caps);
        check_max_min(&flows, &caps, &rates);
        check_max_min(&flows, &caps, &reference);
        let bits = |r: &[f64]| r.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&rates), bits(&reference));
    }

    /// Conservation through the fabric: however flows are interleaved, the
    /// bytes reported moved equal the bytes requested when all flows are
    /// run to completion.
    #[test]
    fn fabric_conserves_bytes(
        transfers in proptest::collection::vec((0usize..6, 0usize..6, 1u64..1_000_000), 1..20),
    ) {
        let mut fab = Fabric::new();
        let nodes: Vec<_> = (0..6).map(|_| fab.add_symmetric_node(1e6)).collect();
        let mut expected = 0u64;
        for &(s, d, b) in &transfers {
            if s == d {
                continue;
            }
            fab.start_flow(SimTime::ZERO, nodes[s], nodes[d], b, f64::INFINITY);
            expected += b;
        }
        let mut moved = 0u64;
        let mut guard = 0;
        while let Some((t, id)) = fab.next_completion() {
            moved += fab.complete_flow(t, id).bytes_moved;
            guard += 1;
            prop_assert!(guard <= transfers.len(), "more completions than flows");
        }
        prop_assert_eq!(moved, expected);
        prop_assert_eq!(fab.active_flows(), 0);
    }

    /// Completions are monotone in time regardless of flow mix.
    #[test]
    fn fabric_completions_monotone(
        transfers in proptest::collection::vec((0usize..5, 0usize..5, 1u64..100_000), 1..15),
    ) {
        let mut fab = Fabric::new();
        let nodes: Vec<_> = (0..5).map(|_| fab.add_symmetric_node(1e5)).collect();
        for &(s, d, b) in &transfers {
            if s != d {
                fab.start_flow(SimTime::ZERO, nodes[s], nodes[d], b, f64::INFINITY);
            }
        }
        let mut prev = SimTime::ZERO;
        while let Some((t, id)) = fab.next_completion() {
            prop_assert!(t >= prev, "completion time went backwards");
            prev = t;
            fab.complete_flow(t, id);
        }
    }
}
