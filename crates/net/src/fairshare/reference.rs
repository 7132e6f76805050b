//! The full-scan water-filling solver, kept as the test oracle.

use super::{FlowSpec, EPS};

/// The full-scan water-filling `FairState::solve` replaced: every
/// iteration scans all of `link_capacity` and all flows. Kept as the
/// oracle the differential tests compare the fast solver against bit for
/// bit.
pub fn max_min_fair_reference(flows: &[FlowSpec], link_capacity: &[f64]) -> Vec<f64> {
    let n = flows.len();
    let mut rate = vec![0.0; n];
    if n == 0 {
        return rate;
    }

    let mut remaining = link_capacity.to_vec();
    let mut active = vec![true; n];
    let mut active_count = n;
    // Number of active flows on each link.
    let mut load = vec![0usize; link_capacity.len()];
    for f in flows {
        load[f.egress_link] += 1;
        load[f.ingress_link] += 1;
    }

    while active_count > 0 {
        // Fair share offered by the most constrained link.
        let mut bottleneck_share = f64::INFINITY;
        for (l, &cap) in remaining.iter().enumerate() {
            if load[l] > 0 {
                bottleneck_share = bottleneck_share.min(cap.max(0.0) / load[l] as f64);
            }
        }

        // Flows whose private cap binds below the link share are fixed at
        // their cap; this releases capacity, so redo the loop afterwards.
        let mut fixed_any_cap = false;
        for i in 0..n {
            if active[i]
                && flows[i].rate_cap.is_finite()
                && flows[i].rate_cap <= bottleneck_share + EPS
            {
                fix_flow(
                    i,
                    flows[i].rate_cap,
                    flows,
                    &mut rate,
                    &mut remaining,
                    &mut load,
                    &mut active,
                );
                active_count -= 1;
                fixed_any_cap = true;
            }
        }
        if fixed_any_cap {
            continue;
        }

        if !bottleneck_share.is_finite() {
            // No finite constraint remains: uncapped flows on unconstrained
            // links. Give them a huge-but-finite rate to keep downstream
            // arithmetic sane, and stop.
            for i in 0..n {
                if active[i] {
                    rate[i] = f64::MAX / 1e6;
                    active[i] = false;
                }
            }
            break;
        }

        // Fix every flow on the (first) bottleneck link, then recompute.
        let bottleneck_link = (0..remaining.len()).find(|&l| {
            load[l] > 0 && (remaining[l].max(0.0) / load[l] as f64) <= bottleneck_share + EPS
        });
        let Some(l) = bottleneck_link else {
            debug_assert!(false, "water-filling made no progress");
            break;
        };
        let mut fixed_any = false;
        for i in 0..n {
            if active[i] && (flows[i].egress_link == l || flows[i].ingress_link == l) {
                fix_flow(
                    i,
                    bottleneck_share,
                    flows,
                    &mut rate,
                    &mut remaining,
                    &mut load,
                    &mut active,
                );
                active_count -= 1;
                fixed_any = true;
            }
        }
        debug_assert!(fixed_any, "bottleneck link had no active flows");
        if !fixed_any {
            break;
        }
    }
    rate
}

fn fix_flow(
    i: usize,
    r: f64,
    flows: &[FlowSpec],
    rate: &mut [f64],
    remaining: &mut [f64],
    load: &mut [usize],
    active: &mut [bool],
) {
    let r = r.max(0.0);
    rate[i] = r;
    active[i] = false;
    let f = &flows[i];
    remaining[f.egress_link] = (remaining[f.egress_link] - r).max(0.0);
    remaining[f.ingress_link] = (remaining[f.ingress_link] - r).max(0.0);
    load[f.egress_link] -= 1;
    load[f.ingress_link] -= 1;
}
