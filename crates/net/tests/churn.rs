//! Differential test of the lazily settled [`Fabric`] against an eager
//! reference under random flow churn.
//!
//! The reference is the fabric as it was before rates were settled
//! lazily: after every mutation it re-solves the whole flow set with
//! [`max_min_fair_reference`], and it finds the next completion with a
//! full scan. Both are driven by the same deterministic pseudo-random
//! sequences of starts, completions, cancellations, node cancellations
//! and bandwidth changes, often several at one instant, and every rate
//! (bit for bit), next completion and flow record must agree.

use vine_net::fairshare::{max_min_fair_reference, FlowSpec};
use vine_net::{Fabric, FlowId, FlowRecord, NodeId};
use vine_simcore::{SimDur, SimTime};

const INF: f64 = f64::INFINITY;

struct RefFlow {
    /// Index of the flow among all started flows (ids ascend with it).
    k: usize,
    src: usize,
    dst: usize,
    size: f64,
    remaining: f64,
    rate: f64,
    rate_cap: f64,
    started: SimTime,
}

impl RefFlow {
    fn record(&self, bytes_moved: u64) -> FlowRecord {
        FlowRecord {
            src: NodeId(self.src),
            dst: NodeId(self.dst),
            bytes_moved,
            size: self.size as u64,
            started: self.started,
        }
    }

    fn delivered(&self) -> u64 {
        (self.size - self.remaining).max(0.0) as u64
    }
}

/// Eager fabric: solve after every change, scan for every completion.
struct EagerFabric {
    caps: Vec<f64>,
    /// Active flows, ascending by `k`.
    flows: Vec<RefFlow>,
    started: usize,
    now: SimTime,
}

impl EagerFabric {
    fn advance(&mut self, now: SimTime) {
        assert!(now >= self.now);
        let dt = now.saturating_since(self.now).as_secs_f64();
        if dt > 0.0 {
            for f in &mut self.flows {
                f.remaining = (f.remaining - f.rate * dt).max(0.0);
            }
        }
        self.now = now;
    }

    fn solve(&mut self) {
        let specs: Vec<FlowSpec> = self
            .flows
            .iter()
            .map(|f| FlowSpec {
                egress_link: 2 * f.src,
                ingress_link: 2 * f.dst + 1,
                rate_cap: f.rate_cap,
            })
            .collect();
        let rates = max_min_fair_reference(&specs, &self.caps);
        for (f, r) in self.flows.iter_mut().zip(rates) {
            f.rate = r;
        }
    }

    fn next_completion(&self) -> Option<(SimTime, usize)> {
        let mut best: Option<(SimTime, usize)> = None;
        for f in &self.flows {
            if f.rate <= 0.0 {
                continue;
            }
            let finish =
                self.now + SimDur::from_micros((f.remaining / f.rate * 1e6).ceil().max(0.0) as u64);
            if best.is_none_or(|b| (finish, f.k) < b) {
                best = Some((finish, f.k));
            }
        }
        best
    }

    fn start(&mut self, now: SimTime, src: usize, dst: usize, bytes: u64, rate_cap: f64) {
        self.advance(now);
        self.flows.push(RefFlow {
            k: self.started,
            src,
            dst,
            size: bytes as f64,
            remaining: bytes as f64,
            rate: 0.0,
            rate_cap,
            started: now,
        });
        self.started += 1;
        self.solve();
    }

    fn take(&mut self, k: usize) -> Option<RefFlow> {
        let i = self.flows.iter().position(|f| f.k == k)?;
        Some(self.flows.remove(i))
    }

    fn complete(&mut self, now: SimTime, k: usize) -> FlowRecord {
        self.advance(now);
        let f = self.take(k).expect("known flow");
        self.solve();
        f.record(f.size as u64)
    }

    fn cancel(&mut self, now: SimTime, k: usize) -> Option<FlowRecord> {
        self.advance(now);
        let f = self.take(k)?;
        self.solve();
        Some(f.record(f.delivered()))
    }

    fn cancel_touching(&mut self, now: SimTime, node: usize) -> Vec<FlowRecord> {
        self.advance(now);
        let mut records = Vec::new();
        self.flows.retain(|f| {
            if f.src != node && f.dst != node {
                return true;
            }
            records.push(f.record(f.delivered()));
            false
        });
        self.solve();
        records
    }

    fn set_bandwidth(&mut self, now: SimTime, node: usize, egress: f64, ingress: f64) {
        self.advance(now);
        self.caps[2 * node] = egress.max(0.0);
        self.caps[2 * node + 1] = ingress.max(0.0);
        self.solve();
    }
}

/// Every active flow's rate (bit for bit) and the next completion agree.
fn assert_same_reads(fab: &mut Fabric, eager: &EagerFabric, ids: &[FlowId], ctx: &str) {
    assert_eq!(fab.active_flows(), eager.flows.len(), "{ctx}");
    for f in &eager.flows {
        let rate = fab.flow_rate(ids[f.k]).expect("active flow");
        assert_eq!(rate.to_bits(), f.rate.to_bits(), "{ctx}: flow {}", f.k);
    }
    let expected = eager.next_completion().map(|(t, k)| (t, ids[k]));
    assert_eq!(fab.next_completion(), expected, "{ctx}");
}

#[test]
fn lazy_fabric_matches_eager_reference_bit_for_bit() {
    // Node capacities include 0 (partitioned) and INF; flow caps include
    // 0 (stalled forever) and binding finite caps. Exact and sub-EPS
    // near-ties make the tie rule choose among several links.
    const NODE_BW: [f64; 8] = [100.0, 100.0 + 4e-10, 250.0, 1.25e9, 3.0, 0.0, INF, 1e6];
    const FLOW_CAP: [f64; 5] = [INF, 0.0, 40.0, 100.0, 7e5];
    let mut x: u64 = 0x2545_F491_4F6C_DD1D;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    for case in 0..300 {
        let n_nodes = 2 + (next() % 10) as usize;
        let mut fab = Fabric::new();
        let mut eager = EagerFabric {
            caps: Vec::new(),
            flows: Vec::new(),
            started: 0,
            now: SimTime::ZERO,
        };
        for _ in 0..n_nodes {
            let (e, i) = match next() % 3 {
                0 => (1e3, 1e3),
                _ => (
                    NODE_BW[(next() % NODE_BW.len() as u64) as usize],
                    NODE_BW[(next() % NODE_BW.len() as u64) as usize],
                ),
            };
            fab.add_node(e, i);
            eager.caps.extend([e, i]);
        }
        let mut ids: Vec<FlowId> = Vec::new();
        let mut now = SimTime::ZERO;
        for step in 0..200 {
            let ctx = format!("case {case} step {step}");
            // Most steps stay at the current instant, so changes come in
            // bursts that nobody reads in between.
            match next() % 8 {
                0 => now += SimDur::from_micros(next() % 5_000_000),
                1 => {
                    // Jump to the next completion, as the engine does.
                    if let Some((t, _)) = eager.next_completion() {
                        now = now.max(t);
                    }
                }
                _ => {}
            }
            match next() % 10 {
                0..=3 => {
                    let src = (next() % n_nodes as u64) as usize;
                    let dst = (src + 1 + (next() % (n_nodes as u64 - 1)) as usize) % n_nodes;
                    let bytes = match next() % 6 {
                        0 => 0,
                        _ => 1 + next() % 10_000_000,
                    };
                    let cap = match next() % 3 {
                        0 => FLOW_CAP[(next() % FLOW_CAP.len() as u64) as usize],
                        _ => INF,
                    };
                    let id = fab.start_flow(now, NodeId(src), NodeId(dst), bytes, cap);
                    assert_eq!(ids.len(), eager.started);
                    ids.push(id);
                    eager.start(now, src, dst, bytes, cap);
                }
                4..=5 => {
                    // Complete the flow that is due now, if any.
                    if let Some((t, k)) = eager.next_completion() {
                        if t <= now {
                            let got = fab.complete_flow(now, ids[k]);
                            assert_eq!(got, eager.complete(now, k), "{ctx}");
                        }
                    }
                }
                6 => {
                    // Cancel a random flow, possibly one already gone.
                    if !ids.is_empty() {
                        let k = (next() % ids.len() as u64) as usize;
                        let got = fab.cancel_flow(now, ids[k]);
                        assert_eq!(got, eager.cancel(now, k), "{ctx}");
                    }
                }
                7 => {
                    let node = (next() % n_nodes as u64) as usize;
                    let got = fab.cancel_flows_touching(now, NodeId(node));
                    assert_eq!(got, eager.cancel_touching(now, node), "{ctx}");
                }
                _ => {
                    let node = (next() % n_nodes as u64) as usize;
                    let e = NODE_BW[(next() % NODE_BW.len() as u64) as usize];
                    let i = NODE_BW[(next() % NODE_BW.len() as u64) as usize];
                    fab.set_node_bandwidth(now, NodeId(node), e, i);
                    eager.set_bandwidth(now, node, e, i);
                    assert_eq!(fab.node_bandwidth(NodeId(node)), (e, i), "{ctx}");
                }
            }
            if next() % 3 == 0 {
                assert_same_reads(&mut fab, &eager, &ids, &ctx);
            }
        }
        assert_same_reads(&mut fab, &eager, &ids, &format!("case {case} end"));
        let work = fab.solve_work();
        assert!(work.solves <= work.changes, "case {case}: {work:?}");
    }
}
