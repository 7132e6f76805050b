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
//!
//! Two operation mixes run. In the first, one operation in five changes a
//! node's bandwidth, which forces a full solve. In the second, bandwidth
//! changes are rare, so most solves resume from the previous solve's
//! trace, and some capacities and caps are values whose differences
//! round.

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

/// Every active flow's rate (bit for bit) and the next completion agree,
/// and `may_finish_now()` is true whenever that completion is at the
/// fabric's `now`.
fn assert_same_reads(fab: &mut Fabric, eager: &EagerFabric, ids: &[FlowId], ctx: &str) {
    assert_eq!(fab.active_flows(), eager.flows.len(), "{ctx}");
    for f in &eager.flows {
        let rate = fab.flow_rate(ids[f.k]).expect("active flow");
        assert_eq!(rate.to_bits(), f.rate.to_bits(), "{ctx}: flow {}", f.k);
    }
    let expected = eager.next_completion().map(|(t, k)| (t, ids[k]));
    let next = fab.next_completion();
    assert_eq!(next, expected, "{ctx}");
    // The engine skips this read within an instant when it is false.
    if next.is_some_and(|(t, _)| t == fab.now()) {
        assert!(
            fab.may_finish_now(),
            "{ctx}: a flow finishes now unannounced"
        );
    }
}

/// Node capacities include 0 (partitioned) and INF; flow caps include 0
/// (stalled forever) and binding finite caps. Exact and sub-EPS near-ties
/// make the tie rule choose among several links.
const NODE_BW: [f64; 8] = [100.0, 100.0 + 4e-10, 250.0, 1.25e9, 3.0, 0.0, INF, 1e6];
const FLOW_CAP: [f64; 5] = [INF, 0.0, 40.0, 100.0, 7e5];

/// One fabric operation a churn run can draw.
#[derive(Clone, Copy)]
enum Op {
    Start,
    Complete,
    Cancel,
    CancelTouching,
    SetBandwidth,
}

/// A churn run: `cases` fabrics of `2..2 + node_spread` nodes, each driven
/// through `steps` operations drawn from `ops` in proportion to their
/// weights, with every rate and the next completion compared after about
/// one operation in `read_one_in`.
struct Churn {
    seed: u64,
    cases: usize,
    node_spread: u64,
    steps: usize,
    ops: &'static [(Op, u64)],
    read_one_in: u64,
    /// The node bandwidths and flow caps drawn from.
    node_bw: &'static [f64],
    flow_cap: &'static [f64],
}

/// The operation a draw in `0..total weight` picks.
fn pick(ops: &[(Op, u64)], mut draw: u64) -> Op {
    for &(op, weight) in ops {
        if draw < weight {
            return op;
        }
        draw -= weight;
    }
    unreachable!("draw beyond the total weight")
}

fn run_churn(churn: &Churn) {
    let total_weight: u64 = churn.ops.iter().map(|&(_, w)| w).sum();
    let (node_bw, flow_cap) = (churn.node_bw, churn.flow_cap);
    let mut x: u64 = churn.seed;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    for case in 0..churn.cases {
        let n_nodes = 2 + (next() % churn.node_spread) as usize;
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
                    node_bw[(next() % node_bw.len() as u64) as usize],
                    node_bw[(next() % node_bw.len() as u64) as usize],
                ),
            };
            fab.add_node(e, i);
            eager.caps.extend([e, i]);
        }
        let mut ids: Vec<FlowId> = Vec::new();
        let mut now = SimTime::ZERO;
        for step in 0..churn.steps {
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
            match pick(churn.ops, next() % total_weight) {
                Op::Start => {
                    let src = (next() % n_nodes as u64) as usize;
                    let dst = (src + 1 + (next() % (n_nodes as u64 - 1)) as usize) % n_nodes;
                    let bytes = match next() % 6 {
                        0 => 0,
                        _ => 1 + next() % 10_000_000,
                    };
                    let cap = match next() % 3 {
                        0 => flow_cap[(next() % flow_cap.len() as u64) as usize],
                        _ => INF,
                    };
                    let id = fab.start_flow(now, NodeId(src), NodeId(dst), bytes, cap);
                    assert_eq!(ids.len(), eager.started);
                    ids.push(id);
                    eager.start(now, src, dst, bytes, cap);
                }
                Op::Complete => {
                    // Complete the flow that is due now, if any.
                    if let Some((t, k)) = eager.next_completion() {
                        if t <= now {
                            let got = fab.complete_flow(now, ids[k]);
                            assert_eq!(got, eager.complete(now, k), "{ctx}");
                        }
                    }
                }
                Op::Cancel => {
                    // Cancel a random flow, possibly one already gone.
                    if !ids.is_empty() {
                        let k = (next() % ids.len() as u64) as usize;
                        let got = fab.cancel_flow(now, ids[k]);
                        assert_eq!(got, eager.cancel(now, k), "{ctx}");
                    }
                }
                Op::CancelTouching => {
                    let node = (next() % n_nodes as u64) as usize;
                    let got = fab.cancel_flows_touching(now, NodeId(node));
                    assert_eq!(got, eager.cancel_touching(now, node), "{ctx}");
                }
                Op::SetBandwidth => {
                    let node = (next() % n_nodes as u64) as usize;
                    let e = node_bw[(next() % node_bw.len() as u64) as usize];
                    let i = node_bw[(next() % node_bw.len() as u64) as usize];
                    fab.set_node_bandwidth(now, NodeId(node), e, i);
                    eager.set_bandwidth(now, node, e, i);
                    assert_eq!(fab.node_bandwidth(NodeId(node)), (e, i), "{ctx}");
                }
            }
            if next() % churn.read_one_in == 0 {
                assert_same_reads(&mut fab, &eager, &ids, &ctx);
            }
        }
        assert_same_reads(&mut fab, &eager, &ids, &format!("case {case} end"));
        let work = fab.solve_work();
        assert!(work.solves <= work.changes, "case {case}: {work:?}");
    }
}

#[test]
fn lazy_fabric_matches_eager_reference_bit_for_bit() {
    use Op::*;
    run_churn(&Churn {
        seed: 0x2545_F491_4F6C_DD1D,
        cases: 300,
        node_spread: 10,
        steps: 200,
        // One operation in five is a bandwidth change.
        ops: &[
            (Start, 4),
            (Complete, 2),
            (Cancel, 1),
            (CancelTouching, 1),
            (SetBandwidth, 2),
        ],
        read_one_in: 3,
        node_bw: &NODE_BW,
        flow_cap: &FLOW_CAP,
    });
}

#[test]
fn resumed_solves_match_eager_reference_bit_for_bit() {
    // A bandwidth change forces a full solve, so here it is one operation
    // in 64 and most solves resume from the previous one's trace. Reads
    // follow about every second operation, so most solves see only one
    // or two changes.
    use Op::*;
    run_churn(&Churn {
        seed: 0x9E37_79B9_7F4A_7C15,
        cases: 100,
        node_spread: 40,
        steps: 400,
        ops: &[
            (Start, 28),
            (Complete, 18),
            (Cancel, 9),
            (CancelTouching, 8),
            (SetBandwidth, 1),
        ],
        read_one_in: 2,
        // The palettes above, plus values whose differences round, so
        // that fixing the same flows in another order changes the bits.
        node_bw: &[
            100.0,
            100.0 + 4e-10,
            250.0,
            1.25e9,
            3.0,
            0.0,
            INF,
            1e6,
            0.7,
            0.3,
            1e3 / 3.0,
        ],
        flow_cap: &[INF, 0.0, 40.0, 100.0, 7e5, 0.1, 0.2, 0.3],
    });
}
