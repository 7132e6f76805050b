//! Engine-driven flow-level network simulation.
//!
//! [`Fabric`] tracks a set of active flows and their max–min fair rates.
//! The owning simulation engine drives it with four calls:
//!
//! 1. [`Fabric::start_flow`] when a transfer begins;
//! 2. [`Fabric::next_completion`] to learn when the earliest active flow
//!    will finish at current rates;
//! 3. [`Fabric::complete_flow`] at that instant;
//! 4. [`Fabric::cancel_flow`] when an endpoint dies mid-transfer
//!    (worker preemption).
//!
//! Every mutation first advances all in-flight flows to the current
//! instant, so progress made at old rates is preserved when the allocation
//! changes. The engine keeps at most one "flow completion" event and
//! reads `next_completion()` for it once per simulated instant, after the
//! instant's changes; [`Fabric::may_finish_now`] tells it, without a
//! solve, when that read can wait for the instant's remaining events.
//!
//! Rates are settled lazily. A mutation updates the solver's persistent
//! [`FairState`] and marks the rates stale; the solve runs when a rate or
//! the next completion is read, or before time moves on. The solve is a
//! pure function of the flow set and the capacities, so skipping the
//! solves nobody read changes no rate: the results are bit-identical to
//! solving after every mutation. Each solve resumes from the previous
//! one's trace, re-running only the water-filling steps the changes since
//! can reach (see [`crate::fairshare`]); a bandwidth change re-runs all.

use vine_simcore::{SimDur, SimTime};

use crate::fairshare::{FairState, SolveWork};

/// Identifies a node (endpoint) attached to the fabric.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct NodeId(pub usize);

/// Identifies an active flow.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct FlowId(u64);

/// Completed/cancelled flow summary, for transfer accounting (Fig 7).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FlowRecord {
    /// Sending node.
    pub src: NodeId,
    /// Receiving node.
    pub dst: NodeId,
    /// Bytes actually delivered (equals size unless cancelled).
    pub bytes_moved: u64,
    /// Total size requested.
    pub size: u64,
    /// When the flow started.
    pub started: SimTime,
}

#[derive(Clone, Debug)]
struct Flow {
    src: NodeId,
    dst: NodeId,
    size: f64,
    remaining: f64,
    rate: f64,
    started: SimTime,
    /// The flow's slot in the solver state.
    slot: usize,
}

impl Flow {
    fn record(&self, bytes_moved: u64) -> FlowRecord {
        FlowRecord {
            src: self.src,
            dst: self.dst,
            bytes_moved,
            size: self.size as u64,
            started: self.started,
        }
    }

    fn delivered(&self) -> u64 {
        (self.size - self.remaining).max(0.0) as u64
    }
}

/// A star-topology fabric with per-node egress/ingress access links.
pub struct Fabric {
    /// Access links and active flows as the solver sees them: node i's
    /// egress link is 2i, its ingress link 2i + 1.
    fair: FairState,
    /// Active flows in ascending-id order. Ids are handed out
    /// monotonically, so inserts are appends and the order — which fixes
    /// float-summation and tie-break behaviour — matches the ordered map
    /// this replaced.
    flows: Vec<(FlowId, Flow)>,
    next_flow_id: u64,
    /// Instant to which all flow progress has been advanced.
    now: SimTime,
    /// Flow-set and capacity changes (see [`SolveWork::changes`]).
    changes: u64,
    /// The flows' `rate` fields predate the last change.
    stale: bool,
    /// Earliest `(finish, id)` at the current rates and `now`, once
    /// computed; cleared by every change and time advance.
    next: Option<Option<(SimTime, FlowId)>>,
    /// Active flows with less than one byte left (see
    /// [`Fabric::may_finish_now`]).
    nearly_done: usize,
}

impl Fabric {
    /// An empty fabric.
    pub fn new() -> Self {
        Fabric {
            fair: FairState::default(),
            flows: Vec::new(),
            next_flow_id: 0,
            now: SimTime::ZERO,
            changes: 0,
            stale: false,
            next: None,
            nearly_done: 0,
        }
    }

    /// Index of `id` in the sorted flow list.
    fn flow_index(&self, id: FlowId) -> Result<usize, usize> {
        self.flows.binary_search_by_key(&id, |e| e.0)
    }

    /// Attach a node with the given egress/ingress link capacities
    /// (bytes/second; `f64::INFINITY` allowed).
    pub fn add_node(&mut self, egress_bw: f64, ingress_bw: f64) -> NodeId {
        self.fair.add_link(egress_bw);
        NodeId(self.fair.add_link(ingress_bw) / 2)
    }

    /// Attach a node with a symmetric access link.
    pub fn add_symmetric_node(&mut self, bw: f64) -> NodeId {
        self.add_node(bw, bw)
    }

    /// Number of attached nodes.
    pub fn node_count(&self) -> usize {
        self.fair.link_count() / 2
    }

    /// Number of active flows.
    pub fn active_flows(&self) -> usize {
        self.flows.len()
    }

    /// The instant to which flow progress has been advanced: the latest
    /// `now` passed to a mutation.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Whether some active flow can finish at [`Fabric::now`]: true while
    /// any has less than one byte left. Exact in the direction callers
    /// rely on: when it is false, [`Fabric::next_completion`] is later
    /// than `now`, since a flow with at least one byte left at a finite
    /// rate drains in `remaining / rate * 1e6 > 0` microseconds, which
    /// rounds up to at least one. O(1), and it never solves.
    pub fn may_finish_now(&self) -> bool {
        debug_assert_eq!(
            self.nearly_done,
            self.flows.iter().filter(|(_, f)| nearly_done(f)).count()
        );
        self.nearly_done > 0
    }

    /// Changes made and work the max–min solver has done over this
    /// fabric's lifetime. Deterministic counts for tests and diagnostics;
    /// never part of a run's statistics or digest.
    pub fn solve_work(&self) -> SolveWork {
        SolveWork {
            changes: self.changes,
            ..self.fair.work()
        }
    }

    /// The current rate of an active flow, bytes/second.
    pub fn flow_rate(&mut self, id: FlowId) -> Option<f64> {
        self.settle();
        self.flow_index(id).ok().map(|i| self.flows[i].1.rate)
    }

    /// Begin moving `bytes` from `src` to `dst` at `now`, with an optional
    /// per-flow rate cap (e.g. a shared-FS per-stream limit).
    ///
    /// # Panics
    /// If `src == dst` (local data never crosses the fabric) or a node id
    /// is unknown.
    pub fn start_flow(
        &mut self,
        now: SimTime,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
        rate_cap: f64,
    ) -> FlowId {
        assert!(src != dst, "intra-node transfers do not use the fabric");
        assert!(src.0 < self.node_count() && dst.0 < self.node_count());
        self.advance(now);
        let id = FlowId(self.next_flow_id);
        self.next_flow_id += 1;
        debug_assert!(self.flows.last().is_none_or(|&(last, _)| last < id));
        let slot = self.fair.add_flow(id.0, src.0 * 2, dst.0 * 2 + 1, rate_cap);
        let flow = Flow {
            src,
            dst,
            size: bytes as f64,
            remaining: bytes as f64,
            rate: 0.0,
            started: now,
            slot,
        };
        self.nearly_done += nearly_done(&flow) as usize;
        self.flows.push((id, flow));
        self.changed();
        id
    }

    /// Projected `(time, flow)` of the earliest completion at current
    /// rates, or `None` if no flows are active. Stalled flows (rate 0)
    /// never complete and are skipped. O(1) when nothing changed since the
    /// last call.
    pub fn next_completion(&mut self) -> Option<(SimTime, FlowId)> {
        self.settle();
        let (flows, now) = (&self.flows, self.now);
        *self.next.get_or_insert_with(|| {
            let mut earliest = Earliest::default();
            for (id, f) in flows {
                earliest.visit(now, *id, f);
            }
            earliest.best
        })
    }

    /// Complete `id` at `now` (which must be at or after its projected
    /// completion). Returns the flow's record.
    ///
    /// # Panics
    /// If the flow is unknown.
    pub fn complete_flow(&mut self, now: SimTime, id: FlowId) -> FlowRecord {
        self.advance(now);
        if cfg!(debug_assertions) {
            // The drain check below reads the flow's rate.
            self.settle();
        }
        let i = self.flow_index(id).expect("unknown flow");
        let f = self.remove_at(i);
        debug_assert!(
            // Tolerance: one microsecond of drain at the final rate, plus
            // relative float error.
            f.remaining <= f.size * 1e-9 + f.rate * 2e-6 + 1.0,
            "flow completed with {} bytes remaining",
            f.remaining
        );
        self.changed();
        f.record(f.size as u64)
    }

    /// Abort `id` at `now` (endpoint died). Returns a record with the bytes
    /// actually delivered so far.
    pub fn cancel_flow(&mut self, now: SimTime, id: FlowId) -> Option<FlowRecord> {
        self.advance(now);
        let i = self.flow_index(id).ok()?;
        let f = self.remove_at(i);
        self.changed();
        Some(f.record(f.delivered()))
    }

    /// Cancel every flow touching `node` (worker preempted). Returns their
    /// records.
    pub fn cancel_flows_touching(&mut self, now: SimTime, node: NodeId) -> Vec<FlowRecord> {
        self.advance(now);
        // The flow list is id-sorted and `retain` visits in order, so the
        // record order is deterministic without an explicit sort.
        let mut records = Vec::new();
        let (fair, nearly) = (&mut self.fair, &mut self.nearly_done);
        self.flows.retain(|(_, f)| {
            if f.src != node && f.dst != node {
                return true;
            }
            records.push(f.record(f.delivered()));
            fair.remove_flow(f.slot);
            *nearly -= nearly_done(f) as usize;
            false
        });
        if !records.is_empty() {
            self.changed();
        }
        records
    }

    /// Replace a node's access-link capacities mid-run (chaos slowdown,
    /// degradation, or partition when both are zero). In-flight flows
    /// keep the bytes already delivered at the old allocation and are
    /// re-shared under the new one; a flow squeezed to rate 0 stalls —
    /// [`Fabric::next_completion`] ignores it until capacity returns —
    /// rather than being lost. The caller must reschedule its completion
    /// event afterwards.
    pub fn set_node_bandwidth(
        &mut self,
        now: SimTime,
        node: NodeId,
        egress_bw: f64,
        ingress_bw: f64,
    ) {
        self.advance(now);
        self.fair.set_capacity(node.0 * 2, egress_bw.max(0.0));
        self.fair.set_capacity(node.0 * 2 + 1, ingress_bw.max(0.0));
        self.changed();
    }

    /// The node's current (egress, ingress) access-link capacities.
    pub fn node_bandwidth(&self, node: NodeId) -> (f64, f64) {
        (
            self.fair.capacity(node.0 * 2),
            self.fair.capacity(node.0 * 2 + 1),
        )
    }

    /// Remove the flow at index `i` of the flow list, from the solver too.
    fn remove_at(&mut self, i: usize) -> Flow {
        let (_, f) = self.flows.remove(i);
        self.fair.remove_flow(f.slot);
        self.nearly_done -= nearly_done(&f) as usize;
        f
    }

    /// The flow set or the capacities changed: the rates are stale.
    fn changed(&mut self) {
        self.changes += 1;
        self.stale = true;
        self.next = None;
    }

    /// Advance in-flight progress to `now` at current rates.
    fn advance(&mut self, now: SimTime) {
        debug_assert!(now >= self.now, "fabric time moved backwards");
        let dt = now.saturating_since(self.now).as_secs_f64();
        if dt > 0.0 {
            self.settle();
            let mut nearly = 0;
            for (_, f) in &mut self.flows {
                f.remaining = (f.remaining - f.rate * dt).max(0.0);
                nearly += nearly_done(f) as usize;
            }
            self.nearly_done = nearly;
            self.next = None;
        }
        self.now = now;
    }

    /// Bring stale rates up to date: solve, copy each flow's rate, and
    /// cache the earliest completion found on the way.
    fn settle(&mut self) {
        if !self.stale {
            return;
        }
        self.stale = false;
        if !self.flows.is_empty() {
            self.fair.solve();
        }
        let mut earliest = Earliest::default();
        for (id, f) in &mut self.flows {
            f.rate = self.fair.rate(f.slot);
            earliest.visit(self.now, *id, f);
        }
        self.next = Some(earliest.best);
    }
}

/// The flow has less than one byte left (see [`Fabric::may_finish_now`]).
fn nearly_done(f: &Flow) -> bool {
    f.remaining < 1.0
}

/// The earliest projected `(finish, id)` among the flows visited, which
/// must come in ascending id order. Ties go to the lower id; stalled
/// flows (rate 0) never finish.
struct Earliest {
    best: Option<(SimTime, FlowId)>,
    /// The best flow's drain time in microseconds, rounded up.
    bound: f64,
}

impl Default for Earliest {
    fn default() -> Self {
        Earliest {
            best: None,
            bound: f64::INFINITY,
        }
    }
}

impl Earliest {
    fn visit(&mut self, now: SimTime, id: FlowId, f: &Flow) {
        if f.rate <= 0.0 {
            return;
        }
        let us = f.remaining / f.rate * 1e6;
        // Rounding up is monotone, so a flow whose unrounded drain time
        // exceeds the best's rounded one finishes no earlier, and loses
        // the tie on id: skip the rounding.
        if us > self.bound {
            return;
        }
        // Round up to the next microsecond so the flow is always fully
        // drained (never early) when the completion event fires.
        let us = us.ceil().max(0.0);
        let finish = now + SimDur::from_micros(us as u64);
        if self.best.is_none_or(|b| (finish, id) < b) {
            self.best = Some((finish, id));
            self.bound = us;
        }
    }
}

impl Default for Fabric {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    #[test]
    fn single_flow_completes_at_size_over_rate() {
        let mut fab = Fabric::new();
        let a = fab.add_symmetric_node(100.0);
        let b = fab.add_symmetric_node(100.0);
        let id = fab.start_flow(SimTime::ZERO, a, b, 1000, f64::INFINITY);
        let (finish, fid) = fab.next_completion().unwrap();
        assert_eq!(fid, id);
        assert!((finish.as_secs_f64() - 10.0).abs() < 1e-6);
        let rec = fab.complete_flow(finish, id);
        assert_eq!(rec.bytes_moved, 1000);
        assert_eq!(fab.active_flows(), 0);
    }

    #[test]
    fn partition_stalls_then_resumes_a_flow() {
        let mut fab = Fabric::new();
        let a = fab.add_symmetric_node(100.0);
        let b = fab.add_symmetric_node(100.0);
        let id = fab.start_flow(SimTime::ZERO, a, b, 1000, f64::INFINITY);
        // 5 s at 100 B/s: 500 bytes delivered, then the link partitions.
        fab.set_node_bandwidth(t(5.0), b, 0.0, 0.0);
        assert_eq!(fab.flow_rate(id), Some(0.0));
        assert_eq!(fab.next_completion(), None, "stalled flows never finish");
        // 20 s of darkness preserve the delivered prefix.
        fab.set_node_bandwidth(t(25.0), b, 100.0, 100.0);
        let (finish, fid) = fab.next_completion().unwrap();
        assert_eq!(fid, id);
        assert!((finish.as_secs_f64() - 30.0).abs() < 1e-5, "{finish}");
        assert_eq!(fab.node_bandwidth(b), (100.0, 100.0));
        let rec = fab.complete_flow(finish, id);
        assert_eq!(rec.bytes_moved, 1000);
    }

    #[test]
    fn degraded_link_slows_a_flow_proportionally() {
        let mut fab = Fabric::new();
        let a = fab.add_symmetric_node(100.0);
        let b = fab.add_symmetric_node(100.0);
        let id = fab.start_flow(SimTime::ZERO, a, b, 1000, f64::INFINITY);
        // Halfway through, the receiver's link degrades to 10 %.
        fab.set_node_bandwidth(t(5.0), b, 10.0, 10.0);
        assert!((fab.flow_rate(id).unwrap() - 10.0).abs() < 1e-9);
        let (finish, _) = fab.next_completion().unwrap();
        // 500 bytes at 10 B/s: finishes at 5 + 50 = 55 s.
        assert!((finish.as_secs_f64() - 55.0).abs() < 1e-5, "{finish}");
    }

    #[test]
    fn two_flows_share_then_speed_up() {
        let mut fab = Fabric::new();
        let src = fab.add_symmetric_node(100.0);
        let d1 = fab.add_symmetric_node(1000.0);
        let d2 = fab.add_symmetric_node(1000.0);
        // Both flows leave `src`: 50 B/s each.
        let f1 = fab.start_flow(SimTime::ZERO, src, d1, 500, f64::INFINITY);
        let f2 = fab.start_flow(SimTime::ZERO, src, d2, 1000, f64::INFINITY);
        assert!((fab.flow_rate(f1).unwrap() - 50.0).abs() < 1e-6);
        // f1 finishes at t=10; f2 has 500 left, then gets 100 B/s -> +5 s.
        let (t1, id1) = fab.next_completion().unwrap();
        assert_eq!(id1, f1);
        assert!((t1.as_secs_f64() - 10.0).abs() < 1e-6);
        fab.complete_flow(t1, f1);
        assert!((fab.flow_rate(f2).unwrap() - 100.0).abs() < 1e-6);
        let (t2, id2) = fab.next_completion().unwrap();
        assert_eq!(id2, f2);
        assert!((t2.as_secs_f64() - 15.0).abs() < 1e-6);
    }

    #[test]
    fn rate_cap_respected() {
        let mut fab = Fabric::new();
        let a = fab.add_symmetric_node(1e9);
        let b = fab.add_symmetric_node(1e9);
        let id = fab.start_flow(SimTime::ZERO, a, b, 1_000_000, 1e6);
        assert!((fab.flow_rate(id).unwrap() - 1e6).abs() < 1.0);
    }

    #[test]
    fn cancel_reports_partial_bytes() {
        let mut fab = Fabric::new();
        let a = fab.add_symmetric_node(100.0);
        let b = fab.add_symmetric_node(100.0);
        let id = fab.start_flow(SimTime::ZERO, a, b, 1000, f64::INFINITY);
        let rec = fab.cancel_flow(t(4.0), id).unwrap();
        assert_eq!(rec.bytes_moved, 400);
        assert_eq!(rec.size, 1000);
        assert!(fab.cancel_flow(t(5.0), id).is_none());
    }

    #[test]
    fn cancel_flows_touching_node() {
        let mut fab = Fabric::new();
        let a = fab.add_symmetric_node(100.0);
        let b = fab.add_symmetric_node(100.0);
        let c = fab.add_symmetric_node(100.0);
        fab.start_flow(SimTime::ZERO, a, b, 1000, f64::INFINITY);
        fab.start_flow(SimTime::ZERO, b, c, 1000, f64::INFINITY);
        fab.start_flow(SimTime::ZERO, a, c, 1000, f64::INFINITY);
        let records = fab.cancel_flows_touching(t(1.0), b);
        assert_eq!(records.len(), 2);
        assert_eq!(fab.active_flows(), 1);
    }

    #[test]
    fn zero_byte_flow_completes_immediately() {
        let mut fab = Fabric::new();
        let a = fab.add_symmetric_node(100.0);
        let b = fab.add_symmetric_node(100.0);
        let id = fab.start_flow(t(3.0), a, b, 0, f64::INFINITY);
        let (finish, fid) = fab.next_completion().unwrap();
        assert_eq!(fid, id);
        assert_eq!(finish, t(3.0));
    }

    #[test]
    fn stalled_flow_never_completes() {
        let mut fab = Fabric::new();
        let a = fab.add_node(0.0, 100.0); // zero egress
        let b = fab.add_symmetric_node(100.0);
        fab.start_flow(SimTime::ZERO, a, b, 1000, f64::INFINITY);
        assert!(fab.next_completion().is_none());
    }

    #[test]
    #[should_panic(expected = "intra-node")]
    fn self_flow_panics() {
        let mut fab = Fabric::new();
        let a = fab.add_symmetric_node(100.0);
        fab.start_flow(SimTime::ZERO, a, a, 10, f64::INFINITY);
    }

    #[test]
    fn progress_preserved_across_rate_changes() {
        let mut fab = Fabric::new();
        let src = fab.add_symmetric_node(100.0);
        let d1 = fab.add_symmetric_node(1000.0);
        let d2 = fab.add_symmetric_node(1000.0);
        let f1 = fab.start_flow(SimTime::ZERO, src, d1, 1000, f64::INFINITY);
        // At t=5 a second flow arrives; f1 has moved 500 bytes at 100 B/s.
        fab.start_flow(t(5.0), src, d2, 10_000, f64::INFINITY);
        // f1: 500 left at 50 B/s -> finishes at t=15.
        let (finish, id) = fab.next_completion().unwrap();
        assert_eq!(id, f1);
        assert!((finish.as_secs_f64() - 15.0).abs() < 1e-6);
    }

    #[test]
    fn manager_uplink_bottleneck_scenario() {
        // 10 workers each pulling 1 GB from the manager over its 1 GB/s
        // uplink: every flow gets 0.1 GB/s, all complete at t=10.
        let mut fab = Fabric::new();
        let mgr = fab.add_symmetric_node(1e9);
        let workers: Vec<NodeId> = (0..10).map(|_| fab.add_symmetric_node(1e9)).collect();
        let ids: Vec<FlowId> = workers
            .iter()
            .map(|&w| fab.start_flow(SimTime::ZERO, mgr, w, 1_000_000_000, f64::INFINITY))
            .collect();
        for &id in &ids {
            assert!((fab.flow_rate(id).unwrap() - 1e8).abs() < 10.0);
        }
        let (finish, _) = fab.next_completion().unwrap();
        assert!((finish.as_secs_f64() - 10.0).abs() < 1e-3);
    }

    #[test]
    fn solve_cost_does_not_grow_with_node_count() {
        // The same two flows cost the same solver work on a 3-node and on
        // a 10 000-node fabric: a solve visits only the links they load.
        // Each start is read, so each costs a solve.
        let work = |n_nodes: usize| {
            let mut fab = Fabric::new();
            let nodes: Vec<NodeId> = (0..n_nodes).map(|_| fab.add_symmetric_node(1e9)).collect();
            let far = nodes[n_nodes - 1];
            fab.start_flow(SimTime::ZERO, nodes[0], far, 1_000, f64::INFINITY);
            fab.next_completion();
            fab.start_flow(SimTime::ZERO, nodes[1], nodes[0], 1_000, 1e6);
            fab.next_completion();
            fab.solve_work()
        };
        let campus = work(10_000);
        assert_eq!(campus, work(3));
        assert_eq!((campus.changes, campus.solves), (2, 2));
        // Each iteration fixes at least one flow (1 + 2 over the two
        // solves), and scans at most the 4 loaded links twice.
        assert!(campus.iterations <= 3, "{campus:?}");
        assert!(
            campus.link_visits <= 2 * 4 * campus.iterations,
            "{campus:?}"
        );
    }

    #[test]
    fn resumed_solve_reruns_only_the_steps_a_change_reaches() {
        // Ten flows, each alone on its links, bottlenecked by ten distinct
        // ingress capacities: a full solve takes one step per flow.
        let mut fab = Fabric::new();
        let dsts: Vec<NodeId> = (1..=10)
            .map(|i| fab.add_symmetric_node(100.0 * i as f64))
            .collect();
        for &dst in &dsts {
            let src = fab.add_symmetric_node(1e9);
            fab.start_flow(SimTime::ZERO, src, dst, 1_000, f64::INFINITY);
        }
        fab.next_completion();
        assert_eq!(fab.solve_work().iterations, 10);
        // A flow whose links are bottlenecked after all ten replays every
        // step and runs one more; a full solve would run eleven.
        let src = fab.add_symmetric_node(1e9);
        let late = fab.add_symmetric_node(2_000.0);
        fab.start_flow(SimTime::ZERO, src, late, 1_000, f64::INFINITY);
        fab.next_completion();
        assert_eq!(fab.solve_work().iterations, 10 + 1);
        // A bandwidth change, even to the same value, re-runs them all.
        fab.set_node_bandwidth(SimTime::ZERO, dsts[0], 100.0, 100.0);
        fab.next_completion();
        let work = fab.solve_work();
        assert_eq!((work.solves, work.iterations), (3, 11 + 11), "{work:?}");
    }

    #[test]
    fn same_instant_changes_cost_one_solve_when_read() {
        let mut fab = Fabric::new();
        let nodes: Vec<NodeId> = (0..9).map(|_| fab.add_symmetric_node(1e9)).collect();
        for k in 1..=8 {
            fab.start_flow(t(1.0), nodes[0], nodes[k], 1_000, f64::INFINITY);
        }
        assert_eq!(fab.solve_work().solves, 0, "unread changes do not solve");
        let first = fab.next_completion();
        assert!(first.is_some());
        // Reads between changes hit the cache.
        assert_eq!(fab.next_completion(), first);
        assert_eq!(fab.flow_rate(FlowId(3)), Some(1e9 / 8.0));
        let work = fab.solve_work();
        assert_eq!((work.changes, work.solves), (8, 1), "{work:?}");
    }

    #[test]
    fn finished_flows_leave_no_solver_work_behind() {
        let mut fab = Fabric::new();
        let nodes: Vec<NodeId> = (0..100).map(|_| fab.add_symmetric_node(1e9)).collect();
        for k in 1..100 {
            let id = fab.start_flow(SimTime::ZERO, nodes[k], nodes[k - 1], 1_000, 1e6);
            fab.cancel_flow(SimTime::ZERO, id);
        }
        fab.start_flow(SimTime::ZERO, nodes[0], nodes[99], 1_000, f64::INFINITY);
        fab.next_completion();
        // One solve over one flow: a single iteration scans its two links
        // and stops the bottleneck search at the first.
        let w = fab.solve_work();
        assert_eq!((w.solves, w.iterations, w.link_visits), (1, 1, 3), "{w:?}");
    }

    #[test]
    fn unread_change_is_solved_before_time_moves() {
        // The first flow's progress up to t=4 must be made at the rate
        // the two-flow set gets (50 B/s each), although nothing read it.
        let mut fab = Fabric::new();
        let src = fab.add_symmetric_node(100.0);
        let d1 = fab.add_symmetric_node(1000.0);
        let d2 = fab.add_symmetric_node(1000.0);
        let f1 = fab.start_flow(SimTime::ZERO, src, d1, 1000, f64::INFINITY);
        let f2 = fab.start_flow(SimTime::ZERO, src, d2, 1000, f64::INFINITY);
        let rec = fab.cancel_flow(t(4.0), f2).unwrap();
        assert_eq!(rec.bytes_moved, 200);
        // f1: 800 left at 100 B/s.
        assert_eq!(fab.next_completion(), Some((t(12.0), f1)));
    }

    #[test]
    fn peer_pairs_run_at_full_rate() {
        let mut fab = Fabric::new();
        let nodes: Vec<NodeId> = (0..20).map(|_| fab.add_symmetric_node(1e9)).collect();
        let ids: Vec<FlowId> = (0..10)
            .map(|i| {
                fab.start_flow(
                    SimTime::ZERO,
                    nodes[2 * i],
                    nodes[2 * i + 1],
                    1_000_000_000,
                    f64::INFINITY,
                )
            })
            .collect();
        for &id in &ids {
            assert!((fab.flow_rate(id).unwrap() - 1e9).abs() < 10.0);
        }
    }
}
