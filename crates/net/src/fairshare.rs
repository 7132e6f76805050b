//! Max–min fair rate allocation (progressive water-filling).
//!
//! Given flows, each crossing one egress link and one ingress link and
//! optionally carrying its own rate cap, compute the max–min fair rate
//! vector: repeatedly find the most-constrained resource, fix its flows at
//! the fair share, remove them, and continue. Flows whose private cap is
//! below the current fair share are fixed at their cap first.
//!
//! The output satisfies (up to floating-point tolerance):
//!
//! 1. **feasibility** — no link's total allocated rate exceeds its capacity;
//! 2. **cap respect** — no flow exceeds its private cap;
//! 3. **work conservation / max–min optimality** — every flow is limited by
//!    a saturated link or by its own cap.
//!
//! [`FairState`] holds the solver's input between solves, so an owner
//! whose flow set changes a little at a time (the [`crate::Fabric`])
//! updates it per change instead of rebuilding it per solve:
//!
//! - each flow sits in a stable slot holding its two links and its cap;
//! - each link keeps its flows in ascending id order;
//! - the flows with a finite cap are kept in ascending id order.
//!
//! A solve (`FairState::solve`) builds the ascending list of links with
//! unfixed flows from a one-bit-per-link bitmap of the links it touched
//! (see below), scans only that list for each step's minimum and
//! bottleneck, and visits only the bottleneck's flows. [`SolveWork`]
//! counts the steps (iterations) and link visits. Every scan meets links
//! and flows in the same ascending order a full scan would, every share
//! is computed from the same operands, and capped flows are fixed in the
//! same order, so the rates are bit-identical to
//! [`max_min_fair_reference`], the full-scan original kept as the test
//! oracle.
//!
//! # Resuming a solve
//!
//! Consecutive solves differ by a few flows, and most of the previous
//! solve's steps would repeat bit for bit. So each solve keeps a trace:
//! every step's level (its bottleneck share) and where its fixes end in a
//! fix-order list; per link, its `remaining` before each fix on it (kept
//! in the fix records, which chain each link's fixes, so a link needs no
//! list of its own); and per flow slot, the step that fixed it. The next
//! solve finds the first step k that its changes can reach, restores
//! every link to its state at step k by undoing the later fixes from the
//! per-link history, and re-runs only the steps from k on. A step is
//! replayed only if all of these hold:
//!
//! - **changed links**: each link that gained or lost a flow since the
//!   last solve has a share above `level + EPS` at that step, both with
//!   its old flow set and with its new one, so it is neither the minimum
//!   nor the chosen bottleneck in either solve. The old-set check is
//!   needed: a removed flow's link can hold the strict minimum while a
//!   lower-index link within EPS is the one chosen, and removing the flow
//!   raises the minimum;
//! - **added capped flows**: each one's cap exceeds `level + EPS`, so the
//!   cap pass does not fix it;
//! - **removed flows**: the step comes before the first step that fixed
//!   a removed flow;
//! - **full solves**: a capacity change restarts from step 0, and the
//!   infinite-share step is always re-run.
//!
//! Two pitfalls. A link's load at step j is derived as its flow count
//! minus its history entries before j, never stored: a stored load goes
//! stale when the link's flow set changes while its early entries
//! survive. And a removed flow's slot can be reused before the next
//! solve, so the fix-order list records each fix's two links, not just
//! its slot.
//!
//! # The links a solve touches
//!
//! A link has unfixed flows at step k only if it is *touched*: it
//! changed since the last solve, a fix the rewind undoes was on it, or
//! it carries a flow of the infinite-share step. Every other link kept
//! its flow set, and each of its flows was fixed before step k, so its
//! load is already zero and the solve never reads its state. The solve
//! marks touched links in a bitmap and sweeps it (one word per 64
//! links) for the live list, ascending without a sort. A trace that
//! stopped short (the "no progress" path, never taken) left flows that
//! no step fixed, so the solve after it marks every link with flows.
//!
//! A solve costs O(live links × steps from the resume point + fixes
//! undone + touched links + capped flows), plus links / 64 bitmap words,
//! plus the stop-rule scan: O(resume point + history) per changed link.

/// Shares within this distance of the minimum count as the minimum.
const EPS: f64 = 1e-9;

/// A slot's step when no step of the last solve fixed its flow.
const UNFIXED: usize = usize::MAX;

/// The end of a link's chain of fixes.
const NO_FIX: usize = usize::MAX;

/// One flow's constraints: the index of its egress link, the index of its
/// ingress link, and an optional private rate cap (bytes/second).
#[derive(Clone, Copy, Debug)]
pub struct FlowSpec {
    /// Index into the capacity array for the sender's access link.
    pub egress_link: usize,
    /// Index into the capacity array for the receiver's access link.
    pub ingress_link: usize,
    /// Private rate cap, bytes/second (`f64::INFINITY` if uncapped).
    pub rate_cap: f64,
}

/// Work counts of a solver and its owner, summed over their lifetime.
/// Exact counts, not times: equal inputs give equal counts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SolveWork {
    /// Flow-set and capacity changes the owner made. Counted by the
    /// owner ([`crate::Fabric`]), which solves at most once per change;
    /// zero for a bare [`FairState`].
    pub changes: u64,
    /// Solver calls.
    pub solves: u64,
    /// Water-filling iterations (passes of the main loop) run; the steps
    /// a solve replays from the previous one are not counted.
    pub iterations: u64,
    /// Link entries examined by the per-iteration minimum and bottleneck
    /// search.
    pub link_visits: u64,
}

/// One link: its capacity, and its numbers during a solve (meaningful
/// only for the links that carry flows).
#[derive(Clone, Copy, Default)]
struct LinkState {
    /// Capacity, bytes/second.
    capacity: f64,
    /// Capacity not yet given to fixed flows.
    remaining: f64,
    /// `remaining.max(0.0) / load`, refreshed whenever either changes
    /// (meaningless once the load is zero).
    share: f64,
    /// Number of flows crossing the link not yet given a rate.
    load: usize,
    /// The link gained or lost a flow since the last solve.
    changed: bool,
    /// How many fixes of the last solve were on the link, and the latest
    /// as `2 * fix + side` ([`NO_FIX`] if none).
    fixed: usize,
    last_fix: usize,
}

impl LinkState {
    /// A flow crossing this link is fixed at rate `r` and leaves it.
    fn take(&mut self, r: f64) {
        self.remaining = (self.remaining - r).max(0.0);
        self.load -= 1;
        self.share = self.remaining.max(0.0) / self.load as f64;
    }
}

/// A link's share with `remaining` capacity left over `load` flows;
/// infinite when it carries none, since it then bounds nothing.
fn share(remaining: f64, load: usize) -> f64 {
    if load == 0 {
        f64::INFINITY
    } else {
        remaining.max(0.0) / load as f64
    }
}

/// One flow's stable slot.
#[derive(Clone, Copy)]
struct Slot {
    id: u64,
    egress: usize,
    ingress: usize,
    cap: f64,
    rate: f64,
    /// The step of the last solve that fixed the flow, or [`UNFIXED`].
    step: usize,
}

/// One step (pass of the main loop) of the last solve.
#[derive(Clone, Copy)]
struct Step {
    /// The step's bottleneck share.
    level: f64,
    /// The step's fixes end at this index of [`Trace::fixes`].
    end: usize,
}

/// One fix of the last solve. Its links are kept because the slot may
/// hold another flow by the next solve. Side 0 is the egress link and
/// side 1 the ingress link; the fixes on one link form a chain through
/// `prev`, which is each link's history.
#[derive(Clone, Copy)]
struct Fix {
    slot: usize,
    step: usize,
    links: [usize; 2],
    /// Each link's `remaining` just before the fix.
    before: [f64; 2],
    /// Each link's previous fix as `2 * fix + side` ([`NO_FIX`] if none).
    prev: [usize; 2],
}

/// What the last solve did, for the next one to resume from.
#[derive(Default)]
struct Trace {
    steps: Vec<Step>,
    /// Every fix, in order.
    fixes: Vec<Fix>,
    /// The slots the infinite-share step gave the unconstrained rate.
    unbounded: Vec<usize>,
}

impl Trace {
    /// Give the flow in slot `s` rate `r` at step `step` and take it off
    /// its two links.
    fn fix(&mut self, s: usize, r: f64, step: usize, slots: &mut [Slot], links: &mut [LinkState]) {
        let r = r.max(0.0);
        let slot = &mut slots[s];
        slot.rate = r;
        slot.step = step;
        let i = self.fixes.len();
        let mut fix = Fix {
            slot: s,
            step,
            links: [slot.egress, slot.ingress],
            before: [0.0; 2],
            prev: [NO_FIX; 2],
        };
        for side in 0..2 {
            let link = &mut links[fix.links[side]];
            fix.before[side] = link.remaining;
            fix.prev[side] = link.last_fix;
            link.last_fix = 2 * i + side;
            link.fixed += 1;
            link.take(r);
        }
        self.fixes.push(fix);
    }

    /// The current step, at `level`, has made all its fixes.
    fn end_step(&mut self, level: f64) {
        self.steps.push(Step {
            level,
            end: self.fixes.len(),
        });
    }

    /// Undo every step from `k` on: un-fix its flows, give each link
    /// back the `remaining` it had before them, and mark their links
    /// touched. A slot of the infinite-share step may hold another flow
    /// by now; its links are then changed links, touched anyway.
    fn rewind(
        &mut self,
        k: usize,
        slots: &mut [Slot],
        links: &mut [LinkState],
        touched: &mut [u64],
    ) {
        if k >= self.steps.len() {
            return;
        }
        let start = k.checked_sub(1).map_or(0, |j| self.steps[j].end);
        for fix in self.fixes.drain(start..).rev() {
            slots[fix.slot].step = UNFIXED;
            for side in [1, 0] {
                let l = fix.links[side];
                let link = &mut links[l];
                link.remaining = fix.before[side];
                link.last_fix = fix.prev[side];
                link.fixed -= 1;
                mark(touched, l);
            }
        }
        for s in self.unbounded.drain(..) {
            let slot = &mut slots[s];
            slot.step = UNFIXED;
            mark(touched, slot.egress);
            mark(touched, slot.ingress);
        }
        self.steps.truncate(k);
    }

    /// `link`'s fixes, oldest first, as (step, `remaining` just before),
    /// into `out`.
    fn history_of(&self, link: &LinkState, out: &mut Vec<(usize, f64)>) {
        out.clear();
        let mut at = link.last_fix;
        for _ in 0..link.fixed {
            let (fix, side) = (&self.fixes[at / 2], at % 2);
            out.push((fix.step, fix.before[side]));
            at = fix.prev[side];
        }
        debug_assert_eq!(at, NO_FIX, "a link's chain is longer than its fixes");
        out.reverse();
    }
}

/// What changed since the last solve.
struct Changes {
    /// The links that gained or lost a flow, each with its flow count at
    /// the last solve.
    links: Vec<(usize, usize)>,
    /// The earliest step that fixed a removed flow ([`UNFIXED`] if none).
    removed_step: usize,
    /// The smallest cap of an added capped flow (infinite if none).
    added_cap: f64,
    /// A capacity changed: the next solve starts from step 0.
    full: bool,
    /// The last solve's trace stopped short: the next one starts from
    /// step 0 and marks every link with flows touched.
    short: bool,
}

impl Default for Changes {
    fn default() -> Self {
        Changes {
            links: Vec::new(),
            removed_step: UNFIXED,
            added_cap: f64::INFINITY,
            full: false,
            short: false,
        }
    }
}

impl Changes {
    /// Forget every change, clearing the links' `changed` marks.
    fn clear(&mut self, states: &mut [LinkState]) {
        for (l, _) in self.links.drain(..) {
            states[l].changed = false;
        }
        self.removed_step = UNFIXED;
        self.added_cap = f64::INFINITY;
        self.full = false;
        self.short = false;
    }
}

/// Set link `l`'s bit.
fn mark(bits: &mut [u64], l: usize) {
    bits[l / 64] |= 1 << (l % 64);
}

/// Remove one `(id, slot)` entry from an id-sorted list.
fn remove_sorted(list: &mut Vec<(u64, usize)>, id: u64) {
    match list.binary_search_by_key(&id, |e| e.0) {
        Ok(pos) => {
            list.remove(pos);
        }
        Err(_) => debug_assert!(false, "flow {id} missing from a list"),
    }
}

/// The water-filling solver's input, kept between solves: link
/// capacities, and the flows with their links and caps. The owner adds
/// links, sets capacities and adds and removes flows as they change, then
/// solves when it needs rates. Flow ids must be added
/// in ascending order; that order fixes float-summation and tie-break
/// behaviour.
#[derive(Default)]
pub struct FairState {
    /// Per link.
    links: Vec<LinkState>,
    /// Per link: its flows' `(id, slot)`, ascending by id. A flow whose
    /// egress and ingress are one link appears twice.
    on_link: Vec<Vec<(u64, usize)>>,
    /// One bit per link the next solve must look at (module doc); all
    /// clear after a solve.
    touched: Vec<u64>,
    /// Flow slots; `free` lists the vacant ones.
    slots: Vec<Slot>,
    free: Vec<usize>,
    /// Flows with a finite private cap, ascending by id.
    capped: Vec<(u64, usize)>,
    /// The last solve, and the changes since.
    trace: Trace,
    changes: Changes,
    /// A reused buffer for one changed link's history.
    history: Vec<(usize, f64)>,
    /// Per-solve working lists: the links with unfixed flows and the
    /// capped flows, compacted as they drain.
    live: Vec<usize>,
    capped_live: Vec<usize>,
    work: SolveWork,
}

impl FairState {
    /// Work done by solves on this state so far (`changes` is zero: the
    /// owner counts those).
    pub fn work(&self) -> SolveWork {
        self.work
    }

    /// Number of links.
    pub(crate) fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Add a link with the given capacity (bytes/second; may be
    /// `f64::INFINITY`) and return its index.
    pub(crate) fn add_link(&mut self, capacity: f64) -> usize {
        let l = self.links.len();
        self.links.push(LinkState {
            capacity,
            last_fix: NO_FIX,
            ..LinkState::default()
        });
        self.on_link.push(Vec::new());
        self.touched.resize((l + 1).div_ceil(64), 0);
        l
    }

    /// Link `l`'s capacity.
    pub(crate) fn capacity(&self, l: usize) -> f64 {
        self.links[l].capacity
    }

    /// Replace link `l`'s capacity.
    pub(crate) fn set_capacity(&mut self, l: usize, capacity: f64) {
        self.links[l].capacity = capacity;
        self.changes.full = true;
    }

    /// Link `l` is about to gain or lose a flow.
    fn note_changed(&mut self, l: usize) {
        let link = &mut self.links[l];
        if !link.changed {
            link.changed = true;
            self.changes.links.push((l, self.on_link[l].len()));
            mark(&mut self.touched, l);
        }
    }

    /// Add flow `id` over `egress` and `ingress` with private cap
    /// `rate_cap` (`f64::INFINITY` if uncapped). Returns its slot, stable
    /// until the flow is removed. `id` must not be below any id added
    /// before it that is still present.
    pub(crate) fn add_flow(
        &mut self,
        id: u64,
        egress: usize,
        ingress: usize,
        rate_cap: f64,
    ) -> usize {
        let slot = Slot {
            id,
            egress,
            ingress,
            cap: rate_cap,
            rate: 0.0,
            step: UNFIXED,
        };
        let s = match self.free.pop() {
            Some(s) => {
                self.slots[s] = slot;
                s
            }
            None => {
                self.slots.push(slot);
                self.slots.len() - 1
            }
        };
        for l in [egress, ingress] {
            self.note_changed(l);
            let list = &mut self.on_link[l];
            debug_assert!(list.last().is_none_or(|&(last, _)| last <= id));
            list.push((id, s));
        }
        if rate_cap.is_finite() {
            debug_assert!(self.capped.last().is_none_or(|&(last, _)| last < id));
            self.capped.push((id, s));
            self.changes.added_cap = self.changes.added_cap.min(rate_cap);
        }
        s
    }

    /// Remove the flow in slot `s`.
    pub(crate) fn remove_flow(&mut self, s: usize) {
        let Slot {
            id,
            egress,
            ingress,
            cap,
            step,
            ..
        } = self.slots[s];
        for l in [egress, ingress] {
            self.note_changed(l);
            remove_sorted(&mut self.on_link[l], id);
        }
        if cap.is_finite() {
            remove_sorted(&mut self.capped, id);
        }
        self.changes.removed_step = self.changes.removed_step.min(step);
        self.free.push(s);
    }

    /// Drop every flow and replace the links with `link_capacity`,
    /// keeping the allocations.
    fn reset(&mut self, link_capacity: &[f64]) {
        self.links.clear();
        self.links
            .extend(link_capacity.iter().map(|&capacity| LinkState {
                capacity,
                last_fix: NO_FIX,
                ..LinkState::default()
            }));
        for list in &mut self.on_link {
            list.clear();
        }
        self.on_link.resize_with(link_capacity.len(), Vec::new);
        self.touched.clear();
        self.touched.resize(link_capacity.len().div_ceil(64), 0);
        self.slots.clear();
        self.free.clear();
        self.capped.clear();
        let trace = &mut self.trace;
        trace.steps.clear();
        trace.fixes.clear();
        trace.unbounded.clear();
        self.changes = Changes::default();
    }

    /// The rate the last solve gave the flow in slot `s` (0 before any).
    pub(crate) fn rate(&self, s: usize) -> f64 {
        self.slots[s].rate
    }

    /// How many of the last solve's steps the changes since leave
    /// bit-identical: the stop rule of the module doc.
    fn resume_point(&mut self) -> usize {
        let FairState {
            links,
            on_link,
            trace,
            changes,
            history,
            ..
        } = self;
        if changes.full {
            return 0;
        }
        let steps = &trace.steps;
        let before_removed = steps.len().min(changes.removed_step);
        // No cap exceeds an infinite level, so the infinite-share step
        // always stops the replay.
        let mut k = steps[..before_removed]
            .iter()
            .position(|st| changes.added_cap <= st.level + EPS)
            .unwrap_or(before_removed);
        for &(l, before) in &changes.links {
            trace.history_of(&links[l], history);
            let after = on_link[l].len();
            // `seen` counts the link's fixes before step j. They belong to
            // flows in both the old and the new set, since j precedes
            // every removed flow's fix.
            let mut seen = 0;
            for (j, st) in steps[..k].iter().enumerate() {
                while history.get(seen).is_some_and(|&(at, _)| at < j) {
                    seen += 1;
                }
                let remaining = match history.get(seen) {
                    Some(&(_, r)) => r,
                    None if seen > 0 => links[l].remaining,
                    None => links[l].capacity,
                };
                let bound = st.level + EPS;
                if share(remaining, before - seen) <= bound
                    || share(remaining, after - seen) <= bound
                {
                    k = j;
                    break;
                }
            }
        }
        k
    }

    /// Compute the max–min fair rate of every flow; read them with
    /// [`FairState::rate`].
    pub(crate) fn solve(&mut self) {
        self.work.solves += 1;
        let k = self.resume_point();
        let FairState {
            links,
            on_link,
            touched,
            slots,
            free,
            capped,
            trace,
            changes,
            live,
            capped_live,
            work,
            ..
        } = self;
        trace.rewind(k, slots, links, touched);
        if changes.short {
            for (l, list) in on_link.iter().enumerate() {
                if !list.is_empty() {
                    mark(touched, l);
                }
            }
        }
        changes.clear(links);

        // The links with unfixed flows at step k, ascending, so that
        // every scan below meets them in the order a scan of all links
        // would. Only touched links can have any (module doc); sweeping
        // their bitmap orders them without a sort, and clears it. A
        // link's load is its flow count less the fixes on it so far.
        live.clear();
        for (w, bits) in touched.iter_mut().enumerate() {
            let mut word = std::mem::take(bits);
            while word != 0 {
                let l = w * 64 + word.trailing_zeros() as usize;
                word &= word - 1;
                let link = &mut links[l];
                if link.fixed == 0 {
                    link.remaining = link.capacity;
                }
                link.load = on_link[l].len() - link.fixed;
                if link.load > 0 {
                    link.share = link.remaining.max(0.0) / link.load as f64;
                    live.push(l);
                }
            }
        }
        if cfg!(debug_assertions) {
            let scanned: Vec<usize> = (0..links.len())
                .filter(|&l| on_link[l].len() > links[l].fixed)
                .collect();
            debug_assert_eq!(*live, scanned, "a link with unfixed flows was not touched");
        }
        capped_live.clear();
        capped_live.extend(
            capped
                .iter()
                .map(|&(_, s)| s)
                .filter(|&s| slots[s].step == UNFIXED),
        );
        let mut active_count = slots.len() - free.len() - trace.fixes.len();

        while active_count > 0 {
            let step = trace.steps.len();
            work.iterations += 1;
            work.link_visits += live.len() as u64;
            // Fair share offered by the most constrained link; drained
            // links leave the live list.
            let mut bottleneck_share = f64::INFINITY;
            live.retain(|&l| {
                let link = &links[l];
                if link.load == 0 {
                    return false;
                }
                bottleneck_share = bottleneck_share.min(link.share);
                true
            });

            // Flows whose private cap binds below the link share are fixed
            // at their cap; this releases capacity, so redo the loop
            // afterwards.
            let mut fixed_any_cap = false;
            capped_live.retain(|&s| {
                if slots[s].step != UNFIXED {
                    return false;
                }
                let cap = slots[s].cap;
                if cap <= bottleneck_share + EPS {
                    trace.fix(s, cap, step, slots, links);
                    active_count -= 1;
                    fixed_any_cap = true;
                    return false;
                }
                true
            });
            if fixed_any_cap {
                trace.end_step(bottleneck_share);
                continue;
            }

            if !bottleneck_share.is_finite() {
                // No finite constraint remains: uncapped flows on
                // unconstrained links, all of them on live links. Give
                // them a huge-but-finite rate to keep downstream
                // arithmetic sane, and stop.
                for &l in live.iter() {
                    for &(_, s) in &on_link[l] {
                        let slot = &mut slots[s];
                        if slot.step == UNFIXED {
                            slot.rate = f64::MAX / 1e6;
                            slot.step = step;
                            trace.unbounded.push(s);
                        }
                    }
                }
                trace.end_step(bottleneck_share);
                break;
            }

            // Fix every flow on the first (lowest-index) bottleneck link,
            // in id order, then recompute.
            let found = live
                .iter()
                .position(|&l| links[l].share <= bottleneck_share + EPS);
            work.link_visits += found.map_or(live.len(), |p| p + 1) as u64;
            let Some(p) = found else {
                debug_assert!(false, "water-filling made no progress");
                // The trace stops short, so the next solve must not
                // resume from it.
                changes.full = true;
                changes.short = true;
                break;
            };
            let mut fixed_any = false;
            for &(_, s) in &on_link[live[p]] {
                if slots[s].step == UNFIXED {
                    trace.fix(s, bottleneck_share, step, slots, links);
                    active_count -= 1;
                    fixed_any = true;
                }
            }
            trace.end_step(bottleneck_share);
            debug_assert!(fixed_any, "bottleneck link had no active flows");
            if !fixed_any {
                changes.full = true;
                changes.short = true;
                break;
            }
        }
    }
}

/// Compute max–min fair rates for `flows` over links with the given
/// capacities (bytes/second; may be `f64::INFINITY`).
///
/// Returns one rate per flow, in order. A one-shot solve on a fresh
/// [`FairState`]: the fabric keeps its state between solves instead.
pub fn max_min_fair(flows: &[FlowSpec], link_capacity: &[f64]) -> Vec<f64> {
    load_and_solve(flows, link_capacity, &mut FairState::default())
}

/// Load `flows` (as ids `0..n`) and `link_capacity` into `state`,
/// replacing whatever it held, solve, and return one rate per flow.
fn load_and_solve(flows: &[FlowSpec], link_capacity: &[f64], state: &mut FairState) -> Vec<f64> {
    state.reset(link_capacity);
    for (i, f) in flows.iter().enumerate() {
        state.add_flow(i as u64, f.egress_link, f.ingress_link, f.rate_cap);
    }
    state.solve();
    state.slots.iter().map(|s| s.rate).collect()
}
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

#[cfg(test)]
mod tests {
    use super::*;

    const INF: f64 = f64::INFINITY;

    fn spec(e: usize, i: usize, cap: f64) -> FlowSpec {
        FlowSpec {
            egress_link: e,
            ingress_link: i,
            rate_cap: cap,
        }
    }

    #[test]
    fn single_flow_gets_min_of_links() {
        let rates = max_min_fair(&[spec(0, 1, INF)], &[100.0, 40.0]);
        assert_eq!(rates, vec![40.0]);
    }

    #[test]
    fn private_cap_binds() {
        let rates = max_min_fair(&[spec(0, 1, 10.0)], &[100.0, 40.0]);
        assert_eq!(rates, vec![10.0]);
    }

    #[test]
    fn equal_flows_share_equally() {
        // Two flows out of the same egress link into distinct sinks.
        let rates = max_min_fair(&[spec(0, 1, INF), spec(0, 2, INF)], &[100.0, 100.0, 100.0]);
        assert!((rates[0] - 50.0).abs() < 1e-6);
        assert!((rates[1] - 50.0).abs() < 1e-6);
    }

    #[test]
    fn capped_flow_releases_capacity_to_peer() {
        // Flow 0 capped at 10; flow 1 picks up the slack.
        let rates = max_min_fair(&[spec(0, 1, 10.0), spec(0, 2, INF)], &[100.0, 100.0, 100.0]);
        assert!((rates[0] - 10.0).abs() < 1e-6);
        assert!((rates[1] - 90.0).abs() < 1e-6);
    }

    #[test]
    fn classic_three_link_example() {
        // Textbook max-min: links A=10 shared by f0,f1; link B=20 used by f1
        // only after A... construct: f0 on (0,1), f1 on (0,2), f2 on (3,2).
        // caps: link0=10, link1=inf, link2=8, link3=inf.
        // Shares: link0 offers 5, link2 offers 4 -> bottleneck link2 fixes
        // f1,f2 at 4 each? No: link2 hosts f1,f2 -> share 4. Then link0 has
        // f0 alone with 10-4=6 remaining -> f0=6.
        let rates = max_min_fair(
            &[spec(0, 1, INF), spec(0, 2, INF), spec(3, 2, INF)],
            &[10.0, INF, 8.0, INF],
        );
        assert!((rates[1] - 4.0).abs() < 1e-6, "{rates:?}");
        assert!((rates[2] - 4.0).abs() < 1e-6, "{rates:?}");
        assert!((rates[0] - 6.0).abs() < 1e-6, "{rates:?}");
    }

    #[test]
    fn manager_fanout_collapses_per_flow_rate() {
        // The Work Queue pattern: 200 flows all leaving link 0.
        let flows: Vec<FlowSpec> = (0..200).map(|w| spec(0, 1 + w, INF)).collect();
        let mut caps = vec![1.25e9]; // 10 Gbit/s manager uplink
        caps.extend(std::iter::repeat_n(1.25e9, 200));
        let rates = max_min_fair(&flows, &caps);
        for r in &rates {
            assert!((r - 1.25e9 / 200.0).abs() < 1.0, "{r}");
        }
    }

    #[test]
    fn peer_transfers_use_disjoint_links_fully() {
        // The TaskVine pattern: disjoint pairs each get full link rate.
        let flows: Vec<FlowSpec> = (0..100).map(|w| spec(2 * w, 2 * w + 1, INF)).collect();
        let caps = vec![1.25e9; 200];
        let rates = max_min_fair(&flows, &caps);
        for r in &rates {
            assert!((r - 1.25e9).abs() < 1.0);
        }
    }

    #[test]
    fn empty_input() {
        assert!(max_min_fair(&[], &[10.0]).is_empty());
    }

    #[test]
    fn zero_capacity_link_gives_zero_rate() {
        let rates = max_min_fair(&[spec(0, 1, INF)], &[0.0, 10.0]);
        assert_eq!(rates, vec![0.0]);
    }

    #[test]
    fn all_infinite_links_finite_rates() {
        let rates = max_min_fair(&[spec(0, 1, INF)], &[INF, INF]);
        assert!(rates[0].is_finite());
        assert!(rates[0] > 1e12);
    }

    #[test]
    fn matches_full_scan_reference_bit_for_bit() {
        // Deterministic pseudo-random solves against the full-scan oracle.
        // One state serves every call while link and flow counts change,
        // so a list entry or bitmap bit left behind by an earlier load
        // would show.
        // Capacities come from a palette with exact ties and sub-EPS
        // near-ties, so the tie rule picks among several links.
        const PALETTE: [f64; 7] = [INF, 0.0, 100.0, 100.0 + 4e-10, 250.0, 1.25e9, 3.0];
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut state = FairState::default();
        for case in 0..4_000 {
            let n_links = 1 + (next() % 80) as usize;
            let caps: Vec<f64> = (0..n_links)
                .map(|_| match next() % 4 {
                    0 => 1.0 + (next() % 1_000_000) as f64 / 7.0,
                    _ => PALETTE[(next() % PALETTE.len() as u64) as usize],
                })
                .collect();
            let n_flows = if case % 50 == 0 {
                0
            } else {
                (next() % 60) as usize
            };
            let flows: Vec<FlowSpec> = (0..n_flows)
                .map(|_| {
                    let e = (next() % n_links as u64) as usize;
                    // Every eighth flow leaves and enters through one link.
                    let g = if next() % 8 == 0 {
                        e
                    } else {
                        (next() % n_links as u64) as usize
                    };
                    let cap = match next() % 4 {
                        0 => PALETTE[(next() % PALETTE.len() as u64) as usize],
                        1 => 0.5 + (next() % 100_000) as f64 / 3.0,
                        _ => INF,
                    };
                    spec(e, g, cap)
                })
                .collect();
            let rate = load_and_solve(&flows, &caps, &mut state);
            let expected = max_min_fair_reference(&flows, &caps);
            let bits = |r: &[f64]| r.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(&rate),
                bits(&expected),
                "case {case}: {flows:?} over {caps:?}"
            );
        }
    }

    /// Solve `state` and compare every flow's rate, bit for bit, with a
    /// full reference solve of `flows` (slot and spec, in id order).
    fn solve_and_check(state: &mut FairState, flows: &[(usize, FlowSpec)], caps: &[f64]) {
        state.solve();
        let specs: Vec<FlowSpec> = flows.iter().map(|&(_, f)| f).collect();
        let expected = max_min_fair_reference(&specs, caps);
        for (&(s, f), want) in flows.iter().zip(expected) {
            assert_eq!(state.rate(s).to_bits(), want.to_bits(), "{f:?}");
        }
    }

    #[test]
    fn resumed_solves_match_reference_under_random_changes() {
        // One state through many solves, each after a few flow additions
        // and removals, so most solves resume. Links are paired at random,
        // and some flows leave and enter through one link, which a fabric
        // never does.
        const PALETTE: [f64; 8] = [INF, 0.0, 100.0, 100.0 + 4e-10, 250.0, 0.3, 0.7, 3.0];
        let mut x: u64 = 0xD1B5_4A32_D192_ED03;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for _ in 0..200 {
            let caps: Vec<f64> = (0..1 + next() % 12)
                .map(|_| PALETTE[(next() % PALETTE.len() as u64) as usize])
                .collect();
            let n_links = caps.len() as u64;
            let mut state = FairState::default();
            for &c in &caps {
                state.add_link(c);
            }
            let mut flows: Vec<(usize, FlowSpec)> = Vec::new();
            for id in 0..60 {
                if flows.is_empty() || next() % 5 < 3 {
                    let e = (next() % n_links) as usize;
                    let g = if next() % 4 == 0 {
                        e
                    } else {
                        (next() % n_links) as usize
                    };
                    let cap = match next() % 3 {
                        0 => PALETTE[(next() % PALETTE.len() as u64) as usize],
                        _ => INF,
                    };
                    flows.push((state.add_flow(id, e, g, cap), spec(e, g, cap)));
                } else {
                    let (s, _) = flows.remove((next() % flows.len() as u64) as usize);
                    state.remove_flow(s);
                }
                if next() % 2 == 0 {
                    solve_and_check(&mut state, &flows, &caps);
                }
            }
        }
    }

    #[test]
    fn removed_flow_on_the_minimum_link_reruns_the_step_that_chose_another() {
        // Link 1 holds the strict minimum (100), but link 0 is within EPS
        // of it and has the lower index, so step 0 fixes link 0's flow at
        // 100. Once link 1's flow is gone its new share bounds nothing,
        // yet step 0 must re-run: its minimum came from link 1.
        let caps = [100.0 + 4e-10, 100.0, INF, INF];
        let mut state = FairState::default();
        for &c in &caps {
            state.add_link(c);
        }
        let a = (state.add_flow(0, 0, 2, INF), spec(0, 2, INF));
        let b = (state.add_flow(1, 1, 3, INF), spec(1, 3, INF));
        solve_and_check(&mut state, &[a, b], &caps);
        assert_eq!(state.rate(a.0), 100.0);
        state.remove_flow(b.0);
        solve_and_check(&mut state, &[a], &caps);
        assert_eq!(state.rate(a.0), 100.0 + 4e-10);
    }

    #[test]
    fn added_capped_flow_below_a_replayed_level_reruns_from_that_step() {
        // Without F, step 0 fixes G at link 1's 0.3 and H takes link 0's
        // 1.0 - 0.3 = 0.7. F's cap 0.1 is below step 0's level, so a full
        // solve fixes F first and H gets (1.0 - 0.1) - 0.3, which is not
        // the 0.7 - 0.1 a resume after step 0 would give.
        let caps = [1.0, 0.3, 1e6, 1e6];
        let mut state = FairState::default();
        for &c in &caps {
            state.add_link(c);
        }
        let mut flows = vec![
            (state.add_flow(0, 0, 1, INF), spec(0, 1, INF)),
            (state.add_flow(1, 0, 3, INF), spec(0, 3, INF)),
        ];
        solve_and_check(&mut state, &flows, &caps);
        flows.push((state.add_flow(2, 0, 2, 0.1), spec(0, 2, 0.1)));
        solve_and_check(&mut state, &flows, &caps);
        assert_eq!(state.rate(flows[1].0), (1.0 - 0.1) - 0.3);
    }

    #[test]
    fn consecutive_resumes_add_flows_to_a_link_with_surviving_history() {
        // Link 0 (1000) feeds flows A, B, C, D, one joining per solve from
        // the second on. The first solve fixes E at link 5's 100 (step 0),
        // A at link 1's 300 (step 1) and B at 700 (step 2). Adding C
        // replays steps 0 and 1, so link 0's entry for A's fix survives.
        // Adding D must then re-run step 1: link 0's share there is
        // 1000 / 4 = 250, below 300. A load stored with that entry would
        // count only A and B and give 1000 / 3.
        let caps = [1000.0, 300.0, 1e6, 1e6, 1e6, 100.0, 1e6];
        let mut state = FairState::default();
        for &c in &caps {
            state.add_link(c);
        }
        let mut flows = vec![(state.add_flow(0, 6, 5, INF), spec(6, 5, INF))];
        for (id, ingress) in [(1, 1), (2, 2)] {
            flows.push((state.add_flow(id, 0, ingress, INF), spec(0, ingress, INF)));
        }
        solve_and_check(&mut state, &flows, &caps);
        assert_eq!(state.work().iterations, 3);
        for (id, ingress) in [(3, 3), (4, 4)] {
            flows.push((state.add_flow(id, 0, ingress, INF), spec(0, ingress, INF)));
            solve_and_check(&mut state, &flows, &caps);
        }
        // Each of the two resumed solves re-ran a single step.
        assert_eq!(state.work().iterations, 5);
        assert_eq!(state.rate(flows[0].0), 100.0);
        assert_eq!(state.rate(flows[4].0), 250.0);
    }

    /// Check the three max-min properties on a random-ish asymmetric case.
    #[test]
    fn allocation_is_feasible_and_work_conserving() {
        let flows = vec![
            spec(0, 3, INF),
            spec(0, 4, 2.0),
            spec(1, 3, INF),
            spec(1, 4, INF),
            spec(2, 4, INF),
        ];
        let caps = vec![10.0, 6.0, 100.0, 5.0, 8.0];
        let rates = max_min_fair(&flows, &caps);

        // Feasibility per link.
        for (l, &cap) in caps.iter().enumerate() {
            let used: f64 = flows
                .iter()
                .zip(&rates)
                .filter(|(f, _)| f.egress_link == l || f.ingress_link == l)
                .map(|(_, r)| r)
                .sum();
            assert!(used <= cap + 1e-6, "link {l} over capacity: {used} > {cap}");
        }
        // Cap respect.
        for (f, r) in flows.iter().zip(&rates) {
            assert!(*r <= f.rate_cap + 1e-6);
        }
        // Work conservation: each flow limited by a saturated link or cap.
        for (f, &r) in flows.iter().zip(&rates) {
            let cap_binds = (r - f.rate_cap).abs() < 1e-6;
            let sat = [f.egress_link, f.ingress_link].iter().any(|&l| {
                let used: f64 = flows
                    .iter()
                    .zip(&rates)
                    .filter(|(g, _)| g.egress_link == l || g.ingress_link == l)
                    .map(|(_, r)| r)
                    .sum();
                used >= caps[l] - 1e-6
            });
            assert!(cap_binds || sat, "flow {f:?} at {r} is not bottlenecked");
        }
    }
}
