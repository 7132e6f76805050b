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
//! - each link keeps its flows in ascending id order.
//!
//! Each step (pass of the water-filling loop) takes the minimum share
//! over the links with unfixed flows, fixes any unfixed capped flow whose
//! cap is within `EPS` of it (a *cap step*), or else fixes every unfixed
//! flow of the *bottleneck*, the lowest-index link whose share is within
//! `EPS` of the minimum. Every share is computed from the same operands as
//! in [`max_min_fair_reference`], the full-scan original kept as the test
//! oracle, and every fix is made in the same order, so the rates are
//! bit-identical to it. [`SolveWork`] counts the steps run, the link
//! entries examined and the fixes written.
//!
//! # Resuming a solve
//!
//! Consecutive solves differ by a few flows, and most of the previous
//! solve's steps would repeat bit for bit. So each solve keeps a trace
//! (the `trace` submodule): each step's level, its *minimum link* (the
//! lowest-index link whose share is the level), its bottleneck and its
//! fixes; per fix, its two links' `remaining` just before it, chained
//! into each link's history; per flow slot, the step that fixed it.
//!
//! The next solve first finds the resume point k, the first step its
//! changes can reach: each link that gained or lost a flow has a share
//! above `level + EPS` at every step before k, with its old flow set and
//! with its new one; each added capped flow's cap exceeds those levels;
//! and no step before k fixed a removed flow. A capacity change, or a
//! trace that stopped short (the "no progress" path, never taken), sets k
//! to 0. Steps before k stay as they are.
//!
//! From k on, the solve walks the old steps with a set P of *perturbed*
//! links, whose state may differ from the old solve's at the same point.
//! Every link outside P has the old state, so every unfixed flow outside
//! P has the old flows' shares, all at least the old step's level. P
//! starts as the changed links. For the old step at the cursor:
//!
//! - it is **dead** if it has no bottleneck (a cap step or the
//!   infinite-share step), or its bottleneck or minimum link is in P. Its
//!   flows become unfixed, their links join P, and it is dropped;
//! - it is **kept** if every P link with unfixed flows has a share above
//!   `level + EPS`, and no capped flow that is unfixed only since this
//!   solve (added, or released by a dead step) has a cap within
//!   `level + EPS`. Then a full scan would take the same minimum, choose
//!   the same bottleneck and fix the same flows at the same level;
//! - otherwise a **fresh** step runs before it. If the minimum share over
//!   P is at least the level, the minimum is the level, and the bottleneck
//!   is the old one or the lowest P link within `EPS`, whichever comes
//!   first (if the old one, the step is kept). If it is below the level by
//!   more than `EPS`, the step needs only P: every other share is at least
//!   the level. A fresh step's flows' links join P. Once no old step is
//!   left, every unfixed flow is on a P link, so fresh steps need only P.
//!
//! In the tie zone, a P share below the level by at most `EPS`, P alone
//! cannot tell which link a full scan would choose: the solve kills every
//! old step left, which puts every link with an unfixed flow in P, and
//! runs fresh steps to the end. A capacity change does the same from
//! step 0. Capped flows that were unfixed at the old step cannot fix in a
//! fresh step either: their caps exceed the old level + `EPS`, and a
//! fresh step's minimum is at most the level.
//!
//! Splicing moves nothing that stays. A kept step keeps its id, fixes
//! and slots, and links outside P are not read. A link joining P cuts its
//! history back to the fixes of placed steps and takes its state from
//! it: `remaining` is the `before` of the first fix cut (its capacity if
//! none is left), and its load is its flow count less the fixes left. Each
//! cut fix of a pending step goes on that step's relink list; when the
//! step is kept, the fix is re-applied on that link alone at the step's
//! level and becomes the link's latest history entry. A cut that meets
//! the link's own bottleneck step skips the step's whole run of fixes,
//! which all sit on the link. Fresh steps get new ids, and the order is
//! rebuilt from k, so `Slot::step` and the fixes' step ids never change
//! for a kept step. A flow is unfixed while its step is not placed.
//!
//! The keep test reads P's *floor*, a lower bound on every P share: a
//! share moves only when its link joins P or takes a fix, and each such
//! move lowers the floor to the new share. A floor above `level + EPS`
//! keeps the step in O(1). Otherwise, and for every fresh step, one scan
//! of P's links with unfixed flows gives the exact minimum (and makes the
//! floor exact), and a second gives the lowest-index links within `EPS`
//! of it. The capped flows a cap pass could fix sit in a list with a
//! floor of their own.
//!
//! A solve costs O(resume point + history) per changed link for k, plus,
//! from k on: the fixes of dead steps, the history entries cut, one
//! relink per kept fix on a P link, and O(P) per fresh step. A kept
//! step's fixes on links outside P cost nothing.
//!
//! Two pitfalls. A link's load is always derived as its flow count minus
//! its history entries, never stored across solves: a stored load goes
//! stale when the link's flow set changes while its early entries
//! survive. And a removed flow's slot can be reused before the next
//! solve, so each fix records its two links, not just its slot.
//!
//! In debug builds every solve is checked against a from-scratch solve of
//! the same flows: rates, and the trace's levels, minimum links,
//! bottlenecks and per-link histories, since a diverged trace corrupts a
//! later resume even while the rates agree.

mod reference;
mod trace;

pub use reference::max_min_fair_reference;

use trace::{Trace, NONE};

/// Shares within this distance of the minimum count as the minimum.
const EPS: f64 = 1e-9;

/// A slot's step when no step fixed its flow.
const UNFIXED: usize = NONE;

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
    /// Water-filling steps run; the steps a solve keeps from the
    /// previous one are not counted.
    pub iterations: u64,
    /// Link entries examined by the minimum and bottleneck searches.
    pub link_visits: u64,
    /// Fix records written, plus fixes re-applied to a perturbed link.
    pub fixes: u64,
}

/// One link: its capacity, and its numbers during a solve.
#[derive(Clone, Copy, Default)]
struct LinkState {
    /// Capacity, bytes/second.
    capacity: f64,
    /// Capacity not yet given to fixed flows.
    remaining: f64,
    /// `remaining.max(0.0) / load`, refreshed whenever either changes on
    /// a link in P with unfixed flows.
    share: f64,
    /// Number of flows crossing the link not yet given a rate.
    load: usize,
    /// The link gained or lost a flow since the last solve.
    changed: bool,
    /// How many fixes are in the link's history, and the latest as
    /// `2 * fix + side` ([`NONE`] if none).
    fixed: usize,
    last_fix: usize,
}

impl LinkState {
    /// A flow crossing this link is fixed at rate `r` and leaves it.
    fn take(&mut self, r: f64) {
        self.remaining = (self.remaining - r).max(0.0);
        self.load -= 1;
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
    /// The id of the step that fixed the flow, or [`UNFIXED`].
    step: usize,
}

/// What changed since the last solve.
struct Changes {
    /// The links that gained or lost a flow, each with its flow count at
    /// the last solve.
    links: Vec<(usize, usize)>,
    /// The earliest step position that fixed a removed flow ([`NONE`]
    /// if none).
    removed_step: usize,
    /// The capped flows added, as `(id, slot)`.
    added_capped: Vec<(u64, usize)>,
    /// A capacity changed: the next solve starts from step 0.
    full: bool,
    /// The last solve's trace stopped short: the next one starts from
    /// step 0 and puts every link with flows in P.
    short: bool,
}

impl Default for Changes {
    fn default() -> Self {
        Changes {
            links: Vec::new(),
            removed_step: NONE,
            added_capped: Vec::new(),
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
        self.removed_step = NONE;
        self.added_capped.clear();
        self.full = false;
        self.short = false;
    }
}

/// A solve's working sets (module doc), empty between solves; kept so
/// their buffers are reused.
#[derive(Default)]
struct Walk {
    /// One bit per link in P.
    in_p: Vec<u64>,
    /// P's links that had unfixed flows when they joined, in joining
    /// order; a scan drops the drained ones.
    p_live: Vec<usize>,
    /// At most the share of every P link with unfixed flows. A share
    /// moves only when the link joins P or takes a fix, and each of those
    /// lowers the floor to the new share, so the floor stays a lower
    /// bound without a scan; a scan makes it exact.
    p_floor: f64,
    /// Capped flows unfixed since this solve began, as `(id, slot)`; an
    /// entry is stale once its flow is fixed. `caps_floor` is at most
    /// the smallest cap of a live entry, so a cap pass below it has
    /// nothing to check.
    caps: Vec<(u64, usize)>,
    caps_floor: f64,
    /// Fixes cut from a P link's history whose step is pending, as
    /// `2 * fix + side` and the next entry of the step's list
    /// ([`trace::Step::relinks`]). A cut walks a link's history newest
    /// first and pushes at the head, so a step's list meets each link's
    /// cuts oldest first.
    relinks: Vec<(usize, usize)>,
    /// Old steps may still be kept, so cuts are queued.
    keeping: bool,
    /// How many flows have no rate at this point of the solve.
    unfixed: usize,
    /// The steps placed after the resume point, in order.
    placed: Vec<usize>,
    /// Scratch: a cap pass's flows as `(id, slot)`.
    hits: Vec<(u64, usize)>,
}

/// Whether link `l` has its bit in `bits`.
fn in_set(bits: &[u64], l: usize) -> bool {
    l != NONE && bits[l / 64] & 1 << (l % 64) != 0
}

/// Whether an old step must die given the links in P (`bits`): it has no
/// bottleneck, or its bottleneck or minimum link is in P.
fn doomed(bits: &[u64], step: &trace::Step) -> bool {
    step.bottleneck == NONE || in_set(bits, step.bottleneck) || in_set(bits, step.min_link)
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
    /// Flow slots; `free` lists the vacant ones.
    slots: Vec<Slot>,
    free: Vec<usize>,
    /// The last solve, and the changes since.
    trace: Trace,
    changes: Changes,
    walk: Walk,
    /// A reused buffer for one changed link's history.
    history: Vec<(usize, f64)>,
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
            last_fix: NONE,
            ..LinkState::default()
        });
        self.on_link.push(Vec::new());
        self.walk.in_p.resize((l + 1).div_ceil(64), 0);
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
            self.changes.added_capped.push((id, s));
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
        if step == UNFIXED {
            if cap.is_finite() {
                self.changes.added_capped.retain(|&(i, _)| i != id);
            }
        } else {
            let at = self.trace.pos[step];
            self.changes.removed_step = self.changes.removed_step.min(at);
            // No dead step may release the flow: its step is killed.
            self.slots[s].step = UNFIXED;
        }
        self.free.push(s);
    }

    /// Drop every flow and replace the links with `link_capacity`,
    /// keeping the allocations.
    fn reset(&mut self, link_capacity: &[f64]) {
        self.links.clear();
        self.links
            .extend(link_capacity.iter().map(|&capacity| LinkState {
                capacity,
                last_fix: NONE,
                ..LinkState::default()
            }));
        for list in &mut self.on_link {
            list.clear();
        }
        self.on_link.resize_with(link_capacity.len(), Vec::new);
        self.walk.in_p.clear();
        self.walk.in_p.resize(link_capacity.len().div_ceil(64), 0);
        self.slots.clear();
        self.free.clear();
        self.trace.clear();
        self.changes = Changes::default();
    }

    /// The rate the last solve gave the flow in slot `s` (0 before any).
    pub(crate) fn rate(&self, s: usize) -> f64 {
        self.slots[s].rate
    }

    /// How many of the last solve's steps the changes since leave
    /// bit-identical: the resume point of the module doc.
    fn resume_point(&mut self) -> usize {
        let FairState {
            links,
            on_link,
            slots,
            trace,
            changes,
            history,
            ..
        } = self;
        if changes.full {
            return 0;
        }
        let order = &trace.order;
        let before_removed = order.len().min(changes.removed_step);
        let added_cap = changes
            .added_capped
            .iter()
            .map(|&(_, s)| slots[s].cap)
            .fold(f64::INFINITY, f64::min);
        // No cap exceeds an infinite level, so the infinite-share step
        // always stops the scan.
        let mut k = order[..before_removed]
            .iter()
            .position(|&id| added_cap <= trace.steps[id].level + EPS)
            .unwrap_or(before_removed);
        for &(l, before) in &changes.links {
            trace.history_of(&links[l], history);
            let after = on_link[l].len();
            // `seen` counts the link's fixes before step j. They belong to
            // flows in both the old and the new set, since j precedes
            // every removed flow's fix.
            let mut seen = 0;
            for (j, &id) in order[..k].iter().enumerate() {
                while history.get(seen).is_some_and(|&(at, _)| at < j) {
                    seen += 1;
                }
                let remaining = match history.get(seen) {
                    Some(&(_, r)) => r,
                    None if seen > 0 => links[l].remaining,
                    None => links[l].capacity,
                };
                let bound = trace.steps[id].level + EPS;
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

    /// Whether the flow in slot `s` has no rate at this point of the
    /// solve: no step fixed it, or its step is not placed (yet).
    fn unfixed(&self, s: usize) -> bool {
        let step = self.slots[s].step;
        step == UNFIXED || !self.trace.steps[step].placed
    }

    /// P link `l`'s load or `remaining` moved: refresh its share, and
    /// lower P's floor to it.
    fn touch(&mut self, l: usize) {
        let link = &mut self.links[l];
        if link.load > 0 {
            link.share = link.remaining.max(0.0) / link.load as f64;
            self.walk.p_floor = self.walk.p_floor.min(link.share);
        }
    }

    /// Put link `l` in P with its state at this point of the solve: cut
    /// its history back to the fixes of placed steps, queueing each cut
    /// fix of a pending step to be re-applied if its step is kept.
    fn join(&mut self, l: usize) {
        if self.cut(l) {
            self.touch(l);
        }
    }

    /// [`FairState::join`] without refreshing the share; returns whether
    /// `l` was new to P.
    fn cut(&mut self, l: usize) -> bool {
        let (word, bit) = (l / 64, 1 << (l % 64));
        if self.walk.in_p[word] & bit != 0 {
            return false;
        }
        self.walk.in_p[word] |= bit;
        let walk = &mut self.walk;
        let trace = &mut self.trace;
        let link = &mut self.links[l];
        let mut at = link.last_fix;
        while at != NONE {
            let step = &mut trace.steps[trace.step_of[at / 2]];
            if step.placed {
                break;
            }
            let (fix, side) = (&trace.fixes[at / 2], at % 2);
            if step.bottleneck == l {
                // Every fix of a bottleneck step is on its bottleneck, one
                // after another in the link's history: skip to the first.
                // The step is dead, so none is queued.
                let first = &trace.fixes[step.first];
                let side = usize::from(first.links[0] != l);
                link.fixed -= step.end - step.first + step.loops;
                link.remaining = first.before[side];
                at = first.prev[side];
                continue;
            }
            link.remaining = fix.before[side];
            link.fixed -= 1;
            if walk.keeping {
                walk.relinks.push((at, step.relinks));
                step.relinks = walk.relinks.len() - 1;
            }
            at = fix.prev[side];
        }
        link.last_fix = at;
        if link.fixed == 0 {
            link.remaining = link.capacity;
        }
        link.load = self.on_link[l].len() - link.fixed;
        if link.load > 0 {
            walk.p_live.push(l);
        }
        true
    }

    /// The minimum share over P's links with unfixed flows (infinite if
    /// none), which becomes P's floor. The scan drops drained links.
    fn p_min(&mut self) -> f64 {
        let FairState {
            links, walk, work, ..
        } = self;
        work.link_visits += walk.p_live.len() as u64;
        let mut min = f64::INFINITY;
        walk.p_live.retain(|&l| {
            let link = &links[l];
            if link.load == 0 {
                return false;
            }
            min = min.min(link.share);
            true
        });
        walk.p_floor = min;
        min
    }

    /// The lowest-index P link with unfixed flows and a share at most
    /// `bound`, and the lowest-index one with a share of exactly `level`
    /// ([`NONE`] if none).
    fn p_ties(&mut self, bound: f64, level: f64) -> (usize, usize) {
        let FairState {
            links, walk, work, ..
        } = self;
        work.link_visits += walk.p_live.len() as u64;
        let (mut first, mut at_level) = (NONE, NONE);
        for &l in &walk.p_live {
            let link = &links[l];
            if link.load > 0 && link.share <= bound {
                first = first.min(l);
                if link.share.to_bits() == level.to_bits() {
                    at_level = at_level.min(l);
                }
            }
        }
        (first, at_level)
    }

    /// Queue the capped flow `id` in slot `s`, unfixed since this solve
    /// began.
    fn queue_capped(&mut self, id: u64, s: usize) {
        self.walk.caps.push((id, s));
        self.walk.caps_floor = self.walk.caps_floor.min(self.slots[s].cap);
    }

    /// Whether a cap pass at `bound` fixes any flow: drop the stale
    /// entries and tighten the floor when it does not rule that out.
    fn cap_hit(&mut self, bound: f64) -> bool {
        // Caps are finite, so an infinite floor means no entry is left.
        if self.walk.caps_floor > bound || self.walk.caps_floor.is_infinite() {
            return false;
        }
        let FairState {
            slots, trace, walk, ..
        } = self;
        let mut floor = f64::INFINITY;
        walk.caps.retain(|&(id, s)| {
            let slot = &slots[s];
            let live = slot.id == id && (slot.step == UNFIXED || !trace.steps[slot.step].placed);
            if live {
                floor = floor.min(slot.cap);
            }
            live
        });
        walk.caps_floor = floor;
        floor.is_finite() && floor <= bound
    }

    /// Give the flow in slot `s` rate `r` in step `step`; its links join
    /// P first. Link `drained` ([`NONE`] if none) loses every unfixed flow
    /// in the step, so its share is not refreshed.
    fn fix(&mut self, s: usize, r: f64, step: usize, drained: usize) {
        let r = r.max(0.0);
        let slot = &mut self.slots[s];
        slot.rate = r;
        slot.step = step;
        let links = [slot.egress, slot.ingress];
        self.cut(links[0]);
        self.cut(links[1]);
        self.trace.fix(s, links, r, step, &mut self.links);
        self.work.fixes += 1;
        self.walk.unfixed -= 1;
        for l in links {
            if l != drained {
                self.touch(l);
            }
        }
    }

    /// Keep the old step `id`, re-applying its cut fixes to P links.
    fn keep(&mut self, id: usize, min_link: usize) {
        let step = &mut self.trace.steps[id];
        step.placed = true;
        step.min_link = min_link;
        let r = step.level.max(0.0);
        let mut at = step.relinks;
        self.walk.unfixed -= step.end - step.first;
        self.walk.placed.push(id);
        while at != NONE {
            let (code, next) = self.walk.relinks[at];
            let l = self.trace.relink(code / 2, code % 2, r, &mut self.links);
            self.work.fixes += 1;
            self.touch(l);
            at = next;
        }
    }

    /// Drop the old step `id`: release its flows and put their links in
    /// P.
    fn kill(&mut self, id: usize) {
        let step = self.trace.steps[id];
        for f in step.first..step.end {
            let trace::Fix { slot: s, links, .. } = self.trace.fixes[f];
            let slot = &mut self.slots[s];
            // The slot may hold a flow a fresh step fixed, or a new one.
            if slot.step == id {
                slot.step = UNFIXED;
                if slot.cap.is_finite() {
                    let id = slot.id;
                    self.queue_capped(id, s);
                }
            }
            self.join(links[0]);
            self.join(links[1]);
        }
        if id == self.trace.infinite {
            for i in 0..self.trace.unbounded.len() {
                let s = self.trace.unbounded[i];
                let slot = &mut self.slots[s];
                if slot.step == id {
                    slot.step = UNFIXED;
                }
                let links = [slot.egress, slot.ingress];
                self.join(links[0]);
                self.join(links[1]);
            }
        }
        self.trace.free_step(id);
    }

    /// Kill the old steps at positions `from..to`.
    fn kill_all(&mut self, from: usize, to: usize) {
        self.walk.keeping = false;
        for at in from..to {
            self.kill(self.trace.order[at]);
        }
    }

    /// Run a fresh step: a new placed step at `level`.
    fn new_step(&mut self, level: f64, min_link: usize, bottleneck: usize) -> usize {
        self.work.iterations += 1;
        let id = self.trace.new_step(level, min_link, bottleneck);
        self.walk.placed.push(id);
        id
    }

    /// A fresh cap step: fix, in id order, every capped flow unfixed
    /// since this solve began whose cap is at most `bound` (the entries
    /// left are all live after [`FairState::cap_hit`]).
    fn cap_step(&mut self, level: f64, min_link: usize, bound: f64) {
        let id = self.new_step(level, min_link, NONE);
        let mut hits = std::mem::take(&mut self.walk.hits);
        let slots = &self.slots;
        let mut floor = f64::INFINITY;
        self.walk.caps.retain(|&(fid, s)| {
            let cap = slots[s].cap;
            if cap <= bound {
                hits.push((fid, s));
                return false;
            }
            floor = floor.min(cap);
            true
        });
        self.walk.caps_floor = floor;
        hits.sort_unstable();
        for &(_, s) in &hits {
            self.fix(s, self.slots[s].cap, id, NONE);
        }
        hits.clear();
        self.walk.hits = hits;
    }

    /// A fresh step fixing every unfixed flow on `bottleneck` at `level`,
    /// in id order. Returns whether it fixed any.
    fn bottleneck_step(&mut self, level: f64, min_link: usize, bottleneck: usize) -> bool {
        let id = self.new_step(level, min_link, bottleneck);
        let mut fixed_any = false;
        for i in 0..self.on_link[bottleneck].len() {
            let s = self.on_link[bottleneck][i].1;
            if self.unfixed(s) {
                self.fix(s, level, id, bottleneck);
                fixed_any = true;
            }
        }
        fixed_any
    }

    /// The infinite-share step: no finite constraint remains, and every
    /// unfixed flow (all on P links) gets a huge-but-finite rate, to keep
    /// downstream arithmetic sane.
    fn infinite_step(&mut self) {
        let id = self.new_step(f64::INFINITY, NONE, NONE);
        self.trace.infinite = id;
        for i in 0..self.walk.p_live.len() {
            let l = self.walk.p_live[i];
            if self.links[l].load == 0 {
                continue;
            }
            for j in 0..self.on_link[l].len() {
                let s = self.on_link[l][j].1;
                if self.unfixed(s) {
                    let slot = &mut self.slots[s];
                    slot.rate = f64::MAX / 1e6;
                    slot.step = id;
                    self.trace.unbounded.push(s);
                    self.walk.unfixed -= 1;
                }
            }
        }
    }

    /// Compute the max–min fair rate of every flow; read them with
    /// [`FairState::rate`].
    pub(crate) fn solve(&mut self) {
        self.solve_steps();
        #[cfg(debug_assertions)]
        if !self.changes.short {
            self.check_against_a_fresh_solve();
        }
    }

    /// The solve of the module doc: keep, kill and run steps from the
    /// resume point on.
    fn solve_steps(&mut self) {
        self.work.solves += 1;
        let k = self.resume_point();
        let old = self.trace.order.len();
        let mut pending = 0;
        for &id in &self.trace.order[k..] {
            let step = &mut self.trace.steps[id];
            step.placed = false;
            step.relinks = NONE;
            pending += step.end - step.first;
        }
        // Each fix of a placed step gives one flow its rate; the flows of
        // pending steps count as unfixed from here on.
        self.walk.unfixed = self.slots.len() - self.free.len() - (self.trace.live - pending);
        let (full, short) = (self.changes.full, self.changes.short);
        self.walk.keeping = !full;
        self.walk.p_floor = f64::INFINITY;
        for i in 0..self.changes.links.len() {
            self.join(self.changes.links[i].0);
        }
        if short {
            for l in 0..self.links.len() {
                if !self.on_link[l].is_empty() {
                    self.join(l);
                }
            }
        }
        self.walk.caps_floor = f64::INFINITY;
        for i in 0..self.changes.added_capped.len() {
            let (id, s) = self.changes.added_capped[i];
            self.queue_capped(id, s);
        }
        self.changes.clear(&mut self.links);
        let mut cursor = k;
        if full {
            self.kill_all(k, old);
            cursor = old;
        }

        loop {
            if cursor == old && self.walk.unfixed == 0 {
                break;
            }
            let old_step = (cursor < old).then(|| self.trace.steps[self.trace.order[cursor]]);
            if let Some(step) = old_step {
                let id = self.trace.order[cursor];
                if doomed(&self.walk.in_p, &step) {
                    self.kill(id);
                    cursor += 1;
                    continue;
                }
                // The keep test on P's floor, without a scan.
                let bound = step.level + EPS;
                if self.walk.p_floor > bound && !self.cap_hit(bound) {
                    self.keep(id, step.min_link);
                    cursor += 1;
                    continue;
                }
            }
            let p_min = self.p_min();
            // The step's minimum share, and whether it is the old step's.
            let (level, repeats) = match old_step {
                Some(step) if p_min > step.level || p_min.to_bits() == step.level.to_bits() => {
                    (step.level, true)
                }
                Some(step) if p_min + EPS < step.level => (p_min, false),
                Some(_) => {
                    // The tie zone: P alone cannot tell which link a full
                    // scan would choose, so every old step left goes.
                    self.kill_all(cursor, old);
                    cursor = old;
                    continue;
                }
                None if self.walk.p_live.is_empty() => {
                    debug_assert!(false, "an unfixed flow is on no link of P");
                    break;
                }
                None => (p_min, false),
            };
            let bound = level + EPS;
            let cap_hit = self.cap_hit(bound);
            if repeats && !cap_hit && p_min > bound {
                let id = self.trace.order[cursor];
                self.keep(id, self.trace.steps[id].min_link);
                cursor += 1;
                continue;
            }
            let (first, at_level) = if level.is_finite() {
                self.p_ties(bound, level)
            } else {
                (NONE, NONE)
            };
            let min_link = match old_step {
                Some(step) if repeats => step.min_link.min(at_level),
                _ => at_level,
            };
            if cap_hit {
                self.cap_step(level, min_link, bound);
                continue;
            }
            if !level.is_finite() {
                self.infinite_step();
                break;
            }
            match old_step {
                Some(step) if repeats && step.bottleneck < first => {
                    self.keep(self.trace.order[cursor], min_link);
                    cursor += 1;
                }
                _ => {
                    if !self.bottleneck_step(level, min_link, first) {
                        debug_assert!(false, "water-filling made no progress");
                        // The trace stops short, so the next solve must
                        // not resume from it.
                        self.kill_all(cursor, old);
                        self.changes.full = true;
                        self.changes.short = true;
                        break;
                    }
                }
            }
        }

        // Splice the placed steps in after the resume point.
        let FairState { trace, walk, .. } = self;
        trace.order.truncate(k);
        for (i, &id) in walk.placed.iter().enumerate() {
            trace.pos[id] = k + i;
        }
        trace.order.append(&mut walk.placed);
        walk.in_p.fill(0);
        walk.p_live.clear();
        walk.caps.clear();
        walk.relinks.clear();
        trace.compact(&mut self.links);
    }

    /// The debug trace sanitizer: solve the same flows on a fresh state
    /// and require the same rates, and the same trace: levels (bits),
    /// minimum links, bottlenecks and every link's history.
    #[cfg(debug_assertions)]
    fn check_against_a_fresh_solve(&self) {
        let mut vacant = vec![false; self.slots.len()];
        for &s in &self.free {
            vacant[s] = true;
        }
        let mut flows: Vec<(u64, usize)> = (0..self.slots.len())
            .filter(|&s| !vacant[s])
            .map(|s| (self.slots[s].id, s))
            .collect();
        flows.sort_unstable();
        let mut fresh = FairState::default();
        for link in &self.links {
            fresh.add_link(link.capacity);
        }
        for &(id, s) in &flows {
            let f = &self.slots[s];
            fresh.add_flow(id, f.egress, f.ingress, f.cap);
        }
        fresh.solve_steps();
        for (t, &(id, s)) in flows.iter().enumerate() {
            let (got, want) = (self.slots[s].rate, fresh.slots[t].rate);
            assert_eq!(got.to_bits(), want.to_bits(), "flow {id}: rate");
        }
        let steps = |state: &FairState| -> Vec<(u64, usize, usize)> {
            let trace = &state.trace;
            trace
                .order
                .iter()
                .map(|&id| {
                    let st = &trace.steps[id];
                    (st.level.to_bits(), st.min_link, st.bottleneck)
                })
                .collect()
        };
        assert_eq!(steps(self), steps(&fresh), "steps (level, min, bottleneck)");
        let (mut got, mut want) = (Vec::new(), Vec::new());
        for (l, link) in self.links.iter().enumerate() {
            self.trace.history_of(link, &mut got);
            fresh.trace.history_of(&fresh.links[l], &mut want);
            let bits =
                |h: &[(usize, f64)]| h.iter().map(|&(j, r)| (j, r.to_bits())).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "link {l}: history");
            // The next resume reads a loaded link's `remaining`.
            if !self.on_link[l].is_empty() {
                let (got, want) = (link.remaining, fresh.links[l].remaining);
                assert_eq!(got.to_bits(), want.to_bits(), "link {l}: remaining");
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

    #[test]
    fn a_change_in_one_component_leaves_the_others_steps_in_place() {
        // Component A: link 0 (10) shared by flows from links 1 and 2.
        // Component B: link 10 (100) shared by flows from links 11 to 14.
        // Step 0 fixes A's flows at 5 and step 1 B's at 25. A third flow
        // into link 0 kills step 0 and runs one fresh step at 10 / 3;
        // B's step is kept, so its four fixes are neither undone nor
        // redone.
        let mut caps = vec![1000.0; 15];
        caps[0] = 10.0;
        caps[10] = 100.0;
        let mut state = FairState::default();
        for &c in &caps {
            state.add_link(c);
        }
        let mut flows = Vec::new();
        for (id, e, g) in [
            (0, 1, 0),
            (1, 2, 0),
            (2, 11, 10),
            (3, 12, 10),
            (4, 13, 10),
            (5, 14, 10),
        ] {
            flows.push((state.add_flow(id, e, g, INF), spec(e, g, INF)));
        }
        solve_and_check(&mut state, &flows, &caps);
        let before = state.work();
        assert_eq!((before.iterations, before.fixes), (2, 6), "{before:?}");
        flows.push((state.add_flow(6, 3, 0, INF), spec(3, 0, INF)));
        solve_and_check(&mut state, &flows, &caps);
        let after = state.work();
        let run = (
            after.iterations - before.iterations,
            after.fixes - before.fixes,
        );
        assert_eq!(run, (1, 3), "{after:?}");
        assert_eq!(state.rate(flows[0].0), 10.0 / 3.0);
        assert_eq!(state.rate(flows[2].0), 25.0);
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
