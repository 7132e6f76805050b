//! The record of the last solve that the next one splices (see the
//! parent module's "Resuming a solve").
//!
//! A step has a stable id: [`Trace::order`] lists the ids in step order
//! and [`Trace::pos`] maps an id back to its place in it, so a solve that
//! kills a step or inserts one between two kept steps renumbers nothing
//! that stays. A step's fixes are a contiguous run of [`Trace::fixes`],
//! appended as it makes them. Each fix holds, per side, its link's
//! `remaining` just before it and the link's previous fix, so the fixes on
//! one link chain into that link's history, newest first from
//! [`super::LinkState::last_fix`].
//!
//! A killed step leaves its run behind as a hole. Once the holes outnumber
//! the live fixes by 1 024, [`Trace::compact`] copies the live runs out in step order
//! and renumbers the chains, so the fix list stays about as long as the
//! last solve and a link's history runs backwards through memory.

use super::LinkState;

/// No link, step or fix.
pub(super) const NONE: usize = usize::MAX;

/// One step (pass of the water-filling loop).
#[derive(Clone, Copy)]
pub(super) struct Step {
    /// The step's minimum share.
    pub level: f64,
    /// The lowest-index link whose share is the minimum ([`NONE`] when
    /// every share is infinite).
    pub min_link: usize,
    /// The link whose flows the step fixed; [`NONE`] for a cap step and
    /// for the infinite-share step.
    pub bottleneck: usize,
    /// The step's fixes are `fixes[first..end]`.
    pub first: usize,
    pub end: usize,
    /// How many of its fixes are of a flow whose two links are one.
    pub loops: usize,
    /// The head of the step's list of cut fixes in the solve's relink
    /// queue ([`NONE`] if empty).
    pub relinks: usize,
    /// The step holds its place in the current order. A solve clears it
    /// on every step from its resume point on, and sets it again on the
    /// steps it keeps; a flow whose step is not placed is unfixed.
    pub placed: bool,
}

/// One fix: a flow given its rate. Its links are kept because the slot
/// may hold another flow by the next solve. Side 0 is the egress link
/// and side 1 the ingress link.
#[derive(Clone, Copy)]
pub(super) struct Fix {
    pub slot: usize,
    pub links: [usize; 2],
    /// Each link's `remaining` just before the fix.
    pub before: [f64; 2],
    /// Each link's previous fix as `2 * fix + side` ([`NONE`] if none).
    pub prev: [usize; 2],
}

/// What the last solve did, for the next one to resume from.
#[derive(Default)]
pub(super) struct Trace {
    /// By step id; the ids in `free_steps` are vacant.
    pub steps: Vec<Step>,
    free_steps: Vec<usize>,
    /// Step ids in step order.
    pub order: Vec<usize>,
    /// By step id: its index in `order` (valid between solves).
    pub pos: Vec<usize>,
    /// Every step's run of fixes, and the holes killed steps left.
    pub fixes: Vec<Fix>,
    /// By fix: the id of the step that made it. Kept apart from
    /// [`Fix`] so that a history walk learns where to stop without
    /// reading the fix it stops at.
    pub step_of: Vec<usize>,
    /// How many entries of `fixes` belong to live steps.
    pub live: usize,
    /// The slots the infinite-share step gave the unconstrained rate.
    pub unbounded: Vec<usize>,
    /// The id of the infinite-share step ([`NONE`] if none).
    pub infinite: usize,
    /// Scratch for [`Trace::compact`]: the new fix list, and each old
    /// fix's new index.
    spare: Vec<Fix>,
    moved: Vec<usize>,
}

impl Trace {
    /// Forget every step and fix.
    pub fn clear(&mut self) {
        self.steps.clear();
        self.free_steps.clear();
        self.order.clear();
        self.pos.clear();
        self.fixes.clear();
        self.step_of.clear();
        self.live = 0;
        self.unbounded.clear();
        self.infinite = NONE;
    }

    /// A new placed step with no fixes yet; returns its id. Its fixes
    /// must come before the next step's.
    pub fn new_step(&mut self, level: f64, min_link: usize, bottleneck: usize) -> usize {
        let step = Step {
            level,
            min_link,
            bottleneck,
            first: self.fixes.len(),
            end: self.fixes.len(),
            loops: 0,
            relinks: NONE,
            placed: true,
        };
        match self.free_steps.pop() {
            Some(id) => {
                self.steps[id] = step;
                id
            }
            None => {
                self.steps.push(step);
                self.pos.push(NONE);
                self.steps.len() - 1
            }
        }
    }

    /// Free step `id` and its fixes. Nothing may refer to them any more:
    /// their links' histories no longer reach them, and no slot names
    /// the step.
    pub fn free_step(&mut self, id: usize) {
        let step = &self.steps[id];
        self.live -= step.end - step.first;
        if id == self.infinite {
            self.unbounded.clear();
            self.infinite = NONE;
        }
        self.free_steps.push(id);
    }

    /// Give the flow in slot `s` over `links` rate `r` in step `step`, the
    /// newest step: append a fix to the step and to both links'
    /// histories, and take it off the links.
    pub fn fix(
        &mut self,
        s: usize,
        links: [usize; 2],
        r: f64,
        step: usize,
        states: &mut [LinkState],
    ) {
        let f = self.fixes.len();
        debug_assert_eq!(self.steps[step].end, f, "a step's fixes must be contiguous");
        let mut fix = Fix {
            slot: s,
            links,
            before: [0.0; 2],
            prev: [NONE; 2],
        };
        for side in 0..2 {
            let link = &mut states[links[side]];
            fix.before[side] = link.remaining;
            fix.prev[side] = link.last_fix;
            link.last_fix = 2 * f + side;
            link.fixed += 1;
            link.take(r);
        }
        self.fixes.push(fix);
        self.step_of.push(step);
        let st = &mut self.steps[step];
        st.end = f + 1;
        st.loops += usize::from(links[0] == links[1]);
        self.live += 1;
    }

    /// Re-apply side `side` of fix `f`, at rate `r`, to a link whose
    /// history was cut before it: the fix becomes the link's latest, with
    /// the link's present `remaining` as its `before`. Returns the link.
    pub fn relink(&mut self, f: usize, side: usize, r: f64, states: &mut [LinkState]) -> usize {
        let fix = &mut self.fixes[f];
        let l = fix.links[side];
        let link = &mut states[l];
        fix.before[side] = link.remaining;
        fix.prev[side] = link.last_fix;
        link.last_fix = 2 * f + side;
        link.fixed += 1;
        link.take(r);
        l
    }

    /// Drop the holes once they outnumber the live fixes: copy the live
    /// runs out in step order and renumber every reference to a fix.
    pub fn compact(&mut self, states: &mut [LinkState]) {
        if self.fixes.len() <= 2 * self.live + 1024 {
            return;
        }
        let Trace {
            steps,
            order,
            fixes,
            step_of,
            spare,
            moved,
            ..
        } = self;
        moved.clear();
        moved.resize(fixes.len(), NONE);
        spare.clear();
        step_of.clear();
        for &id in order.iter() {
            let step = &mut steps[id];
            let first = spare.len();
            for f in step.first..step.end {
                moved[f] = spare.len();
                spare.push(fixes[f]);
            }
            (step.first, step.end) = (first, spare.len());
            step_of.resize(spare.len(), id);
        }
        let renumber = |at: usize| match at {
            NONE => NONE,
            at => 2 * moved[at / 2] + at % 2,
        };
        for fix in spare.iter_mut() {
            fix.prev = fix.prev.map(renumber);
        }
        for link in states.iter_mut() {
            link.last_fix = renumber(link.last_fix);
        }
        std::mem::swap(fixes, spare);
        debug_assert_eq!(fixes.len(), self.live);
    }

    /// `link`'s fixes, oldest first, as (step position, `remaining` just
    /// before), into `out`.
    pub fn history_of(&self, link: &LinkState, out: &mut Vec<(usize, f64)>) {
        out.clear();
        let mut at = link.last_fix;
        for _ in 0..link.fixed {
            let (fix, side) = (&self.fixes[at / 2], at % 2);
            out.push((self.pos[self.step_of[at / 2]], fix.before[side]));
            at = fix.prev[side];
        }
        debug_assert_eq!(at, NONE, "a link's chain is longer than its fixes");
        out.reverse();
    }
}
