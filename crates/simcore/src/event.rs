//! Deterministic event queue with lazy cancellation.
//!
//! Events at equal timestamps pop in insertion (FIFO) order — essential for
//! reproducibility, because scheduler decisions (task placement, peer
//! transfer throttling) depend on the order ready events are observed.
//!
//! [`EventQueue`] is one binary heap popping in exact global `(time, id)`
//! order. Cancellation marks a dense per-id state byte instead of
//! searching the heap (network flow completions are rescheduled every time
//! bandwidth shares change); a cancelled entry is dropped at the top.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// Handle to a scheduled event, usable to cancel it before it fires.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct EventId(u64);

/// Per-event lifecycle states in the dense `states` array.
const ST_PENDING: u8 = 0;
const ST_CANCELLED: u8 = 1;
const ST_DEAD: u8 = 2;
/// Taken by [`EventQueue::reserve`], not yet scheduled.
const ST_RESERVED: u8 = 3;

struct Slot<E> {
    /// Absolute time in microseconds.
    t: u64,
    id: u64,
    payload: E,
}

impl<E> PartialEq for Slot<E> {
    fn eq(&self, other: &Self) -> bool {
        (self.t, self.id) == (other.t, other.id)
    }
}
impl<E> Eq for Slot<E> {}
impl<E> PartialOrd for Slot<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Slot<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // `BinaryHeap` is a max-heap: invert so the earliest `(t, id)` is
        // on top. Ids are monotone, giving FIFO order within a timestamp.
        (other.t, other.id).cmp(&(self.t, self.id))
    }
}

/// Priority queue of timestamped events.
///
/// `E` is the event payload type of the engine that drives the run (e.g.
/// `vine-core`'s `SimEvent`).
pub struct EventQueue<E> {
    heap: BinaryHeap<Slot<E>>,
    /// Lifecycle per `EventId`, indexed by id; its length is the next id.
    states: Vec<u8>,
    /// Live (pending, non-cancelled) event count.
    live: usize,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            states: Vec::new(),
            live: 0,
        }
    }

    /// Schedule `payload` to fire at `time`. Returns a handle for
    /// cancellation. Scheduling in the past is permitted (the caller's
    /// engine decides whether that is an error) — entries still pop in
    /// global (time, insertion) order.
    pub fn schedule(&mut self, time: SimTime, payload: E) -> EventId {
        let id = self.reserve();
        self.schedule_reserved(id, time, payload);
        id
    }

    /// Take the next id without scheduling anything. An event scheduled
    /// under it later with [`EventQueue::schedule_reserved`] pops as if it
    /// had been scheduled now: after the events scheduled before this
    /// call and before those scheduled after it, among equal times. An id
    /// that is never used shifts the later ids but no relative order.
    pub fn reserve(&mut self) -> EventId {
        self.states.push(ST_RESERVED);
        EventId(self.states.len() as u64 - 1)
    }

    /// Schedule `payload` at `time` under `id`, which must come from
    /// [`EventQueue::reserve`] and not have been used yet.
    ///
    /// # Panics
    /// If `id` is not an unused reservation.
    pub fn schedule_reserved(&mut self, id: EventId, time: SimTime, payload: E) {
        let st = &mut self.states[id.0 as usize];
        assert!(*st == ST_RESERVED, "{id:?} is not an unused reservation");
        *st = ST_PENDING;
        self.live += 1;
        let (t, id) = (time.as_micros(), id.0);
        self.heap.push(Slot { t, id, payload });
    }

    /// Cancel a previously scheduled event. Returns `true` if the event was
    /// still pending (i.e. had not fired and was not already cancelled).
    pub fn cancel(&mut self, id: EventId) -> bool {
        match self.states.get_mut(id.0 as usize) {
            Some(st) if *st == ST_PENDING => {
                *st = ST_CANCELLED;
                self.live -= 1;
                true
            }
            _ => false,
        }
    }

    /// Remove and return the earliest live event as `(time, payload)`.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        while let Some(slot) = self.heap.pop() {
            let st = &mut self.states[slot.id as usize];
            let was_pending = *st == ST_PENDING;
            *st = ST_DEAD;
            if was_pending {
                self.live -= 1;
                return Some((SimTime::from_micros(slot.t), slot.payload));
            }
        }
        None
    }

    /// The timestamp of the earliest live event, without removing it.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        // Sweep cancelled entries off the top so peek is accurate.
        while let Some(slot) = self.heap.peek() {
            let st = &mut self.states[slot.id as usize];
            if *st == ST_PENDING {
                return Some(SimTime::from_micros(slot.t));
            }
            *st = ST_DEAD;
            self.heap.pop();
        }
        None
    }

    /// Number of live (pending, non-cancelled) events.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True if no live events remain.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(t(3), "c");
        q.schedule(t(1), "a");
        q.schedule(t(2), "b");
        assert_eq!(q.pop(), Some((t(1), "a")));
        assert_eq!(q.pop(), Some((t(2), "b")));
        assert_eq!(q.pop(), Some((t(3), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn equal_times_pop_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(t(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t(5), i)));
        }
    }

    #[test]
    fn cancel_removes_event() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1), "a");
        q.schedule(t(2), "b");
        assert!(q.cancel(a));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((t(2), "b")));
        assert!(q.is_empty());
    }

    #[test]
    fn double_cancel_returns_false() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1), ());
        assert!(q.cancel(a));
        assert!(!q.cancel(a));
    }

    #[test]
    fn cancel_after_pop_returns_false() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1), ());
        q.pop();
        assert!(!q.cancel(a));
    }

    #[test]
    fn cancel_unknown_id_returns_false() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(!q.cancel(EventId(42)));
    }

    #[test]
    fn peek_time_skips_cancelled() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1), "a");
        q.schedule(t(2), "b");
        q.cancel(a);
        assert_eq!(q.peek_time(), Some(t(2)));
        assert_eq!(q.pop(), Some((t(2), "b")));
    }

    #[test]
    fn len_tracks_live_events() {
        let mut q = EventQueue::new();
        let ids: Vec<_> = (0..10).map(|i| q.schedule(t(i), i)).collect();
        assert_eq!(q.len(), 10);
        q.cancel(ids[3]);
        q.cancel(ids[7]);
        assert_eq!(q.len(), 8);
        let mut popped = 0;
        while q.pop().is_some() {
            popped += 1;
        }
        assert_eq!(popped, 8);
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut q = EventQueue::new();
        q.schedule(t(10), 10);
        q.schedule(t(5), 5);
        assert_eq!(q.pop(), Some((t(5), 5)));
        q.schedule(t(7), 7);
        q.schedule(t(6), 6);
        assert_eq!(q.pop(), Some((t(6), 6)));
        assert_eq!(q.pop(), Some((t(7), 7)));
        assert_eq!(q.pop(), Some((t(10), 10)));
    }

    #[test]
    fn scheduling_into_the_past_pops_first() {
        let mut q = EventQueue::new();
        for s in [100, 200, 300] {
            q.schedule(t(s), s);
        }
        assert_eq!(q.pop(), Some((t(100), 100)));
        // Earlier than everything live, later than the last pop.
        q.schedule(t(150), 150);
        q.schedule(t(150), 151);
        assert_eq!(q.pop(), Some((t(150), 150)));
        assert_eq!(q.pop(), Some((t(150), 151)));
        assert_eq!(q.pop(), Some((t(200), 200)));
    }

    #[test]
    fn far_horizon_reprime_preserves_order() {
        let mut q = EventQueue::new();
        // Gaps from one microsecond to an hour.
        let times = [0u64, 1, 2, 1_000, 1_000_000, 3_600_000_000, 3_600_000_001];
        for (i, &us) in times.iter().enumerate() {
            q.schedule(SimTime::from_micros(us), i);
        }
        for (i, &us) in times.iter().enumerate() {
            assert_eq!(q.pop(), Some((SimTime::from_micros(us), i)));
        }
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn reserved_id_pops_in_id_order_in_every_tier() {
        // Times just after the last pop, before the pending "horizon"
        // event, and far beyond it.
        let at = |us: u64| SimTime::from_micros(us);
        for (us, tier) in [(500, "near"), (50_000, "mid"), (10_000_000, "far")] {
            let mut q = EventQueue::new();
            q.schedule(at(0), "start");
            q.schedule(at(256_000), "horizon");
            assert_eq!(q.pop(), Some((at(0), "start")));
            let before = q.schedule(at(us), "before");
            let r = q.reserve();
            let after = q.schedule(at(us), "after");
            assert!(before < r && r < after, "{tier}");
            assert_eq!(q.len(), 3, "{tier}: a reservation is not an event");
            q.schedule_reserved(r, at(us), "reserved");
            assert_eq!(q.len(), 4, "{tier}");
            let mut order: Vec<&str> = Vec::new();
            while let Some((t, e)) = q.pop() {
                if t == at(us) {
                    order.push(e);
                }
            }
            assert_eq!(order, ["before", "reserved", "after"], "{tier}");
        }
    }

    #[test]
    fn unused_reservation_cannot_be_cancelled() {
        let mut q: EventQueue<()> = EventQueue::new();
        let r = q.reserve();
        assert!(!q.cancel(r));
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    #[test]
    #[should_panic(expected = "not an unused reservation")]
    fn a_reservation_is_used_once() {
        let mut q = EventQueue::new();
        let r = q.reserve();
        q.schedule_reserved(r, t(1), ());
        q.schedule_reserved(r, t(2), ());
    }
}
