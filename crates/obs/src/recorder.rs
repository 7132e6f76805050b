//! The pluggable recording backend.
//!
//! Instrumented code holds a `&mut dyn Recorder` and checks
//! [`Recorder::is_enabled`] before constructing spans, so the default
//! [`NullRecorder`] path does no allocation and no work beyond one
//! virtual call per would-be event.

use crate::span::{InstantEvent, Span};

/// A sink for observability events.
pub trait Recorder {
    /// False for recorders that drop everything; instrumentation uses
    /// this to skip building events entirely.
    fn is_enabled(&self) -> bool {
        true
    }

    /// Record a completed span.
    fn span(&mut self, span: Span);

    /// Record an instant event.
    fn instant(&mut self, ev: InstantEvent);

    /// Record a counter sample: `name` at time `t_us` on lane `track`
    /// has absolute value `value`.
    fn counter(&mut self, name: &'static str, track: u32, t_us: u64, value: f64);
}

/// The zero-cost default: drops everything, reports itself disabled.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullRecorder;

impl Recorder for NullRecorder {
    fn is_enabled(&self) -> bool {
        false
    }

    fn span(&mut self, _span: Span) {}

    fn instant(&mut self, _ev: InstantEvent) {}

    fn counter(&mut self, _name: &'static str, _track: u32, _t_us: u64, _value: f64) {}
}

/// Forwarding through a borrow, so a [`Tee`] can hold recorders the
/// caller reads back after the run.
impl<R: Recorder + ?Sized> Recorder for &mut R {
    fn is_enabled(&self) -> bool {
        (**self).is_enabled()
    }

    fn span(&mut self, span: Span) {
        (**self).span(span);
    }

    fn instant(&mut self, ev: InstantEvent) {
        (**self).instant(ev);
    }

    fn counter(&mut self, name: &'static str, track: u32, t_us: u64, value: f64) {
        (**self).counter(name, track, t_us, value);
    }
}

/// Sends every event to both recorders, in order: how a figure cell
/// that also exports records one run into a `FigureRecorder` and a
/// [`MemoryRecorder`].
#[derive(Clone, Debug, Default)]
pub struct Tee<A, B>(pub A, pub B);

impl<A: Recorder, B: Recorder> Recorder for Tee<A, B> {
    fn is_enabled(&self) -> bool {
        self.0.is_enabled() || self.1.is_enabled()
    }

    fn span(&mut self, span: Span) {
        self.0.span(span.clone());
        self.1.span(span);
    }

    fn instant(&mut self, ev: InstantEvent) {
        self.0.instant(ev.clone());
        self.1.instant(ev);
    }

    fn counter(&mut self, name: &'static str, track: u32, t_us: u64, value: f64) {
        self.0.counter(name, track, t_us, value);
        self.1.counter(name, track, t_us, value);
    }
}

/// One recorded counter sample.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CounterSample {
    /// Counter name.
    pub name: &'static str,
    /// Lane.
    pub track: u32,
    /// When, microseconds since run origin.
    pub t_us: u64,
    /// Absolute value at `t_us`.
    pub value: f64,
}

/// Collects everything in memory, in arrival order, for export.
#[derive(Clone, Debug, Default)]
pub struct MemoryRecorder {
    spans: Vec<Span>,
    instants: Vec<InstantEvent>,
    counters: Vec<CounterSample>,
}

impl MemoryRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Recorded spans, in arrival order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Recorded instant events, in arrival order.
    pub fn instants(&self) -> &[InstantEvent] {
        &self.instants
    }

    /// Recorded counter samples, in arrival order.
    pub fn counters(&self) -> &[CounterSample] {
        &self.counters
    }

    /// Spans of one category.
    pub fn spans_in<'a>(&'a self, category: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.category == category)
    }
}

impl Recorder for MemoryRecorder {
    fn span(&mut self, span: Span) {
        self.spans.push(span);
    }

    fn instant(&mut self, ev: InstantEvent) {
        self.instants.push(ev);
    }

    fn counter(&mut self, name: &'static str, track: u32, t_us: u64, value: f64) {
        self.counters.push(CounterSample {
            name,
            track,
            t_us,
            value,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{category, Attr};

    fn span(name: &str, cat: &'static str) -> Span {
        Span {
            name: name.into(),
            category: cat,
            start_us: 0,
            end_us: 1,
            track: 0,
            attrs: vec![Attr::u64("x", 1)],
        }
    }

    #[test]
    fn null_recorder_is_disabled() {
        let mut r = NullRecorder;
        assert!(!r.is_enabled());
        r.span(span("a", category::TASK));
        r.counter("c", 0, 0, 1.0);
    }

    #[test]
    fn memory_recorder_collects_in_order() {
        let mut r = MemoryRecorder::new();
        assert!(r.is_enabled());
        r.span(span("a", category::TASK));
        r.span(span("b", category::MANAGER));
        r.instant(InstantEvent {
            name: "preempt".into(),
            category: category::WORKER,
            t_us: 5,
            track: 1,
            attrs: vec![],
        });
        r.counter("tasks.running", 0, 7, 2.0);
        assert_eq!(r.spans().len(), 2);
        assert_eq!(r.spans_in(category::TASK).count(), 1);
        assert_eq!(r.instants().len(), 1);
        assert_eq!(r.counters()[0].value, 2.0);
    }

    #[test]
    fn tee_feeds_both_sides_in_order() {
        let (mut a, mut b) = (MemoryRecorder::new(), MemoryRecorder::new());
        {
            let mut tee = Tee(&mut a, &mut b);
            assert!(tee.is_enabled());
            tee.span(span("a", category::TASK));
            tee.counter("c", 0, 3, 1.0);
        }
        assert_eq!(a.spans(), b.spans());
        assert_eq!(a.counters(), b.counters());
        assert!(Tee(NullRecorder, &mut a).is_enabled());
        assert!(!Tee(NullRecorder, NullRecorder).is_enabled());
    }
}
