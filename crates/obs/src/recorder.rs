//! The recorder hook trait and its two implementations.

use crate::event::{Event, TimedEvent};
use crate::registry::Registry;
use std::collections::VecDeque;
use std::time::Instant;

/// The hook the RMS calls at every observable instant.
///
/// Implementations must be *passive*: a recorder may be arbitrarily
/// expensive or cheap, but it never influences a decision — the core
/// pins this contract with a bitwise-identity property test. Hook
/// sites gate all event construction on [`Recorder::enabled`], so a
/// disabled recorder costs one branch per site.
pub trait Recorder {
    /// `false` lets hook sites skip event construction entirely.
    fn enabled(&self) -> bool {
        true
    }

    /// Records one event at simulated instant `sim_secs`.
    fn record(&mut self, sim_secs: f64, event: Event);

    /// [`Recorder::record`] from a hook site that has just read the
    /// wall clock itself: a recorder that stamps events stamps this one
    /// at `wall` instead of reading the clock again. Defaults to
    /// `record`.
    fn record_at(&mut self, sim_secs: f64, wall: Instant, event: Event) {
        let _ = wall;
        self.record(sim_secs, event);
    }

    /// The metrics registry fed by this recorder, if it keeps one.
    fn registry_mut(&mut self) -> Option<&mut Registry> {
        None
    }

    /// Whether hook sites should sample *policy audit gauges* (Libra's
    /// peak share sum, LibraRisk's cluster risk) around every decision.
    ///
    /// These are the one hook with a real price: sampling LibraRisk's
    /// cluster risk re-projects every occupied node, which costs a
    /// double-digit percentage of end-to-end replay throughput. All
    /// other decision audit fields (verdict, rejection reason, best-fit
    /// node, queue depth) are near-free and always gathered. Defaults
    /// to `false`; recorders built for deep decision forensics opt in.
    fn wants_audit_gauges(&self) -> bool {
        false
    }
}

/// The default recorder: records nothing, reports itself disabled.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&mut self, _sim_secs: f64, _event: Event) {}
}

/// A bounded ring-buffer recorder with an owned metrics registry.
///
/// On overflow the *oldest* events are dropped (the tail of a run is
/// usually what a post-mortem needs) and counted in
/// [`TraceRecorder::dropped`]. Wall-clock stamps are nanoseconds since
/// the recorder's construction, so traces from one run share an epoch.
#[derive(Debug)]
pub struct TraceRecorder {
    capacity: usize,
    buf: VecDeque<TimedEvent>,
    dropped: u64,
    registry: Registry,
    epoch: Instant,
    audit_gauges: bool,
}

impl TraceRecorder {
    /// A recorder holding at most `capacity` events (minimum 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        TraceRecorder {
            capacity,
            buf: VecDeque::with_capacity(capacity.min(64 * 1024)),
            dropped: 0,
            registry: Registry::new(),
            epoch: Instant::now(),
            audit_gauges: false,
        }
    }

    /// Opts into per-decision policy audit gauges (see
    /// [`Recorder::wants_audit_gauges`] for the cost trade-off).
    pub fn with_audit_gauges(mut self) -> Self {
        self.audit_gauges = true;
        self
    }

    /// Maximum events retained.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events currently held, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TimedEvent> {
        self.buf.iter()
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` when nothing has been recorded (or everything dropped).
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Events evicted by ring overflow since construction.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The owned registry, read-only.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Removes and returns every retained event, stably sorted by
    /// simulated timestamp.
    ///
    /// The ring holds events in *recording* order, which is not
    /// globally time-sorted: span-level events are stamped at their
    /// span's end instant but recorded before the resolutions inside
    /// the span. The stable sort keeps equal-timestamp events in
    /// recording order, so one drained ring is a valid input stream for
    /// [`merge_traces`]. The drop counter and the registry are left
    /// untouched; the ring is empty afterwards.
    pub fn drain_sorted(&mut self) -> Vec<TimedEvent> {
        let mut events: Vec<TimedEvent> = self.buf.drain(..).collect();
        events.sort_by(|a, b| a.sim_secs.total_cmp(&b.sim_secs));
        events
    }

    /// Serialises the retained events as JSONL (one event per line).
    pub fn to_jsonl(&self) -> String {
        crate::export::jsonl(self.events())
    }

    /// Serialises the retained events as Chrome `trace_event` JSON.
    pub fn to_chrome_trace(&self) -> String {
        crate::export::chrome_trace(self.events())
    }
}

impl Recorder for TraceRecorder {
    fn record(&mut self, sim_secs: f64, event: Event) {
        self.record_at(sim_secs, Instant::now(), event);
    }

    fn record_at(&mut self, sim_secs: f64, wall: Instant, event: Event) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
            self.registry.inc("obs_events_dropped_total");
        }
        self.buf.push_back(TimedEvent {
            sim_secs,
            wall_ns: wall.saturating_duration_since(self.epoch).as_nanos() as u64,
            event,
        });
    }

    fn registry_mut(&mut self) -> Option<&mut Registry> {
        Some(&mut self.registry)
    }

    fn wants_audit_gauges(&self) -> bool {
        self.audit_gauges
    }
}

/// One merged view over N per-shard recorder rings.
#[derive(Debug, Default)]
pub struct MergedTrace {
    /// The union of every ring's events, in simulated-timestamp order
    /// (ties keep the lower source index first, and each source's own
    /// order within a tie).
    pub events: Vec<TimedEvent>,
    /// Exact combined overflow accounting: the sum of every source
    /// ring's [`TraceRecorder::dropped`]. The merged event list is
    /// complete except for exactly this many evictions.
    pub dropped: u64,
    /// Every source's metrics registry folded together via
    /// [`Registry::merge`].
    pub registry: Registry,
}

/// K-way merges per-shard recorder rings into one timestamp-ordered
/// trace — the fleet view of a sharded run.
///
/// Each ring is drained via [`TraceRecorder::drain_sorted`] and the
/// sorted streams merge by comparing current heads only (each stream is
/// nondecreasing after the sort, so the result is globally ordered).
/// Drop accounting is exact: `dropped` is the sum over sources, and the
/// merged registry's `obs_events_dropped_total` counter agrees because
/// counters merge additively.
pub fn merge_traces(recorders: impl IntoIterator<Item = TraceRecorder>) -> MergedTrace {
    let mut streams: Vec<std::iter::Peekable<std::vec::IntoIter<TimedEvent>>> = Vec::new();
    let mut dropped = 0u64;
    let mut registry = Registry::new();
    let mut total = 0usize;
    for mut rec in recorders {
        dropped += rec.dropped();
        registry.merge(rec.registry());
        let events = rec.drain_sorted();
        total += events.len();
        streams.push(events.into_iter().peekable());
    }
    let mut events = Vec::with_capacity(total);
    loop {
        let mut best: Option<(f64, usize)> = None;
        for (i, stream) in streams.iter_mut().enumerate() {
            if let Some(head) = stream.peek() {
                // Strict less-than: an equal later head never displaces
                // an earlier source, which is what makes ties stable.
                let better = match best {
                    None => true,
                    Some((key, _)) => head.sim_secs.total_cmp(&key).is_lt(),
                };
                if better {
                    best = Some((head.sim_secs, i));
                }
            }
        }
        match best {
            Some((_, i)) => events.push(streams[i].next().expect("peeked head exists")),
            None => break,
        }
    }
    MergedTrace {
        events,
        dropped,
        registry,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node_down(n: u32) -> Event {
        Event::NodeDown { node: n }
    }

    #[test]
    fn noop_is_disabled_and_inert() {
        let mut r = NoopRecorder;
        assert!(!r.enabled());
        r.record(1.0, node_down(0));
        assert!(r.registry_mut().is_none());
    }

    #[test]
    fn ring_keeps_newest_and_counts_drops() {
        let mut r = TraceRecorder::new(3);
        for n in 0..7u32 {
            r.record(n as f64, node_down(n));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped(), 4);
        assert_eq!(r.registry().counter("obs_events_dropped_total"), 4);
        let kept: Vec<u32> = r
            .events()
            .map(|te| match te.event {
                Event::NodeDown { node } => node,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(kept, vec![4, 5, 6], "oldest events are the ones dropped");
    }

    #[test]
    fn wall_stamps_are_monotone() {
        let mut r = TraceRecorder::new(16);
        for n in 0..5u32 {
            r.record(0.0, node_down(n));
        }
        let stamps: Vec<u64> = r.events().map(|te| te.wall_ns).collect();
        assert!(stamps.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn record_at_stamps_the_given_instant() {
        let mut r = TraceRecorder::new(4);
        let wall = Instant::now();
        r.record_at(0.0, wall, node_down(0));
        r.record(0.0, node_down(1));
        let stamps: Vec<u64> = r.events().map(|te| te.wall_ns).collect();
        let want = wall.saturating_duration_since(r.epoch).as_nanos() as u64;
        assert_eq!(stamps[0], want);
        assert!(stamps[0] <= stamps[1]);
    }

    #[test]
    fn audit_gauges_are_opt_in() {
        assert!(!TraceRecorder::new(4).wants_audit_gauges());
        assert!(TraceRecorder::new(4)
            .with_audit_gauges()
            .wants_audit_gauges());
        assert!(!NoopRecorder.wants_audit_gauges());
    }

    #[test]
    fn drain_sorted_time_orders_span_stamped_events() {
        let mut r = TraceRecorder::new(8);
        // Recording order is not time order: a span-end event lands
        // before the resolutions inside the span.
        for s in [5.0, 1.0, 3.0, 1.0] {
            r.record(s, node_down(s as u32));
        }
        let drained = r.drain_sorted();
        let stamps: Vec<f64> = drained.iter().map(|e| e.sim_secs).collect();
        assert_eq!(stamps, vec![1.0, 1.0, 3.0, 5.0]);
        assert!(r.is_empty(), "drained");
        assert_eq!(r.dropped(), 0);
    }

    #[test]
    fn merge_traces_interleaves_overlapping_ranges_with_exact_drops() {
        // Overlapping timestamp ranges: a covers [0,6], b covers [1,7].
        let mut a = TraceRecorder::new(2);
        for s in [0.0, 2.0, 4.0, 6.0] {
            a.record(s, node_down(0));
        }
        let mut b = TraceRecorder::new(8);
        for s in [1.0, 3.0, 5.0, 7.0] {
            b.record(s, node_down(1));
        }
        assert_eq!(a.dropped(), 2, "ring of 2 evicted the oldest two");
        let merged = merge_traces([a, b]);
        let stamps: Vec<f64> = merged.events.iter().map(|e| e.sim_secs).collect();
        assert_eq!(stamps, vec![1.0, 3.0, 4.0, 5.0, 6.0, 7.0]);
        assert_eq!(merged.dropped, 2, "combined drop accounting is exact");
        assert_eq!(merged.registry.counter("obs_events_dropped_total"), 2);
    }

    #[test]
    fn merge_traces_breaks_timestamp_ties_by_source_order() {
        let mk = |node: u32| {
            let mut r = TraceRecorder::new(8);
            r.record(1.0, node_down(node));
            r.record(1.0, node_down(node + 10));
            r
        };
        let merged = merge_traces([mk(0), mk(1)]);
        let nodes: Vec<u32> = merged
            .events
            .iter()
            .map(|te| match te.event {
                Event::NodeDown { node } => node,
                _ => unreachable!(),
            })
            .collect();
        // Source 0's pair first (in its own order), then source 1's.
        assert_eq!(nodes, vec![0, 10, 1, 11]);
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let mut r = TraceRecorder::new(0);
        r.record(0.0, node_down(1));
        r.record(1.0, node_down(2));
        assert_eq!(r.len(), 1);
        assert_eq!(r.dropped(), 1);
    }
}
