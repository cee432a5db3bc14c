//! Hot-path phase profiler: named wall-clock phases over the engine's
//! advance and decide paths, plus counters for the cache machinery the
//! decision path leans on.
//!
//! The profiler is process-global and **off by default**. Every hook
//! site first reads one relaxed [`AtomicBool`]; disabled, a hook is a
//! single load and a predictable branch — no clock read, no TLS access,
//! nothing observable. Enabled, hot phases accumulate into plain
//! thread-local [`Cell`]s (no atomics on the hot path) which flush into
//! global atomics when [`flush`] runs or the thread exits — the latter
//! is what makes the router's scoped worker threads "just work": each
//! worker's counts fold into the global view when its scope ends.
//!
//! Two recording disciplines coexist:
//!
//! 1. **Lap timing** for the advance path. Consecutive phases share
//!    boundary timestamps ([`lap_mark`] attributes the time since the
//!    previous mark and becomes the next boundary), so a fully-marked
//!    stretch is tiled: one `Instant::now()` per phase transition, and
//!    the marked phases sum to the stretch's wall clock minus only the
//!    unmarked slivers. [`advance_span`] brackets the whole stretch
//!    (reentrancy-counted, so nested engine advances don't double
//!    count) and anchors the coverage ratio, the tiles' share of the
//!    bracket (held at ≥ 0.90 by a unit test in the `experiments`
//!    crate's `telemetry_run`).
//! 2. **Span guards** ([`span`]) for independent, possibly-nested
//!    phases: the decide-path breakdown and the router's blocking waits.
//!    A span is two clock reads; it does not touch the lap clock.
//!
//! Both hot disciplines are **stride-sampled** ([`SAMPLE_STRIDE`]):
//! only 1-in-N advance stretches arm the lap clock, and the engine
//! gates its per-decision fine spans on [`decision_sampled`]. A hook on
//! an unarmed stretch is a TLS load and a branch — no clock read — so
//! the enabled profiler stays inside a few percent of plain throughput
//! (the release gate `overhead_gates.rs::
//! phase_profiler_costs_under_a_tenth_of_driver_throughput` holds it
//! under 10%). Sampling is unbiased for every *ratio* the profiler
//! exists to report (phase shares, the advance-coverage anchor,
//! per-call means); absolute `_ns_total` values cover the sampled
//! subset only. The rare blocking spans (router merge, mailbox waits)
//! are never sampled — their per-event distributions are the point and
//! their rate is low.
//!
//! [`snapshot`] reads the global atomics into a plain [`Registry`]; the
//! atomic bucket tables use the registry's bucketing rule, so a phase
//! histogram is a [`Histogram`] like any other.
//!
//! Like the [`crate::Recorder`] contract, profiling is behaviourally
//! inert: nothing in any decision or advance path reads profiler state.
//! The core pins this with a profiler-on bitwise-identity proptest.

use crate::registry::{bucket_index, Histogram, Registry};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// Number of named phases (see [`Phase::ALL`]).
pub const N_PHASES: usize = 12;
/// Number of cache-machinery counters (see [`Counter::ALL`]).
pub const N_COUNTERS: usize = 5;

/// A named hot-path phase.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// `next_event_time` queries driving the catch-up loop, and the
    /// dispatch from each into the engine's advance.
    EventHeapPop = 0,
    /// The ordered progress sweep inside `advance_into` (busy
    /// integrals, completion/re-arm detection, fused share totals).
    ProgressPass = 1,
    /// Rate recomputation: recompute pass 2, run wherever rates are
    /// first read after a change — mostly inside `next_event_time`.
    RecomputeSweep = 2,
    /// Turning engine completions into streamed job events.
    CompletionEmit = 3,
    /// The whole engine-advance stretch (catch-up + arrival-instant
    /// advance); the denominator of the coverage ratio.
    AdvanceTotal = 4,
    /// The decide-path walk over candidate nodes.
    CandidateScan = 5,
    /// Pre-kernel classification: resident-set group verdict lookups and
    /// the dominance and risk screens.
    EquivClassify = 6,
    /// Risk-projection verdict kernel executions.
    VerdictKernel = 7,
    /// Router submit (route + shard decide) on the caller's thread.
    RouterSubmit = 8,
    /// The k-way merge of shard mailbox streams.
    RouterMerge = 9,
    /// Producer-side backpressure: a worker blocked on a full mailbox.
    MailboxSendWait = 10,
    /// Consumer-side merge lag: the merge blocked on an empty mailbox.
    MailboxRecvWait = 11,
}

impl Phase {
    /// Every phase, in discriminant order.
    pub const ALL: [Phase; N_PHASES] = [
        Phase::EventHeapPop,
        Phase::ProgressPass,
        Phase::RecomputeSweep,
        Phase::CompletionEmit,
        Phase::AdvanceTotal,
        Phase::CandidateScan,
        Phase::EquivClassify,
        Phase::VerdictKernel,
        Phase::RouterSubmit,
        Phase::RouterMerge,
        Phase::MailboxSendWait,
        Phase::MailboxRecvWait,
    ];

    /// Registry counter key for total nanoseconds in this phase.
    pub fn ns_key(self) -> &'static str {
        PHASE_META[self as usize].ns_key
    }

    /// Registry counter key for entries into this phase.
    pub fn calls_key(self) -> &'static str {
        PHASE_META[self as usize].calls_key
    }

    /// Registry histogram key for the per-flush duration distribution.
    pub fn hist_key(self) -> &'static str {
        PHASE_META[self as usize].hist_key
    }
}

struct PhaseMeta {
    ns_key: &'static str,
    calls_key: &'static str,
    hist_key: &'static str,
}

macro_rules! phase_meta {
    ($stem:literal) => {
        PhaseMeta {
            ns_key: concat!("phase_", $stem, "_ns_total"),
            calls_key: concat!("phase_", $stem, "_calls_total"),
            hist_key: concat!("phase_", $stem, "_ns"),
        }
    };
}

const PHASE_META: [PhaseMeta; N_PHASES] = [
    phase_meta!("event_heap_pop"),
    phase_meta!("progress_pass"),
    phase_meta!("recompute_sweep"),
    phase_meta!("completion_emit"),
    phase_meta!("advance_total"),
    phase_meta!("candidate_scan"),
    phase_meta!("equiv_classify"),
    phase_meta!("verdict_kernel"),
    phase_meta!("router_submit"),
    phase_meta!("router_merge"),
    phase_meta!("mailbox_send_wait"),
    phase_meta!("mailbox_recv_wait"),
];

/// A cache-machinery event counter.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Counter {
    /// Node evaluations answered by the verdict of an earlier node with
    /// the same resident set (a replayed resident-set group verdict).
    EquivClassHits = 0,
    /// Node evaluations settled by the zero-risk dominance screen.
    DominanceScreens = 1,
    /// Node evaluations settled by the provably-risky screen.
    RiskScreens = 2,
    /// Verdict-kernel runs that bailed at the first σ certification.
    KernelBails = 3,
    /// Projection-kernel executions.
    ProjectionsRun = 4,
}

impl Counter {
    /// Every counter, in discriminant order.
    pub const ALL: [Counter; N_COUNTERS] = [
        Counter::EquivClassHits,
        Counter::DominanceScreens,
        Counter::RiskScreens,
        Counter::KernelBails,
        Counter::ProjectionsRun,
    ];

    /// Registry key for this counter.
    pub fn key(self) -> &'static str {
        COUNTER_KEYS[self as usize]
    }
}

const COUNTER_KEYS: [&str; N_COUNTERS] = [
    "phase_equiv_class_hits_total",
    "phase_dominance_screens_total",
    "phase_risk_screens_total",
    "phase_kernel_bails_total",
    "phase_projections_run_total",
];

/// Registry histogram key for per-send mailbox depth (chunks queued).
pub const MAILBOX_DEPTH_KEY: &str = "router_mailbox_depth_chunks";

/// 1-in-N stride for the hot sampled disciplines: armed advance
/// stretches and [`decision_sampled`] fine spans.
pub const SAMPLE_STRIDE: u64 = 8;

const N_BUCKETS: usize = crate::keys::PHASE_NS_BOUNDS.len() + 1;
const N_DEPTH_BUCKETS: usize = crate::keys::MAILBOX_DEPTH_BOUNDS.len() + 1;

static ENABLED: AtomicBool = AtomicBool::new(false);

struct GlobalPhase {
    ns: AtomicU64,
    calls: AtomicU64,
    /// Per-flush duration distribution: for lap/flushed phases one
    /// observation per flush (≈ per advance); for direct spans one per
    /// span. `ns` doubles as the histogram sum.
    buckets: [AtomicU64; N_BUCKETS],
    flushes: AtomicU64,
}

static GLOBALS: [GlobalPhase; N_PHASES] = [const {
    GlobalPhase {
        ns: AtomicU64::new(0),
        calls: AtomicU64::new(0),
        buckets: [const { AtomicU64::new(0) }; N_BUCKETS],
        flushes: AtomicU64::new(0),
    }
}; N_PHASES];

static COUNTERS: [AtomicU64; N_COUNTERS] = [const { AtomicU64::new(0) }; N_COUNTERS];

static DEPTH_BUCKETS: [AtomicU64; N_DEPTH_BUCKETS] = [const { AtomicU64::new(0) }; N_DEPTH_BUCKETS];
static DEPTH_SUM: AtomicU64 = AtomicU64::new(0);
static DEPTH_COUNT: AtomicU64 = AtomicU64::new(0);
static DEPTH_LAST: AtomicU64 = AtomicU64::new(0);

struct Local {
    ns: [Cell<u64>; N_PHASES],
    calls: [Cell<u64>; N_PHASES],
    counters: [Cell<u64>; N_COUNTERS],
    /// The lap clock: the boundary instant the next [`lap_mark`]
    /// attributes from. `None` outside any *armed* stretch — and lap
    /// marks never start a boundary themselves, so tiles accumulate in
    /// lockstep with the sampled `AdvanceTotal` brackets.
    lap: Cell<Option<Instant>>,
    /// Reentrancy depth of [`advance_span`] on this thread.
    advance_depth: Cell<u32>,
    /// Outermost advance stretches seen (drives the sampling stride).
    advance_tick: Cell<u64>,
    /// Decisions seen by [`decision_sampled`] (same stride).
    decision_tick: Cell<u64>,
}

impl Local {
    const fn new() -> Self {
        Local {
            ns: [const { Cell::new(0) }; N_PHASES],
            calls: [const { Cell::new(0) }; N_PHASES],
            counters: [const { Cell::new(0) }; N_COUNTERS],
            lap: Cell::new(None),
            advance_depth: Cell::new(0),
            advance_tick: Cell::new(0),
            decision_tick: Cell::new(0),
        }
    }

    fn flush(&self) {
        for (i, g) in GLOBALS.iter().enumerate() {
            let ns = self.ns[i].take();
            let calls = self.calls[i].take();
            if ns == 0 && calls == 0 {
                continue;
            }
            g.ns.fetch_add(ns, Ordering::Relaxed);
            g.calls.fetch_add(calls, Ordering::Relaxed);
            let b = bucket_index(crate::keys::PHASE_NS_BOUNDS, ns as f64);
            g.buckets[b].fetch_add(1, Ordering::Relaxed);
            g.flushes.fetch_add(1, Ordering::Relaxed);
        }
        for (i, g) in COUNTERS.iter().enumerate() {
            let n = self.counters[i].take();
            if n != 0 {
                g.fetch_add(n, Ordering::Relaxed);
            }
        }
    }
}

/// Flush-on-thread-exit backstop: a thread that never calls [`flush`]
/// still folds its counts into the global view when its thread-locals
/// are destroyed. That happens at some point after the thread's closure
/// returns — `std::thread::scope` does not order thread-local
/// destructors before its join, so a reader right after the scope may
/// miss them. Scoped workers whose counts must be visible at the join
/// (the router's) call [`flush`] as their last statement.
struct LocalOwner(Local);

impl Drop for LocalOwner {
    fn drop(&mut self) {
        self.0.flush();
    }
}

thread_local! {
    static LOCAL: LocalOwner = const { LocalOwner(Local::new()) };
}

/// Whether the profiler is currently recording. One relaxed load —
/// this is the entire cost of every hook site while disabled.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns the profiler on or off, process-wide.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Zeroes every global aggregate and the calling thread's local state.
/// (Other live threads' unflushed locals are not reachable; flush or
/// join them first — scoped router workers always have been.)
pub fn reset() {
    LOCAL.with(|l| {
        for c in &l.0.ns {
            c.set(0);
        }
        for c in &l.0.calls {
            c.set(0);
        }
        for c in &l.0.counters {
            c.set(0);
        }
        l.0.lap.set(None);
        l.0.advance_depth.set(0);
        l.0.advance_tick.set(0);
        l.0.decision_tick.set(0);
    });
    for g in &GLOBALS {
        g.ns.store(0, Ordering::Relaxed);
        g.calls.store(0, Ordering::Relaxed);
        g.flushes.store(0, Ordering::Relaxed);
        for b in &g.buckets {
            b.store(0, Ordering::Relaxed);
        }
    }
    for c in &COUNTERS {
        c.store(0, Ordering::Relaxed);
    }
    for b in &DEPTH_BUCKETS {
        b.store(0, Ordering::Relaxed);
    }
    DEPTH_SUM.store(0, Ordering::Relaxed);
    DEPTH_COUNT.store(0, Ordering::Relaxed);
    DEPTH_LAST.store(0, Ordering::Relaxed);
}

/// Flushes the calling thread's local accumulators into the globals.
/// Call at a natural boundary (end of an advance, end of a bench
/// round); [`snapshot`] does it implicitly for the calling thread.
pub fn flush() {
    if enabled() {
        LOCAL.with(|l| l.0.flush());
    }
}

/// Adds `n` to a cache-machinery counter (thread-local; folded into
/// the global on flush).
#[inline]
pub fn add(c: Counter, n: u64) {
    if enabled() && n != 0 {
        LOCAL.with(|l| {
            let cell = &l.0.counters[c as usize];
            cell.set(cell.get() + n);
        });
    }
}

/// Observes the queue depth of a router mailbox at send time, and
/// remembers it as the last-seen depth gauge.
#[inline]
pub fn observe_mailbox_depth(chunks: usize) {
    if !enabled() {
        return;
    }
    let b = bucket_index(crate::keys::MAILBOX_DEPTH_BOUNDS, chunks as f64);
    DEPTH_BUCKETS[b].fetch_add(1, Ordering::Relaxed);
    DEPTH_SUM.fetch_add(chunks as u64, Ordering::Relaxed);
    DEPTH_COUNT.fetch_add(1, Ordering::Relaxed);
    DEPTH_LAST.store(chunks as u64, Ordering::Relaxed);
}

/// Attributes the time since the previous lap boundary to `p` and
/// becomes the next boundary. With no armed boundary (unsampled
/// stretch) nothing happens — not even a clock read — so tiles only
/// ever accumulate inside sampled `AdvanceTotal` brackets and the
/// coverage ratio compares like with like.
#[inline]
pub fn lap_mark(p: Phase) {
    if !enabled() {
        return;
    }
    LOCAL.with(|l| {
        let Some(prev) = l.0.lap.get() else { return };
        let now = Instant::now();
        let i = p as usize;
        let cell = &l.0.ns[i];
        cell.set(cell.get() + (now - prev).as_nanos() as u64);
        let calls = &l.0.calls[i];
        calls.set(calls.get() + 1);
        l.0.lap.set(Some(now));
    });
}

/// Ticks the per-thread decision counter and reports whether this
/// decision is in the 1-in-[`SAMPLE_STRIDE`] sample that should record
/// fine-grained decide-path spans. Call once per decision.
#[inline]
pub fn decision_sampled() -> bool {
    if !enabled() {
        return false;
    }
    LOCAL.with(|l| {
        let t = l.0.decision_tick.get();
        l.0.decision_tick.set(t.wrapping_add(1));
        t % SAMPLE_STRIDE == 0
    })
}

/// An RAII span over one phase: records entry-to-drop wall time.
/// Independent of the lap clock; spans may nest freely (each records
/// its own elapsed time).
pub struct SpanGuard {
    phase: Phase,
    start: Option<Instant>,
}

/// Opens a span over `p`. Disabled, the guard is inert (no clock read).
#[inline]
pub fn span(p: Phase) -> SpanGuard {
    SpanGuard {
        phase: p,
        start: enabled().then(Instant::now),
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(t0) = self.start else { return };
        let ns = t0.elapsed().as_nanos() as u64;
        // Rare/blocking phases go straight to the globals with a
        // per-span histogram observation (their cost is irrelevant and
        // per-event distributions are the point); hot decide-path spans
        // stay in TLS and take the per-flush distribution.
        match self.phase {
            Phase::RouterMerge
            | Phase::MailboxSendWait
            | Phase::MailboxRecvWait
            | Phase::RouterSubmit => {
                let g = &GLOBALS[self.phase as usize];
                g.ns.fetch_add(ns, Ordering::Relaxed);
                g.calls.fetch_add(1, Ordering::Relaxed);
                let b = bucket_index(crate::keys::PHASE_NS_BOUNDS, ns as f64);
                g.buckets[b].fetch_add(1, Ordering::Relaxed);
                g.flushes.fetch_add(1, Ordering::Relaxed);
            }
            p => LOCAL.with(|l| {
                let i = p as usize;
                let cell = &l.0.ns[i];
                cell.set(cell.get() + ns);
                let calls = &l.0.calls[i];
                calls.set(calls.get() + 1);
            }),
        }
    }
}

/// An RAII bracket over one engine-advance stretch. The outermost
/// guard on a thread arms the lap clock for 1-in-[`SAMPLE_STRIDE`]
/// stretches and, at drop, records the armed stretch under
/// [`Phase::AdvanceTotal`] and stops the lap clock; nested guards (an
/// advance inside an advance) and unsampled stretches are free no-ops,
/// so `AdvanceTotal` never double-counts and unsampled advances pay no
/// clock reads at all.
pub struct AdvanceGuard {
    start: Option<Instant>,
}

/// Opens an advance stretch (see [`AdvanceGuard`]).
#[inline]
pub fn advance_span() -> AdvanceGuard {
    if !enabled() {
        return AdvanceGuard { start: None };
    }
    LOCAL.with(|l| {
        let depth = l.0.advance_depth.get();
        l.0.advance_depth.set(depth + 1);
        if depth == 0 {
            let tick = l.0.advance_tick.get();
            l.0.advance_tick.set(tick.wrapping_add(1));
            if tick % SAMPLE_STRIDE == 0 {
                let now = Instant::now();
                l.0.lap.set(Some(now));
                return AdvanceGuard { start: Some(now) };
            }
        }
        AdvanceGuard { start: None }
    })
}

impl Drop for AdvanceGuard {
    fn drop(&mut self) {
        // Depth bookkeeping must happen even when this guard did not
        // arm (nested case); the armed flag rides on `start`.
        if !enabled() && self.start.is_none() {
            return;
        }
        LOCAL.with(|l| {
            let depth = l.0.advance_depth.get().saturating_sub(1);
            l.0.advance_depth.set(depth);
            if let Some(t0) = self.start {
                let ns = t0.elapsed().as_nanos() as u64;
                let i = Phase::AdvanceTotal as usize;
                let cell = &l.0.ns[i];
                cell.set(cell.get() + ns);
                let calls = &l.0.calls[i];
                calls.set(calls.get() + 1);
                l.0.lap.set(None);
                l.0.flush();
            }
        });
    }
}

/// Captures the current global aggregates (flushing the calling
/// thread's locals first) as a fresh [`Registry`] under the `phase_*` /
/// `router_mailbox_*` key vocabulary. A phase, counter or depth probe
/// that recorded nothing is absent, so its counters read 0. The
/// registry is additive ([`Registry::merge`]-clean with recorder
/// registries).
pub fn snapshot() -> Registry {
    LOCAL.with(|l| l.0.flush());
    let mut reg = Registry::new();
    for (p, g) in Phase::ALL.into_iter().zip(&GLOBALS) {
        let ns = g.ns.load(Ordering::Relaxed);
        let calls = g.calls.load(Ordering::Relaxed);
        if ns == 0 && calls == 0 {
            continue;
        }
        reg.add(p.ns_key(), ns);
        reg.add(p.calls_key(), calls);
        let flushes = g.flushes.load(Ordering::Relaxed);
        let h = histogram(crate::keys::PHASE_NS_BOUNDS, &g.buckets, ns, flushes);
        reg.restore_histogram(p.hist_key(), h);
    }
    for (c, g) in Counter::ALL.into_iter().zip(&COUNTERS) {
        let v = g.load(Ordering::Relaxed);
        if v != 0 {
            reg.add(c.key(), v);
        }
    }
    let depth_count = DEPTH_COUNT.load(Ordering::Relaxed);
    if depth_count != 0 {
        let depth_sum = DEPTH_SUM.load(Ordering::Relaxed);
        let h = histogram(
            crate::keys::MAILBOX_DEPTH_BOUNDS,
            &DEPTH_BUCKETS,
            depth_sum,
            depth_count,
        );
        reg.restore_histogram(MAILBOX_DEPTH_KEY, h);
        let last = DEPTH_LAST.load(Ordering::Relaxed);
        reg.set_gauge(crate::keys::MAILBOX_DEPTH_LAST, last as f64);
    }
    reg
}

/// A [`Histogram`] over `bounds` from one global bucket table.
fn histogram(bounds: &'static [f64], buckets: &[AtomicU64], sum: u64, count: u64) -> Histogram {
    let counts = buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect();
    Histogram::from_parts(bounds, counts, sum as f64, count)
        .expect("a global bucket table matches its bounds")
}

/// Scrape-page HELP text for a profiler metric key (the
/// [`crate::keys::help`] extension for the phase vocabulary).
pub fn help_key(name: &str) -> Option<&'static str> {
    for m in &PHASE_META {
        if m.ns_key == name {
            return Some("Total nanoseconds attributed to this hot-path phase.");
        }
        if m.calls_key == name {
            return Some("Entries into this hot-path phase.");
        }
        if m.hist_key == name {
            return Some("Per-flush duration distribution for this phase, nanoseconds.");
        }
    }
    if COUNTER_KEYS.contains(&name) {
        return Some("Cache-machinery events on the decision path.");
    }
    (name == MAILBOX_DEPTH_KEY).then_some("Router mailbox depth at send time, chunks.")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Global profiler state is shared across the test binary's
    /// threads, so every test that toggles or reads it holds this lock.
    fn profiler_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn with_profiler(f: impl FnOnce()) {
        let _g = profiler_lock();
        reset();
        set_enabled(true);
        f();
        set_enabled(false);
        reset();
    }

    #[test]
    fn disabled_profiler_records_nothing() {
        // No with_profiler: the default state is off.
        let _g = profiler_lock();
        assert!(!enabled());
        lap_mark(Phase::ProgressPass);
        add(Counter::KernelBails, 3);
        let _s = span(Phase::VerdictKernel);
        drop(_s);
        assert!(snapshot().is_empty());
    }

    #[test]
    fn lap_marks_tile_a_stretch_and_flush_to_globals() {
        with_profiler(|| {
            {
                let _g = advance_span();
                busy(50);
                lap_mark(Phase::EventHeapPop);
                busy(50);
                lap_mark(Phase::ProgressPass);
                busy(50);
                lap_mark(Phase::RecomputeSweep);
            }
            let snap = snapshot();
            let total = snap.counter(Phase::AdvanceTotal.ns_key());
            let parts: u64 = [
                Phase::EventHeapPop,
                Phase::ProgressPass,
                Phase::RecomputeSweep,
            ]
            .iter()
            .map(|p| snap.counter(p.ns_key()))
            .sum();
            assert!(total > 0, "advance stretch was timed");
            assert!(parts <= total, "tiles cannot exceed the bracket");
            assert!(
                parts as f64 >= total as f64 * 0.5,
                "tiles cover most of the bracket ({parts} of {total})"
            );
            assert_eq!(snap.counter(Phase::AdvanceTotal.calls_key()), 1);
            assert_eq!(snap.counter(Phase::ProgressPass.calls_key()), 1);
        });
    }

    #[test]
    fn nested_advance_spans_count_once() {
        with_profiler(|| {
            {
                let _outer = advance_span();
                let _inner = advance_span();
                busy(20);
            }
            let snap = snapshot();
            assert_eq!(
                snap.counter(Phase::AdvanceTotal.calls_key()),
                1,
                "no double count"
            );
        });
    }

    #[test]
    fn spans_counters_and_depth_aggregate() {
        with_profiler(|| {
            {
                let _s = span(Phase::VerdictKernel);
                busy(20);
            }
            {
                let _s = span(Phase::MailboxSendWait);
                busy(20);
            }
            add(Counter::DominanceScreens, 7);
            add(Counter::KernelBails, 2);
            observe_mailbox_depth(3);
            observe_mailbox_depth(8);
            let snap = snapshot();
            assert!(snap.counter(Phase::VerdictKernel.ns_key()) > 0);
            assert_eq!(snap.counter(Phase::VerdictKernel.calls_key()), 1);
            assert!(snap.counter(Phase::MailboxSendWait.ns_key()) > 0);
            assert_eq!(snap.counter(Counter::DominanceScreens.key()), 7);
            assert_eq!(snap.counter(Counter::KernelBails.key()), 2);
            assert_eq!(snap.histogram(MAILBOX_DEPTH_KEY).unwrap().count(), 2);
            let wait = snap.histogram(Phase::MailboxSendWait.hist_key()).unwrap();
            assert!(wait.quantile(0.99) > 0.0);
        });
    }

    #[test]
    fn worker_thread_flushes_on_exit() {
        // Workers flush explicitly as their last statement, so every
        // span is visible right after the join — on every repetition,
        // not only when the thread-local destructor happens to win the
        // race against the scope's return.
        with_profiler(|| {
            for round in 1..=200u64 {
                std::thread::scope(|s| {
                    s.spawn(|| {
                        {
                            let _g = span(Phase::CandidateScan);
                            busy(30);
                        }
                        flush();
                    });
                });
                let snap = snapshot();
                let calls = snap.counter(Phase::CandidateScan.calls_key());
                assert_eq!(calls, round, "round {round}");
                assert!(snap.counter(Phase::CandidateScan.ns_key()) > 0);
            }
        });
    }

    #[test]
    fn export_round_trips_through_the_registry() {
        with_profiler(|| {
            {
                let _g = advance_span();
                busy(30);
                lap_mark(Phase::ProgressPass);
            }
            add(Counter::ProjectionsRun, 5);
            observe_mailbox_depth(2);
            let reg = snapshot();
            assert!(reg.counter(Phase::ProgressPass.ns_key()) > 0);
            assert_eq!(reg.counter(Phase::ProgressPass.calls_key()), 1);
            assert_eq!(reg.counter(Counter::ProjectionsRun.key()), 5);
            let h = reg
                .histogram(Phase::AdvanceTotal.hist_key())
                .expect("advance histogram exported");
            assert_eq!(h.count(), 1);
            assert_eq!(h.sum(), reg.counter(Phase::AdvanceTotal.ns_key()) as f64);
            assert!(reg.histogram(MAILBOX_DEPTH_KEY).is_some());
            assert_eq!(reg.gauge(crate::keys::MAILBOX_DEPTH_LAST), Some(2.0));
            let text = reg.to_prometheus();
            assert!(text.contains("phase_progress_pass_ns_total"));
            assert!(text.contains("phase_progress_pass_ns_bucket{le=\"+Inf\"} 1"));
        });
    }

    /// Spins for roughly `us` microseconds of wall clock.
    fn busy(us: u64) {
        let t0 = Instant::now();
        while t0.elapsed().as_micros() < u128::from(us) {
            std::hint::spin_loop();
        }
    }
}
