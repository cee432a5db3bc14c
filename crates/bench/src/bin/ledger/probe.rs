//! Spans timed from the ledger around each public call into a layer.
//! Nothing inside the library is instrumented, so every layer is
//! measured from outside, at its API.

use metrics::percentile::quantile_sorted;
use std::time::Instant;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Span {
    /// `ClusterRms::advance` over an interval with no fault instant.
    RmsAdvance,
    /// `ClusterRms::advance` over an interval holding ≥1 fault instant.
    RmsAdvanceFault,
    RmsSubmit,
    RmsDrain,
    RouterSubmit,
    /// `ShardedRms::advance_with` or `drain_with`; the emit callback
    /// only pushes into a buffer.
    RouterFanout,
    ReportRecord,
    EngineNextEvent,
    EngineAdvance,
    EngineAdmit,
    Decide,
}

const SPANS: usize = Span::Decide as usize + 1;

pub trait Probe {
    fn time<T>(&mut self, span: Span, f: impl FnOnce() -> T) -> T;

    /// Called by the client before its work for arrival `i`.
    fn arrival(&mut self, _i: usize) {}
}

/// Tracing off: the calls run bare.
pub struct Off;

impl Probe for Off {
    #[inline(always)]
    fn time<T>(&mut self, _: Span, f: impl FnOnce() -> T) -> T {
        f()
    }
}

/// Tracing on: every call's duration is kept in memory, in ns.
#[derive(Default)]
pub struct Spans {
    ns: [Vec<u64>; SPANS],
}

impl Probe for Spans {
    fn time<T>(&mut self, span: Span, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.ns[span as usize].push(t.elapsed().as_nanos() as u64);
        out
    }
}

impl Spans {
    pub fn calls(&self, spans: &[Span]) -> f64 {
        spans
            .iter()
            .map(|&s| self.ns[s as usize].len())
            .sum::<usize>() as f64
    }

    pub fn total_s(&self, spans: &[Span]) -> f64 {
        spans
            .iter()
            .flat_map(|&s| &self.ns[s as usize])
            .sum::<u64>() as f64
            * 1e-9
    }

    /// Sum over every span recorded.
    pub fn all_s(&self) -> f64 {
        self.ns.iter().flatten().sum::<u64>() as f64 * 1e-9
    }

    /// The `q`-quantile of the per-call durations, ns; 0 without calls.
    pub fn quantile_ns(&self, spans: &[Span], q: f64) -> f64 {
        let samples = spans
            .iter()
            .flat_map(|&s| self.ns[s as usize].iter().copied());
        quantiles(samples, &[q])[0]
    }
}

/// Traces even arrivals only. Traced and bare arrivals then interleave
/// under the same host conditions, so comparing their median latencies
/// measures what tracing costs without the drift between whole replays.
#[derive(Default)]
pub struct Alternating {
    on: bool,
    spans: Spans,
}

impl Probe for Alternating {
    fn time<T>(&mut self, span: Span, f: impl FnOnce() -> T) -> T {
        if self.on {
            self.spans.time(span, f)
        } else {
            f()
        }
    }

    fn arrival(&mut self, i: usize) {
        self.on = i.is_multiple_of(2);
    }
}

/// Several quantiles of one sample set from a single sort; 0s when empty.
pub fn quantiles(samples: impl Iterator<Item = u64>, qs: &[f64]) -> Vec<f64> {
    let mut v: Vec<f64> = samples.map(|x| x as f64).collect();
    if v.is_empty() {
        return vec![0.0; qs.len()];
    }
    v.sort_by(f64::total_cmp);
    qs.iter().map(|&q| quantile_sorted(&v, q)).collect()
}
