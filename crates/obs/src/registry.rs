//! Static-key metrics registry: counters, gauges, fixed-bucket
//! histograms, and a Prometheus-style text dump.
//!
//! Keys are `&'static str` so registration is allocation-free and a
//! lookup is a short linear scan that usually resolves on pointer
//! equality — a handful of nanoseconds for the dozen-odd keys the RMS
//! uses, with no hashing and no interior mutability.

use std::fmt::Write as _;

/// The bucket `v` lands in over `bounds`: the first bound `>= v` (the
/// Prometheus `le` rule), or `bounds.len()` for the overflow bucket.
/// The one bucketing rule for [`Histogram`] and the phase profiler's
/// atomic bucket tables.
pub(crate) fn bucket_index(bounds: &[f64], v: f64) -> usize {
    bounds.partition_point(|b| *b < v)
}

/// A fixed-bucket histogram: `bounds.len() + 1` cumulative-style
/// buckets (the last is the overflow bucket), plus sum and count for
/// the mean.
#[derive(Clone, Debug)]
pub struct Histogram {
    bounds: &'static [f64],
    counts: Vec<u64>,
    sum: f64,
    count: u64,
}

impl Histogram {
    fn new(bounds: &'static [f64]) -> Self {
        debug_assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        Histogram {
            bounds,
            counts: vec![0; bounds.len() + 1],
            sum: 0.0,
            count: 0,
        }
    }

    fn observe(&mut self, v: f64) {
        self.counts[bucket_index(self.bounds, v)] += 1;
        self.sum += v;
        self.count += 1;
    }

    /// Per-bucket observation counts; one longer than the bounds (the
    /// final `+Inf` bucket is implicit).
    pub fn bucket_counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observed values.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean observed value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Rebuilds a histogram from raw parts (the profiler's global bucket
    /// tables). `counts` must be one longer than `bounds`.
    pub fn from_parts(
        bounds: &'static [f64],
        counts: Vec<u64>,
        sum: f64,
        count: u64,
    ) -> Result<Self, String> {
        if counts.len() != bounds.len() + 1 {
            return Err(format!(
                "{} buckets for {} bounds",
                counts.len(),
                bounds.len()
            ));
        }
        Ok(Histogram {
            bounds,
            counts,
            sum,
            count,
        })
    }

    /// Upper-bound estimate of the `q`-quantile: the upper bound of
    /// the bucket the quantile lands in, linearly interpolated within
    /// the bucket. Observations past the last bound report the last
    /// finite bound (the table cannot resolve further); an empty
    /// histogram reports 0.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut cum = 0u64;
        for (i, n) in self.counts.iter().enumerate() {
            let prev = cum;
            cum += n;
            if cum >= target {
                let Some(&hi) = self.bounds.get(i) else {
                    return self.bounds.last().copied().unwrap_or(0.0);
                };
                let lo = if i == 0 { 0.0 } else { self.bounds[i - 1] };
                let frac = (target - prev) as f64 / (*n).max(1) as f64;
                return lo + (hi - lo) * frac;
            }
        }
        self.bounds.last().copied().unwrap_or(0.0)
    }

    /// Folds another histogram into this one: bucket counts add
    /// pairwise, sum and count accumulate. The result is exactly the
    /// histogram a single registry would have produced from the union
    /// of both observation streams, so shard merges are order-clean.
    ///
    /// # Panics
    /// Panics when the bucket bounds differ — merging histograms with
    /// different bucketisations silently misbins, so it is refused.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(
            self.bounds, other.bounds,
            "cannot merge histograms with different bucket bounds"
        );
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.sum += other.sum;
        self.count += other.count;
    }
}

/// The registry. Plain vectors keyed by `&'static str`; cloneable so
/// snapshots are cheap to hand out.
#[derive(Clone, Debug, Default)]
pub struct Registry {
    counters: Vec<(&'static str, u64)>,
    gauges: Vec<(&'static str, f64)>,
    histograms: Vec<(&'static str, Histogram)>,
}

fn find<T>(
    entries: &mut Vec<(&'static str, T)>,
    key: &'static str,
    new: impl FnOnce() -> T,
) -> usize {
    // `str` equality short-circuits on length and, for interned
    // statics, typically on the data pointer — cheap at this scale.
    match entries.iter().position(|(k, _)| *k == key) {
        Some(i) => i,
        None => {
            entries.push((key, new()));
            entries.len() - 1
        }
    }
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Increments a counter by one, registering it on first use.
    pub fn inc(&mut self, key: &'static str) {
        self.add(key, 1);
    }

    /// Adds `by` to a counter, registering it on first use.
    pub fn add(&mut self, key: &'static str, by: u64) {
        let i = find(&mut self.counters, key, || 0);
        self.counters[i].1 += by;
    }

    /// Sets a gauge, registering it on first use.
    pub fn set_gauge(&mut self, key: &'static str, value: f64) {
        let i = find(&mut self.gauges, key, || 0.0);
        self.gauges[i].1 = value;
    }

    /// Observes `value` into the fixed-bucket histogram under `key`,
    /// creating it with `bounds` on first use (later `bounds` are
    /// ignored — the first registration wins).
    pub fn observe(&mut self, key: &'static str, bounds: &'static [f64], value: f64) {
        let i = find(&mut self.histograms, key, || Histogram::new(bounds));
        self.histograms[i].1.observe(value);
    }

    /// Current counter value (0 when never touched).
    pub fn counter(&self, key: &str) -> u64 {
        self.counters
            .iter()
            .find(|(k, _)| *k == key)
            .map_or(0, |(_, v)| *v)
    }

    /// Current gauge value, if ever set.
    pub fn gauge(&self, key: &str) -> Option<f64> {
        self.gauges.iter().find(|(k, _)| *k == key).map(|(_, v)| *v)
    }

    /// The histogram under `key`, if any observation landed.
    pub fn histogram(&self, key: &str) -> Option<&Histogram> {
        self.histograms
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, h)| h)
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Installs a prebuilt histogram under `key`, replacing any existing
    /// one (not additive, unlike [`Registry::merge`]).
    pub fn restore_histogram(&mut self, key: &'static str, h: Histogram) {
        let i = find(&mut self.histograms, key, || Histogram::new(h.bounds));
        self.histograms[i].1 = h;
    }

    /// Folds another registry into this one, so per-shard registries
    /// combine into the fleet view: counters add, histograms merge
    /// bucketwise (see [`Histogram::merge`] — panics on mismatched
    /// bounds), and keys only one side knows are registered on the fly.
    ///
    /// Gauges are point-in-time samples with no meaningful sum: the
    /// merged-in value overwrites (last-merged-wins), matching
    /// [`Registry::set_gauge`]'s overwrite semantics. Counters and
    /// histograms are order-clean under merge; gauges deliberately are
    /// not — aggregate gauges across shards at the source (e.g. a
    /// submitted-weighted utilisation) rather than through `merge`.
    pub fn merge(&mut self, other: &Registry) {
        for (k, v) in &other.counters {
            self.add(k, *v);
        }
        for (k, v) in &other.gauges {
            self.set_gauge(k, *v);
        }
        for (k, h) in &other.histograms {
            let i = find(&mut self.histograms, k, || Histogram::new(h.bounds));
            self.histograms[i].1.merge(h);
        }
    }

    /// Prometheus text exposition: `# HELP` (escaped per the grammar)
    /// and `# TYPE` headers, cumulative `_bucket{le=...}` lines for
    /// histograms, deterministic registration order. A histogram's
    /// `_sum`/`_count` samples ride under the single
    /// `# TYPE <k> histogram` family header — the exposition format
    /// forbids separate TYPE lines for them.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.counters {
            write_help(&mut out, k);
            let _ = writeln!(out, "# TYPE {k} counter");
            let _ = writeln!(out, "{k} {v}");
        }
        for (k, v) in &self.gauges {
            write_help(&mut out, k);
            let _ = writeln!(out, "# TYPE {k} gauge");
            let _ = writeln!(out, "{k} {v}");
        }
        for (k, h) in &self.histograms {
            write_help(&mut out, k);
            let _ = writeln!(out, "# TYPE {k} histogram");
            let mut cumulative = 0u64;
            for (bound, n) in h.bounds.iter().zip(&h.counts) {
                cumulative += n;
                let _ = writeln!(out, "{k}_bucket{{le=\"{bound}\"}} {cumulative}");
            }
            cumulative += h.counts.last().copied().unwrap_or(0);
            let _ = writeln!(out, "{k}_bucket{{le=\"+Inf\"}} {cumulative}");
            let _ = writeln!(out, "{k}_sum {}", h.sum);
            let _ = writeln!(out, "{k}_count {}", h.count);
        }
        out
    }
}

/// Escapes HELP text per the exposition grammar: backslash first
/// (so escaped newlines don't double-escape), then newline.
fn escape_help(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\n', "\\n")
}

fn write_help(out: &mut String, key: &str) {
    if let Some(h) = crate::keys::help(key) {
        let _ = writeln!(out, "# HELP {key} {}", escape_help(h));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BOUNDS: &[f64] = &[1.0, 10.0, 100.0];

    #[test]
    fn counters_accumulate_and_register_lazily() {
        let mut r = Registry::new();
        assert_eq!(r.counter("a_total"), 0);
        r.inc("a_total");
        r.add("a_total", 4);
        assert_eq!(r.counter("a_total"), 5);
    }

    #[test]
    fn gauges_overwrite() {
        let mut r = Registry::new();
        assert_eq!(r.gauge("g"), None);
        r.set_gauge("g", 1.5);
        r.set_gauge("g", 0.25);
        assert_eq!(r.gauge("g"), Some(0.25));
    }

    #[test]
    fn histogram_buckets_partition_on_upper_bound() {
        let mut r = Registry::new();
        // le semantics: an observation equal to a bound lands in that bucket.
        for v in [0.5, 1.0, 5.0, 100.0, 1e6] {
            r.observe("h", BOUNDS, v);
        }
        let h = r.histogram("h").unwrap();
        assert_eq!(h.bucket_counts(), &[2, 1, 1, 1]);
        assert_eq!(h.count(), 5);
        assert!((h.mean() - (0.5 + 1.0 + 5.0 + 100.0 + 1e6) / 5.0).abs() < 1e-9);
    }

    #[test]
    fn merge_adds_counters_and_buckets_but_overwrites_gauges() {
        let mut a = Registry::new();
        a.add("jobs_total", 3);
        a.set_gauge("util", 0.25);
        a.observe("lat", BOUNDS, 0.5);
        a.observe("lat", BOUNDS, 50.0);
        let mut b = Registry::new();
        b.add("jobs_total", 4);
        b.inc("only_b_total");
        b.set_gauge("util", 0.75);
        b.observe("lat", BOUNDS, 5.0);
        b.observe("only_b_hist", BOUNDS, 2.0);
        a.merge(&b);
        assert_eq!(a.counter("jobs_total"), 7);
        assert_eq!(a.counter("only_b_total"), 1, "new keys register on merge");
        assert_eq!(a.gauge("util"), Some(0.75), "last-merged gauge wins");
        let h = a.histogram("lat").unwrap();
        assert_eq!(h.bucket_counts(), &[1, 1, 1, 0]);
        assert_eq!(h.count(), 3);
        assert!((h.sum() - 55.5).abs() < 1e-9);
        assert_eq!(a.histogram("only_b_hist").unwrap().count(), 1);
    }

    #[test]
    fn merge_is_order_clean_for_counters_and_histograms() {
        let mk = |vals: &[f64], n: u64| {
            let mut r = Registry::new();
            r.add("c_total", n);
            for &v in vals {
                r.observe("h", BOUNDS, v);
            }
            r
        };
        let parts = [mk(&[0.5, 5.0], 2), mk(&[50.0], 1), mk(&[1e6, 1.0], 3)];
        let mut fwd = Registry::new();
        for p in &parts {
            fwd.merge(p);
        }
        let mut rev = Registry::new();
        for p in parts.iter().rev() {
            rev.merge(p);
        }
        assert_eq!(fwd.counter("c_total"), rev.counter("c_total"));
        assert_eq!(
            fwd.histogram("h").unwrap().bucket_counts(),
            rev.histogram("h").unwrap().bucket_counts()
        );
        assert_eq!(
            fwd.histogram("h").unwrap().sum(),
            rev.histogram("h").unwrap().sum()
        );
    }

    #[test]
    #[should_panic(expected = "different bucket bounds")]
    fn merge_refuses_mismatched_histogram_bounds() {
        const OTHER: &[f64] = &[2.0, 20.0];
        let mut a = Registry::new();
        a.observe("h", BOUNDS, 1.0);
        let mut b = Registry::new();
        b.observe("h", OTHER, 1.0);
        a.merge(&b);
    }

    #[test]
    fn help_text_escapes_backslash_then_newline() {
        assert_eq!(escape_help("plain text"), "plain text");
        assert_eq!(escape_help("line one\nline two"), "line one\\nline two");
        assert_eq!(escape_help("a\\b"), "a\\\\b");
        // Backslash-first ordering: a literal `\n` sequence in the
        // source must not collapse into an escaped newline.
        assert_eq!(escape_help("literal \\n\nreal"), "literal \\\\n\\nreal");
    }

    #[test]
    fn quantile_interpolates_within_buckets() {
        let mut r = Registry::new();
        for v in [0.5, 0.5, 5.0, 50.0] {
            r.observe("h", BOUNDS, v);
        }
        let h = r.histogram("h").unwrap();
        // 2 of 4 observations in (0, 1]: the median is the top of it.
        assert!((h.quantile(0.5) - 1.0).abs() < 1e-9);
        // 3rd observation: halfway through (1, 10].
        assert!((h.quantile(0.75) - 10.0).abs() < 1e-9 || h.quantile(0.75) > 1.0);
        assert!(h.quantile(1.0) <= 100.0);
        // Overflow-only tail reports the last finite bound.
        let mut o = Registry::new();
        o.observe("h", BOUNDS, 1e9);
        assert!((o.histogram("h").unwrap().quantile(0.99) - 100.0).abs() < 1e-9);
        // Empty histogram (possible via from_parts) reports 0.
        let empty = Histogram::from_parts(BOUNDS, vec![0; 4], 0.0, 0).unwrap();
        assert_eq!(empty.quantile(0.5), 0.0);
    }

    /// Validates `text` against the Prometheus text exposition
    /// grammar: HELP/TYPE comment shape, samples belonging to the most
    /// recently declared family, histogram buckets cumulative with
    /// `+Inf == _count`, and exactly one TYPE per family.
    fn validate_exposition(text: &str) {
        let mut family: Option<(String, String)> = None;
        let mut seen_types: Vec<String> = Vec::new();
        let mut last_bucket: Option<u64> = None;
        let mut inf_bucket: Option<u64> = None;
        for line in text.lines() {
            assert!(!line.is_empty(), "no blank lines in our exposition");
            if let Some(rest) = line.strip_prefix("# HELP ") {
                let (name, help) = rest.split_once(' ').expect("HELP has name and text");
                assert!(!name.is_empty() && !help.is_empty());
                assert!(!help.contains('\\') || help.contains("\\\\") || help.contains("\\n"));
                continue;
            }
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let (name, kind) = rest.split_once(' ').expect("TYPE has name and kind");
                assert!(
                    matches!(kind, "counter" | "gauge" | "histogram"),
                    "unknown TYPE kind {kind}"
                );
                assert!(
                    !seen_types.contains(&name.to_string()),
                    "duplicate TYPE for {name}"
                );
                seen_types.push(name.to_string());
                family = Some((name.to_string(), kind.to_string()));
                last_bucket = None;
                inf_bucket = None;
                continue;
            }
            assert!(!line.starts_with('#'), "unknown comment line {line}");
            let (sample, value) = line.rsplit_once(' ').expect("sample has a value");
            let name = sample.split('{').next().unwrap();
            let (fam, kind) = family.as_ref().expect("sample before any TYPE");
            match kind.as_str() {
                "counter" | "gauge" => {
                    assert_eq!(name, fam, "sample outside its family");
                    let _ = value.parse::<f64>().expect("numeric value");
                }
                "histogram" => {
                    assert!(
                        name == format!("{fam}_bucket")
                            || name == format!("{fam}_sum")
                            || name == format!("{fam}_count"),
                        "sample {name} outside histogram family {fam}"
                    );
                    if name.ends_with("_bucket") {
                        assert!(sample.contains("le=\""), "bucket sample needs an le label");
                        let n = value.parse::<u64>().expect("integer bucket count");
                        if let Some(prev) = last_bucket {
                            assert!(n >= prev, "bucket counts must be cumulative");
                        }
                        last_bucket = Some(n);
                        if sample.contains("le=\"+Inf\"") {
                            inf_bucket = Some(n);
                        }
                    } else if name.ends_with("_count") {
                        let n = value.parse::<u64>().expect("integer count");
                        assert_eq!(Some(n), inf_bucket, "+Inf bucket must equal _count");
                    } else {
                        let _ = value.parse::<f64>().expect("numeric sum");
                    }
                }
                k => panic!("unexpected kind {k}"),
            }
        }
    }

    #[test]
    fn exposition_matches_the_scrape_grammar() {
        let mut r = Registry::new();
        r.inc(crate::keys::DECISIONS);
        r.add("jobs_total", 41);
        r.set_gauge(crate::keys::UTILIZATION, 0.5);
        for v in [100.0, 700.0, 2e6] {
            r.observe(
                crate::keys::DECIDE_LATENCY,
                crate::keys::DECIDE_LATENCY_BOUNDS,
                v,
            );
        }
        let text = r.to_prometheus();
        validate_exposition(&text);
        // Keys with registered help get a HELP line before their TYPE.
        let help_at = text
            .find("# HELP rms_decisions_total")
            .expect("help line for a vocabulary key");
        let type_at = text.find("# TYPE rms_decisions_total").unwrap();
        assert!(help_at < type_at);
        // Exactly one TYPE line covers the whole histogram family.
        assert_eq!(text.matches("# TYPE rms_decide_latency_ns").count(), 1);
        assert!(text.contains("rms_decide_latency_ns_sum"));
        assert!(text.contains("rms_decide_latency_ns_count 3"));
    }

    #[test]
    fn prometheus_dump_has_cumulative_buckets() {
        let mut r = Registry::new();
        r.inc("jobs_total");
        r.set_gauge("util", 0.5);
        r.observe("lat", BOUNDS, 0.5);
        r.observe("lat", BOUNDS, 50.0);
        let text = r.to_prometheus();
        assert!(text.contains("# TYPE jobs_total counter"));
        assert!(text.contains("jobs_total 1"));
        assert!(text.contains("util 0.5"));
        assert!(text.contains("lat_bucket{le=\"1\"} 1"));
        assert!(text.contains("lat_bucket{le=\"100\"} 2"));
        assert!(text.contains("lat_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("lat_count 2"));
    }
}
