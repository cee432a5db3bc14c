use crate::catalogue::{Metric, END_TO_END, PER_LAYER};
use crate::compare::{judge, Stats, Verdict};
use crate::measure::{end_to_end, traced, Run};
use crate::probe::Off;
use crate::record::{parse_result, result_line};
use crate::replay::{primary, SEGMENT};
use crate::workload::{Spec, SPECS};
use obs::json::Value;
use std::collections::BTreeMap;

/// Smoke size: every workload still reaches its fault, fan-out and
/// batching paths (the 1,024-arrival cadence included).
const SMOKE_JOBS: usize = 1500;

fn smoke() -> impl Iterator<Item = Spec> {
    SPECS.iter().map(|s| s.smoke(SMOKE_JOBS))
}

fn values(run: &Run) -> BTreeMap<&'static str, f64> {
    run.metrics.iter().copied().collect()
}

#[test]
fn smoke_runs_of_every_workload_pass_every_oracle() {
    for spec in smoke() {
        // Seed 1 times the pinned inputs; seed 2 replays them untimed
        // first. Either way the paper's metric is theirs.
        let fulfilled: Vec<u64> = [1, 2]
            .map(|seed| {
                let run = end_to_end(&spec, seed, 0.0, true);
                assert!(run.correct(), "{}: {:?}", spec.name, run.failures);
                assert_eq!(run.failed, 0);
                assert_eq!(run.attempted, SMOKE_JOBS as u64);
                values(&run)["fulfilled_pct"].to_bits()
            })
            .into();
        assert_eq!(fulfilled[0], fulfilled[1], "{}", spec.name);
        // The full cross-checks run in traced runs.
        let run = traced(&spec, 2, 0.0);
        assert!(run.correct(), "{}: {:?}", spec.name, run.failures);
    }
}

#[test]
fn result_lines_round_trip_and_carry_every_benchmark_metric() {
    let bench = obs::json::parse(include_str!("../../../../../BENCHMARK.json"))
        .expect("BENCHMARK.json parses");
    let listed = |key: &str| -> Vec<(String, String)> {
        let metrics = bench.get(key).and_then(Value::as_array).expect(key);
        metrics
            .iter()
            .map(|m| {
                let field = |k| m.get(k).and_then(Value::as_str).expect(k).to_string();
                (field("name"), field("unit"))
            })
            .collect()
    };
    let spec = SPECS[2].smoke(SMOKE_JOBS);
    for (run, key) in [
        (end_to_end(&spec, 3, 0.0, true), "end_to_end"),
        (traced(&spec, 3, 0.0), "per_layer"),
    ] {
        let back = parse_result(&result_line(&run)).expect("the result line parses");
        assert!(back.correct && run.correct(), "{:?}", run.failures);
        assert_eq!(back.attempted, run.attempted as f64);
        assert_eq!(back.failed, 0.0);
        let got: Vec<(String, String)> = back
            .metrics
            .iter()
            .map(|(n, _, u)| (n.clone(), u.clone()))
            .collect();
        assert_eq!(got, listed(key), "{key}");
        for ((name, value, _), &(_, want)) in back.metrics.iter().zip(&run.metrics) {
            assert_eq!(value.to_bits(), want.to_bits(), "{name} lost digits");
        }
    }
}

#[test]
fn names_are_plain_and_unique() {
    let plain = |s: &str| {
        !s.is_empty()
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    let mut names: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
    names.extend(END_TO_END.iter().chain(&PER_LAYER).map(|m: &Metric| m.name));
    for n in &names {
        assert!(plain(n), "{n:?}");
    }
    let count = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), count, "a name is used twice");
}

#[test]
fn counters_repeat_exactly_across_same_seed_runs() {
    for spec in [SPECS[2].smoke(SMOKE_JOBS), SPECS[4].smoke(SMOKE_JOBS)] {
        let counts = |run: Run| -> Vec<(&str, f64)> {
            let v = values(&run);
            PER_LAYER
                .iter()
                .filter(|m| m.unit == "count")
                .map(|m| (m.name, v[m.name]))
                .collect()
        };
        let first = counts(traced(&spec, 7, 0.0));
        assert_eq!(first, counts(traced(&spec, 7, 0.0)), "{}", spec.name);
        assert!(first.iter().any(|&(_, c)| c > 0.0));
    }
}

#[test]
fn client_spans_and_residual_sum_to_the_traced_wall() {
    for spec in smoke() {
        let run = traced(&spec, 1, 0.0);
        assert!(run.correct(), "{}: {:?}", spec.name, run.failures);
        let v = values(&run);
        let layer: &[&str] = if spec.shards == 1 {
            &["rms.advance_s", "rms.submit_s", "rms.drain_s"]
        } else {
            &["router.submit_s", "router.fanout_s"]
        };
        let spans: f64 = layer.iter().map(|k| v[k]).sum::<f64>() + v["report.record_s"];
        let wall = v["trace.wall_s"];
        assert!(v["driver.residual_s"] >= 0.0, "{}", spec.name);
        let gap = (spans + v["driver.residual_s"] - wall).abs();
        assert!(
            gap <= 1e-9 * wall,
            "{}: {spans} + residual != {wall}",
            spec.name
        );
    }
}

#[test]
fn segments_tile_the_replay_wall() {
    let spec = SPECS[4].smoke(SMOKE_JOBS);
    let r = primary(&spec, &spec.setup(1).0, &mut Off);
    assert_eq!(r.segment_ns.len(), SMOKE_JOBS / SEGMENT + 1);
    assert_eq!(r.segment_ns.iter().sum::<u64>() as f64 * 1e-9, r.wall_s);
}

#[test]
fn compare_is_unresolved_when_the_spread_exceeds_the_bound() {
    let s = |median: f64, q1: f64, q3: f64| Stats { median, q1, q3 };
    let base = s(100.0, 99.0, 101.0);
    assert_eq!(
        judge(base, s(100.5, 99.5, 101.5), true, 0.05),
        Verdict::Same
    );
    assert_eq!(judge(base, s(90.0, 89.0, 91.0), true, 0.05), Verdict::Worse);
    assert_eq!(
        judge(base, s(90.0, 89.0, 91.0), false, 0.05),
        Verdict::Better
    );
    assert_eq!(
        judge(base, s(90.0, 80.0, 100.0), true, 0.05),
        Verdict::Unresolved
    );
}
