//! `ledger compare A.json B.json`: a noise-aware verdict per (workload,
//! end-to-end metric) between two `ledger run` records, using the bounds
//! in BENCHMARK.json.

use obs::json::{self, Value};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// Either side's quartile spread is wider than the bound.
    Unresolved,
}

#[derive(Clone, Copy, Debug)]
pub struct Stats {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Stats {
    fn spread(&self) -> f64 {
        if self.q3 == self.q1 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// B against A: worse or better only by more than `bound`, a share of
/// A's median.
pub fn judge(a: Stats, b: Stats, higher_is_better: bool, bound: f64) -> Verdict {
    if a.spread() > bound || b.spread() > bound {
        return Verdict::Unresolved;
    }
    let change = (b.median - a.median) / a.median.abs();
    let gain = if higher_is_better { change } else { -change };
    if gain < -bound {
        Verdict::Worse
    } else if gain > bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// `(name, higher is better, bound)` of every end-to-end metric.
fn bounds(bench: &Value) -> Result<Vec<(String, bool, f64)>, String> {
    let metrics = bench
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json lacks end_to_end")?;
    metrics
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Value::as_str);
            let better = m.get("better").and_then(Value::as_str);
            let bound = m.get("bound").and_then(Value::as_f64);
            match (name, better, bound) {
                (Some(n), Some(b), Some(x)) => Ok((n.to_string(), b == "higher", x)),
                _ => Err("an end_to_end metric lacks name, better or bound".to_string()),
            }
        })
        .collect()
}

fn stats(record: &Value, workload: &str, metric: &str) -> Option<Stats> {
    let w = record
        .get("workloads")?
        .as_array()?
        .iter()
        .find(|w| w.get("name").and_then(Value::as_str) == Some(workload))?;
    let m = w.get("end_to_end")?.get(metric)?;
    let f = |k| m.get(k).and_then(Value::as_f64);
    Some(Stats {
        median: f("median")?,
        q1: f("q1")?,
        q3: f("q3")?,
    })
}

/// Prints one row per (workload, metric); returns whether no row is
/// `Worse`.
pub fn compare(a_path: &str, b_path: &str, bench_path: &str) -> Result<bool, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let bounds = bounds(&load(bench_path)?)?;
    let names: Vec<&str> = a
        .get("workloads")
        .and_then(Value::as_array)
        .ok_or(format!("{a_path} lacks workloads"))?
        .iter()
        .filter_map(|w| w.get("name").and_then(Value::as_str))
        .collect();
    println!(
        "{:<15} {:<15} {:>30} {:>30} {:>8}  verdict",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "change"
    );
    let cell = |s: Stats| format!("{:.4} [{:.4}, {:.4}]", s.median, s.q1, s.q3);
    let mut ok = true;
    for w in names {
        for (metric, higher, bound) in &bounds {
            let missing = |path: &str| format!("{path} lacks {w}/{metric}");
            let sa = stats(&a, w, metric).ok_or_else(|| missing(a_path))?;
            let sb = stats(&b, w, metric).ok_or_else(|| missing(b_path))?;
            let verdict = judge(sa, sb, *higher, *bound);
            ok &= verdict != Verdict::Worse;
            let change = 100.0 * (sb.median - sa.median) / sa.median.abs();
            println!(
                "{w:<15} {metric:<15} {:>30} {:>30} {change:>+7.2}%  {verdict:?}",
                cell(sa),
                cell(sb)
            );
        }
    }
    Ok(ok)
}
