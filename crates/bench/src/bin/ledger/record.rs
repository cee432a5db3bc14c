//! What the ledger writes: the one-line result of a workload run, and
//! the `run` suite's record with its host fingerprint. Every document is
//! a typed `obs::json::Value`, written by `to_json` and read back with
//! `obs::json::parse`.

use crate::catalogue::{unit, END_TO_END};
use crate::measure::Run;
use crate::workload::SPECS;
use metrics::percentile::quantile;
use obs::json::{self, Value};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::{Command, Stdio};
use std::time::Instant;

/// Untraced child runs per workload in `ledger run`; one traced child
/// runs first, carrying the oracles.
pub const REPS: usize = 5;

pub fn obj<const N: usize>(members: [(&str, Value); N]) -> Value {
    Value::Obj(members.map(|(k, v)| (k.to_string(), v)).into())
}

fn num(x: impl Into<f64>) -> Value {
    Value::Num(x.into())
}

/// Compact JSON when `pretty` is false, else two-space indented.
pub fn to_json(v: &Value, pretty: bool) -> String {
    let mut out = String::new();
    write(v, pretty, 0, &mut out);
    out
}

fn write(v: &Value, pretty: bool, depth: usize, out: &mut String) {
    let newline = |out: &mut String, depth: usize| {
        if pretty {
            out.push('\n');
            out.push_str(&"  ".repeat(depth));
        }
    };
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Num(x) if x.is_finite() => write!(out, "{x}").expect("writing to a String"),
        Value::Num(_) => out.push_str("null"),
        Value::Str(s) => string(s, out),
        Value::Arr(items) => {
            // Arrays of numbers stay on one line.
            let nested = items
                .iter()
                .any(|v| matches!(v, Value::Obj(_) | Value::Arr(_)));
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                if nested {
                    newline(out, depth + 1);
                }
                write(item, pretty, depth + 1, out);
            }
            if nested && !items.is_empty() {
                newline(out, depth);
            }
            out.push(']');
        }
        Value::Obj(members) => {
            out.push('{');
            for (i, (k, item)) in members.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline(out, depth + 1);
                string(k, out);
                out.push_str(if pretty { ": " } else { ":" });
                write(item, pretty, depth + 1, out);
            }
            if !members.is_empty() {
                newline(out, depth);
            }
            out.push('}');
        }
    }
}

fn string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).expect("writing to a String")
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// The last stdout line of a workload run.
pub fn result_line(run: &Run) -> String {
    let metrics = run
        .metrics
        .iter()
        .map(|&(name, value)| {
            let m = obj([
                ("value", num(value)),
                ("unit", Value::Str(unit(name).into())),
            ]);
            (name.to_string(), m)
        })
        .collect();
    let v = obj([
        ("correct", Value::Bool(run.correct())),
        ("attempted", num(run.attempted as f64)),
        ("failed", num(run.failed as f64)),
        ("metrics", Value::Obj(metrics)),
    ]);
    to_json(&v, false)
}

/// A result line read back.
pub struct Reported {
    pub correct: bool,
    pub attempted: f64,
    pub failed: f64,
    pub metrics: Vec<(String, f64, String)>,
}

pub fn parse_result(line: &str) -> Result<Reported, String> {
    let v = json::parse(line)?;
    let field = |k: &str| v.get(k).ok_or(format!("result lacks {k:?}"));
    let metrics = match field("metrics")? {
        Value::Obj(ms) => ms
            .iter()
            .map(|(name, m)| {
                let value = m.get("value").and_then(Value::as_f64);
                let unit = m.get("unit").and_then(Value::as_str);
                match (value, unit) {
                    (Some(x), Some(u)) => Ok((name.clone(), x, u.to_string())),
                    _ => Err(format!("metric {name:?} lacks a numeric value or a unit")),
                }
            })
            .collect::<Result<_, _>>()?,
        _ => return Err("metrics is not an object".into()),
    };
    let number = |k: &str| field(k)?.as_f64().ok_or(format!("{k:?} is not a number"));
    Ok(Reported {
        correct: field("correct")?.as_bool().ok_or("correct is not a bool")?,
        attempted: number("attempted")?,
        failed: number("failed")?,
        metrics,
    })
}

/// nproc, CPU model, compiler, commit and build profile of this run.
pub fn host() -> Value {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    obj([
        ("nproc", num(nproc as f64)),
        ("cpu", Value::Str(cpu)),
        ("rustc", Value::Str(first_line("rustc", &["-V"]))),
        (
            "commit",
            Value::Str(first_line("git", &["rev-parse", "HEAD"])),
        ),
        (
            "profile",
            Value::Str(
                if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release"
                }
                .into(),
            ),
        ),
    ])
}

fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// One workload's children, gathered.
struct Cell {
    name: &'static str,
    jobs: usize,
    correct: bool,
    attempted: f64,
    failed: f64,
    wall_s: f64,
    e2e: BTreeMap<String, Vec<f64>>,
    per_layer: Vec<(String, f64, String)>,
}

/// `ledger run`: every workload, one child process at a time, rounds
/// interleaved across workloads — the traced child first, then `REPS`
/// untraced ones. Prints every metric, writes the record to `out`, and
/// returns whether every check passed.
pub fn run(seed: u64, out: &str) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating ledger: {e}"))?;
    let golden = crate::oracle::golden();
    for f in &golden {
        eprintln!("ledger: FAILED {f}");
    }
    let mut cells: Vec<Cell> = SPECS
        .iter()
        .map(|s| Cell {
            name: s.name,
            jobs: s.jobs,
            correct: true,
            attempted: 0.0,
            failed: 0.0,
            wall_s: 0.0,
            e2e: BTreeMap::new(),
            per_layer: Vec::new(),
        })
        .collect();
    let seed_arg = seed.to_string();
    for round in 0..=REPS {
        for cell in &mut cells {
            let traced = round == 0;
            eprintln!(
                "ledger: {} {}",
                cell.name,
                if traced {
                    "traced".to_string()
                } else {
                    format!("rep {round}/{REPS}")
                }
            );
            let t = Instant::now();
            let child = Command::new(&exe)
                .args([
                    "--workload",
                    cell.name,
                    "--seed",
                    &seed_arg,
                    "--seconds",
                    "0",
                ])
                .args(if traced {
                    &["--trace", "1"][..]
                } else {
                    &["--trace", "0", "--oracles", "0"]
                })
                .stderr(Stdio::inherit())
                .output()
                .map_err(|e| format!("starting a child: {e}"))?;
            cell.wall_s += t.elapsed().as_secs_f64();
            let stdout = String::from_utf8_lossy(&child.stdout);
            let r = match parse_result(stdout.lines().last().unwrap_or_default()) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("ledger: {}: {e}", cell.name);
                    cell.correct = false;
                    continue;
                }
            };
            cell.correct &= child.status.success() && r.correct;
            cell.attempted += r.attempted;
            cell.failed += r.failed;
            if traced {
                cell.per_layer = r.metrics;
            } else {
                for (name, value, _) in r.metrics {
                    cell.e2e.entry(name).or_default().push(value);
                }
            }
        }
    }
    let mut workloads = Vec::new();
    for c in &cells {
        let failed_ops_pct = 100.0 * c.failed / c.attempted.max(1.0);
        let mut e2e = Vec::new();
        for m in &END_TO_END {
            let values = c.e2e.get(m.name).cloned().unwrap_or_default();
            let q = |p| quantile(&values, p).unwrap_or(f64::NAN);
            println!("{} {} {} {}", c.name, m.name, q(0.5), m.unit);
            let values = Value::Arr(values.iter().map(|&x| num(x)).collect());
            let stats = obj([
                ("unit", Value::Str(m.unit.into())),
                ("median", num(q(0.5))),
                ("q1", num(q(0.25))),
                ("q3", num(q(0.75))),
                ("values", values),
            ]);
            e2e.push((m.name.to_string(), stats));
        }
        println!("{} failed_ops_pct {failed_ops_pct} %", c.name);
        let mut layers = Vec::new();
        for (name, value, unit) in &c.per_layer {
            println!("{} {name} {value} {unit}", c.name);
            let cell = obj([("unit", Value::Str(unit.clone())), ("value", num(*value))]);
            layers.push((name.clone(), cell));
        }
        workloads.push(obj([
            ("name", Value::Str(c.name.into())),
            ("jobs", num(c.jobs as f64)),
            ("correct", Value::Bool(c.correct)),
            ("attempted", num(c.attempted)),
            ("failed", num(c.failed)),
            ("failed_ops_pct", num(failed_ops_pct)),
            ("children_wall_s", num(c.wall_s)),
            ("end_to_end", Value::Obj(e2e)),
            ("per_layer", Value::Obj(layers)),
        ]));
    }
    let correct = golden.is_empty() && cells.iter().all(|c| c.correct);
    let record = obj([
        ("seed", num(seed as f64)),
        ("reps", num(REPS as f64)),
        ("correct", Value::Bool(correct)),
        ("host", host()),
        ("workloads", Value::Arr(workloads)),
    ]);
    std::fs::write(out, to_json(&record, true) + "\n")
        .map_err(|e| format!("writing {out}: {e}"))?;
    eprintln!("ledger: wrote {out}");
    Ok(correct)
}
