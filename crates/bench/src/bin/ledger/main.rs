//! `ledger`: the repository's benchmark — five named LibraRisk admission
//! workloads, measured end to end with tracing off and layer by layer
//! with spans timed around each public call. See README.md.
//!
//! ```text
//! ledger --workload NAME --seed N --seconds S --trace 0|1 [--oracles 0|1]
//! ledger run --seed N --out FILE
//! ledger compare A.json B.json [--bench BENCHMARK.json]
//! ```
//!
//! The first form runs one workload: it checks the outputs, measures
//! for `S` seconds (at least one replay), prints every metric as
//! `workload metric value unit`, and ends with one JSON result line.
//! `run` runs every workload in child processes of its own and writes a
//! record; `compare` judges two records against the bounds in
//! BENCHMARK.json. Every form exits non-zero when a check fails.

#![forbid(unsafe_code)]

mod catalogue;
mod compare;
mod measure;
mod oracle;
mod probe;
mod record;
mod replay;
mod workload;

#[cfg(test)]
mod tests;

use std::collections::BTreeMap;

const USAGE: &str = "usage:
  ledger --workload NAME --seed N --seconds S --trace 0|1 [--oracles 0|1]
  ledger run --seed N --out FILE
  ledger compare A.json B.json [--bench BENCHMARK.json]";

/// `--flag value` pairs and the remaining positional arguments.
struct Args<'a> {
    flags: BTreeMap<&'a str, &'a str>,
    positional: Vec<&'a str>,
}

impl<'a> Args<'a> {
    fn parse(args: &'a [String]) -> Result<Self, String> {
        let mut flags = BTreeMap::new();
        let mut positional = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            match a.strip_prefix("--") {
                Some(flag) => {
                    let value = it.next().ok_or(format!("--{flag} needs a value"))?;
                    if flags.insert(flag, value.as_str()).is_some() {
                        return Err(format!("--{flag} given twice"));
                    }
                }
                None => positional.push(a.as_str()),
            }
        }
        Ok(Args { flags, positional })
    }

    fn get<T: std::str::FromStr>(&self, flag: &str, default: Option<T>) -> Result<T, String> {
        match self.flags.get(flag) {
            Some(v) => v.parse().map_err(|_| format!("bad --{flag} {v:?}")),
            None => default.ok_or(format!("missing --{flag}")),
        }
    }

    fn only(&self, allowed: &[&str], positional: usize) -> Result<(), String> {
        if let Some(f) = self.flags.keys().find(|f| !allowed.contains(f)) {
            return Err(format!("unknown flag --{f}"));
        }
        if self.positional.len() != positional {
            return Err(format!("expected {positional} positional argument(s)"));
        }
        Ok(())
    }
}

/// Timing a build with debug assertions would measure the wrong program.
fn release_only() -> Result<(), String> {
    if cfg!(debug_assertions) {
        return Err("refusing to time a debug build; build with --release".into());
    }
    Ok(())
}

fn flag01(args: &Args, flag: &str, default: Option<u8>) -> Result<bool, String> {
    match args.get::<u8>(flag, default)? {
        0 => Ok(false),
        1 => Ok(true),
        v => Err(format!("--{flag} must be 0 or 1, got {v}")),
    }
}

fn one_workload(args: &Args) -> Result<bool, String> {
    args.only(&["workload", "seed", "seconds", "trace", "oracles"], 0)?;
    let name: String = args.get("workload", None)?;
    let spec = workload::spec(&name).ok_or(format!("unknown workload {name:?}"))?;
    let seed: u64 = args.get("seed", None)?;
    let seconds: f64 = args.get("seconds", None)?;
    if !(seconds.is_finite() && seconds >= 0.0) {
        return Err(format!(
            "--seconds must be a finite number ≥ 0, got {seconds}"
        ));
    }
    let trace = flag01(args, "trace", None)?;
    let oracles = flag01(args, "oracles", Some(1))?;
    release_only()?;
    let run = if trace {
        measure::traced(spec, seed, seconds)
    } else {
        measure::end_to_end(spec, seed, seconds, oracles)
    };
    for f in &run.failures {
        eprintln!("ledger: FAILED {f}");
    }
    for &(metric, value) in &run.metrics {
        println!("{} {metric} {value} {}", spec.name, catalogue::unit(metric));
    }
    println!("{} failed_ops_pct {} %", spec.name, run.failed_ops_pct());
    println!("{}", record::result_line(&run));
    Ok(run.correct())
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.first().map(String::as_str) {
        Some("run") => Args::parse(&argv[1..]).and_then(|a| {
            a.only(&["seed", "out"], 0)?;
            release_only()?;
            record::run(a.get("seed", None)?, &a.get::<String>("out", None)?)
        }),
        Some("compare") => Args::parse(&argv[1..]).and_then(|a| {
            a.only(&["bench"], 2)?;
            let bench: String = a.get("bench", Some("BENCHMARK.json".into()))?;
            compare::compare(a.positional[0], a.positional[1], &bench)
        }),
        _ => Args::parse(&argv).and_then(|a| one_workload(&a)),
    };
    std::process::exit(match outcome {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(msg) => {
            eprintln!("ledger: {msg}\n{USAGE}");
            2
        }
    });
}
