//! CLI regenerating the paper's figures and tables.
//!
//! ```text
//! experiments <command> [--jobs N] [--seeds 1,2,3] [--threads N] [--out DIR] [--quick]
//! ```
//!
//! The commands are listed in [`COMMANDS`]; an unknown one prints them.

use experiments::figures::{self, FigureConfig};
use experiments::report;
use metrics::Table;
use std::fmt;
use std::io::{self, Write};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};

/// Set once a write found its pipe closed: the reader wants no more
/// output (`experiments all | head -1`).
static OUTPUT_CLOSED: AtomicBool = AtomicBool::new(false);

/// Writes to stdout, or to stderr with `to_stderr`: the one sink of
/// every line the binary prints. A closed pipe sets [`OUTPUT_CLOSED`]
/// and drops this and every later write, so the output ends quietly
/// and `main` runs no further subcommand; any other write error panics,
/// as `print!` would.
fn emit(to_stderr: bool, args: fmt::Arguments) {
    if OUTPUT_CLOSED.load(Ordering::Relaxed) {
        return;
    }
    let written = if to_stderr {
        io::stderr().lock().write_fmt(args)
    } else {
        io::stdout().lock().write_fmt(args)
    };
    match written {
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => {
            OUTPUT_CLOSED.store(true, Ordering::Relaxed)
        }
        Err(e) => panic!("failed printing: {e}"),
        Ok(()) => {}
    }
}

/// `print!` through [`emit`].
macro_rules! out {
    ($($arg:tt)*) => { emit(false, format_args!($($arg)*)) };
}

/// `println!` through [`emit`].
macro_rules! outln {
    () => { emit(false, format_args!("\n")) };
    ($($arg:tt)*) => { emit(false, format_args!("{}\n", format_args!($($arg)*))) };
}

/// `eprintln!` through [`emit`].
macro_rules! errln {
    ($($arg:tt)*) => { emit(true, format_args!("{}\n", format_args!($($arg)*))) };
}

struct Args {
    command: String,
    cfg: FigureConfig,
    out: Option<PathBuf>,
    charts: bool,
    /// `serve`: shards behind the router.
    shards: usize,
    /// `serve`: seconds to keep serving after the drive (cut short by
    /// `GET /shutdown`).
    for_secs: f64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let command = args.next().ok_or_else(usage)?;
    let mut cfg = FigureConfig::default();
    let mut out = None;
    let mut charts = false;
    let mut shards = 4usize;
    let mut for_secs = 30.0f64;
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--quick" => {
                let quick = FigureConfig::quick();
                cfg.jobs = quick.jobs;
                cfg.seeds = quick.seeds;
            }
            "--jobs" => {
                cfg.jobs = args
                    .next()
                    .ok_or("--jobs needs a value")?
                    .parse()
                    .map_err(|e| format!("--jobs: {e}"))?;
            }
            "--seeds" => {
                let list = args.next().ok_or("--seeds needs a value")?;
                cfg.seeds = list
                    .split(',')
                    .map(|s| s.trim().parse::<u64>().map_err(|e| format!("--seeds: {e}")))
                    .collect::<Result<Vec<_>, _>>()?;
                if cfg.seeds.is_empty() {
                    return Err("--seeds needs at least one seed".into());
                }
            }
            "--threads" => {
                cfg.threads = args
                    .next()
                    .ok_or("--threads needs a value")?
                    .parse()
                    .map_err(|e| format!("--threads: {e}"))?;
            }
            "--out" => {
                out = Some(PathBuf::from(args.next().ok_or("--out needs a value")?));
            }
            "--charts" => charts = true,
            "--shards" => {
                shards = args
                    .next()
                    .ok_or("--shards needs a value")?
                    .parse()
                    .map_err(|e| format!("--shards: {e}"))?;
            }
            "--for-secs" => {
                for_secs = args
                    .next()
                    .ok_or("--for-secs needs a value")?
                    .parse()
                    .map_err(|e| format!("--for-secs: {e}"))?;
            }
            other => return Err(format!("unknown flag {other}\n{}", usage())),
        }
    }
    Ok(Args {
        command,
        cfg,
        out,
        charts,
        shards,
        for_secs,
    })
}

/// Every subcommand, in the order the usage string lists them: the one
/// list that builds [`usage`] and validates the command line. Each name
/// but `all` has a [`handler`].
const COMMANDS: &[&str] = &[
    "fig1",
    "fig2",
    "fig3",
    "fig4",
    "ablation",
    "robustness",
    "heterogeneity",
    "churn",
    "convergence",
    "summary",
    "trace-stats",
    "timeline",
    "trace",
    "shard-scaling",
    "checkpoint",
    "serve",
    "all",
];

/// What `experiments all` runs, in order: the paper's figures and
/// tables.
const ALL: &[&str] = &[
    "trace-stats",
    "fig1",
    "fig2",
    "fig3",
    "fig4",
    "ablation",
    "robustness",
    "heterogeneity",
    "churn",
    "convergence",
    "summary",
];

fn usage() -> String {
    format!(
        "usage: experiments <{}> \
         [--jobs N] [--seeds 1,2,3] [--threads N] [--out DIR] [--charts] [--quick]\n\
         serve only: [--shards N (1-128)] [--for-secs S]",
        COMMANDS.join("|")
    )
}

fn emit_figure(fig: &figures::Figure, out: &Option<PathBuf>, charts: bool) {
    if charts {
        out!("{}", report::figure_to_markdown_with_charts(fig));
    } else {
        out!("{}", report::figure_to_markdown(fig));
    }
    if let Some(dir) = out {
        match report::write_figure_csv(fig, dir) {
            Ok(paths) => {
                for p in paths {
                    errln!("wrote {}", p.display());
                }
            }
            Err(e) => errln!("cannot write CSVs: {e}"),
        }
        match report::write_figure_svg(fig, dir) {
            Ok(paths) => {
                for p in paths {
                    errln!("wrote {}", p.display());
                }
            }
            Err(e) => errln!("cannot write SVGs: {e}"),
        }
    }
}

/// Prints `table` as markdown and, with `--out`, writes it to
/// `file_name` in that directory.
fn emit_table(table: &Table, file_name: &str, out: &Option<PathBuf>) {
    out!("{}", table.to_markdown());
    if let Some(dir) = out {
        let path = dir.join(file_name);
        match report::write_table_csv(table, &path) {
            Ok(()) => errln!("wrote {}", path.display()),
            Err(e) => errln!("cannot write CSV: {e}"),
        }
    }
}

/// The body of one subcommand; `None` for a name with no handler, and
/// for `all`, which `main` expands into [`ALL`].
fn handler(which: &str) -> Option<fn(&Args)> {
    let run: fn(&Args) = match which {
        "trace-stats" => |args| {
            let cfg = &args.cfg;
            emit_table(
                &figures::trace_stats_table(cfg),
                "trace_stats.csv",
                &args.out,
            );
            if args.charts {
                for table in figures::trace_analysis_tables(cfg) {
                    outln!();
                    out!("{}", table.to_markdown());
                }
            }
        },
        "summary" => |args| {
            emit_table(
                &figures::policy_summary_table(&args.cfg),
                "policy_summary.csv",
                &args.out,
            )
        },
        "fig1" => |args| emit_figure(&figures::fig1(&args.cfg), &args.out, args.charts),
        "fig2" => |args| emit_figure(&figures::fig2(&args.cfg), &args.out, args.charts),
        "fig3" => |args| emit_figure(&figures::fig3(&args.cfg), &args.out, args.charts),
        "fig4" => |args| emit_figure(&figures::fig4(&args.cfg), &args.out, args.charts),
        "ablation" => |args| emit_figure(&figures::ablation(&args.cfg), &args.out, args.charts),
        "robustness" => |args| emit_figure(&figures::robustness(&args.cfg), &args.out, args.charts),
        "heterogeneity" => {
            |args| emit_figure(&figures::heterogeneity(&args.cfg), &args.out, args.charts)
        }
        "churn" => |args| emit_figure(&figures::churn(&args.cfg), &args.out, args.charts),
        "convergence" => |args| {
            emit_table(
                &figures::convergence_table(&args.cfg),
                "convergence.csv",
                &args.out,
            )
        },
        "timeline" => |args| {
            let cfg = &args.cfg;
            use experiments::obs_run;
            let policy = librisk::PolicyKind::LibraRisk;
            let scenario = obs_run::obs_scenario(cfg);
            let t = obs_run::timeline(&scenario, policy);
            outln!(
                "# Gauge timeline — {policy:?} under churn, {} jobs\n",
                t.jobs
            );
            outln!("| curve | points |");
            outln!("| --- | --- |");
            outln!("| utilization | {} |", t.utilization.len());
            outln!("| in-flight / nodes | {} |", t.in_flight.len());
            if let Some(g) = &t.gauge {
                outln!("| {} | {} |", g.name(), g.len());
            }
            if let Some(dir) = &args.out {
                let path = dir.join("timeline.svg");
                match std::fs::create_dir_all(dir)
                    .and_then(|()| std::fs::write(&path, t.to_svg(policy)))
                {
                    Ok(()) => errln!("wrote {}", path.display()),
                    Err(e) => errln!("cannot write SVG: {e}"),
                }
            }
        },
        "trace" => |args| {
            let cfg = &args.cfg;
            use experiments::obs_run;
            let policy = librisk::PolicyKind::LibraRisk;
            let scenario = obs_run::obs_scenario(cfg);
            let (rec, report) = obs_run::trace_run(&scenario, policy, 1 << 16);
            if let Err(e) = obs_run::validate_exports(&rec) {
                errln!("export validation failed: {e}");
                std::process::exit(1);
            }
            outln!("# Decision trace — {policy:?} under churn\n");
            outln!("| metric | value |");
            outln!("| --- | --- |");
            outln!("| events retained | {} |", rec.len());
            outln!("| events dropped | {} |", rec.dropped());
            outln!("| submitted | {} |", report.submitted());
            outln!("| fulfilled | {} |", report.fulfilled());
            outln!("| rejected | {} |", report.rejected());
            outln!(
                "| decisions counted | {} |",
                rec.registry().counter(obs::keys::DECISIONS)
            );
            if let Some(dir) = &args.out {
                let write = |name: &str, body: String| {
                    let path = dir.join(name);
                    match std::fs::write(&path, body) {
                        Ok(()) => errln!("wrote {}", path.display()),
                        Err(e) => errln!("cannot write {name}: {e}"),
                    }
                };
                if let Err(e) = std::fs::create_dir_all(dir) {
                    errln!("cannot create {}: {e}", dir.display());
                } else {
                    write("events.jsonl", rec.to_jsonl());
                    write("trace.json", rec.to_chrome_trace());
                    write("metrics.prom", rec.registry().to_prometheus());
                }
            }
        },
        "shard-scaling" => |args| {
            let cfg = &args.cfg;
            use experiments::shard_scaling;
            let rows = shard_scaling::shard_scaling(cfg);
            outln!("# Sharded router — fulfilled vs shard count\n");
            outln!("| shards | jobs | fulfilled | oracle fulfilled | identity |");
            outln!("| --- | --- | --- | --- | --- |");
            for r in &rows {
                outln!(
                    "| {} | {} | {} | {} | {} |",
                    r.shards,
                    r.jobs,
                    r.fulfilled,
                    r.oracle_fulfilled,
                    if r.identity_ok() { "ok" } else { "MISMATCH" },
                );
            }
            if let Some(dir) = &args.out {
                if let Err(e) = std::fs::create_dir_all(dir) {
                    errln!("cannot create {}: {e}", dir.display());
                } else {
                    for (name, body) in [
                        ("shard_scaling.csv", shard_scaling::shard_scaling_csv(&rows)),
                        ("shard_scaling.svg", shard_scaling::shard_scaling_svg(&rows)),
                    ] {
                        let path = dir.join(name);
                        match std::fs::write(&path, body) {
                            Ok(()) => errln!("wrote {}", path.display()),
                            Err(e) => errln!("cannot write {name}: {e}"),
                        }
                    }
                }
            }
        },
        "checkpoint" => |args| {
            let cfg = &args.cfg;
            use experiments::checkpoint_run;
            let probe = checkpoint_run::checkpoint_probe(cfg);
            outln!("# Checkpoint/restore — LibraRisk under churn\n");
            outln!("| metric | value |");
            outln!("| --- | --- |");
            outln!("| jobs (snapshot at) | {} ({}) |", probe.jobs, probe.cut);
            outln!("| snapshot size | {} bytes |", probe.snapshot_bytes);
            outln!(
                "| resumed == unbroken | ok ({} fulfilled) |",
                probe.fulfilled
            );
            outln!(
                "| corruption detected | {} |",
                if probe.corruption_detected {
                    "ok"
                } else {
                    "MISSED"
                }
            );
            if let Some(dir) = &args.out {
                if let Err(e) = std::fs::create_dir_all(dir) {
                    errln!("cannot create {}: {e}", dir.display());
                } else {
                    let path = dir.join("checkpoint.csv");
                    match std::fs::write(&path, probe.to_csv()) {
                        Ok(()) => errln!("wrote {}", path.display()),
                        Err(e) => errln!("cannot write checkpoint.csv: {e}"),
                    }
                }
            }
        },
        "serve" => |args| {
            let cfg = &args.cfg;
            use experiments::telemetry_run::{self, ServeOptions};
            let opts = ServeOptions {
                jobs: cfg.jobs.min(20_000),
                shards: args.shards,
                linger_secs: args.for_secs,
                seed: cfg.seeds.first().copied().unwrap_or(1),
            };
            match telemetry_run::serve(&opts) {
                Ok(s) => {
                    outln!("# Telemetry serve — {} shards\n", opts.shards);
                    outln!("| metric | value |");
                    outln!("| --- | --- |");
                    outln!("| submitted | {} |", s.submitted);
                    outln!("| fulfilled | {} |", s.fulfilled);
                    outln!("| publish rounds | {} |", s.publishes);
                    outln!(
                        "| ended by | {} |",
                        if s.shut_down_remotely {
                            "GET /shutdown"
                        } else {
                            "--for-secs timeout"
                        }
                    );
                }
                Err(e) => {
                    errln!("serve failed: {e}");
                    std::process::exit(1);
                }
            }
        },
        _ => return None,
    };
    Some(run)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            errln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let cmd = args.command.as_str();
    if !COMMANDS.contains(&cmd) {
        errln!("unknown command {cmd}\n{}", usage());
        return ExitCode::FAILURE;
    }
    let one = [cmd];
    let start = std::time::Instant::now();
    for which in if cmd == "all" { ALL } else { &one } {
        if OUTPUT_CLOSED.load(Ordering::Relaxed) {
            break;
        }
        handler(which).expect("every listed command has a handler")(&args);
        errln!("[{which} done at {:.1}s]", start.elapsed().as_secs_f64());
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_listed_command_dispatches() {
        for name in COMMANDS.iter().filter(|&&c| c != "all") {
            assert!(
                handler(name).is_some(),
                "{name} is listed but not dispatched"
            );
        }
        for name in ALL {
            assert!(COMMANDS.contains(name), "all runs unlisted {name}");
        }
        assert!(handler("all").is_none() && handler("bogus").is_none());
    }
}
