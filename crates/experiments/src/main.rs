//! CLI regenerating the paper's figures and tables.
//!
//! ```text
//! experiments <command> [--jobs N] [--seeds 1,2,3] [--threads N] [--out DIR] [--quick]
//! ```
//!
//! The commands are listed in [`COMMANDS`]; an unknown one prints them.

use experiments::figures::{self, FigureConfig};
use experiments::report;
use std::path::PathBuf;
use std::process::ExitCode;

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
    "budget",
    "risk-profile",
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
    "budget",
    "risk-profile",
    "convergence",
    "summary",
];

fn usage() -> String {
    format!(
        "usage: experiments <{}> \
         [--jobs N] [--seeds 1,2,3] [--threads N] [--out DIR] [--charts] [--quick]\n\
         serve only: [--shards N] [--for-secs S]",
        COMMANDS.join("|")
    )
}

fn emit_figure(fig: &figures::Figure, out: &Option<PathBuf>, charts: bool) {
    if charts {
        print!("{}", report::figure_to_markdown_with_charts(fig));
    } else {
        print!("{}", report::figure_to_markdown(fig));
    }
    if let Some(dir) = out {
        match report::write_figure_csv(fig, dir) {
            Ok(paths) => {
                for p in paths {
                    eprintln!("wrote {}", p.display());
                }
            }
            Err(e) => eprintln!("cannot write CSVs: {e}"),
        }
        match report::write_figure_svg(fig, dir) {
            Ok(paths) => {
                for p in paths {
                    eprintln!("wrote {}", p.display());
                }
            }
            Err(e) => eprintln!("cannot write SVGs: {e}"),
        }
    }
}

/// The body of one subcommand; `None` for a name with no handler, and
/// for `all`, which `main` expands into [`ALL`].
fn handler(which: &str) -> Option<fn(&Args)> {
    let run: fn(&Args) = match which {
        "trace-stats" => |args| {
            let cfg = &args.cfg;
            let t = figures::trace_stats_table(cfg);
            print!("{}", t.to_markdown());
            if args.charts {
                for table in figures::trace_analysis_tables(cfg) {
                    println!();
                    print!("{}", table.to_markdown());
                }
            }
            if let Some(dir) = &args.out {
                let path = dir.join("trace_stats.csv");
                if let Err(e) = report::write_table_csv(&t, &path) {
                    eprintln!("cannot write CSV: {e}");
                } else {
                    eprintln!("wrote {}", path.display());
                }
            }
        },
        "summary" => |args| {
            let cfg = &args.cfg;
            let t = figures::policy_summary_table(cfg);
            print!("{}", t.to_markdown());
            if let Some(dir) = &args.out {
                let path = dir.join("policy_summary.csv");
                if let Err(e) = report::write_table_csv(&t, &path) {
                    eprintln!("cannot write CSV: {e}");
                } else {
                    eprintln!("wrote {}", path.display());
                }
            }
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
            let cfg = &args.cfg;
            let t = figures::convergence_table(cfg);
            print!("{}", t.to_markdown());
            if let Some(dir) = &args.out {
                let path = dir.join("convergence.csv");
                if let Err(e) = report::write_table_csv(&t, &path) {
                    eprintln!("cannot write CSV: {e}");
                } else {
                    eprintln!("wrote {}", path.display());
                }
            }
        },
        "budget" => |args| {
            let cfg = &args.cfg;
            let t = figures::budget_table(cfg);
            print!("{}", t.to_markdown());
            if let Some(dir) = &args.out {
                let path = dir.join("budget.csv");
                if let Err(e) = report::write_table_csv(&t, &path) {
                    eprintln!("cannot write CSV: {e}");
                } else {
                    eprintln!("wrote {}", path.display());
                }
            }
        },
        "timeline" => |args| {
            let cfg = &args.cfg;
            use experiments::obs_run;
            let policy = librisk::PolicyKind::LibraRisk;
            let scenario = obs_run::obs_scenario(cfg);
            let t = obs_run::timeline(&scenario, policy);
            println!(
                "# Gauge timeline — {policy:?} under churn, {} jobs\n",
                t.jobs
            );
            println!("| curve | points |");
            println!("| --- | --- |");
            println!("| utilization | {} |", t.utilization.len());
            println!("| in-flight / nodes | {} |", t.in_flight.len());
            if let Some(g) = &t.gauge {
                println!("| {} | {} |", g.name(), g.len());
            }
            if let Some(dir) = &args.out {
                let path = dir.join("timeline.svg");
                match std::fs::create_dir_all(dir)
                    .and_then(|()| std::fs::write(&path, t.to_svg(policy)))
                {
                    Ok(()) => eprintln!("wrote {}", path.display()),
                    Err(e) => eprintln!("cannot write SVG: {e}"),
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
                eprintln!("export validation failed: {e}");
                std::process::exit(1);
            }
            println!("# Decision trace — {policy:?} under churn\n");
            println!("| metric | value |");
            println!("| --- | --- |");
            println!("| events retained | {} |", rec.len());
            println!("| events dropped | {} |", rec.dropped());
            println!("| submitted | {} |", report.submitted());
            println!("| fulfilled | {} |", report.fulfilled());
            println!("| rejected | {} |", report.rejected());
            println!(
                "| decisions counted | {} |",
                rec.registry().counter(obs::keys::DECISIONS)
            );
            if let Some(dir) = &args.out {
                let write = |name: &str, body: String| {
                    let path = dir.join(name);
                    match std::fs::write(&path, body) {
                        Ok(()) => eprintln!("wrote {}", path.display()),
                        Err(e) => eprintln!("cannot write {name}: {e}"),
                    }
                };
                if let Err(e) = std::fs::create_dir_all(dir) {
                    eprintln!("cannot create {}: {e}", dir.display());
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
            println!("# Sharded router — throughput vs shard count\n");
            println!("| shards | jobs | jobs/s | fulfilled | oracle fulfilled | identity |");
            println!("| --- | --- | --- | --- | --- | --- |");
            for r in &rows {
                println!(
                    "| {} | {} | {:.0} | {} | {} | {} |",
                    r.shards,
                    r.jobs,
                    r.jobs_per_sec,
                    r.fulfilled,
                    r.oracle_fulfilled,
                    if r.identity_ok() { "ok" } else { "MISMATCH" },
                );
            }
            if let Some(dir) = &args.out {
                if let Err(e) = std::fs::create_dir_all(dir) {
                    eprintln!("cannot create {}: {e}", dir.display());
                } else {
                    for (name, body) in [
                        ("shard_scaling.csv", shard_scaling::shard_scaling_csv(&rows)),
                        ("shard_scaling.svg", shard_scaling::shard_scaling_svg(&rows)),
                    ] {
                        let path = dir.join(name);
                        match std::fs::write(&path, body) {
                            Ok(()) => eprintln!("wrote {}", path.display()),
                            Err(e) => eprintln!("cannot write {name}: {e}"),
                        }
                    }
                }
            }
        },
        "checkpoint" => |args| {
            let cfg = &args.cfg;
            use experiments::checkpoint_run;
            let probe = checkpoint_run::checkpoint_probe(cfg);
            println!("# Checkpoint/restore — LibraRisk under churn\n");
            println!("| metric | value |");
            println!("| --- | --- |");
            println!("| jobs (snapshot at) | {} ({}) |", probe.jobs, probe.cut);
            println!("| snapshot size | {} bytes |", probe.snapshot_bytes);
            println!(
                "| resumed == unbroken | ok ({} fulfilled) |",
                probe.fulfilled
            );
            println!(
                "| corruption detected | {} |",
                if probe.corruption_detected {
                    "ok"
                } else {
                    "MISSED"
                }
            );
            if let Some(dir) = &args.out {
                if let Err(e) = std::fs::create_dir_all(dir) {
                    eprintln!("cannot create {}: {e}", dir.display());
                } else {
                    let path = dir.join("checkpoint.csv");
                    match std::fs::write(&path, probe.to_csv()) {
                        Ok(()) => eprintln!("wrote {}", path.display()),
                        Err(e) => eprintln!("cannot write checkpoint.csv: {e}"),
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
                    println!("# Telemetry serve — {} shards\n", opts.shards);
                    println!("| metric | value |");
                    println!("| --- | --- |");
                    println!("| submitted | {} |", s.submitted);
                    println!("| fulfilled | {} |", s.fulfilled);
                    println!("| publish rounds | {} |", s.publishes);
                    println!(
                        "| ended by | {} |",
                        if s.shut_down_remotely {
                            "GET /shutdown"
                        } else {
                            "--for-secs timeout"
                        }
                    );
                }
                Err(e) => {
                    eprintln!("serve failed: {e}");
                    std::process::exit(1);
                }
            }
        },
        "risk-profile" => |args| {
            let cfg = &args.cfg;
            let t = figures::risk_profile_table(cfg);
            print!("{}", t.to_markdown());
            if let Some(dir) = &args.out {
                let path = dir.join("risk_profile.csv");
                if let Err(e) = report::write_table_csv(&t, &path) {
                    eprintln!("cannot write CSV: {e}");
                } else {
                    eprintln!("wrote {}", path.display());
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
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let cmd = args.command.as_str();
    if !COMMANDS.contains(&cmd) {
        eprintln!("unknown command {cmd}\n{}", usage());
        return ExitCode::FAILURE;
    }
    let one = [cmd];
    let start = std::time::Instant::now();
    for which in if cmd == "all" { ALL } else { &one } {
        handler(which).expect("every listed command has a handler")(&args);
        eprintln!("[{which} done at {:.1}s]", start.elapsed().as_secs_f64());
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
