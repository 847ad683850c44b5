//! End-to-end benchmark of the PBO engine and the ask/tell session
//! server. See `README.md` next to this crate for the workloads, the
//! metrics and how to run it.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload paper-ackley-q16 --seed 1 --seconds 40 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. The exit code is
//! non-zero when any output check fails.

mod paper;
mod report;
mod sessions;
mod stats;
mod trace;

use report::{catalogue, Outcome, END_TO_END, PER_LAYER};
use sessions::Script;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// Workload names, in run order.
const WORKLOADS: &[&str] = &[
    "paper-ackley-q16",
    "paper-uphes-q4",
    "sessions-restart",
    "sessions-fresh",
];

const USAGE: &str = "usage: pbo-e2ebench --workload \
<paper-ackley-q16|paper-uphes-q4|sessions-restart|sessions-fresh|all> \
[--seed N] [--seconds N] [--trace 0|1]";

/// Parsed command line.
#[derive(Debug, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 40,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => {
                args.seed = value
                    .parse()
                    .map_err(|_| format!("--seed: not a number: {value}"))?
            }
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .map_err(|_| format!("--seconds: not a number: {value}"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace: expected 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload '{}'", args.workload));
    }
    Ok(args)
}

/// One run of one workload.
fn run_one(workload: &str, seed: u64, traced: bool, out_dir: &Path) -> Outcome {
    if !traced {
        return match workload {
            "sessions-restart" => sessions::run(&Script::sessions_restart(seed), out_dir),
            "sessions-fresh" => sessions::run(&Script::sessions_fresh(seed), out_dir),
            _ => paper::run(paper::spec(workload), seed),
        };
    }
    let mut tracer = trace::Tracer::new(seed);
    let out = match workload {
        "sessions-restart" => {
            sessions::run_traced(&Script::sessions_restart(seed), &mut tracer, out_dir)
        }
        "sessions-fresh" => {
            sessions::run_traced(&Script::sessions_fresh(seed), &mut tracer, out_dir)
        }
        _ => paper::run_traced(paper::spec(workload), seed, &mut tracer),
    };
    let path = out_dir.join(format!("{workload}-seed{seed}.spans.jsonl"));
    match std::fs::write(&path, tracer.to_jsonl()) {
        Ok(()) => println!(
            "   {} spans written to {}",
            tracer.spans().len(),
            path.display()
        ),
        Err(e) => eprintln!("cannot write {}: {e}", path.display()),
    }
    println!("   self time by layer (s):");
    for (layer, s) in trace::self_time_by_layer(tracer.spans()) {
        println!("     {layer:<22} {s:>12.6}");
    }
    out
}

fn manifest(args: &Args) -> String {
    format!(
        "manifest: nproc={} rustc={} profile=release threads={} seed={} seconds={} trace={}",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        env!("E2EBENCH_RUSTC"),
        pbo::linalg::parallel::num_threads(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let out_dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"));
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("cannot create {}: {e}", out_dir.display());
        return ExitCode::from(1);
    }
    println!("{}", manifest(&args));
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let mut rows = Vec::new();
    for name in &names {
        let t0 = Instant::now();
        let out = run_one(name, args.seed, args.trace, &out_dir);
        let metrics = catalogue(name.starts_with("sessions-"), args.trace);
        print!("{}", out.table(name, &metrics));
        println!("   ({:.1} s)", t0.elapsed().as_secs_f64());
        rows.push((*name, out, metrics));
    }
    if rows.len() > 1 {
        print_summary(&rows, if args.trace { PER_LAYER } else { END_TO_END });
    }
    let correct = rows.iter().all(|(_, o, m)| o.correct(m));
    let line = if let [(_, only, metrics)] = rows.as_slice() {
        only.json_line(metrics)
    } else {
        let attempted: u64 = rows.iter().map(|(_, o, _)| o.attempted).sum();
        let failed: u64 = rows.iter().map(|(_, o, _)| o.failed).sum();
        format!("{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{}}}}")
    };
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        for (name, o, metrics) in &rows {
            let missing = o.missing(metrics);
            if !missing.is_empty() {
                eprintln!("{name}: missing metrics {missing:?}");
            }
        }
        ExitCode::from(1)
    }
}

/// One workload's result: its name, what the run found and the metrics
/// it reports.
type Row<'a> = (&'a str, Outcome, Vec<(&'static str, &'static str)>);

/// One row per workload, one column per metric.
fn print_summary(rows: &[Row], catalogue: &[(&str, &str)]) {
    print!("{:<18}", "workload");
    for (name, unit) in catalogue {
        print!(" {:>16}", format!("{name}[{unit}]"));
    }
    println!();
    for (w, o, _) in rows {
        print!("{w:<18}");
        for (name, _) in catalogue {
            match o.get(name) {
                Some(v) => print!(" {v:>16.6}"),
                None => print!(" {:>16}", "-"),
            }
        }
        println!();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let a = parse_args(&argv(&[
            "--workload",
            "paper-uphes-q4",
            "--seed",
            "7",
            "--seconds",
            "40",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(
            a,
            Args {
                workload: "paper-uphes-q4".into(),
                seed: 7,
                seconds: 40,
                trace: true
            }
        );
        assert!(parse_args(&argv(&["--workload", "nope"])).is_err());
        assert!(parse_args(&argv(&["--workload", "all", "--trace", "2"])).is_err());
        assert!(parse_args(&argv(&["--workload", "all", "--seed"])).is_err());
        assert!(parse_args(&argv(&[])).is_err());
    }
}
