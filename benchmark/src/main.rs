//! Command-line entry of the benchmark. One process measures one workload:
//!
//! ```text
//! noc-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--save SET]
//! noc-benchmark --list
//! noc-benchmark --manifest
//! noc-benchmark --compare <set-a> <set-b>
//! ```
//!
//! The last line of standard output is the result object the gate reads;
//! everything above it is the human-readable report. `benchmark/run.sh`
//! builds this binary and runs it from the root of the checkout, one process
//! per workload; results, spans and temporary files go to `benchmark/out/`.
//! `--seconds` is accepted and ignored: a run is a fixed number of passes of
//! fixed work.

use noc_benchmark::manifest::benchmark_json;
use noc_benchmark::pass::RunConfig;
use noc_benchmark::report::{disagreements, human, result_line, saved, Environment};
use noc_benchmark::{run_workload, workloads};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Results, span exports and per-pass temporary files, relative to the root
/// of the checkout.
const OUT_DIR: &str = "benchmark/out";

fn usage() -> ExitCode {
    eprintln!(
        "usage: noc-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1] \
         [--save SET]\n       noc-benchmark --list\n       noc-benchmark --manifest\n       \
         noc-benchmark --compare <set-a> <set-b>\nworkloads: {}",
        workloads::ALL.map(|w| w.0).join(", ")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let out_dir = PathBuf::from(OUT_DIR);
    let mut workload = None;
    let mut seed = 2015u64;
    let mut traced = false;
    let mut save: Option<PathBuf> = None;
    let mut i = 0;
    while i < args.len() {
        let value = args.get(i + 1);
        match (args[i].as_str(), value) {
            ("--list", _) => {
                for (name, _) in workloads::ALL {
                    println!("{name}");
                }
                return ExitCode::SUCCESS;
            }
            ("--manifest", _) => {
                print!("{}", benchmark_json(&workloads::ALL));
                return ExitCode::SUCCESS;
            }
            ("--compare", Some(a)) => {
                let Some(b) = args.get(i + 2) else {
                    return usage();
                };
                let names = workloads::ALL.map(|w| w.0);
                let found = disagreements(&out_dir.join(a), &out_dir.join(b), &names);
                for line in &found {
                    println!("DISAGREE {line}");
                }
                return if found.is_empty() {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                };
            }
            ("--workload", Some(v)) => workload = Some(v.clone()),
            ("--seed", Some(v)) => match v.parse() {
                Ok(n) => seed = n,
                Err(_) => return usage(),
            },
            ("--seconds", Some(v)) => {
                if v.parse::<f64>().is_err() {
                    return usage();
                }
            }
            ("--trace", Some(v)) => match v.as_str() {
                "0" => traced = false,
                "1" => traced = true,
                _ => return usage(),
            },
            ("--save", Some(v)) if !v.contains(['/', '.']) => save = Some(out_dir.join(v)),
            _ => return usage(),
        }
        i += 2;
    }
    let Some(workload) = workload else {
        return usage();
    };

    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("cannot create {}: {e}", out_dir.display());
        return ExitCode::FAILURE;
    }
    let cfg = RunConfig {
        seed,
        scale: 1,
        out_dir: out_dir.clone(),
    };
    let Some(report) = run_workload(&workload, &cfg, traced) else {
        eprintln!("unknown workload {workload:?}");
        return usage();
    };

    let write = |path: &Path, text: String| match std::fs::write(path, text) {
        Ok(()) => true,
        Err(e) => {
            eprintln!("cannot write {}: {e}", path.display());
            false
        }
    };
    if let Some(rec) = &report.spans {
        let path = out_dir.join(format!("{workload}.spans.json"));
        if write(&path, rec.to_chrome_json()) {
            eprintln!("wrote {} ({} spans)", path.display(), rec.spans().len());
        }
    }
    if let Some(dir) = save {
        let made = std::fs::create_dir_all(&dir).is_ok();
        if !(made && write(&dir.join(format!("{workload}.txt")), saved(&report))) {
            return ExitCode::FAILURE;
        }
    }
    print!("{}", human(&report, &Environment::capture(seed)));
    println!("{}", result_line(&report));
    ExitCode::SUCCESS
}
