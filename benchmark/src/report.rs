//! Output: the human-readable report, the result line the gate reads, and
//! the saved `name value` files that `--compare` reads two sets of runs from.

use crate::driver::Report;
use crate::manifest::{Better, END_TO_END};
use crate::stats::Summary;
use std::fmt::Write as _;
use std::path::Path;

/// Where and how the run happened; recorded with every report.
#[derive(Debug, Clone)]
pub struct Environment {
    /// Seed the inputs were generated from.
    pub seed: u64,
    /// `available_parallelism` of this process.
    pub nproc: usize,
    /// `NOC_SWEEP_THREADS` as the program will read it.
    pub sweep_threads: String,
    /// `rustc -V` of the toolchain that built the benchmark.
    pub rustc: String,
    /// Git commit of the tree, when known.
    pub commit: String,
}

impl Environment {
    /// Reads the environment; `run.sh` exports the toolchain and commit.
    pub fn capture(seed: u64) -> Self {
        let var = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".to_string());
        Environment {
            seed,
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            sweep_threads: std::env::var("NOC_SWEEP_THREADS")
                .unwrap_or_else(|_| "unset".to_string()),
            rustc: var("NOC_BENCH_RUSTC"),
            commit: var("NOC_BENCH_COMMIT"),
        }
    }
}

fn timing(samples: &[f64]) -> String {
    let Some(s) = Summary::of(samples) else {
        return "no sample".to_string();
    };
    format!(
        "median {:.6} s  min {:.6}  q1 {:.6}  q3 {:.6}  max {:.6}  n={}",
        s.median, s.min, s.q1, s.q3, s.max, s.n
    )
}

/// Every metric by name with its unit, every timing with its spread.
pub fn human(report: &Report, env: &Environment) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== {} (seed {}, {}) ==",
        report.workload,
        env.seed,
        if report.traced {
            "traced run"
        } else {
            "end-to-end run"
        }
    );
    let _ = writeln!(out, "why: {}", report.why);
    let _ = writeln!(
        out,
        "env: nproc={} NOC_SWEEP_THREADS={} rustc=\"{}\" commit={}",
        env.nproc, env.sweep_threads, env.rustc, env.commit
    );
    let _ = writeln!(
        out,
        "load: closed loop, one client, one untimed warm-up pass"
    );
    let list = |samples: &[f64]| {
        samples
            .iter()
            .map(|s| format!("{s:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    for (name, samples) in &report.cases {
        let _ = writeln!(out, "  case {name:<36} {}", timing(samples));
        let _ = writeln!(out, "       samples (s): {}", list(samples));
    }
    for (name, samples) in &report.host_bound {
        let _ = writeln!(
            out,
            "  host-bound, not in the pass time: {name}\n       {}",
            timing(samples)
        );
    }
    let _ = writeln!(out, "  pass  {}", timing(&report.pass_samples));
    let _ = writeln!(out, "       samples (s): {}", list(&report.pass_samples));
    let _ = writeln!(out, "  setup {}", timing(&report.setup_samples));
    let _ = writeln!(out, "  flits delivered per pass: {}", report.flits);
    for (name, value, unit) in &report.metrics {
        let _ = writeln!(out, "  {name:<40} = {value:>18.6} {unit}");
    }
    let failed_frac = report.failed as f64 / report.attempted.max(1) as f64;
    let _ = writeln!(
        out,
        "  ops_failed_frac                          = {failed_frac:>18.6} ratio  ({} of {} operations)",
        report.failed, report.attempted
    );
    for why in &report.failures {
        let _ = writeln!(out, "  FAILED {why}");
    }
    let _ = writeln!(out, "  result_digest = {:#018x}", report.digest);
    out
}

/// The result line: one JSON object with exactly the keys `correct`,
/// `attempted`, `failed` and `metrics`.
pub fn result_line(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0,
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    )
}

/// What `--save` writes and `--compare` reads: one `name value` line per
/// metric, and the number of failed operations.
pub fn saved(report: &Report) -> String {
    let mut out = format!("failed {}\n", report.failed);
    for (name, value, _) in &report.metrics {
        let _ = writeln!(out, "{name} {value}");
    }
    out
}

/// The `name value` lines of a saved run.
fn parse_saved(text: &str) -> Option<Vec<(String, f64)>> {
    text.lines()
        .map(|line| {
            let (name, value) = line.split_once(' ')?;
            Some((name.to_string(), value.parse().ok()?))
        })
        .collect()
}

/// Two single runs may differ in `setup_s` by this many seconds whatever the
/// ratio: a set-up of microseconds moves by tens of percent with the state
/// of the allocator and the caches.
const SETUP_ABSOLUTE_SLACK_S: f64 = 0.005;

/// Compares two sets of saved runs (`<dir>/<workload>.txt`), one workload at
/// a time. Returns one line per end-to-end metric that differs
/// by more than its bound, naming the metric and the workload.
pub fn disagreements(a: &Path, b: &Path, workloads: &[&str]) -> Vec<String> {
    let mut out = Vec::new();
    for &workload in workloads {
        let read = |dir: &Path| {
            std::fs::read_to_string(dir.join(format!("{workload}.txt")))
                .ok()
                .and_then(|s| parse_saved(&s))
        };
        let (Some(first), Some(second)) = (read(a), read(b)) else {
            out.push(format!(
                "{workload}: a result file is missing or unreadable"
            ));
            continue;
        };
        for metric in &END_TO_END {
            let find =
                |set: &[(String, f64)]| set.iter().find(|(n, _)| n == metric.name).map(|m| m.1);
            let (Some(x), Some(y)) = (find(&first), find(&second)) else {
                out.push(format!("{workload}: {} is missing", metric.name));
                continue;
            };
            // Either set may be the worse one: two runs of one tree have no
            // parent and child.
            let (better, worse) = match metric.better {
                Better::Lower => (x.min(y), x.max(y)),
                Better::Higher => (x.max(y), x.min(y)),
            };
            let gap = (worse - better).abs() / better.abs().max(f64::MIN_POSITIVE);
            let within_slack =
                metric.name == "setup_s" && (worse - better).abs() <= SETUP_ABSOLUTE_SLACK_S;
            if gap > metric.bound && !within_slack {
                out.push(format!(
                    "{workload}: {} differs by {:.2} % between the two sets ({x} vs {y} {}), bound {:.2} %",
                    metric.name,
                    gap * 100.0,
                    metric.unit,
                    metric.bound * 100.0
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(metrics: Vec<(&'static str, f64, &'static str)>, failed: u64) -> Report {
        Report {
            workload: "w",
            why: "because",
            traced: false,
            attempted: 10,
            failed,
            failures: vec![],
            digest: 7,
            flits: 100,
            setup_samples: vec![1.0],
            pass_samples: vec![1.0],
            cases: vec![("case", vec![1.0])],
            slices: vec![vec![1.0]],
            host_bound: vec![],
            metrics,
            spans: None,
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(&report(
            vec![("pass_wall_s", 1.25, "s"), ("x.y", f64::NAN, "ns")],
            1,
        ));
        assert_eq!(
            line,
            "{\"correct\": false, \"attempted\": 10, \"failed\": 1, \"metrics\": \
             {\"pass_wall_s\": {\"value\": 1.25, \"unit\": \"s\"}, \
             \"x.y\": {\"value\": 0, \"unit\": \"ns\"}}}"
        );
    }

    #[test]
    fn a_saved_run_reads_back() {
        let text = saved(&report(
            vec![("pass_wall_s", 1.25, "s"), ("x.y", 3e-6, "ns")],
            2,
        ));
        assert_eq!(
            parse_saved(&text).unwrap(),
            vec![
                ("failed".to_string(), 2.0),
                ("pass_wall_s".to_string(), 1.25),
                ("x.y".to_string(), 3e-6)
            ]
        );
        assert!(parse_saved("pass_wall_s fast\n").is_none());
    }

    #[test]
    fn disagreements_name_the_metric_and_the_workload() {
        let dir = std::env::temp_dir().join(format!("noc-benchmark-agree-{}", std::process::id()));
        let (a, b) = (dir.join("a"), dir.join("b"));
        for d in [&a, &b] {
            std::fs::create_dir_all(d).unwrap();
        }
        let set = |wall: f64, ok: f64| {
            saved(&report(
                vec![
                    ("setup_s", 0.1, "s"),
                    ("pass_wall_s", wall, "s"),
                    ("host_ns_per_flit", 50.0, "ns"),
                    ("peak_rss_mb", 30.0, "MiB"),
                    ("ops_ok_frac", ok, "ratio"),
                ],
                0,
            ))
        };
        std::fs::write(a.join("w.txt"), set(4.0, 1.0)).unwrap();
        std::fs::write(b.join("w.txt"), set(4.2, 1.0)).unwrap();
        assert!(
            disagreements(&a, &b, &["w"]).is_empty(),
            "5 % is inside the bound"
        );
        std::fs::write(b.join("w.txt"), set(3.0, 0.9)).unwrap();
        let found = disagreements(&a, &b, &["w"]);
        assert_eq!(found.len(), 2, "{found:?}");
        assert!(found[0].starts_with("w: pass_wall_s differs by 33.33 %"));
        assert!(found[1].starts_with("w: ops_ok_frac differs"));
        assert_eq!(disagreements(&a, &b, &["absent"]).len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn human_report_prints_every_metric_with_its_unit() {
        let env = Environment {
            seed: 2015,
            nproc: 2,
            sweep_threads: "2".into(),
            rustc: "rustc 1.0".into(),
            commit: "abc".into(),
        };
        let text = human(&report(vec![("pass_wall_s", 1.25, "s")], 0), &env);
        for needle in [
            "pass_wall_s",
            " s\n",
            "ops_failed_frac",
            "result_digest = 0x",
            "nproc=2",
            "n=1",
        ] {
            assert!(text.contains(needle), "{needle:?} missing from:\n{text}");
        }
    }
}
