//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! cargo run --release --bin figures -- [--quality quick|standard|full] [--fig all|2|4|5|6|7|8|10|summary]
//! ```
//!
//! The output is a set of plain-text tables, one per figure, with the same
//! series the paper plots (latency in cycles, delay in ns, power in mW,
//! frequency in GHz against injection rate or application speed). A
//! reproduction run is recorded in `CHANGES.md`, next to the paired
//! parent/change benchmark table `scripts/bench_pairs.sh` prints (whose
//! traced run carries the three `paper.*` headline quantities).

use noc_dvfs_repro::figures::{render_comparison, render_fig5, render_summary};
use noc_dvfs::experiments::{
    fig10_multimedia, fig2_rmsd_vs_nodvfs, fig4_fig6_baseline_comparison, fig5_frequency_vs_vdd,
    fig7_synthetic_patterns, fig8_sensitivity, ExperimentQuality,
};
use std::env;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    let mut quality_name = "standard".to_string();
    let mut figure = "all".to_string();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quality" if i + 1 < args.len() => {
                quality_name = args[i + 1].clone();
                i += 2;
            }
            "--fig" if i + 1 < args.len() => {
                figure = args[i + 1].clone();
                i += 2;
            }
            "--help" | "-h" => {
                print_usage();
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument: {other}");
                print_usage();
                return ExitCode::FAILURE;
            }
        }
    }

    let quality = match quality_name.as_str() {
        "quick" => ExperimentQuality::quick(),
        "standard" => ExperimentQuality::standard(),
        "full" => ExperimentQuality::full(),
        other => {
            eprintln!("unknown quality '{other}' (expected quick, standard or full)");
            return ExitCode::FAILURE;
        }
    };

    println!("# DATE 2015 'Rate-based vs Delay-based Control for DVFS in NoC' — reproduction run");
    println!("# quality = {quality_name}, seed = {}", quality.seed);
    println!();

    let all = figure == "all";
    if all || figure == "2" {
        println!("# Fig. 2 — RMSD vs No-DVFS, uniform 5x5 (latency and delay vs injection rate)");
        println!("{}", render_comparison(&fig2_rmsd_vs_nodvfs(&quality)));
    }
    if all || figure == "4" || figure == "6" || figure == "summary" {
        println!("# Figs. 4 & 6 — No-DVFS vs RMSD vs DMSD, uniform 5x5 (frequency, delay, power)");
        let cmp = fig4_fig6_baseline_comparison(&quality);
        println!("{}", render_comparison(&cmp));
        // The paper quotes its headline ratios at a 0.2 injection rate.
        if let Some(summary) = render_summary(&cmp, 0.2) {
            println!("{summary}");
        }
    }
    if all || figure == "5" {
        println!("{}", render_fig5(&fig5_frequency_vs_vdd(12)));
    }
    if all || figure == "7" {
        println!("# Fig. 7 — synthetic patterns (delay and power vs injection rate)");
        for cmp in fig7_synthetic_patterns(&quality) {
            println!("{}", render_comparison(&cmp));
            if let Some(summary) = render_summary(&cmp, 0.2) {
                println!("{summary}");
            }
        }
    }
    if all || figure == "8" {
        println!("# Fig. 8 — sensitivity analysis under uniform traffic");
        for cmp in fig8_sensitivity(&quality, None) {
            println!("{}", render_comparison(&cmp));
        }
    }
    if all || figure == "10" {
        println!("# Fig. 10 — multimedia applications (delay and power vs app speed)");
        for cmp in fig10_multimedia(&quality) {
            println!("{}", render_comparison(&cmp));
        }
    }
    ExitCode::SUCCESS
}

fn print_usage() {
    eprintln!(
        "usage: figures [--quality quick|standard|full] [--fig all|2|4|5|6|7|8|10|summary]"
    );
}
