//! Printable tables for the paper's figures.
//!
//! Turns the experiment drivers of [`noc_dvfs::experiments`] into aligned
//! text: one table (or set of tables) per figure of the paper. The `figures`
//! binary (`src/bin/figures.rs`) is the command-line entry point. Timing
//! lives elsewhere: `benchmark/run.sh` is the repository's benchmark.
//!
//! ```no_run
//! use noc_dvfs_repro::figures::render_comparison;
//! use noc_dvfs::experiments::{fig4_fig6_baseline_comparison, ExperimentQuality};
//!
//! let comparison = fig4_fig6_baseline_comparison(&ExperimentQuality::quick());
//! println!("{}", render_comparison(&comparison));
//! ```

use noc_dvfs::experiments::PolicyComparison;
use noc_dvfs::sweep::PolicyCurve;
use noc_dvfs::TradeOffSummary;
use noc_power::OperatingPoint;
use std::fmt::Write as _;

/// Renders one policy comparison as an aligned text table with the series the
/// paper plots: latency (cycles), delay (ns), power (mW) and average
/// frequency (GHz) for every policy at every load.
pub fn render_comparison(comparison: &PolicyComparison) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "## {}  (lambda_max = {:.3} flits/cycle/node)", comparison.label, comparison.lambda_max);
    let _ = writeln!(
        out,
        "{:>10} {:>10} {:>14} {:>12} {:>10} {:>10}",
        "policy", "load", "latency(cyc)", "delay(ns)", "power(mW)", "freq(GHz)"
    );
    for curve in &comparison.curves {
        for p in &curve.points {
            let _ = writeln!(
                out,
                "{:>10} {:>10.4} {:>14.1} {:>12.1} {:>10.1} {:>10.3}",
                curve.policy,
                p.load,
                p.result.avg_latency_cycles,
                p.result.avg_delay_ns,
                p.result.power_mw,
                p.result.avg_frequency_ghz
            );
        }
    }
    out
}

/// Renders the Fig. 5 frequency-vs-voltage curve.
pub fn render_fig5(curve: &[OperatingPoint]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "## Fig. 5 — max router frequency vs Vdd (28-nm FDSOI model)");
    let _ = writeln!(out, "{:>10} {:>12}", "Vdd(V)", "Fmax(GHz)");
    for op in curve {
        let _ = writeln!(out, "{:>10.3} {:>12.3}", op.vdd.as_volts(), op.frequency.as_ghz());
    }
    out
}

/// Renders the headline trade-off ratios computed from one comparison.
///
/// Returns `None` when the comparison does not contain all three policies.
pub fn render_summary(comparison: &PolicyComparison, at_load: f64) -> Option<String> {
    let summary = summary_at(comparison, at_load)?;
    let mut out = String::new();
    let _ = writeln!(out, "## Headline ratios for '{}'", comparison.label);
    let _ = writeln!(out, "{summary}");
    let _ = writeln!(
        out,
        "DMSD wins the power-delay trade-off: {}",
        if summary.dmsd_wins_trade_off() { "yes" } else { "no" }
    );
    Some(out)
}

/// Computes the trade-off summary of a comparison at the sweep point nearest
/// to `at_load`, if the comparison holds all three policies.
pub fn summary_at(comparison: &PolicyComparison, at_load: f64) -> Option<TradeOffSummary> {
    let no_dvfs = comparison.curve("No-DVFS")?;
    let rmsd = comparison.curve("RMSD")?;
    let dmsd = comparison.curve("DMSD")?;
    Some(TradeOffSummary::at_load(at_load, no_dvfs, rmsd, dmsd))
}

/// Extracts a `(loads, values)` pair for one series of one policy, where
/// `series` selects among `"delay"`, `"latency"`, `"power"`, `"frequency"`.
///
/// Returns `None` if the policy is missing or the series name is unknown.
pub fn series(comparison: &PolicyComparison, policy: &str, series: &str) -> Option<(Vec<f64>, Vec<f64>)> {
    let curve: &PolicyCurve = comparison.curve(policy)?;
    let values = match series {
        "delay" => curve.delays_ns(),
        "latency" => curve.latencies_cycles(),
        "power" => curve.powers_mw(),
        "frequency" => curve.frequencies_ghz(),
        _ => return None,
    };
    Some((curve.loads(), values))
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_dvfs::experiments::{compare_policies_synthetic, ExperimentQuality};
    use noc_dvfs::ClosedLoopConfig;
    use noc_sim::{NetworkConfig, TrafficPattern};

    fn tiny_comparison() -> PolicyComparison {
        let quality = ExperimentQuality {
            loop_cfg: ClosedLoopConfig {
                control_period_cycles: 600,
                warmup_intervals: 2,
                measure_intervals: 3,
                max_settle_intervals: 15,
                settle_tolerance: 0.02,
            },
            load_points: 2,
            saturation_probe_cycles: 3_000,
            seed: 1,
        };
        let net = NetworkConfig::builder()
            .mesh(4, 4)
            .virtual_channels(2)
            .buffer_depth(4)
            .packet_length(5)
            .build()
            .unwrap();
        compare_policies_synthetic("tiny", &net, TrafficPattern::Uniform, &quality, None)
    }

    #[test]
    fn comparison_table_contains_every_policy_and_load() {
        let cmp = tiny_comparison();
        let table = render_comparison(&cmp);
        assert!(table.contains("No-DVFS"));
        assert!(table.contains("RMSD"));
        assert!(table.contains("DMSD"));
        assert!(table.contains("lambda_max"));
        // One data row per (policy, load) pair plus the two header lines.
        let rows = table.lines().count();
        assert_eq!(rows, 2 + 3 * cmp.loads().len());
    }

    #[test]
    fn fig5_table_renders_all_points() {
        let curve = noc_dvfs::experiments::fig5_frequency_vs_vdd(7);
        let table = render_fig5(&curve);
        assert_eq!(table.lines().count(), 2 + 7);
        assert!(table.contains("0.560"));
        assert!(table.contains("0.900"));
    }

    #[test]
    fn summary_requires_all_three_policies() {
        let cmp = tiny_comparison();
        assert!(summary_at(&cmp, 0.1).is_some());
        let mut partial = cmp.clone();
        partial.curves.retain(|c| c.policy != "DMSD");
        assert!(summary_at(&partial, 0.1).is_none());
        assert!(render_summary(&partial, 0.1).is_none());
    }

    #[test]
    fn series_extraction_matches_curve_accessors() {
        let cmp = tiny_comparison();
        let (loads, delays) = series(&cmp, "RMSD", "delay").unwrap();
        assert_eq!(loads, cmp.curve("RMSD").unwrap().loads());
        assert_eq!(delays, cmp.curve("RMSD").unwrap().delays_ns());
        assert!(series(&cmp, "RMSD", "nope").is_none());
        assert!(series(&cmp, "nope", "delay").is_none());
    }
}
