//! Headline power-delay trade-off metrics.
//!
//! The paper's argument is carried by a handful of ratios quoted in the
//! abstract and throughout Secs. IV–VI: how much power RMSD saves relative to
//! No-DVFS and DMSD, and how much delay it costs relative to DMSD.
//! [`TradeOffSummary`] extracts those numbers from a set of policy curves so
//! that tests, the benchmark and the figure tables all report the same quantities.

use crate::sweep::PolicyCurve;

/// The headline ratios at one reference load.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TradeOffSummary {
    /// The load at which the ratios were evaluated.
    pub load: f64,
    /// `P(No-DVFS) / P(RMSD)` — the paper quotes ≈2.2× at a 0.2 injection rate.
    pub power_ratio_nodvfs_over_rmsd: f64,
    /// `P(No-DVFS) / P(DMSD)`.
    pub power_ratio_nodvfs_over_dmsd: f64,
    /// `P(DMSD) / P(RMSD)` — the paper quotes 1.2–1.5× (DMSD spends 20–50 %
    /// more power than RMSD).
    pub power_ratio_dmsd_over_rmsd: f64,
    /// `delay(RMSD) / delay(DMSD)` — the paper quotes ≈2–3×.
    pub delay_ratio_rmsd_over_dmsd: f64,
    /// `delay(RMSD) / delay(No-DVFS)`.
    pub delay_ratio_rmsd_over_nodvfs: f64,
}

impl TradeOffSummary {
    /// Computes the summary at the sweep point nearest to `load`.
    ///
    /// # Panics
    ///
    /// Panics if any curve is empty or if a denominator quantity is zero
    /// (which would indicate a broken experiment rather than a legitimate
    /// operating point).
    pub fn at_load(
        load: f64,
        no_dvfs: &PolicyCurve,
        rmsd: &PolicyCurve,
        dmsd: &PolicyCurve,
    ) -> TradeOffSummary {
        let b = &no_dvfs.nearest(load).result;
        let r = &rmsd.nearest(load).result;
        let d = &dmsd.nearest(load).result;
        assert!(r.power_mw > 0.0 && d.power_mw > 0.0, "power must be positive");
        assert!(d.avg_delay_ns > 0.0 && b.avg_delay_ns > 0.0, "delay must be positive");
        TradeOffSummary {
            load,
            power_ratio_nodvfs_over_rmsd: b.power_mw / r.power_mw,
            power_ratio_nodvfs_over_dmsd: b.power_mw / d.power_mw,
            power_ratio_dmsd_over_rmsd: d.power_mw / r.power_mw,
            delay_ratio_rmsd_over_dmsd: r.avg_delay_ns / d.avg_delay_ns,
            delay_ratio_rmsd_over_nodvfs: r.avg_delay_ns / b.avg_delay_ns,
        }
    }

    /// The paper's qualitative claim: DMSD pays a bounded power premium over
    /// RMSD but wins a larger factor back in delay. Returns `true` when the
    /// delay advantage of DMSD exceeds its power premium.
    pub fn dmsd_wins_trade_off(&self) -> bool {
        self.delay_ratio_rmsd_over_dmsd > self.power_ratio_dmsd_over_rmsd
    }
}

impl std::fmt::Display for TradeOffSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "at load {:.3}: P(NoDVFS)/P(RMSD)={:.2}x, P(DMSD)/P(RMSD)={:.2}x, \
             delay(RMSD)/delay(DMSD)={:.2}x",
            self.load,
            self.power_ratio_nodvfs_over_rmsd,
            self.power_ratio_dmsd_over_rmsd,
            self.delay_ratio_rmsd_over_dmsd
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::closed_loop::OperatingPointResult;
    use crate::sweep::SweepPoint;

    fn point(policy: &str, load: f64, delay_ns: f64, power_mw: f64) -> SweepPoint {
        SweepPoint {
            load,
            result: OperatingPointResult {
                policy: policy.to_string(),
                offered_load: load,
                measured_rate: load,
                avg_latency_cycles: 50.0,
                avg_delay_ns: delay_ns,
                max_delay_ns: delay_ns * 2.0,
                power_mw,
                dynamic_power_mw: power_mw * 0.8,
                static_power_mw: power_mw * 0.2,
                avg_frequency_ghz: 1.0,
                avg_vdd: 0.9,
                throughput: load,
                packets_delivered: 1000,
                measurement_wall_ns: 1e6,
                flits_dropped: 0,
                reachability: 1.0,
            },
        }
    }

    fn curve(policy: &str, rows: &[(f64, f64, f64)]) -> PolicyCurve {
        PolicyCurve {
            policy: policy.to_string(),
            points: rows.iter().map(|&(l, d, p)| point(policy, l, d, p)).collect(),
        }
    }

    #[test]
    fn ratios_match_hand_computation() {
        let no_dvfs = curve("No-DVFS", &[(0.2, 100.0, 150.0)]);
        let rmsd = curve("RMSD", &[(0.2, 300.0, 68.0)]);
        let dmsd = curve("DMSD", &[(0.2, 150.0, 88.0)]);
        let s = TradeOffSummary::at_load(0.2, &no_dvfs, &rmsd, &dmsd);
        assert!((s.power_ratio_nodvfs_over_rmsd - 150.0 / 68.0).abs() < 1e-12);
        assert!((s.power_ratio_dmsd_over_rmsd - 88.0 / 68.0).abs() < 1e-12);
        assert!((s.delay_ratio_rmsd_over_dmsd - 2.0).abs() < 1e-12);
        assert!(s.dmsd_wins_trade_off());
    }

    #[test]
    fn trade_off_can_go_the_other_way() {
        // If DMSD spent 3x the power of RMSD for only a 1.5x delay advantage,
        // the claim would not hold; the summary must report that faithfully.
        let no_dvfs = curve("No-DVFS", &[(0.2, 100.0, 150.0)]);
        let rmsd = curve("RMSD", &[(0.2, 150.0, 40.0)]);
        let dmsd = curve("DMSD", &[(0.2, 100.0, 120.0)]);
        let s = TradeOffSummary::at_load(0.2, &no_dvfs, &rmsd, &dmsd);
        assert!(!s.dmsd_wins_trade_off());
    }

    #[test]
    fn display_is_human_readable() {
        let no_dvfs = curve("No-DVFS", &[(0.2, 100.0, 150.0)]);
        let rmsd = curve("RMSD", &[(0.2, 300.0, 68.0)]);
        let dmsd = curve("DMSD", &[(0.2, 150.0, 88.0)]);
        let s = TradeOffSummary::at_load(0.2, &no_dvfs, &rmsd, &dmsd);
        let text = s.to_string();
        assert!(text.contains("P(NoDVFS)/P(RMSD)"));
        assert!(text.contains("2.21x") || text.contains("2.20x"));
    }
}
