//! Power-gating residency reports: who slept, for how long, and whether it
//! paid off.
//!
//! The simulator's activity records carry each router's gated residency and
//! sleep/wake transition counts per observation window
//! ([`RouterActivity::gated_cycles`](noc_sim::RouterActivity) et al.). This
//! module turns those into an auditable report: per-router time gated, wake
//! events, leakage + clock energy saved, and the transition cost paid —
//! aggregated per voltage-frequency island, where the gating policies make
//! their decisions.

use crate::model::RouterPowerModel;
use crate::tech::Volts;
use noc_sim::{Hertz, NetworkActivity};

/// Gating residency of one router over the recorded intervals.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RouterGatingStats {
    /// Domain cycles covered by the recorded windows.
    pub cycles: u64,
    /// Domain cycles spent power-gated.
    pub gated_cycles: u64,
    /// Completed sleep (power-down) transitions.
    pub sleep_events: u64,
    /// Wake (power-up) transitions.
    pub wake_events: u64,
    /// Wall-clock time spent gated, picoseconds.
    pub gated_time_ps: f64,
    /// Clock-tree + leakage energy saved while gated, picojoules.
    pub saved_pj: f64,
    /// Sleep/wake transition energy paid, picojoules.
    pub transition_pj: f64,
}

impl RouterGatingStats {
    /// Net energy benefit of gating this router (saving minus transition
    /// cost), picojoules. Negative when the router thrashed below its
    /// break-even time.
    pub fn net_saving_pj(&self) -> f64 {
        self.saved_pj - self.transition_pj
    }

    /// Fraction of the recorded cycles spent gated, in `[0, 1]`.
    pub fn gated_fraction(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.gated_cycles as f64 / self.cycles as f64
        }
    }
}

/// Gating residency of one voltage-frequency island: the sum of its
/// routers' records.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IslandGatingStats {
    /// Island id.
    pub island: usize,
    /// Number of routers in the island.
    pub nodes: usize,
    /// Summed per-router records (cycles are summed over routers, so the
    /// island's gated fraction is a router-average, not a wall-time share).
    pub totals: RouterGatingStats,
}

/// Per-router + per-island gating residency over a measurement phase.
///
/// A control loop accumulates one of these by calling
/// [`record`](Self::record) each interval with the interval's activity and
/// the per-island operating points; see
/// `noc_dvfs::run_operating_point_gated` for the end-to-end use.
#[derive(Debug, Clone, PartialEq)]
pub struct GatingResidency {
    /// Per-router records, indexed by node id.
    pub routers: Vec<RouterGatingStats>,
    /// The node → island assignment the per-island aggregation uses.
    island_of: Vec<u32>,
}

impl GatingResidency {
    /// An empty accumulator over the given node → island assignment (use a
    /// vector of zeros for an unpartitioned network).
    pub fn new(island_of: Vec<u32>) -> Self {
        GatingResidency { routers: vec![RouterGatingStats::default(); island_of.len()], island_of }
    }

    /// Adds one control interval: `activity` is the interval's drained
    /// activity record, `levels[island]` the `(frequency, vdd)` the island
    /// ran at, and `duration_ps` the interval's wall-clock length.
    ///
    /// # Panics
    ///
    /// Panics if the activity record or `levels` do not cover the network.
    pub fn record(
        &mut self,
        model: &RouterPowerModel,
        activity: &NetworkActivity,
        levels: &[(Hertz, Volts)],
        duration_ps: f64,
    ) {
        assert_eq!(activity.routers.len(), self.routers.len(), "router count mismatch");
        for (node, act) in activity.routers.iter().enumerate() {
            let island = self.island_of[node] as usize;
            let (frequency, vdd) = levels[island];
            let stats = &mut self.routers[node];
            stats.cycles += act.cycles;
            stats.gated_cycles += act.gated_cycles;
            stats.sleep_events += act.sleep_events;
            stats.wake_events += act.wake_events;
            if act.gated_cycles > 0 && act.cycles > 0 {
                let gated_ps = duration_ps * (act.gated_cycles as f64 / act.cycles as f64);
                stats.gated_time_ps += gated_ps;
                stats.saved_pj += model.gated_saving_mw(frequency, vdd) * (gated_ps / 1.0e3);
            }
            if act.sleep_events > 0 || act.wake_events > 0 {
                stats.transition_pj +=
                    model.transition_energy_pj(act.sleep_events, act.wake_events, vdd);
            }
        }
    }

    /// Per-island aggregation of the per-router records, indexed by island
    /// id.
    pub fn islands(&self) -> Vec<IslandGatingStats> {
        let island_count =
            self.island_of.iter().map(|&i| i as usize + 1).max().unwrap_or(1);
        let mut out: Vec<IslandGatingStats> = (0..island_count)
            .map(|island| IslandGatingStats { island, ..IslandGatingStats::default() })
            .collect();
        for (node, stats) in self.routers.iter().enumerate() {
            let agg = &mut out[self.island_of[node] as usize];
            agg.nodes += 1;
            agg.totals.cycles += stats.cycles;
            agg.totals.gated_cycles += stats.gated_cycles;
            agg.totals.sleep_events += stats.sleep_events;
            agg.totals.wake_events += stats.wake_events;
            agg.totals.gated_time_ps += stats.gated_time_ps;
            agg.totals.saved_pj += stats.saved_pj;
            agg.totals.transition_pj += stats.transition_pj;
        }
        out
    }

    /// Network-wide totals (the sum of every router's record).
    pub fn total(&self) -> RouterGatingStats {
        self.routers.iter().fold(RouterGatingStats::default(), |mut acc, r| {
            acc.cycles += r.cycles;
            acc.gated_cycles += r.gated_cycles;
            acc.sleep_events += r.sleep_events;
            acc.wake_events += r.wake_events;
            acc.gated_time_ps += r.gated_time_ps;
            acc.saved_pj += r.saved_pj;
            acc.transition_pj += r.transition_pj;
            acc
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_sim::RouterActivity;

    fn gated_activity(cycles: u64, gated: u64, sleeps: u64, wakes: u64) -> RouterActivity {
        RouterActivity {
            cycles,
            gated_cycles: gated,
            sleep_events: sleeps,
            wake_events: wakes,
            ..RouterActivity::new()
        }
    }

    #[test]
    fn residency_accumulates_and_aggregates_per_island() {
        let model = RouterPowerModel::new();
        let mut residency = GatingResidency::new(vec![0, 0, 1, 1]);
        let mut activity = NetworkActivity::new(4);
        activity.routers[0] = gated_activity(1_000, 600, 2, 2);
        activity.routers[2] = gated_activity(1_000, 200, 1, 1);
        activity.routers[3] = gated_activity(1_000, 0, 0, 0);
        // Router 3 stays cycle-accounted even while never gated.
        activity.routers[1] = gated_activity(1_000, 0, 0, 0);
        let levels =
            [(Hertz::from_ghz(1.0), Volts::new(0.9)), (Hertz::from_mhz(500.0), Volts::new(0.7))];
        residency.record(&model, &activity, &levels, 1.0e6);
        residency.record(&model, &activity, &levels, 1.0e6);

        let r0 = residency.routers[0];
        assert_eq!(r0.gated_cycles, 1_200);
        assert_eq!(r0.sleep_events, 4);
        assert!((r0.gated_fraction() - 0.6).abs() < 1e-12);
        assert!((r0.gated_time_ps - 1.2e6).abs() < 1e-6);
        let expected_saved =
            model.gated_saving_mw(Hertz::from_ghz(1.0), Volts::new(0.9)) * (1.2e6 / 1.0e3);
        assert!((r0.saved_pj - expected_saved).abs() < 1e-9);
        assert!(
            (r0.transition_pj - 2.0 * model.transition_energy_pj(2, 2, Volts::new(0.9))).abs()
                < 1e-9
        );

        let islands = residency.islands();
        assert_eq!(islands.len(), 2);
        assert_eq!(islands[0].nodes, 2);
        assert_eq!(islands[0].totals.gated_cycles, 1_200);
        assert_eq!(islands[1].totals.gated_cycles, 400);
        let total = residency.total();
        assert_eq!(total.gated_cycles, 1_600);
        assert_eq!(total.cycles, 8_000);
        assert!(
            (total.saved_pj
                - (islands[0].totals.saved_pj + islands[1].totals.saved_pj))
                .abs()
                < 1e-9
        );
    }

    #[test]
    fn a_long_gated_span_beats_the_transition_cost() {
        let model = RouterPowerModel::new();
        let mut residency = GatingResidency::new(vec![0]);
        let mut activity = NetworkActivity::new(1);
        // One sleep/wake pair, gated for 90% of a 100 µs interval — far past
        // break-even (tens of ns): the net saving must be positive.
        activity.routers[0] = gated_activity(100_000, 90_000, 1, 1);
        residency.record(&model, &activity, &[(Hertz::from_ghz(1.0), Volts::new(0.9))], 1.0e8);
        assert!(residency.routers[0].net_saving_pj() > 0.0);
        // A thrashing router (many transitions, almost no gated time) loses.
        let mut thrash = GatingResidency::new(vec![0]);
        let mut activity = NetworkActivity::new(1);
        activity.routers[0] = gated_activity(100_000, 10, 500, 500);
        thrash.record(&model, &activity, &[(Hertz::from_ghz(1.0), Volts::new(0.9))], 1.0e8);
        assert!(thrash.routers[0].net_saving_pj() < 0.0);
    }

    #[test]
    #[should_panic(expected = "router count mismatch")]
    fn record_rejects_mismatched_activity() {
        let model = RouterPowerModel::new();
        let mut residency = GatingResidency::new(vec![0, 0]);
        let activity = NetworkActivity::new(3);
        residency.record(&model, &activity, &[(Hertz::from_ghz(1.0), Volts::new(0.9))], 1.0);
    }
}
