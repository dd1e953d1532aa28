//! Per-island DVFS: independent controller instances over the
//! voltage-frequency island partition of a network.
//!
//! The paper scales one global NoC clock. Real SoCs partition the fabric
//! into **voltage-frequency islands** (VFIs) and run one DVFS loop per
//! island. This module lifts every policy of the paper to that setting:
//!
//! * [`MultiIslandController`] instantiates one [`DvfsPolicy`] (No-DVFS,
//!   RMSD or the PI-based DMSD) per island and feeds each from its island's
//!   own [`WindowMeasurement`] — it is the controller the closed loop
//!   ([`crate::closed_loop`]) drives on every network;
//! * [`run_operating_point_islands`] runs that loop and reports the
//!   aggregate operating point plus one [`IslandSummary`] per island —
//!   including the island's frequency/voltage residency
//!   ([`FrequencyResidency`]).
//!
//! There is one loop, and the paper's global DVFS is its one-island case:
//! on the default partition the single island's window is the network's, one
//! controller instance sees it, and the aggregate is bit-identical to what
//! [`run_operating_point`](crate::run_operating_point) returns (it *is* that
//! value).

use crate::closed_loop::{run_loop, ClosedLoopConfig, OperatingPointResult};
use crate::policy::{ControlMeasurement, DvfsPolicy, PolicyKind};
use noc_power::FrequencyResidency;
use noc_sim::{Hertz, NetworkConfig, TrafficSpec, WindowMeasurement};

/// One DVFS controller instance per voltage-frequency island.
///
/// Each island's controller is an independent instance of the same policy
/// (its own PI integrator, its own smoothing state), sized to the island's
/// node count; the islands only interact through the network traffic itself.
#[derive(Debug)]
pub struct MultiIslandController {
    controllers: Vec<Box<dyn DvfsPolicy>>,
    node_counts: Vec<usize>,
    frequencies: Vec<Hertz>,
}

impl MultiIslandController {
    /// Builds one controller per island of `net`'s region partition,
    /// starting every island at the maximum frequency.
    pub fn new(policy: &PolicyKind, net: &NetworkConfig) -> Self {
        let node_counts = net.region_map().node_counts().to_vec();
        let controllers = node_counts.iter().map(|_| policy.build(net)).collect();
        let frequencies = vec![net.max_frequency(); node_counts.len()];
        MultiIslandController { controllers, node_counts, frequencies }
    }

    /// Number of islands under control.
    pub fn island_count(&self) -> usize {
        self.controllers.len()
    }

    /// The frequency most recently chosen for each island (initially the
    /// maximum frequency).
    pub fn frequencies(&self) -> &[Hertz] {
        &self.frequencies
    }

    /// Feeds every island's controller its island window (as produced by
    /// [`take_island_windows`](noc_sim::NocSimulation::take_island_windows))
    /// and returns the frequencies to apply for the next control interval,
    /// indexed by island id.
    ///
    /// # Panics
    ///
    /// Panics if `windows` does not hold exactly one window per island.
    pub fn next_frequencies(&mut self, windows: &[WindowMeasurement]) -> &[Hertz] {
        assert_eq!(windows.len(), self.controllers.len(), "one window per island required");
        for (island, window) in windows.iter().enumerate() {
            let measurement = ControlMeasurement {
                window: *window,
                node_count: self.node_counts[island],
                current_frequency: self.frequencies[island],
            };
            self.frequencies[island] = self.controllers[island].next_frequency(&measurement);
        }
        &self.frequencies
    }

    /// Clears every controller's internal state and restores all islands to
    /// `initial` (typically the maximum frequency).
    pub fn reset(&mut self, initial: Hertz) {
        for (controller, f) in self.controllers.iter_mut().zip(self.frequencies.iter_mut()) {
            controller.reset();
            *f = initial;
        }
    }
}

/// The measured behaviour of one island over the measurement phase of the
/// closed loop.
#[derive(Debug, Clone, PartialEq)]
pub struct IslandSummary {
    /// Island id (index into the region partition).
    pub island: usize,
    /// Number of nodes in the island.
    pub nodes: usize,
    /// Frequency/voltage residency and energy of the island over the
    /// measurement phase (time-weighted averages, per-level histogram).
    pub residency: FrequencyResidency,
    /// Average injection rate of the island's sources, flits per node cycle
    /// per node.
    pub measured_rate: f64,
    /// Average end-to-end delay of the packets ejected in this island,
    /// nanoseconds (0 when no packet terminated here).
    pub avg_delay_ns: f64,
    /// Island domain cycles completed during the measurement phase.
    pub domain_cycles: u64,
}

/// Aggregate + per-island result of one island-controlled operating point.
#[derive(Debug, Clone, PartialEq)]
pub struct IslandOperatingPointResult {
    /// The network-level operating point (power, delay, throughput — the
    /// same shape every sweep and figure driver consumes). The
    /// `avg_frequency_ghz`/`avg_vdd` fields are node-weighted averages over
    /// the islands.
    pub aggregate: OperatingPointResult,
    /// Per-island measurements, indexed by island id.
    pub islands: Vec<IslandSummary>,
}

impl IslandOperatingPointResult {
    /// The spread between the fastest and slowest island's time-averaged
    /// frequency, gigahertz — 0 on a single island, and a direct measure of
    /// how much per-island control actually differentiated the domains.
    pub fn frequency_spread_ghz(&self) -> f64 {
        let freqs = self.islands.iter().map(|i| i.residency.avg_frequency_ghz());
        let max = freqs.clone().fold(f64::NEG_INFINITY, f64::max);
        let min = freqs.fold(f64::INFINITY, f64::min);
        if max.is_finite() && min.is_finite() { max - min } else { 0.0 }
    }
}

/// Runs one closed-loop operating point with **per-island DVFS control** and
/// returns the per-island detail next to the aggregate.
///
/// Every island of `net`'s region partition gets an independent instance of
/// `policy` fed by its own per-island measurement window; the power model
/// integrates each island's activity at that island's `(frequency, Vdd)`
/// operating level. This is the same run
/// [`run_operating_point`](crate::run_operating_point) performs — that
/// function returns only [`aggregate`](IslandOperatingPointResult::aggregate).
///
/// ```
/// use noc_dvfs::island::run_operating_point_islands;
/// use noc_dvfs::{ClosedLoopConfig, PolicyKind, RmsdConfig};
/// use noc_sim::{NetworkConfig, RegionLayout, SyntheticTraffic, TrafficPattern};
///
/// let net = NetworkConfig::builder()
///     .mesh(4, 4)
///     .virtual_channels(2)
///     .buffer_depth(4)
///     .packet_length(5)
///     .regions(RegionLayout::Quadrants)
///     .build()
///     .unwrap();
/// let traffic = SyntheticTraffic::new(TrafficPattern::Uniform, 0.08, 5);
/// let point = run_operating_point_islands(
///     &net,
///     Box::new(traffic),
///     PolicyKind::Rmsd(RmsdConfig::with_lambda_max(0.35)),
///     &ClosedLoopConfig::quick(),
///     7,
/// );
/// assert_eq!(point.islands.len(), 4);
/// assert!(point.aggregate.power_mw > 0.0);
/// ```
///
/// # Panics
///
/// Panics if `loop_cfg` is invalid (zero intervals or period).
pub fn run_operating_point_islands(
    net: &NetworkConfig,
    traffic: Box<dyn TrafficSpec>,
    policy: PolicyKind,
    loop_cfg: &ClosedLoopConfig,
    seed: u64,
) -> IslandOperatingPointResult {
    let run = run_loop(net, traffic, policy, None, loop_cfg, seed);
    IslandOperatingPointResult { aggregate: run.aggregate, islands: run.islands }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dmsd::DmsdConfig;
    use crate::rmsd::RmsdConfig;
    use noc_sim::{RegionLayout, SyntheticTraffic, TrafficPattern};

    fn quad_net() -> NetworkConfig {
        NetworkConfig::builder()
            .mesh(4, 4)
            .virtual_channels(2)
            .buffer_depth(4)
            .packet_length(5)
            .regions(RegionLayout::Quadrants)
            .build()
            .unwrap()
    }

    fn traffic(rate: f64) -> Box<dyn TrafficSpec> {
        Box::new(SyntheticTraffic::new(TrafficPattern::Uniform, rate, 5))
    }

    #[test]
    fn controller_runs_one_policy_instance_per_island() {
        let net = quad_net();
        let mut c = MultiIslandController::new(
            &PolicyKind::Rmsd(RmsdConfig::with_lambda_max(0.3)),
            &net,
        );
        assert_eq!(c.island_count(), 4);
        assert!(c.frequencies().iter().all(|&f| f == net.max_frequency()));
        // Feed island 2 a much higher rate than the others: only its
        // controller should ask for a higher frequency.
        let mut windows = vec![WindowMeasurement::default(); 4];
        for (i, w) in windows.iter_mut().enumerate() {
            w.noc_cycles = 1_000;
            w.node_cycles = 1_000;
            w.flits_generated = if i == 2 { 1_000 } else { 40 };
        }
        let freqs = c.next_frequencies(&windows).to_vec();
        assert!(freqs[2] > freqs[0], "the loaded island must run faster");
        assert_eq!(freqs[0], freqs[1]);
        assert_eq!(freqs[0], freqs[3]);
        c.reset(net.max_frequency());
        assert!(c.frequencies().iter().all(|&f| f == net.max_frequency()));
    }

    #[test]
    #[should_panic(expected = "one window per island")]
    fn controller_rejects_window_count_mismatch() {
        let mut c = MultiIslandController::new(&PolicyKind::NoDvfs, &quad_net());
        let _ = c.next_frequencies(&[WindowMeasurement::default()]);
    }

    #[test]
    fn island_point_runs_end_to_end_with_rmsd() {
        let p = run_operating_point_islands(
            &quad_net(),
            traffic(0.08),
            PolicyKind::Rmsd(RmsdConfig::with_lambda_max(0.35)),
            &ClosedLoopConfig::quick(),
            3,
        );
        assert_eq!(p.islands.len(), 4);
        assert!(p.aggregate.power_mw > 0.0);
        assert!(p.aggregate.packets_delivered > 0);
        for s in &p.islands {
            assert_eq!(s.nodes, 4);
            assert!(s.residency.wall_ps > 0.0);
            assert!(s.residency.avg_frequency_ghz() > 0.0);
            assert!(s.domain_cycles > 0);
        }
        // Uniform light load: every island slows below the maximum.
        assert!(p.aggregate.avg_frequency_ghz < 0.95);
    }

    #[test]
    fn island_dmsd_point_stays_inside_the_frequency_range() {
        let p = run_operating_point_islands(
            &quad_net(),
            traffic(0.1),
            PolicyKind::Dmsd(DmsdConfig::with_target_ns(120.0)),
            &ClosedLoopConfig::quick(),
            5,
        );
        for s in &p.islands {
            let f = s.residency.avg_frequency_ghz();
            assert!((0.332..=1.001).contains(&f), "island {} at {f} GHz", s.island);
        }
        assert!(p.frequency_spread_ghz() >= 0.0);
    }

    #[test]
    fn single_island_point_matches_the_global_loop_shape() {
        let net = NetworkConfig::builder()
            .mesh(4, 4)
            .virtual_channels(2)
            .buffer_depth(4)
            .packet_length(5)
            .build()
            .unwrap();
        let p = run_operating_point_islands(
            &net,
            traffic(0.1),
            PolicyKind::NoDvfs,
            &ClosedLoopConfig::quick(),
            1,
        );
        assert_eq!(p.islands.len(), 1);
        assert_eq!(p.frequency_spread_ghz(), 0.0);
        assert!((p.aggregate.avg_frequency_ghz - 1.0).abs() < 1e-9);
        assert!((p.islands[0].residency.avg_frequency_ghz() - 1.0).abs() < 1e-9);
        // One island owns all packets: its delay is the network delay.
        assert!((p.islands[0].avg_delay_ns - p.aggregate.avg_delay_ns).abs() < 1e-6);
    }

    #[test]
    fn island_points_are_reproducible() {
        let net = quad_net();
        let cfg = ClosedLoopConfig::quick();
        let a = run_operating_point_islands(
            &net,
            traffic(0.1),
            PolicyKind::Rmsd(RmsdConfig::with_lambda_max(0.35)),
            &cfg,
            7,
        );
        let b = run_operating_point_islands(
            &net,
            traffic(0.1),
            PolicyKind::Rmsd(RmsdConfig::with_lambda_max(0.35)),
            &cfg,
            7,
        );
        assert_eq!(a, b);
    }
}
