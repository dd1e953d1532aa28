//! Closed-loop co-simulation of network, DVFS policy and power model.
//!
//! One [`run_operating_point`] call reproduces what the paper does for a
//! single point of any of its figures: run the cycle-accurate simulator under
//! a fixed workload while the chosen DVFS policy periodically observes the
//! network and re-tunes the clock frequency (and therefore the supply
//! voltage), then report the average latency, delay, power and frequency over
//! the measurement phase.

use crate::gating::{break_even_cycles, GatingPolicyKind, DEFAULT_WAKEUP_LATENCY};
use crate::island::{IslandSummary, MultiIslandController};
use crate::policy::PolicyKind;
use noc_power::{
    model::EnergyBreakdown, DegradedModeReport, FdsoiTech, FrequencyResidency, GatingResidency,
    RouterPowerModel, Volts,
};
use noc_sim::{
    GatingConfig, Hertz, NetworkConfig, NocSimulation, TrafficSpec, WindowMeasurement,
};

/// Timing parameters of the closed control loop.
#[derive(Debug, Clone, PartialEq)]
pub struct ClosedLoopConfig {
    /// Control update period expressed in cycles *at the maximum frequency*
    /// (the paper uses 10 000). The wall-clock period is therefore constant
    /// regardless of the current frequency.
    pub control_period_cycles: u64,
    /// Number of control intervals used to warm the network and the
    /// controller up before measuring.
    pub warmup_intervals: usize,
    /// Number of control intervals over which latency, delay and power are
    /// averaged.
    pub measure_intervals: usize,
    /// After the fixed warm-up, keep running (still discarding measurements)
    /// until the controller's frequency settles — at most this many extra
    /// intervals. Feed-forward policies (No-DVFS, RMSD) settle immediately;
    /// the DMSD PI loop needs tens of intervals to converge on its delay
    /// target, and the paper reports steady-state behaviour.
    pub max_settle_intervals: usize,
    /// Relative frequency change below which the controller is considered
    /// settled (checked over three consecutive intervals).
    pub settle_tolerance: f64,
}

impl ClosedLoopConfig {
    /// The timing used for the paper-fidelity experiments: 10 000-cycle
    /// control period, 10 warm-up intervals, 30 measured intervals.
    pub fn paper() -> Self {
        ClosedLoopConfig {
            control_period_cycles: 10_000,
            warmup_intervals: 10,
            measure_intervals: 30,
            max_settle_intervals: 100,
            settle_tolerance: 0.004,
        }
    }

    /// A reduced-budget configuration for unit tests and smoke benches.
    pub fn quick() -> Self {
        ClosedLoopConfig {
            control_period_cycles: 1_500,
            warmup_intervals: 4,
            measure_intervals: 6,
            max_settle_intervals: 40,
            settle_tolerance: 0.006,
        }
    }

    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics if any field is zero.
    pub fn validate(&self) {
        assert!(self.control_period_cycles > 0, "control period must be positive");
        assert!(self.warmup_intervals > 0, "need at least one warm-up interval");
        assert!(self.measure_intervals > 0, "need at least one measured interval");
        assert!(
            self.settle_tolerance.is_finite() && self.settle_tolerance >= 0.0,
            "settle tolerance must be non-negative"
        );
    }
}

impl Default for ClosedLoopConfig {
    fn default() -> Self {
        ClosedLoopConfig::paper()
    }
}

/// The measured behaviour of one workload / policy combination — one point of
/// a paper figure.
#[derive(Debug, Clone, PartialEq)]
pub struct OperatingPointResult {
    /// Policy name (`"No-DVFS"`, `"RMSD"`, `"DMSD"`).
    pub policy: String,
    /// Offered load in flits per node-clock cycle per node.
    pub offered_load: f64,
    /// Injection rate actually measured over the run (flits per node cycle
    /// per node).
    pub measured_rate: f64,
    /// Average packet latency in NoC clock cycles.
    pub avg_latency_cycles: f64,
    /// Average end-to-end packet delay in nanoseconds of wall-clock time.
    pub avg_delay_ns: f64,
    /// Largest packet delay observed, nanoseconds.
    pub max_delay_ns: f64,
    /// Average total NoC power in milliwatts over the measurement phase.
    pub power_mw: f64,
    /// Dynamic component of the power, milliwatts.
    pub dynamic_power_mw: f64,
    /// Static (leakage) component of the power, milliwatts.
    pub static_power_mw: f64,
    /// Time-weighted average NoC clock frequency, gigahertz.
    pub avg_frequency_ghz: f64,
    /// Time-weighted average supply voltage, volts.
    pub avg_vdd: f64,
    /// Accepted throughput in flits per NoC cycle per node.
    pub throughput: f64,
    /// Packets delivered during the measurement phase.
    pub packets_delivered: u64,
    /// Wall-clock duration of the measurement phase, nanoseconds.
    pub measurement_wall_ns: f64,
    /// Flits dropped by fault-killed components during the measurement
    /// phase. Always zero unless the configuration injects faults
    /// ([`NetworkConfig::faults`]).
    pub flits_dropped: u64,
    /// Fraction of source–destination pairs still connected at the end of
    /// the run (1.0 on a fault-free network; see
    /// [`NocSimulation::reachable_pairs_fraction`]).
    pub reachability: f64,
}

impl OperatingPointResult {
    /// Energy per delivered packet in picojoules (power × time / packets),
    /// a convenient scalar for ablation tables.
    pub fn energy_per_packet_pj(&self) -> f64 {
        if self.packets_delivered == 0 {
            return 0.0;
        }
        // mW · ns = pJ
        self.power_mw * self.measurement_wall_ns / (self.packets_delivered as f64)
    }
}

/// Summarises a faulted operating point against its fault-free reference
/// (same workload, load and seed, faults disabled) as a
/// [`DegradedModeReport`]: reachability of the surviving network, delivered
/// and dropped counts, latency inflation from detours, and the energy excess
/// attributable to rerouting.
pub fn degraded_mode_report(
    faulted: &OperatingPointResult,
    fault_free: &OperatingPointResult,
) -> DegradedModeReport {
    DegradedModeReport {
        reachability: faulted.reachability,
        packets_delivered: faulted.packets_delivered,
        flits_dropped: faulted.flits_dropped,
        avg_latency_cycles: faulted.avg_latency_cycles,
        fault_free_latency_cycles: fault_free.avg_latency_cycles,
        energy_per_packet_pj: faulted.energy_per_packet_pj(),
        fault_free_energy_per_packet_pj: fault_free.energy_per_packet_pj(),
    }
}

/// Runs one closed-loop operating point.
///
/// * `net` — micro-architectural configuration of the NoC;
/// * `traffic` — the workload (synthetic pattern or application matrix);
/// * `policy` — which DVFS policy to run;
/// * `loop_cfg` — control-loop timing (see [`ClosedLoopConfig`]);
/// * `seed` — RNG seed making the run reproducible.
///
/// The loop drives `net`'s voltage-frequency island partition. On the default
/// single-island partition that is the single-clock (global DVFS) loop of the
/// paper; on a partitioned network every island runs its own instance of
/// `policy` and this function returns the network-level aggregate —
/// [`run_operating_point_islands`](crate::run_operating_point_islands)
/// returns the per-island detail of the same run.
///
/// ```
/// use noc_dvfs::{run_operating_point, ClosedLoopConfig, PolicyKind, RmsdConfig};
/// use noc_sim::{NetworkConfig, SyntheticTraffic, TrafficPattern};
///
/// let net = NetworkConfig::builder()
///     .mesh(4, 4)
///     .virtual_channels(2)
///     .buffer_depth(4)
///     .packet_length(5)
///     .build()
///     .unwrap();
/// let traffic = SyntheticTraffic::new(TrafficPattern::Uniform, 0.08, 5);
/// let point = run_operating_point(
///     &net,
///     Box::new(traffic),
///     PolicyKind::Rmsd(RmsdConfig::with_lambda_max(0.35)),
///     &ClosedLoopConfig::quick(),
///     1,
/// );
/// // Light load: RMSD slows the clock below the 1 GHz maximum.
/// assert!(point.avg_frequency_ghz < 1.0);
/// assert!(point.packets_delivered > 0);
/// ```
///
/// # Panics
///
/// Panics if `loop_cfg` is invalid (zero intervals or period).
pub fn run_operating_point(
    net: &NetworkConfig,
    traffic: Box<dyn TrafficSpec>,
    policy: PolicyKind,
    loop_cfg: &ClosedLoopConfig,
    seed: u64,
) -> OperatingPointResult {
    run_loop(net, traffic, policy, None, loop_cfg, seed).aggregate
}

/// Everything one run of the control loop measures: the network-level
/// operating point, one summary per island and, on a gated run, the gating
/// residency. The three public entry points each return the part they name.
pub(crate) struct LoopResult {
    pub(crate) aggregate: OperatingPointResult,
    pub(crate) islands: Vec<IslandSummary>,
    pub(crate) gating: Option<GatingResidency>,
}

/// **The** closed control loop: run a window, measure, let every island's
/// policy instance pick its next frequency, price the window.
///
/// The loop always drives `net`'s region partition — one controller, one
/// `(frequency, Vdd)` level and one residency record per island — and global
/// DVFS is its one-island case, bit for bit what the historical single-clock
/// loop computed: the island's clock divider is `f / f == 1.0` exactly, its
/// node weight in the frequency/Vdd averages is `n / n == 1.0`, and
/// [`RouterPowerModel::partition_energy`] folds the routers in the order
/// [`RouterPowerModel::network_energy`] does.
///
/// With `gating` set the same control update also re-derives every island's
/// idle threshold and the measurement phase accumulates a
/// [`GatingResidency`]; a network that left gating off has it enabled with
/// the policy's initial threshold and [`DEFAULT_WAKEUP_LATENCY`], one that
/// configures its own [`GatingConfig`] is used as-is.
pub(crate) fn run_loop(
    net: &NetworkConfig,
    traffic: Box<dyn TrafficSpec>,
    policy: PolicyKind,
    gating: Option<GatingPolicyKind>,
    loop_cfg: &ClosedLoopConfig,
    seed: u64,
) -> LoopResult {
    loop_cfg.validate();
    let offered_load = traffic.offered_load();
    let tech = FdsoiTech::new();
    let power_model = RouterPowerModel::new();
    let net = match gating {
        Some(kind) if !net.gating().is_enabled() => net
            .to_builder()
            .gating(GatingConfig::enabled(
                kind.initial_threshold(&power_model, &tech, net),
                DEFAULT_WAKEUP_LATENCY,
            ))
            .build()
            .expect("enabling gating preserves config validity"),
        _ => net.clone(),
    };
    let region_map = net.region_map();
    let island_of = region_map.assignments();
    let node_counts = region_map.node_counts();
    let island_count = node_counts.len();
    let mut controller = MultiIslandController::new(&policy, &net);
    let mut gating_residency = gating.map(|_| GatingResidency::new(island_of.to_vec()));

    // The control period is fixed in wall-clock time: `control_period_cycles`
    // cycles of the fastest clock. Interval lengths are counted in base
    // ticks, whose rate is the fastest island's current frequency.
    let max_frequency = net.max_frequency();
    let period_ps = loop_cfg.control_period_cycles as f64 * max_frequency.period().as_ps();
    let mut sim = NocSimulation::new(net, traffic, seed);
    sim.set_noc_frequency(max_frequency);

    // One control update, the only place the loop re-tunes the network.
    // Every island's controller reads its own window; the frequency vector is
    // applied atomically (a per-island loop of `set_island_frequency` calls
    // would pass through transient base rates and could spuriously reset an
    // untouched island's clock divider); a gated run then re-derives each
    // island's idle threshold against the break-even time at the frequency
    // it is *about to run at*. Returns the largest relative frequency change
    // over the islands, which the settle check reads.
    let retune = |sim: &mut NocSimulation,
                  controller: &mut MultiIslandController,
                  windows: &[WindowMeasurement]| {
        let before = controller.frequencies().to_vec();
        let next = controller.next_frequencies(windows);
        sim.set_island_frequencies(next);
        if let Some(kind) = gating {
            for (island, window) in windows.iter().enumerate() {
                let break_even = break_even_cycles(&power_model, &tech, next[island]);
                let threshold = kind.next_threshold(window, node_counts[island], break_even);
                sim.set_island_idle_threshold(island, threshold);
            }
        }
        before
            .iter()
            .zip(next)
            .map(|(b, n)| (n.as_hz() - b.as_hz()).abs() / b.as_hz())
            .fold(0.0, f64::max)
    };

    // Warm-up: run the loop but discard the measurements. After the fixed
    // warm-up intervals, keep going (up to `max_settle_intervals`) until every
    // island's controller output is stable over three consecutive intervals,
    // so that the measurement phase captures steady-state behaviour (what the
    // paper reports).
    let mut stable_checks = 0;
    for interval in 0..(loop_cfg.warmup_intervals + loop_cfg.max_settle_intervals) {
        if interval >= loop_cfg.warmup_intervals && stable_checks >= 3 {
            break;
        }
        sim.run_cycles(interval_cycles(period_ps, sim.noc_frequency()));
        let _ = sim.take_window();
        let windows = sim.take_island_windows();
        // Warm-up windows are discarded: reset the activity counters in
        // place instead of materialising a per-router vector only to drop
        // it. The reset visits only the routers that held flits or changed
        // gating state in the window (the simulator's touched set, one bit
        // per node) and closes no gated span, so a warm-up window's overhead
        // follows its traffic plus a word per 64 nodes. A gated loop's
        // retune still walks the nodes of each island whose idle threshold
        // moved (to re-arm its idle routers' sleep timers), and the
        // measurement windows below build and fold one activity record per
        // router.
        sim.reset_activity();
        if retune(&mut sim, &mut controller, &windows) <= loop_cfg.settle_tolerance {
            stable_checks += 1;
        } else {
            stable_checks = 0;
        }
    }

    // Measurement phase.
    sim.reset_stats();
    let mut residencies = vec![FrequencyResidency::new(); island_count];
    let mut energy = EnergyBreakdown::default();
    let mut freq_time_product = 0.0; // Hz · ps, node-weighted across islands
    let mut vdd_time_product = 0.0; // V · ps, node-weighted across islands
    let mut total_wall_ps = 0.0;
    let mut flits_generated = 0u64;
    let mut flits_ejected = 0u64;
    let mut flits_dropped = 0u64;
    let mut node_cycles = 0u64;
    let mut noc_cycles = 0u64;
    let mut island_flits_generated = vec![0u64; island_count];
    let mut island_delay_ps = vec![0.0f64; island_count];
    let mut island_packets = vec![0u64; island_count];
    let mut island_cycles = vec![0u64; island_count];
    let total_nodes = sim.node_count() as f64;

    for _ in 0..loop_cfg.measure_intervals {
        sim.run_cycles(interval_cycles(period_ps, sim.noc_frequency()));
        let window = sim.take_window();
        let windows = sim.take_island_windows();
        let activity = sim.take_activity();
        let levels: Vec<(Hertz, Volts)> =
            controller.frequencies().iter().map(|&f| (f, tech.vdd_for_frequency(f))).collect();

        for (island, &(f, vdd)) in levels.iter().enumerate() {
            let e = power_model.partition_energy(
                &activity,
                island_of,
                island as u32,
                f,
                vdd,
                window.wall_time_ps,
            );
            residencies[island].record(f, vdd, window.wall_time_ps, e);
            energy += e;
            let weight = node_counts[island] as f64 / total_nodes;
            freq_time_product += f.as_hz() * weight * window.wall_time_ps;
            vdd_time_product += vdd.as_volts() * weight * window.wall_time_ps;
            island_flits_generated[island] += windows[island].flits_generated;
            island_delay_ps[island] += windows[island].delay_ps_sum;
            island_packets[island] += windows[island].packets_ejected;
            island_cycles[island] += windows[island].noc_cycles;
        }
        if let Some(residency) = gating_residency.as_mut() {
            residency.record(&power_model, &activity, &levels, window.wall_time_ps);
        }

        total_wall_ps += window.wall_time_ps;
        flits_generated += window.flits_generated;
        flits_ejected += window.flits_ejected;
        flits_dropped += window.flits_dropped;
        node_cycles += window.node_cycles;
        noc_cycles += window.noc_cycles;

        retune(&mut sim, &mut controller, &windows);
    }

    let stats = sim.stats();
    let per = |sum: f64, span: f64| if span > 0.0 { sum / span } else { 0.0 };
    let total_wall_ns = total_wall_ps / 1.0e3;
    let aggregate = OperatingPointResult {
        policy: policy.name().to_string(),
        offered_load,
        measured_rate: per(flits_generated as f64, node_cycles as f64 * total_nodes),
        avg_latency_cycles: stats.avg_latency_cycles().unwrap_or(0.0),
        avg_delay_ns: stats.avg_delay_ns().unwrap_or(0.0),
        max_delay_ns: stats.max_delay_ps / 1.0e3,
        power_mw: per(energy.total_pj(), total_wall_ns),
        dynamic_power_mw: per(energy.dynamic_pj, total_wall_ns),
        static_power_mw: per(energy.static_pj, total_wall_ns),
        avg_frequency_ghz: per(freq_time_product, total_wall_ps) / 1.0e9,
        avg_vdd: per(vdd_time_product, total_wall_ps),
        throughput: per(flits_ejected as f64, noc_cycles as f64 * total_nodes),
        packets_delivered: stats.packets,
        measurement_wall_ns: total_wall_ns,
        flits_dropped,
        reachability: sim.reachable_pairs_fraction(),
    };
    let islands = residencies
        .into_iter()
        .enumerate()
        .map(|(island, residency)| IslandSummary {
            island,
            nodes: node_counts[island],
            residency,
            measured_rate: per(
                island_flits_generated[island] as f64,
                node_cycles as f64 * node_counts[island] as f64,
            ),
            avg_delay_ns: per(island_delay_ps[island], island_packets[island] as f64) / 1.0e3,
            domain_cycles: island_cycles[island],
        })
        .collect();
    LoopResult { aggregate, islands, gating: gating_residency }
}

/// Number of base-clock cycles that fit in one control period when the base
/// (fastest-island) clock runs at `f`.
fn interval_cycles(period_ps: f64, f: Hertz) -> u64 {
    ((period_ps / f.period().as_ps()).round() as u64).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dmsd::DmsdConfig;
    use crate::rmsd::RmsdConfig;
    use noc_sim::{SyntheticTraffic, TrafficPattern};

    fn small_net() -> NetworkConfig {
        NetworkConfig::builder()
            .mesh(4, 4)
            .virtual_channels(2)
            .buffer_depth(4)
            .packet_length(5)
            .build()
            .unwrap()
    }

    fn traffic(rate: f64) -> Box<dyn TrafficSpec> {
        Box::new(SyntheticTraffic::new(TrafficPattern::Uniform, rate, 5))
    }

    #[test]
    fn interval_cycle_count_scales_with_frequency() {
        let period_ps = 10_000.0 * 1_000.0; // 10 000 cycles at 1 GHz
        assert_eq!(interval_cycles(period_ps, Hertz::from_ghz(1.0)), 10_000);
        assert_eq!(interval_cycles(period_ps, Hertz::from_mhz(500.0)), 5_000);
        assert_eq!(interval_cycles(period_ps, Hertz::from_mhz(333.333)), 3_333);
    }

    #[test]
    fn no_dvfs_point_runs_at_full_speed() {
        let net = small_net();
        let p = run_operating_point(
            &net,
            traffic(0.1),
            PolicyKind::NoDvfs,
            &ClosedLoopConfig::quick(),
            1,
        );
        assert_eq!(p.policy, "No-DVFS");
        assert!((p.avg_frequency_ghz - 1.0).abs() < 1e-9);
        assert!((p.avg_vdd - 0.9).abs() < 1e-9);
        assert!(p.power_mw > 0.0);
        assert!(p.packets_delivered > 0);
        assert!((p.measured_rate - 0.1).abs() < 0.05);
    }

    #[test]
    fn rmsd_slows_down_at_light_load_and_saves_power() {
        let net = small_net();
        let loop_cfg = ClosedLoopConfig::quick();
        let baseline =
            run_operating_point(&net, traffic(0.08), PolicyKind::NoDvfs, &loop_cfg, 2);
        let rmsd = run_operating_point(
            &net,
            traffic(0.08),
            PolicyKind::Rmsd(RmsdConfig::with_lambda_max(0.35)),
            &loop_cfg,
            2,
        );
        assert!(rmsd.avg_frequency_ghz < 0.7, "RMSD must slow the clock at light load");
        assert!(rmsd.power_mw < baseline.power_mw, "slower clock must save power");
        assert!(
            rmsd.avg_delay_ns > baseline.avg_delay_ns,
            "the power saving is paid in delay"
        );
    }

    #[test]
    fn dmsd_runs_and_stays_within_the_frequency_range() {
        let net = small_net();
        let p = run_operating_point(
            &net,
            traffic(0.1),
            PolicyKind::Dmsd(DmsdConfig::with_target_ns(120.0)),
            &ClosedLoopConfig::quick(),
            3,
        );
        assert_eq!(p.policy, "DMSD");
        assert!(p.avg_frequency_ghz >= 0.332 && p.avg_frequency_ghz <= 1.001);
        assert!(p.avg_vdd >= 0.55 && p.avg_vdd <= 0.91);
    }

    #[test]
    fn results_are_reproducible_for_a_fixed_seed() {
        let net = small_net();
        let cfg = ClosedLoopConfig::quick();
        let a = run_operating_point(&net, traffic(0.12), PolicyKind::NoDvfs, &cfg, 7);
        let b = run_operating_point(&net, traffic(0.12), PolicyKind::NoDvfs, &cfg, 7);
        assert_eq!(a, b);
    }

    #[test]
    fn power_breakdown_sums_to_total() {
        let net = small_net();
        let p = run_operating_point(
            &net,
            traffic(0.15),
            PolicyKind::NoDvfs,
            &ClosedLoopConfig::quick(),
            5,
        );
        assert!((p.dynamic_power_mw + p.static_power_mw - p.power_mw).abs() < 1e-9);
        assert!(p.dynamic_power_mw > p.static_power_mw, "dynamic power dominates at 1 GHz");
    }

    #[test]
    #[should_panic(expected = "warm-up")]
    fn invalid_loop_config_is_rejected() {
        let bad = ClosedLoopConfig { warmup_intervals: 0, ..ClosedLoopConfig::quick() };
        let net = small_net();
        let _ = run_operating_point(&net, traffic(0.1), PolicyKind::NoDvfs, &bad, 1);
    }

    #[test]
    fn dmsd_settles_close_to_its_target_delay() {
        // With the adaptive warm-up the PI loop must have converged before
        // measurement starts, so the measured delay is close to the target
        // whenever the target is reachable inside the frequency range.
        let net = small_net();
        let loop_cfg = ClosedLoopConfig {
            control_period_cycles: 1_500,
            warmup_intervals: 4,
            measure_intervals: 8,
            max_settle_intervals: 120,
            settle_tolerance: 0.01,
        };
        // On this small mesh with 5-flit packets the delay at the minimum
        // frequency is only ~70-100 ns, so a reachable target (80 ns) is used:
        // the loop must settle near it rather than rail at either end.
        let target = 80.0;
        let p = run_operating_point(
            &net,
            traffic(0.12),
            PolicyKind::Dmsd(DmsdConfig::with_target_ns(target)),
            &loop_cfg,
            11,
        );
        assert!(
            (p.avg_delay_ns - target).abs() < 0.35 * target,
            "DMSD steady-state delay {} ns should be near the {target} ns target",
            p.avg_delay_ns
        );
        assert!(p.avg_frequency_ghz < 0.95, "tracking the target must not require full speed");
    }
}
