//! Power-gating policies: the second control axis of the closed loop.
//!
//! DVFS (the paper's contribution) scales dynamic power with load; power
//! gating attacks the remaining leakage and clock-tree power of routers that
//! are *idle*. Gating is decided at the same per-island granularity, from
//! the same measurement windows and in the same control update as DVFS:
//!
//! * [`GatingPolicyKind`] — how aggressively to sleep: [`ImmediateSleep`]
//!   (threshold 0), [`IdleThreshold(N)`] (fixed), or [`BreakEvenAware`] —
//!   sleep only when the predicted idle period exceeds the energy
//!   break-even time of a sleep/wake transition pair, using the same
//!   windowed measurements the DVFS policies consume;
//! * [`run_operating_point_gated`] — the closed loop
//!   ([`crate::closed_loop`]) with a gating policy set: every control update
//!   re-tunes each island's frequency *and* idle threshold, and the result
//!   carries the aggregate operating point, the per-island summaries and
//!   the full [`GatingResidency`] (time gated, wake events, energy saved
//!   vs. transition cost).
//!
//! [`ImmediateSleep`]: GatingPolicyKind::ImmediateSleep
//! [`IdleThreshold(N)`]: GatingPolicyKind::IdleThreshold
//! [`BreakEvenAware`]: GatingPolicyKind::BreakEvenAware

use crate::closed_loop::{run_loop, ClosedLoopConfig, OperatingPointResult};
use crate::island::IslandSummary;
use crate::policy::PolicyKind;
use noc_power::{FdsoiTech, GatingResidency, RouterPowerModel};
use noc_sim::{Hertz, NetworkConfig, TrafficSpec, WindowMeasurement, GATE_NEVER};

/// Wakeup latency assumed when a gated run enables gating on a network whose
/// configuration left it off, in domain cycles. Real sleep-transistor
/// networks wake in a handful of cycles; 8 is a conservative mid-range
/// value.
pub const DEFAULT_WAKEUP_LATENCY: u64 = 8;

/// Parameters of the break-even-aware gating policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BreakEvenConfig {
    /// Safety margin: the predicted idle period must exceed
    /// `margin × break-even time` before the island's routers are allowed
    /// to sleep. 1.0 gates exactly at break-even; the default 2.0 absorbs
    /// prediction error on bursty traffic.
    pub margin: f64,
}

impl BreakEvenConfig {
    /// The default margin (2×).
    pub fn new() -> Self {
        BreakEvenConfig { margin: 2.0 }
    }
}

impl Default for BreakEvenConfig {
    fn default() -> Self {
        BreakEvenConfig::new()
    }
}

/// A value-level description of which gating policy to run (the gating
/// analogue of [`PolicyKind`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GatingPolicyKind {
    /// Sleep as soon as a router drains (idle threshold 0). Maximum gated
    /// residency, but thrashes below break-even under sparse traffic.
    ImmediateSleep,
    /// Sleep after a fixed number of idle domain cycles.
    IdleThreshold(u64),
    /// Sleep only when the predicted idle period exceeds the energy
    /// break-even time at the island's current operating point; the idle
    /// threshold is then set to the break-even time itself (the classic
    /// timeout policy, 2-competitive with the offline optimum).
    BreakEvenAware(BreakEvenConfig),
}

impl GatingPolicyKind {
    /// A short lowercase name for labels (e.g. `"break-even"`).
    pub fn name(&self) -> &'static str {
        match self {
            GatingPolicyKind::ImmediateSleep => "imm-sleep",
            GatingPolicyKind::IdleThreshold(_) => "idle-thresh",
            GatingPolicyKind::BreakEvenAware(_) => "break-even",
        }
    }

    /// The idle threshold to configure before any measurement exists
    /// (applied at the maximum frequency, where the loop starts).
    pub fn initial_threshold(&self, model: &RouterPowerModel, tech: &FdsoiTech, net: &NetworkConfig) -> u64 {
        match self {
            GatingPolicyKind::ImmediateSleep => 0,
            GatingPolicyKind::IdleThreshold(n) => *n,
            GatingPolicyKind::BreakEvenAware(_) => {
                let f = net.max_frequency();
                break_even_cycles(model, tech, f).ceil() as u64
            }
        }
    }

    /// The idle threshold for the next control interval, given one island's
    /// measurement `window`, its `node_count`, and the break-even time (in
    /// the island's domain cycles) at the frequency the island is about to
    /// run at. Returns [`GATE_NEVER`] when the island should not sleep.
    pub fn next_threshold(
        &self,
        window: &WindowMeasurement,
        node_count: usize,
        break_even_cycles: f64,
    ) -> u64 {
        match self {
            GatingPolicyKind::ImmediateSleep => 0,
            GatingPolicyKind::IdleThreshold(n) => *n,
            GatingPolicyKind::BreakEvenAware(cfg) => {
                // Idle-period prediction from the same windowed measurements
                // the DVFS policies consume: traffic arrives as L-flit
                // packets (L read off the window's ejection counters), so at
                // a node-level utilisation λ (flits per NoC cycle per node)
                // the expected idle gap between packet bursts is
                // ≈ L·(1 − λ)/λ cycles. Gate only when that prediction
                // clears the break-even bar with margin.
                let lambda = window.noc_injection_rate(node_count);
                let avg_packet_flits = if window.packets_ejected > 0 {
                    window.flits_ejected as f64 / window.packets_ejected as f64
                } else {
                    1.0
                };
                let predicted_idle = if lambda <= 0.0 {
                    f64::INFINITY
                } else {
                    avg_packet_flits * (1.0 - lambda).max(0.0) / lambda
                };
                if predicted_idle >= cfg.margin * break_even_cycles {
                    break_even_cycles.ceil().max(1.0) as u64
                } else {
                    GATE_NEVER
                }
            }
        }
    }
}

/// The break-even time at frequency `f` expressed in that clock's cycles.
pub(crate) fn break_even_cycles(model: &RouterPowerModel, tech: &FdsoiTech, f: Hertz) -> f64 {
    let vdd = tech.vdd_for_frequency(f);
    model.break_even_ps(f, vdd) / f.period().as_ps()
}

/// Aggregate + per-island + gating-residency result of one gated operating
/// point.
#[derive(Debug, Clone, PartialEq)]
pub struct GatedOperatingPointResult {
    /// The network-level operating point (the shape every sweep consumes).
    pub aggregate: OperatingPointResult,
    /// Per-island DVFS measurements, indexed by island id.
    pub islands: Vec<IslandSummary>,
    /// Per-router + per-island gating residency over the measurement phase.
    pub gating: GatingResidency,
}

impl GatedOperatingPointResult {
    /// Fraction of router-cycles spent gated over the measurement phase.
    pub fn gated_fraction(&self) -> f64 {
        self.gating.total().gated_fraction()
    }
}

/// Runs one closed-loop operating point under **combined per-island DVFS and
/// power-gating control**.
///
/// If `net` does not already enable gating, it is enabled with the policy's
/// initial idle threshold and [`DEFAULT_WAKEUP_LATENCY`]; a network that
/// configures its own [`GatingConfig`](noc_sim::GatingConfig) (custom wakeup
/// latency, per-island overrides) is used as-is. Each control interval
/// re-tunes every island's frequency *and* idle threshold — the threshold
/// against the break-even time at the frequency the island is about to run
/// at —; the measurement phase accumulates the [`GatingResidency`] alongside
/// the usual power/delay bookkeeping.
///
/// ```
/// use noc_dvfs::{run_operating_point_gated, ClosedLoopConfig, GatingPolicyKind, PolicyKind};
/// use noc_sim::{NetworkConfig, SyntheticTraffic, TrafficPattern};
///
/// let net = NetworkConfig::builder()
///     .mesh(4, 4)
///     .virtual_channels(2)
///     .buffer_depth(4)
///     .packet_length(5)
///     .build()
///     .unwrap();
/// let traffic = SyntheticTraffic::new(TrafficPattern::Uniform, 0.03, 5);
/// let point = run_operating_point_gated(
///     &net,
///     Box::new(traffic),
///     PolicyKind::NoDvfs,
///     GatingPolicyKind::BreakEvenAware(Default::default()),
///     &ClosedLoopConfig::quick(),
///     7,
/// );
/// // Light load: routers spend real time asleep and the books balance.
/// assert!(point.gated_fraction() > 0.0);
/// assert!(point.aggregate.packets_delivered > 0);
/// ```
///
/// # Panics
///
/// Panics if `loop_cfg` is invalid (zero intervals or period).
pub fn run_operating_point_gated(
    net: &NetworkConfig,
    traffic: Box<dyn TrafficSpec>,
    policy: PolicyKind,
    gating: GatingPolicyKind,
    loop_cfg: &ClosedLoopConfig,
    seed: u64,
) -> GatedOperatingPointResult {
    let run = run_loop(net, traffic, policy, Some(gating), loop_cfg, seed);
    GatedOperatingPointResult {
        aggregate: run.aggregate,
        islands: run.islands,
        gating: run.gating.expect("a gated run records its residency"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    fn window(rate: f64, cycles: u64, nodes: usize) -> WindowMeasurement {
        let flits = (rate * cycles as f64 * nodes as f64) as u64;
        WindowMeasurement {
            noc_cycles: cycles,
            node_cycles: cycles,
            flits_generated: flits,
            flits_injected: flits,
            ..WindowMeasurement::default()
        }
    }

    #[test]
    fn policy_kinds_produce_their_thresholds() {
        let w = window(0.01, 10_000, 16);
        assert_eq!(GatingPolicyKind::ImmediateSleep.next_threshold(&w, 16, 30.0), 0);
        assert_eq!(GatingPolicyKind::IdleThreshold(64).next_threshold(&w, 16, 30.0), 64);
        // λ = 0.01 → predicted idle ≈ 99 cycles ≥ 2×30: gate at break-even.
        let be = GatingPolicyKind::BreakEvenAware(BreakEvenConfig::new());
        assert_eq!(be.next_threshold(&w, 16, 30.0), 30);
        // λ = 0.2 → predicted idle 4 cycles < 60: do not gate.
        let busy = window(0.2, 10_000, 16);
        assert_eq!(be.next_threshold(&busy, 16, 30.0), GATE_NEVER);
        // A silent island always gates.
        let silent = window(0.0, 10_000, 16);
        assert_eq!(be.next_threshold(&silent, 16, 30.0), 30);
    }

    #[test]
    fn gated_points_are_reproducible_and_account_residency() {
        let net = small_net();
        let cfg = ClosedLoopConfig::quick();
        let a = run_operating_point_gated(
            &net,
            traffic(0.02),
            PolicyKind::NoDvfs,
            GatingPolicyKind::IdleThreshold(16),
            &cfg,
            11,
        );
        let b = run_operating_point_gated(
            &net,
            traffic(0.02),
            PolicyKind::NoDvfs,
            GatingPolicyKind::IdleThreshold(16),
            &cfg,
            11,
        );
        assert_eq!(a, b);
        assert!(a.gated_fraction() > 0.0, "a 2% load leaves routers asleep most of the time");
        let total = a.gating.total();
        assert!(total.sleep_events > 0 && total.wake_events > 0);
        assert!(total.saved_pj > 0.0);
        assert_eq!(a.gating.islands().len(), 1);
        assert!(a.aggregate.packets_delivered > 0);
    }

    #[test]
    fn break_even_gating_saves_energy_at_light_load() {
        // The acceptance setting of the issue, at test scale: light-load
        // mesh, BreakEvenAware gating vs the ungated baseline — strictly
        // lower power at unchanged accepted throughput.
        let net = small_net();
        let cfg = ClosedLoopConfig::quick();
        let baseline =
            crate::closed_loop::run_operating_point(&net, traffic(0.02), PolicyKind::NoDvfs, &cfg, 3);
        let gated = run_operating_point_gated(
            &net,
            traffic(0.02),
            PolicyKind::NoDvfs,
            GatingPolicyKind::BreakEvenAware(BreakEvenConfig::new()),
            &cfg,
            3,
        );
        assert!(
            gated.aggregate.power_mw < baseline.power_mw,
            "gating must cut total power ({} vs {} mW)",
            gated.aggregate.power_mw,
            baseline.power_mw
        );
        let t0 = baseline.throughput;
        let t1 = gated.aggregate.throughput;
        assert!(
            (t1 - t0).abs() <= 0.02 * t0.max(1e-12),
            "accepted throughput must be unchanged ({t0} vs {t1})"
        );
    }

    #[test]
    fn immediate_sleep_gates_more_but_thrashes_more() {
        let net = small_net();
        let cfg = ClosedLoopConfig::quick();
        let imm = run_operating_point_gated(
            &net,
            traffic(0.02),
            PolicyKind::NoDvfs,
            GatingPolicyKind::ImmediateSleep,
            &cfg,
            5,
        );
        let be = run_operating_point_gated(
            &net,
            traffic(0.02),
            PolicyKind::NoDvfs,
            GatingPolicyKind::BreakEvenAware(BreakEvenConfig::new()),
            &cfg,
            5,
        );
        // Immediate sleep thrashes: far more transitions, each bought below
        // break-even, and the wakeup stalls snowball into queueing delay —
        // the break-even-aware policy must beat it on every axis that
        // matters.
        assert!(
            imm.gating.total().sleep_events > 2 * be.gating.total().sleep_events,
            "immediate sleep must transition far more often ({} vs {})",
            imm.gating.total().sleep_events,
            be.gating.total().sleep_events
        );
        assert!(
            be.gating.total().net_saving_pj() > imm.gating.total().net_saving_pj(),
            "break-even awareness must net more energy than thrashing"
        );
        assert!(be.gating.total().net_saving_pj() > 0.0, "break-even gating must pay off");
        assert!(
            be.aggregate.power_mw < imm.aggregate.power_mw,
            "thrash shows up as power ({} vs {} mW)",
            imm.aggregate.power_mw,
            be.aggregate.power_mw
        );
        assert!(
            be.aggregate.avg_delay_ns < imm.aggregate.avg_delay_ns,
            "thrash shows up as wakeup-stall delay"
        );
    }
}
