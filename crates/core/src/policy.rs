//! The DVFS policy abstraction and the No-DVFS baseline.

use crate::dmsd::{Dmsd, DmsdConfig};
use crate::rmsd::{Rmsd, RmsdConfig};
use noc_sim::{Hertz, NetworkConfig, WindowMeasurement};
use std::fmt::Debug;

/// Everything a DVFS controller learns at one control update: the window of
/// measurements collected since the previous update, plus network-level
/// context.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControlMeasurement {
    /// The measurement window reported by the nodes.
    pub window: WindowMeasurement,
    /// Number of nodes in the mesh (to turn aggregate counts into per-node
    /// rates).
    pub node_count: usize,
    /// NoC clock frequency that was in force during the window.
    pub current_frequency: Hertz,
}

impl ControlMeasurement {
    /// Average node injection rate `λ_node` over the window, in flits per
    /// node-clock cycle per node.
    pub fn node_injection_rate(&self) -> f64 {
        self.window.node_injection_rate(self.node_count)
    }

    /// Average end-to-end packet delay over the window, in nanoseconds, if
    /// any packet completed.
    pub fn avg_delay_ns(&self) -> Option<f64> {
        self.window.avg_delay_ns()
    }
}

/// A global DVFS policy: given the latest measurements, choose the NoC clock
/// frequency for the next control interval.
///
/// Implementations must be deterministic functions of their own state and the
/// measurements so that experiments are reproducible.
pub trait DvfsPolicy: Debug + Send {
    /// A short name used in reports and figure legends (e.g. `"RMSD"`).
    fn name(&self) -> &'static str;

    /// Chooses the frequency to apply during the next control interval.
    fn next_frequency(&mut self, measurement: &ControlMeasurement) -> Hertz;

    /// Clears any internal state (PI integrators, error history, …).
    fn reset(&mut self);
}

/// The baseline policy: always run the NoC at its maximum frequency.
#[derive(Debug, Clone, PartialEq)]
pub struct NoDvfs {
    max_frequency: Hertz,
}

impl NoDvfs {
    /// Creates the baseline policy for a network configuration.
    pub fn new(cfg: &NetworkConfig) -> Self {
        NoDvfs { max_frequency: cfg.max_frequency() }
    }
}

impl DvfsPolicy for NoDvfs {
    fn name(&self) -> &'static str {
        "No-DVFS"
    }

    fn next_frequency(&mut self, _measurement: &ControlMeasurement) -> Hertz {
        self.max_frequency
    }

    fn reset(&mut self) {}
}

/// A value-level description of which policy to run, used by sweeps and
/// experiment drivers (where policies must be constructed repeatedly with the
/// same parameters).
#[derive(Debug, Clone, PartialEq)]
pub enum PolicyKind {
    /// The always-at-`F_max` baseline.
    NoDvfs,
    /// Rate-based Max Slow Down with the given parameters.
    Rmsd(RmsdConfig),
    /// Delay-based Max Slow Down with the given parameters.
    Dmsd(DmsdConfig),
}

impl PolicyKind {
    /// A short name used in reports and figure legends.
    pub fn name(&self) -> &'static str {
        match self {
            PolicyKind::NoDvfs => "No-DVFS",
            PolicyKind::Rmsd(_) => "RMSD",
            PolicyKind::Dmsd(_) => "DMSD",
        }
    }

    /// Instantiates the policy for the given network configuration.
    pub fn build(&self, cfg: &NetworkConfig) -> Box<dyn DvfsPolicy> {
        match self {
            PolicyKind::NoDvfs => Box::new(NoDvfs::new(cfg)),
            PolicyKind::Rmsd(rc) => Box::new(Rmsd::new(cfg, rc.clone())),
            PolicyKind::Dmsd(dc) => Box::new(Dmsd::new(cfg, dc.clone())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn measurement(rate: f64, delay_ns: f64, f: Hertz) -> ControlMeasurement {
        let node_count = 25;
        let node_cycles = 10_000;
        let flits_generated = (rate * node_count as f64 * node_cycles as f64) as u64;
        let packets = 100;
        ControlMeasurement {
            window: WindowMeasurement {
                noc_cycles: 10_000,
                node_cycles,
                wall_time_ps: 1.0e7,
                flits_generated,
                flits_injected: flits_generated,
                packets_ejected: packets,
                flits_ejected: packets * 20,
                latency_cycles_sum: packets * 50,
                delay_ps_sum: delay_ns * 1e3 * packets as f64,
                flits_dropped: 0,
            },
            node_count,
            current_frequency: f,
        }
    }

    #[test]
    fn no_dvfs_always_returns_max_frequency() {
        let cfg = NetworkConfig::paper_baseline();
        let mut policy = NoDvfs::new(&cfg);
        for rate in [0.0, 0.1, 0.4] {
            let m = measurement(rate, 100.0, Hertz::from_mhz(500.0));
            assert_eq!(policy.next_frequency(&m), cfg.max_frequency());
        }
        assert_eq!(policy.name(), "No-DVFS");
    }

    #[test]
    fn control_measurement_exposes_rate_and_delay() {
        let m = measurement(0.2, 150.0, Hertz::from_ghz(1.0));
        assert!((m.node_injection_rate() - 0.2).abs() < 1e-9);
        assert!((m.avg_delay_ns().unwrap() - 150.0).abs() < 1e-9);
    }

    #[test]
    fn policy_kind_builds_each_variant() {
        let cfg = NetworkConfig::paper_baseline();
        let kinds = [
            PolicyKind::NoDvfs,
            PolicyKind::Rmsd(RmsdConfig::with_lambda_max(0.378)),
            PolicyKind::Dmsd(DmsdConfig::with_target_ns(150.0)),
        ];
        let names: Vec<&str> = kinds.iter().map(|k| k.build(&cfg).name()).collect();
        assert_eq!(names, vec!["No-DVFS", "RMSD", "DMSD"]);
        assert_eq!(kinds[1].name(), "RMSD");
    }
}
