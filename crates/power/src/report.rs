//! Power reports and frequency/voltage residency accounting.

use crate::model::EnergyBreakdown;
use crate::tech::Volts;
use noc_sim::Hertz;

/// Power consumed by the NoC over one observation interval, broken down per
/// router and into dynamic vs. static components.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PowerReport {
    /// Average power of each router (plus its outgoing links), in milliwatts.
    pub per_router_mw: Vec<f64>,
    /// Total dynamic (activity + clock tree) power in milliwatts.
    pub dynamic_mw: f64,
    /// Total static (leakage) power in milliwatts.
    pub static_mw: f64,
}

impl PowerReport {
    /// Creates an empty report.
    pub fn new() -> Self {
        PowerReport::default()
    }

    /// Total NoC power in milliwatts.
    #[cfg(test)]
    pub fn total_mw(&self) -> f64 {
        self.dynamic_mw + self.static_mw
    }

    /// The highest per-router power, useful to locate hotspots.
    pub fn peak_router_mw(&self) -> f64 {
        self.per_router_mw.iter().copied().fold(0.0, f64::max)
    }

    /// Average per-router power in milliwatts.
    pub fn mean_router_mw(&self) -> f64 {
        if self.per_router_mw.is_empty() {
            0.0
        } else {
            self.per_router_mw.iter().sum::<f64>() / self.per_router_mw.len() as f64
        }
    }
}

/// Width of a residency-histogram frequency bin, hertz (10 MHz).
///
/// Discrete-level policies (No-DVFS, quantized actuators) land each level in
/// its own bin exactly; continuous-output policies (the DMSD PI loop emits a
/// slightly different frequency every interval) coalesce into a bounded
/// histogram instead of one "level" per control update.
pub const RESIDENCY_BIN_HZ: f64 = 1.0e7;

/// Wall-clock time spent at one `(frequency, Vdd)` operating level — a
/// [`RESIDENCY_BIN_HZ`]-wide frequency bin.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResidencyLevel {
    /// Representative clock frequency of the level (the first frequency
    /// recorded into the bin), hertz.
    pub frequency_hz: f64,
    /// Time-weighted mean supply voltage over the level's intervals, volts.
    pub vdd: f64,
    /// Wall-clock time spent at the level, picoseconds.
    pub wall_ps: f64,
}

/// Time-weighted frequency/voltage residency of one clock domain (a
/// voltage-frequency island, or the whole NoC under global DVFS).
///
/// A DVFS control loop [`record`](Self::record)s every interval it spent at
/// an operating level; the accumulator tracks the time-weighted averages and
/// the per-level residency histogram, plus the energy attributed to the
/// domain over those intervals. This is the "frequency residency" a power
/// report shows per island.
///
/// ```
/// use noc_power::{report::FrequencyResidency, tech::Volts, model::EnergyBreakdown};
/// use noc_sim::Hertz;
///
/// let mut r = FrequencyResidency::new();
/// r.record(Hertz::from_ghz(1.0), Volts::new(0.9), 3.0e6, EnergyBreakdown::default());
/// r.record(Hertz::from_mhz(500.0), Volts::new(0.7), 1.0e6, EnergyBreakdown::default());
/// assert!((r.avg_frequency_ghz() - 0.875).abs() < 1e-12);
/// assert_eq!(r.levels().len(), 2);
/// assert!((r.share_at(Hertz::from_ghz(1.0)) - 0.75).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FrequencyResidency {
    /// Total recorded wall-clock time, picoseconds.
    pub wall_ps: f64,
    /// `Σ frequency · interval` in Hz·ps (time-weighted frequency numerator).
    pub freq_time_hz_ps: f64,
    /// `Σ Vdd · interval` in V·ps (time-weighted voltage numerator).
    pub vdd_time_v_ps: f64,
    /// Energy attributed to the domain over the recorded intervals.
    pub energy: EnergyBreakdown,
    /// Distinct operating levels visited, in first-visit order.
    levels: Vec<ResidencyLevel>,
}

impl FrequencyResidency {
    /// An empty accumulator.
    pub fn new() -> Self {
        FrequencyResidency::default()
    }

    /// Adds one control interval spent at `(frequency, vdd)` for
    /// `duration_ps` picoseconds, during which the domain consumed `energy`.
    ///
    /// Levels are matched by [`RESIDENCY_BIN_HZ`]-wide frequency bins; the
    /// time-weighted averages ([`avg_frequency_ghz`](Self::avg_frequency_ghz)
    /// etc.) are exact regardless of the binning.
    pub fn record(&mut self, frequency: Hertz, vdd: Volts, duration_ps: f64, energy: EnergyBreakdown) {
        self.wall_ps += duration_ps;
        self.freq_time_hz_ps += frequency.as_hz() * duration_ps;
        self.vdd_time_v_ps += vdd.as_volts() * duration_ps;
        self.energy += energy;
        let bin = residency_bin(frequency.as_hz());
        match self.levels.iter_mut().find(|l| residency_bin(l.frequency_hz) == bin) {
            Some(level) => {
                let total = level.wall_ps + duration_ps;
                if total > 0.0 {
                    level.vdd =
                        (level.vdd * level.wall_ps + vdd.as_volts() * duration_ps) / total;
                }
                level.wall_ps = total;
            }
            None => self.levels.push(ResidencyLevel {
                frequency_hz: frequency.as_hz(),
                vdd: vdd.as_volts(),
                wall_ps: duration_ps,
            }),
        }
    }

    /// Time-weighted average frequency in gigahertz (0 if nothing recorded).
    pub fn avg_frequency_ghz(&self) -> f64 {
        if self.wall_ps > 0.0 { self.freq_time_hz_ps / self.wall_ps / 1.0e9 } else { 0.0 }
    }

    /// Time-weighted average supply voltage in volts (0 if nothing recorded).
    pub fn avg_vdd(&self) -> f64 {
        if self.wall_ps > 0.0 { self.vdd_time_v_ps / self.wall_ps } else { 0.0 }
    }

    /// Average power over the recorded intervals, milliwatts.
    pub fn avg_power_mw(&self) -> f64 {
        if self.wall_ps > 0.0 { self.energy.total_pj() / (self.wall_ps / 1.0e3) } else { 0.0 }
    }

    /// The distinct operating levels visited ([`RESIDENCY_BIN_HZ`]-wide
    /// bins), in first-visit order.
    pub fn levels(&self) -> &[ResidencyLevel] {
        &self.levels
    }

    /// Fraction of the recorded time spent in `frequency`'s residency bin
    /// (0 if the bin was never visited or nothing was recorded).
    pub fn share_at(&self, frequency: Hertz) -> f64 {
        if self.wall_ps <= 0.0 {
            return 0.0;
        }
        let bin = residency_bin(frequency.as_hz());
        self.levels
            .iter()
            .find(|l| residency_bin(l.frequency_hz) == bin)
            .map_or(0.0, |l| l.wall_ps / self.wall_ps)
    }
}

/// The residency-histogram bin index of a frequency.
fn residency_bin(frequency_hz: f64) -> i64 {
    (frequency_hz / RESIDENCY_BIN_HZ).round() as i64
}

/// Degraded-mode summary of a faulted run: what the network still delivered
/// and what the faults cost, relative to a fault-free reference run of the
/// same workload.
///
/// Built by the experiment layer (e.g.
/// `noc_dvfs::degraded_mode_report`) from two operating points; the power
/// crate only defines the report shape and its derived scalars so that
/// figure/report code can consume it next to [`PowerReport`] and
/// [`FrequencyResidency`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DegradedModeReport {
    /// Fraction of source–destination pairs still connected at the end of
    /// the faulted run (1.0 = the network is whole).
    pub reachability: f64,
    /// Packets delivered by the faulted run.
    pub packets_delivered: u64,
    /// Flits dropped by fault-killed components during the faulted run.
    pub flits_dropped: u64,
    /// Average packet latency of the faulted run, NoC cycles.
    pub avg_latency_cycles: f64,
    /// Average packet latency of the fault-free reference run, NoC cycles.
    pub fault_free_latency_cycles: f64,
    /// Energy per delivered packet of the faulted run, picojoules.
    pub energy_per_packet_pj: f64,
    /// Energy per delivered packet of the fault-free reference, picojoules.
    pub fault_free_energy_per_packet_pj: f64,
}

impl DegradedModeReport {
    /// Latency inflation factor of the faulted run over the fault-free
    /// reference (1.0 when the reference latency is zero/unknown). Detours
    /// taken by adaptive routing around failed components show up here.
    pub fn latency_inflation(&self) -> f64 {
        if self.fault_free_latency_cycles > 0.0 {
            self.avg_latency_cycles / self.fault_free_latency_cycles
        } else {
            1.0
        }
    }

    /// Extra energy attributable to rerouting and congestion around faults,
    /// picojoules: the per-packet energy excess over the fault-free reference
    /// times the packets the faulted run still delivered. Clamped at zero —
    /// a faulted run that delivers less traffic can legitimately spend less
    /// total energy, which is not a rerouting cost.
    pub fn rerouting_energy_pj(&self) -> f64 {
        let excess = (self.energy_per_packet_pj - self.fault_free_energy_per_packet_pj).max(0.0);
        excess * self.packets_delivered as f64
    }

    /// Whether the run degraded at all (lost connectivity or dropped flits).
    pub fn is_degraded(&self) -> bool {
        self.reachability < 1.0 || self.flits_dropped > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_add_dynamic_and_static() {
        let r = PowerReport {
            per_router_mw: vec![1.0, 2.0, 3.0],
            dynamic_mw: 4.0,
            static_mw: 2.0,
        };
        assert_eq!(r.total_mw(), 6.0);
        assert_eq!(r.peak_router_mw(), 3.0);
        assert_eq!(r.mean_router_mw(), 2.0);
    }

    #[test]
    fn empty_report_is_zero() {
        let r = PowerReport::new();
        assert_eq!(r.total_mw(), 0.0);
        assert_eq!(r.peak_router_mw(), 0.0);
        assert_eq!(r.mean_router_mw(), 0.0);
    }

    #[test]
    fn degraded_mode_report_derives_inflation_and_rerouting_energy() {
        let r = DegradedModeReport {
            reachability: 0.875,
            packets_delivered: 1_000,
            flits_dropped: 42,
            avg_latency_cycles: 30.0,
            fault_free_latency_cycles: 20.0,
            energy_per_packet_pj: 5.5,
            fault_free_energy_per_packet_pj: 5.0,
        };
        assert!((r.latency_inflation() - 1.5).abs() < 1e-12);
        assert!((r.rerouting_energy_pj() - 500.0).abs() < 1e-9);
        assert!(r.is_degraded());
        // A pristine run: no inflation reference, nothing degraded.
        let whole = DegradedModeReport {
            reachability: 1.0,
            packets_delivered: 10,
            energy_per_packet_pj: 4.0,
            fault_free_energy_per_packet_pj: 5.0,
            ..Default::default()
        };
        assert_eq!(whole.latency_inflation(), 1.0);
        assert_eq!(whole.rerouting_energy_pj(), 0.0, "cheaper-than-reference clamps to zero");
        assert!(!whole.is_degraded());
    }

    #[test]
    fn residency_tracks_time_weighted_averages_and_levels() {
        let mut r = FrequencyResidency::new();
        assert_eq!(r.avg_frequency_ghz(), 0.0);
        assert_eq!(r.avg_vdd(), 0.0);
        assert_eq!(r.avg_power_mw(), 0.0);
        let e = EnergyBreakdown { dynamic_pj: 100.0, static_pj: 50.0 };
        r.record(Hertz::from_ghz(1.0), Volts::new(0.9), 1.0e6, e);
        r.record(Hertz::from_ghz(1.0), Volts::new(0.9), 1.0e6, e);
        r.record(Hertz::from_mhz(500.0), Volts::new(0.7), 2.0e6, e);
        // 2 ns at 1 GHz + 2 ns at 0.5 GHz → 0.75 GHz average.
        assert!((r.avg_frequency_ghz() - 0.75).abs() < 1e-12);
        assert!((r.avg_vdd() - 0.8).abs() < 1e-12);
        // Repeated levels merge; order is first-visit.
        assert_eq!(r.levels().len(), 2);
        assert!((r.share_at(Hertz::from_ghz(1.0)) - 0.5).abs() < 1e-12);
        assert!((r.share_at(Hertz::from_mhz(500.0)) - 0.5).abs() < 1e-12);
        assert_eq!(r.share_at(Hertz::from_mhz(333.0)), 0.0);
        // 450 pJ over 4000 ns = 0.1125 mW.
        assert!((r.avg_power_mw() - 0.1125).abs() < 1e-12);
    }

    #[test]
    fn residency_bins_coalesce_continuous_controller_outputs() {
        // A PI controller emits a slightly different frequency every
        // interval; outputs within one 10 MHz bin must merge into a single
        // level (with a time-weighted vdd), while a clearly different
        // frequency opens a new one.
        let mut r = FrequencyResidency::new();
        let e = EnergyBreakdown::default();
        r.record(Hertz::new(600.0e6), Volts::new(0.70), 1.0e6, e);
        r.record(Hertz::new(602.0e6), Volts::new(0.72), 1.0e6, e);
        r.record(Hertz::new(598.5e6), Volts::new(0.70), 2.0e6, e);
        r.record(Hertz::new(612.0e6), Volts::new(0.74), 1.0e6, e);
        assert_eq!(r.levels().len(), 2, "600/602/598.5 MHz share a bin; 612 MHz does not");
        assert!((r.share_at(Hertz::new(601.0e6)) - 0.8).abs() < 1e-12);
        assert!((r.share_at(Hertz::new(612.0e6)) - 0.2).abs() < 1e-12);
        // Level vdd is the time-weighted mean of its merged intervals.
        let level = r.levels()[0];
        assert_eq!(level.frequency_hz, 600.0e6, "representative is first-seen");
        assert!((level.vdd - (0.70 + 0.72 + 2.0 * 0.70) / 4.0).abs() < 1e-12);
        // The exact time-weighted aggregate is unaffected by binning.
        let exact = (600.0e6 + 602.0e6 + 2.0 * 598.5e6 + 612.0e6) / 5.0 / 1.0e9;
        assert!((r.avg_frequency_ghz() - exact).abs() < 1e-12);
    }
}
