//! Activity-driven router/link power model.
//!
//! The model mirrors what the paper obtains from gate-level power estimation
//! driven by Booksim activity traces:
//!
//! * every switching event recorded by the simulator (buffer write/read,
//!   crossbar traversal, allocation, link traversal, ejection) costs a fixed
//!   energy at the nominal corner, scaled by `(Vdd/V₀)²` when the voltage is
//!   lowered;
//! * the clock tree burns dynamic power proportional to `f · Vdd²` whether or
//!   not flits are moving (this is what makes DVFS worthwhile at low load);
//! * leakage scales super-linearly with the supply voltage (`(Vdd/V₀)³`),
//!   which is characteristic of FDSOI bodies at low voltage.
//!
//! The default constants are calibrated so that the paper-baseline 5×5 mesh
//! reproduces the absolute range of Fig. 6 (≈60 mW idle → ≈230 mW at a 0.4
//! injection rate, no DVFS); see `DESIGN.md` for the derivation.

use crate::report::PowerReport;
use crate::tech::Volts;
use noc_sim::{Hertz, NetworkActivity, RouterActivity};

/// Energy-per-event and static-power constants at the nominal corner
/// (1 GHz, 0.90 V).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerParams {
    /// Energy of one flit write into an input buffer, picojoules.
    pub buffer_write_pj: f64,
    /// Energy of one flit read from an input buffer, picojoules.
    pub buffer_read_pj: f64,
    /// Energy of one flit crossing the crossbar, picojoules.
    pub crossbar_pj: f64,
    /// Energy of one virtual-channel allocation (per packet), picojoules.
    pub vc_alloc_pj: f64,
    /// Energy of one switch-allocation grant (per flit), picojoules.
    pub sw_alloc_pj: f64,
    /// Energy of one flit traversing an inter-router link, picojoules.
    pub link_pj: f64,
    /// Energy of one flit delivered to the local node, picojoules.
    pub eject_pj: f64,
    /// Clock-tree (plus idle pipeline) power of one router at the nominal
    /// corner, milliwatts.
    pub clock_tree_mw: f64,
    /// Leakage power of one router (and its link drivers) at the nominal
    /// voltage, milliwatts.
    pub leakage_mw: f64,
    /// Nominal supply voltage the energies are referenced to, volts.
    pub nominal_vdd: f64,
    /// Nominal clock frequency the clock-tree power is referenced to, hertz.
    pub nominal_frequency_hz: f64,
    /// Exponent of the leakage-vs-voltage dependence.
    pub leakage_voltage_exponent: f64,
    /// Fraction of the active leakage a **power-gated** router still burns
    /// (retention cells, always-on wakeup logic, sleep-transistor leakage).
    pub gated_leakage_fraction: f64,
    /// Energy of one sleep (power-down) transition at the nominal voltage,
    /// picojoules (drain/isolation sequencing, state retention).
    pub sleep_transition_pj: f64,
    /// Energy of one wake (power-up) transition at the nominal voltage,
    /// picojoules (virtual-rail recharge — the dominant transition cost).
    pub wake_transition_pj: f64,
}

impl PowerParams {
    /// The calibration used throughout the reproduction (see module docs).
    pub fn calibrated_28nm() -> Self {
        PowerParams {
            buffer_write_pj: 1.1,
            buffer_read_pj: 0.9,
            crossbar_pj: 1.2,
            vc_alloc_pj: 0.5,
            sw_alloc_pj: 0.15,
            link_pj: 0.9,
            eject_pj: 0.4,
            clock_tree_mw: 1.8,
            leakage_mw: 0.6,
            nominal_vdd: 0.90,
            nominal_frequency_hz: 1.0e9,
            leakage_voltage_exponent: 3.0,
            gated_leakage_fraction: 0.08,
            sleep_transition_pj: 20.0,
            wake_transition_pj: 40.0,
        }
    }
}

impl Default for PowerParams {
    fn default() -> Self {
        PowerParams::calibrated_28nm()
    }
}

/// Energy consumed over one observation interval, split into dynamic and
/// static components (picojoules).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EnergyBreakdown {
    /// Switching + clock-tree energy, picojoules.
    pub dynamic_pj: f64,
    /// Leakage energy, picojoules.
    pub static_pj: f64,
}

impl EnergyBreakdown {
    /// Total energy in picojoules.
    pub fn total_pj(&self) -> f64 {
        self.dynamic_pj + self.static_pj
    }
}

impl std::ops::Add for EnergyBreakdown {
    type Output = EnergyBreakdown;
    fn add(self, rhs: EnergyBreakdown) -> EnergyBreakdown {
        EnergyBreakdown {
            dynamic_pj: self.dynamic_pj + rhs.dynamic_pj,
            static_pj: self.static_pj + rhs.static_pj,
        }
    }
}

impl std::ops::AddAssign for EnergyBreakdown {
    fn add_assign(&mut self, rhs: EnergyBreakdown) {
        *self = *self + rhs;
    }
}

/// Converts simulated switching activity into energy and power at a given
/// `(frequency, Vdd)` operating point.
#[derive(Debug, Clone, PartialEq)]
pub struct RouterPowerModel {
    params: PowerParams,
}

impl RouterPowerModel {
    /// Creates the model with the calibrated 28-nm constants.
    pub fn new() -> Self {
        RouterPowerModel { params: PowerParams::calibrated_28nm() }
    }

    /// Creates the model with caller-provided constants (for ablations).
    pub fn with_params(params: PowerParams) -> Self {
        RouterPowerModel { params }
    }

    /// The constants in use.
    pub fn params(&self) -> &PowerParams {
        &self.params
    }

    /// Energy consumed by one router over an interval of `duration_ps`
    /// picoseconds during which it ran at (`frequency`, `vdd`) and produced
    /// `activity`.
    ///
    /// Power gating enters through the activity record: the fraction
    /// `gated_cycles / cycles` of the interval contributes no clock-tree
    /// energy and only [`PowerParams::gated_leakage_fraction`] of the
    /// leakage, while every sleep/wake transition costs its
    /// [`PowerParams::sleep_transition_pj`] /
    /// [`PowerParams::wake_transition_pj`] (voltage-scaled like any
    /// switching event). With no gated residency and no transitions the
    /// result is bit-identical to the ungated model.
    pub fn router_energy(
        &self,
        activity: &RouterActivity,
        frequency: Hertz,
        vdd: Volts,
        duration_ps: f64,
    ) -> EnergyBreakdown {
        assert!(duration_ps >= 0.0 && duration_ps.is_finite(), "interval must be non-negative");
        let p = &self.params;
        let v_ratio = vdd.as_volts() / p.nominal_vdd;
        let v2 = v_ratio * v_ratio;
        let duration_ns = duration_ps / 1.0e3;

        let event_pj = activity.buffer_writes as f64 * p.buffer_write_pj
            + activity.buffer_reads as f64 * p.buffer_read_pj
            + activity.crossbar_traversals as f64 * p.crossbar_pj
            + activity.vc_allocations as f64 * p.vc_alloc_pj
            + activity.switch_allocations as f64 * p.sw_alloc_pj
            + activity.link_flits as f64 * p.link_pj
            + activity.ejected_flits as f64 * p.eject_pj;

        // Split the interval into powered and gated time by the activity
        // record's cycle counters. The `gated_ns == 0` path keeps
        // `active_ns == duration_ns` exactly (and adds exact zeros below),
        // so an ungated record prices bit-identically to the historical
        // model — pinned by the golden-figure tests.
        let (active_ns, gated_ns) = if activity.gated_cycles > 0 && activity.cycles > 0 {
            let gated_ns =
                duration_ns * (activity.gated_cycles as f64 / activity.cycles as f64);
            (duration_ns - gated_ns, gated_ns)
        } else {
            (duration_ns, 0.0)
        };

        // Clock-tree power scales with f·V²; expressed as energy over the
        // powered part of the interval (mW · ns = pJ) — the clock is off
        // while the router is gated.
        let f_ratio = frequency.as_hz() / p.nominal_frequency_hz;
        let clock_pj = p.clock_tree_mw * f_ratio * v2 * active_ns;

        let leak_pj = p.leakage_mw
            * v_ratio.powf(p.leakage_voltage_exponent)
            * (active_ns + gated_ns * p.gated_leakage_fraction);

        let transition_pj = activity.sleep_events as f64 * p.sleep_transition_pj
            + activity.wake_events as f64 * p.wake_transition_pj;

        EnergyBreakdown {
            dynamic_pj: event_pj * v2 + clock_pj + transition_pj * v2,
            static_pj: leak_pj,
        }
    }

    /// Power saved while one router is gated at (`frequency`, `vdd`),
    /// milliwatts: the clock-tree power plus the non-retained share of the
    /// leakage.
    pub fn gated_saving_mw(&self, frequency: Hertz, vdd: Volts) -> f64 {
        let p = &self.params;
        let v_ratio = vdd.as_volts() / p.nominal_vdd;
        let v2 = v_ratio * v_ratio;
        let f_ratio = frequency.as_hz() / p.nominal_frequency_hz;
        p.clock_tree_mw * f_ratio * v2
            + p.leakage_mw
                * v_ratio.powf(p.leakage_voltage_exponent)
                * (1.0 - p.gated_leakage_fraction)
    }

    /// Energy of `sleep_events` power-downs plus `wake_events` power-ups at
    /// `vdd`, picojoules.
    pub fn transition_energy_pj(&self, sleep_events: u64, wake_events: u64, vdd: Volts) -> f64 {
        let p = &self.params;
        let v_ratio = vdd.as_volts() / p.nominal_vdd;
        (sleep_events as f64 * p.sleep_transition_pj + wake_events as f64 * p.wake_transition_pj)
            * (v_ratio * v_ratio)
    }

    /// The gating **break-even time** at (`frequency`, `vdd`), picoseconds:
    /// how long a router must stay gated for the clock + leakage saving to
    /// repay one full sleep + wake transition pair. A gating policy should
    /// only power a router down when it expects the idle period to exceed
    /// this (the classic timeout policy *waits* this long before sleeping,
    /// which is 2-competitive with the offline optimum).
    pub fn break_even_ps(&self, frequency: Hertz, vdd: Volts) -> f64 {
        let saved_mw = self.gated_saving_mw(frequency, vdd);
        if saved_mw <= 0.0 {
            return f64::INFINITY;
        }
        self.transition_energy_pj(1, 1, vdd) / saved_mw * 1.0e3
    }

    /// Average power (milliwatts) of one router over the interval.
    pub fn router_power_mw(
        &self,
        activity: &RouterActivity,
        frequency: Hertz,
        vdd: Volts,
        duration_ps: f64,
    ) -> f64 {
        assert!(duration_ps > 0.0, "power needs a positive interval");
        self.router_energy(activity, frequency, vdd, duration_ps).total_pj() / (duration_ps / 1.0e3)
    }

    /// The one energy fold behind [`network_energy`](Self::network_energy)
    /// and [`partition_energy`](Self::partition_energy): sums the energy of `routers`,
    /// all at (`frequency`, `vdd`) over `duration_ps`, in iteration order.
    ///
    /// Idle routers take a fast path: their switching-event energy is exactly
    /// zero, so their contribution is the clock-tree + leakage energy, which
    /// depends only on `(frequency, vdd, duration_ps)` and is computed once
    /// per call. For a drained network between measurement windows (a light
    /// DVFS sweep's common case) the per-interval cost collapses from one
    /// full energy evaluation per router to one total. The per-router value
    /// is the same `f64` either way, so the result is bit-identical to the
    /// naive loop over the same routers.
    fn fold_energy<'a>(
        &self,
        routers: impl Iterator<Item = &'a RouterActivity>,
        frequency: Hertz,
        vdd: Volts,
        duration_ps: f64,
    ) -> EnergyBreakdown {
        let idle = self.router_energy(&RouterActivity::new(), frequency, vdd, duration_ps);
        routers
            .map(|r| {
                if r.is_idle() {
                    idle
                } else {
                    self.router_energy(r, frequency, vdd, duration_ps)
                }
            })
            .fold(EnergyBreakdown::default(), |acc, e| acc + e)
    }

    /// Energy consumed by the whole NoC over an interval: every router, in
    /// ascending node order, with the idle-router fast path (bit-identical
    /// to summing [`router_energy`](Self::router_energy) over the routers).
    pub fn network_energy(
        &self,
        activity: &NetworkActivity,
        frequency: Hertz,
        vdd: Volts,
        duration_ps: f64,
    ) -> EnergyBreakdown {
        self.fold_energy(activity.routers.iter(), frequency, vdd, duration_ps)
    }

    /// Energy consumed by the routers of **one part of a node partition**
    /// over an interval during which that part ran at (`frequency`, `vdd`):
    /// a voltage-frequency island, or a tenant slot.
    ///
    /// `part_of` assigns each router (by node id) to a part, exactly as
    /// [`RegionMap::assignments`](noc_sim::RegionMap::assignments) or
    /// [`TenantMap::assignments`](noc_sim::TenantMap::assignments) reports
    /// it (slot `tenant_count` being the background slot for unmapped
    /// nodes); only the routers of `part` contribute. It is the fold of
    /// [`network_energy`](Self::network_energy) restricted to those routers
    /// — same fast path, same per-router `f64`, ascending node order — so
    /// summing over every part partitions the network's energy without
    /// overlap, and the one-part partition reproduces it bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if `part_of` is shorter than the activity record.
    pub fn partition_energy(
        &self,
        activity: &NetworkActivity,
        part_of: &[u32],
        part: u32,
        frequency: Hertz,
        vdd: Volts,
        duration_ps: f64,
    ) -> EnergyBreakdown {
        assert!(
            part_of.len() >= activity.routers.len(),
            "the node assignment must cover every router"
        );
        let members =
            activity.routers.iter().zip(part_of).filter(|(_, &p)| p == part).map(|(r, _)| r);
        self.fold_energy(members, frequency, vdd, duration_ps)
    }

    /// Average power of the whole NoC over an interval, with a per-router
    /// breakdown.
    pub fn network_power(
        &self,
        activity: &NetworkActivity,
        frequency: Hertz,
        vdd: Volts,
        duration_ps: f64,
    ) -> PowerReport {
        assert!(duration_ps > 0.0, "power needs a positive interval");
        let duration_ns = duration_ps / 1.0e3;
        let idle = self.router_energy(&RouterActivity::new(), frequency, vdd, duration_ps);
        let mut report = PowerReport::new();
        for router in &activity.routers {
            let e = if router.is_idle() {
                idle
            } else {
                self.router_energy(router, frequency, vdd, duration_ps)
            };
            report.per_router_mw.push(e.total_pj() / duration_ns);
            report.dynamic_mw += e.dynamic_pj / duration_ns;
            report.static_mw += e.static_pj / duration_ns;
        }
        report
    }
}

impl Default for RouterPowerModel {
    fn default() -> Self {
        RouterPowerModel::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tech::FdsoiTech;

    fn busy_activity(cycles: u64, flits: u64) -> RouterActivity {
        RouterActivity {
            buffer_writes: flits,
            buffer_reads: flits,
            crossbar_traversals: flits,
            vc_allocations: flits / 20,
            switch_allocations: flits,
            link_flits: flits,
            ejected_flits: 0,
            cycles,
            ..RouterActivity::new()
        }
    }

    #[test]
    fn idle_fast_path_is_bit_identical_to_the_naive_fold() {
        let model = RouterPowerModel::new();
        let tech = FdsoiTech::new();
        let f = Hertz::from_mhz(600.0);
        let vdd = tech.vdd_for_frequency(f);
        let duration_ps = 2.5e6;
        // Mostly idle network with one busy router: the shape the fast path
        // targets (a drained network between measurement windows).
        let mut net = NetworkActivity::new(5);
        net.routers[2] = busy_activity(1_000, 321);
        let fast = model.network_energy(&net, f, vdd, duration_ps);
        let naive = net
            .routers
            .iter()
            .map(|r| model.router_energy(r, f, vdd, duration_ps))
            .fold(EnergyBreakdown::default(), |acc, e| acc + e);
        assert_eq!(fast.dynamic_pj.to_bits(), naive.dynamic_pj.to_bits());
        assert_eq!(fast.static_pj.to_bits(), naive.static_pj.to_bits());
    }

    #[test]
    fn island_energy_partitions_the_network_fold() {
        let model = RouterPowerModel::new();
        let f = Hertz::from_ghz(1.0);
        let vdd = Volts::new(0.9);
        let duration_ps = 1.0e6;
        let mut net = NetworkActivity::new(6);
        net.routers[1] = busy_activity(1_000, 200);
        net.routers[4] = busy_activity(1_000, 900);
        let island_of = [0u32, 0, 1, 1, 1, 0];
        let a = model.partition_energy(&net, &island_of, 0, f, vdd, duration_ps);
        let b = model.partition_energy(&net, &island_of, 1, f, vdd, duration_ps);
        let whole = model.network_energy(&net, f, vdd, duration_ps);
        // Same per-router f64 contributions, partitioned without overlap.
        assert!((a.total_pj() + b.total_pj() - whole.total_pj()).abs() < 1e-9);
        assert!(b.dynamic_pj > a.dynamic_pj, "island 1 holds the busiest router");
        // The single-island partition is bit-identical to the network fold.
        let single = model.partition_energy(&net, &[0; 6], 0, f, vdd, duration_ps);
        assert_eq!(single.dynamic_pj.to_bits(), whole.dynamic_pj.to_bits());
        assert_eq!(single.static_pj.to_bits(), whole.static_pj.to_bits());
    }

    #[test]
    fn tenant_energy_partitions_the_network_fold() {
        let model = RouterPowerModel::new();
        let f = Hertz::from_ghz(1.0);
        let vdd = Volts::new(0.9);
        let duration_ps = 1.0e6;
        let mut net = NetworkActivity::new(6);
        net.routers[0] = busy_activity(1_000, 450);
        net.routers[5] = busy_activity(1_000, 120);
        // Two tenants plus the background slot (2) for unmapped nodes.
        let slot_of = [0u32, 2, 1, 1, 2, 0];
        let per_slot: f64 = (0..3)
            .map(|s| model.partition_energy(&net, &slot_of, s, f, vdd, duration_ps).total_pj())
            .sum();
        let whole = model.network_energy(&net, f, vdd, duration_ps);
        assert!((per_slot - whole.total_pj()).abs() < 1e-9);
        // Single-slot partition is bit-identical to the network fold.
        let single = model.partition_energy(&net, &[0; 6], 0, f, vdd, duration_ps);
        assert_eq!(single.dynamic_pj.to_bits(), whole.dynamic_pj.to_bits());
        assert_eq!(single.static_pj.to_bits(), whole.static_pj.to_bits());
    }

    #[test]
    #[should_panic(expected = "cover every router")]
    fn tenant_energy_rejects_short_assignments() {
        let model = RouterPowerModel::new();
        let net = NetworkActivity::new(4);
        let tenant_slot_of = [0u32, 0];
        let _ = model.partition_energy(
            &net,
            &tenant_slot_of,
            0,
            Hertz::from_ghz(1.0),
            Volts::new(0.9),
            1.0e6,
        );
    }

    #[test]
    #[should_panic(expected = "cover every router")]
    fn island_energy_rejects_short_assignments() {
        let model = RouterPowerModel::new();
        let net = NetworkActivity::new(4);
        let island_of = [0u32, 0];
        let _ = model.partition_energy(
            &net,
            &island_of,
            0,
            Hertz::from_ghz(1.0),
            Volts::new(0.9),
            1.0e6,
        );
    }

    #[test]
    fn idle_router_consumes_only_clock_and_leakage() {
        let model = RouterPowerModel::new();
        let idle = RouterActivity { cycles: 1_000, ..RouterActivity::new() };
        let p = model.router_power_mw(&idle, Hertz::from_ghz(1.0), Volts::new(0.9), 1.0e6);
        let expected = model.params().clock_tree_mw + model.params().leakage_mw;
        assert!((p - expected).abs() < 1e-9, "idle power {p} should equal clock + leakage");
    }

    #[test]
    fn power_scales_with_activity() {
        let model = RouterPowerModel::new();
        let duration_ps = 1.0e6;
        let low = model.router_power_mw(
            &busy_activity(1_000, 100),
            Hertz::from_ghz(1.0),
            Volts::new(0.9),
            duration_ps,
        );
        let high = model.router_power_mw(
            &busy_activity(1_000, 1_000),
            Hertz::from_ghz(1.0),
            Volts::new(0.9),
            duration_ps,
        );
        assert!(high > low);
    }

    #[test]
    fn voltage_scaling_is_quadratic_for_dynamic_energy() {
        let model = RouterPowerModel::new();
        let act = busy_activity(1_000, 1_000);
        let e_nom = model.router_energy(&act, Hertz::from_ghz(1.0), Volts::new(0.9), 1.0e6);
        let e_low = model.router_energy(&act, Hertz::from_ghz(1.0), Volts::new(0.45), 1.0e6);
        // Event energy at half the voltage is a quarter; the clock term also
        // scales by V² (frequency held constant here).
        assert!((e_low.dynamic_pj / e_nom.dynamic_pj - 0.25).abs() < 1e-9);
        // Leakage drops faster than quadratically.
        assert!(e_low.static_pj / e_nom.static_pj < 0.25);
    }

    #[test]
    fn slower_clock_reduces_clock_tree_energy_per_second_but_not_event_energy() {
        let model = RouterPowerModel::new();
        let act = busy_activity(1_000, 1_000);
        // Same activity and same *wall time*, lower frequency and voltage:
        let op_hi = (Hertz::from_ghz(1.0), Volts::new(0.9));
        let op_lo = (Hertz::from_mhz(333.0), Volts::new(0.56));
        let e_hi = model.router_energy(&act, op_hi.0, op_hi.1, 1.0e6);
        let e_lo = model.router_energy(&act, op_lo.0, op_lo.1, 1.0e6);
        assert!(
            e_lo.total_pj() < 0.55 * e_hi.total_pj(),
            "DVFS should cut energy by more than the voltage ratio alone"
        );
    }

    #[test]
    fn network_power_sums_router_power() {
        let model = RouterPowerModel::new();
        let mut net = NetworkActivity::new(4);
        for r in &mut net.routers {
            *r = busy_activity(1_000, 500);
        }
        let f = Hertz::from_ghz(1.0);
        let v = Volts::new(0.9);
        let report = model.network_power(&net, f, v, 1.0e6);
        let single = model.router_power_mw(&net.routers[0], f, v, 1.0e6);
        assert_eq!(report.per_router_mw.len(), 4);
        assert!((report.total_mw() - 4.0 * single).abs() < 1e-9);
    }

    #[test]
    fn energy_and_power_are_consistent() {
        let model = RouterPowerModel::new();
        let act = busy_activity(10_000, 3_000);
        let duration_ps = 5.0e6;
        let e = model.router_energy(&act, Hertz::from_mhz(700.0), Volts::new(0.75), duration_ps);
        let p = model.router_power_mw(&act, Hertz::from_mhz(700.0), Volts::new(0.75), duration_ps);
        assert!((p - e.total_pj() / (duration_ps / 1.0e3)).abs() < 1e-9);
    }

    #[test]
    fn baseline_mesh_idle_power_lands_near_sixty_milliwatts() {
        // 25 routers with no traffic at the nominal corner: the calibration
        // targets the bottom of Fig. 6 (~60 mW).
        let model = RouterPowerModel::new();
        let mut net = NetworkActivity::new(25);
        for r in &mut net.routers {
            r.cycles = 10_000;
        }
        let report =
            model.network_power(&net, Hertz::from_ghz(1.0), Volts::new(0.9), 10_000.0 * 1_000.0);
        assert!(
            report.total_mw() > 40.0 && report.total_mw() < 80.0,
            "idle 5x5 power {} mW outside the expected band",
            report.total_mw()
        );
    }

    #[test]
    fn dvfs_at_low_voltage_saves_at_least_2x_on_an_idle_mesh() {
        let model = RouterPowerModel::new();
        let tech = FdsoiTech::new();
        let mut net = NetworkActivity::new(25);
        for r in &mut net.routers {
            r.cycles = 10_000;
        }
        let hi = model.network_power(&net, Hertz::from_ghz(1.0), Volts::new(0.9), 1.0e7);
        let f_lo = Hertz::from_mhz(333.0);
        let lo = model.network_power(&net, f_lo, tech.vdd_for_frequency(f_lo), 1.0e7);
        assert!(hi.total_mw() / lo.total_mw() > 2.0);
    }

    #[test]
    fn gated_residency_cuts_clock_and_leakage_energy() {
        let model = RouterPowerModel::new();
        let f = Hertz::from_ghz(1.0);
        let vdd = Volts::new(0.9);
        let duration_ps = 1.0e7; // 10 µs
        let idle = RouterActivity { cycles: 10_000, ..RouterActivity::new() };
        let gated = RouterActivity { cycles: 10_000, gated_cycles: 10_000, ..RouterActivity::new() };
        let e_idle = model.router_energy(&idle, f, vdd, duration_ps);
        let e_gated = model.router_energy(&gated, f, vdd, duration_ps);
        // Fully gated: no clock-tree energy, only retained leakage.
        assert_eq!(e_gated.dynamic_pj, 0.0);
        let frac = model.params().gated_leakage_fraction;
        assert!((e_gated.static_pj / e_idle.static_pj - frac).abs() < 1e-12);
        // Half gated sits strictly between.
        let half = RouterActivity { cycles: 10_000, gated_cycles: 5_000, ..RouterActivity::new() };
        let e_half = model.router_energy(&half, f, vdd, duration_ps);
        assert!(e_half.total_pj() < e_idle.total_pj());
        assert!(e_half.total_pj() > e_gated.total_pj());
    }

    #[test]
    fn transition_events_cost_voltage_scaled_energy() {
        let model = RouterPowerModel::new();
        let f = Hertz::from_ghz(1.0);
        let act = RouterActivity { cycles: 1_000, sleep_events: 3, wake_events: 2, ..RouterActivity::new() };
        let base = RouterActivity { cycles: 1_000, ..RouterActivity::new() };
        let vdd = Volts::new(0.9);
        let delta = model.router_energy(&act, f, vdd, 1.0e6).dynamic_pj
            - model.router_energy(&base, f, vdd, 1.0e6).dynamic_pj;
        let p = model.params();
        assert!((delta - (3.0 * p.sleep_transition_pj + 2.0 * p.wake_transition_pj)).abs() < 1e-9);
        assert!((delta - model.transition_energy_pj(3, 2, vdd)).abs() < 1e-9);
        // At half the voltage the transition energy quarters.
        let low = model.transition_energy_pj(3, 2, Volts::new(0.45));
        assert!((low / model.transition_energy_pj(3, 2, vdd) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn ungated_records_price_bit_identically_to_the_historical_model() {
        // The gating-aware energy path must collapse to the exact historical
        // arithmetic when no gating fields are set: same products, same
        // association, exact zero additions.
        let model = RouterPowerModel::new();
        let act = busy_activity(10_000, 1_234);
        let f = Hertz::from_mhz(700.0);
        let vdd = Volts::new(0.75);
        let duration_ps = 5.0e6;
        let e = model.router_energy(&act, f, vdd, duration_ps);
        let p = model.params();
        let v_ratio = vdd.as_volts() / p.nominal_vdd;
        let v2 = v_ratio * v_ratio;
        let duration_ns = duration_ps / 1.0e3;
        let event_pj = act.buffer_writes as f64 * p.buffer_write_pj
            + act.buffer_reads as f64 * p.buffer_read_pj
            + act.crossbar_traversals as f64 * p.crossbar_pj
            + act.vc_allocations as f64 * p.vc_alloc_pj
            + act.switch_allocations as f64 * p.sw_alloc_pj
            + act.link_flits as f64 * p.link_pj
            + act.ejected_flits as f64 * p.eject_pj;
        let f_ratio = f.as_hz() / p.nominal_frequency_hz;
        let clock_pj = p.clock_tree_mw * f_ratio * v2 * duration_ns;
        let leak_pj = p.leakage_mw * v_ratio.powf(p.leakage_voltage_exponent) * duration_ns;
        assert_eq!(e.dynamic_pj.to_bits(), (event_pj * v2 + clock_pj).to_bits());
        assert_eq!(e.static_pj.to_bits(), leak_pj.to_bits());
    }

    #[test]
    fn break_even_time_repays_one_transition_pair() {
        let model = RouterPowerModel::new();
        let f = Hertz::from_ghz(1.0);
        let vdd = Volts::new(0.9);
        let be_ps = model.break_even_ps(f, vdd);
        assert!(be_ps > 0.0 && be_ps.is_finite());
        // Staying gated exactly the break-even time saves exactly the
        // transition energy.
        let saved = model.gated_saving_mw(f, vdd) * (be_ps / 1.0e3);
        assert!((saved - model.transition_energy_pj(1, 1, vdd)).abs() < 1e-9);
        // At the nominal corner the calibration lands in the tens of
        // nanoseconds — tens of cycles at 1 GHz, a plausible hardware scale.
        assert!(be_ps > 5.0e3 && be_ps < 2.0e5, "break-even {be_ps} ps out of range");
        // Slower, lower-voltage corners save less per nanosecond, so the
        // break-even time stretches.
        let lo = Hertz::from_mhz(333.0);
        assert!(model.break_even_ps(lo, Volts::new(0.56)) > be_ps);
    }

    #[test]
    #[should_panic(expected = "positive interval")]
    fn zero_interval_power_panics() {
        let model = RouterPowerModel::new();
        let _ = model.router_power_mw(
            &RouterActivity::new(),
            Hertz::from_ghz(1.0),
            Volts::new(0.9),
            0.0,
        );
    }
}
