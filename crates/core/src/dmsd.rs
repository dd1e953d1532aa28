//! DMSD — Delay-based Max Slow Down (Sec. IV of the paper).
//!
//! The receiving nodes timestamp packets and periodically report the average
//! end-to-end delay to the controller node. The controller computes the error
//! between the measured delay and a target delay and feeds it to a
//! proportional-integral loop whose output selects the NoC clock frequency:
//! when the delay exceeds the target the loop raises the frequency, when it
//! is comfortably below the target the loop lowers frequency (and voltage) to
//! save power.
//!
//! The paper uses gains `K_I = 0.025`, `K_P = 0.0125` and a control update
//! period of 10 000 cycles at the highest frequency. The published gains act
//! on the paper's (unstated) normalisation; here the error is normalised by
//! the target delay and the PI output is the frequency expressed as a
//! fraction of `F_max`, which makes the same gain values a good
//! stability/reactivity compromise (the ablation benches explore the
//! neighbourhood).

use crate::pi::PiController;
use crate::policy::{ControlMeasurement, DvfsPolicy};
use noc_sim::{Hertz, NetworkConfig};

/// Parameters of the DMSD policy.
#[derive(Debug, Clone, PartialEq)]
pub struct DmsdConfig {
    /// The delay target the PI loop tracks, in nanoseconds (150 ns in the
    /// paper's Fig. 4).
    pub target_delay_ns: f64,
    /// Integral gain (paper: 0.025).
    pub ki: f64,
    /// Proportional gain (paper: 0.0125).
    pub kp: f64,
}

impl DmsdConfig {
    /// The integral gain used in the paper.
    pub const PAPER_KI: f64 = 0.025;
    /// The proportional gain used in the paper.
    pub const PAPER_KP: f64 = 0.0125;

    /// Creates a configuration with the paper's PI gains and the given
    /// target delay.
    ///
    /// # Panics
    ///
    /// Panics if the target is not strictly positive and finite.
    pub fn with_target_ns(target_delay_ns: f64) -> Self {
        assert!(
            target_delay_ns.is_finite() && target_delay_ns > 0.0,
            "target delay must be positive"
        );
        DmsdConfig { target_delay_ns, ki: Self::PAPER_KI, kp: Self::PAPER_KP }
    }

    /// Overrides the PI gains (used by the gain-sensitivity ablation).
    ///
    /// # Panics
    ///
    /// Panics if either gain is negative or not finite.
    pub fn gains(mut self, ki: f64, kp: f64) -> Self {
        assert!(ki.is_finite() && ki >= 0.0 && kp.is_finite() && kp >= 0.0);
        self.ki = ki;
        self.kp = kp;
        self
    }
}

/// The Delay-based Max Slow Down controller.
#[derive(Debug, Clone, PartialEq)]
pub struct Dmsd {
    config: DmsdConfig,
    min_frequency: Hertz,
    max_frequency: Hertz,
    pi: PiController,
}

impl Dmsd {
    /// Creates the controller for a network configuration.
    ///
    /// The PI output is the normalised frequency `u = F / F_max`, clamped to
    /// `[F_min/F_max, 1]`; the controller starts at `F_max` so that the first
    /// control intervals are served at full speed while the loop acquires
    /// delay measurements.
    pub fn new(cfg: &NetworkConfig, config: DmsdConfig) -> Self {
        let u_min = cfg.min_frequency().as_hz() / cfg.max_frequency().as_hz();
        let pi = PiController::new(config.ki, config.kp, u_min, 1.0, 1.0);
        Dmsd {
            config,
            min_frequency: cfg.min_frequency(),
            max_frequency: cfg.max_frequency(),
            pi,
        }
    }

    /// The current normalised PI output (`F/F_max`).
    #[cfg(test)]
    pub fn normalized_output(&self) -> f64 {
        self.pi.output()
    }

    fn output_to_frequency(&self, u: f64) -> Hertz {
        Hertz::new(u * self.max_frequency.as_hz())
            .clamp(self.min_frequency, self.max_frequency)
    }
}

impl DvfsPolicy for Dmsd {
    fn name(&self) -> &'static str {
        "DMSD"
    }

    fn next_frequency(&mut self, measurement: &ControlMeasurement) -> Hertz {
        match measurement.avg_delay_ns() {
            Some(delay_ns) => {
                // Positive error (delay above target) must raise the frequency.
                let error = (delay_ns - self.config.target_delay_ns) / self.config.target_delay_ns;
                let u = self.pi.update(error);
                self.output_to_frequency(u)
            }
            // No packet completed in the window (essentially idle network):
            // keep the current actuation; there is nothing to track.
            None => self.output_to_frequency(self.pi.output()),
        }
    }

    fn reset(&mut self) {
        self.pi.reset(1.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_sim::WindowMeasurement;

    fn cfg() -> NetworkConfig {
        NetworkConfig::paper_baseline()
    }

    fn measurement(delay_ns: Option<f64>, f: Hertz) -> ControlMeasurement {
        let packets = 500u64;
        let window = match delay_ns {
            Some(d) => WindowMeasurement {
                noc_cycles: 10_000,
                node_cycles: 10_000,
                packets_ejected: packets,
                delay_ps_sum: d * 1e3 * packets as f64,
                latency_cycles_sum: packets * 60,
                ..Default::default()
            },
            None => WindowMeasurement { noc_cycles: 10_000, node_cycles: 10_000, ..Default::default() },
        };
        ControlMeasurement { window, node_count: 25, current_frequency: f }
    }

    #[test]
    fn delay_below_target_lowers_frequency() {
        let mut dmsd = Dmsd::new(&cfg(), DmsdConfig::with_target_ns(150.0));
        let f0 = cfg().max_frequency();
        let f1 = dmsd.next_frequency(&measurement(Some(60.0), f0));
        assert!(f1 < f0, "delay far below target must slow the NoC down");
    }

    #[test]
    fn delay_above_target_raises_frequency() {
        let mut dmsd = Dmsd::new(&cfg(), DmsdConfig::with_target_ns(150.0));
        // Drive the controller down first.
        for _ in 0..100 {
            dmsd.next_frequency(&measurement(Some(50.0), Hertz::from_mhz(500.0)));
        }
        let low = dmsd.next_frequency(&measurement(Some(50.0), Hertz::from_mhz(500.0)));
        let higher = dmsd.next_frequency(&measurement(Some(400.0), Hertz::from_mhz(500.0)));
        assert!(higher > low);
    }

    #[test]
    fn frequency_stays_inside_the_vco_range() {
        let mut dmsd = Dmsd::new(&cfg(), DmsdConfig::with_target_ns(150.0));
        for _ in 0..500 {
            let f = dmsd.next_frequency(&measurement(Some(10.0), Hertz::from_ghz(1.0)));
            assert!(f >= cfg().min_frequency() && f <= cfg().max_frequency());
        }
        for _ in 0..500 {
            let f = dmsd.next_frequency(&measurement(Some(2_000.0), Hertz::from_ghz(1.0)));
            assert!(f >= cfg().min_frequency() && f <= cfg().max_frequency());
        }
    }

    #[test]
    fn closed_loop_tracks_the_target_on_a_synthetic_plant() {
        // Toy plant: delay = base_latency_cycles / f (cycles fixed, frequency
        // scales the delay), which is exactly the mechanism of the paper.
        let cfg = cfg();
        let mut dmsd = Dmsd::new(&cfg, DmsdConfig::with_target_ns(150.0));
        let base_latency_cycles = 100.0;
        let mut f = cfg.max_frequency();
        for _ in 0..300 {
            let delay_ns = base_latency_cycles / f.as_ghz();
            f = dmsd.next_frequency(&measurement(Some(delay_ns), f));
        }
        let final_delay = base_latency_cycles / f.as_ghz();
        assert!(
            (final_delay - 150.0).abs() < 10.0,
            "PI loop should settle near the 150 ns target, got {final_delay:.1} ns"
        );
    }

    #[test]
    fn missing_measurements_hold_the_frequency() {
        let mut dmsd = Dmsd::new(&cfg(), DmsdConfig::with_target_ns(150.0));
        for _ in 0..50 {
            dmsd.next_frequency(&measurement(Some(40.0), Hertz::from_ghz(1.0)));
        }
        let before = dmsd.next_frequency(&measurement(Some(40.0), Hertz::from_ghz(1.0)));
        let held = dmsd.next_frequency(&measurement(None, before));
        assert_eq!(held, dmsd.next_frequency(&measurement(None, before)));
    }

    #[test]
    fn reset_restores_full_speed() {
        let mut dmsd = Dmsd::new(&cfg(), DmsdConfig::with_target_ns(150.0));
        for _ in 0..100 {
            dmsd.next_frequency(&measurement(Some(30.0), Hertz::from_ghz(1.0)));
        }
        assert!(dmsd.normalized_output() < 1.0);
        dmsd.reset();
        assert_eq!(dmsd.normalized_output(), 1.0);
    }

    #[test]
    fn custom_gains_are_respected() {
        let config = DmsdConfig::with_target_ns(150.0).gains(0.1, 0.05);
        assert_eq!(config.ki, 0.1);
        assert_eq!(config.kp, 0.05);
        let aggressive = Dmsd::new(&cfg(), config);
        let gentle = Dmsd::new(&cfg(), DmsdConfig::with_target_ns(150.0));
        let mut a = aggressive;
        let mut g = gentle;
        let fa = a.next_frequency(&measurement(Some(60.0), Hertz::from_ghz(1.0)));
        let fg = g.next_frequency(&measurement(Some(60.0), Hertz::from_ghz(1.0)));
        assert!(fa < fg, "larger gains move faster for the same error");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn non_positive_target_rejected() {
        let _ = DmsdConfig::with_target_ns(0.0);
    }
}
