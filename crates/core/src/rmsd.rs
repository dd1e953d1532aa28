//! RMSD — Rate-based Max Slow Down (Sec. III of the paper).
//!
//! The transmitting nodes periodically report how many flits they injected;
//! the controller computes the average node injection rate `λ_node` and sets
//!
//! ```text
//! F_noc = F_node · λ_node / λ_max      (Eq. 2)
//! ```
//!
//! clipped to the `[F_min, F_max]` range of the voltage-controlled oscillator.
//! `λ_max` is chosen a safety margin below the network's saturation rate
//! (10 % below in the paper), so that after slowing down the NoC still
//! sustains the offered throughput — but nothing more.

use crate::policy::{ControlMeasurement, DvfsPolicy};
use noc_sim::{Hertz, NetworkConfig};

/// Parameters of the RMSD policy.
#[derive(Debug, Clone, PartialEq)]
pub struct RmsdConfig {
    /// The target per-NoC-cycle injection rate `λ_max` (flits per NoC cycle
    /// per node); usually `0.9 ×` the measured saturation rate.
    pub lambda_max: f64,
    /// Exponential-smoothing factor applied to the measured rate
    /// (`1.0` = use the raw window measurement, smaller values average over
    /// several windows). The paper averages over the reporting interval; a
    /// mild smoothing makes the Bernoulli-noise behaviour comparable.
    pub rate_smoothing: f64,
}

impl RmsdConfig {
    /// Creates a configuration with the given `λ_max` and no smoothing.
    ///
    /// # Panics
    ///
    /// Panics if `lambda_max` is not strictly positive and finite.
    pub fn with_lambda_max(lambda_max: f64) -> Self {
        assert!(lambda_max.is_finite() && lambda_max > 0.0, "lambda_max must be positive");
        RmsdConfig { lambda_max, rate_smoothing: 1.0 }
    }

    /// Sets the exponential smoothing factor (`0 < factor <= 1`).
    ///
    /// # Panics
    ///
    /// Panics if the factor is outside `(0, 1]`.
    pub fn smoothing(mut self, factor: f64) -> Self {
        assert!(factor > 0.0 && factor <= 1.0, "smoothing factor must be in (0, 1]");
        self.rate_smoothing = factor;
        self
    }
}

/// The Rate-based Max Slow Down controller.
#[derive(Debug, Clone, PartialEq)]
pub struct Rmsd {
    config: RmsdConfig,
    node_frequency: Hertz,
    min_frequency: Hertz,
    max_frequency: Hertz,
    smoothed_rate: Option<f64>,
}

impl Rmsd {
    /// Creates the controller for a network configuration.
    pub fn new(cfg: &NetworkConfig, config: RmsdConfig) -> Self {
        Rmsd {
            config,
            node_frequency: cfg.node_frequency(),
            min_frequency: cfg.min_frequency(),
            max_frequency: cfg.max_frequency(),
            smoothed_rate: None,
        }
    }

    /// The `λ_max` target rate in use.
    pub fn lambda_max(&self) -> f64 {
        self.config.lambda_max
    }

    /// The node injection rate below which the frequency clips to `F_min`
    /// (the `λ_min` of the paper: `λ_max · F_min / F_max`).
    #[cfg(test)]
    pub fn lambda_min(&self) -> f64 {
        self.config.lambda_max * self.min_frequency.as_hz() / self.max_frequency.as_hz()
    }

    /// The frequency-scaling law of Eq. (2), before clipping.
    pub fn unclipped_frequency(&self, lambda_node: f64) -> Hertz {
        let hz = self.node_frequency.as_hz() * lambda_node / self.config.lambda_max;
        Hertz::new(hz.max(1.0))
    }
}

impl DvfsPolicy for Rmsd {
    fn name(&self) -> &'static str {
        "RMSD"
    }

    fn next_frequency(&mut self, measurement: &ControlMeasurement) -> Hertz {
        let raw = measurement.node_injection_rate();
        let alpha = self.config.rate_smoothing;
        let rate = match self.smoothed_rate {
            Some(prev) => alpha * raw + (1.0 - alpha) * prev,
            None => raw,
        };
        self.smoothed_rate = Some(rate);
        self.unclipped_frequency(rate).clamp(self.min_frequency, self.max_frequency)
    }

    fn reset(&mut self) {
        self.smoothed_rate = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_sim::WindowMeasurement;

    fn cfg() -> NetworkConfig {
        NetworkConfig::paper_baseline()
    }

    fn measurement(rate: f64) -> ControlMeasurement {
        let node_count = 25;
        let node_cycles = 10_000u64;
        ControlMeasurement {
            window: WindowMeasurement {
                node_cycles,
                noc_cycles: 10_000,
                flits_generated: (rate * node_count as f64 * node_cycles as f64).round() as u64,
                ..Default::default()
            },
            node_count,
            current_frequency: Hertz::from_ghz(1.0),
        }
    }

    #[test]
    fn frequency_follows_eq2_inside_the_range() {
        let mut rmsd = Rmsd::new(&cfg(), RmsdConfig::with_lambda_max(0.378));
        // λ_node = 0.2 → F = 1 GHz · 0.2 / 0.378 ≈ 529 MHz.
        let f = rmsd.next_frequency(&measurement(0.2));
        assert!((f.as_mhz() - 529.1).abs() < 2.0, "got {f}");
    }

    #[test]
    fn frequency_clips_to_fmin_at_low_rate() {
        let mut rmsd = Rmsd::new(&cfg(), RmsdConfig::with_lambda_max(0.378));
        let f = rmsd.next_frequency(&measurement(0.05));
        assert_eq!(f, cfg().min_frequency());
        // λ_min for the paper baseline: 0.378 · 333/1000 ≈ 0.126.
        assert!((rmsd.lambda_min() - 0.1259).abs() < 1e-3);
    }

    #[test]
    fn frequency_clips_to_fmax_at_high_rate() {
        let mut rmsd = Rmsd::new(&cfg(), RmsdConfig::with_lambda_max(0.378));
        let f = rmsd.next_frequency(&measurement(0.45));
        assert_eq!(f, cfg().max_frequency());
    }

    #[test]
    fn at_lambda_max_the_clock_runs_at_node_speed() {
        let mut rmsd = Rmsd::new(&cfg(), RmsdConfig::with_lambda_max(0.378));
        let f = rmsd.next_frequency(&measurement(0.378));
        assert!((f.as_ghz() - 1.0).abs() < 1e-3);
    }

    #[test]
    fn smoothing_averages_consecutive_windows() {
        let mut rmsd =
            Rmsd::new(&cfg(), RmsdConfig::with_lambda_max(0.378).smoothing(0.5));
        let f1 = rmsd.next_frequency(&measurement(0.2));
        // A sudden spike is only partially followed.
        let f2 = rmsd.next_frequency(&measurement(0.36));
        let expected_rate = 0.5 * 0.36 + 0.5 * 0.2;
        let expected = 1.0e9 * expected_rate / 0.378;
        assert!(f2 > f1);
        assert!((f2.as_hz() - expected).abs() / expected < 1e-6);
    }

    #[test]
    fn reset_clears_the_rate_history() {
        let mut rmsd =
            Rmsd::new(&cfg(), RmsdConfig::with_lambda_max(0.378).smoothing(0.25));
        let _ = rmsd.next_frequency(&measurement(0.35));
        rmsd.reset();
        let f = rmsd.next_frequency(&measurement(0.15));
        // After reset the first sample is taken at face value.
        let expected = 1.0e9 * 0.15 / 0.378;
        assert!((f.as_hz() - expected).abs() / expected < 1e-6);
    }

    #[test]
    fn zero_rate_clips_to_fmin_without_panicking() {
        let mut rmsd = Rmsd::new(&cfg(), RmsdConfig::with_lambda_max(0.378));
        let f = rmsd.next_frequency(&measurement(0.0));
        assert_eq!(f, cfg().min_frequency());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn non_positive_lambda_max_rejected() {
        let _ = RmsdConfig::with_lambda_max(0.0);
    }

    #[test]
    #[should_panic(expected = "smoothing factor")]
    fn invalid_smoothing_rejected() {
        let _ = RmsdConfig::with_lambda_max(0.3).smoothing(0.0);
    }
}
