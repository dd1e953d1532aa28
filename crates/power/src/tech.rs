//! 28-nm FDSOI technology model: maximum frequency vs. supply voltage.
//!
//! The paper extracts the router's maximum clock frequency as a function of
//! Vdd from transistor-level simulation of the synthesized netlist (Fig. 5):
//! the curve runs from roughly 333 MHz at 0.56 V to 1 GHz at 0.90 V. We model
//! the same relationship with the classic alpha-power delay law
//! `F_max(V) = k · (V − V_t)^α / V`, calibrated on the two published
//! endpoints; the resulting velocity-saturation exponent (α ≈ 1.63) is in the
//! usual range for a 28-nm low-power process.

use noc_sim::Hertz;
use std::fmt;

/// A supply voltage in volts.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Volts(f64);

impl Volts {
    /// Creates a voltage.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not finite or not strictly positive.
    pub fn new(v: f64) -> Self {
        assert!(v.is_finite() && v > 0.0, "voltage must be positive and finite");
        Volts(v)
    }

    /// Returns the raw value in volts.
    pub fn as_volts(self) -> f64 {
        self.0
    }
}

impl fmt::Display for Volts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3} V", self.0)
    }
}

/// A (frequency, voltage) pair the DVFS controller can select.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OperatingPoint {
    /// Clock frequency.
    pub frequency: Hertz,
    /// Minimum supply voltage that sustains that frequency.
    pub vdd: Volts,
}

/// The frequency/voltage law of the 28-nm FDSOI router (Fig. 5 substitute).
#[derive(Debug, Clone, PartialEq)]
pub struct FdsoiTech {
    /// Threshold voltage of the alpha-power model.
    threshold_v: f64,
    /// Velocity-saturation exponent.
    alpha: f64,
    /// Scale factor (Hz · V / V^alpha).
    scale_hz: f64,
    /// Lowest voltage the regulator can deliver.
    min_vdd: f64,
    /// Highest voltage the regulator can deliver.
    max_vdd: f64,
}

impl FdsoiTech {
    /// The minimum supply voltage used in the paper (0.56 V → 333 MHz).
    pub const MIN_VDD: f64 = 0.56;
    /// The nominal supply voltage used in the paper (0.90 V → 1 GHz).
    pub const MAX_VDD: f64 = 0.90;

    /// Creates the technology model calibrated on the paper's two published
    /// operating points: 333 MHz @ 0.56 V and 1 GHz @ 0.90 V.
    pub fn new() -> Self {
        let threshold_v = 0.35;
        // Solve F(0.90)/F(0.56) = 3.003 for alpha, then the scale from the
        // 1 GHz anchor (done symbolically once; constants inlined here).
        let f_hi: f64 = 1.0e9;
        let f_lo: f64 = 333.0e6;
        let v_hi: f64 = Self::MAX_VDD;
        let v_lo: f64 = Self::MIN_VDD;
        let ratio = (f_hi / f_lo) * (v_hi / v_lo);
        let alpha = ratio.ln() / ((v_hi - threshold_v) / (v_lo - threshold_v)).ln();
        let scale_hz = f_hi * v_hi / (v_hi - threshold_v).powf(alpha);
        FdsoiTech { threshold_v, alpha, scale_hz, min_vdd: v_lo, max_vdd: v_hi }
    }

    /// The velocity-saturation exponent α of the calibrated model.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Maximum clock frequency sustainable at supply voltage `vdd`.
    ///
    /// # Panics
    ///
    /// Panics if `vdd` is at or below the threshold voltage of the model.
    pub fn max_frequency(&self, vdd: Volts) -> Hertz {
        let v = vdd.as_volts();
        assert!(
            v > self.threshold_v,
            "supply voltage {v} V is at or below the threshold voltage"
        );
        Hertz::new(self.scale_hz * (v - self.threshold_v).powf(self.alpha) / v)
    }

    /// Minimum supply voltage at which the router meets timing at frequency
    /// `f` (the inverse of [`max_frequency`](Self::max_frequency), computed by
    /// bisection). The result is clamped to the regulator range
    /// `[MIN_VDD, MAX_VDD]`.
    pub fn vdd_for_frequency(&self, f: Hertz) -> Volts {
        let target = f.as_hz();
        let mut lo = self.min_vdd;
        let mut hi = self.max_vdd;
        if target <= self.max_frequency(Volts::new(lo)).as_hz() {
            return Volts::new(lo);
        }
        if target >= self.max_frequency(Volts::new(hi)).as_hz() {
            return Volts::new(hi);
        }
        for _ in 0..80 {
            let mid = 0.5 * (lo + hi);
            if self.max_frequency(Volts::new(mid)).as_hz() < target {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        Volts::new(hi)
    }

    /// Samples the Fmax-vs-Vdd curve (Fig. 5) at `points` evenly spaced
    /// voltages across the regulator range.
    ///
    /// # Panics
    ///
    /// Panics if `points < 2`.
    pub fn frequency_voltage_curve(&self, points: usize) -> Vec<OperatingPoint> {
        assert!(points >= 2, "need at least two sample points");
        (0..points)
            .map(|i| {
                let v = self.min_vdd
                    + (self.max_vdd - self.min_vdd) * i as f64 / (points - 1) as f64;
                let vdd = Volts::new(v);
                OperatingPoint { frequency: self.max_frequency(vdd), vdd }
            })
            .collect()
    }
}

impl Default for FdsoiTech {
    fn default() -> Self {
        FdsoiTech::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_matches_published_endpoints() {
        let tech = FdsoiTech::new();
        let f_low = tech.max_frequency(Volts::new(0.56));
        let f_high = tech.max_frequency(Volts::new(0.90));
        assert!((f_low.as_mhz() - 333.0).abs() < 1.0, "got {f_low}");
        assert!((f_high.as_ghz() - 1.0).abs() < 1e-3, "got {f_high}");
    }

    #[test]
    fn frequency_is_monotone_in_voltage() {
        let tech = FdsoiTech::new();
        let mut prev = 0.0;
        for op in tech.frequency_voltage_curve(50) {
            assert!(op.frequency.as_hz() > prev, "Fmax must increase with Vdd");
            prev = op.frequency.as_hz();
        }
    }

    #[test]
    fn inverse_round_trips_within_tolerance() {
        let tech = FdsoiTech::new();
        for mhz in [333.0, 400.0, 500.0, 600.0, 750.0, 900.0, 1000.0] {
            let f = Hertz::from_mhz(mhz);
            let vdd = tech.vdd_for_frequency(f);
            let f_back = tech.max_frequency(vdd);
            assert!(
                f_back.as_hz() >= f.as_hz() * 0.999,
                "voltage chosen for {mhz} MHz must actually sustain it"
            );
            assert!(
                f_back.as_hz() <= f.as_hz() * 1.02 || vdd.as_volts() <= FdsoiTech::MIN_VDD + 1e-9,
                "voltage should not be grossly overprovisioned at {mhz} MHz"
            );
        }
    }

    #[test]
    fn out_of_range_frequencies_clamp_to_regulator_limits() {
        let tech = FdsoiTech::new();
        assert_eq!(tech.vdd_for_frequency(Hertz::from_mhz(100.0)).as_volts(), FdsoiTech::MIN_VDD);
        assert_eq!(tech.vdd_for_frequency(Hertz::from_ghz(3.0)).as_volts(), FdsoiTech::MAX_VDD);
    }

    #[test]
    fn alpha_is_in_the_plausible_deep_submicron_range() {
        let tech = FdsoiTech::new();
        assert!(tech.alpha() > 1.2 && tech.alpha() < 2.0, "alpha = {}", tech.alpha());
    }

    #[test]
    fn curve_sampling_covers_the_full_range() {
        let tech = FdsoiTech::new();
        let curve = tech.frequency_voltage_curve(10);
        assert_eq!(curve.len(), 10);
        assert!((curve[0].vdd.as_volts() - 0.56).abs() < 1e-12);
        assert!((curve[9].vdd.as_volts() - 0.90).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "threshold")]
    fn below_threshold_panics() {
        let tech = FdsoiTech::new();
        let _ = tech.max_frequency(Volts::new(0.2));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn non_positive_voltage_rejected() {
        let _ = Volts::new(0.0);
    }

    #[test]
    fn voltage_display() {
        assert_eq!(Volts::new(0.9).to_string(), "0.900 V");
    }
}
