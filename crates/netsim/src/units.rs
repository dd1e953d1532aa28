//! Frequency and time newtypes.
//!
//! The DVFS experiments constantly convert between the *cycle* domain (what a
//! cycle-accurate simulator naturally measures) and the *time* domain (what the
//! paper plots once the clock has been scaled). Using newtypes keeps the two
//! domains from being mixed up silently.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// A clock frequency in hertz.
///
/// ```
/// use noc_sim::Hertz;
/// let f = Hertz::from_mhz(333.0);
/// assert!((f.as_ghz() - 0.333).abs() < 1e-12);
/// assert!((f.period().as_ns() - 3.003).abs() < 1e-2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Hertz(f64);

impl Hertz {
    /// Creates a frequency from a raw value in hertz.
    ///
    /// # Panics
    ///
    /// Panics if `hz` is not finite or is not strictly positive.
    pub fn new(hz: f64) -> Self {
        assert!(hz.is_finite() && hz > 0.0, "frequency must be positive and finite");
        Hertz(hz)
    }

    /// Creates a frequency from a value in megahertz.
    pub fn from_mhz(mhz: f64) -> Self {
        Hertz::new(mhz * 1.0e6)
    }

    /// Creates a frequency from a value in gigahertz.
    pub fn from_ghz(ghz: f64) -> Self {
        Hertz::new(ghz * 1.0e9)
    }

    /// Returns the raw value in hertz.
    pub fn as_hz(self) -> f64 {
        self.0
    }

    /// Returns the value in megahertz.
    pub fn as_mhz(self) -> f64 {
        self.0 / 1.0e6
    }

    /// Returns the value in gigahertz.
    pub fn as_ghz(self) -> f64 {
        self.0 / 1.0e9
    }

    /// Returns the clock period corresponding to this frequency.
    pub fn period(self) -> Picoseconds {
        Picoseconds::new(1.0e12 / self.0)
    }

    /// Clamps this frequency into the closed range `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn clamp(self, lo: Hertz, hi: Hertz) -> Hertz {
        assert!(lo.0 <= hi.0, "invalid clamp range");
        Hertz(self.0.clamp(lo.0, hi.0))
    }
}

impl fmt::Display for Hertz {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1.0e9 {
            write!(f, "{:.3} GHz", self.as_ghz())
        } else if self.0 >= 1.0e6 {
            write!(f, "{:.1} MHz", self.as_mhz())
        } else {
            write!(f, "{:.0} Hz", self.0)
        }
    }
}

/// A duration expressed in picoseconds.
///
/// Wall-clock durations in the simulator are tracked in picoseconds so that a
/// 1 GHz clock period (1000 ps) and a 333 MHz period (3003 ps) are both
/// representable without losing resolution over long simulations.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Picoseconds(f64);

impl Picoseconds {
    /// Creates a duration from a raw picosecond value.
    ///
    /// # Panics
    ///
    /// Panics if `ps` is negative or not finite.
    pub fn new(ps: f64) -> Self {
        assert!(ps.is_finite() && ps >= 0.0, "duration must be non-negative and finite");
        Picoseconds(ps)
    }

    /// Returns the raw value in picoseconds.
    pub fn as_ps(self) -> f64 {
        self.0
    }

    /// Returns the value in nanoseconds.
    pub fn as_ns(self) -> f64 {
        self.0 / 1.0e3
    }

    /// Returns the value in microseconds.
    pub fn as_us(self) -> f64 {
        self.0 / 1.0e6
    }

    /// Returns the value in seconds.
    pub fn as_secs(self) -> f64 {
        self.0 / 1.0e12
    }
}

impl Add for Picoseconds {
    type Output = Picoseconds;
    fn add(self, rhs: Picoseconds) -> Picoseconds {
        Picoseconds(self.0 + rhs.0)
    }
}

impl AddAssign for Picoseconds {
    fn add_assign(&mut self, rhs: Picoseconds) {
        self.0 += rhs.0;
    }
}

impl Sub for Picoseconds {
    type Output = Picoseconds;
    fn sub(self, rhs: Picoseconds) -> Picoseconds {
        Picoseconds((self.0 - rhs.0).max(0.0))
    }
}

impl Mul<f64> for Picoseconds {
    type Output = Picoseconds;
    fn mul(self, rhs: f64) -> Picoseconds {
        Picoseconds(self.0 * rhs)
    }
}

impl Div<f64> for Picoseconds {
    type Output = Picoseconds;
    fn div(self, rhs: f64) -> Picoseconds {
        Picoseconds(self.0 / rhs)
    }
}

impl fmt::Display for Picoseconds {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1.0e6 {
            write!(f, "{:.3} us", self.as_us())
        } else if self.0 >= 1.0e3 {
            write!(f, "{:.3} ns", self.as_ns())
        } else {
            write!(f, "{:.1} ps", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hertz_conversions_round_trip() {
        let f = Hertz::from_ghz(1.0);
        assert_eq!(f.as_hz(), 1.0e9);
        assert_eq!(f.as_mhz(), 1000.0);
        assert!((f.period().as_ps() - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn hertz_display_scales_unit() {
        assert_eq!(format!("{}", Hertz::from_ghz(1.0)), "1.000 GHz");
        assert_eq!(format!("{}", Hertz::from_mhz(333.0)), "333.0 MHz");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn hertz_rejects_zero() {
        let _ = Hertz::new(0.0);
    }

    #[test]
    fn hertz_clamp_respects_bounds() {
        let lo = Hertz::from_mhz(333.0);
        let hi = Hertz::from_ghz(1.0);
        assert_eq!(Hertz::from_mhz(100.0).clamp(lo, hi), lo);
        assert_eq!(Hertz::from_ghz(2.0).clamp(lo, hi), hi);
        assert_eq!(Hertz::from_mhz(500.0).clamp(lo, hi), Hertz::from_mhz(500.0));
    }

    #[test]
    fn picoseconds_arithmetic() {
        let a = Picoseconds::new(1500.0);
        let b = Picoseconds::new(500.0);
        assert_eq!((a + b).as_ps(), 2000.0);
        assert_eq!((a - b).as_ns(), 1.0);
        assert_eq!((b - a).as_ps(), 0.0, "subtraction saturates at zero");
        assert_eq!((a * 2.0).as_ps(), 3000.0);
        assert_eq!((a / 3.0).as_ps(), 500.0);
    }

    #[test]
    fn picoseconds_unit_conversions() {
        let t = Picoseconds::new(2.5e6);
        assert!((t.as_us() - 2.5).abs() < 1e-12);
        assert!((t.as_secs() - 2.5e-6).abs() < 1e-18);
    }
}
