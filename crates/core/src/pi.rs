//! Discrete proportional-integral controller.
//!
//! The DMSD policy uses the incremental ("velocity") form of a PI controller,
//! exactly as written in Fig. 3 of the paper:
//!
//! ```text
//! U_n = U_{n-1} + K_I · E_n + K_P · (E_n − E_{n-1})
//! ```
//!
//! where `E_n` is the control error at update `n` and `U_n` the (clamped)
//! actuation value. Clamping the output inside `[u_min, u_max]` provides
//! anti-windup: because the increment is added to the *clamped* previous
//! output, the integrator cannot accumulate past the actuator limits.


/// Incremental PI controller with output clamping.
#[derive(Debug, Clone, PartialEq)]
pub struct PiController {
    ki: f64,
    kp: f64,
    u_min: f64,
    u_max: f64,
    output: f64,
    previous_error: f64,
    initialized: bool,
}

impl PiController {
    /// Creates a controller with gains `ki`/`kp`, output range
    /// `[u_min, u_max]` and initial output `u_initial`.
    ///
    /// # Panics
    ///
    /// Panics if the gains are not finite, if `u_min > u_max`, or if the
    /// initial output lies outside the range.
    pub fn new(ki: f64, kp: f64, u_min: f64, u_max: f64, u_initial: f64) -> Self {
        assert!(ki.is_finite() && kp.is_finite(), "gains must be finite");
        assert!(u_min <= u_max, "invalid output range");
        assert!(
            (u_min..=u_max).contains(&u_initial),
            "initial output must be inside the output range"
        );
        PiController {
            ki,
            kp,
            u_min,
            u_max,
            output: u_initial,
            previous_error: 0.0,
            initialized: false,
        }
    }

    /// The integral gain.
    pub fn ki(&self) -> f64 {
        self.ki
    }

    /// The proportional gain.
    pub fn kp(&self) -> f64 {
        self.kp
    }

    /// The current (clamped) output without applying a new error sample.
    pub fn output(&self) -> f64 {
        self.output
    }

    /// Applies one error sample and returns the new clamped output.
    pub fn update(&mut self, error: f64) -> f64 {
        assert!(error.is_finite(), "control error must be finite");
        let delta_error = if self.initialized { error - self.previous_error } else { 0.0 };
        self.initialized = true;
        self.previous_error = error;
        self.output = (self.output + self.ki * error + self.kp * delta_error)
            .clamp(self.u_min, self.u_max);
        self.output
    }

    /// Forgets the error history and restores the output to `u_initial`.
    pub fn reset(&mut self, u_initial: f64) {
        assert!(
            (self.u_min..=self.u_max).contains(&u_initial),
            "initial output must be inside the output range"
        );
        self.output = u_initial;
        self.previous_error = 0.0;
        self.initialized = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn positive_error_raises_output() {
        let mut pi = PiController::new(0.1, 0.05, 0.0, 1.0, 0.5);
        let u = pi.update(1.0);
        assert!(u > 0.5);
    }

    #[test]
    fn negative_error_lowers_output() {
        let mut pi = PiController::new(0.1, 0.05, 0.0, 1.0, 0.5);
        let u = pi.update(-1.0);
        assert!(u < 0.5);
    }

    #[test]
    fn output_is_clamped() {
        let mut pi = PiController::new(1.0, 0.0, 0.0, 1.0, 0.5);
        for _ in 0..100 {
            pi.update(10.0);
        }
        assert_eq!(pi.output(), 1.0);
        for _ in 0..100 {
            pi.update(-10.0);
        }
        assert_eq!(pi.output(), 0.0);
    }

    #[test]
    fn anti_windup_recovers_quickly_after_saturation() {
        // Saturate high for a long time, then apply a small negative error:
        // the output must move below the upper limit immediately, because the
        // incremental form does not accumulate an unbounded integral.
        let mut pi = PiController::new(0.2, 0.1, 0.0, 1.0, 0.5);
        for _ in 0..1000 {
            pi.update(5.0);
        }
        assert_eq!(pi.output(), 1.0);
        let u = pi.update(-1.0);
        assert!(u < 1.0, "output must leave the rail as soon as the error changes sign");
    }

    #[test]
    fn zero_error_holds_output() {
        let mut pi = PiController::new(0.2, 0.1, 0.0, 1.0, 0.7);
        let u1 = pi.update(0.0);
        let u2 = pi.update(0.0);
        assert_eq!(u1, 0.7);
        assert_eq!(u2, 0.7);
    }

    #[test]
    fn converges_on_a_first_order_plant() {
        // Plant: measured value y = 200 * u (e.g. delay falls as u rises the
        // sign is handled by the error definition). Target y* = 120.
        // Error = y* - y must drive u towards 0.6.
        let mut pi = PiController::new(0.02, 0.01, 0.0, 1.0, 1.0);
        let mut u = pi.output();
        for _ in 0..500 {
            let y = 200.0 * u;
            let error = 120.0 - y;
            u = pi.update(error / 120.0);
        }
        assert!((200.0 * u - 120.0).abs() < 5.0, "loop should settle near the target");
    }

    #[test]
    fn proportional_term_reacts_to_error_changes() {
        let mut with_kp = PiController::new(0.0, 0.5, -10.0, 10.0, 0.0);
        // First sample: delta term is suppressed (no previous error), so the
        // pure-P controller holds its output.
        assert_eq!(with_kp.update(1.0), 0.0);
        // A jump in the error now produces a proportional kick.
        assert!(with_kp.update(3.0) > 0.9);
    }

    #[test]
    fn reset_clears_history() {
        let mut pi = PiController::new(0.1, 0.1, 0.0, 1.0, 0.5);
        pi.update(2.0);
        pi.update(-1.0);
        pi.reset(0.5);
        assert_eq!(pi.output(), 0.5);
        // After a reset the next update must not see a stale previous error.
        let u = pi.update(0.0);
        assert_eq!(u, 0.5);
    }

    #[test]
    #[should_panic(expected = "output range")]
    fn invalid_initial_output_panics() {
        let _ = PiController::new(0.1, 0.1, 0.0, 1.0, 2.0);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn non_finite_error_panics() {
        let mut pi = PiController::new(0.1, 0.1, 0.0, 1.0, 0.5);
        pi.update(f64::NAN);
    }
}
