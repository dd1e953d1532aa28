//! # noc-power — 28-nm FDSOI technology and activity-driven power model
//!
//! This crate replaces the paper's synthesis/transistor-level flow
//! (Synopsys Design Compiler + Eldo + activity-driven power estimation on a
//! 28-nm FDSOI library) with an analytic model that preserves the two things
//! the paper actually consumes:
//!
//! 1. the **frequency ↔ voltage relationship** of the router's critical path
//!    (Fig. 5 of the paper), provided by [`FdsoiTech`], and
//! 2. the conversion of simulated **switching activity** into milliwatts at a
//!    given `(frequency, Vdd)` operating point, provided by
//!    [`RouterPowerModel`].
//!
//! The absolute calibration targets the published numbers: the no-DVFS 5×5
//! mesh spans roughly 60 mW (idle) to 230 mW (0.4 flits/cycle/node, Fig. 6).
//! All policy comparisons in the paper are *ratios*, which survive any
//! activity-proportional model with a `V²·f` dynamic term and a
//! voltage-dependent static term — see `DESIGN.md` for the substitution
//! argument.
//!
//! ## Example
//!
//! ```
//! use noc_power::{FdsoiTech, RouterPowerModel};
//! use noc_sim::{Hertz, RouterActivity};
//!
//! # fn main() {
//! let tech = FdsoiTech::new();
//! let f = Hertz::from_mhz(600.0);
//! let vdd = tech.vdd_for_frequency(f);
//! assert!(vdd.as_volts() > 0.56 && vdd.as_volts() < 0.9);
//!
//! let model = RouterPowerModel::new();
//! let mut activity = RouterActivity::new();
//! activity.buffer_writes = 1_000;
//! activity.buffer_reads = 1_000;
//! activity.crossbar_traversals = 1_000;
//! activity.link_flits = 1_000;
//! activity.cycles = 10_000;
//! let window_ps = 10_000.0 / f.as_hz() * 1e12;
//! let power = model.router_power_mw(&activity, f, vdd, window_ps);
//! assert!(power > 0.0);
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod gating;
pub mod model;
pub mod report;
pub mod tech;

pub use gating::{GatingResidency, IslandGatingStats, RouterGatingStats};
pub use model::{PowerParams, RouterPowerModel};
pub use report::{
    DegradedModeReport, FrequencyResidency, PowerReport, ResidencyLevel, RESIDENCY_BIN_HZ,
};
pub use tech::{FdsoiTech, OperatingPoint, Volts};
