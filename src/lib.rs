//! # noc-dvfs-repro — umbrella crate
//!
//! Reproduction of *"Rate-based vs Delay-based Control for DVFS in NoC"*
//! (M. R. Casu and P. Giaccone, DATE 2015). This crate simply re-exports the
//! four workspace crates so that examples and downstream users can depend on
//! a single name:
//!
//! * [`sim`] (`noc-sim`) — cycle-accurate 2D-mesh virtual-channel NoC
//!   simulator with a run-time-scalable network clock;
//! * [`power`] (`noc-power`) — 28-nm FDSOI frequency/voltage model and
//!   activity-driven power estimation;
//! * [`apps`] (`noc-apps`) — H.264 and Video Conference Encoder task graphs
//!   and their traffic matrices;
//! * [`dvfs`] (`noc-dvfs`) — the RMSD and DMSD policies, the closed-loop
//!   co-simulation and the drivers for every figure of the paper.
//!
//! ## Quickstart
//!
//! ```
//! use noc_dvfs_repro::dvfs::{run_operating_point, ClosedLoopConfig, DmsdConfig, PolicyKind};
//! use noc_dvfs_repro::sim::{NetworkConfig, SyntheticTraffic, TrafficPattern};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A small mesh so the example runs in a blink; the paper baseline is
//! // NetworkConfig::paper_baseline() (5x5, 8 VCs, 20-flit packets).
//! let net = NetworkConfig::builder()
//!     .mesh(4, 4)
//!     .virtual_channels(2)
//!     .buffer_depth(4)
//!     .packet_length(5)
//!     .build()?;
//! let traffic = SyntheticTraffic::new(TrafficPattern::Uniform, 0.1, 5);
//! let point = run_operating_point(
//!     &net,
//!     Box::new(traffic),
//!     PolicyKind::Dmsd(DmsdConfig::with_target_ns(150.0)),
//!     &ClosedLoopConfig::quick(),
//!     1,
//! );
//! println!("delay = {:.1} ns, power = {:.1} mW", point.avg_delay_ns, point.power_mw);
//! # Ok(())
//! # }
//! ```
//!
//! See `examples/` for runnable end-to-end scenarios; [`figures`] and the
//! `figures` binary regenerate every figure of the paper as text tables.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod figures;

pub use noc_apps as apps;
pub use noc_dvfs as dvfs;
pub use noc_power as power;
pub use noc_sim as sim;
