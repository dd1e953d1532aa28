//! # noc-dvfs — rate-based vs delay-based global DVFS control for NoCs
//!
//! This crate is the primary contribution of the reproduced paper
//! (*Casu & Giaccone, "Rate-based vs Delay-based Control for DVFS in NoC",
//! DATE 2015*): two policies that scale the clock frequency (and hence the
//! supply voltage) of an **entire** NoC at run time,
//!
//! * [`Rmsd`] — *Rate-based Max Slow Down*: measure the average node injection
//!   rate `λ_node` and slow the NoC clock to
//!   `F_noc = F_node · λ_node / λ_max`, the lowest frequency that still keeps
//!   the network below saturation. Maximum power saving, but the packet delay
//!   in nanoseconds becomes large and non-monotonic in the load.
//! * [`Dmsd`] — *Delay-based Max Slow Down*: a proportional-integral loop
//!   ([`PiController`]) measures the average end-to-end packet delay and
//!   drives the frequency so that the delay tracks a target (150 ns in the
//!   paper). It saves less power than RMSD (by 20–50 %) but keeps the delay
//!   2–3× lower — the better power-delay trade-off.
//! * [`NoDvfs`] — the always-at-maximum-frequency baseline.
//!
//! The [`closed_loop`] module holds the one control loop that co-simulates a
//! policy with the cycle-accurate [`noc_sim`] network and the [`noc_power`]
//! power model. The loop drives the network's voltage-frequency island
//! partition — the paper's global DVFS is its one-island case — and,
//! optionally, a power-gating policy; [`run_operating_point`],
//! [`run_operating_point_islands`] and [`run_operating_point_gated`] are
//! three views of its result (aggregate, + per-island, + gating residency).
//! [`sweep`] fans a `(policy × load)` grid of such points out over one
//! parallel grid (and its serial reference twin), [`experiments`] exposes
//! one driver per figure of the paper, [`scenario`] widens the grid to
//! topology × pattern × injection × island × gating axes, and [`summary`]
//! reads off the headline power/delay ratios.
//!
//! ## Quick example
//!
//! ```
//! use noc_dvfs::{ClosedLoopConfig, DmsdConfig, PolicyKind, run_operating_point};
//! use noc_sim::{NetworkConfig, SyntheticTraffic, TrafficPattern};
//!
//! # fn main() {
//! let net = NetworkConfig::builder()
//!     .mesh(4, 4)
//!     .virtual_channels(2)
//!     .buffer_depth(4)
//!     .packet_length(5)
//!     .build()
//!     .unwrap();
//! let traffic = SyntheticTraffic::new(TrafficPattern::Uniform, 0.10, 5);
//! let loop_cfg = ClosedLoopConfig::quick();
//! let point = run_operating_point(
//!     &net,
//!     Box::new(traffic),
//!     PolicyKind::Dmsd(DmsdConfig::with_target_ns(150.0)),
//!     &loop_cfg,
//!     42,
//! );
//! assert!(point.power_mw > 0.0);
//! assert!(point.avg_delay_ns > 0.0);
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod closed_loop;
pub mod coordinator;
pub mod dmsd;
pub mod experiments;
pub mod gating;
pub mod island;
pub mod parallel;
pub mod pi;
pub mod policy;
pub mod rmsd;
pub mod saturation;
pub mod scenario;
pub mod summary;
pub mod sweep;
pub mod tenant;

pub use closed_loop::{
    degraded_mode_report, run_operating_point, ClosedLoopConfig, OperatingPointResult,
};
pub use coordinator::{
    decode_operating_point, encode_operating_point, profile_path, run_sweep, shard_policy_grid,
    ChaosConfig, CoordinatorConfig, CoordinatorError, PointContext, PointFailure, PointRunner,
    SweepProfile, SweepReport, WorkUnit,
};
pub use dmsd::{Dmsd, DmsdConfig};
pub use gating::{
    run_operating_point_gated, BreakEvenConfig, GatedOperatingPointResult, GatingPolicyKind,
    DEFAULT_WAKEUP_LATENCY,
};
pub use island::{
    run_operating_point_islands, IslandOperatingPointResult, IslandSummary, MultiIslandController,
};
pub use parallel::{par_map, par_try_map, worker_threads, PointPanic};
pub use pi::PiController;
pub use policy::{ControlMeasurement, DvfsPolicy, NoDvfs, PolicyKind};
pub use rmsd::{Rmsd, RmsdConfig};
pub use saturation::find_saturation_rate;
pub use scenario::{
    compare_policies_scenario, scenario_grid, FaultProfile, InjectionProcess, Scenario, TenantMix,
};
pub use summary::TradeOffSummary;
pub use sweep::{PolicyCurve, SweepPoint};
pub use tenant::{
    compose_tenants, run_tenants, MappingPolicy, TenantComposeError, TenantComposition, TenantQos,
    TenantReport, TenantWorkload,
};
