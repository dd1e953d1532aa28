//! # noc-sim — cycle-accurate 2D-mesh virtual-channel NoC simulator
//!
//! `noc-sim` is the simulation substrate used by the
//! [`noc-dvfs`](../noc_dvfs/index.html) crate to reproduce the experiments of
//! *"Rate-based vs Delay-based Control for DVFS in NoC"* (Casu & Giaccone,
//! DATE 2015). It plays the role that a modified Booksim 2.0 plays in the
//! paper: an input-queued virtual-channel router mesh with credit-based flow
//! control, dimension-ordered routing, and — crucially for the paper — a NoC
//! clock that is **decoupled** from the clock of the injecting nodes so that a
//! DVFS controller can slow the network down at run time.
//!
//! The simulator tracks both *cycles* (network clock ticks) and *wall-clock
//! time* (picoseconds), because the paper's central observation is that a
//! latency that is constant in cycles can be wildly non-monotonic in seconds
//! once the clock is scaled.
//!
//! ## Quick example
//!
//! ```
//! use noc_sim::{NetworkConfig, NocSimulation, SyntheticTraffic, TrafficPattern, Hertz};
//!
//! # fn main() {
//! let cfg = NetworkConfig::builder()
//!     .mesh(4, 4)
//!     .virtual_channels(2)
//!     .buffer_depth(4)
//!     .packet_length(5)
//!     .build()
//!     .expect("valid configuration");
//! let traffic = SyntheticTraffic::new(TrafficPattern::Uniform, 0.1, cfg.packet_length());
//! let mut sim = NocSimulation::new(cfg, Box::new(traffic), 7);
//! sim.set_noc_frequency(Hertz::from_mhz(500.0));
//! sim.run_cycles(5_000);
//! let m = sim.take_window();
//! assert!(m.packets_ejected > 0);
//! # }
//! ```
//!
//! ## Public surface
//!
//! Everything importable is re-exported at the crate root — the `pub use`
//! list at the bottom of this file *is* the API. Modules are private; their
//! `//!` docs are for readers of the source:
//!
//! | module | role |
//! |---|---|
//! | `units` | frequency / time newtypes ([`Hertz`], [`Picoseconds`]) |
//! | `config`, `error` | [`NetworkConfig`], its builder and [`ConfigError`] |
//! | `flit` | flits, packets and their identifiers (40-byte `Copy` flit) |
//! | `topology` | 2D mesh / torus geometry and port algebra ([`Topology`]) |
//! | `region` | voltage-frequency island partitions ([`RegionMap`]) |
//! | `tenant` | multi-tenant partitions ([`TenantMap`]) for per-tenant QoS accounting |
//! | `gating` | router power gating: sleep/wakeup state machines ([`GatingConfig`]) |
//! | `fault` | deterministic fault injection ([`FaultConfig`]): scheduled/hazard link & router failures |
//! | `routing` | dimension-ordered (XY/YX) + minimal-adaptive escape-VC routing, torus datelines |
//! | `buffer`, `arbiter`, `allocator` | per-VC FIFOs, round-robin arbiters, the mask-native separable allocator |
//! | `router` | the VC router pipeline (RC → VA → SA → ST) |
//! | `traffic` | synthetic patterns, bursty sources and traffic matrices ([`TrafficSpec`]) |
//! | `source`, `sink` | node-clock-driven injection queues; ejection and per-packet recording |
//! | `snapshot` | versioned checkpoints ([`SimSnapshot`]): bit-identical pause/resume |
//! | `trace` | injection record / replay ([`TraceWriter`] / [`TraceTraffic`]) |
//! | `activity`, `stats` | switching-activity counters for power estimation; latency / delay / throughput statistics |
//! | `telemetry` | zero-perturbation observability: counter fabric, event trace + Perfetto export, heatmaps, profiling |
//! | `clock` | dual-clock (node vs NoC) bookkeeping |
//! | `sim` | the [`NocSimulation`] driver: one router-pipeline kernel under two drivers (sparse worklists, island workers); flits and credits in flight live on two timing wheels; the engine's self-check ([`InvariantViolation`]) |
//!
//! ## Performance: sparse stepping and the scratch-buffer contract
//!
//! The cycle loop is **activity-tracked**: an active-router worklist (one
//! `u64` bitset word per 64 nodes), two timing wheels holding every flit
//! and credit in flight in the slot of its arrival cycle, and a
//! pending-source worklist make the per-cycle cost proportional to the
//! flits actually moving, not to `nodes × ports`. Quiescent routers, idle
//! links and idle sources cost nothing — a link with nothing on it does not
//! exist as a data structure. Packet
//! generation keeps its exact per-node-per-cycle RNG draw order (the
//! contract of [`TrafficSpec::generate_tick`]). The worklists are checked,
//! not trusted: [`NocSimulation::check_invariants`] recounts them, the
//! transport and gating counters and the flit and credit ledgers from the
//! network state (see the `sim` module docs and the README's
//! *Activity-tracked stepping* section for the quiescence contract).
//!
//! State is sized by what is in flight: the cycle loop
//! ([`NocSimulation::run_cycles`]) makes **no heap allocation after a VC's
//! first flit**, except to let a source queue or a scratch list outgrow its
//! own high-water mark. (A call long enough to run generation on a helper
//! thread pays, once per call, for the thread and its three 64 KiB chunks.)
//! That property rests on a simple ownership contract:
//!
//! * **Storage appears on first arrival.** An input VC's buffer allocates
//!   its `buffer_depth` slots when its first flit arrives, once; a VC that
//!   never sees a flit owns none.
//! * **Routers keep their request sets, not rebuild them.** The VA and SA
//!   stages hand the two `SeparableAllocator`s per-port bitmasks the
//!   `Router` updates as flits and credits arrive and leave; the only
//!   per-round scratch is each allocator's grant buffer, cleared at the
//!   start of the round.
//! * **The driver owns the traversal scratch.** One `TraversalOutput` lives
//!   in [`NocSimulation`] and is cleared by the driver before each router's
//!   SA/ST stage; the router only appends. Capacity is retained across
//!   cycles, so the lists stop allocating after the first few congested
//!   cycles.
//! * **The wheel is the wire.** A send pushes the flit or credit, addressed
//!   to its receiver, onto the wheel slot of its arrival cycle; delivery is
//!   one pass over the slot due this cycle. Slots keep their capacity.
//! * **Flits are 40-byte `Copy` values, from the injection port to the
//!   sink.** A packet waiting at its source is one record; the source builds
//!   each flit as it hands it over (`Source::try_inject`), and nothing on
//!   the flit path clones.
//!
//! Benchmarks: `benchmark/run.sh` is the repository's benchmark (end-to-end
//! metrics, `--traced` for per-layer numbers).

// `deny`, not `forbid`: the per-island parallel stepper in `sim/threaded.rs`
// carries the crate's only `unsafe` (barrier-synchronised workers reading the
// simulation and writing the per-node state of their own islands); the use
// site allows the lint explicitly and documents its disjointness argument.
#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
// Every module below is private and the `pub use` list is the whole API, so
// rustc's dead-code pass sees the crate's real surface; this lint catches the
// opposite mistake — a public signature mentioning a type the list forgot.
#![warn(unnameable_types)]

mod activity;
mod allocator;
mod arbiter;
mod buffer;
mod clock;
mod config;
mod error;
mod fault;
mod flit;
mod gating;
mod region;
mod router;
mod routing;
mod sim;
mod sink;
mod snapshot;
mod source;
mod stats;
mod telemetry;
mod tenant;
mod topology;
mod trace;
mod traffic;
mod units;

pub use activity::{NetworkActivity, RouterActivity};
pub use config::{NetworkConfig, NetworkConfigBuilder};
pub use error::ConfigError;
pub use fault::{FaultConfig, FaultEvent, FaultTarget, HazardConfig};
pub use flit::PacketId;
pub use gating::{GateState, GatingConfig, GATE_NEVER};
pub use region::{RegionLayout, RegionMap, RegionScheme};
pub use routing::{RoutingAlgorithm, RoutingKind, XyRouting, YxRouting};
pub use sim::{InvariantViolation, NocSimulation, WindowMeasurement};
pub use snapshot::{SimSnapshot, SnapshotError};
pub use stats::{PacketRecord, SimStats};
pub use telemetry::{
    CongestionHeatmap, EngineProfile, SimCounters, TelemetryConfig, TelemetryEvent,
    TelemetrySnapshot, TelemetryState, TimedEvent, TraceEmitter, OCC_BINS,
};
pub use tenant::{TenantMap, TenantMapError};
pub use topology::{Direction, Topology, TopologyKind};
pub use trace::{
    write_atomic, RecordingTraffic, TraceError, TraceEvent, TraceReader, TraceSummary,
    TraceTraffic, TraceWriter,
};
pub use traffic::{BurstyTraffic, MatrixTraffic, SyntheticTraffic, TrafficPattern, TrafficSpec};
pub use units::{Hertz, Picoseconds};
