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
//! ## Module map
//!
//! | module | role | hot-path notes |
//! |---|---|---|
//! | [`units`] | frequency / time / rate newtypes | — |
//! | [`config`] | [`NetworkConfig`] and its builder | — |
//! | [`flit`] | flits, packets and their identifiers | 40-byte `Copy` [`Flit`]; serde gated behind `flit-serde` |
//! | [`topology`] | 2D mesh / torus geometry and port algebra | coordinate math precomputed into a neighbour table by [`sim`] |
//! | [`region`] | voltage-frequency island partitions ([`RegionMap`]) | resolved once; per-island node bitmasks gate the sparse worklists |
//! | [`tenant`] | multi-tenant partitions ([`TenantMap`]) for per-tenant QoS accounting | inert (`None`) unless a map is installed; one slot lookup per counted event |
//! | [`gating`] | router power gating: sleep/wakeup state machines ([`GatingConfig`]) | event-driven timers; fenced routers cost nothing per cycle |
//! | [`fault`] | deterministic fault injection ([`FaultConfig`]): scheduled/hazard link & router failures | separate RNG stream; cached blocked-port masks; inert when unconfigured |
//! | [`routing`] | dimension-ordered (XY/YX) + minimal-adaptive escape-VC routing, torus datelines | invoked once per head flit, not per flit |
//! | [`buffer`] | per-VC FIFO buffers | capacity fixed at construction; never reallocates |
//! | [`arbiter`] | round-robin arbiters | mask-based grant in two bit operations |
//! | [`allocator`] | separable input-first allocator | mask-native: one member mask per group in, grants out; a lone requester is granted without arbitration; zero allocation per round |
//! | [`router`] | the VC router pipeline (RC → VA → SA → ST) | flat VC arrays + per-port state bitmasks kept incrementally — SA's requests are `active & nonempty & credit_ok`, no per-VC scan; appends into a caller-owned [`TraversalOutput`](router::TraversalOutput) |
//! | [`link`] | inter-router flit and credit channels | callback delivery ([`DelayChannel::deliver`](link::DelayChannel::deliver)), no per-cycle `Vec`; [`next_due`](link::DelayChannel::next_due) cursor feeds the driver's due-lists |
//! | [`traffic`] | synthetic patterns, bursty sources and traffic matrices | — |
//! | [`source`] | node-clock-driven packet generation | clone-free injection ([`Source::try_inject`](source::Source::try_inject)) |
//! | [`sink`] | ejection and per-packet recording | flat counters, no per-packet map |
//! | [`snapshot`] | versioned checkpoints ([`SimSnapshot`], `snapshot` feature) | cold path; bit-identical pause/resume |
//! | [`trace`] | injection record / replay ([`TraceWriter`] / [`TraceTraffic`], `snapshot` feature) | chunked streaming, one chunk resident; replay draws no RNG |
//! | [`activity`] | switching-activity counters for power estimation | — |
//! | [`stats`] | latency / delay / throughput statistics | — |
//! | [`telemetry`] | zero-perturbation observability: counter fabric, event trace + Perfetto export, heatmaps, profiling | inert (`None`) unless installed; one branch per probe site |
//! | [`clock`] | dual-clock (node vs NoC) bookkeeping | per-cycle divisions cached on frequency change |
//! | [`sim`] | the [`NocSimulation`] driver | one router-pipeline kernel under three drivers (sparse worklists + channel due-lists, dense reference, island workers); owns the per-cycle scratch; see below |
//!
//! ## Performance: sparse stepping and the scratch-buffer contract
//!
//! The cycle loop is **activity-tracked**: an active-router worklist (one
//! `u64` bitset word per 64 nodes), per-channel due-lists (timing wheels
//! keyed by delivery cycle) and a pending-source worklist make the per-cycle
//! cost proportional to the flits actually moving, not to `nodes × ports`.
//! Quiescent routers, empty channels and idle sources cost nothing. Packet
//! generation keeps its exact per-node-per-cycle RNG draw order (the
//! contract of [`TrafficSpec::generate_tick`]), so the sparse engine is bit-identical to the dense reference loop retained
//! behind [`NocSimulation::set_dense_stepping`] (see the [`sim`] module docs
//! and the README's *Activity-tracked stepping* section for the quiescence
//! contract).
//!
//! The steady-state cycle loop ([`NocSimulation::step`]) also performs
//! **zero heap allocations**. That property rests on a simple ownership
//! contract:
//!
//! * **Routers keep their request sets, not rebuild them.** The VA and SA
//!   stages hand the two [`SeparableAllocator`](allocator::SeparableAllocator)s
//!   per-port bitmasks the [`Router`](router::Router) updates as flits and
//!   credits arrive and leave; the only per-round scratch is each
//!   allocator's grant buffer, cleared at the start of the round.
//! * **The driver owns the traversal scratch.** One
//!   [`TraversalOutput`](router::TraversalOutput) lives in [`NocSimulation`]
//!   and is cleared by the driver before each router's SA/ST stage; the
//!   router only appends. Capacity is retained across cycles, so the lists
//!   stop allocating after the first few congested cycles.
//! * **Channels deliver through callbacks.** A
//!   [`DelayChannel`](link::DelayChannel) hands due items straight out of its
//!   ring buffer to a caller closure; `deliver_collect` (allocating) exists
//!   for tests only.
//! * **Flits are 40-byte `Copy` values.** Injection pops them from the source
//!   queue ([`Source::try_inject`](source::Source::try_inject)); nothing on
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

pub mod activity;
pub mod allocator;
pub mod arbiter;
pub mod buffer;
pub mod clock;
pub mod config;
pub mod error;
pub mod fault;
pub mod flit;
pub mod gating;
pub mod link;
pub mod region;
pub mod router;
pub mod routing;
pub mod sim;
pub mod sink;
#[cfg(feature = "snapshot")]
pub mod snapshot;
pub mod source;
pub mod stats;
pub mod telemetry;
pub mod tenant;
pub mod topology;
#[cfg(feature = "snapshot")]
pub mod trace;
pub mod traffic;
pub mod units;

pub use activity::{NetworkActivity, RouterActivity};
pub use clock::DualClock;
pub use config::{NetworkConfig, NetworkConfigBuilder};
pub use error::ConfigError;
pub use fault::{FaultConfig, FaultEvent, FaultState, FaultTarget, FaultTransition, HazardConfig};
pub use flit::{Flit, FlitKind, PacketId};
pub use gating::{GateState, GatingConfig, PerIslandGating, GATE_NEVER};
pub use region::{RegionLayout, RegionMap, RegionScheme};
pub use routing::{MinimalAdaptive, RoutingAlgorithm, RoutingKind, XyRouting, YxRouting};
pub use sim::{NocSimulation, WindowMeasurement};
#[cfg(feature = "snapshot")]
pub use snapshot::{SimSnapshot, SnapshotError};
pub use stats::{PacketRecord, SimStats};
pub use telemetry::{
    CongestionHeatmap, EngineProfile, SimCounters, TelemetryConfig, TelemetryEvent,
    TelemetrySnapshot, TelemetryState, TimedEvent, TraceEmitter,
};
pub use tenant::{TenantMap, TenantMapError};
pub use topology::{Direction, Mesh2d, Topology, TopologyKind};
#[cfg(feature = "snapshot")]
pub use trace::{
    RecordingTraffic, TraceError, TraceEvent, TraceReader, TraceTraffic, TraceWriter,
};
pub use traffic::{BurstyTraffic, MatrixTraffic, SyntheticTraffic, TrafficPattern, TrafficSpec};
pub use units::{Cycles, FlitsPerCycle, Hertz, Picoseconds};
