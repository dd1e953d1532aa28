//! The simulation driver: wires routers, links, sources and sinks together
//! and advances them cycle by cycle under a run-time-scalable NoC clock.
//!
//! # Sparse activity-tracked stepping
//!
//! The cycle loop is built around *activity tracking* so that quiescent state
//! costs (near) zero: per-cycle work is proportional to the number of flits
//! actually moving, not to the size of the network.
//!
//! * **Active-router worklist** — a `u64` bitset per 64 nodes holds exactly
//!   the routers with at least one buffered flit
//!   ([`Router::is_quiescent`](crate::router::Router::is_quiescent)). The
//!   pipeline phase drains this worklist in ascending node order (ascending
//!   order also fixes the floating-point accumulation order, and therefore
//!   every golden window sequence) instead of looping `0..node_count`;
//!   routers are re-inserted by flit arrival and dropped the cycle they
//!   drain.
//! * **The wheel is the wire** — a flit or credit in flight lives in the
//!   slot of its arrival cycle on one of two timing wheels (`EventWheel`),
//!   addressed to its receiver at send; there are no per-channel queues. The
//!   delivery phases are one linear pass over the slot due *this* cycle, and
//!   the entries are the items themselves, so nothing in flight can be
//!   missing from the schedule.
//! * **Pending-source worklist** — injection polls only sources with queued
//!   flits; an idle source costs nothing, a credit-blocked source stays in
//!   the worklist (backed-up traffic *is* activity).
//! * **Touched set** — the routers that left the active worklist or changed
//!   gating state since the last activity drain. The drains
//!   ([`NocSimulation::reset_activity`], [`NocSimulation::take_activity`])
//!   visit `active ∪ touched` only, so a control window costs what moved in
//!   it, not the fabric size.
//!
//! Packet **generation order is sacred**: every step makes the same one
//! [`TrafficSpec::generate_tick`] call, and that method's contract fixes the
//! order in which the shared RNG is consumed (nodes ascending, node cycles
//! ascending within a node). The worklists are inferences — a router or
//! source missing from one would silently stop moving traffic — so the
//! engine checks them: [`NocSimulation::check_invariants`] recounts every
//! worklist, counter and ledger from the network state and names the first
//! clause that breaks (`invariants`). `restore` runs it on every snapshot,
//! and the invariant suites after every tick.
//!
//! **Generation runs ahead** on a long call: `generate_tick` reads no
//! network state, so a [`run_cycles`](NocSimulation::run_cycles) call that
//! owes at least 2²⁰ draws lends the spec and the generator to a helper
//! thread, which makes the same calls on the same clock schedule while the
//! engine steps; phase 2 then only queues the packets of the tick's batch
//! (`ahead`). The draw order is the helper's, so it is unchanged.
//!
//! # Layout
//!
//! One tick is `phases` 1–3, the `pipeline` phase, `phases` 5–6. The router
//! pipeline exists once (`pipeline::tick_router`) and so does the
//! application of its side effects (`pipeline::Effects::apply`); the serial
//! sparse engine and the per-island workers of `threaded` are drivers of
//! that pair. `worklist` holds the bitsets and the timing wheel, `islands`
//! the clock dividers, `accessors` the query and actuation surface,
//! `invariants` the self-check, `checkpoint` the snapshot glue, `ahead` the
//! generation helper.

mod accessors;
mod ahead;
mod checkpoint;
mod invariants;
mod islands;
mod phases;
mod pipeline;
#[cfg(test)]
mod tests;
mod threaded;
mod worklist;

use self::ahead::Ahead;
pub use self::invariants::InvariantViolation;
use self::islands::{advance_island_clocks, IslandDomain};
use self::worklist::{EventWheel, NodeSet};
use crate::clock::DualClock;
use crate::config::NetworkConfig;
use crate::fault::{FaultState, FaultTransition};
use crate::flit::Flit;
use crate::gating::GatingController;
use crate::region::RegionMap;
use crate::router::{Router, TraversalOutput, LOCAL_PORT};
use crate::routing::RoutingAlgorithm;
use crate::sink::Sink;
use crate::source::Source;
use crate::stats::SimStats;
use crate::telemetry::TelemetryState;
use crate::tenant::TenantMap;
use crate::topology::{Direction, Topology, PORT_COUNT};
use crate::traffic::TrafficSpec;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Measurements accumulated since the last call to
/// [`NocSimulation::take_window`]; this is what a DVFS controller sees at
/// every control update.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WindowMeasurement {
    /// NoC clock cycles elapsed in the window.
    pub noc_cycles: u64,
    /// Node clock cycles elapsed in the window (per node).
    pub node_cycles: u64,
    /// Wall-clock time elapsed in the window, picoseconds.
    pub wall_time_ps: f64,
    /// Flits generated by all sources in the window.
    pub flits_generated: u64,
    /// Flits actually injected into the network in the window.
    pub flits_injected: u64,
    /// Packets whose tail was ejected in the window.
    pub packets_ejected: u64,
    /// Flits ejected in the window.
    pub flits_ejected: u64,
    /// Sum of latencies (NoC cycles) of packets ejected in the window.
    pub latency_cycles_sum: u64,
    /// Sum of delays (picoseconds) of packets ejected in the window.
    pub delay_ps_sum: f64,
    /// Flits dropped by failed components in the window (always zero unless
    /// the configuration injects faults; see [`FaultConfig`](crate::FaultConfig)).
    pub flits_dropped: u64,
}

impl WindowMeasurement {
    /// Average end-to-end packet delay in nanoseconds, if any packet finished.
    pub fn avg_delay_ns(&self) -> Option<f64> {
        (self.packets_ejected > 0)
            .then(|| self.delay_ps_sum / self.packets_ejected as f64 / 1.0e3)
    }

    /// Average packet latency in NoC cycles, if any packet finished.
    pub fn avg_latency_cycles(&self) -> Option<f64> {
        (self.packets_ejected > 0)
            .then(|| self.latency_cycles_sum as f64 / self.packets_ejected as f64)
    }

    /// Average injection rate seen by the *node* clock, in flits per node
    /// cycle per node (the `λ_node` of the paper).
    pub fn node_injection_rate(&self, node_count: usize) -> f64 {
        if self.node_cycles == 0 || node_count == 0 {
            return 0.0;
        }
        self.flits_generated as f64 / (self.node_cycles as f64 * node_count as f64)
    }

    /// Average injection rate seen by the *NoC* clock, in flits per NoC cycle
    /// per node (the `λ_noc` of the paper).
    pub fn noc_injection_rate(&self, node_count: usize) -> f64 {
        if self.noc_cycles == 0 || node_count == 0 {
            return 0.0;
        }
        self.flits_injected as f64 / (self.noc_cycles as f64 * node_count as f64)
    }

    /// Accepted throughput in flits per NoC cycle per node.
    pub fn throughput(&self, node_count: usize) -> f64 {
        if self.noc_cycles == 0 || node_count == 0 {
            return 0.0;
        }
        self.flits_ejected as f64 / (self.noc_cycles as f64 * node_count as f64)
    }
}

/// The per-tick context phases 1–2 establish and the later phases read.
#[derive(Debug, Clone, Copy)]
struct Tick {
    /// The NoC cycle being executed (the clock has already advanced to it).
    now: u64,
    /// Wall-clock time at `now`, picoseconds.
    wall_ps: f64,
    /// Whether every island fires this base tick (then `fire_words` is not
    /// rebuilt and must not be consulted).
    all_fire: bool,
    /// Whether any component is failed this tick.
    fault_block: bool,
    /// Whether any router is gated or waking this tick. Both fence flags are
    /// constant through phases 4–6: fences only rise and fall inside the
    /// gating and fault phases.
    gate_fencing: bool,
}

/// A flit on a link or an injection channel, addressed to its receiver when
/// it was sent: input `in_port` of router `dest` ([`LOCAL_PORT`] for a flit
/// coming from the node's own source).
#[derive(Debug, Clone, Copy, PartialEq)]
struct FlitInFlight {
    dest: u32,
    in_port: u8,
    flit: Flit,
}

/// A credit on its way back upstream: one slot of VC `vc` freed behind output
/// `out_port` of router `target` — or, with `out_port == LOCAL_PORT`, behind
/// the injection channel of `target`'s source.
#[derive(Debug, Clone, Copy, PartialEq)]
struct CreditInFlight {
    target: u32,
    out_port: u8,
    vc: u8,
}

// What a send copies onto a wheel stays small: a flit and its address in 48
// bytes, a credit in 8.
const _: () = assert!(std::mem::size_of::<FlitInFlight>() == 48);
const _: () = assert!(std::mem::size_of::<CreditInFlight>() == 8);

/// Per-tenant accounting state: the installed partition plus one
/// measurement window per slot (tenants, then the background slot), drained
/// by [`NocSimulation::take_tenant_windows`]. The span marks are absolute
/// shared-clock readings — the tenant span is tracked independently of the
/// global and per-island windows, so a control loop can drain all three
/// back to back each interval.
#[derive(Debug)]
struct TenantAccounting {
    map: TenantMap,
    windows: Vec<WindowMeasurement>,
    window_start_noc_cycles: u64,
    window_start_node_cycles: u64,
    window_start_wall_ps: f64,
}

/// A cycle-accurate simulation of one NoC under one traffic specification.
///
/// See the [crate-level documentation](crate) for an end-to-end example and
/// the sparse stepping engine's contract.
///
/// ```
/// use noc_sim::{Hertz, NetworkConfig, NocSimulation, RegionLayout, SyntheticTraffic,
///               TrafficPattern};
///
/// // A 4x4 mesh split into four voltage-frequency islands.
/// let cfg = NetworkConfig::builder()
///     .mesh(4, 4)
///     .virtual_channels(2)
///     .buffer_depth(4)
///     .packet_length(5)
///     .regions(RegionLayout::Quadrants)
///     .build()
///     .expect("valid configuration");
/// let traffic = SyntheticTraffic::new(TrafficPattern::Uniform, 0.1, cfg.packet_length());
/// let mut sim = NocSimulation::new(cfg, Box::new(traffic), 7);
/// assert_eq!(sim.island_count(), 4);
/// // Slow one island down; the rest keep running at the base rate.
/// sim.set_island_frequency(2, Hertz::from_mhz(500.0));
/// sim.run_cycles(2_000);
/// let islands = sim.take_island_windows();
/// assert!(islands[2].noc_cycles < islands[0].noc_cycles);
/// let total = sim.take_window();
/// let per_island: u64 = islands.iter().map(|w| w.flits_generated).sum();
/// assert_eq!(per_island, total.flits_generated);
/// ```
#[derive(Debug)]
pub struct NocSimulation {
    cfg: NetworkConfig,
    topo: Topology,
    routing: Box<dyn RoutingAlgorithm>,
    routers: Vec<Router>,
    sources: Vec<Source>,
    sink: Sink,
    traffic: Box<dyn TrafficSpec>,
    clock: DualClock,
    rng: StdRng,
    next_packet_id: u64,
    /// Every flit on a link or an injection channel, in the slot of its
    /// arrival cycle (injection shares the link latency).
    flits_in_flight: EventWheel<FlitInFlight>,
    /// Every credit on its way upstream, in the slot of its arrival cycle.
    credits_in_flight: EventWheel<CreditInFlight>,
    /// Flits in flight towards each router (links and injection): a router
    /// may only gate once this is zero, so no flit can arrive at a
    /// powered-down router.
    inbound_flits: Vec<u32>,
    /// Precomputed `(neighbour, neighbour_input_port)` per `(node, port)` —
    /// spares the per-cycle loops the mesh coordinate arithmetic.
    neighbor_table: Vec<[Option<(usize, usize)>; PORT_COUNT]>,
    totals: SimStats,
    window: WindowMeasurement,
    window_start_wall_ps: f64,
    window_start_node_cycles: u64,
    /// Reusable per-cycle traversal scratch (cleared before each router's
    /// SA/ST stage) — keeps the steady-state cycle loop allocation-free.
    scratch: TraversalOutput,
    /// Routers with buffered flits: the sparse engine's pipeline worklist.
    /// Invariant after every step: bit `n` set ⇔ `!routers[n].is_quiescent()`.
    active: NodeSet,
    /// Sources with queued flits: the sparse engine's injection worklist.
    /// Invariant after every step: bit `n` ⇒ `sources[n]` non-empty, and a
    /// non-empty source is pending unless it is fenced or parked.
    pending_sources: NodeSet,
    /// `true` (the default) → [`run_cycles`](Self::run_cycles) may jump the
    /// clock over provably event-free spans
    /// ([`set_event_skipping`](Self::set_event_skipping)).
    event_skip: bool,
    /// Base ticks absorbed by event-horizon jumps since the start of the
    /// run (diagnostic; each skipped tick still advanced every clock).
    skipped_cycles: u64,
    /// The voltage-frequency island partition (node → island).
    regions: RegionMap,
    /// Per-island clock-domain state, indexed by island id.
    islands: Vec<IslandDomain>,
    /// Per-island node-membership bitmasks (`island_masks[i][word]`), the
    /// sparse engine's gate for non-firing islands.
    island_masks: Vec<Vec<u64>>,
    /// Scratch: the union of the firing islands' masks, rebuilt on base
    /// ticks where at least one island does not fire.
    fire_words: Vec<u64>,
    /// Routers that left the active worklist, or whose gating window
    /// counters changed, since the last activity drain. Invariant: a router
    /// whose `RouterActivity` or gating window counters may be non-zero is
    /// in `active ∪ touched` — the activity drains visit only those.
    touched: NodeSet,
    /// The power-gating state machine (a structural no-op when the
    /// configuration leaves gating disabled). It also holds the per-island
    /// start of the current activity window, from which every router's
    /// `cycles` and open gated span are counted.
    gating: GatingController,
    /// Shared-clock marks at the start of the current island-window span
    /// (see [`take_island_windows`](Self::take_island_windows)).
    island_window_start_wall_ps: f64,
    island_window_start_node_cycles: u64,
    /// The fault-injection state machine, or `None` when the configuration
    /// injects no faults — the fault-free hot path then pays a single
    /// `is_some` check per cycle and remains bit-identical to builds that
    /// predate the fault subsystem.
    faults: Option<FaultState>,
    /// Reusable scratch for the fault transitions of one cycle.
    fault_transitions: Vec<FaultTransition>,
    /// Flits dropped by failed components since the start of the run — the
    /// `dropped` term of the fault-extended conservation ledger.
    total_dropped: u64,
    /// Per-tenant accounting, or `None` while no tenant map is installed —
    /// the single-tenant hot path then pays one `is_some` check per counted
    /// event and remains bit-identical to builds that predate the tenant
    /// subsystem.
    tenants: Option<TenantAccounting>,
    /// The telemetry layer, or `None` (the default) while none is installed
    /// — every probe site then pays one `is_some` branch, and installed
    /// probes are read-only observers (no RNG draws, no scheduling effect),
    /// so runs are bit-identical with telemetry on or off. Boxed because the
    /// layer is cold relative to the per-cycle state around it.
    telemetry: Option<Box<TelemetryState>>,
}

impl NocSimulation {
    /// Builds a simulation from a configuration and a traffic specification,
    /// using the routing algorithm the configuration selects
    /// ([`NetworkConfig::routing`] — dimension-ordered XY unless overridden).
    ///
    /// `seed` makes the run reproducible. The simulation starts with
    /// event-horizon skipping enabled (see
    /// [`set_event_skipping`](Self::set_event_skipping)).
    pub fn new(cfg: NetworkConfig, traffic: Box<dyn TrafficSpec>, seed: u64) -> Self {
        let routing = cfg.routing().algorithm();
        let topo = cfg.topology();
        let n = topo.node_count();
        let mut routers: Vec<Router> = (0..n).map(|node| Router::new(node, &cfg)).collect();
        if routing.wants_escape_classes() {
            // Escape-VC algorithms need the low/high VC-class split on every
            // router (meshes default to "all VCs in both classes"; the torus
            // dateline masks already have the escape shape).
            for router in &mut routers {
                router.split_vc_classes();
            }
        }
        let sources =
            (0..n).map(|node| Source::new(node, cfg.virtual_channels(), cfg.buffer_depth())).collect();
        let neighbor_table: Vec<[Option<(usize, usize)>; PORT_COUNT]> = (0..n)
            .map(|node| {
                let mut row = [None; PORT_COUNT];
                for (port, entry) in row.iter_mut().enumerate() {
                    if port == LOCAL_PORT {
                        continue;
                    }
                    let dir = Direction::from_index(port);
                    *entry = topo.neighbor(node, dir).map(|nb| (nb, dir.opposite().index()));
                }
                row
            })
            .collect();
        let clock = DualClock::new(cfg.node_frequency(), cfg.max_frequency());
        let flits_in_flight = EventWheel::new(cfg.link_latency());
        let credits_in_flight = EventWheel::new(cfg.credit_latency());
        let regions = cfg.region_map();
        let islands = vec![
            IslandDomain {
                frequency_hz: cfg.max_frequency().as_hz(),
                ratio: 1.0,
                acc: 0.0,
                fires: false,
                local_cycle: 0,
                window: WindowMeasurement::default(),
            };
            regions.island_count()
        ];
        let island_masks = regions.word_masks();
        let words = n.div_ceil(64);
        let gating = GatingController::new(cfg.gating(), &regions);
        let faults =
            cfg.faults().is_enabled().then(|| FaultState::new(cfg.faults(), &topo, seed));
        NocSimulation {
            cfg,
            topo,
            routing,
            routers,
            sources,
            sink: Sink::new(),
            traffic,
            clock,
            rng: StdRng::seed_from_u64(seed),
            next_packet_id: 0,
            flits_in_flight,
            credits_in_flight,
            inbound_flits: vec![0; n],
            neighbor_table,
            totals: SimStats::new(),
            window: WindowMeasurement::default(),
            window_start_wall_ps: 0.0,
            window_start_node_cycles: 0,
            scratch: TraversalOutput::default(),
            active: NodeSet::new(n),
            pending_sources: NodeSet::new(n),
            event_skip: true,
            skipped_cycles: 0,
            touched: NodeSet::new(n),
            regions,
            islands,
            island_masks,
            fire_words: vec![0; words],
            island_window_start_wall_ps: 0.0,
            island_window_start_node_cycles: 0,
            gating,
            faults,
            fault_transitions: Vec::new(),
            total_dropped: 0,
            tenants: None,
            telemetry: None,
        }
    }

    /// Advances the simulation by `cycles` NoC clock cycles.
    ///
    /// With event-horizon skipping enabled (the default, see
    /// [`set_event_skipping`](Self::set_event_skipping)) quiescent spans are
    /// jumped over instead of stepped through; the result is bit-identical
    /// either way. A call that owes at least 2²⁰ packet draws (cycles × node
    /// cycles per NoC cycle × nodes), starts on a node cycle its traffic
    /// spec does not declare silent, and runs where a second core exists
    /// makes those draws on a helper thread while it steps; the result is
    /// bit-identical to any split of the same cycles into shorter calls.
    pub fn run_cycles(&mut self, cycles: u64) {
        self.run_cycles_with_workers(cycles, 1);
    }

    /// [`run_cycles`](Self::run_cycles) with the router pipelines of
    /// different voltage-frequency islands stepped on `workers` scoped
    /// threads (the `threaded` driver). The per-tick phases before and
    /// after the pipeline run on the calling thread and islands exchange
    /// data only through the wheels those phases drain, so the
    /// result is bit-identical to `run_cycles` (pinned by the parity
    /// differential tests). The count is clamped to the island count; `1`
    /// runs the ordinary serial step.
    pub fn run_cycles_with_workers(&mut self, cycles: u64, workers: usize) {
        let workers = workers.min(self.islands.len());
        if workers > 1 {
            self.run_cycles_parallel(cycles, workers);
        } else {
            self.run_with(cycles, Self::pipeline_phase);
        }
    }

    /// The cycle loop of both drivers: horizon jumps where allowed, full
    /// steps otherwise, with `pipeline` standing in for phase 4. A call long
    /// enough lends the traffic spec to a helper thread for its duration
    /// (`ahead`).
    fn run_with(&mut self, cycles: u64, mut pipeline: impl FnMut(&mut Self, Tick)) {
        if !self.generation_runs_ahead(cycles) {
            return self.run_loop(cycles, &mut pipeline, &mut None);
        }
        std::thread::scope(|scope| {
            let mut ahead = Some(Ahead::lend(scope, self, cycles));
            self.run_loop(cycles, &mut pipeline, &mut ahead);
            if let Some(ahead) = ahead {
                ahead.give_back(self);
            }
        });
    }

    fn run_loop(
        &mut self,
        cycles: u64,
        pipeline: &mut impl FnMut(&mut Self, Tick),
        ahead: &mut Option<Ahead<'_>>,
    ) {
        // Resolved once per run call: installing telemetry mid-run is not
        // observable (the public API only exposes cycle boundaries).
        let telemetry_on = self.telemetry.is_some();
        let mut remaining = cycles;
        while remaining > 0 {
            if self.event_skip {
                let t0 = self.profiling().then(Instant::now);
                remaining -= self.skip_quiescent_ticks(remaining, ahead);
                if let (Some(t0), Some(t)) = (t0, self.telemetry.as_deref_mut()) {
                    t.profile_mut().skip_ns += t0.elapsed().as_nanos() as u64;
                }
                if remaining == 0 {
                    break;
                }
            }
            self.step_with(&mut *pipeline, ahead);
            remaining -= 1;
            if telemetry_on {
                self.telemetry_step_tick();
            }
        }
    }

    /// One full step: phases 1–3, `pipeline` as phase 4, phases 5–6 — the
    /// same sequence for both drivers, so the profiler's `pre` / `pipeline`
    /// / `post` buckets mean the same thing under either. Wall-clock
    /// reads between the phases observe the step, they never feed back into
    /// it.
    #[inline]
    fn step_with(&mut self, pipeline: impl FnOnce(&mut Self, Tick), ahead: &mut Option<Ahead<'_>>) {
        let t0 = self.profiling().then(Instant::now);
        let tick = self.pre_pipeline_phases(ahead);
        let t1 = t0.map(|_| Instant::now());
        pipeline(self, tick);
        let t2 = t0.map(|_| Instant::now());
        self.post_pipeline_phases(tick);
        if let (Some(t0), Some(t1), Some(t2)) = (t0, t1, t2) {
            let profile =
                self.telemetry.as_deref_mut().expect("profiling implies telemetry").profile_mut();
            profile.steps += 1;
            profile.pre_ns += (t1 - t0).as_nanos() as u64;
            profile.pipeline_ns += (t2 - t1).as_nanos() as u64;
            profile.post_ns += t2.elapsed().as_nanos() as u64;
        }
    }

    /// Whether the wall-clock engine profile is being collected.
    fn profiling(&self) -> bool {
        self.telemetry.as_deref().is_some_and(|t| t.profiling())
    }

    /// Jumps the clock over base ticks that provably do nothing, up to
    /// `remaining` of them, and returns how many were absorbed.
    ///
    /// A base tick is *dead* — a full step would change
    /// nothing but the clocks — exactly when all of the following hold, and
    /// this routine only skips ticks for which it can prove them up front:
    ///
    /// * **No buffered or queued flit.** The active-router and
    ///   pending-source worklists are empty (checked once: dead ticks cannot
    ///   repopulate them). Sources parked behind a dead router or a gating
    ///   fence hold flits but do nothing per tick either way; the events
    ///   that un-park them (fault recovery, wakeup completion) are horizon
    ///   events below.
    /// * **No channel delivery due.** The two wheels hold everything in
    ///   flight, so their earliest occupied slot *is* the earliest arrival
    ///   (`EventWheel::earliest_due`).
    /// * **No gating transition due.** DrainWait is empty (its completion
    ///   depends on per-tick channel state, so it pins base-tick stepping),
    ///   and each island's earliest sleep/wake due is converted to base
    ///   ticks conservatively: an island advances at most one domain cycle
    ///   per base tick, so a due `d` cycles ahead in island time is at least
    ///   `d` base ticks away. Landing early is safe — the step finds
    ///   nothing due and the next jump re-derives a tighter horizon.
    /// * **No fault event due.** The next scheduled fault transition bounds
    ///   the horizon; per-cycle hazard draws disable skipping entirely
    ///   (every tick must then draw from the fault RNG).
    /// * **No RNG draw owed.** Packet generation owes its draws for every
    ///   node-clock cycle, so a tick is only skipped if it emits zero node
    ///   cycles ([`DualClock::peek_advance`], bit-exact) **or** the traffic
    ///   specification declares those node cycles draw-free
    ///   ([`TrafficSpec::silent_node_cycles`]); skipped node cycles are
    ///   reported back via [`TrafficSpec::skip_node_cycles`] so stateful
    ///   specifications stay in sync. While a helper holds the spec
    ///   (`ahead`), it has proven every tick it generates non-silent, so no
    ///   silent node cycle is granted; once it has stopped, the spec comes
    ///   back here first.
    ///
    /// Each skipped tick performs exactly the state updates a fully dead
    /// step would: the shared clock advances (same float operations, same
    /// order), the measurement window counts the tick, and every island
    /// divider accrues — so windows, RNG streams and island phases stay
    /// bit-identical to base-tick stepping.
    fn skip_quiescent_ticks(&mut self, remaining: u64, ahead: &mut Option<Ahead<'_>>) -> u64 {
        if remaining < 2 {
            return 0;
        }
        if self.active.words.iter().any(|&w| w != 0)
            || self.pending_sources.words.iter().any(|&w| w != 0)
        {
            return 0;
        }
        if self.gating.enabled && !self.gating.drain_wait_empty() {
            return 0;
        }
        if self.faults.as_ref().is_some_and(|f| f.hazard_draws_per_cycle()) {
            return 0;
        }
        let now = self.clock.noc_cycle();
        // The event horizon: the earliest future cycle on which anything can
        // possibly happen. Every bound below is conservative (an event can
        // land later than its bound, never earlier).
        let mut horizon =
            self.flits_in_flight.earliest_due(now).min(self.credits_in_flight.earliest_due(now));
        if let Some(faults) = self.faults.as_ref() {
            horizon = horizon.min(faults.next_scheduled_due());
        }
        if self.gating.enabled {
            for (island, domain) in self.islands.iter().enumerate() {
                let due = self.gating.earliest_due(island);
                if due != u64::MAX {
                    // ≤ 1 domain cycle per base tick ⇒ ≥ (due − local) base
                    // ticks until the island can reach its due cycle.
                    horizon = horizon.min(now.saturating_add(due.saturating_sub(domain.local_cycle)));
                }
            }
        }
        if horizon <= now + 1 {
            return 0;
        }
        // Dead ticks cover cycles `now+1 ..= now+max_dead`; the next full
        // step (if any remains) lands exactly on the horizon.
        let max_dead = remaining.min(horizon - now - 1);
        let mut silent_budget = if self.helper_holds_spec(ahead) {
            0
        } else {
            self.traffic.silent_node_cycles(self.clock.node_cycles_emitted())
        };
        let mut skipped = 0u64;
        let mut node_cycles_skipped = 0u64;
        while skipped < max_dead {
            let emitted = self.clock.peek_advance();
            if emitted > 0 && silent_budget != u64::MAX {
                if emitted > silent_budget {
                    break;
                }
                silent_budget -= emitted;
            }
            self.clock.advance_noc_cycle();
            self.window.noc_cycles += 1;
            advance_island_clocks(&mut self.islands);
            skipped += 1;
            node_cycles_skipped += emitted;
        }
        if node_cycles_skipped > 0 {
            self.traffic.skip_node_cycles(node_cycles_skipped);
        }
        self.skipped_cycles += skipped;
        if skipped > 0 {
            if let Some(t) = self.telemetry.as_deref_mut() {
                t.record_horizon_jump(now, skipped);
            }
        }
        skipped
    }
}
