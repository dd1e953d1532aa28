//! Phase 4, the router pipelines: **one kernel, one effects path**.
//!
//! [`tick_router`] is the only place a router's cycle is spelled out — the
//! fence mask, SA/ST, VA, RC, the telemetry probe and the quiescence test.
//! It reads a [`PipelineView`] (state nobody writes during the phase), writes
//! a [`NodeLanes`] (state only this router's tick writes), sends nothing, and
//! leaves everything that touches shared state in the [`TraversalOutput`] it
//! filled. [`Effects::apply`] is the only place
//! those leftovers — the flits and credits that go onto the wheels, wakeup
//! requests, drop and ejection tallies, sink acceptance, worklist and
//! idle-span updates — are applied.
//!
//! The two steppers are drivers of that pair and visit the same nodes — the
//! active bitset, masked to the firing islands. They differ only in *when
//! the effects are applied*: the serial driver
//! ([`NocSimulation::pipeline_phase`]) applies each node's at once; island
//! workers park each node's output for the main thread to apply in ascending
//! node order (see [`threaded`](super::threaded)). Only the active bitset
//! hands the kernel a router, and a dead router is never on it (its death
//! clears the bit, and no flit is delivered to it since): the dead-router
//! clause of [`NocSimulation::check_invariants`] holds the engine to that.

use super::islands::IslandDomain;
use super::worklist::{EventWheel, NodeSet};
use super::{
    CreditInFlight, FlitInFlight, NocSimulation, TenantAccounting, Tick, WindowMeasurement,
};
use crate::fault::FaultState;
use crate::gating::GatingController;
use crate::router::{Router, TraversalOutput, LOCAL_PORT};
use crate::routing::RoutingAlgorithm;
use crate::sink::Sink;
use crate::stats::SimStats;
use crate::telemetry::RouterProbe;
use crate::topology::{Topology, PORT_COUNT};

/// `(neighbour, neighbour_input_port)` per `(node, port)`.
pub(super) type NeighborTable = [[Option<(usize, usize)>; PORT_COUNT]];

/// What the pipeline phase of one tick reads and nothing writes until the
/// phase is over — safe to share between island workers.
pub(super) struct PipelineView<'a> {
    fault_block: bool,
    /// Whether any fence (gating or fault) is up this tick.
    fencing: bool,
    topo: &'a Topology,
    routing: &'a dyn RoutingAlgorithm,
    /// [`RoutingAlgorithm::route_is_static`], asked once per tick.
    static_route: bool,
    neighbor_table: &'a NeighborTable,
    faults: Option<&'a FaultState>,
}

impl<'a> PipelineView<'a> {
    pub(super) fn new(
        tick: Tick,
        topo: &'a Topology,
        routing: &'a dyn RoutingAlgorithm,
        neighbor_table: &'a NeighborTable,
        faults: Option<&'a FaultState>,
    ) -> Self {
        PipelineView {
            fault_block: tick.fault_block,
            fencing: tick.gate_fencing || tick.fault_block,
            topo,
            routing,
            static_route: routing.route_is_static(),
            neighbor_table,
            faults,
        }
    }
}

/// The state one router's tick writes and no other router's tick touches:
/// the router and its telemetry probe slot.
pub(super) struct NodeLanes<'a> {
    pub(super) router: &'a mut Router,
    pub(super) probe: Option<&'a mut RouterProbe>,
}

/// How a router's tick ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(super) enum Visit {
    /// The router still buffers flits and stays on the worklist.
    #[default]
    Busy,
    /// The router buffers nothing any more: it leaves the worklist and,
    /// under gating, starts its idle span.
    Drained,
}

/// One router's cycle: SA/ST, then VA, then RC (reverse order, so a flit
/// advances at most one stage per cycle). Nothing is sent here: the flits
/// and credits the router emits stay in `out`, with every other effect on
/// shared state, for [`Effects::apply`].
///
/// `inline(always)`, here and on [`Effects::apply`]: with more than one
/// driver calling them the plain hint is not taken, and an out-of-line call
/// per router per tick measured 3–4 % on loaded fabrics.
#[inline(always)]
pub(super) fn tick_router(
    view: &PipelineView<'_>,
    gating: &GatingController,
    node: usize,
    lanes: NodeLanes<'_>,
    out: &mut TraversalOutput,
) -> Visit {
    out.clear();
    let fault_ports =
        if view.fault_block { view.faults.map_or(0, |f| f.blocked_ports(node)) } else { 0 };
    let fence =
        if view.fencing { fault_ports | fence_mask(view.neighbor_table, gating, node) } else { 0 };
    let router = lanes.router;
    router.sa_st_stage_fenced(out, fence);
    router.va_stage();
    router.rc_stage_blocked(view.topo, view.routing, fault_ports, view.static_route);
    if let Some(probe) = lanes.probe {
        // Read-only probe of the traversal output and post-stage stall
        // state, at the same pipeline point under every driver.
        probe.record(out, fence, router);
    }
    if cfg!(debug_assertions) {
        router.debug_check_derived();
    }
    if router.is_quiescent() {
        Visit::Drained
    } else {
        Visit::Busy
    }
}

/// The shared state the pipeline phase writes: everything a router's tick
/// changes outside its own [`NodeLanes`]. Held by exactly one thread.
pub(super) struct Effects<'a> {
    tick: Tick,
    neighbor_table: &'a NeighborTable,
    island_of: &'a [u32],
    islands: &'a mut [IslandDomain],
    gating: &'a mut GatingController,
    active: &'a mut NodeSet,
    touched: &'a mut NodeSet,
    flits_in_flight: &'a mut EventWheel<FlitInFlight>,
    credits_in_flight: &'a mut EventWheel<CreditInFlight>,
    inbound_flits: &'a mut [u32],
    sink: &'a mut Sink,
    totals: &'a mut SimStats,
    window: &'a mut WindowMeasurement,
    tenants: Option<&'a mut TenantAccounting>,
    total_dropped: &'a mut u64,
}

impl Effects<'_> {
    /// Applies what `node`'s tick left in `out`. Called in ascending node
    /// order by every driver, so wheel slot order, wakeup order, sink
    /// acceptance order and every floating-point window sum are the same
    /// whichever driver ran the kernel.
    #[inline(always)]
    pub(super) fn apply(&mut self, node: usize, visit: Visit, out: &TraversalOutput) {
        let island = self.island_of[node] as usize;
        if self.gating.enabled && out.fenced_ports != 0 {
            // A ready flit was held back by a fence: wake the sleeping
            // neighbour(s) it is destined for. (Fault fences wake nothing —
            // `request_wakeup` ignores routers that are not gated.)
            let mut fenced = out.fenced_ports;
            while fenced != 0 {
                let port = fenced.trailing_zeros() as usize;
                fenced &= fenced - 1;
                let (nbr, _) = self.neighbor_table[node][port]
                    .expect("a fenced port implies a neighbouring router");
                let cycle = self.islands[self.island_of[nbr] as usize].local_cycle;
                if self.gating.request_wakeup(nbr, cycle) {
                    self.touched.insert(nbr);
                }
            }
        }
        if out.dropped > 0 || !out.ejected.is_empty() {
            self.tally(node, island, out);
        }
        // The sends: each flit and credit goes onto its wheel addressed to
        // its receiver, looked up once, here.
        for outgoing in &out.outgoing {
            let (dest, in_port) = self.neighbor_table[node][outgoing.out_port]
                .expect("router only routes towards existing links");
            self.inbound_flits[dest] += 1;
            self.flits_in_flight.send(
                self.tick.now,
                FlitInFlight { dest: dest as u32, in_port: in_port as u8, flit: outgoing.flit },
            );
        }
        for credit in &out.credits {
            let to = credit_receiver(self.neighbor_table, node, credit.in_port, credit.vc);
            self.credits_in_flight.send(self.tick.now, to);
        }
        if visit == Visit::Drained {
            self.active.set_to(node, false);
            self.touched.insert(node);
            if self.gating.enabled && !self.gating.idle[node] {
                // The router just drained: start its idle span (a router
                // already marked idle must not restart it).
                self.gating.mark_idle(node, self.islands[island].local_cycle);
            }
        }
    }

    /// Counts `node`'s drops and ejections in the global, island and tenant
    /// windows and hands the ejected flits to the sink.
    fn tally(&mut self, node: usize, island: usize, out: &TraversalOutput) {
        let mut tenant_window =
            self.tenants.as_deref_mut().map(|t| &mut t.windows[t.map.slot_of(node) as usize]);
        let island_window = &mut self.islands[island].window;
        if out.dropped > 0 {
            *self.total_dropped += out.dropped;
            self.window.flits_dropped += out.dropped;
            island_window.flits_dropped += out.dropped;
            if let Some(tw) = tenant_window.as_deref_mut() {
                tw.flits_dropped += out.dropped;
            }
        }
        for flit in &out.ejected {
            self.window.flits_ejected += 1;
            island_window.flits_ejected += 1;
            if let Some(tw) = tenant_window.as_deref_mut() {
                tw.flits_ejected += 1;
            }
            if let Some(rec) = self.sink.accept(flit, self.tick.now, self.tick.wall_ps) {
                self.totals.record(&rec);
                for w in [&mut *self.window, &mut *island_window]
                    .into_iter()
                    .chain(tenant_window.as_deref_mut())
                {
                    w.packets_ejected += 1;
                    w.latency_cycles_sum += rec.latency_cycles;
                    w.delay_ps_sum += rec.delay_ps;
                }
            }
        }
    }
}

/// Where a credit for input `in_port` of `node` goes: the output of the
/// upstream router that feeds the port, or the node's own source.
#[inline]
pub(super) fn credit_receiver(
    neighbor_table: &NeighborTable,
    node: usize,
    in_port: usize,
    vc: usize,
) -> CreditInFlight {
    let (target, out_port) = if in_port == LOCAL_PORT {
        (node, LOCAL_PORT)
    } else {
        neighbor_table[node][in_port].expect("credits only flow towards real neighbours")
    };
    CreditInFlight { target: target as u32, out_port: out_port as u8, vc: vc as u8 }
}

/// The per-router fence mask: bits of output ports whose downstream router
/// is power-gated or still waking. Computed only on cycles where at least
/// one router is fenced; fault fences (failed links / dead neighbours) are
/// ORed in separately from the cached
/// [`FaultState::blocked_ports`](crate::fault::FaultState::blocked_ports)
/// masks.
#[inline]
fn fence_mask(neighbor_table: &NeighborTable, gating: &GatingController, node: usize) -> u8 {
    if !gating.enabled || gating.fenced_count == 0 {
        return 0;
    }
    let mut fence = 0u8;
    for (port, entry) in neighbor_table[node].iter().enumerate() {
        if let Some((nbr, _)) = entry {
            if gating.states[*nbr].is_fenced() {
                fence |= 1u8 << port;
            }
        }
    }
    fence
}

/// One tick's pipeline phase as the calling thread runs it — the disjoint
/// borrows of the simulation it needs: what the kernel reads, the per-node
/// arrays it writes, the shared state the effects path writes, and the
/// traversal scratch and fire mask of the serial driver.
pub(super) struct SerialPipeline<'a> {
    view: PipelineView<'a>,
    routers: &'a mut [Router],
    probes: Option<&'a mut [RouterProbe]>,
    pub(super) fx: Effects<'a>,
    scratch: &'a mut TraversalOutput,
    fire_words: &'a [u64],
}

impl SerialPipeline<'_> {
    /// The kernel on `node`, its effects applied at once.
    #[inline(always)]
    fn visit(&mut self, node: usize) {
        let lanes = NodeLanes {
            router: &mut self.routers[node],
            probe: self.probes.as_deref_mut().map(|p| &mut p[node]),
        };
        let visit = tick_router(&self.view, self.fx.gating, node, lanes, self.scratch);
        self.fx.apply(node, visit, self.scratch);
    }
}

impl NocSimulation {
    /// Splits the simulation into the borrows of the pipeline phase.
    pub(super) fn serial_pipeline(&mut self, tick: Tick) -> SerialPipeline<'_> {
        let NocSimulation {
            topo,
            routing,
            routers,
            sink,
            flits_in_flight,
            credits_in_flight,
            inbound_flits,
            neighbor_table,
            totals,
            window,
            scratch,
            active,
            touched,
            regions,
            islands,
            fire_words,
            gating,
            faults,
            total_dropped,
            tenants,
            telemetry,
            ..
        } = self;
        SerialPipeline {
            view: PipelineView::new(tick, topo, &**routing, neighbor_table, faults.as_ref()),
            routers,
            probes: telemetry.as_deref_mut().map(|t| t.routers.as_mut_slice()),
            fx: Effects {
                tick,
                neighbor_table,
                island_of: regions.assignments(),
                islands,
                gating,
                active,
                touched,
                flits_in_flight,
                credits_in_flight,
                inbound_flits,
                sink,
                totals,
                window,
                tenants: tenants.as_mut(),
                total_dropped,
            },
            scratch,
            fire_words,
        }
    }

    /// Phase 4 on the calling thread: the kernel over the active worklist,
    /// each node's effects applied at once, in ascending node order.
    /// Flit arrival (phase 5) re-inserts a drained router; routers of
    /// non-firing islands are masked out and stay active.
    pub(super) fn pipeline_phase(&mut self, tick: Tick) {
        let mut p = self.serial_pipeline(tick);
        for widx in 0..p.fx.active.words.len() {
            let gate = if tick.all_fire { u64::MAX } else { p.fire_words[widx] };
            let mut w = p.fx.active.words[widx] & gate;
            while w != 0 {
                let node = (widx << 6) | w.trailing_zeros() as usize;
                w &= w - 1;
                p.visit(node);
            }
        }
    }
}
