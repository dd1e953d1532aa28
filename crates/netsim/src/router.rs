//! The input-queued virtual-channel router.
//!
//! Each router implements the canonical four-stage VC router pipeline:
//!
//! 1. **RC** — route computation for head flits,
//! 2. **VA** — virtual-channel allocation (separable, input-first),
//! 3. **SA** — switch allocation (separable, input-first),
//! 4. **ST** — switch traversal followed by link traversal.
//!
//! Flow control is credit-based: an output virtual channel may only forward a
//! flit when the downstream input buffer is known to have space. The router
//! records switching activity ([`RouterActivity`]) so that the power model can
//! convert simulated behaviour into milliwatts, mirroring the paper's
//! activity-driven power estimation flow.

use crate::activity::RouterActivity;
use crate::allocator::SeparableAllocator;
use crate::buffer::VcBuffer;
use crate::config::NetworkConfig;
use crate::flit::Flit;
use crate::routing::RoutingAlgorithm;
use crate::topology::{Topology, TopologyKind, PORT_COUNT};

/// Port index of the local (injection/ejection) port.
pub const LOCAL_PORT: usize = 4;

/// The most virtual channels a port can have: per-port VC sets are `u64`
/// masks, matching the allocator's arbiter limit.
const MAX_VCS: usize = 64;

/// Per-virtual-channel control state on the input side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VcState {
    /// No packet is using this VC.
    Idle,
    /// A head flit is waiting for route computation.
    Routing,
    /// The route is known; waiting for an output VC.
    VcAllocation,
    /// Output VC assigned; flits compete for the switch.
    Active,
    /// The VC received body/tail flits without a head (the packet's earlier
    /// flits died in a failed component upstream): the orphaned remainder is
    /// discarded flit by flit — with normal credit returns, so upstream flow
    /// control stays exact — until a head flit reaches the front.
    Draining,
}

#[derive(Debug)]
struct InputVc {
    state: VcState,
    buffer: VcBuffer,
    /// Output port chosen by RC (narrow on purpose: ports fit in a `u8` and
    /// the smaller `InputVc` keeps more VC state per cache line).
    out_port: Option<u8>,
    /// Downstream VC assigned by VA.
    out_vc: Option<u8>,
    /// Dateline VC class required downstream (set by RC; always 0 on a mesh).
    next_class: u8,
}

impl InputVc {
    fn new() -> Self {
        InputVc {
            state: VcState::Idle,
            buffer: VcBuffer::new(),
            out_port: None,
            out_vc: None,
            next_class: 0,
        }
    }
}

/// [`OutputVc::owner`] of an output VC no input VC of this router holds: a
/// free one, or one retired by [`Router::resync_output`].
const NO_OWNER: u16 = u16::MAX;

#[derive(Debug, Clone, Copy)]
struct OutputVc {
    /// Free slots of the downstream buffer: at most the buffer depth, which
    /// [`Router::new`] checks fits.
    credits: u32,
    allocated: bool,
    /// Derived: the `Active` input VC this output VC is allocated to, as
    /// `(port << 8) | vc`, so that a returning credit finds the
    /// [`DerivedState::credit_ok`] bit it may have to set without a division
    /// by the VC count. Sits in what was padding, so the credit path touches
    /// no cache line it did not touch before.
    owner: u16,
}

/// The [`OutputVc::owner`] tag of input VC (`port`, `vc`).
#[inline]
fn owner_tag(port: usize, vc: usize) -> u16 {
    ((port << 8) | vc) as u16
}

/// A flit leaving the router towards a neighbouring router.
#[derive(Debug, Clone)]
pub struct OutgoingFlit {
    /// Output port (direction index) the flit leaves through.
    pub out_port: usize,
    /// The flit itself, with `vc` set to the downstream virtual channel.
    pub flit: Flit,
}

/// A credit to return upstream: the router freed one slot of input
/// port `in_port`, virtual channel `vc`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CreditReturn {
    /// Input port whose buffer slot was freed.
    pub in_port: usize,
    /// Virtual channel whose buffer slot was freed.
    pub vc: usize,
}

/// Everything produced by one switch-allocation / switch-traversal step.
///
/// The simulation driver owns one `TraversalOutput` and reuses it for every
/// router every cycle ([`clear`](Self::clear) resets the lists but keeps the
/// capacity), so the steady-state pipeline performs no heap allocation.
#[derive(Debug, Default)]
pub struct TraversalOutput {
    /// Flits sent towards neighbouring routers.
    pub outgoing: Vec<OutgoingFlit>,
    /// Credits to return to upstream routers (or to the local source).
    pub credits: Vec<CreditReturn>,
    /// Flits delivered to the local node.
    pub ejected: Vec<Flit>,
    /// Output ports with at least one buffered flit that
    /// [`sa_st_stage_fenced`](Router::sa_st_stage_fenced) held back because
    /// the port was fenced (its downstream router is power-gated, waking, or
    /// failed). The driver raises a wakeup request towards each such
    /// neighbour (a no-op for failed ones).
    pub fenced_ports: u8,
    /// Orphaned flits discarded this step by [`VcState::Draining`] input VCs
    /// (their packet's head died in a failed component upstream). The driver
    /// adds them to its dropped-flit ledger.
    pub dropped: u64,
}

impl TraversalOutput {
    /// Empties all three lists (retaining their capacity for reuse) and
    /// clears the fenced-port mask and dropped-flit count.
    pub fn clear(&mut self) {
        self.outgoing.clear();
        self.credits.clear();
        self.ejected.clear();
        self.fenced_ports = 0;
        self.dropped = 0;
    }
}

/// What the router keeps incrementally although it is a pure function of the
/// per-VC state (each input VC's control state, buffer, route and output VC;
/// each output VC's credits and `allocated` flag): per-port bitmasks, bit
/// `vc` for VC `vc` of that port, and the counts that go with them. Together
/// with [`OutputVc::owner`] this is the router's *derived* state. Every
/// place that changes the per-VC state updates it; [`Router::derive`]
/// recomputes it from scratch, which is how a checkpoint restore rebuilds it
/// and how debug builds check it after every tick.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct DerivedState {
    /// Input VCs in the `Routing` state.
    routing_mask: [u64; PORT_COUNT],
    /// Input VCs in the `VcAllocation` state.
    va_mask: [u64; PORT_COUNT],
    /// Input VCs in the `Active` state.
    active_mask: [u64; PORT_COUNT],
    /// Input VCs in the `Draining` state (orphaned packet remainders being
    /// discarded after an upstream failure).
    drain_mask: [u64; PORT_COUNT],
    /// Output VCs *not* allocated to a packet.
    free_out_mask: [u64; PORT_COUNT],
    /// Input VCs holding at least one flit. Set by
    /// [`accept_flit`](Router::accept_flit), cleared by the pop that empties
    /// the buffer.
    nonempty: [u64; PORT_COUNT],
    /// `Active` input VCs whose output VC has a credit (always, towards the
    /// local port). Set by the VA grant and by
    /// [`accept_credit`](Router::accept_credit), cleared by the SA grant that
    /// spends the last credit and by the tail's release. A switch request is
    /// exactly `active_mask & nonempty & credit_ok`.
    credit_ok: [u64; PORT_COUNT],
    /// Number of VCs in the `Routing` state across all ports — lets
    /// [`rc_stage`](Router::rc_stage) return without scanning the per-port
    /// masks in the common streaming case (body flits flowing, no new head).
    routing_pending: u32,
    /// Number of VCs in the `VcAllocation` state across all ports (same role
    /// for [`va_stage`](Router::va_stage)).
    va_pending: u32,
    /// Total flits currently buffered (lets idle routers skip their pipeline
    /// stages cheaply).
    buffered: usize,
}

impl DerivedState {
    /// The derived state of a router of `vcs` VCs per port that holds no
    /// flit and no packet.
    fn idle(vcs: usize) -> Self {
        DerivedState { free_out_mask: [u64::MAX >> (64 - vcs); PORT_COUNT], ..Self::default() }
    }
}

/// The output port a head parked in `VcAllocation` was routed to, and the
/// free output VCs it may be given there.
#[inline]
fn va_candidates(
    free_out_mask: &[u64; PORT_COUNT],
    class_masks: &[u64; 2],
    input: &InputVc,
) -> (usize, u64) {
    let out_port = input.out_port.expect("out_port set during RC") as usize;
    let mut free = free_out_mask[out_port];
    if out_port != LOCAL_PORT {
        // Dateline discipline: inter-router links only hand out VCs of the
        // packet's class (no-op on a mesh, where both class masks cover
        // every VC).
        free &= class_masks[usize::from(input.next_class)];
    }
    (out_port, free)
}

/// Of the input VCs `waiting` on the port whose VCs start at `inputs[base]`,
/// those routed to an output port in `fence`, and the fenced ports they head
/// for. The only per-VC walk switch allocation and the stall census make,
/// and only while a fence is up.
#[inline]
fn held_by_fence(inputs: &[InputVc], base: usize, waiting: u64, fence: u8) -> (u64, u8) {
    let (mut held, mut ports) = (0u64, 0u8);
    let mut mask = if fence == 0 { 0 } else { waiting };
    while mask != 0 {
        let vc = mask.trailing_zeros() as usize;
        mask &= mask - 1;
        let out_port = 1u8 << inputs[base + vc].out_port.expect("active VC has a route");
        if fence & out_port != 0 {
            held |= 1u64 << vc;
            ports |= out_port;
        }
    }
    (held, ports)
}

/// One mesh router.
///
/// # Scratch-buffer contract
///
/// The router's only per-round scratch is the grant buffer inside each of
/// its two allocators; the request sets they arbitrate over are bitmasks the
/// router keeps up to date as flits and credits arrive and leave (see
/// [`sa_st_stage_fenced`](Self::sa_st_stage_fenced)). Callers provide the
/// [`TraversalOutput`] that [`sa_st_stage`](Self::sa_st_stage) appends into
/// and are responsible for clearing it between routers/cycles; the router
/// never clears it, so one buffer can also accumulate output across several
/// routers if desired.
///
/// # Performance
///
/// Input and output VC state lives in flat `Vec`s indexed by
/// `port * vcs + vc`, and every pipeline stage walks per-port bitmasks
/// instead of scanning all `PORT_COUNT × vcs` VC slots, so a stage's cost is
/// proportional to the number of VCs that actually need work that cycle —
/// and switch allocation, the stage that runs for every buffered flit, reads
/// its requests off three masks without visiting a VC at all. At most 64 VCs
/// per port are supported (the masks are `u64`, matching the allocator's
/// arbiter limit).
#[derive(Debug)]
pub struct Router {
    node: usize,
    vcs: usize,
    /// Flits every input VC buffer holds, here and downstream — kept once
    /// rather than in each of the `PORT_COUNT × vcs` buffers.
    depth: u32,
    /// Input VC state, flat-indexed by `port * vcs + vc`.
    inputs: Vec<InputVc>,
    /// Output VC state, flat-indexed by `port * vcs + vc`.
    outputs: Vec<OutputVc>,
    vc_allocator: SeparableAllocator,
    sw_allocator: SeparableAllocator,
    out_vc_rr: [usize; PORT_COUNT],
    derived: DerivedState,
    /// Dateline VC-class masks: `class_masks[c]` is the set of output VCs a
    /// packet in class `c` may be assigned on an inter-router link. On a mesh
    /// both masks cover every VC (no restriction); on a torus class 0 owns
    /// the lower half and class 1 the upper half, which breaks the in-ring
    /// channel-dependency cycles of wrap-around routes.
    class_masks: [u64; 2],
    activity: RouterActivity,
}

impl Router {
    /// Creates a router for mesh node `node` using the buffer/VC parameters
    /// of `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration asks for more than 64 virtual channels
    /// (the per-port state bitmasks are 64 bits wide) or for buffers deeper
    /// than a 32-bit credit counter can count.
    pub fn new(node: usize, cfg: &NetworkConfig) -> Self {
        let vcs = cfg.virtual_channels();
        assert!(vcs <= MAX_VCS, "router supports at most 64 virtual channels per port");
        let depth = u32::try_from(cfg.buffer_depth()).expect("buffer depth fits a 32-bit credit");
        let inputs = (0..PORT_COUNT * vcs).map(|_| InputVc::new()).collect();
        let free_output = OutputVc { credits: depth, allocated: false, owner: NO_OWNER };
        let derived = DerivedState::idle(vcs);
        let all_vcs_free = derived.free_out_mask[0];
        let class_masks = match cfg.topology_kind() {
            TopologyKind::Mesh => [all_vcs_free, all_vcs_free],
            TopologyKind::Torus => {
                // Class 0 carries the bulk of the traffic (everything before
                // a dateline crossing), so it gets the larger share when the
                // VC count is odd. `NetworkConfig` guarantees vcs >= 2.
                let low = (1u64 << vcs.div_ceil(2)) - 1;
                [low, all_vcs_free & !low]
            }
        };
        Router {
            node,
            vcs,
            depth,
            inputs,
            outputs: vec![free_output; PORT_COUNT * vcs],
            vc_allocator: SeparableAllocator::new(PORT_COUNT, vcs, PORT_COUNT * vcs),
            sw_allocator: SeparableAllocator::new(PORT_COUNT, vcs, PORT_COUNT),
            out_vc_rr: [0; PORT_COUNT],
            derived,
            class_masks,
            activity: RouterActivity::new(),
        }
    }

    /// Number of virtual channels per port.
    pub fn virtual_channels(&self) -> usize {
        self.vcs
    }

    /// Takes and resets the activity counters (one observation window).
    pub fn take_activity(&mut self) -> RouterActivity {
        std::mem::take(&mut self.activity)
    }

    /// Whether the router provably has nothing to do this cycle.
    ///
    /// Backed by the incrementally maintained in-flight buffer counter and
    /// the per-port state bitmasks: with zero buffered flits, every pipeline
    /// stage ([`rc_stage`](Self::rc_stage), [`va_stage`](Self::va_stage),
    /// [`sa_st_stage`](Self::sa_st_stage)) is a no-op, because a VC in the
    /// `Routing` or `VcAllocation` state always holds its head flit
    /// (debug-asserted here). `active_mask` *may* be non-zero on a quiescent
    /// router — a wormhole packet whose body flits are still in flight
    /// upstream keeps its VC `Active` — but such a VC has nothing to forward
    /// until [`accept_flit`](Self::accept_flit) re-activates the router.
    ///
    /// The simulation driver uses this predicate to maintain its
    /// active-router worklist: a router is dropped from the worklist the
    /// cycle it becomes quiescent and re-inserted by flit arrival.
    #[inline]
    pub fn is_quiescent(&self) -> bool {
        debug_assert!(
            self.derived.buffered > 0
                || (self.derived.routing_mask.iter().all(|&m| m == 0)
                    && self.derived.va_mask.iter().all(|&m| m == 0)),
            "a VC waiting for RC/VA must have its head flit buffered"
        );
        self.derived.buffered == 0
    }

    /// Control state of input VC (`port`, `vc`) — intended for tests and
    /// debugging.
    pub fn input_vc_state(&self, port: usize, vc: usize) -> VcState {
        self.inputs[port * self.vcs + vc].state
    }

    /// Buffer occupancy of input VC (`port`, `vc`).
    pub fn input_vc_occupancy(&self, port: usize, vc: usize) -> usize {
        self.inputs[port * self.vcs + vc].buffer.len()
    }

    /// Credits currently available on output (`port`, `vc`).
    pub fn output_credits(&self, port: usize, vc: usize) -> usize {
        self.outputs[port * self.vcs + vc].credits as usize
    }

    /// The `(out_port, out_vc)` the packet on input VC (`port`, `vc`) is
    /// routed to — `None` before RC / VC allocation respectively. Intended
    /// for tests and wait-for-graph diagnostics.
    #[cfg(test)]
    pub fn input_vc_route(&self, port: usize, vc: usize) -> (Option<usize>, Option<usize>) {
        let input = &self.inputs[port * self.vcs + vc];
        (input.out_port.map(usize::from), input.out_vc.map(usize::from))
    }

    /// Total number of flits buffered in this router.
    pub fn buffered_flits(&self) -> usize {
        self.derived.buffered
    }

    /// Accepts a flit arriving on input `in_port` (its `vc` field selects the
    /// virtual channel).
    ///
    /// # Panics
    ///
    /// Panics if `in_port` or the flit's VC is out of range, or the target
    /// buffer is full (which would mean the upstream credit accounting is
    /// broken).
    pub fn accept_flit(&mut self, in_port: usize, flit: Flit) {
        assert!(in_port < PORT_COUNT, "flit arrived on unknown input port {in_port}");
        let vc = flit.vc();
        assert!(vc < self.vcs, "flit arrived on unknown VC {vc}");
        let input = &mut self.inputs[in_port * self.vcs + vc];
        let d = &mut self.derived;
        input.buffer.push(flit, self.depth as usize);
        d.buffered += 1;
        d.nonempty[in_port] |= 1u64 << vc;
        self.activity.buffer_writes += 1;
        let front_is_head = input.buffer.front().map(|f| f.kind.is_head()).unwrap_or(false);
        if input.state == VcState::Idle {
            if front_is_head {
                input.state = VcState::Routing;
                d.routing_mask[in_port] |= 1u64 << vc;
                d.routing_pending += 1;
            } else {
                // A body/tail flit with no packet context: its head died in a
                // failed component upstream. Discard the orphaned remainder.
                input.state = VcState::Draining;
                d.drain_mask[in_port] |= 1u64 << vc;
            }
        } else if input.state == VcState::Draining && front_is_head {
            // The orphan was fully drained and a fresh packet starts.
            input.state = VcState::Routing;
            d.drain_mask[in_port] &= !(1u64 << vc);
            d.routing_mask[in_port] |= 1u64 << vc;
            d.routing_pending += 1;
        }
    }

    /// Accepts a credit for output (`out_port`, `vc`): the downstream router
    /// freed one buffer slot.
    ///
    /// # Panics
    ///
    /// Panics if `out_port` or `vc` is out of range.
    pub fn accept_credit(&mut self, out_port: usize, vc: usize) {
        assert!(out_port < PORT_COUNT, "credit for unknown output port {out_port}");
        assert!(vc < self.vcs, "credit for unknown VC {vc}");
        let output = &mut self.outputs[out_port * self.vcs + vc];
        output.credits += 1;
        if output.owner != NO_OWNER {
            let owner = usize::from(output.owner);
            self.derived.credit_ok[owner >> 8] |= 1u64 << (owner & 0xff);
        }
    }

    /// Route-computation stage: resolves the output port (and, on a torus,
    /// the dateline VC class) of every head flit waiting in the `Routing`
    /// state.
    #[cfg(test)]
    pub fn rc_stage(&mut self, topo: &Topology, routing: &dyn RoutingAlgorithm) {
        self.rc_stage_blocked(topo, routing, 0, routing.route_is_static());
    }

    /// [`rc_stage`](Self::rc_stage) with a mask of output ports that lead to
    /// failed links, failed routers, or fenced (power-gated) neighbours.
    /// Adaptive algorithms deviate around blocked ports via
    /// [`RoutingAlgorithm::route_around`]; dimension-ordered algorithms
    /// ignore the mask (their default `route_around` delegates to `route`),
    /// so with `blocked == 0` — or any DO algorithm — this is byte-for-byte
    /// the plain stage.
    ///
    /// `static_route` is the algorithm's
    /// [`route_is_static`](RoutingAlgorithm::route_is_static), which the
    /// caller resolves once per tick rather than once per router.
    pub fn rc_stage_blocked(
        &mut self,
        topo: &Topology,
        routing: &dyn RoutingAlgorithm,
        blocked: u8,
        static_route: bool,
    ) {
        let d = &mut self.derived;
        // Heads still waiting in VcAllocation re-run route computation every
        // cycle, unless the route is static: an adaptive algorithm may pick a
        // different port or VC class as faults/fences appear and disappear,
        // and Duato's deadlock-freedom argument needs blocked packets to keep
        // being offered the escape path. A static algorithm would recompute
        // the identical route, so its parked heads are left alone.
        let reroute_parked = !static_route && d.va_pending != 0;
        if d.routing_pending == 0 && !reroute_parked {
            return;
        }
        // Ports with no free adaptive-class VC left, for availability-aware
        // adaptive selection (RC precedes VA, so the mask is stable across
        // this cycle's selections). A static route does not look at it.
        let mut adaptive_full = 0u8;
        if !static_route {
            for dir_port in 0..LOCAL_PORT {
                if d.free_out_mask[dir_port] & self.class_masks[1] == 0 {
                    adaptive_full |= 1u8 << dir_port;
                }
            }
        }
        for port in 0..PORT_COUNT {
            let fresh = d.routing_mask[port];
            let mut mask = if reroute_parked { fresh | d.va_mask[port] } else { fresh };
            if mask == 0 {
                continue;
            }
            if fresh != 0 {
                // Every VC in Routing state advances to VcAllocation.
                d.va_mask[port] |= fresh;
                d.routing_mask[port] = 0;
                d.va_pending += fresh.count_ones();
                d.routing_pending -= fresh.count_ones();
            }
            while mask != 0 {
                let vc = mask.trailing_zeros() as usize;
                mask &= mask - 1;
                let input = &mut self.inputs[port * self.vcs + vc];
                debug_assert!(
                    input.state == VcState::Routing || input.state == VcState::VcAllocation
                );
                let head = input
                    .buffer
                    .front()
                    .expect("a VC awaiting routing must have a head flit buffered");
                debug_assert!(head.kind.is_head());
                // The class of the VC the head occupies tells the algorithm
                // whether the packet is travelling on the escape network
                // (sticky — see `MinimalAdaptive`).
                let in_class = u8::from(self.class_masks[0] & (1u64 << vc) == 0);
                let (dir, class) = routing.route_around(
                    topo,
                    head.src(),
                    self.node,
                    head.dst(),
                    port,
                    in_class,
                    blocked,
                    adaptive_full,
                );
                input.out_port = Some(dir.index() as u8);
                input.next_class = class;
                input.state = VcState::VcAllocation;
            }
        }
    }

    /// Virtual-channel allocation stage: assigns a free downstream VC to each
    /// winning head flit.
    pub fn va_stage(&mut self) {
        if self.derived.va_pending == 0 {
            return;
        }
        let vcs = self.vcs;
        // Requests: every input VC waiting for VC allocation whose output
        // port has a free VC of its class.
        let mut requesting = [0u64; PORT_COUNT];
        for (port, wanting) in requesting.iter_mut().enumerate() {
            let mut mask = self.derived.va_mask[port];
            while mask != 0 {
                let vc = mask.trailing_zeros() as usize;
                mask &= mask - 1;
                let input = &self.inputs[port * vcs + vc];
                debug_assert_eq!(input.state, VcState::VcAllocation);
                let (_, free) =
                    va_candidates(&self.derived.free_out_mask, &self.class_masks, input);
                if free != 0 {
                    *wanting |= 1u64 << vc;
                }
            }
        }
        // Each proposes one candidate output VC on its output port:
        // round-robin over the free-VC bitmask (first free VC at or after the
        // rotating start, wrapping to the lowest free VC). Nothing the pick
        // reads changes before the grants are applied, so it is made only
        // for the one VC per port the allocator asks about.
        let (inputs, free_out_mask, class_masks, out_vc_rr) =
            (&self.inputs, &self.derived.free_out_mask, &self.class_masks, &self.out_vc_rr);
        let grants = self.vc_allocator.allocate(&requesting, |port, vc| {
            let input = &inputs[port * vcs + vc];
            let (out_port, free) = va_candidates(free_out_mask, class_masks, input);
            let at_or_after = free & !((1u64 << out_vc_rr[out_port]) - 1);
            let candidate = if at_or_after != 0 { at_or_after } else { free };
            out_port * vcs + candidate.trailing_zeros() as usize
        });
        let d = &mut self.derived;
        for grant in grants {
            let (port, vc) = (grant.group, grant.member);
            let input = &mut self.inputs[port * vcs + vc];
            let out_port = input.out_port.expect("out_port set during RC") as usize;
            let out_vc = grant.resource - out_port * vcs;
            let output = &mut self.outputs[grant.resource];
            debug_assert!(!output.allocated, "the allocator grants each output VC once");
            output.allocated = true;
            output.owner = owner_tag(port, vc);
            d.free_out_mask[out_port] &= !(1u64 << out_vc);
            input.out_vc = Some(out_vc as u8);
            input.state = VcState::Active;
            d.va_mask[port] &= !(1u64 << vc);
            d.va_pending -= 1;
            d.active_mask[port] |= 1u64 << vc;
            if out_port == LOCAL_PORT || output.credits > 0 {
                d.credit_ok[port] |= 1u64 << vc;
            }
            self.activity.vc_allocations += 1;
            let next = out_vc + 1;
            self.out_vc_rr[out_port] = if next == vcs { 0 } else { next };
        }
    }

    /// Switch-allocation and switch-traversal stage.
    ///
    /// Active VCs with a buffered flit and downstream credit compete for the
    /// crossbar; winners move one flit each towards their output port.
    ///
    /// Results are **appended** to `out`, which the caller owns and reuses
    /// across routers/cycles (see the type-level scratch-buffer contract on
    /// [`Router`]); the caller clears it, typically once per cycle.
    #[cfg(test)]
    pub fn sa_st_stage(&mut self, out: &mut TraversalOutput) {
        self.sa_st_stage_fenced(out, 0);
    }

    /// [`sa_st_stage`](Self::sa_st_stage) with a power-gating fence: output
    /// ports whose bit is set in `fence` belong to a gated (or still waking)
    /// downstream router. A ready flit towards a fenced port stays buffered
    /// — exactly as if the output had no credit, so the arbiter state
    /// evolves identically to a credit stall — and the port is recorded in
    /// [`TraversalOutput::fenced_ports`] so the driver can raise a wakeup
    /// request. With `fence == 0` this is byte-for-byte the unfenced stage.
    ///
    /// The requests are read off the masks the router keeps — an `Active` VC
    /// that holds a flit and has a credit — so the stage visits a VC only to
    /// move its flit; only under a fence does it look at each waiting VC's
    /// output port.
    pub fn sa_st_stage_fenced(&mut self, out: &mut TraversalOutput, fence: u8) {
        if self.derived.buffered == 0 {
            return;
        }
        self.drain_orphans(out);
        let vcs = self.vcs;
        let d = &mut self.derived;
        let mut requesting = [0u64; PORT_COUNT];
        for (port, ready) in requesting.iter_mut().enumerate() {
            let waiting = d.active_mask[port] & d.nonempty[port];
            let (held, ports) = held_by_fence(&self.inputs, port * vcs, waiting, fence);
            out.fenced_ports |= ports;
            *ready = waiting & d.credit_ok[port] & !held;
        }
        let inputs = &self.inputs;
        let grants = self.sw_allocator.allocate(&requesting, |port, vc| {
            inputs[port * vcs + vc].out_port.expect("active VC has a route") as usize
        });
        for grant in grants {
            let in_port = grant.group;
            let in_vc = grant.member;
            let in_bit = 1u64 << in_vc;
            let out_port = grant.resource;
            let input = &mut self.inputs[in_port * vcs + in_vc];
            debug_assert_eq!(input.state, VcState::Active);
            let out_vc = input.out_vc.expect("active VC has an output VC") as usize;
            let mut flit = input.buffer.pop().expect("granted VC has a buffered flit");
            d.buffered -= 1;
            if input.buffer.is_empty() {
                d.nonempty[in_port] &= !in_bit;
            }
            self.activity.buffer_reads += 1;
            self.activity.crossbar_traversals += 1;
            self.activity.switch_allocations += 1;
            out.credits.push(CreditReturn { in_port, vc: in_vc });
            let is_tail = flit.kind.is_tail();
            flit.vc = out_vc as u8;
            flit.hops += 1;
            let output = &mut self.outputs[out_port * vcs + out_vc];
            if out_port == LOCAL_PORT {
                self.activity.ejected_flits += 1;
                out.ejected.push(flit);
            } else {
                debug_assert!(output.credits > 0, "switch allocation granted without credit");
                output.credits -= 1;
                if output.credits == 0 {
                    d.credit_ok[in_port] &= !in_bit;
                }
                self.activity.link_flits += 1;
                out.outgoing.push(OutgoingFlit { out_port, flit });
            }
            if is_tail {
                // The tail releases both the output VC and the input VC.
                output.allocated = false;
                output.owner = NO_OWNER;
                d.free_out_mask[out_port] |= 1u64 << out_vc;
                d.active_mask[in_port] &= !in_bit;
                d.credit_ok[in_port] &= !in_bit;
                input.state = VcState::Idle;
                input.out_port = None;
                input.out_vc = None;
                if let Some(front) = input.buffer.front() {
                    if front.kind.is_head() {
                        input.state = VcState::Routing;
                        d.routing_mask[in_port] |= in_bit;
                        d.routing_pending += 1;
                    } else {
                        // The next packet lost its head in a failed component
                        // upstream; discard its orphaned remainder.
                        input.state = VcState::Draining;
                        d.drain_mask[in_port] |= in_bit;
                    }
                }
            }
        }
    }

    /// Discards one flit per [`VcState::Draining`] input VC (matching the
    /// one-flit-per-cycle switch rate), returning a credit upstream for each
    /// and counting the drop in [`TraversalOutput::dropped`]. A VC whose
    /// front flit is a head resumes normal routing instead.
    fn drain_orphans(&mut self, out: &mut TraversalOutput) {
        let d = &mut self.derived;
        for port in 0..PORT_COUNT {
            let mut mask = d.drain_mask[port];
            while mask != 0 {
                let vc = mask.trailing_zeros() as usize;
                mask &= mask - 1;
                let input = &mut self.inputs[port * self.vcs + vc];
                debug_assert_eq!(input.state, VcState::Draining);
                let Some(front) = input.buffer.front() else { continue };
                if !front.kind.is_head() {
                    input.buffer.pop().expect("front flit exists");
                    d.buffered -= 1;
                    if input.buffer.is_empty() {
                        d.nonempty[port] &= !(1u64 << vc);
                    }
                    self.activity.buffer_reads += 1;
                    out.credits.push(CreditReturn { in_port: port, vc });
                    out.dropped += 1;
                }
                if input.buffer.front().map(|f| f.kind.is_head()).unwrap_or(false) {
                    input.state = VcState::Routing;
                    d.drain_mask[port] &= !(1u64 << vc);
                    d.routing_mask[port] |= 1u64 << vc;
                    d.routing_pending += 1;
                }
            }
        }
    }

    /// Re-partitions the VC classes into an escape half (class 0) and an
    /// adaptive half (class 1), as required by routing algorithms with
    /// [`RoutingAlgorithm::wants_escape_classes`]. On a torus the dateline
    /// masks already have this shape, so the split only changes mesh routers.
    pub(crate) fn split_vc_classes(&mut self) {
        // Either partition covers every VC between its two classes.
        let all = self.class_masks[0] | self.class_masks[1];
        let low = (1u64 << self.vcs.div_ceil(2)) - 1;
        self.class_masks = [low, all & !low];
    }

    /// Empties every input buffer (router death): each discarded flit is
    /// counted as dropped and produces a [`CreditReturn`] that the driver
    /// routes to the upstream neighbour or local source, keeping their credit
    /// accounting exact. All pipeline state, derived state included, is then
    /// factory-reset (every output back to a full buffer's credits).
    ///
    /// Returns the number of flits dropped.
    pub(crate) fn purge_all(&mut self, credits: &mut Vec<CreditReturn>) -> u64 {
        let mut dropped = 0u64;
        for port in 0..PORT_COUNT {
            for vc in 0..self.vcs {
                let input = &mut self.inputs[port * self.vcs + vc];
                while input.buffer.pop().is_some() {
                    dropped += 1;
                    credits.push(CreditReturn { in_port: port, vc });
                }
                input.state = VcState::Idle;
                input.out_port = None;
                input.out_vc = None;
                input.next_class = 0;
            }
        }
        self.outputs.fill(OutputVc { credits: self.depth, allocated: false, owner: NO_OWNER });
        self.derived = DerivedState::idle(self.vcs);
        self.out_vc_rr.fill(0);
        dropped
    }

    /// Overrides the credit/allocation state of output (`port`, `vc`) — used
    /// when a transiently failed router comes back: outputs facing a
    /// neighbour input VC that is idle get a full credit refill, while
    /// outputs facing a VC still holding pre-fault flits are *retired*
    /// (`retired = true`: permanently allocated with zero credits, so they
    /// are never granted again and cannot corrupt the neighbour's state).
    ///
    /// The router was purged when it failed and has carried no packet since,
    /// so no input VC owns the output and no `credit_ok` bit depends on it.
    pub(crate) fn resync_output(&mut self, port: usize, vc: usize, retired: bool) {
        let credits = if retired { 0 } else { self.depth };
        let output = &mut self.outputs[port * self.vcs + vc];
        debug_assert_eq!(output.owner, NO_OWNER, "resync of an output VC a packet holds");
        *output = OutputVc { credits, allocated: retired, owner: NO_OWNER };
        if retired {
            self.derived.free_out_mask[port] &= !(1u64 << vc);
        } else {
            self.derived.free_out_mask[port] |= 1u64 << vc;
        }
    }

    /// Whether a VC index belongs to the escape class (class 0). On a plain
    /// mesh without an adaptive algorithm both class masks cover every VC, so
    /// every VC reads as class 0 — telemetry's escape/adaptive split is only
    /// meaningful where the classes are actually partitioned.
    pub fn vc_is_escape(&self, vc: usize) -> bool {
        self.class_masks[0] & (1u64 << vc) != 0
    }

    /// Takes the telemetry stall census: classifies every input VC that is
    /// holding flits but could not (or will not next cycle) advance, and
    /// accumulates the counts into `census`. Read-only — called by the
    /// driver's telemetry probe after the pipeline stages ran, so `Active`
    /// states reflect post-traversal credit balances (a VC that just spent
    /// its last credit counts as credit-stalled, which is exactly its state
    /// for the next cycle). VCs that merely lost a switch-arbitration round
    /// are not counted: they are throughput-limited, not stalled.
    ///
    /// Credit stalls and route waits are popcounts of the kept masks; a VC is
    /// visited only while it waits for VC allocation (which class it wants)
    /// or while a fence is up (which port it heads for).
    pub(crate) fn stall_census(&self, fence: u8, census: &mut crate::telemetry::StallCensus) {
        let d = &self.derived;
        if d.buffered == 0 {
            return;
        }
        let split_classes = self.class_masks[0] != self.class_masks[1];
        for port in 0..PORT_COUNT {
            // Active VCs with an empty buffer wait for body flits upstream;
            // they are not stalled here.
            let waiting = d.active_mask[port] & d.nonempty[port];
            // One merged test skips ports with no waiting VC at all — the
            // common case on a lightly loaded router — before the per-mask
            // work below.
            if d.routing_mask[port] | d.va_mask[port] | waiting == 0 {
                continue;
            }
            census.route_wait += u64::from(d.routing_mask[port].count_ones());
            let mut mask = d.va_mask[port];
            while mask != 0 {
                let vc = mask.trailing_zeros() as usize;
                mask &= mask - 1;
                let input = &self.inputs[port * self.vcs + vc];
                let (_, free) = va_candidates(&d.free_out_mask, &self.class_masks, input);
                if free == 0 && input.next_class == 0 && split_classes {
                    census.escape_hold += 1;
                } else {
                    census.va_wait += 1;
                }
            }
            let (held, _) = held_by_fence(&self.inputs, port * self.vcs, waiting, fence);
            census.fenced += u64::from(held.count_ones());
            census.no_credit += u64::from((waiting & !held & !d.credit_ok[port]).count_ones());
        }
    }

    /// Recomputes the derived state from the per-VC state, checking on the
    /// way that the per-VC state is one the pipeline can have produced —
    /// everything a stage would otherwise `expect`: a VC waiting for RC or VA
    /// holds its head flit, a VC waiting for VA has a route, an `Active` VC
    /// has a route and an allocated output VC of its own, an idle VC is empty.
    /// The error names the first condition that does not hold. Returned with
    /// the masks: the [`OutputVc::owner`] each output VC must carry, indexed
    /// like `outputs` (on the stack, so that the debug-build check after
    /// every tick stays off the heap like the tick itself).
    fn derive(&self) -> Result<(DerivedState, [u16; PORT_COUNT * MAX_VCS]), &'static str> {
        let mut d = DerivedState::default();
        let mut owners = [NO_OWNER; PORT_COUNT * MAX_VCS];
        for port in 0..PORT_COUNT {
            for vc in 0..self.vcs {
                let bit = 1u64 << vc;
                if !self.outputs[port * self.vcs + vc].allocated {
                    d.free_out_mask[port] |= bit;
                }
                let input = &self.inputs[port * self.vcs + vc];
                d.buffered += input.buffer.len();
                if !input.buffer.is_empty() {
                    d.nonempty[port] |= bit;
                }
                let holds_head = input.buffer.front().is_some_and(|f| f.kind.is_head());
                let out_port = input.out_port.map(usize::from).filter(|&p| p < PORT_COUNT);
                match input.state {
                    VcState::Idle if input.buffer.is_empty() => {}
                    VcState::Idle => return Err("idle VC holds flits"),
                    VcState::Draining => d.drain_mask[port] |= bit,
                    VcState::Routing if holds_head => {
                        d.routing_mask[port] |= bit;
                        d.routing_pending += 1;
                    }
                    VcState::VcAllocation
                        if holds_head && out_port.is_some() && input.next_class <= 1 =>
                    {
                        d.va_mask[port] |= bit;
                        d.va_pending += 1;
                    }
                    VcState::Routing | VcState::VcAllocation => {
                        return Err("VC awaiting RC/VA without its head flit or route")
                    }
                    VcState::Active => {
                        let out_vc = input.out_vc.map(usize::from).filter(|&v| v < self.vcs);
                        let (Some(out_port), Some(out_vc)) = (out_port, out_vc) else {
                            return Err("active VC without a route or an output VC");
                        };
                        let output = &self.outputs[out_port * self.vcs + out_vc];
                        if !output.allocated {
                            return Err("active VC's output VC is not allocated");
                        }
                        let owner = &mut owners[out_port * self.vcs + out_vc];
                        if *owner != NO_OWNER {
                            return Err("two active VCs hold one output VC");
                        }
                        *owner = owner_tag(port, vc);
                        d.active_mask[port] |= bit;
                        if out_port == LOCAL_PORT || output.credits > 0 {
                            d.credit_ok[port] |= bit;
                        }
                    }
                }
            }
        }
        Ok((d, owners))
    }

    /// Checks the invariant the mask-native stages rest on: the derived state
    /// the router maintains equals the one recomputed from the per-VC state,
    /// and every `Active` VC and its output VC point at each other. The error
    /// names the first condition that does not hold.
    pub(crate) fn check_derived(&self) -> Result<(), &'static str> {
        let (fresh, owners) = self.derive()?;
        if self.derived != fresh {
            return Err("derived state drifted");
        }
        if !self.outputs.iter().map(|output| &output.owner).eq(&owners[..self.outputs.len()]) {
            return Err("output VC owners drifted");
        }
        Ok(())
    }

    /// [`check_derived`](Self::check_derived) as the pipeline kernel runs it
    /// after every tick in debug builds, so every debug test run checks it
    /// on every router visit.
    ///
    /// # Panics
    ///
    /// Panics when the maintained state has drifted.
    pub(crate) fn debug_check_derived(&self) {
        if let Err(what) = self.check_derived() {
            panic!("router {}: {what}", self.node);
        }
    }

    /// Whether output (`port`, `vc`) was retired by a recovery
    /// ([`resync_output`](Self::resync_output)): allocated, but to no input
    /// VC.
    pub(crate) fn output_retired(&self, port: usize, vc: usize) -> bool {
        let output = &self.outputs[port * self.vcs + vc];
        output.allocated && output.owner == NO_OWNER
    }

    /// Whether the activity window holds no event.
    pub(crate) fn activity_is_empty(&self) -> bool {
        self.activity == RouterActivity::default()
    }
}

impl Router {
    /// Encodes every piece of mutable pipeline state for a checkpoint:
    /// input/output VC state, both allocator arbiter banks, the round-robin
    /// cursors, the per-port state bitmasks and the activity window. The node
    /// index and VC count are configuration and are not written; of the
    /// derived state only what the format has always carried is written (the
    /// state masks, the pending counts, the buffered-flit count) —
    /// `nonempty`, `credit_ok` and the output owners never are.
    pub(crate) fn save_state(&self, w: &mut crate::snapshot::SnapWriter) {
        for input in &self.inputs {
            w.put_u8(match input.state {
                VcState::Idle => 0,
                VcState::Routing => 1,
                VcState::VcAllocation => 2,
                VcState::Active => 3,
                VcState::Draining => 4,
            });
            input.buffer.save_state(w);
            w.put_opt_u64(input.out_port.map(u64::from));
            w.put_opt_u64(input.out_vc.map(u64::from));
            w.put_u8(input.next_class);
        }
        for output in &self.outputs {
            w.put_usize(output.credits as usize);
            w.put_bool(output.allocated);
        }
        self.vc_allocator.save_state(w);
        self.sw_allocator.save_state(w);
        for cursor in &self.out_vc_rr {
            w.put_usize(*cursor);
        }
        let d = &self.derived;
        for masks in [&d.routing_mask, &d.va_mask, &d.active_mask, &d.drain_mask, &d.free_out_mask]
        {
            for mask in masks {
                w.put_u64(*mask);
            }
        }
        w.put_u32(d.routing_pending);
        w.put_u32(d.va_pending);
        w.put_u64(self.class_masks[0]);
        w.put_u64(self.class_masks[1]);
        self.activity.save_state(w);
        w.put_usize(d.buffered);
    }

    /// Restores the pipeline state written by [`save_state`](Self::save_state)
    /// into a router built from the same configuration, for a network of
    /// `nodes` nodes.
    ///
    /// The derived state is rebuilt from the per-VC state rather than read:
    /// the stored masks and counts only have to agree with it, and a
    /// snapshot in which they do not — or whose per-VC state the pipeline
    /// cannot have produced (see [`derive`](Self::derive)) — is corrupt.
    pub(crate) fn load_state(
        &mut self,
        r: &mut crate::snapshot::SnapReader<'_>,
        nodes: usize,
    ) -> Result<(), crate::snapshot::SnapshotError> {
        use crate::snapshot::SnapshotError;
        let vcs = self.vcs;
        let depth = self.depth as usize;
        for input in &mut self.inputs {
            input.state = match r.read_u8()? {
                0 => VcState::Idle,
                1 => VcState::Routing,
                2 => VcState::VcAllocation,
                3 => VcState::Active,
                4 => VcState::Draining,
                _ => return Err(SnapshotError::Corrupt("VC state")),
            };
            input.buffer.load_state(r, nodes, depth)?;
            let out_port = r.read_opt_u64()?;
            if out_port.is_some_and(|p| p >= PORT_COUNT as u64) {
                return Err(SnapshotError::Corrupt("VC out port"));
            }
            input.out_port = out_port.map(|p| p as u8);
            let out_vc = r.read_opt_u64()?;
            if out_vc.is_some_and(|v| v >= vcs as u64) {
                return Err(SnapshotError::Corrupt("VC out VC"));
            }
            input.out_vc = out_vc.map(|v| v as u8);
            input.next_class = r.read_u8()?;
        }
        for output in &mut self.outputs {
            let credits = r.read_usize()?;
            if credits > depth {
                return Err(SnapshotError::Corrupt("output VC credits"));
            }
            output.credits = credits as u32;
            output.allocated = r.read_bool()?;
        }
        self.vc_allocator.load_state(r)?;
        self.sw_allocator.load_state(r)?;
        for cursor in &mut self.out_vc_rr {
            let c = r.read_usize()?;
            if c >= vcs {
                return Err(SnapshotError::Corrupt("output VC cursor"));
            }
            *cursor = c;
        }
        let mut stored = DerivedState::default();
        for masks in [
            &mut stored.routing_mask,
            &mut stored.va_mask,
            &mut stored.active_mask,
            &mut stored.drain_mask,
            &mut stored.free_out_mask,
        ] {
            for mask in masks.iter_mut() {
                *mask = r.read_u64()?;
            }
        }
        stored.routing_pending = r.read_u32()?;
        stored.va_pending = r.read_u32()?;
        // The class partition follows from the configuration the router was
        // built from; the stored copy can only confirm it.
        if [r.read_u64()?, r.read_u64()?] != self.class_masks {
            return Err(SnapshotError::Corrupt("router VC class masks"));
        }
        self.activity.load_state(r)?;
        stored.buffered = r.read_usize()?;

        let (derived, owners) = self.derive().map_err(SnapshotError::Corrupt)?;
        stored.nonempty = derived.nonempty;
        stored.credit_ok = derived.credit_ok;
        if stored != derived {
            return Err(SnapshotError::Corrupt("router masks disagree with the per-VC state"));
        }
        for (output, owner) in self.outputs.iter_mut().zip(owners) {
            output.owner = owner;
        }
        self.derived = derived;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit::{Flit, PacketId};
    use crate::routing::XyRouting;
    use crate::topology::{Direction, Topology};

    fn small_config() -> NetworkConfig {
        NetworkConfig::builder()
            .mesh(3, 3)
            .virtual_channels(2)
            .buffer_depth(4)
            .packet_length(3)
            .build()
            .unwrap()
    }

    fn packet(id: u64, src: usize, dst: usize, len: usize) -> Vec<Flit> {
        Flit::packet(PacketId::new(id), src, dst, len, 0, 0.0)
    }

    /// Drives the router's three internal stages once, as the network would.
    fn step(router: &mut Router, mesh: &Topology, routing: &XyRouting) -> TraversalOutput {
        let mut out = TraversalOutput::default();
        router.sa_st_stage(&mut out);
        router.va_stage();
        router.rc_stage(mesh, routing);
        router.debug_check_derived();
        out
    }

    #[test]
    fn per_vc_state_stays_narrow() {
        // 40 of each per 8-VC router: the footprint budget counts on these.
        assert!(std::mem::size_of::<OutputVc>() <= 8);
        assert!(std::mem::size_of::<InputVc>() <= 48);
    }

    #[test]
    fn head_flit_triggers_routing_state() {
        let cfg = small_config();
        let mut router = Router::new(4, &cfg); // centre of the 3x3 mesh
        let flits = packet(1, 4, 5, 3);
        router.accept_flit(LOCAL_PORT, flits[0]);
        assert_eq!(router.input_vc_state(LOCAL_PORT, 0), VcState::Routing);
        assert_eq!(router.activity.buffer_writes, 1);
    }

    #[test]
    fn packet_traverses_router_towards_east_neighbor() {
        let cfg = small_config();
        let mesh = Topology::mesh(3, 3);
        let routing = XyRouting::new();
        let mut router = Router::new(4, &cfg);
        // Node 5 is the east neighbour of node 4.
        for f in packet(1, 4, 5, 3) {
            router.accept_flit(LOCAL_PORT, f);
        }
        let mut sent = Vec::new();
        for _ in 0..10 {
            let out = step(&mut router, &mesh, &routing);
            assert!(out.ejected.is_empty());
            sent.extend(out.outgoing);
        }
        assert_eq!(sent.len(), 3, "all three flits leave the router");
        for s in &sent {
            assert_eq!(s.out_port, Direction::East.index());
        }
        assert_eq!(router.buffered_flits(), 0);
        assert_eq!(router.activity.link_flits, 3);
        assert_eq!(router.activity.vc_allocations, 1);
        // The input VC is released after the tail.
        assert_eq!(router.input_vc_state(LOCAL_PORT, 0), VcState::Idle);
    }

    #[test]
    fn packet_destined_here_is_ejected() {
        let cfg = small_config();
        let mesh = Topology::mesh(3, 3);
        let routing = XyRouting::new();
        let mut router = Router::new(4, &cfg);
        let mut flits = packet(9, 1, 4, 3);
        for f in &mut flits {
            f.vc = 1;
            router.accept_flit(Direction::North.index(), *f);
        }
        let mut ejected = Vec::new();
        for _ in 0..10 {
            ejected.extend(step(&mut router, &mesh, &routing).ejected);
        }
        assert_eq!(ejected.len(), 3);
        assert_eq!(router.activity.ejected_flits, 3);
        assert_eq!(router.activity.link_flits, 0);
    }

    #[test]
    fn credits_are_returned_for_every_forwarded_flit() {
        let cfg = small_config();
        let mesh = Topology::mesh(3, 3);
        let routing = XyRouting::new();
        let mut router = Router::new(4, &cfg);
        for f in packet(1, 4, 3, 3) {
            router.accept_flit(LOCAL_PORT, f);
        }
        let mut credits = Vec::new();
        for _ in 0..10 {
            credits.extend(step(&mut router, &mesh, &routing).credits);
        }
        assert_eq!(credits.len(), 3);
        assert!(credits.iter().all(|c| c.in_port == LOCAL_PORT && c.vc == 0));
    }

    #[test]
    fn forwarding_consumes_downstream_credits() {
        let cfg = small_config();
        let mesh = Topology::mesh(3, 3);
        let routing = XyRouting::new();
        let mut router = Router::new(4, &cfg);
        let east = Direction::East.index();
        let initial: usize = (0..cfg.virtual_channels()).map(|v| router.output_credits(east, v)).sum();
        for f in packet(1, 4, 5, 3) {
            router.accept_flit(LOCAL_PORT, f);
        }
        for _ in 0..10 {
            step(&mut router, &mesh, &routing);
        }
        let after: usize = (0..cfg.virtual_channels()).map(|v| router.output_credits(east, v)).sum();
        assert_eq!(initial - after, 3, "three flits consumed three downstream credits");
        router.accept_credit(east, 0);
        let restored: usize =
            (0..cfg.virtual_channels()).map(|v| router.output_credits(east, v)).sum();
        assert_eq!(restored, after + 1);
    }

    #[test]
    fn blocked_without_credits() {
        let cfg = NetworkConfig::builder()
            .mesh(3, 3)
            .virtual_channels(1)
            .buffer_depth(4)
            .packet_length(2)
            .build()
            .unwrap();
        let mesh = Topology::mesh(3, 3);
        let routing = XyRouting::new();
        let mut router = Router::new(4, &cfg);
        // Drain all four credits of the east output VC with two 2-flit packets.
        for _ in 0..2 {
            for f in packet(1, 4, 5, 2) {
                router.accept_flit(LOCAL_PORT, f);
            }
            for _ in 0..4 {
                step(&mut router, &mesh, &routing);
            }
        }
        assert_eq!(router.output_credits(Direction::East.index(), 0), 0);
        // A further packet cannot traverse until a credit returns.
        for f in packet(2, 4, 5, 2) {
            router.accept_flit(LOCAL_PORT, f);
        }
        let mut forwarded = 0;
        for _ in 0..5 {
            forwarded += step(&mut router, &mesh, &routing).outgoing.len();
        }
        assert_eq!(forwarded, 0, "no credit, no traversal");
        router.accept_credit(Direction::East.index(), 0);
        let mut forwarded = 0;
        for _ in 0..3 {
            forwarded += step(&mut router, &mesh, &routing).outgoing.len();
        }
        assert_eq!(forwarded, 1, "one credit allows exactly one flit");
    }

    #[test]
    fn two_packets_share_bandwidth_through_different_vcs() {
        let cfg = small_config();
        let mesh = Topology::mesh(3, 3);
        let routing = XyRouting::new();
        let mut router = Router::new(4, &cfg);
        // Two packets from different input ports, both heading east.
        for f in packet(1, 3, 5, 3) {
            let mut f = f;
            f.vc = 0;
            router.accept_flit(Direction::West.index(), f);
        }
        for f in packet(2, 1, 5, 3) {
            let mut f = f;
            f.vc = 0;
            router.accept_flit(Direction::North.index(), f);
        }
        let mut sent = Vec::new();
        for _ in 0..16 {
            sent.extend(step(&mut router, &mesh, &routing).outgoing);
        }
        assert_eq!(sent.len(), 6, "both packets eventually traverse");
        // They must have used different output VCs (VC allocation keeps
        // packets separate on the shared link).
        let vcs: std::collections::HashSet<u8> = sent.iter().map(|s| s.flit.vc).collect();
        assert_eq!(vcs.len(), 2);
    }

    #[test]
    fn quiescence_tracks_buffer_occupancy() {
        let cfg = small_config();
        let mesh = Topology::mesh(3, 3);
        let routing = XyRouting::new();
        let mut router = Router::new(4, &cfg);
        assert!(router.is_quiescent(), "a fresh router is quiescent");
        // A lone head flit (body still "in flight") makes the router active.
        let flits = packet(1, 4, 5, 3);
        router.accept_flit(LOCAL_PORT, flits[0]);
        assert!(!router.is_quiescent());
        // The head traverses; its input VC stays Active awaiting the body,
        // but with nothing buffered the router is quiescent again.
        for _ in 0..4 {
            step(&mut router, &mesh, &routing);
        }
        assert_eq!(router.buffered_flits(), 0);
        assert!(router.is_quiescent(), "empty buffers => quiescent, even mid-packet");
        assert_eq!(router.input_vc_state(LOCAL_PORT, 0), VcState::Active);
        // A body flit re-activates it.
        router.accept_flit(LOCAL_PORT, flits[1]);
        assert!(!router.is_quiescent());
    }

    #[test]
    fn activity_window_reset() {
        let cfg = small_config();
        let mesh = Topology::mesh(3, 3);
        let routing = XyRouting::new();
        let mut router = Router::new(4, &cfg);
        for f in packet(1, 4, 5, 3) {
            router.accept_flit(LOCAL_PORT, f);
        }
        for _ in 0..10 {
            step(&mut router, &mesh, &routing);
        }
        let window = router.take_activity();
        assert!(window.total_events() > 0);
        assert!(router.activity.is_idle(), "taking the window resets the counters");
    }

    #[test]
    fn fenced_port_holds_flits_and_reports_the_demand() {
        let cfg = small_config();
        let mesh = Topology::mesh(3, 3);
        let routing = XyRouting::new();
        let mut router = Router::new(4, &cfg);
        for f in packet(1, 4, 5, 3) {
            router.accept_flit(LOCAL_PORT, f);
        }
        let east = Direction::East.index();
        // Fence the east port: nothing may leave, but the blocked demand is
        // reported so the driver can wake the sleeping neighbour.
        let mut out = TraversalOutput::default();
        for _ in 0..5 {
            out.clear();
            router.rc_stage(&mesh, &routing);
            router.va_stage();
            router.sa_st_stage_fenced(&mut out, 1u8 << east);
            assert!(out.outgoing.is_empty(), "fenced port must not emit flits");
        }
        assert_eq!(out.fenced_ports, 1u8 << east);
        assert_eq!(router.buffered_flits(), 3, "flits wait behind the fence");
        // Dropping the fence releases the traffic unchanged.
        let mut sent = Vec::new();
        for _ in 0..10 {
            let o = step(&mut router, &mesh, &routing);
            sent.extend(o.outgoing);
        }
        assert_eq!(sent.len(), 3);
        assert!(sent.iter().all(|s| s.out_port == east));
    }

    #[test]
    fn back_to_back_packets_on_same_input_vc() {
        let cfg = small_config();
        let mesh = Topology::mesh(3, 3);
        let routing = XyRouting::new();
        let mut router = Router::new(4, &cfg);
        // Two consecutive 2-flit packets on the same input VC; the second head
        // must be re-routed after the first tail releases the VC.
        for f in packet(1, 4, 5, 2) {
            router.accept_flit(LOCAL_PORT, f);
        }
        for _ in 0..6 {
            step(&mut router, &mesh, &routing);
        }
        for f in packet(2, 4, 3, 2) {
            router.accept_flit(LOCAL_PORT, f);
        }
        let mut ports = Vec::new();
        for _ in 0..8 {
            ports.extend(step(&mut router, &mesh, &routing).outgoing.iter().map(|o| o.out_port));
        }
        assert!(ports.contains(&Direction::West.index()), "second packet routed west");
    }

    // ----- mixed-class escape re-entry deadlock regression ------------------
    //
    // Four routers of a 4x4 mesh (nodes 5, 6, 9, 10) with a hand-armed
    // four-packet wait cycle that mixes the escape and adaptive VC classes.
    // Two links are faulted (5->West and 10->East), each sending one escape
    // packet back into the adaptive class:
    //
    //   P (escape, holds the 6->5 escape VC,   waits on 5's South adaptive
    //      escape hop West faulted)            VC, held by
    //   Q (adaptive, holds the 5->9 adaptive   waits on 9's East escape VC
    //      VC)                                 (Duato fallback), held by
    //   Z (escape, holds the 9->10 escape VC,  waits on 10's North adaptive
    //      escape hop East faulted)            VC, held by
    //   V (adaptive, holds the 10->6 adaptive  waits on 6's West escape VC
    //      VC)                                 (Duato fallback), held by P.
    //
    // Every held VC belongs to a wormhole whose tail is still upstream, so
    // nothing releases: a genuine cycle of packet-held channel waits, closed
    // by the two faulted-escape re-entries. With the pre-fix unrestricted
    // rule, P and Z wait on *full* adaptive VCs held by cycle members and
    // nothing ever moves again — even though free adaptive VCs (5's North,
    // 10's South) exist the whole time. With the restricted rule both take a
    // free detour instead of waiting, and the cycle unwinds.

    use crate::routing::MinimalAdaptive;

    fn adaptive_config() -> NetworkConfig {
        NetworkConfig::builder()
            .mesh(4, 4)
            .virtual_channels(2)
            .buffer_depth(4)
            .packet_length(6)
            .routing(crate::routing::RoutingKind::MinimalAdaptive)
            .build()
            .unwrap()
    }

    struct CycleHarness {
        topo: Topology,
        nodes: [usize; 4], // 5, 6, 9, 10
        routers: Vec<Router>,
        /// Faulted output ports per harness router (parallel to `nodes`).
        blocked: [u8; 4],
    }

    impl CycleHarness {
        fn new() -> Self {
            let cfg = adaptive_config();
            let topo = Topology::mesh(4, 4);
            let nodes = [5usize, 6, 9, 10];
            let routers = nodes
                .iter()
                .map(|&n| {
                    let mut r = Router::new(n, &cfg);
                    r.split_vc_classes();
                    r
                })
                .collect();
            // The two faulted escape hops that send P (at 5, westwards) and
            // Z (at 10, eastwards) back into the adaptive class.
            let mut blocked = [0u8; 4];
            blocked[0] = 1u8 << Direction::West.index();
            blocked[3] = 1u8 << Direction::East.index();
            CycleHarness { topo, nodes, routers, blocked }
        }

        fn idx(&self, node: usize) -> Option<usize> {
            self.nodes.iter().position(|&n| n == node)
        }

        fn feed(&mut self, node: usize, port: Direction, vc: u8, mut flit: Flit) {
            flit.vc = vc;
            let i = self.idx(node).unwrap();
            self.routers[i].accept_flit(port.index(), flit);
        }

        /// Steps one router `cycles` times without delivering anything,
        /// returning every flit it emitted (the caller stashes or voids them).
        fn pump(&mut self, node: usize, routing: &MinimalAdaptive, cycles: usize) -> Vec<OutgoingFlit> {
            let i = self.idx(node).unwrap();
            let mut emitted = Vec::new();
            for _ in 0..cycles {
                let mut out = TraversalOutput::default();
                self.routers[i].sa_st_stage(&mut out);
                self.routers[i].va_stage();
                self.routers[i].rc_stage_blocked(
                    &self.topo,
                    routing,
                    self.blocked[i],
                    routing.route_is_static(),
                );
                self.routers[i].debug_check_derived();
                emitted.extend(out.outgoing);
                assert!(out.ejected.is_empty(), "harness packets never eject");
            }
            emitted
        }

        /// Steps every router once, then delivers flits and credits between
        /// harness routers (links leaving the harness are voided). Returns
        /// (flits moved anywhere, flits that left the harness at node 5's
        /// North port — the detour drain the restricted rule opens).
        fn step_all(&mut self, routing: &MinimalAdaptive) -> (u64, u64) {
            let mut outs = Vec::new();
            for i in 0..self.routers.len() {
                let mut out = TraversalOutput::default();
                self.routers[i].sa_st_stage(&mut out);
                self.routers[i].va_stage();
                self.routers[i].rc_stage_blocked(
                    &self.topo,
                    routing,
                    self.blocked[i],
                    routing.route_is_static(),
                );
                self.routers[i].debug_check_derived();
                outs.push(out);
            }
            let mut moved = 0u64;
            let mut north_drained = 0u64;
            for (i, out) in outs.into_iter().enumerate() {
                let node = self.nodes[i];
                moved += out.outgoing.len() as u64 + out.ejected.len() as u64;
                for og in out.outgoing {
                    let dir = Direction::from_index(og.out_port);
                    let nbr = self.topo.neighbor(node, dir);
                    match nbr.and_then(|n| self.idx(n)) {
                        Some(j) => self.routers[j].accept_flit(dir.opposite().index(), og.flit),
                        None => {
                            // Links leaving the harness drain into an
                            // infinite sink: the flit is voided and its
                            // credit comes straight back.
                            self.routers[i].accept_credit(og.out_port, og.flit.vc as usize);
                            if node == 5 && dir == Direction::North {
                                north_drained += 1;
                            }
                        }
                    }
                }
                for cr in out.credits {
                    if cr.in_port == LOCAL_PORT {
                        continue;
                    }
                    let dir = Direction::from_index(cr.in_port);
                    if let Some(j) = self.topo.neighbor(node, dir).and_then(|n| self.idx(n)) {
                        self.routers[j].accept_credit(dir.opposite().index(), cr.vc);
                    }
                }
            }
            (moved, north_drained)
        }

        fn buffered(&self) -> usize {
            self.routers.iter().map(|r| r.buffered_flits()).sum()
        }
    }

    /// Builds the armed cycle described above. Wormhole tails are withheld
    /// upstream of the harness, so every held VC stays allocated until the
    /// test delivers more flits — exactly the backpressured steady state the
    /// deadlock needs.
    fn armed_cycle(routing: &MinimalAdaptive) -> CycleHarness {
        let mut h = CycleHarness::new();

        // Void fillers: each pins one adaptive VC (the head is emitted once
        // and then dropped — never delivered anywhere — while the tail never
        // arrives, so the allocation never releases). They steer every cycle
        // member onto the exact VC the cycle needs:
        //   5's East  adaptive VC full -> Q picks South at node 5;
        //   9's East  adaptive VC full -> Q falls back to escape at node 9;
        //   6's West  adaptive VC full -> V falls back to escape at node 6;
        //  10's West  adaptive VC full -> V picks North at node 10.
        for (id, node, dst, dir) in [
            (90, 5usize, 7usize, Direction::East),
            (91, 9, 11, Direction::East),
            (92, 6, 4, Direction::West),
            (93, 10, 8, Direction::West),
        ] {
            let f = Flit::packet(PacketId::new(id), node, dst, 6, 0, 0.0);
            h.feed(node, Direction::Local, 1, f[0]);
            let out = h.pump(node, routing, 4);
            assert_eq!(out.len(), 1, "filler head leaves node {node}");
            assert_eq!(out[0].out_port, dir.index(), "filler at node {node} pins {dir:?}");
        }

        // P: escape-class wormhole entering node 5 westwards through node 6.
        // Its head will find 5's escape hop (West) faulted. Four flits cross
        // to node 5 (exhausting 6's West escape credits); the last body and
        // the tail stay buffered in 6 behind the credit starvation.
        let p = Flit::packet(PacketId::new(1), 7, 8, 6, 0, 0.0);
        for flit in &p[0..4] {
            h.feed(6, Direction::East, 0, *flit);
        }
        let stash_p = h.pump(6, routing, 10);
        assert_eq!(stash_p.len(), 4, "P's head and three bodies cross to node 5");
        assert!(stash_p.iter().all(|o| o.out_port == Direction::West.index()));
        h.feed(6, Direction::East, 0, p[4]);
        h.feed(6, Direction::East, 0, p[5]);
        assert!(h.pump(6, routing, 4).is_empty(), "no credits left on 6's West escape VC");

        // Q: adaptive-class wormhole through node 5 southwards to node 9
        // (holds 5's South adaptive VC — the one P will wait on).
        let q = Flit::packet(PacketId::new(2), 1, 11, 6, 0, 0.0);
        h.feed(5, Direction::North, 1, q[0]);
        let mut stash_q = h.pump(5, routing, 4);
        h.feed(5, Direction::North, 1, q[1]);
        stash_q.extend(h.pump(5, routing, 4));
        assert_eq!(stash_q.len(), 2, "Q's head and body cross to node 9");
        assert!(stash_q.iter().all(|o| o.out_port == Direction::South.index()));

        // Z: escape-class wormhole through node 9 eastwards to node 10
        // (holds 9's East escape VC — the one Q will wait on). Its head will
        // find 10's escape hop (East) faulted.
        let z = Flit::packet(PacketId::new(3), 8, 3, 6, 0, 0.0);
        h.feed(9, Direction::West, 0, z[0]);
        let mut stash_z = h.pump(9, routing, 4);
        h.feed(9, Direction::West, 0, z[1]);
        stash_z.extend(h.pump(9, routing, 4));
        assert_eq!(stash_z.len(), 2, "Z's head and body cross to node 10");
        assert!(stash_z.iter().all(|o| o.out_port == Direction::East.index()));

        // V: adaptive-class wormhole through node 10 northwards to node 6
        // (holds 10's North adaptive VC — the one Z will wait on).
        let v = Flit::packet(PacketId::new(4), 14, 4, 6, 0, 0.0);
        h.feed(10, Direction::South, 1, v[0]);
        let mut stash_v = h.pump(10, routing, 4);
        h.feed(10, Direction::South, 1, v[1]);
        stash_v.extend(h.pump(10, routing, 4));
        assert_eq!(stash_v.len(), 2, "V's head and body cross to node 6");
        assert!(stash_v.iter().all(|o| o.out_port == Direction::North.index()));

        // Arm: deliver every stashed flit at once, closing the cycle.
        for o in stash_p {
            h.feed(5, Direction::East, o.flit.vc, o.flit);
        }
        for o in stash_q {
            h.feed(9, Direction::North, o.flit.vc, o.flit);
        }
        for o in stash_z {
            h.feed(10, Direction::West, o.flit.vc, o.flit);
        }
        for o in stash_v {
            h.feed(6, Direction::South, o.flit.vc, o.flit);
        }
        h
    }

    #[test]
    fn adaptive_head_parked_in_vc_allocation_reroutes_when_a_fault_appears() {
        // RC leaves a parked head alone only for algorithms that declare
        // their route static. A minimal-adaptive head waiting for an output
        // VC must keep re-selecting: when a fault blocks the port it was
        // parked on, the very next RC moves it to another one.
        let routing = MinimalAdaptive::new();
        assert!(!routing.route_is_static());
        let cfg = adaptive_config();
        let topo = Topology::mesh(4, 4);
        let mut router = Router::new(5, &cfg);
        router.split_vc_classes();
        let (east, south) = (Direction::East.index(), Direction::South.index());
        let pump = |router: &mut Router, blocked: u8| {
            let mut emitted = Vec::new();
            for _ in 0..4 {
                let mut out = TraversalOutput::default();
                router.sa_st_stage(&mut out);
                router.va_stage();
                router.rc_stage_blocked(&topo, &routing, blocked, routing.route_is_static());
                router.debug_check_derived();
                emitted.extend(out.outgoing.iter().map(|o| (o.out_port, o.flit.vc)));
            }
            emitted
        };
        // Three fillers pin every output VC the head could be given (their
        // heads leave, their tails never come): East's adaptive VC, South's
        // adaptive VC, and — entering on the escape class from the West —
        // East's escape VC.
        for (id, port, vc, dst, pinned) in [
            (90, Direction::Local, 1, 7usize, (east, 1u8)),
            (91, Direction::North, 1, 13, (south, 1)),
            (92, Direction::West, 0, 7, (east, 0)),
        ] {
            let mut head = Flit::packet(PacketId::new(id), 4, dst, 6, 0, 0.0)[0];
            head.vc = vc;
            router.accept_flit(port.index(), head);
            assert_eq!(pump(&mut router, 0), vec![pinned], "filler {id}");
        }
        // The head under test wants node 10 (one hop east, one south). Both
        // adaptive VCs are taken, so it is offered the escape hop East —
        // whose VC is taken too — and parks there.
        let head = Flit::packet(PacketId::new(1), 5, 10, 6, 0, 0.0)[0];
        router.accept_flit(LOCAL_PORT, head);
        assert!(pump(&mut router, 0).is_empty());
        assert_eq!(router.input_vc_state(LOCAL_PORT, 0), VcState::VcAllocation);
        assert_eq!(router.input_vc_route(LOCAL_PORT, 0), (Some(east), None));
        // The East link fails while it waits: it moves to the South port.
        assert!(pump(&mut router, 1u8 << east).is_empty());
        assert_eq!(router.input_vc_state(LOCAL_PORT, 0), VcState::VcAllocation);
        assert_eq!(router.input_vc_route(LOCAL_PORT, 0), (Some(south), None));
    }

    #[test]
    fn unrestricted_escape_reentry_deadlocks_on_a_mixed_class_cycle() {
        // Pre-fix behaviour: P and Z re-enter the adaptive class at their
        // faulted escape hops and wait on *full* adaptive VCs held by other
        // cycle members. The four packets wait on each other in a cycle and
        // nothing ever moves again, even though free adaptive VCs (5's North,
        // 10's South) exist the whole time.
        let routing = MinimalAdaptive::with_unrestricted_reentry();
        let mut h = armed_cycle(&routing);
        let before = h.buffered();
        let mut moved = 0u64;
        for _ in 0..300 {
            moved += h.step_all(&routing).0;
        }
        assert_eq!(moved, 0, "the mixed-class cycle must deadlock under unrestricted re-entry");
        assert_eq!(h.buffered(), before, "every flit is frozen in place");
    }

    #[test]
    fn restricted_reentry_escapes_the_mixed_class_cycle() {
        // Post-fix behaviour: a re-entering packet may only *take* a free
        // adaptive VC, never wait on a full one, so P detours through 5's
        // free North VC (and Z through 10's free South VC) and the cycle
        // unwinds behind it: P's tail releases 6's West escape VC, V crosses
        // to node 5 and follows P's detour out through the North port.
        let routing = MinimalAdaptive::new();
        let mut h = armed_cycle(&routing);
        let mut moved = 0u64;
        let mut drained = 0u64;
        for _ in 0..300 {
            let (m, d) = h.step_all(&routing);
            moved += m;
            drained += d;
        }
        assert!(moved > 0, "restricted re-entry must keep the network moving");
        assert!(
            drained >= 6,
            "P's whole wormhole (and V behind it) drains through the North detour, got {drained}"
        );
    }
}
