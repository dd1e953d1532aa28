//! The engine checks itself: [`NocSimulation::check_invariants`] recounts
//! what the sparse engine infers — its worklists, its O(1) transport and
//! gating counters — and the flit and credit ledgers every run keeps, and
//! names the first clause that does not hold.

use super::NocSimulation;
use crate::gating::GateState;
use crate::router::LOCAL_PORT;
use crate::topology::PORT_COUNT;
use std::fmt;

/// A broken engine invariant as [`NocSimulation::check_invariants`] reports
/// it: the clause, where it broke and the cycle the simulation stood on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvariantViolation {
    /// The clause that does not hold: `"router state"`, `"active set"`,
    /// `"dead router"`, `"transport counters"`, `"pending set"`,
    /// `"touched set"`, `"gating"`, `"flit ledger"` or `"credit ledger"`.
    pub clause: &'static str,
    /// The router (or its source) the clause breaks at; `None` for a count
    /// over the whole network.
    pub node: Option<usize>,
    /// For the credit ledger: the input port and VC of `node` whose link
    /// does not balance.
    pub input_vc: Option<(usize, usize)>,
    /// The NoC cycle of the check.
    pub cycle: u64,
}

impl fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cycle {}: {} broken", self.cycle, self.clause)?;
        if let Some(node) = self.node {
            write!(f, " at router {node}")?;
        }
        if let Some((port, vc)) = self.input_vc {
            write!(f, ", input port {port}, VC {vc}")?;
        }
        Ok(())
    }
}

impl std::error::Error for InvariantViolation {}

impl NocSimulation {
    /// Checks the engine's invariants on the current state and names the
    /// first clause that does not hold. A query: it changes nothing, and
    /// costs O(nodes × ports × VCs + items in flight). The clauses, in the
    /// order they are checked:
    ///
    /// * **router state** — every router's derived masks and owner tags
    ///   equal a recomputation from its per-VC state;
    /// * **active set** — a router is on the active worklist exactly when it
    ///   buffers a flit;
    /// * **dead router** — a dead router buffers nothing, is not active and
    ///   has nothing in flight towards it;
    /// * **transport counters** — the flits in flight towards each router
    ///   and the two in-flight counts equal a recount over the wheels;
    /// * **pending set** — a pending source queues a flit; a fenced source's
    ///   router is waking (its wakeup was raised); a source that queues a
    ///   flit is pending, fenced, or parked behind a dead router;
    /// * **touched set** — a router outside `active ∪ touched` has empty
    ///   activity and gating window counters;
    /// * **gating** — the fenced-router count equals a recount of the gate
    ///   states;
    /// * **flit ledger** — generated = received + queued + buffered + in
    ///   flight + dropped;
    /// * **credit ledger** — per input VC of every link and injection
    ///   channel: the slots that are full, about to be filled (flits in
    ///   flight towards it), free and known to the sender (the credits it
    ///   holds) or about to be known (credits in flight to it) add up to the
    ///   buffer depth. Where a fault left its mark the sum is only bounded
    ///   by the depth — on an output a recovery retired, which faces
    ///   stranded pre-fault flits — and links out of a dead router are not
    ///   judged (its outputs read full while its neighbours still hold its
    ///   flits).
    ///
    /// `restore` runs it once on every snapshot, and the invariant suites
    /// after every tick.
    ///
    /// # Errors
    ///
    /// The first [`InvariantViolation`] found.
    pub fn check_invariants(&self) -> Result<(), InvariantViolation> {
        let cycle = self.clock.noc_cycle();
        let broken = |clause, node| Err(InvariantViolation { clause, node, input_vc: None, cycle });
        let dead = |node: usize| self.faults.as_ref().is_some_and(|f| f.router_dead(node));
        let nodes = self.routers.len();

        if let Some(node) = self.routers.iter().position(|r| r.check_derived().is_err()) {
            return broken("router state", Some(node));
        }
        for (node, router) in self.routers.iter().enumerate() {
            if self.active.contains(node) == router.is_quiescent() {
                return broken("active set", Some(node));
            }
        }
        for node in (0..nodes).filter(|&n| dead(n)) {
            if !self.routers[node].is_quiescent()
                || self.active.contains(node)
                || self.inbound_flits[node] != 0
            {
                return broken("dead router", Some(node));
            }
        }

        let wheels = WheelCount::of(self);
        for (node, per_node) in wheels.flits_to.chunks(wheels.per_node).enumerate() {
            if per_node.iter().sum::<usize>() != self.inbound_flits[node] as usize {
                return broken("transport counters", Some(node));
            }
        }
        if wheels.flits_to.iter().sum::<usize>() != self.flits_in_flight.len()
            || wheels.credits_to.iter().sum::<usize>() != self.credits_in_flight.len()
        {
            return broken("transport counters", None);
        }

        let gating = &self.gating;
        for (node, source) in self.sources.iter().enumerate() {
            let queued = source.has_pending_flits();
            let pending = self.pending_sources.contains(node);
            let fenced = gating.fenced_sources[node];
            if (pending && !queued)
                || (fenced && gating.states[node] != GateState::WakeUp)
                || (queued && !pending && !fenced && !dead(node))
            {
                return broken("pending set", Some(node));
            }
        }
        for (node, router) in self.routers.iter().enumerate() {
            let counted = !router.activity_is_empty() || !gating.window_is_empty(node);
            if counted && !self.active.contains(node) && !self.touched.contains(node) {
                return broken("touched set", Some(node));
            }
        }
        if gating.fenced_count != gating.states.iter().filter(|s| s.is_fenced()).count() {
            return broken("gating", None);
        }

        let accounted = self.sink.flits_received()
            + self.queued_source_flits() as u64
            + self.buffered_network_flits() as u64
            + self.in_flight_flits() as u64
            + self.total_dropped;
        if accounted != self.total_flits_generated() {
            return broken("flit ledger", None);
        }

        self.check_credit_ledgers(&wheels, &dead)
    }

    /// The credit-ledger clause of
    /// [`check_invariants`](Self::check_invariants), naming the input VC
    /// whose link does not balance.
    fn check_credit_ledgers(
        &self,
        wheels: &WheelCount,
        dead: &dyn Fn(usize) -> bool,
    ) -> Result<(), InvariantViolation> {
        let vcs = self.cfg.virtual_channels();
        let depth = self.cfg.buffer_depth();
        for (node, ports) in self.neighbor_table.iter().enumerate() {
            for (in_port, link) in ports.iter().enumerate() {
                let local = in_port == LOCAL_PORT;
                let (sender, out_port) = match *link {
                    Some((sender, _)) if dead(sender) => continue,
                    Some(far_output) => far_output,
                    None if local => (node, LOCAL_PORT),
                    None => continue,
                };
                for vc in 0..vcs {
                    let (held, retired) = if local {
                        (self.sources[node].credits(vc), false)
                    } else {
                        let router = &self.routers[sender];
                        (router.output_credits(out_port, vc), router.output_retired(out_port, vc))
                    };
                    let claimed = self.routers[node].input_vc_occupancy(in_port, vc)
                        + wheels.flits_to[wheels.at(node, in_port, vc)]
                        + held
                        + wheels.credits_to[wheels.at(sender, out_port, vc)];
                    if claimed > depth || (claimed < depth && !retired) {
                        return Err(InvariantViolation {
                            clause: "credit ledger",
                            node: Some(node),
                            input_vc: Some((in_port, vc)),
                            cycle: self.clock.noc_cycle(),
                        });
                    }
                }
            }
        }
        Ok(())
    }
}

/// The two wheels recounted by receiver: flits per input VC, credits per
/// output VC (`LOCAL_PORT`: the node's source), each indexed by
/// [`at`](Self::at).
struct WheelCount {
    flits_to: Vec<usize>,
    credits_to: Vec<usize>,
    vcs: usize,
    /// Entries per node: `PORT_COUNT × vcs`.
    per_node: usize,
}

impl WheelCount {
    fn of(sim: &NocSimulation) -> Self {
        let now = sim.clock.noc_cycle();
        let vcs = sim.cfg.virtual_channels();
        let per_node = PORT_COUNT * vcs;
        let mut count = WheelCount {
            flits_to: vec![0; sim.routers.len() * per_node],
            credits_to: vec![0; sim.routers.len() * per_node],
            vcs,
            per_node,
        };
        for (_, f) in sim.flits_in_flight.iter(now) {
            let at = count.at(f.dest as usize, usize::from(f.in_port), f.flit.vc());
            count.flits_to[at] += 1;
        }
        for (_, c) in sim.credits_in_flight.iter(now) {
            let at = count.at(c.target as usize, usize::from(c.out_port), usize::from(c.vc));
            count.credits_to[at] += 1;
        }
        count
    }

    fn at(&self, node: usize, port: usize, vc: usize) -> usize {
        node * self.per_node + port * self.vcs + vc
    }
}
