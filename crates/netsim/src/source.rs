//! Per-node packet sources.
//!
//! A [`Source`] generates packets under the control of the *node* clock and
//! queues their flits until the NoC (running on its own, possibly slower,
//! clock) accepts them through the router's local input port. The source also
//! performs virtual-channel selection for the injection channel and obeys the
//! same credit-based flow control as inter-router links.

use crate::flit::{Flit, PacketId};
use crate::topology::Topology;
use crate::traffic::TrafficSpec;
use rand::rngs::StdRng;
use std::collections::VecDeque;

/// State of one node's packet generator and injection queue.
#[derive(Debug)]
pub struct Source {
    node: usize,
    pending: VecDeque<Flit>,
    /// Credits for each VC of the router's local input port.
    credits: Vec<usize>,
    /// VC currently used by the packet being injected (None between packets).
    active_vc: Option<usize>,
    /// Preferred starting VC for the next packet (rotated for fairness).
    next_vc: usize,
    flits_generated: u64,
    packets_generated: u64,
    flits_injected: u64,
}

/// A flit that the source wants to place into the router's local input port
/// this cycle, on virtual channel `vc`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InjectionOffer {
    /// Virtual channel of the local input port to write into.
    pub vc: usize,
    /// The flit to inject.
    pub flit: Flit,
}

impl Source {
    /// Creates a source for `node`, with `vcs` virtual channels of `depth`
    /// flits each on the injection channel.
    pub fn new(node: usize, vcs: usize, depth: usize) -> Self {
        assert!(vcs > 0 && depth > 0);
        Source {
            node,
            pending: VecDeque::new(),
            credits: vec![depth; vcs],
            active_vc: None,
            next_vc: 0,
            flits_generated: 0,
            packets_generated: 0,
            flits_injected: 0,
        }
    }

    /// The node this source injects at.
    pub fn node(&self) -> usize {
        self.node
    }

    /// Number of flits generated so far (includes flits still queued).
    pub fn flits_generated(&self) -> u64 {
        self.flits_generated
    }

    /// Number of packets generated so far.
    pub fn packets_generated(&self) -> u64 {
        self.packets_generated
    }

    /// Number of flits actually handed to the router so far.
    pub fn flits_injected(&self) -> u64 {
        self.flits_injected
    }

    /// Number of flits waiting in the source queue.
    pub fn queued_flits(&self) -> usize {
        self.pending.len()
    }

    /// Whether any flit is waiting to be injected.
    ///
    /// The simulation driver polls [`try_inject`](Self::try_inject) only for
    /// sources with pending flits (tracked in a per-64-node bitset), so an
    /// idle source costs nothing per cycle; a source that is merely blocked
    /// on injection credits stays in the worklist — backed-up traffic *is*
    /// activity.
    #[inline]
    pub fn has_pending_flits(&self) -> bool {
        !self.pending.is_empty()
    }

    /// Queues the flits of one new packet for `dst`, created at NoC cycle
    /// `cycle` / wall time `wall_ps`, and returns how many flits that is. The
    /// one way a packet enters the queue: flits are written straight into
    /// the queue's storage, so a packet costs no allocation once the queue
    /// has grown to its working size.
    #[inline]
    pub fn push_packet(
        &mut self,
        id: PacketId,
        dst: usize,
        packet_length: usize,
        cycle: u64,
        wall_ps: f64,
    ) -> u64 {
        let node = self.node;
        self.pending.extend(
            (0..packet_length).map(|i| Flit::new(id, node, dst, i, packet_length, cycle, wall_ps)),
        );
        self.flits_generated += packet_length as u64;
        self.packets_generated += 1;
        packet_length as u64
    }

    /// Runs `node_cycles` node-clock cycles of packet generation for this
    /// node alone, covering the absolute node cycles `start_node_cycle ..
    /// start_node_cycle + node_cycles` (the clock the event-horizon skip
    /// contract and trace record/replay speak in). The simulation engine
    /// generates for the whole fabric at once through
    /// [`TrafficSpec::generate_tick`]; this is the single-source form for
    /// driving a `Source` by hand.
    ///
    /// `next_packet_id` is a monotonically increasing counter shared across
    /// sources (owned by the simulation); newly generated packets consume ids
    /// from it.
    #[allow(clippy::too_many_arguments)]
    pub fn generate(
        &mut self,
        node_cycles: u64,
        start_node_cycle: u64,
        traffic: &mut dyn TrafficSpec,
        topo: &Topology,
        rng: &mut StdRng,
        next_packet_id: &mut u64,
        current_cycle: u64,
        wall_time_ps: f64,
    ) {
        for offset in 0..node_cycles {
            if let Some(dst) =
                traffic.maybe_generate(self.node, start_node_cycle + offset, topo, rng)
            {
                let id = PacketId::new(*next_packet_id);
                *next_packet_id += 1;
                self.push_packet(id, dst, traffic.packet_length(), current_cycle, wall_time_ps);
            }
        }
    }

    /// Picks the virtual channel the front flit would inject on, given the
    /// current credit state, without consuming anything.
    fn injection_vc(&self) -> Option<usize> {
        let front = self.pending.front()?;
        if front.kind.is_head() {
            // Starting a new packet: pick a VC with available credit,
            // scanning round-robin from `next_vc` for fairness.
            let vcs = self.credits.len();
            (0..vcs)
                .map(|offset| (self.next_vc + offset) % vcs)
                .find(|&vc| self.credits[vc] > 0)
        } else {
            // Continuing the current packet on its VC (if credit remains).
            let vc = self.active_vc.expect("body flit without an active packet");
            (self.credits[vc] > 0).then_some(vc)
        }
    }

    /// Proposes at most one flit to inject this NoC cycle, given the credit
    /// state of the injection channel. Call
    /// [`commit_injection`](Self::commit_injection) if the offer
    /// is accepted. `Flit` is `Copy`, so the offer is a cheap stack value —
    /// the hot path uses [`try_inject`](Self::try_inject), which pops the
    /// queue directly instead of going through an offer.
    pub fn injection_offer(&mut self) -> Option<InjectionOffer> {
        let vc = self.injection_vc()?;
        let mut flit = *self.pending.front().expect("injection_vc saw a front flit");
        flit.vc = vc as u8;
        Some(InjectionOffer { vc, flit })
    }

    /// Consumes the offered flit after the network accepted it.
    pub fn commit_injection(&mut self, offer: &InjectionOffer) {
        let flit = self.pending.pop_front().expect("committed injection without pending flit");
        debug_assert_eq!(flit.packet_id, offer.flit.packet_id);
        self.finish_injection(offer.vc, offer.flit.kind);
    }

    /// Pops and returns the front flit if a virtual channel with credit is
    /// available, with `vc` already set — the allocation-free equivalent of
    /// an [`injection_offer`](Self::injection_offer) followed by
    /// [`commit_injection`](Self::commit_injection).
    #[inline]
    pub fn try_inject(&mut self) -> Option<Flit> {
        let vc = self.injection_vc()?;
        let mut flit = self.pending.pop_front().expect("injection_vc saw a front flit");
        flit.vc = vc as u8;
        self.finish_injection(vc, flit.kind);
        Some(flit)
    }

    /// Shared credit/VC bookkeeping after a flit left the queue.
    fn finish_injection(&mut self, vc: usize, kind: crate::flit::FlitKind) {
        self.credits[vc] -= 1;
        self.flits_injected += 1;
        if kind.is_head() {
            self.active_vc = Some(vc);
            self.next_vc = (vc + 1) % self.credits.len();
        }
        if kind.is_tail() {
            self.active_vc = None;
        }
    }

    /// Returns one credit for VC `vc` of the injection channel (the router
    /// read a flit out of the corresponding input buffer).
    pub fn return_credit(&mut self, vc: usize) {
        assert!(vc < self.credits.len(), "credit for unknown vc");
        self.credits[vc] += 1;
    }

    /// Current credit count of a VC (test/diagnostic hook).
    pub fn credits(&self, vc: usize) -> usize {
        self.credits[vc]
    }
}

#[cfg(feature = "snapshot")]
impl Source {
    /// Encodes the injection queue, credit state and counters for a
    /// checkpoint. The node index is configuration and is not written.
    pub(crate) fn save_state(&self, w: &mut crate::snapshot::SnapWriter) {
        w.put_usize(self.pending.len());
        for flit in &self.pending {
            flit.save_state(w);
        }
        w.put_usize(self.credits.len());
        for credit in &self.credits {
            w.put_usize(*credit);
        }
        w.put_opt_u64(self.active_vc.map(|vc| vc as u64));
        w.put_usize(self.next_vc);
        w.put_u64(self.flits_generated);
        w.put_u64(self.packets_generated);
        w.put_u64(self.flits_injected);
    }

    /// Replaces the mutable source state with the checkpointed one.
    ///
    /// `depth` is the buffer depth of the injection channel's VCs and `nodes`
    /// the fabric's node count: a snapshot is refused when a credit count
    /// exceeds the buffer it stands for, when a queued flit does not come
    /// from this node or goes to no node, or when the queue is not a run of
    /// whole packets behind the (possibly partly injected) one the active VC
    /// belongs to — states the injection path would otherwise index or
    /// `expect` its way into.
    pub(crate) fn load_state(
        &mut self,
        r: &mut crate::snapshot::SnapReader<'_>,
        depth: usize,
        nodes: usize,
    ) -> Result<(), crate::snapshot::SnapshotError> {
        use crate::snapshot::SnapshotError;
        let queued = r.read_usize()?;
        self.pending.clear();
        for _ in 0..queued {
            let flit = Flit::load_state(r)?;
            if flit.src() != self.node || flit.dst() >= nodes {
                return Err(SnapshotError::Corrupt("queued flit endpoint"));
            }
            self.pending.push_back(flit);
        }
        let vcs = r.read_usize()?;
        if vcs != self.credits.len() {
            return Err(SnapshotError::Corrupt("source VC count"));
        }
        for credit in &mut self.credits {
            *credit = r.read_usize()?;
            if *credit > depth {
                return Err(SnapshotError::Corrupt("source credit count"));
            }
        }
        let active_vc = r.read_opt_u64()?.map(|vc| vc as usize);
        if active_vc.is_some_and(|vc| vc >= self.credits.len()) {
            return Err(SnapshotError::Corrupt("source active VC"));
        }
        let mut mid_packet = active_vc.is_some();
        for flit in &self.pending {
            if flit.kind.is_head() == mid_packet {
                return Err(SnapshotError::Corrupt("source queue packet framing"));
            }
            mid_packet = !flit.kind.is_tail();
        }
        self.active_vc = active_vc;
        let next_vc = r.read_usize()?;
        if next_vc >= self.credits.len() {
            return Err(SnapshotError::Corrupt("source next VC"));
        }
        self.next_vc = next_vc;
        self.flits_generated = r.read_u64()?;
        self.packets_generated = r.read_u64()?;
        self.flits_injected = r.read_u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Mesh2d;
    use crate::traffic::{SyntheticTraffic, TrafficPattern};
    use rand::SeedableRng;

    /// Traffic that generates a packet on every node cycle (for tests).
    #[derive(Debug)]
    struct Saturating {
        packet_length: usize,
    }

    impl TrafficSpec for Saturating {
        fn packet_length(&self) -> usize {
            self.packet_length
        }
        fn offered_load(&self) -> f64 {
            self.packet_length as f64
        }
        fn maybe_generate(
            &mut self,
            src: usize,
            _node_cycle: u64,
            topo: &Topology,
            _rng: &mut StdRng,
        ) -> Option<usize> {
            Some((src + 1) % topo.node_count())
        }
    }

    #[test]
    fn generation_queues_whole_packets() {
        let mesh = Mesh2d::new(4, 4);
        let mut src = Source::new(0, 2, 4);
        let mut traffic = Saturating { packet_length: 3 };
        let mut rng = StdRng::seed_from_u64(1);
        let mut next_id = 0;
        src.generate(5, 0, &mut traffic, &mesh, &mut rng, &mut next_id, 0, 0.0);
        assert_eq!(src.packets_generated(), 5);
        assert_eq!(src.flits_generated(), 15);
        assert_eq!(src.queued_flits(), 15);
        assert_eq!(next_id, 5);
    }

    #[test]
    fn injection_respects_credits() {
        let mesh = Mesh2d::new(4, 4);
        let mut src = Source::new(0, 1, 2);
        let mut traffic = Saturating { packet_length: 4 };
        let mut rng = StdRng::seed_from_u64(1);
        let mut next_id = 0;
        src.generate(1, 0, &mut traffic, &mesh, &mut rng, &mut next_id, 0, 0.0);
        // Only two credits available on the single VC.
        for _ in 0..2 {
            let offer = src.injection_offer().expect("credit available");
            src.commit_injection(&offer);
        }
        assert!(src.injection_offer().is_none(), "out of credits");
        src.return_credit(0);
        assert!(src.injection_offer().is_some());
    }

    #[test]
    fn new_packet_waits_for_a_free_vc() {
        let mesh = Mesh2d::new(4, 4);
        let mut src = Source::new(0, 2, 1);
        let mut traffic = Saturating { packet_length: 1 };
        let mut rng = StdRng::seed_from_u64(1);
        let mut next_id = 0;
        src.generate(3, 0, &mut traffic, &mesh, &mut rng, &mut next_id, 0, 0.0);
        // Two single-flit packets can go out (one per VC), the third stalls.
        let o1 = src.injection_offer().unwrap();
        src.commit_injection(&o1);
        let o2 = src.injection_offer().unwrap();
        src.commit_injection(&o2);
        assert_ne!(o1.vc, o2.vc, "round-robin VC selection should spread packets");
        assert!(src.injection_offer().is_none());
        src.return_credit(o1.vc);
        assert!(src.injection_offer().is_some());
    }

    #[test]
    fn body_flits_stay_on_the_packet_vc() {
        let mesh = Mesh2d::new(4, 4);
        let mut src = Source::new(0, 4, 8);
        let mut traffic = Saturating { packet_length: 3 };
        let mut rng = StdRng::seed_from_u64(1);
        let mut next_id = 0;
        src.generate(1, 0, &mut traffic, &mesh, &mut rng, &mut next_id, 0, 0.0);
        let head = src.injection_offer().unwrap();
        src.commit_injection(&head);
        let body = src.injection_offer().unwrap();
        src.commit_injection(&body);
        let tail = src.injection_offer().unwrap();
        src.commit_injection(&tail);
        assert_eq!(head.vc, body.vc);
        assert_eq!(head.vc, tail.vc);
        assert_eq!(src.flits_injected(), 3);
    }

    #[test]
    fn bernoulli_source_generates_nothing_at_zero_rate() {
        let mesh = Mesh2d::new(4, 4);
        let mut src = Source::new(3, 2, 4);
        let mut traffic = SyntheticTraffic::new(TrafficPattern::Uniform, 0.0, 5);
        let mut rng = StdRng::seed_from_u64(1);
        let mut next_id = 0;
        src.generate(10_000, 0, &mut traffic, &mesh, &mut rng, &mut next_id, 0, 0.0);
        assert_eq!(src.flits_generated(), 0);
        assert!(src.injection_offer().is_none());
    }
}
