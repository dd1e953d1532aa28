//! Per-node packet sources.
//!
//! A [`Source`] generates packets under the control of the *node* clock and
//! queues their flits until the NoC (running on its own, possibly slower,
//! clock) accepts them through the router's local input port. The source also
//! performs virtual-channel selection for the injection channel and obeys the
//! same credit-based flow control as inter-router links.

use crate::flit::{Flit, PacketId};
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

    /// Number of flits generated so far (includes flits still queued).
    pub fn flits_generated(&self) -> u64 {
        self.flits_generated
    }

    /// Number of flits actually handed to the router so far.
    #[cfg(test)]
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

    /// Injects at most one flit this NoC cycle: pops and returns the front
    /// flit, with `vc` already set, if the credit state of the injection
    /// channel leaves it a virtual channel to go on.
    #[inline]
    pub fn try_inject(&mut self) -> Option<Flit> {
        let vc = self.injection_vc()?;
        let mut flit = self.pending.pop_front().expect("injection_vc saw a front flit");
        flit.vc = vc as u8;
        self.finish_injection(vc, flit.kind);
        Some(flit)
    }

    /// Credit/VC bookkeeping after a flit left the queue.
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

    /// Current credit count of a VC.
    #[cfg(test)]
    pub fn credits(&self, vc: usize) -> usize {
        self.credits[vc]
    }
}

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
    use crate::topology::{Topology, TopologyKind};
    use crate::traffic::{SyntheticTraffic, TrafficPattern, TrafficSpec};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Queues `packets` packets of `packet_length` flits, as phase 2 of the
    /// engine does for every hit of `generate_tick`.
    fn queue_packets(src: &mut Source, packets: u64, packet_length: usize) {
        for id in 0..packets {
            src.push_packet(PacketId::new(id), 1, packet_length, 0, 0.0);
        }
    }

    #[test]
    fn generation_queues_whole_packets() {
        let mut src = Source::new(0, 2, 4);
        queue_packets(&mut src, 5, 3);
        assert_eq!(src.packets_generated, 5);
        assert_eq!(src.flits_generated(), 15);
        assert_eq!(src.queued_flits(), 15);
        // Head, body, tail — five times over, in packet order.
        for id in 0..5 {
            let flits: Vec<_> = (0..3).map(|_| src.try_inject().unwrap()).collect();
            assert!(flits.iter().all(|f| f.packet_id == PacketId::new(id)));
            assert!(flits[0].kind.is_head() && !flits[0].kind.is_tail());
            assert!(!flits[1].kind.is_head() && !flits[1].kind.is_tail());
            assert!(flits[2].kind.is_tail() && !flits[2].kind.is_head());
            flits.iter().for_each(|f| src.return_credit(f.vc as usize));
        }
    }

    #[test]
    fn injection_respects_credits() {
        let mut src = Source::new(0, 1, 2);
        queue_packets(&mut src, 1, 4);
        // Only two credits available on the single VC.
        for _ in 0..2 {
            src.try_inject().expect("credit available");
        }
        assert_eq!(src.credits(0), 0);
        assert!(src.try_inject().is_none(), "out of credits");
        assert_eq!(src.queued_flits(), 2, "a refused injection must leave the queue alone");
        assert_eq!(src.flits_injected(), 2);
        src.return_credit(0);
        assert!(src.try_inject().is_some());
        assert!(src.try_inject().is_none(), "one credit buys one flit");
    }

    #[test]
    fn new_packet_waits_for_a_free_vc() {
        let mut src = Source::new(0, 2, 1);
        queue_packets(&mut src, 3, 1);
        // Two single-flit packets can go out (one per VC), the third stalls.
        let first = src.try_inject().unwrap();
        let second = src.try_inject().unwrap();
        assert_ne!(first.vc, second.vc, "round-robin VC selection should spread packets");
        assert!(src.try_inject().is_none());
        src.return_credit(first.vc as usize);
        assert_eq!(src.try_inject().map(|f| f.vc), Some(first.vc));
    }

    #[test]
    fn body_flits_stay_on_the_packet_vc() {
        let mut src = Source::new(0, 4, 2);
        queue_packets(&mut src, 1, 3);
        let head = src.try_inject().unwrap();
        let body = src.try_inject().unwrap();
        // The packet's VC is out of credit while three others sit idle: the
        // tail waits for its own VC instead of hopping to a free one.
        assert!(src.try_inject().is_none());
        src.return_credit(head.vc as usize);
        let tail = src.try_inject().unwrap();
        assert_eq!(head.vc, body.vc);
        assert_eq!(head.vc, tail.vc);
        assert_eq!(src.flits_injected(), 3);
    }

    #[test]
    fn vc_selection_starts_after_the_last_packets_vc() {
        let mut src = Source::new(0, 3, 2);
        queue_packets(&mut src, 8, 1);
        let next_vcs = |src: &mut Source| -> Vec<Option<u8>> {
            (0..4).map(|_| src.try_inject().map(|f| f.vc)).collect()
        };
        // With credit everywhere, successive packets rotate through the VCs.
        assert_eq!(next_vcs(&mut src), [Some(0), Some(1), Some(2), Some(0)]);
        // VC 0 has a credit again, but the scan starts after the last head's
        // VC, not at the lowest free one.
        src.return_credit(0);
        assert_eq!(next_vcs(&mut src), [Some(1), Some(2), Some(0), None]);
        // From VC 1 the scan wraps around to the only VC with credit.
        src.return_credit(0);
        assert_eq!(src.try_inject().map(|f| f.vc), Some(0));
    }

    #[test]
    fn bernoulli_source_generates_nothing_at_zero_rate() {
        let topo = Topology::with_kind(TopologyKind::Mesh, 4, 4);
        let mut src = Source::new(3, 2, 4);
        let mut traffic = SyntheticTraffic::new(TrafficPattern::Uniform, 0.0, 5);
        let mut rng = StdRng::seed_from_u64(1);
        traffic.generate_tick(16, 0, 10_000, &topo, &mut rng, &mut |node, _, dst| {
            if node == 3 {
                src.push_packet(PacketId::new(0), dst, 5, 0, 0.0);
            }
        });
        assert_eq!(src.flits_generated(), 0);
        assert!(src.try_inject().is_none());
    }
}
