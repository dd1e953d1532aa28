//! Per-node packet sources.
//!
//! A [`Source`] generates packets under the control of the *node* clock and
//! queues them until the NoC (running on its own, possibly slower, clock)
//! accepts their flits through the router's local input port. The source also
//! performs virtual-channel selection for the injection channel and obeys the
//! same credit-based flow control as inter-router links.
//!
//! The queue holds one record per waiting *packet*, not its flits: every flit
//! of a packet is a function of the record and an index, so the source builds
//! each flit as it hands it over and a backlog costs 40 bytes per packet.

use crate::flit::{Flit, PacketId};
use std::collections::VecDeque;

/// One generated packet waiting at its source: what its flits are a function
/// of, and how many of them the router has already taken.
#[derive(Debug, Clone, Copy)]
struct QueuedPacket {
    id: PacketId,
    creation_cycle: u64,
    creation_time_ps: f64,
    dst: u32,
    /// Flits in the packet (positive).
    length: u32,
    /// Flits already injected, head first (`< length`): the index of the next
    /// flit to go, and 0 exactly when the packet has not started.
    injected: u32,
}

impl QueuedPacket {
    /// The `index`-th flit of the packet (`index < length`).
    #[inline]
    fn flit(&self, src: u32, index: u32) -> Flit {
        Flit::of_packet(
            self.id,
            src,
            self.dst,
            index,
            self.length,
            self.creation_cycle,
            self.creation_time_ps,
        )
    }
}

/// State of one node's packet generator and injection queue.
#[derive(Debug)]
pub struct Source {
    node: usize,
    /// Waiting packets, oldest first; only the front one can be partly
    /// injected.
    pending: VecDeque<QueuedPacket>,
    /// Flits the queued packets still have to inject.
    queued_flits: usize,
    /// Credits for each VC of the router's local input port.
    credits: Vec<usize>,
    /// VC used by the partly injected front packet (None between packets).
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
            queued_flits: 0,
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
        self.queued_flits
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

    /// Queues one new packet of `packet_length` flits for `dst`, created at
    /// NoC cycle `cycle` / wall time `wall_ps`, and returns how many flits
    /// that is. The one way a packet enters the queue: one record is written
    /// into the queue's storage, so a packet costs no allocation once the
    /// queue has grown to its working size.
    ///
    /// # Panics
    ///
    /// Panics if `packet_length` is zero or does not fit the 32-bit flit
    /// index.
    #[inline]
    pub fn push_packet(
        &mut self,
        id: PacketId,
        dst: usize,
        packet_length: usize,
        cycle: u64,
        wall_ps: f64,
    ) -> u64 {
        assert!(packet_length > 0, "packet length must be positive");
        let length = u32::try_from(packet_length).expect("packet length fits the flit index");
        self.pending.push_back(QueuedPacket {
            id,
            creation_cycle: cycle,
            creation_time_ps: wall_ps,
            dst: dst as u32,
            length,
            injected: 0,
        });
        self.queued_flits += packet_length;
        self.flits_generated += packet_length as u64;
        self.packets_generated += 1;
        packet_length as u64
    }

    /// Picks the virtual channel the next flit would inject on — a head flit
    /// if `starts_packet` — given the current credit state, without consuming
    /// anything.
    fn injection_vc(&self, starts_packet: bool) -> Option<usize> {
        if starts_packet {
            // Starting a new packet: pick a VC with available credit,
            // scanning round-robin from `next_vc` for fairness.
            let vcs = self.credits.len();
            (0..vcs)
                .map(|offset| (self.next_vc + offset) % vcs)
                .find(|&vc| self.credits[vc] > 0)
        } else {
            // Continuing the current packet on its VC (if credit remains).
            let vc = self.active_vc.expect("partly injected packet without an active VC");
            (self.credits[vc] > 0).then_some(vc)
        }
    }

    /// Injects at most one flit this NoC cycle: builds and returns the next
    /// flit of the front packet, with `vc` already set, if the credit state
    /// of the injection channel leaves it a virtual channel to go on.
    #[inline]
    pub fn try_inject(&mut self) -> Option<Flit> {
        let packet = *self.pending.front()?;
        let vc = self.injection_vc(packet.injected == 0)?;
        let mut flit = packet.flit(self.node as u32, packet.injected);
        flit.vc = vc as u8;
        self.credits[vc] -= 1;
        self.flits_injected += 1;
        self.queued_flits -= 1;
        if flit.kind.is_head() {
            self.active_vc = Some(vc);
            self.next_vc = (vc + 1) % self.credits.len();
        }
        if flit.kind.is_tail() {
            self.active_vc = None;
            self.pending.pop_front();
        } else {
            self.pending[0].injected += 1;
        }
        Some(flit)
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
    ///
    /// The queue is written as the flits it stands for — each record expanded
    /// to the flits it has yet to inject — which is the encoding the format
    /// has always had.
    pub(crate) fn save_state(&self, w: &mut crate::snapshot::SnapWriter) {
        w.put_usize(self.queued_flits);
        for packet in &self.pending {
            for index in packet.injected..packet.length {
                packet.flit(self.node as u32, index).save_state(w);
            }
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
    /// from this node or goes to no node, or when the stored flits are not
    /// exactly what a queue of packet records expands to — states the
    /// injection path would otherwise index or `expect` its way into.
    ///
    /// The flits are regrouped into records as they are read. Each run must
    /// be the remainder of one packet: one id, creation cycle, creation time
    /// and destination throughout, consecutive indices ending on the tail, a
    /// head kind exactly at index 0, no VC and no hops yet. Only the first
    /// run may open past its head, and it must when (and only when) the
    /// active VC says a packet is partly injected. The queue grows with the
    /// bytes actually read, never from the stored count.
    pub(crate) fn load_state(
        &mut self,
        r: &mut crate::snapshot::SnapReader<'_>,
        depth: usize,
        nodes: usize,
    ) -> Result<(), crate::snapshot::SnapshotError> {
        use crate::snapshot::SnapshotError;
        let framing = || SnapshotError::Corrupt("source queue packet framing");
        let queued = r.read_usize()?;
        self.pending.clear();
        // The packet whose run is being read; its `length` is the number of
        // its flits accounted for so far, i.e. the index the next one carries.
        let mut open: Option<QueuedPacket> = None;
        let mut opens_mid_packet = false;
        for position in 0..queued {
            let flit = Flit::load_state(r)?;
            if flit.src() != self.node || flit.dst() >= nodes {
                return Err(SnapshotError::Corrupt("queued flit endpoint"));
            }
            let index = flit.index_in_packet;
            if flit.vc != 0 || flit.hops != 0 || flit.kind.is_head() != (index == 0) {
                return Err(framing());
            }
            let mut packet = match open.take() {
                Some(packet) => {
                    let same_packet = flit.packet_id == packet.id
                        && flit.creation_cycle == packet.creation_cycle
                        && flit.creation_time_ps.to_bits() == packet.creation_time_ps.to_bits()
                        && flit.dst == packet.dst;
                    if !same_packet || index != packet.length {
                        return Err(framing());
                    }
                    packet
                }
                None => {
                    if index != 0 {
                        if position != 0 {
                            return Err(framing());
                        }
                        opens_mid_packet = true;
                    }
                    QueuedPacket {
                        id: flit.packet_id,
                        creation_cycle: flit.creation_cycle,
                        creation_time_ps: flit.creation_time_ps,
                        dst: flit.dst,
                        length: index,
                        injected: index,
                    }
                }
            };
            packet.length = index.checked_add(1).ok_or_else(framing)?;
            if flit.kind.is_tail() {
                self.pending.push_back(packet);
            } else {
                open = Some(packet);
            }
        }
        if open.is_some() {
            return Err(framing());
        }
        self.queued_flits = queued;
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
        if active_vc.is_some() != opens_mid_packet {
            return Err(framing());
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
    use crate::snapshot::{SnapReader, SnapWriter, SnapshotError};
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

    /// The queue of packet records is the queue of flits it replaced: under
    /// random credit-return schedules, what leaves `try_inject` is
    /// `Flit::new(id, node, dst, i, len, cycle, wall_ps)` for `i` ascending,
    /// packet after packet, on the VC the injection rules name — a head on
    /// the first VC with a credit scanning round-robin from the VC after the
    /// last head's, every later flit on its head's VC, nothing without a
    /// credit.
    #[test]
    fn injected_flits_are_the_packets_flits_in_order() {
        use rand::Rng;
        const NODE: usize = 3;
        const PACKETS: u64 = 12;
        let mut rng = StdRng::seed_from_u64(0x50c);
        for len in [1usize, 2, 5, 20] {
            for (vcs, depth) in [(1, 1), (2, 4), (4, 2), (3, 7)] {
                let mut src = Source::new(NODE, vcs, depth);
                let packet =
                    |id: u64| (PacketId::new(100 + id), (id % 7) as usize, 10 * id, 0.5 * id as f64);
                for id in 0..PACKETS {
                    let (pid, dst, cycle, wall_ps) = packet(id);
                    assert_eq!(src.push_packet(pid, dst, len, cycle, wall_ps), len as u64);
                }
                // The reference model of the injection channel: credits per
                // VC, the VCs of flits the router still holds, the scan start
                // and the VC of the packet in progress.
                let mut credits = vec![depth; vcs];
                let mut held: Vec<usize> = Vec::new();
                let (mut next_vc, mut packet_vc) = (0, None);
                let mut injected = 0usize;
                while injected < PACKETS as usize * len {
                    if !held.is_empty() && rng.gen_bool(0.4) {
                        let vc = held.swap_remove(rng.gen_range(0..held.len()));
                        src.return_credit(vc);
                        credits[vc] += 1;
                    }
                    let (id, index) = ((injected / len) as u64, injected % len);
                    let expected_vc = match packet_vc {
                        None => (0..vcs).map(|o| (next_vc + o) % vcs).find(|&vc| credits[vc] > 0),
                        Some(vc) => (credits[vc] > 0).then_some(vc),
                    };
                    assert_eq!(src.queued_flits(), PACKETS as usize * len - injected);
                    assert!(src.has_pending_flits());
                    let Some(vc) = expected_vc else {
                        assert!(src.try_inject().is_none(), "len {len}: injected without a credit");
                        assert!(!held.is_empty(), "len {len}: stalled with every credit at home");
                        continue;
                    };
                    let (pid, dst, cycle, wall_ps) = packet(id);
                    let mut expected = Flit::new(pid, NODE, dst, index, len, cycle, wall_ps);
                    expected.vc = vc as u8;
                    assert_eq!(src.try_inject(), Some(expected), "len {len}, {vcs} VCs of {depth}");
                    credits[vc] -= 1;
                    held.push(vc);
                    if index == 0 {
                        next_vc = (vc + 1) % vcs;
                    }
                    packet_vc = (index + 1 < len).then_some(vc);
                    injected += 1;
                }
                assert!(!src.has_pending_flits() && src.queued_flits() == 0);
                assert!(src.try_inject().is_none());
                assert_eq!(src.flits_injected(), PACKETS * len as u64);
            }
        }
    }

    impl Source {
        /// The queue as the flits it stands for, built one by one with the
        /// checked constructor.
        fn queue_as_flits(&self) -> Vec<Flit> {
            let flits = self.pending.iter().flat_map(|p| {
                (p.injected..p.length).map(|i| {
                    let (dst, i, len) = (p.dst as usize, i as usize, p.length as usize);
                    Flit::new(p.id, self.node, dst, i, len, p.creation_cycle, p.creation_time_ps)
                })
            });
            flits.collect()
        }

        /// The source section as `save_state` wrote it while the queue was a
        /// `VecDeque<Flit>`, for a queue of `flits` and a given active VC.
        fn save_flit_queue(&self, flits: &[Flit], active_vc: Option<usize>, w: &mut SnapWriter) {
            w.put_usize(flits.len());
            flits.iter().for_each(|flit| flit.save_state(w));
            w.put_usize(self.credits.len());
            self.credits.iter().for_each(|credit| w.put_usize(*credit));
            w.put_opt_u64(active_vc.map(|vc| vc as u64));
            w.put_usize(self.next_vc);
            w.put_u64(self.flits_generated);
            w.put_u64(self.packets_generated);
            w.put_u64(self.flits_injected);
        }

        /// The flit-by-flit reference encoder `save_state` must agree with
        /// byte for byte.
        pub(crate) fn save_state_reference(&self, w: &mut SnapWriter) {
            self.save_flit_queue(&self.queue_as_flits(), self.active_vc, w);
        }
    }

    /// A source of node 3 (of 16; 2 VCs of 4) that has injected `injected`
    /// flits of the first of three 5-flit packets.
    fn backlogged(injected: usize) -> Source {
        let mut src = Source::new(3, 2, 4);
        for id in 0..3 {
            src.push_packet(PacketId::new(40 + id), 9, 5, 100 + id, 2.5);
        }
        for _ in 0..injected {
            src.try_inject().expect("credit available");
        }
        src
    }

    /// Loads the source section a flit-queue source would have written for
    /// `src` with its queue and active VC passed through `mangle`.
    fn reload(
        src: &Source,
        mangle: impl FnOnce(&mut Vec<Flit>, &mut Option<usize>),
    ) -> Result<Source, SnapshotError> {
        let (mut flits, mut active_vc) = (src.queue_as_flits(), src.active_vc);
        mangle(&mut flits, &mut active_vc);
        let mut w = SnapWriter::new();
        src.save_flit_queue(&flits, active_vc, &mut w);
        let bytes = w.into_vec();
        let mut fresh = Source::new(3, 2, 4);
        let mut r = SnapReader::new(&bytes);
        fresh.load_state(&mut r, 4, 16)?;
        r.finish()?;
        Ok(fresh)
    }

    #[test]
    fn snapshot_is_the_flit_queue_encoding_and_loads_back() {
        for injected in [0, 1, 3, 4] {
            let src = backlogged(injected);
            let (mut records, mut flit_by_flit) = (SnapWriter::new(), SnapWriter::new());
            src.save_state(&mut records);
            src.save_state_reference(&mut flit_by_flit);
            let bytes = records.into_vec();
            assert_eq!(bytes, flit_by_flit.into_vec(), "{injected} flits injected");
            // Loading regroups the flits into the records they came from.
            let mut loaded = reload(&src, |_, _| {}).expect("an untouched section loads");
            let mut again = SnapWriter::new();
            loaded.save_state(&mut again);
            assert_eq!(again.into_vec(), bytes);
            assert_eq!(loaded.queued_flits(), 15 - injected);
            if loaded.credits(0) == 0 {
                loaded.return_credit(0);
            }
            let next = loaded.try_inject().expect("credit available");
            assert_eq!(next.packet_id, PacketId::new(40));
            assert_eq!(next.index_in_packet, injected as u32);
        }
    }

    #[test]
    fn a_queue_that_is_not_a_run_of_packet_remainders_is_refused() {
        type Mangle = fn(&mut Vec<Flit>, &mut Option<usize>);
        let framing = Err(SnapshotError::Corrupt("source queue packet framing"));
        // Mid-packet source: flits 3 and 4 of the first packet lead the queue.
        let cases: [(&str, usize, Mangle); 17] = [
            ("a flit missing inside a packet", 0, |q, _| {
                q.remove(7);
            }),
            ("flits out of order inside a packet", 0, |q, _| q.swap(7, 8)),
            ("a flit twice", 0, |q, _| q.insert(7, q[7])),
            ("the queue ends before the tail", 0, |q, _| q.truncate(14)),
            ("a later packet opens past its head", 3, |q, _| {
                q.remove(2);
            }),
            ("the queue opens past a head no VC holds", 3, |_, vc| *vc = None),
            ("a VC held although the queue opens on a head", 0, |_, vc| *vc = Some(1)),
            ("a VC held by an empty queue", 0, |q, vc| {
                q.clear();
                *vc = Some(0);
            }),
            ("a body flit at index 0", 0, |q, _| q[5].kind = crate::flit::FlitKind::Body),
            ("a head flit past index 0", 0, |q, _| q[6].kind = crate::flit::FlitKind::Head),
            ("a tail ahead of the packet's end", 0, |q, _| q[6].kind = crate::flit::FlitKind::Tail),
            ("a flit already on a VC", 0, |q, _| q[6].vc = 1),
            ("a flit that has travelled", 0, |q, _| q[6].hops = 1),
            ("two packet ids in one run", 0, |q, _| q[6].packet_id = PacketId::new(7)),
            ("two creation cycles in one run", 0, |q, _| q[6].creation_cycle += 1),
            ("two creation times in one run", 0, |q, _| q[6].creation_time_ps = -2.5),
            ("two destinations in one run", 0, |q, _| q[6].dst = 10),
        ];
        for (what, injected, mangle) in cases {
            assert_eq!(reload(&backlogged(injected), mangle).map(drop), framing, "{what}");
        }
        // The stored count is only a loop bound: a huge one runs into the
        // end of the bytes, not into an allocation.
        let mut w = SnapWriter::new();
        w.put_usize(usize::MAX);
        let bytes = w.into_vec();
        let mut fresh = Source::new(3, 2, 4);
        let loaded = fresh.load_state(&mut SnapReader::new(&bytes), 4, 16);
        assert_eq!(loaded, Err(SnapshotError::UnexpectedEof));
        assert_eq!(fresh.pending.capacity(), 0, "nothing was sized from the stored count");
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
