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
    pub fn credits(&self, vc: usize) -> usize {
        self.credits[vc]
    }
}

impl Source {
    /// Encodes the injection queue — one record per waiting packet — the
    /// credit state and the counters for a checkpoint. The node index is
    /// configuration and is not written; `queued_flits` follows from the
    /// records.
    pub(crate) fn save_state(&self, w: &mut crate::snapshot::SnapWriter) {
        w.put_usize(self.pending.len());
        for packet in &self.pending {
            w.put_u64(packet.id.as_u64());
            w.put_u64(packet.creation_cycle);
            w.put_f64(packet.creation_time_ps);
            w.put_u32(packet.dst);
            w.put_u32(packet.length);
            w.put_u32(packet.injected);
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
    /// the fabric's node count. A snapshot is refused when a credit count
    /// exceeds the buffer it stands for or when a record is one `push_packet`
    /// and `try_inject` could not have left behind — a destination that is no
    /// node, no flits, nothing left to inject, a partly injected packet
    /// anywhere but at the front, or a front packet that disagrees with the
    /// active VC about being partly injected — states the injection path
    /// would otherwise index or `expect` its way into. The queue grows with
    /// the bytes actually read, never from the stored count.
    pub(crate) fn load_state(
        &mut self,
        r: &mut crate::snapshot::SnapReader<'_>,
        depth: usize,
        nodes: usize,
    ) -> Result<(), crate::snapshot::SnapshotError> {
        use crate::snapshot::SnapshotError;
        let record = || SnapshotError::Corrupt("source queue packet record");
        let queued = r.read_usize()?;
        self.pending.clear();
        self.queued_flits = 0;
        for position in 0..queued {
            let packet = QueuedPacket {
                id: PacketId::new(r.read_u64()?),
                creation_cycle: r.read_u64()?,
                creation_time_ps: r.read_f64()?,
                dst: r.read_u32()?,
                length: r.read_u32()?,
                injected: r.read_u32()?,
            };
            if packet.dst as usize >= nodes
                || packet.injected >= packet.length
                || (packet.injected > 0 && position > 0)
            {
                return Err(record());
            }
            let left = (packet.length - packet.injected) as usize;
            self.queued_flits = self.queued_flits.checked_add(left).ok_or_else(record)?;
            self.pending.push_back(packet);
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
        if active_vc.is_some() != self.pending.front().is_some_and(|p| p.injected > 0) {
            return Err(record());
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

    fn saved(src: &Source) -> Vec<u8> {
        let mut w = SnapWriter::new();
        src.save_state(&mut w);
        w.into_vec()
    }

    /// Loads the section `src` writes into a fresh source of the same node.
    fn reload(src: &Source) -> Result<Source, SnapshotError> {
        let bytes = saved(src);
        let mut fresh = Source::new(3, 2, 4);
        let mut r = SnapReader::new(&bytes);
        fresh.load_state(&mut r, 4, 16)?;
        r.finish()?;
        Ok(fresh)
    }

    #[test]
    fn snapshot_is_one_record_per_packet_and_loads_back() {
        for injected in [0, 1, 3, 4] {
            let src = backlogged(injected);
            let bytes = saved(&src);
            // A count and three 36-byte records, whatever the packets' length;
            // two credit counts behind theirs; the active VC; the scan start
            // and three counters.
            let active_vc = if injected == 0 { 1 } else { 9 };
            assert_eq!(bytes.len(), 8 + 3 * 36 + 8 + 2 * 8 + active_vc + 8 + 3 * 8);
            let mut loaded = reload(&src).expect("an untouched section loads");
            assert_eq!(saved(&loaded), bytes);
            assert_eq!(loaded.queued_flits(), 15 - injected, "recomputed from the records");
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
        let refused = Err(SnapshotError::Corrupt("source queue packet record"));
        // Mid-packet source: three of the front packet's five flits are gone.
        type Mangle = fn(&mut Source);
        let cases: [(&str, usize, Mangle); 9] = [
            ("a destination that is no node", 0, |s| s.pending[1].dst = 16),
            ("a packet of no flits", 0, |s| s.pending[1].length = 0),
            ("a front packet with nothing left to inject", 3, |s| s.pending[0].injected = 5),
            ("more flits injected than the packet has", 3, |s| s.pending[0].injected = 6),
            ("a later packet partly injected", 0, |s| s.pending[1].injected = 1),
            ("a later packet partly injected behind a partly injected one", 3, |s| {
                s.pending[2].injected = 4;
            }),
            ("a partly injected front packet no VC holds", 3, |s| s.active_vc = None),
            ("a VC held although the front packet has not started", 0, |s| s.active_vc = Some(1)),
            ("a VC held by an empty queue", 0, |s| {
                s.pending.clear();
                s.active_vc = Some(0);
            }),
        ];
        for (what, injected, mangle) in cases {
            let mut src = backlogged(injected);
            mangle(&mut src);
            assert_eq!(reload(&src).map(drop), refused, "{what}");
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
