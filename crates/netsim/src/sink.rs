//! Packet ejection and completion records.
//!
//! The sink is where a packet's life ends: when its tail flit leaves the
//! network through a router's local output port, the sink produces a
//! [`PacketRecord`] holding both the latency in NoC cycles and the delay in
//! wall-clock time — the two quantities whose divergence under DVFS is the
//! central topic of the paper.

use crate::flit::Flit;
use crate::stats::PacketRecord;

/// Reassembles packets at their destinations and emits completion records.
///
/// # Performance
///
/// The sink is allocation-free and O(1) per flit: wormhole routing delivers a
/// packet's flits in order, so the tail flit's `index_in_packet + 1` *is* the
/// packet's flit count and no per-packet map is needed. Packets in flight are
/// tracked with two flat counters (heads seen vs tails seen).
#[derive(Debug, Default)]
pub struct Sink {
    packets_started: u64,
    packets_completed: u64,
    flits_received: u64,
}

impl Sink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Sink::default()
    }

    /// Number of packets fully received.
    pub fn packets_completed(&self) -> u64 {
        self.packets_completed
    }

    /// Number of flits received (including those of incomplete packets).
    pub fn flits_received(&self) -> u64 {
        self.flits_received
    }

    /// Number of packets that have started arriving but are not complete.
    #[cfg(test)]
    pub fn incomplete_packets(&self) -> usize {
        (self.packets_started - self.packets_completed) as usize
    }

    /// Accepts an ejected flit. Returns a completion record when the flit was
    /// the tail of its packet.
    ///
    /// `eject_cycle` and `eject_time_ps` are the NoC cycle and wall-clock time
    /// at which the flit left the network.
    #[inline]
    pub fn accept(&mut self, flit: &Flit, eject_cycle: u64, eject_time_ps: f64) -> Option<PacketRecord> {
        self.flits_received += 1;
        if flit.kind.is_head() {
            self.packets_started += 1;
        }
        if flit.kind.is_tail() {
            self.packets_completed += 1;
            Some(PacketRecord {
                packet_id: flit.packet_id,
                src: flit.src(),
                dst: flit.dst(),
                flits: flit.index_in_packet as usize + 1,
                latency_cycles: eject_cycle.saturating_sub(flit.creation_cycle),
                delay_ps: (eject_time_ps - flit.creation_time_ps).max(0.0),
                hops: flit.hops as u32,
            })
        } else {
            None
        }
    }
}

impl Sink {
    /// Encodes the reassembly counters for a checkpoint.
    pub(crate) fn save_state(&self, w: &mut crate::snapshot::SnapWriter) {
        w.put_u64(self.packets_started);
        w.put_u64(self.packets_completed);
        w.put_u64(self.flits_received);
    }

    /// Replaces the counters with the checkpointed ones, refusing counts no
    /// run could reach: more packets completed than started, or fewer flits
    /// received than packets started (each started with a head flit).
    pub(crate) fn load_state(
        &mut self,
        r: &mut crate::snapshot::SnapReader<'_>,
    ) -> Result<(), crate::snapshot::SnapshotError> {
        use crate::snapshot::SnapshotError;
        let started = r.read_u64()?;
        let completed = r.read_u64()?;
        let flits = r.read_u64()?;
        if completed > started || flits < started {
            return Err(SnapshotError::Corrupt("sink packet counters"));
        }
        self.packets_started = started;
        self.packets_completed = completed;
        self.flits_received = flits;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit::{Flit, PacketId};

    #[test]
    fn completion_only_on_tail() {
        let mut sink = Sink::new();
        let flits = Flit::packet(PacketId::new(1), 0, 5, 3, 100, 1000.0);
        assert!(sink.accept(&flits[0], 130, 1300.0).is_none());
        assert!(sink.accept(&flits[1], 131, 1400.0).is_none());
        let rec = sink.accept(&flits[2], 132, 1500.0).expect("tail completes the packet");
        assert_eq!(rec.flits, 3);
        assert_eq!(rec.latency_cycles, 32);
        assert!((rec.delay_ps - 500.0).abs() < 1e-9);
        assert_eq!(sink.packets_completed(), 1);
        assert_eq!(sink.incomplete_packets(), 0);
    }

    #[test]
    fn single_flit_packets_complete_immediately() {
        let mut sink = Sink::new();
        let flits = Flit::packet(PacketId::new(7), 2, 3, 1, 10, 10.0);
        let rec = sink.accept(&flits[0], 15, 25.0).unwrap();
        assert_eq!(rec.flits, 1);
        assert_eq!(rec.latency_cycles, 5);
    }

    #[test]
    fn interleaved_packets_are_tracked_independently() {
        let mut sink = Sink::new();
        let a = Flit::packet(PacketId::new(1), 0, 1, 2, 0, 0.0);
        let b = Flit::packet(PacketId::new(2), 3, 1, 2, 0, 0.0);
        assert!(sink.accept(&a[0], 10, 0.0).is_none());
        assert!(sink.accept(&b[0], 11, 0.0).is_none());
        assert_eq!(sink.incomplete_packets(), 2);
        assert!(sink.accept(&b[1], 12, 0.0).is_some());
        assert!(sink.accept(&a[1], 13, 0.0).is_some());
        assert_eq!(sink.packets_completed(), 2);
        assert_eq!(sink.flits_received(), 4);
        assert_eq!(sink.incomplete_packets(), 0);
    }

    #[test]
    fn delay_never_negative() {
        let mut sink = Sink::new();
        let flits = Flit::packet(PacketId::new(1), 0, 1, 1, 100, 5000.0);
        // Pathological clock input: ejection time before creation time.
        let rec = sink.accept(&flits[0], 100, 1000.0).unwrap();
        assert_eq!(rec.delay_ps, 0.0);
    }
}
