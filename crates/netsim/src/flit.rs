//! Flits, packets and their identifiers.
//!
//! Packets are segmented into flits, exactly as in the reference simulator:
//! a head flit carries the routing information (source, destination), body
//! flits follow it through the same virtual channels, and a tail flit
//! releases the resources. A single-flit packet uses the combined
//! [`FlitKind::HeadTail`] kind. A flit exists from the injection port to the
//! sink: a packet waiting at its source is one record, and the source builds
//! each flit as it hands it to the router.
//!
//! # Performance
//!
//! [`Flit`] is the unit the hot path copies billions of times per experiment,
//! so it is deliberately small (40 bytes) and `Copy`: node indices and the
//! per-packet flit index are narrowed to `u32`, the virtual channel to `u8`
//! and the hop counter to `u16`.

use std::fmt;

/// Globally unique identifier of a packet within one simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PacketId(u64);

impl PacketId {
    /// Creates a packet identifier from a raw index.
    pub fn new(raw: u64) -> Self {
        PacketId(raw)
    }

    /// Returns the raw index.
    pub fn as_u64(self) -> u64 {
        self.0
    }
}

impl fmt::Display for PacketId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pkt#{}", self.0)
    }
}

/// Position of a flit within its packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum FlitKind {
    /// First flit of a multi-flit packet; carries routing information.
    Head,
    /// Intermediate flit of a multi-flit packet.
    Body,
    /// Last flit of a multi-flit packet; releases virtual channels.
    Tail,
    /// Only flit of a single-flit packet (acts as both head and tail).
    HeadTail,
}

impl FlitKind {
    /// Whether this flit opens a packet (carries the route).
    pub fn is_head(self) -> bool {
        matches!(self, FlitKind::Head | FlitKind::HeadTail)
    }

    /// Whether this flit closes a packet (releases the VC).
    pub fn is_tail(self) -> bool {
        matches!(self, FlitKind::Tail | FlitKind::HeadTail)
    }
}

/// One flow-control unit travelling through the network.
///
/// `Copy` and 40 bytes wide — see the module docs for the layout rationale.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Flit {
    /// Identifier of the packet this flit belongs to.
    pub packet_id: PacketId,
    /// NoC cycle at which the packet was created by its source.
    pub creation_cycle: u64,
    /// Wall-clock time (ps) at which the packet was created by its source.
    pub creation_time_ps: f64,
    /// Source node index.
    pub src: u32,
    /// Destination node index.
    pub dst: u32,
    /// Zero-based index of the flit within its packet.
    pub index_in_packet: u32,
    /// Position of the flit within the packet.
    pub kind: FlitKind,
    /// Virtual channel the flit occupies on the link it is currently using.
    pub vc: u8,
    /// Number of router hops traversed so far (for diagnostics).
    pub hops: u16,
}

impl Flit {
    /// Creates the `index`-th flit (out of `packet_length`) of a packet.
    ///
    /// # Panics
    ///
    /// Panics if `packet_length` is zero or does not fit the 32-bit flit
    /// index, or if `index >= packet_length`.
    #[cfg(test)]
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        packet_id: PacketId,
        src: usize,
        dst: usize,
        index: usize,
        packet_length: usize,
        creation_cycle: u64,
        creation_time_ps: f64,
    ) -> Self {
        assert!(packet_length > 0, "packet length must be positive");
        assert!(u32::try_from(packet_length).is_ok(), "packet length must fit the flit index");
        assert!(index < packet_length, "flit index out of range");
        Flit::of_packet(
            packet_id,
            src as u32,
            dst as u32,
            index as u32,
            packet_length as u32,
            creation_cycle,
            creation_time_ps,
        )
    }

    /// The `index`-th flit of a `length`-flit packet, without range checks:
    /// the injection port makes them once per packet (`0 < length`,
    /// `index < length`) rather than once per flit.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn of_packet(
        packet_id: PacketId,
        src: u32,
        dst: u32,
        index: u32,
        length: u32,
        creation_cycle: u64,
        creation_time_ps: f64,
    ) -> Self {
        let kind = match (index == 0, index + 1 == length) {
            (true, true) => FlitKind::HeadTail,
            (true, false) => FlitKind::Head,
            (false, true) => FlitKind::Tail,
            (false, false) => FlitKind::Body,
        };
        Flit {
            packet_id,
            kind,
            src,
            dst,
            index_in_packet: index,
            vc: 0,
            creation_cycle,
            creation_time_ps,
            hops: 0,
        }
    }

    /// Source node index as a `usize` (indexing convenience).
    #[inline]
    pub fn src(&self) -> usize {
        self.src as usize
    }

    /// Destination node index as a `usize` (indexing convenience).
    #[inline]
    pub fn dst(&self) -> usize {
        self.dst as usize
    }

    /// Virtual channel as a `usize` (indexing convenience).
    #[inline]
    pub fn vc(&self) -> usize {
        self.vc as usize
    }

    /// Builds every flit of a packet in order.
    #[cfg(test)]
    pub fn packet(
        packet_id: PacketId,
        src: usize,
        dst: usize,
        packet_length: usize,
        creation_cycle: u64,
        creation_time_ps: f64,
    ) -> Vec<Flit> {
        (0..packet_length)
            .map(|i| {
                Flit::new(packet_id, src, dst, i, packet_length, creation_cycle, creation_time_ps)
            })
            .collect()
    }
}

impl Flit {
    /// Encodes the flit for a simulation checkpoint.
    pub(crate) fn save_state(&self, w: &mut crate::snapshot::SnapWriter) {
        w.put_u64(self.packet_id.as_u64());
        w.put_u64(self.creation_cycle);
        w.put_f64(self.creation_time_ps);
        w.put_u32(self.src);
        w.put_u32(self.dst);
        w.put_u32(self.index_in_packet);
        w.put_u8(match self.kind {
            FlitKind::Head => 0,
            FlitKind::Body => 1,
            FlitKind::Tail => 2,
            FlitKind::HeadTail => 3,
        });
        w.put_u8(self.vc);
        w.put_u32(u32::from(self.hops));
    }

    /// Decodes a flit written by [`save_state`](Self::save_state).
    pub(crate) fn load_state(
        r: &mut crate::snapshot::SnapReader<'_>,
    ) -> Result<Flit, crate::snapshot::SnapshotError> {
        use crate::snapshot::SnapshotError;
        let packet_id = PacketId::new(r.read_u64()?);
        let creation_cycle = r.read_u64()?;
        let creation_time_ps = r.read_f64()?;
        let src = r.read_u32()?;
        let dst = r.read_u32()?;
        let index_in_packet = r.read_u32()?;
        let kind = match r.read_u8()? {
            0 => FlitKind::Head,
            1 => FlitKind::Body,
            2 => FlitKind::Tail,
            3 => FlitKind::HeadTail,
            _ => return Err(SnapshotError::Corrupt("flit kind")),
        };
        let vc = r.read_u8()?;
        let hops = u16::try_from(r.read_u32()?).map_err(|_| SnapshotError::Corrupt("flit hops"))?;
        Ok(Flit {
            packet_id,
            creation_cycle,
            creation_time_ps,
            src,
            dst,
            index_in_packet,
            kind,
            vc,
            hops,
        })
    }
}

impl fmt::Display for Flit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} flit {} ({:?}) {}->{} vc{}",
            self.packet_id, self.index_in_packet, self.kind, self.src, self.dst, self.vc
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_are_assigned_by_position() {
        let flits = Flit::packet(PacketId::new(1), 0, 5, 4, 0, 0.0);
        assert_eq!(flits.len(), 4);
        assert_eq!(flits[0].kind, FlitKind::Head);
        assert_eq!(flits[1].kind, FlitKind::Body);
        assert_eq!(flits[2].kind, FlitKind::Body);
        assert_eq!(flits[3].kind, FlitKind::Tail);
    }

    #[test]
    fn single_flit_packet_is_head_tail() {
        let flits = Flit::packet(PacketId::new(2), 3, 7, 1, 10, 123.0);
        assert_eq!(flits.len(), 1);
        assert_eq!(flits[0].kind, FlitKind::HeadTail);
        assert!(flits[0].kind.is_head());
        assert!(flits[0].kind.is_tail());
    }

    #[test]
    fn two_flit_packet_has_head_and_tail() {
        let flits = Flit::packet(PacketId::new(3), 0, 1, 2, 0, 0.0);
        assert_eq!(flits[0].kind, FlitKind::Head);
        assert_eq!(flits[1].kind, FlitKind::Tail);
    }

    #[test]
    fn head_and_tail_predicates() {
        assert!(FlitKind::Head.is_head());
        assert!(!FlitKind::Head.is_tail());
        assert!(FlitKind::Tail.is_tail());
        assert!(!FlitKind::Tail.is_head());
        assert!(!FlitKind::Body.is_head());
        assert!(!FlitKind::Body.is_tail());
    }

    #[test]
    fn creation_metadata_is_preserved() {
        let f = Flit::new(PacketId::new(9), 2, 4, 0, 3, 42, 777.5);
        assert_eq!(f.creation_cycle, 42);
        assert_eq!(f.creation_time_ps, 777.5);
        assert_eq!(f.src(), 2);
        assert_eq!(f.dst(), 4);
        assert_eq!(f.hops, 0);
    }

    #[test]
    fn flit_is_small_and_copy() {
        // The hot path depends on Flit staying a small Copy value; catch
        // accidental growth (e.g. a reintroduced wide field) at test time.
        assert!(std::mem::size_of::<Flit>() <= 40, "Flit grew to {} bytes", std::mem::size_of::<Flit>());
        fn assert_copy<T: Copy>() {}
        assert_copy::<Flit>();
    }

    #[test]
    #[should_panic(expected = "flit index out of range")]
    fn out_of_range_index_panics() {
        let _ = Flit::new(PacketId::new(0), 0, 0, 5, 5, 0, 0.0);
    }

    #[test]
    fn packet_id_display() {
        assert_eq!(PacketId::new(17).to_string(), "pkt#17");
    }
}
