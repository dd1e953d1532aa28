//! Per-virtual-channel FIFO flit buffers.

use crate::flit::Flit;
use std::collections::VecDeque;

/// A bounded FIFO buffer holding the flits of one virtual channel.
///
/// The router never overflows a `VcBuffer` because credit-based flow control
/// upstream only releases flits when space is known to exist; pushing into a
/// full buffer therefore indicates a protocol bug and panics.
///
/// A buffer owns no storage until its first flit arrives; it then allocates
/// exactly its capacity, once. Most VCs of a large fabric never see a flit,
/// so an idle router costs its control state only. The capacity is the
/// router's one buffer depth, which the router passes in rather than every
/// buffer keeping a copy.
#[derive(Debug, Clone, Default)]
pub struct VcBuffer {
    slots: VecDeque<Flit>,
    peak_occupancy: usize,
}

impl VcBuffer {
    /// Creates an empty buffer. Allocates nothing.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of flits currently stored.
    #[inline]
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the buffer holds no flits.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Appends a flit at the back of a buffer with room for `capacity` flits.
    ///
    /// # Panics
    ///
    /// Panics if the buffer already holds `capacity` flits (credit protocol
    /// violation), or if `capacity` is zero.
    #[inline]
    pub fn push(&mut self, flit: Flit, capacity: usize) {
        if self.slots.capacity() == 0 {
            self.allocate(capacity);
        }
        assert!(self.slots.len() < capacity, "buffer overflow: credit protocol violated");
        self.slots.push_back(flit);
        self.peak_occupancy = self.peak_occupancy.max(self.slots.len());
    }

    /// The one allocation of the buffer's life, on its first flit.
    #[cold]
    fn allocate(&mut self, capacity: usize) {
        assert!(capacity > 0, "buffer capacity must be positive");
        self.slots.reserve_exact(capacity);
    }

    /// Removes and returns the flit at the front, if any.
    #[inline]
    pub fn pop(&mut self) -> Option<Flit> {
        self.slots.pop_front()
    }

    /// Returns a reference to the flit at the front, if any.
    #[inline]
    pub fn front(&self) -> Option<&Flit> {
        self.slots.front()
    }
}

impl VcBuffer {
    /// Encodes the buffered flits and the sticky peak-occupancy diagnostic.
    /// Capacity is configuration and is not written.
    pub(crate) fn save_state(&self, w: &mut crate::snapshot::SnapWriter) {
        w.put_usize(self.slots.len());
        for flit in &self.slots {
            flit.save_state(w);
        }
        w.put_usize(self.peak_occupancy);
    }

    /// Replaces the buffer contents with the checkpointed ones, for a buffer
    /// of `capacity` flits. `nodes` is the network's node count: a flit from
    /// or for a node beyond it would take route computation off the topology.
    pub(crate) fn load_state(
        &mut self,
        r: &mut crate::snapshot::SnapReader<'_>,
        nodes: usize,
        capacity: usize,
    ) -> Result<(), crate::snapshot::SnapshotError> {
        use crate::snapshot::SnapshotError;
        let n = r.read_usize()?;
        if n > capacity {
            return Err(SnapshotError::Corrupt("VC buffer over capacity"));
        }
        self.slots.clear();
        for _ in 0..n {
            let flit = Flit::load_state(r)?;
            if flit.src() >= nodes || flit.dst() >= nodes {
                return Err(SnapshotError::Corrupt("buffered flit endpoint"));
            }
            self.push(flit, capacity);
        }
        let peak = r.read_usize()?;
        if peak > capacity {
            return Err(SnapshotError::Corrupt("VC buffer peak occupancy"));
        }
        self.peak_occupancy = peak;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit::{Flit, PacketId};

    fn flit(i: usize) -> Flit {
        Flit::new(PacketId::new(i as u64), 0, 1, 0, 1, 0, 0.0)
    }

    #[test]
    fn storage_appears_with_the_first_flit_and_never_grows() {
        let mut buf = VcBuffer::new();
        assert_eq!(buf.slots.capacity(), 0, "an idle VC owns no flit storage");
        for round in 0..3 {
            for i in 0..4 {
                buf.push(flit(i), 4);
                assert_eq!(buf.slots.capacity(), 4, "round {round}: `capacity` slots, once");
            }
            while buf.pop().is_some() {}
        }
    }

    #[test]
    fn fifo_order_is_preserved() {
        let mut buf = VcBuffer::new();
        for i in 0..4 {
            buf.push(flit(i), 4);
        }
        for i in 0..4 {
            assert_eq!(buf.pop().unwrap().packet_id, PacketId::new(i as u64));
        }
        assert!(buf.is_empty());
    }

    #[test]
    fn occupancy_accounting() {
        let mut buf = VcBuffer::new();
        assert_eq!((buf.len(), buf.peak_occupancy), (0, 0));
        buf.push(flit(0), 3);
        buf.push(flit(1), 3);
        assert_eq!(buf.len(), 2);
        buf.push(flit(2), 3);
        assert_eq!(buf.len(), 3);
        assert_eq!(buf.peak_occupancy, 3);
        buf.pop();
        assert_eq!(buf.peak_occupancy, 3, "peak is sticky");
    }

    #[test]
    #[should_panic(expected = "buffer overflow")]
    fn overflow_panics() {
        let mut buf = VcBuffer::new();
        buf.push(flit(0), 1);
        buf.push(flit(1), 1);
    }

    #[test]
    fn front_does_not_consume() {
        let mut buf = VcBuffer::new();
        buf.push(flit(7), 2);
        assert_eq!(buf.front().unwrap().packet_id, PacketId::new(7));
        assert_eq!(buf.len(), 1);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        VcBuffer::new().push(flit(0), 0);
    }
}
