//! Per-virtual-channel FIFO flit buffers.

use crate::flit::Flit;
use std::collections::VecDeque;

/// A bounded FIFO buffer holding the flits of one virtual channel.
///
/// The router never overflows a `VcBuffer` because credit-based flow control
/// upstream only releases flits when space is known to exist; pushing into a
/// full buffer therefore indicates a protocol bug and panics.
#[derive(Debug, Clone)]
pub struct VcBuffer {
    slots: VecDeque<Flit>,
    capacity: usize,
    peak_occupancy: usize,
}

impl VcBuffer {
    /// Creates a buffer with room for `capacity` flits.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "buffer capacity must be positive");
        VcBuffer { slots: VecDeque::with_capacity(capacity), capacity, peak_occupancy: 0 }
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

    /// Whether the buffer is at capacity.
    pub fn is_full(&self) -> bool {
        self.slots.len() >= self.capacity
    }

    /// Total capacity in flits.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Appends a flit at the back.
    ///
    /// # Panics
    ///
    /// Panics if the buffer is already full (credit protocol violation).
    #[inline]
    pub fn push(&mut self, flit: Flit) {
        assert!(!self.is_full(), "buffer overflow: credit protocol violated");
        self.slots.push_back(flit);
        self.peak_occupancy = self.peak_occupancy.max(self.slots.len());
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

    /// Replaces the buffer contents with the checkpointed ones. `nodes` is
    /// the network's node count: a flit from or for a node beyond it would
    /// take route computation off the topology.
    pub(crate) fn load_state(
        &mut self,
        r: &mut crate::snapshot::SnapReader<'_>,
        nodes: usize,
    ) -> Result<(), crate::snapshot::SnapshotError> {
        use crate::snapshot::SnapshotError;
        let n = r.read_usize()?;
        if n > self.capacity {
            return Err(SnapshotError::Corrupt("VC buffer over capacity"));
        }
        self.slots.clear();
        for _ in 0..n {
            let flit = Flit::load_state(r)?;
            if flit.src() >= nodes || flit.dst() >= nodes {
                return Err(SnapshotError::Corrupt("buffered flit endpoint"));
            }
            self.slots.push_back(flit);
        }
        let peak = r.read_usize()?;
        if peak > self.capacity {
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
    fn fifo_order_is_preserved() {
        let mut buf = VcBuffer::new(4);
        for i in 0..4 {
            buf.push(flit(i));
        }
        for i in 0..4 {
            assert_eq!(buf.pop().unwrap().packet_id, PacketId::new(i as u64));
        }
        assert!(buf.is_empty());
    }

    #[test]
    fn occupancy_accounting() {
        let mut buf = VcBuffer::new(3);
        assert_eq!((buf.len(), buf.capacity()), (0, 3));
        buf.push(flit(0));
        buf.push(flit(1));
        assert_eq!(buf.len(), 2);
        assert!(!buf.is_full());
        buf.push(flit(2));
        assert!(buf.is_full());
        assert_eq!(buf.peak_occupancy, 3);
        buf.pop();
        assert_eq!(buf.peak_occupancy, 3, "peak is sticky");
    }

    #[test]
    #[should_panic(expected = "buffer overflow")]
    fn overflow_panics() {
        let mut buf = VcBuffer::new(1);
        buf.push(flit(0));
        buf.push(flit(1));
    }

    #[test]
    fn front_does_not_consume() {
        let mut buf = VcBuffer::new(2);
        buf.push(flit(7));
        assert_eq!(buf.front().unwrap().packet_id, PacketId::new(7));
        assert_eq!(buf.len(), 1);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = VcBuffer::new(0);
    }
}
