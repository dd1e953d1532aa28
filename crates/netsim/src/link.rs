//! Inter-router flit channels and credit-return channels.
//!
//! A [`DelayChannel`] delivers items a fixed number of NoC cycles after they
//! were sent. Flit channels carry [`Flit`](crate::Flit)s downstream; credit
//! channels carry freed-buffer notifications upstream. Because the whole NoC
//! is a single clock domain (the premise of the paper), both ends of every
//! channel advance on the same clock and no synchronizer model is needed.
//!
//! # Performance
//!
//! Delivery is allocation-free: due items are handed to a caller-provided
//! callback ([`DelayChannel::deliver`]) straight out of the channel's ring
//! buffer instead of being collected into a fresh `Vec` every cycle. The
//! backing `VecDeque` only allocates when a send outgrows the high-water mark
//! of in-flight items, which happens a bounded number of times per run.

use std::collections::VecDeque;

/// A FIFO channel that delivers items `latency` cycles after injection.
#[derive(Debug, Clone)]
pub struct DelayChannel<T> {
    latency: u64,
    in_flight: VecDeque<(u64, T)>,
}

impl<T> DelayChannel<T> {
    /// Creates a channel with the given delivery latency in cycles.
    ///
    /// # Panics
    ///
    /// Panics if `latency` is zero — a combinational (zero-cycle) link would
    /// break the simulator's phase ordering.
    pub fn new(latency: u64) -> Self {
        assert!(latency > 0, "channel latency must be at least one cycle");
        DelayChannel { latency, in_flight: VecDeque::new() }
    }

    /// Number of items currently travelling on the channel.
    pub fn occupancy(&self) -> usize {
        self.in_flight.len()
    }

    /// Sends an item at cycle `now`; it will become deliverable at
    /// `now + latency`.
    #[inline]
    pub fn send(&mut self, now: u64, item: T) {
        self.in_flight.push_back((now + self.latency, item));
    }

    /// Hands every item whose delivery time has arrived at cycle `now` to
    /// `sink`, in send order, without allocating.
    #[inline]
    pub fn deliver<F: FnMut(T)>(&mut self, now: u64, mut sink: F) {
        while let Some((when, _)) = self.in_flight.front() {
            if *when <= now {
                let (_, item) = self.in_flight.pop_front().expect("front exists");
                sink(item);
            } else {
                break;
            }
        }
    }

    /// Delivery cycle of the oldest in-flight item, if any.
    ///
    /// This is the cursor the sparse simulation core polls instead of calling
    /// [`deliver`](Self::deliver) on every channel every cycle: a channel with
    /// `next_due() > now` (or `None`) provably delivers nothing at `now`, so
    /// the driver keeps a due-list (timing wheel) of channels keyed by this
    /// cycle and touches only the channels whose deliveries are due.
    pub fn next_due(&self) -> Option<u64> {
        self.in_flight.front().map(|(when, _)| *when)
    }

    /// Collects every due item into a fresh `Vec` — convenience for tests and
    /// diagnostics; the simulation loop uses [`deliver`](Self::deliver).
    #[cfg(test)]
    pub fn deliver_collect(&mut self, now: u64) -> Vec<T> {
        let mut out = Vec::new();
        self.deliver(now, |item| out.push(item));
        out
    }

    /// Whether no items are in flight.
    pub fn is_empty(&self) -> bool {
        self.in_flight.is_empty()
    }

    /// Hands *every* in-flight item to `sink` regardless of its delivery
    /// time, in send order, emptying the channel. Used when a fault kills a
    /// channel's endpoint: the items cannot be delivered any more and must
    /// be accounted (dropped flits, discarded credits) instead of lingering.
    pub fn drain_all<F: FnMut(T)>(&mut self, mut sink: F) {
        while let Some((_, item)) = self.in_flight.pop_front() {
            sink(item);
        }
    }
}

impl<T> DelayChannel<T> {
    /// Encodes the in-flight contents (due cycle + item) for a checkpoint.
    /// The latency is configuration, not state, and is not written.
    pub(crate) fn save_state(
        &self,
        w: &mut crate::snapshot::SnapWriter,
        mut encode: impl FnMut(&T, &mut crate::snapshot::SnapWriter),
    ) {
        w.put_usize(self.in_flight.len());
        for (due, item) in &self.in_flight {
            w.put_u64(*due);
            encode(item, w);
        }
    }

    /// Replaces the in-flight contents with the checkpointed ones.
    pub(crate) fn load_state(
        &mut self,
        r: &mut crate::snapshot::SnapReader<'_>,
        mut decode: impl FnMut(
            &mut crate::snapshot::SnapReader<'_>,
        ) -> Result<T, crate::snapshot::SnapshotError>,
    ) -> Result<(), crate::snapshot::SnapshotError> {
        self.in_flight.clear();
        let n = r.read_usize()?;
        let mut prev_due = 0u64;
        for _ in 0..n {
            let due = r.read_u64()?;
            if due < prev_due {
                // Sends happen at non-decreasing cycles, so a FIFO channel's
                // due times are monotone; anything else is a mangled stream.
                return Err(crate::snapshot::SnapshotError::Corrupt("channel due order"));
            }
            prev_due = due;
            let item = decode(r)?;
            self.in_flight.push_back((due, item));
        }
        Ok(())
    }

    /// Delivery cycles of every in-flight item, in queue order — the restore
    /// path walks these to rebuild the driver's timing wheels.
    pub(crate) fn due_times(&self) -> impl Iterator<Item = u64> + '_ {
        self.in_flight.iter().map(|(due, _)| *due)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn items_arrive_after_latency() {
        let mut ch = DelayChannel::new(2);
        ch.send(10, "a");
        assert!(ch.deliver_collect(10).is_empty());
        assert!(ch.deliver_collect(11).is_empty());
        assert_eq!(ch.deliver_collect(12), vec!["a"]);
        assert!(ch.is_empty());
    }

    #[test]
    fn next_due_tracks_the_oldest_item() {
        let mut ch = DelayChannel::new(3);
        assert_eq!(ch.next_due(), None);
        ch.send(10, 'a');
        ch.send(12, 'b');
        assert_eq!(ch.next_due(), Some(13));
        assert_eq!(ch.deliver_collect(13), vec!['a']);
        assert_eq!(ch.next_due(), Some(15));
        assert_eq!(ch.deliver_collect(15), vec!['b']);
        assert_eq!(ch.next_due(), None);
    }

    #[test]
    fn order_is_preserved() {
        let mut ch = DelayChannel::new(1);
        ch.send(0, 1);
        ch.send(0, 2);
        ch.send(1, 3);
        assert_eq!(ch.deliver_collect(1), vec![1, 2]);
        assert_eq!(ch.deliver_collect(2), vec![3]);
    }

    #[test]
    fn late_delivery_collects_everything_due() {
        let mut ch = DelayChannel::new(1);
        ch.send(0, 'x');
        ch.send(1, 'y');
        ch.send(5, 'z');
        // Skipping ahead to cycle 3 delivers x and y but not z.
        assert_eq!(ch.deliver_collect(3), vec!['x', 'y']);
        assert_eq!(ch.occupancy(), 1);
    }

    #[test]
    fn callback_delivery_is_equivalent_to_collecting() {
        let mut a = DelayChannel::new(2);
        let mut b = DelayChannel::new(2);
        for t in 0..10u64 {
            a.send(t, t);
            b.send(t, t);
        }
        for now in 0..15u64 {
            let mut via_callback = Vec::new();
            a.deliver(now, |item| via_callback.push(item));
            assert_eq!(via_callback, b.deliver_collect(now));
        }
        assert!(a.is_empty() && b.is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one cycle")]
    fn zero_latency_rejected() {
        let _ = DelayChannel::<u32>::new(0);
    }

    #[test]
    fn drain_all_empties_the_channel_ignoring_due_times() {
        let mut ch = DelayChannel::new(4);
        ch.send(0, 'a');
        ch.send(3, 'b');
        let mut drained = Vec::new();
        ch.drain_all(|item| drained.push(item));
        assert_eq!(drained, vec!['a', 'b']);
        assert!(ch.is_empty());
        assert_eq!(ch.next_due(), None);
    }
}
