//! The engine's scheduling structures: node-id bitsets (the active-router
//! and pending-source worklists) and the timing wheel that *is* the wire —
//! flits and credits in flight live in the wheel slot of their arrival cycle
//! and nowhere else.

/// A dense bitset over node ids: one `u64` word per 64 nodes.
///
/// Backs the active-router and pending-source worklists. Membership updates
/// are single bit operations; the cycle loop iterates set bits in ascending
/// node order with `trailing_zeros`, so draining an almost-empty set over a
/// large network touches only a handful of words.
#[derive(Debug)]
pub(super) struct NodeSet {
    pub(super) words: Vec<u64>,
}

impl NodeSet {
    pub(super) fn new(nodes: usize) -> Self {
        NodeSet { words: vec![0; nodes.div_ceil(64)] }
    }

    #[inline]
    pub(super) fn insert(&mut self, node: usize) {
        self.words[node >> 6] |= 1u64 << (node & 63);
    }

    pub(super) fn contains(&self, node: usize) -> bool {
        self.words[node >> 6] & (1u64 << (node & 63)) != 0
    }

    #[inline]
    pub(super) fn set_to(&mut self, node: usize, member: bool) {
        if member {
            self.words[node >> 6] |= 1u64 << (node & 63);
        } else {
            self.words[node >> 6] &= !(1u64 << (node & 63));
        }
    }

    pub(super) fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }
}

/// Everything of one kind in flight, stored by arrival cycle: a timing wheel
/// with at least `latency + 1` slots (rounded up to a power of two), slot
/// `cycle & (slots - 1)` holding the items due that cycle in send order.
///
/// All channels of a kind share one fixed latency, so an item sent at `now`
/// is due at `now + latency` and every item on the wheel is due within
/// `latency` cycles of the last delivered cycle: the slots of cycles
/// `now ..= now + latency` never alias. The entries are the items themselves,
/// not hints — there is no second place an item in flight could be, so an
/// item cannot be missing from the schedule or scheduled without existing.
#[derive(Debug)]
pub(super) struct EventWheel<T> {
    slots: Vec<Vec<T>>,
    /// `slots.len() - 1`; the slot count is a power of two so the slot
    /// lookup is a mask, not a division.
    slot_mask: u64,
    latency: u64,
    len: usize,
}

impl<T: Copy> EventWheel<T> {
    /// A wheel for items that arrive `latency` cycles after they are sent.
    ///
    /// # Panics
    ///
    /// Panics if `latency` is zero — a combinational (zero-cycle) link would
    /// break the simulator's phase ordering.
    pub(super) fn new(latency: u64) -> Self {
        assert!(latency > 0, "channel latency must be at least one cycle");
        let slots = (latency as usize + 1).next_power_of_two();
        EventWheel {
            slots: (0..slots).map(|_| Vec::new()).collect(),
            slot_mask: slots as u64 - 1,
            latency,
            len: 0,
        }
    }

    /// The shared latency of everything on this wheel.
    pub(super) fn latency(&self) -> u64 {
        self.latency
    }

    /// Number of items in flight.
    pub(super) fn len(&self) -> usize {
        self.len
    }

    #[inline]
    fn slot_index(&self, cycle: u64) -> usize {
        (cycle & self.slot_mask) as usize
    }

    /// Puts `item` in flight at cycle `now`; it arrives at `now + latency`.
    #[inline]
    pub(super) fn send(&mut self, now: u64, item: T) {
        self.push_due(now + self.latency, item);
    }

    /// Puts `item` in the slot of cycle `due`, behind what is already there.
    /// The caller keeps `due` within `latency` cycles of the last delivered
    /// cycle ([`send`](Self::send) does; a restore checks its bytes).
    #[inline]
    pub(super) fn push_due(&mut self, due: u64, item: T) {
        let idx = self.slot_index(due);
        self.slots[idx].push(item);
        self.len += 1;
    }

    /// Takes everything due at `now` off the wheel, in send order. The slot
    /// keeps its capacity, so steady-state delivery allocates nothing.
    #[inline]
    pub(super) fn deliver(&mut self, now: u64) -> std::vec::Drain<'_, T> {
        let idx = self.slot_index(now);
        let slot = &mut self.slots[idx];
        self.len -= slot.len();
        slot.drain(..)
    }

    /// Cycle of the earliest arrival strictly after `now`, or `u64::MAX`
    /// when nothing is in flight (the slot of `now` was emptied by the last
    /// step, so offsets `1 ..= latency` are exhaustive).
    pub(super) fn earliest_due(&self, now: u64) -> u64 {
        if self.len == 0 {
            return u64::MAX;
        }
        (1..=self.latency)
            .map(|offset| now + offset)
            .find(|&due| !self.slots[self.slot_index(due)].is_empty())
            .unwrap_or(u64::MAX)
    }

    /// Everything in flight as `(due, item)`, in due-then-send order, items
    /// due at `now` itself included.
    pub(super) fn iter(&self, now: u64) -> impl Iterator<Item = (u64, &T)> + '_ {
        (0..=self.latency).flat_map(move |offset| {
            let due = now + offset;
            self.slots[self.slot_index(due)].iter().map(move |item| (due, item))
        })
    }

    /// Removes every item `pred` selects and hands it to `f`, in
    /// due-then-send order — the cold path of a router death or recovery.
    /// Walks offsets `0 ..= latency`: the fault phase runs before the
    /// delivery phases, so items due at `now` are still on the wheel.
    pub(super) fn extract(
        &mut self,
        now: u64,
        mut pred: impl FnMut(&T) -> bool,
        mut f: impl FnMut(T),
    ) {
        for offset in 0..=self.latency {
            let idx = self.slot_index(now + offset);
            let slot = &mut self.slots[idx];
            let before = slot.len();
            slot.retain(|item| {
                let taken = pred(item);
                if taken {
                    f(*item);
                }
                !taken
            });
            self.len -= before - slot.len();
        }
    }

    /// Empties the wheel (a restore refills it from the snapshot).
    pub(super) fn clear(&mut self) {
        self.slots.iter_mut().for_each(Vec::clear);
        self.len = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn delivered(wheel: &mut EventWheel<char>, now: u64) -> Vec<char> {
        wheel.deliver(now).collect()
    }

    #[test]
    fn send_order_is_kept_within_a_due_cycle() {
        let mut wheel = EventWheel::new(2);
        wheel.send(10, 'a');
        wheel.send(10, 'b');
        wheel.send(11, 'c');
        wheel.send(10, 'd');
        assert_eq!(delivered(&mut wheel, 12), vec!['a', 'b', 'd']);
        assert_eq!(delivered(&mut wheel, 13), vec!['c']);
    }

    #[test]
    fn nothing_arrives_early() {
        let mut wheel = EventWheel::new(3);
        wheel.send(10, 'a');
        for now in 10..13 {
            assert!(delivered(&mut wheel, now).is_empty(), "cycle {now}");
            assert_eq!(wheel.len(), 1);
        }
        assert_eq!(delivered(&mut wheel, 13), vec!['a']);
        assert!(delivered(&mut wheel, 14).is_empty());
    }

    #[test]
    fn earliest_due_over_empty_single_and_wrapped_slots() {
        // Latency 3 → four slots: cycles 6 and 7 wrap around to slots 2, 3.
        let mut wheel = EventWheel::new(3);
        assert_eq!(wheel.earliest_due(5), u64::MAX);
        wheel.send(5, 'a'); // due 8, slot 0
        assert_eq!(wheel.earliest_due(5), 8);
        assert_eq!(wheel.earliest_due(7), 8);
        wheel.send(3, 'b'); // due 6, slot 2 — behind slot 0 in memory, ahead in time
        assert_eq!(wheel.earliest_due(5), 6);
        assert_eq!(delivered(&mut wheel, 6), vec!['b']);
        assert_eq!(wheel.earliest_due(6), 8);
        assert_eq!(delivered(&mut wheel, 8), vec!['a']);
        assert_eq!(wheel.earliest_due(8), u64::MAX);
    }

    #[test]
    fn len_counts_what_is_in_flight() {
        let mut wheel = EventWheel::new(2);
        assert_eq!(wheel.len(), 0);
        wheel.send(0, 'a');
        wheel.send(0, 'b');
        wheel.send(1, 'c');
        assert_eq!(wheel.len(), 3);
        assert_eq!(wheel.deliver(2).count(), 2);
        assert_eq!(wheel.len(), 1);
        wheel.extract(2, |_| true, |_| {});
        assert_eq!(wheel.len(), 0);
        wheel.send(3, 'd');
        wheel.clear();
        assert_eq!((wheel.len(), wheel.earliest_due(3)), (0, u64::MAX));
    }

    #[test]
    fn extract_walks_due_then_send_order_from_the_current_cycle() {
        let mut wheel = EventWheel::new(3);
        wheel.send(9, 'A'); // due 12
        wheel.send(7, 'b'); // due 10 — the cycle the extraction runs on
        wheel.send(8, 'C'); // due 11
        wheel.send(7, 'D'); // due 10
        wheel.send(9, 'e'); // due 12
        let mut taken = Vec::new();
        wheel.extract(10, |c| c.is_ascii_uppercase(), |c| taken.push(c));
        assert_eq!(taken, vec!['D', 'C', 'A'], "items due at `now` come first");
        assert_eq!(wheel.len(), 2);
        assert_eq!(wheel.iter(10).collect::<Vec<_>>(), vec![(10, &'b'), (12, &'e')]);
        assert_eq!(delivered(&mut wheel, 10), vec!['b']);
    }

    #[test]
    fn iter_lists_every_item_with_its_due_cycle() {
        let mut wheel = EventWheel::new(2);
        wheel.send(5, 'x'); // due 7
        wheel.send(4, 'y'); // due 6
        wheel.send(5, 'z'); // due 7
        assert_eq!(wheel.iter(5).collect::<Vec<_>>(), vec![(6, &'y'), (7, &'x'), (7, &'z')]);
        assert_eq!(wheel.iter(5).count(), wheel.len());
    }

    #[test]
    #[should_panic(expected = "at least one cycle")]
    fn zero_latency_rejected() {
        let _ = EventWheel::<u32>::new(0);
    }
}
