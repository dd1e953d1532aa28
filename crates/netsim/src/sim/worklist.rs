//! The sparse engine's acceleration structures: node-id bitsets (the
//! active-router and pending-source worklists) and the channel timing wheels.

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

/// A due-list over channels that all share one fixed delivery latency: a
/// timing wheel with at least `latency + 1` slots (rounded up to a power of
/// two), indexed by `cycle & (slots - 1)`.
///
/// Every send schedules the channel's id in the slot of its delivery cycle;
/// the delivery phase drains only the current slot. Because a channel
/// receives at most one send per cycle and every slot is visited (drained or
/// cleared) every cycle, slots stay small and entries are unique. Entries
/// are *hints*, not obligations: delivery goes through
/// [`DelayChannel::deliver`], which checks due times itself, so a stale
/// entry (possible across dense/sparse engine switches) delivers nothing.
#[derive(Debug)]
pub(super) struct DueWheel {
    slots: Vec<Vec<u32>>,
    /// `slots.len() - 1`; the slot count is rounded up to a power of two so
    /// the per-send/per-cycle slot lookup is a mask, not a division.
    slot_mask: u64,
}

impl DueWheel {
    pub(super) fn new(latency: u64) -> Self {
        let slots = (latency as usize + 1).next_power_of_two();
        DueWheel { slots: vec![Vec::new(); slots], slot_mask: slots as u64 - 1 }
    }

    /// A wheel holding what `channels` have in flight: the channel at
    /// position `id` yields the due cycles of its in-flight items. Entries
    /// are delivery hints validated by `DelayChannel::deliver`, so insertion
    /// order cannot affect behaviour — but id order also reproduces what a
    /// live run would hold, keeping the structures comparable in tests.
    pub(super) fn rebuilt<D: IntoIterator<Item = u64>>(
        latency: u64,
        channels: impl Iterator<Item = D>,
    ) -> Self {
        let mut wheel = DueWheel::new(latency);
        for (id, dues) in channels.enumerate() {
            dues.into_iter().for_each(|due| wheel.schedule(due, id as u32));
        }
        wheel
    }

    #[inline]
    fn slot_index(&self, cycle: u64) -> usize {
        (cycle & self.slot_mask) as usize
    }

    #[inline]
    pub(super) fn schedule(&mut self, due: u64, id: u32) {
        let idx = self.slot_index(due);
        self.slots[idx].push(id);
    }

    /// Hands every id scheduled for `now` to `f`, retaining slot capacity.
    ///
    /// A send issued *during* the drain lands `latency ≥ 1` cycles ahead,
    /// which is a different slot (the wheel has at least `latency + 1` of
    /// them), so the temporary take-out below never loses entries.
    #[inline]
    pub(super) fn drain(&mut self, now: u64, mut f: impl FnMut(u32)) {
        let idx = self.slot_index(now);
        if self.slots[idx].is_empty() {
            return;
        }
        let mut slot = std::mem::take(&mut self.slots[idx]);
        for id in slot.drain(..) {
            f(id);
        }
        debug_assert!(self.slots[idx].is_empty(), "a drain must not reschedule its own slot");
        self.slots[idx] = slot;
    }

    /// Discards the entries due at `now` (the dense reference loop scans all
    /// channels itself but must keep the wheel from accumulating).
    #[inline]
    pub(super) fn clear_slot(&mut self, now: u64) {
        let idx = self.slot_index(now);
        self.slots[idx].clear();
    }

    /// Cycle of the earliest scheduled entry strictly after `now`, or
    /// `u64::MAX` when every future slot is empty.
    ///
    /// Every genuine due lies in `[now + 1, now + latency]` (sends schedule
    /// `latency` cycles ahead and the current slot was drained by the last
    /// step), so probing those offsets is exhaustive. Entries are hints: a
    /// stale one (e.g. for a channel drained by a router death) makes this
    /// bound *earlier* than the true next event, which only shortens an
    /// event-horizon jump — never lets one overshoot.
    pub(super) fn earliest_due(&self, now: u64, latency: u64) -> u64 {
        for offset in 1..=latency {
            if !self.slots[self.slot_index(now + offset)].is_empty() {
                return now + offset;
            }
        }
        u64::MAX
    }
}
