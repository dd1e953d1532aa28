//! Round-robin arbiters used by the allocation stages.

/// A work-conserving round-robin arbiter over `n` requesters.
///
/// The arbiter grants the requesting input closest (in circular order) to the
/// position after the last granted input, which provides strong fairness — the
/// same scheme used by the separable allocators of the reference router.
///
/// A router holds dozens of these (one per input port, output port and
/// output VC), so the two numbers — both at most 64, the width of a request
/// mask — are kept in a byte each.
#[derive(Debug, Clone)]
pub struct RoundRobinArbiter {
    size: u8,
    next_priority: u8,
}

impl RoundRobinArbiter {
    /// Creates an arbiter over `size` requesters.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero or above 64 (requests are `u64` masks).
    pub fn new(size: usize) -> Self {
        assert!(size > 0, "arbiter must have at least one requester");
        assert!(size <= 64, "mask-based arbitration supports at most 64 requesters");
        RoundRobinArbiter { size: size as u8, next_priority: 0 }
    }

    /// Grants among requesters without rotating the priority pointer; call
    /// [`commit`](Self::commit) with the accepted winner to rotate
    /// afterwards. Bit `i` of `requests` set means requester `i` wants a
    /// grant; bits at or above the arbiter's size are ignored.
    pub fn peek_mask(&self, requests: u64) -> Option<usize> {
        let valid = u64::MAX >> (64 - u32::from(self.size));
        let requests = requests & valid;
        if requests == 0 {
            return None;
        }
        // Round-robin in two bit operations: first requester at or after the
        // priority pointer, else wrap to the lowest requester.
        let at_or_after = requests & !((1u64 << self.next_priority) - 1);
        let winner =
            if at_or_after != 0 { at_or_after.trailing_zeros() } else { requests.trailing_zeros() };
        Some(winner as usize)
    }

    /// Rotates the priority pointer past `winner`.
    pub fn commit(&mut self, winner: usize) {
        let size = usize::from(self.size);
        assert!(winner < size, "winner index out of range");
        // Wrap with a compare: this runs twice per grant, and `% size` is a
        // division by a value the compiler cannot see.
        let next = winner + 1;
        self.next_priority = if next == size { 0 } else { next as u8 };
    }

    /// The textbook scan over a request slice (`requests[i] == true` means
    /// requester `i` wants a grant) that [`peek_mask`](Self::peek_mask) must
    /// agree with.
    #[cfg(test)]
    fn peek(&self, requests: &[bool]) -> Option<usize> {
        let (size, first) = (usize::from(self.size), usize::from(self.next_priority));
        assert_eq!(requests.len(), size, "request vector size mismatch");
        (0..size).map(|offset| (first + offset) % size).find(|&candidate| requests[candidate])
    }
}

impl RoundRobinArbiter {
    /// Encodes the priority pointer (the arbiter's only mutable state) for a
    /// checkpoint.
    pub(crate) fn save_state(&self, w: &mut crate::snapshot::SnapWriter) {
        w.put_usize(usize::from(self.next_priority));
    }

    /// Restores the priority pointer from a checkpoint.
    pub(crate) fn load_state(
        &mut self,
        r: &mut crate::snapshot::SnapReader<'_>,
    ) -> Result<(), crate::snapshot::SnapshotError> {
        let next = r.read_usize()?;
        if next >= usize::from(self.size) {
            return Err(crate::snapshot::SnapshotError::Corrupt("arbiter priority"));
        }
        self.next_priority = next as u8;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Arbiter sizes the mask path is checked at: the degenerate single
    /// requester, an odd width, and both sides of the `valid`-mask edge.
    const SIZES: [usize; 4] = [1, 5, 63, 64];

    /// One allocation round as the allocator runs it.
    fn grant(arb: &mut RoundRobinArbiter, requests: u64) -> Option<usize> {
        let winner = arb.peek_mask(requests)?;
        arb.commit(winner);
        Some(winner)
    }

    #[test]
    fn arbiter_is_two_bytes() {
        // 55 of them per 8-VC router: the footprint budget counts on this.
        assert_eq!(std::mem::size_of::<RoundRobinArbiter>(), 2);
    }

    #[test]
    fn grants_only_requesting_inputs() {
        let mut arb = RoundRobinArbiter::new(4);
        assert_eq!(grant(&mut arb, 0b0100), Some(2));
        assert_eq!(grant(&mut arb, 0), None);
        // Bits beyond the arbiter's width are not requesters.
        assert_eq!(grant(&mut arb, 0b1_0000), None);
    }

    #[test]
    fn round_robin_is_fair_under_full_load() {
        for size in SIZES {
            let mut arb = RoundRobinArbiter::new(size);
            let everyone = u64::MAX >> (64 - size);
            let grants: Vec<usize> =
                (0..2 * size).map(|_| grant(&mut arb, everyone).unwrap()).collect();
            let expected: Vec<usize> = (0..size).chain(0..size).collect();
            assert_eq!(grants, expected, "size {size}");
        }
    }

    #[test]
    fn priority_rotates_past_winner() {
        for size in SIZES {
            // The lowest and the highest requester compete every round.
            let last = size - 1;
            let requests = 1 | (1u64 << last);
            let mut arb = RoundRobinArbiter::new(size);
            assert_eq!(grant(&mut arb, requests), Some(0), "size {size}");
            // After granting 0 the pointer moves to 1, so the top requester
            // wins next; granting it wraps the pointer back to 0.
            assert_eq!(grant(&mut arb, requests), Some(last), "size {size}");
            assert_eq!(grant(&mut arb, requests), Some(0), "size {size}");
        }
    }

    #[test]
    fn peek_does_not_rotate() {
        let mut arb = RoundRobinArbiter::new(2);
        assert_eq!(arb.peek_mask(0b11), Some(0));
        assert_eq!(arb.peek_mask(0b11), Some(0));
        arb.commit(0);
        assert_eq!(arb.peek_mask(0b11), Some(1));
    }

    #[test]
    fn mask_and_slice_peek_agree() {
        let mut rng = StdRng::seed_from_u64(0x0a2b);
        for size in 1..=64usize {
            let mut arb = RoundRobinArbiter::new(size);
            for round in 0..200 {
                // Sparse, dense and unmasked-garbage request words alike.
                let mask = match round % 3 {
                    0 => rng.next_u64() & rng.next_u64() & rng.next_u64(),
                    1 => rng.next_u64() | rng.next_u64(),
                    _ => rng.next_u64(),
                };
                let slice: Vec<bool> = (0..size).map(|i| (mask >> i) & 1 == 1).collect();
                assert_eq!(arb.peek_mask(mask), arb.peek(&slice), "size {size} mask {mask:#x}");
                // Rotate the pointer through every position, winner or not.
                arb.commit(round % size);
            }
            assert_eq!(arb.peek_mask(0), None);
        }
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn wrong_request_size_panics() {
        let arb = RoundRobinArbiter::new(3);
        let _ = arb.peek(&[true, false]);
    }

    #[test]
    #[should_panic(expected = "at least one requester")]
    fn zero_size_rejected() {
        let _ = RoundRobinArbiter::new(0);
    }

    #[test]
    fn starvation_freedom_over_long_run() {
        // Two persistent requesters must each win exactly half the grants and
        // nobody else any: past the upper one the scan has to wrap around to
        // the lower one, every other round.
        for size in SIZES {
            let contenders = [0, size / 2];
            let requests = contenders.iter().fold(0u64, |m, &i| m | (1 << i));
            let mut arb = RoundRobinArbiter::new(size);
            let mut wins = vec![0usize; size];
            for _ in 0..1000 {
                wins[grant(&mut arb, requests).unwrap()] += 1;
            }
            let share = 1000 / requests.count_ones() as usize;
            for (i, &won) in wins.iter().enumerate() {
                let expected = if contenders.contains(&i) { share } else { 0 };
                assert_eq!(won, expected, "size {size} requester {i}");
            }
        }
    }
}
