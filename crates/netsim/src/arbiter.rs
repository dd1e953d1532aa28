//! Round-robin arbiters used by the allocation stages.

/// A work-conserving round-robin arbiter over `n` requesters.
///
/// The arbiter grants the requesting input closest (in circular order) to the
/// position after the last granted input, which provides strong fairness — the
/// same scheme used by the separable allocators of the reference router.
#[derive(Debug, Clone)]
pub struct RoundRobinArbiter {
    size: usize,
    next_priority: usize,
}

impl RoundRobinArbiter {
    /// Creates an arbiter over `size` requesters.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero.
    pub fn new(size: usize) -> Self {
        assert!(size > 0, "arbiter must have at least one requester");
        RoundRobinArbiter { size, next_priority: 0 }
    }

    /// Number of requesters.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Grants one of the requesting inputs, if any, and rotates the priority
    /// pointer past the winner.
    ///
    /// `requests[i] == true` means requester `i` wants a grant.
    ///
    /// # Panics
    ///
    /// Panics if `requests.len() != self.size()`.
    pub fn arbitrate(&mut self, requests: &[bool]) -> Option<usize> {
        assert_eq!(requests.len(), self.size, "request vector size mismatch");
        for offset in 0..self.size {
            let candidate = (self.next_priority + offset) % self.size;
            if requests[candidate] {
                self.next_priority = (candidate + 1) % self.size;
                return Some(candidate);
            }
        }
        None
    }

    /// Grants among requesters without rotating the priority pointer.
    ///
    /// Useful for "speculative" queries where the caller may not accept the
    /// grant; call [`commit`](Self::commit) to rotate afterwards.
    pub fn peek(&self, requests: &[bool]) -> Option<usize> {
        assert_eq!(requests.len(), self.size, "request vector size mismatch");
        (0..self.size)
            .map(|offset| (self.next_priority + offset) % self.size)
            .find(|&candidate| requests[candidate])
    }

    /// Like [`peek`](Self::peek) but the request vector is a bit mask
    /// (bit `i` set means requester `i` wants a grant); avoids building a
    /// slice on the allocator's hot path.
    ///
    /// # Panics
    ///
    /// Panics if the arbiter has more than 64 requesters.
    pub fn peek_mask(&self, requests: u64) -> Option<usize> {
        assert!(self.size <= 64, "mask-based arbitration supports at most 64 requesters");
        let valid = if self.size == 64 { u64::MAX } else { (1u64 << self.size) - 1 };
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
        assert!(winner < self.size, "winner index out of range");
        // Wrap with a compare: this runs twice per grant, and `% size` is a
        // division by a value the compiler cannot see.
        let next = winner + 1;
        self.next_priority = if next == self.size { 0 } else { next };
    }
}

#[cfg(feature = "snapshot")]
impl RoundRobinArbiter {
    /// Encodes the priority pointer (the arbiter's only mutable state) for a
    /// checkpoint.
    pub(crate) fn save_state(&self, w: &mut crate::snapshot::SnapWriter) {
        w.put_usize(self.next_priority);
    }

    /// Restores the priority pointer from a checkpoint.
    pub(crate) fn load_state(
        &mut self,
        r: &mut crate::snapshot::SnapReader<'_>,
    ) -> Result<(), crate::snapshot::SnapshotError> {
        let next = r.read_usize()?;
        if next >= self.size {
            return Err(crate::snapshot::SnapshotError::Corrupt("arbiter priority"));
        }
        self.next_priority = next;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grants_only_requesting_inputs() {
        let mut arb = RoundRobinArbiter::new(4);
        assert_eq!(arb.arbitrate(&[false, false, true, false]), Some(2));
        assert_eq!(arb.arbitrate(&[false, false, false, false]), None);
    }

    #[test]
    fn round_robin_is_fair_under_full_load() {
        let mut arb = RoundRobinArbiter::new(3);
        let all = [true, true, true];
        let mut grants = Vec::new();
        for _ in 0..6 {
            grants.push(arb.arbitrate(&all).unwrap());
        }
        assert_eq!(grants, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn priority_rotates_past_winner() {
        let mut arb = RoundRobinArbiter::new(4);
        assert_eq!(arb.arbitrate(&[true, false, false, true]), Some(0));
        // After granting 0 the pointer moves to 1, so requester 3 wins next.
        assert_eq!(arb.arbitrate(&[true, false, false, true]), Some(3));
        assert_eq!(arb.arbitrate(&[true, false, false, true]), Some(0));
    }

    #[test]
    fn peek_does_not_rotate() {
        let mut arb = RoundRobinArbiter::new(2);
        assert_eq!(arb.peek(&[true, true]), Some(0));
        assert_eq!(arb.peek(&[true, true]), Some(0));
        arb.commit(0);
        assert_eq!(arb.peek(&[true, true]), Some(1));
    }

    #[test]
    fn mask_and_slice_peek_agree() {
        let mut arb = RoundRobinArbiter::new(6);
        let slice = [false, true, false, true, false, true];
        let mask = 0b101010u64;
        for _ in 0..10 {
            assert_eq!(arb.peek(&slice), arb.peek_mask(mask));
            let winner = arb.peek_mask(mask).unwrap();
            arb.commit(winner);
        }
        assert_eq!(arb.peek_mask(0), None);
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn wrong_request_size_panics() {
        let mut arb = RoundRobinArbiter::new(3);
        let _ = arb.arbitrate(&[true, false]);
    }

    #[test]
    #[should_panic(expected = "at least one requester")]
    fn zero_size_rejected() {
        let _ = RoundRobinArbiter::new(0);
    }

    #[test]
    fn starvation_freedom_over_long_run() {
        // Two persistent requesters must each win about half the grants.
        let mut arb = RoundRobinArbiter::new(5);
        let requests = [true, false, true, false, false];
        let mut wins = [0usize; 5];
        for _ in 0..1000 {
            let w = arb.arbitrate(&requests).unwrap();
            wins[w] += 1;
        }
        assert_eq!(wins[0], 500);
        assert_eq!(wins[2], 500);
        assert_eq!(wins[1] + wins[3] + wins[4], 0);
    }
}
