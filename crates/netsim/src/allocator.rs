//! Separable input-first allocator.
//!
//! Both the virtual-channel allocator and the switch allocator of the router
//! are instances of the same separable scheme: a first round of per-*requester
//! group* arbitration reduces each group to at most one request, and a second
//! round of per-*resource* arbitration picks a winner among the surviving
//! requests. This mirrors the iSLIP-like separable allocators of the
//! reference router.
//!
//! The allocator is *mask-native*: a round takes one requesting-member
//! bitmask per group — the form the router keeps its ready sets in — and asks
//! the caller for the resource of a `(group, member)` only for the one member
//! per group that survives the first round.

use crate::arbiter::RoundRobinArbiter;

/// The most groups, and the most members per group, an allocator can have
/// (request sets are `u64` masks).
const MAX_FAN_IN: usize = 64;

/// A granted (requester, resource) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocGrant {
    /// Requester group of the winner.
    pub group: usize,
    /// Member within the winning group.
    pub member: usize,
    /// Resource that was granted.
    pub resource: usize,
}

/// Separable input-first allocator with round-robin arbiters.
///
/// The grant buffer is reused across allocation rounds, so steady-state
/// allocation performs no heap allocation; [`allocate`](Self::allocate)
/// returns a slice into it that stays valid until the next round. It is
/// sized on the first round, so an allocator that never grants owns one heap
/// block: its arbiters.
#[derive(Debug, Clone)]
pub struct SeparableAllocator {
    /// Bits of the members a group has (the low `members_per_group` bits).
    member_valid: u64,
    groups: usize,
    resources: usize,
    /// The per-group (input) arbiters, then the per-resource (output) ones.
    arbiters: Vec<RoundRobinArbiter>,
    /// Grants of the current round (returned by reference).
    grants: Vec<AllocGrant>,
}

impl SeparableAllocator {
    /// Creates an allocator for `groups × members_per_group` requesters and
    /// `resources` resources.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero, or if there are more than 64 groups
    /// or more than 64 members per group (the router never needs more; the
    /// limit lets a round work on `u64` masks without touching the heap).
    pub fn new(groups: usize, members_per_group: usize, resources: usize) -> Self {
        assert!(groups > 0 && members_per_group > 0 && resources > 0);
        assert!(
            members_per_group <= MAX_FAN_IN && groups <= MAX_FAN_IN,
            "separable allocator supports at most 64 members and 64 groups"
        );
        assert!(u32::try_from(resources).is_ok(), "resource indices are kept in 32 bits");
        let inputs = (0..groups).map(|_| RoundRobinArbiter::new(members_per_group));
        let outputs = (0..resources).map(|_| RoundRobinArbiter::new(groups));
        SeparableAllocator {
            member_valid: u64::MAX >> (MAX_FAN_IN - members_per_group),
            groups,
            resources,
            arbiters: inputs.chain(outputs).collect(),
            grants: Vec::new(),
        }
    }

    /// The output arbiter of `resource` (the input arbiter of `group` is
    /// `arbiters[group]`).
    fn output_arbiter(&mut self, resource: usize) -> &mut RoundRobinArbiter {
        &mut self.arbiters[self.groups + resource]
    }

    /// Performs one allocation round.
    ///
    /// `member_masks[g]` is the set of members of group `g` that request
    /// something this round (bit `m` set: member `m` requests), and
    /// `resource_of(g, m)` names what member `m` of group `g` requests. It is
    /// consulted once per requesting group, for the member that wins the
    /// group's first-round arbitration. Each group receives at most one
    /// grant and each resource is granted to at most one group; grants come
    /// in ascending order of the lowest group that proposed the resource.
    ///
    /// A mask with a single bit, in either round, wins without consulting
    /// the arbiter — whatever its rotating priority, an arbiter picks the
    /// only requester — so a lone request costs two pointer rotations and no
    /// arbitration. Arbiters rotate only for committed grants: a losing
    /// requester keeps its priority.
    ///
    /// # Panics
    ///
    /// Panics if `member_masks` does not hold exactly one mask per group, if
    /// a mask names a member the groups do not have, or if `resource_of`
    /// returns a resource the allocator does not have: each is a caller bug,
    /// not a request to skip.
    pub fn allocate(
        &mut self,
        member_masks: &[u64],
        resource_of: impl Fn(usize, usize) -> usize,
    ) -> &[AllocGrant] {
        assert_eq!(member_masks.len(), self.groups, "one member mask per group");
        if self.grants.capacity() == 0 {
            self.grants.reserve_exact(self.groups);
        }
        self.grants.clear();
        // Round 1: each requesting group puts one member forward.
        let mut member = [0u8; MAX_FAN_IN];
        let mut resource = [0u32; MAX_FAN_IN];
        let mut pending = 0u64;
        for (group, &mask) in member_masks.iter().enumerate() {
            if mask == 0 {
                continue;
            }
            assert!(mask & !self.member_valid == 0, "request from a member no group has");
            let winner = if mask & (mask - 1) == 0 {
                mask.trailing_zeros() as usize
            } else {
                self.arbiters[group].peek_mask(mask).expect("the mask is not empty")
            };
            let wanted = resource_of(group, winner);
            assert!(wanted < self.resources, "request for a resource the allocator does not have");
            member[group] = winner as u8;
            resource[group] = wanted as u32;
            pending |= 1u64 << group;
        }
        // Round 2: each proposed resource picks one of the groups that put a
        // member forward for it. Taking the lowest pending group's resource
        // next visits the resources in the order a scan over the groups
        // meets them.
        while pending != 0 {
            let first = pending.trailing_zeros() as usize;
            let wanted = resource[first];
            let mut contenders = 0u64;
            let mut rest = pending;
            while rest != 0 {
                let group = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                if resource[group] == wanted {
                    contenders |= 1u64 << group;
                }
            }
            pending &= !contenders;
            let wanted = wanted as usize;
            let group = if contenders & (contenders - 1) == 0 {
                first
            } else {
                self.output_arbiter(wanted).peek_mask(contenders).expect("the mask is not empty")
            };
            let member = usize::from(member[group]);
            self.grants.push(AllocGrant { group, member, resource: wanted });
            self.output_arbiter(wanted).commit(group);
            self.arbiters[group].commit(member);
        }
        &self.grants
    }
}

impl SeparableAllocator {
    /// Encodes the persistent allocator state (the input arbiters, then the
    /// output arbiters) for a checkpoint. The grant buffer is per-round
    /// scratch and is not written.
    pub(crate) fn save_state(&self, w: &mut crate::snapshot::SnapWriter) {
        for arb in &self.arbiters {
            arb.save_state(w);
        }
    }

    /// Restores the arbiter banks from a checkpoint.
    pub(crate) fn load_state(
        &mut self,
        r: &mut crate::snapshot::SnapReader<'_>,
    ) -> Result<(), crate::snapshot::SnapshotError> {
        for arb in &mut self.arbiters {
            arb.load_state(r)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A request from `member` of `group` for `resource`, the unit of the
    /// reference allocator's request list.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct AllocRequest {
        group: usize,
        member: usize,
        resource: usize,
    }

    fn req(group: usize, member: usize, resource: usize) -> AllocRequest {
        AllocRequest { group, member, resource }
    }

    impl SeparableAllocator {
        /// The request-list allocator the mask-native one replaced, kept as
        /// the reference the equivalence test compares against: same arbiter
        /// banks, a list of requests in, grants out. When a member appears in
        /// several requests the first one counts; out-of-range requests are
        /// skipped.
        fn allocate_reference(&mut self, requests: &[AllocRequest]) -> Vec<AllocGrant> {
            let groups = self.groups;
            let members = self.member_valid.count_ones() as usize;
            let mut grants = Vec::new();
            let mut member_masks = vec![0u64; groups];
            let mut resource_of = vec![0usize; groups * members];
            for req in requests {
                if req.group < groups && req.member < members && req.resource < self.resources {
                    let bit = 1u64 << req.member;
                    if member_masks[req.group] & bit == 0 {
                        member_masks[req.group] |= bit;
                        resource_of[req.group * members + req.member] = req.resource;
                    }
                }
            }
            let stage1: Vec<Option<(usize, usize)>> = (0..groups)
                .map(|group| {
                    self.arbiters[group]
                        .peek_mask(member_masks[group])
                        .map(|member| (member, resource_of[group * members + member]))
                })
                .collect();
            for g in 0..groups {
                let Some((_member, resource)) = stage1[g] else { continue };
                if stage1[..g].iter().any(|s| matches!(s, Some((_, r)) if *r == resource)) {
                    continue;
                }
                let mut group_mask = 0u64;
                for (group, s) in stage1.iter().enumerate() {
                    if matches!(s, Some((_, r)) if *r == resource) {
                        group_mask |= 1u64 << group;
                    }
                }
                if let Some(group) = self.output_arbiter(resource).peek_mask(group_mask) {
                    let (member, _r) = stage1[group].expect("stage-1 winner exists");
                    grants.push(AllocGrant { group, member, resource });
                    self.output_arbiter(resource).commit(group);
                    self.arbiters[group].commit(member);
                }
            }
            grants
        }

        /// The mask-native round for a request list (each member at most
        /// once), so a test can state its requests as triples.
        fn allocate_list(&mut self, requests: &[AllocRequest]) -> Vec<AllocGrant> {
            let mut masks = vec![0u64; self.groups];
            for r in requests {
                masks[r.group] |= 1u64 << r.member;
            }
            let wanted = |group: usize, member: usize| {
                let found = requests.iter().find(|r| r.group == group && r.member == member);
                found.expect("the allocator asks only about requesting members").resource
            };
            self.allocate(&masks, wanted).to_vec()
        }
    }

    #[test]
    fn single_request_is_granted() {
        let mut alloc = SeparableAllocator::new(3, 2, 4);
        let grants = alloc.allocate_list(&[req(1, 0, 2)]);
        assert_eq!(grants, vec![AllocGrant { group: 1, member: 0, resource: 2 }]);
    }

    #[test]
    fn single_request_fast_path_rotates_arbiters_like_the_full_path() {
        // After a lone grant to group 0, resource 0's round-robin pointer
        // must sit past group 0 — so in the next contended round group 1
        // wins, exactly as if both arbiters had been consulted for the lone
        // request.
        let mut alloc = SeparableAllocator::new(2, 2, 2);
        let grants = alloc.allocate_list(&[req(0, 0, 0)]);
        assert_eq!(grants, vec![AllocGrant { group: 0, member: 0, resource: 0 }]);
        let contended = alloc.allocate_list(&[req(0, 0, 0), req(1, 0, 0)]);
        assert_eq!(contended.len(), 1);
        assert_eq!(contended[0].group, 1, "priority must have rotated past group 0");
        // The winning group's input arbiter rotated too: with both members
        // of group 0 requesting, member 1 now has priority.
        let members = alloc.allocate_list(&[req(0, 0, 0), req(0, 1, 1)]);
        assert_eq!(members.len(), 1);
        assert_eq!(members[0].member, 1, "input priority must have rotated past member 0");
    }

    #[test]
    fn each_resource_granted_at_most_once() {
        let mut alloc = SeparableAllocator::new(4, 1, 2);
        let grants =
            alloc.allocate_list(&[req(0, 0, 0), req(1, 0, 0), req(2, 0, 0), req(3, 0, 0)]);
        assert_eq!(grants.len(), 1);
        assert_eq!(grants[0].resource, 0);
    }

    #[test]
    fn each_group_granted_at_most_once() {
        let mut alloc = SeparableAllocator::new(1, 4, 4);
        // One group with four members asking for four different resources:
        // input-first arbitration lets only one member through.
        let grants =
            alloc.allocate_list(&[req(0, 0, 0), req(0, 1, 1), req(0, 2, 2), req(0, 3, 3)]);
        assert_eq!(grants.len(), 1);
    }

    #[test]
    fn disjoint_requests_all_granted() {
        let mut alloc = SeparableAllocator::new(3, 1, 3);
        let grants = alloc.allocate_list(&[req(0, 0, 0), req(1, 0, 1), req(2, 0, 2)]);
        assert_eq!(grants.len(), 3);
    }

    #[test]
    fn contention_resolves_fairly_over_rounds() {
        let mut alloc = SeparableAllocator::new(2, 1, 1);
        let requests = [req(0, 0, 0), req(1, 0, 0)];
        let mut wins = [0usize; 2];
        for _ in 0..100 {
            for g in alloc.allocate_list(&requests) {
                wins[g.group] += 1;
            }
        }
        assert_eq!(wins[0], 50);
        assert_eq!(wins[1], 50);
    }

    #[test]
    #[should_panic(expected = "member no group has")]
    fn out_of_range_member_panics() {
        let mut alloc = SeparableAllocator::new(2, 2, 2);
        alloc.allocate(&[0, 1 << 7], |_, _| 1);
    }

    #[test]
    #[should_panic(expected = "resource the allocator does not have")]
    fn out_of_range_resource_panics() {
        let mut alloc = SeparableAllocator::new(2, 2, 2);
        alloc.allocate(&[0, 1], |_, _| 9);
    }

    #[test]
    #[should_panic(expected = "one member mask per group")]
    fn missing_group_mask_panics() {
        let mut alloc = SeparableAllocator::new(2, 2, 2);
        alloc.allocate(&[1], |_, _| 0);
    }

    #[test]
    #[should_panic(expected = "at most 64 members")]
    fn more_than_64_members_rejected_at_construction() {
        let _ = SeparableAllocator::new(2, 65, 2);
    }

    #[test]
    fn grants_reference_actual_requests() {
        let mut alloc = SeparableAllocator::new(5, 8, 5);
        let requests =
            vec![req(0, 3, 1), req(0, 5, 2), req(2, 1, 1), req(3, 0, 4), req(4, 7, 2)];
        let grants = alloc.allocate_list(&requests);
        for g in &grants {
            assert!(
                requests
                    .iter()
                    .any(|r| r.group == g.group && r.member == g.member && r.resource == g.resource),
                "grant {g:?} does not correspond to any request"
            );
        }
        // Disjoint groups and at least partially disjoint resources: expect
        // at least 3 grants (0→1 or 2, 2→1, 3→4, 4→2).
        assert!(grants.len() >= 3);
    }

    /// Runs `rounds` consecutive rounds on a mask-native allocator and a
    /// reference allocator of the same shape — arbiter state carried from
    /// round to round on both — with request sets drawn by `draw`, and
    /// demands the same grants in the same order every round.
    fn assert_equivalent_over_rounds(
        shape: (usize, usize, usize),
        rounds: usize,
        mut draw: impl FnMut(usize) -> Vec<AllocRequest>,
    ) {
        let (groups, members, resources) = shape;
        let mut native = SeparableAllocator::new(groups, members, resources);
        let mut reference = SeparableAllocator::new(groups, members, resources);
        for round in 0..rounds {
            let requests = draw(round);
            let expected = reference.allocate_reference(&requests);
            let got = native.allocate_list(&requests);
            assert_eq!(got, expected, "shape {shape:?}, round {round}, requests {requests:?}");
        }
    }

    #[test]
    fn mask_native_matches_the_request_list_reference() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        // Router-like shapes (the SA and VA allocators of a 4-VC router), a
        // full-width one, and degenerate ones.
        let shapes = [(5, 4, 5), (5, 4, 20), (3, 64, 7), (64, 2, 3), (1, 1, 1), (2, 3, 1)];
        for (i, shape) in shapes.into_iter().enumerate() {
            let (groups, members, resources) = shape;
            let mut rng = StdRng::seed_from_u64(0xA110C + i as u64);
            assert_equivalent_over_rounds(shape, 1500, |round| {
                // Density varies by round so that empty rounds, lone
                // requesters and saturated rounds all occur.
                let density = [0.0, 0.02, 0.2, 0.6, 1.0][round % 5];
                let mut requests = Vec::new();
                for group in 0..groups {
                    for member in 0..members {
                        if rng.gen_bool(density) {
                            requests.push(req(group, member, rng.gen_range(0..resources)));
                        }
                    }
                }
                requests
            });
        }
    }

    #[test]
    fn mask_native_matches_the_reference_on_the_corner_rounds() {
        // A lone requester that moves around, every group on one resource,
        // all 64 members of every group requesting, and empty rounds —
        // interleaved, so each meets the arbiter state the others left.
        let shape = (5, 64, 6);
        assert_equivalent_over_rounds(shape, 1200, |round| match round % 4 {
            0 => vec![req(round % 5, (round * 7) % 64, round % 6)],
            1 => (0..5).map(|g| req(g, (round + g) % 64, 3)).collect(),
            2 => (0..5)
                .flat_map(|g| (0..64).map(move |m| req(g, m, (g * 64 + m + round) % 6)))
                .collect(),
            _ => Vec::new(),
        });
    }
}
