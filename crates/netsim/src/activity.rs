//! Switching-activity counters.
//!
//! The paper estimates power by exporting the per-component activity recorded
//! by the cycle-accurate simulator into a gate-level power tool. Our
//! equivalent is [`RouterActivity`]: a set of event counters per router that
//! the `noc-power` crate converts into energy given the operating voltage and
//! frequency.

use std::ops::{Add, AddAssign};

/// Switching-activity counters of one router (and its outgoing links) over
/// some observation window.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouterActivity {
    /// Flits written into input buffers.
    pub buffer_writes: u64,
    /// Flits read out of input buffers.
    pub buffer_reads: u64,
    /// Flits that traversed the crossbar.
    pub crossbar_traversals: u64,
    /// Successful virtual-channel allocations (head flits).
    pub vc_allocations: u64,
    /// Successful switch-allocation grants.
    pub switch_allocations: u64,
    /// Flits sent on inter-router output links (excludes ejection).
    pub link_flits: u64,
    /// Flits ejected to the local node.
    pub ejected_flits: u64,
    /// NoC cycles covered by this activity window.
    pub cycles: u64,
    /// Domain cycles of the window the router spent power-gated (0 unless
    /// gating is enabled; always `<= cycles`).
    pub gated_cycles: u64,
    /// Completed sleep (power-down) transitions in the window.
    pub sleep_events: u64,
    /// Wake (power-up) transitions in the window.
    pub wake_events: u64,
}

impl RouterActivity {
    /// An all-zero activity record.
    pub fn new() -> Self {
        RouterActivity::default()
    }

    /// Total number of "switching events" — a coarse aggregate used by tests
    /// and diagnostics, not by the power model (which weighs each class).
    pub fn total_events(&self) -> u64 {
        self.buffer_writes
            + self.buffer_reads
            + self.crossbar_traversals
            + self.vc_allocations
            + self.switch_allocations
            + self.link_flits
            + self.ejected_flits
    }

    /// Whether no events have been recorded — including gating transitions
    /// and gated residency, so that an idle-record fast path (one energy
    /// evaluation shared by all idle routers) stays exact under gating.
    pub fn is_idle(&self) -> bool {
        self.total_events() == 0
            && self.gated_cycles == 0
            && self.sleep_events == 0
            && self.wake_events == 0
    }
}

impl RouterActivity {
    /// Encodes the counters for a simulation checkpoint.
    pub(crate) fn save_state(&self, w: &mut crate::snapshot::SnapWriter) {
        w.put_u64(self.buffer_writes);
        w.put_u64(self.buffer_reads);
        w.put_u64(self.crossbar_traversals);
        w.put_u64(self.vc_allocations);
        w.put_u64(self.switch_allocations);
        w.put_u64(self.link_flits);
        w.put_u64(self.ejected_flits);
        w.put_u64(self.cycles);
        w.put_u64(self.gated_cycles);
        w.put_u64(self.sleep_events);
        w.put_u64(self.wake_events);
    }

    /// Restores the counters from a checkpoint.
    pub(crate) fn load_state(
        &mut self,
        r: &mut crate::snapshot::SnapReader<'_>,
    ) -> Result<(), crate::snapshot::SnapshotError> {
        self.buffer_writes = r.read_u64()?;
        self.buffer_reads = r.read_u64()?;
        self.crossbar_traversals = r.read_u64()?;
        self.vc_allocations = r.read_u64()?;
        self.switch_allocations = r.read_u64()?;
        self.link_flits = r.read_u64()?;
        self.ejected_flits = r.read_u64()?;
        self.cycles = r.read_u64()?;
        self.gated_cycles = r.read_u64()?;
        self.sleep_events = r.read_u64()?;
        self.wake_events = r.read_u64()?;
        Ok(())
    }
}

impl Add for RouterActivity {
    type Output = RouterActivity;
    fn add(self, rhs: RouterActivity) -> RouterActivity {
        RouterActivity {
            buffer_writes: self.buffer_writes + rhs.buffer_writes,
            buffer_reads: self.buffer_reads + rhs.buffer_reads,
            crossbar_traversals: self.crossbar_traversals + rhs.crossbar_traversals,
            vc_allocations: self.vc_allocations + rhs.vc_allocations,
            switch_allocations: self.switch_allocations + rhs.switch_allocations,
            link_flits: self.link_flits + rhs.link_flits,
            ejected_flits: self.ejected_flits + rhs.ejected_flits,
            cycles: self.cycles + rhs.cycles,
            gated_cycles: self.gated_cycles + rhs.gated_cycles,
            sleep_events: self.sleep_events + rhs.sleep_events,
            wake_events: self.wake_events + rhs.wake_events,
        }
    }
}

impl AddAssign for RouterActivity {
    fn add_assign(&mut self, rhs: RouterActivity) {
        *self = *self + rhs;
    }
}

/// Activity of every router in the network over an observation window.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NetworkActivity {
    /// Per-router activity, indexed by node id.
    pub routers: Vec<RouterActivity>,
}

impl NetworkActivity {
    /// Creates an all-zero record for `node_count` routers.
    pub fn new(node_count: usize) -> Self {
        NetworkActivity { routers: vec![RouterActivity::default(); node_count] }
    }

    /// Sum of the per-router records.
    pub fn total(&self) -> RouterActivity {
        self.routers.iter().copied().fold(RouterActivity::default(), |acc, r| acc + r)
    }

    /// Merges another window into this one (element-wise).
    ///
    /// # Panics
    ///
    /// Panics if the two records cover a different number of routers.
    pub fn merge(&mut self, other: &NetworkActivity) {
        assert_eq!(self.routers.len(), other.routers.len(), "router count mismatch");
        for (a, b) in self.routers.iter_mut().zip(other.routers.iter()) {
            *a += *b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addition_is_field_wise() {
        let a = RouterActivity {
            buffer_writes: 1,
            buffer_reads: 2,
            crossbar_traversals: 3,
            vc_allocations: 4,
            switch_allocations: 5,
            link_flits: 6,
            ejected_flits: 7,
            cycles: 8,
            gated_cycles: 2,
            sleep_events: 1,
            wake_events: 1,
        };
        let b = a;
        let c = a + b;
        assert_eq!(c.buffer_writes, 2);
        assert_eq!(c.cycles, 16);
        assert_eq!(c.total_events(), 2 * a.total_events());
    }

    #[test]
    fn idle_detection() {
        assert!(RouterActivity::new().is_idle());
        let mut a = RouterActivity::new();
        a.link_flits = 1;
        assert!(!a.is_idle());
        // A router that slept is not "idle" for the power model: its gated
        // residency and transition events change its energy.
        let mut b = RouterActivity::new();
        b.gated_cycles = 100;
        assert!(!b.is_idle());
        let mut c = RouterActivity::new();
        c.wake_events = 1;
        assert!(!c.is_idle());
    }

    #[test]
    fn network_total_sums_routers() {
        let mut n = NetworkActivity::new(3);
        n.routers[0].buffer_writes = 10;
        n.routers[2].buffer_writes = 5;
        assert_eq!(n.total().buffer_writes, 15);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = NetworkActivity::new(2);
        let mut b = NetworkActivity::new(2);
        a.routers[0].link_flits = 3;
        b.routers[0].link_flits = 4;
        b.routers[1].crossbar_traversals = 2;
        a.merge(&b);
        assert_eq!(a.routers[0].link_flits, 7);
        assert_eq!(a.routers[1].crossbar_traversals, 2);
    }

    #[test]
    #[should_panic(expected = "router count mismatch")]
    fn merge_rejects_size_mismatch() {
        let mut a = NetworkActivity::new(2);
        let b = NetworkActivity::new(3);
        a.merge(&b);
    }
}
