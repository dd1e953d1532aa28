//! Multi-tenant partitions of the fabric.
//!
//! A large fabric rarely runs a single application: several independent
//! workloads ("tenants") are mapped onto disjoint node sets and share the
//! interconnect. This module provides the partition the simulator uses for
//! **per-tenant QoS accounting**:
//!
//! * [`TenantMap`] — a dense `node → tenant` table plus per-slot node
//!   counts, installed at run time via
//!   [`NocSimulation::set_tenant_map`](crate::NocSimulation::set_tenant_map).
//!
//! Unlike the voltage-frequency island partition
//! ([`RegionMap`](crate::RegionMap)), a tenant map does not have to cover
//! every node: nodes no tenant owns are assigned to a synthetic
//! **background slot** (index [`tenant_count`](TenantMap::tenant_count), the
//! last slot). Every counted event lands in exactly one slot, so the
//! per-slot windows drained by
//! [`take_tenant_windows`](crate::NocSimulation::take_tenant_windows) sum —
//! exactly, field by field — to the global window over the same span. That
//! conservation contract mirrors the per-island window contract and is
//! pinned by `tests/tenant_invariants.rs`.
//!
//! ```
//! use noc_sim::TenantMap;
//!
//! // Two tenants on a 2x2 fabric; node 3 belongs to neither.
//! let map = TenantMap::new(vec![Some(0), Some(1), Some(0), None], 2).unwrap();
//! assert_eq!(map.tenant_count(), 2);
//! assert_eq!(map.slot_count(), 3); // two tenants + the background slot
//! assert_eq!(map.tenant_of(0), Some(0));
//! assert_eq!(map.tenant_of(3), None);
//! assert_eq!(map.slot_of(3), map.background_slot());
//! assert_eq!(map.node_counts(), &[2, 1, 1]);
//! ```


/// Errors building or installing a [`TenantMap`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TenantMapError {
    /// The map declares zero tenants; at least one is required.
    NoTenants,
    /// A node names a tenant id at or beyond the declared tenant count.
    TenantIdOutOfRange {
        /// The offending node.
        node: usize,
        /// The out-of-range tenant id it names.
        tenant: u32,
        /// The declared number of tenants.
        tenant_count: usize,
    },
    /// A declared tenant owns no node.
    EmptyTenant {
        /// The ownerless tenant id.
        tenant: u32,
    },
    /// The map covers a different number of nodes than the network.
    WrongLength {
        /// The network's node count.
        expected: usize,
        /// The map's node count.
        got: usize,
    },
}

impl std::fmt::Display for TenantMapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TenantMapError::NoTenants => {
                write!(f, "a tenant map must declare at least one tenant")
            }
            TenantMapError::TenantIdOutOfRange { node, tenant, tenant_count } => write!(
                f,
                "node {node} names tenant {tenant}, but only {tenant_count} tenants are declared"
            ),
            TenantMapError::EmptyTenant { tenant } => {
                write!(f, "tenant {tenant} owns no node")
            }
            TenantMapError::WrongLength { expected, got } => write!(
                f,
                "tenant map covers {got} nodes but the network has {expected}"
            ),
        }
    }
}

impl std::error::Error for TenantMapError {}

/// A resolved partition of the network's nodes into tenants: the dense
/// `node → slot` table the simulator indexes when attributing counted
/// events, plus per-slot membership counts.
///
/// Slots `0..tenant_count` are the tenants; slot `tenant_count` (the last)
/// is the synthetic background slot collecting every node no tenant owns.
/// The background slot exists even when the map is total — its node count
/// is then zero and its window stays empty.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantMap {
    /// `node → slot`; mapped nodes carry their tenant id, unmapped nodes the
    /// background slot.
    slot_of: Vec<u32>,
    /// Number of real tenants (excluding the background slot).
    tenant_count: usize,
    /// Per-slot node counts, indexed by slot (length `tenant_count + 1`).
    node_counts: Vec<usize>,
}

impl TenantMap {
    /// Builds a map from a per-node owner assignment (`None` = background),
    /// validating it: at least one tenant, every named id below
    /// `tenant_count`, and every declared tenant owning at least one node.
    ///
    /// The node count is taken from `owner_of.len()`;
    /// [`NocSimulation::set_tenant_map`](crate::NocSimulation::set_tenant_map)
    /// checks it against the network.
    ///
    /// # Errors
    ///
    /// [`TenantMapError::NoTenants`], [`TenantMapError::TenantIdOutOfRange`]
    /// or [`TenantMapError::EmptyTenant`].
    pub fn new(owner_of: Vec<Option<u32>>, tenant_count: usize) -> Result<Self, TenantMapError> {
        if tenant_count == 0 {
            return Err(TenantMapError::NoTenants);
        }
        let background = tenant_count as u32;
        let mut node_counts = vec![0usize; tenant_count + 1];
        let mut slot_of = Vec::with_capacity(owner_of.len());
        for (node, owner) in owner_of.into_iter().enumerate() {
            let slot = match owner {
                Some(tenant) => {
                    if tenant >= background {
                        return Err(TenantMapError::TenantIdOutOfRange {
                            node,
                            tenant,
                            tenant_count,
                        });
                    }
                    tenant
                }
                None => background,
            };
            node_counts[slot as usize] += 1;
            slot_of.push(slot);
        }
        if let Some(empty) = node_counts[..tenant_count].iter().position(|&c| c == 0) {
            return Err(TenantMapError::EmptyTenant { tenant: empty as u32 });
        }
        Ok(TenantMap { slot_of, tenant_count, node_counts })
    }

    /// Number of real tenants (the background slot is not counted).
    pub fn tenant_count(&self) -> usize {
        self.tenant_count
    }

    /// Number of accounting slots: `tenant_count + 1` (the last slot is the
    /// background).
    pub fn slot_count(&self) -> usize {
        self.tenant_count + 1
    }

    /// The background slot's index (always the last slot).
    pub fn background_slot(&self) -> u32 {
        self.tenant_count as u32
    }

    /// Number of nodes covered by the map.
    pub fn node_count(&self) -> usize {
        self.slot_of.len()
    }

    /// The accounting slot owning `node` (a tenant id, or the background
    /// slot).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[inline]
    pub fn slot_of(&self, node: usize) -> u32 {
        self.slot_of[node]
    }

    /// The tenant owning `node`, or `None` for a background node.
    #[inline]
    pub fn tenant_of(&self, node: usize) -> Option<u32> {
        let slot = self.slot_of[node];
        (slot < self.tenant_count as u32).then_some(slot)
    }

    /// The full `node → slot` table, in node order.
    pub fn assignments(&self) -> &[u32] {
        &self.slot_of
    }

    /// Per-slot node counts, indexed by slot (the last entry is the
    /// background slot's).
    pub fn node_counts(&self) -> &[usize] {
        &self.node_counts
    }

    /// The nodes of one slot, in ascending node order.
    pub fn nodes_of(&self, slot: u32) -> Vec<usize> {
        self.slot_of
            .iter()
            .enumerate()
            .filter_map(|(node, &s)| (s == slot).then_some(node))
            .collect()
    }
}

impl TenantMap {
    pub(crate) fn save_state(&self, w: &mut crate::snapshot::SnapWriter) {
        w.put_usize(self.tenant_count);
        w.put_usize(self.slot_of.len());
        for &slot in &self.slot_of {
            w.put_u32(slot);
        }
    }

    pub(crate) fn load_state(
        r: &mut crate::snapshot::SnapReader<'_>,
    ) -> Result<Self, crate::snapshot::SnapshotError> {
        use crate::snapshot::SnapshotError;
        let tenant_count = r.read_usize()?;
        if tenant_count == 0 {
            return Err(SnapshotError::Corrupt("tenant map declares zero tenants"));
        }
        let nodes = r.read_usize()?;
        let mut node_counts = vec![0usize; tenant_count + 1];
        let mut slot_of = Vec::with_capacity(nodes.min(1 << 20));
        for _ in 0..nodes {
            let slot = r.read_u32()?;
            let Some(count) = node_counts.get_mut(slot as usize) else {
                return Err(SnapshotError::Corrupt("tenant map slot out of range"));
            };
            *count += 1;
            slot_of.push(slot);
        }
        if node_counts[..tenant_count].contains(&0) {
            return Err(SnapshotError::Corrupt("tenant map has an empty tenant"));
        }
        Ok(TenantMap { slot_of, tenant_count, node_counts })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_are_validated() {
        assert_eq!(TenantMap::new(vec![None; 4], 0), Err(TenantMapError::NoTenants));
        assert_eq!(
            TenantMap::new(vec![Some(0), Some(2)], 2),
            Err(TenantMapError::TenantIdOutOfRange { node: 1, tenant: 2, tenant_count: 2 })
        );
        assert_eq!(
            TenantMap::new(vec![Some(0), Some(0), None], 2),
            Err(TenantMapError::EmptyTenant { tenant: 1 })
        );
    }

    #[test]
    fn background_collects_unmapped_nodes() {
        let map = TenantMap::new(vec![Some(1), None, Some(0), None], 2).unwrap();
        assert_eq!(map.slot_count(), 3);
        assert_eq!(map.background_slot(), 2);
        assert_eq!(map.slot_of(1), 2);
        assert_eq!(map.tenant_of(1), None);
        assert_eq!(map.tenant_of(2), Some(0));
        assert_eq!(map.node_counts(), &[1, 1, 2]);
        assert_eq!(map.node_counts().iter().sum::<usize>(), map.node_count());
        assert_eq!(map.nodes_of(2), vec![1, 3]);
    }

    #[test]
    fn total_maps_leave_the_background_empty() {
        let map = TenantMap::new(vec![Some(0), Some(1), Some(1), Some(0)], 2).unwrap();
        assert_eq!(map.node_counts(), &[2, 2, 0]);
        assert_eq!(map.nodes_of(map.background_slot()), Vec::<usize>::new());
    }

    #[test]
    fn snapshot_round_trips() {
        use crate::snapshot::{SnapReader, SnapWriter};
        let map = TenantMap::new(vec![Some(1), None, Some(0), Some(1)], 2).unwrap();
        let mut w = SnapWriter::new();
        map.save_state(&mut w);
        let bytes = w.into_vec();
        let mut r = SnapReader::new(&bytes);
        let back = TenantMap::load_state(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back, map);
    }

    #[test]
    fn corrupt_snapshots_are_rejected() {
        use crate::snapshot::{SnapReader, SnapWriter};
        // A slot id beyond the background slot.
        let mut w = SnapWriter::new();
        w.put_usize(1);
        w.put_usize(2);
        w.put_u32(0);
        w.put_u32(7);
        let bytes = w.into_vec();
        assert!(TenantMap::load_state(&mut SnapReader::new(&bytes)).is_err());
        // An empty tenant.
        let mut w = SnapWriter::new();
        w.put_usize(2);
        w.put_usize(1);
        w.put_u32(2);
        let bytes = w.into_vec();
        assert!(TenantMap::load_state(&mut SnapReader::new(&bytes)).is_err());
    }
}
