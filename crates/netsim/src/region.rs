//! Voltage-frequency island (VFI) regions.
//!
//! Real SoCs do not scale one global NoC clock: the fabric is partitioned
//! into **voltage-frequency islands**, each with its own clock domain and
//! DVFS controller, with inter-island links crossing domains through
//! synchronizing buffers. This module provides the partition itself:
//!
//! * [`RegionLayout`] — the named partitions (whole network, per row, per
//!   column, quadrants), cheap `Copy` values usable as a scenario axis;
//! * [`RegionScheme`] — a layout *or* an explicit custom node→island map,
//!   stored inside [`NetworkConfig`](crate::NetworkConfig);
//! * [`RegionMap`] — the resolved partition: a dense `node → island id`
//!   table plus per-island node counts, built once per simulation.
//!
//! The degenerate single-island partition ([`RegionLayout::Whole`], the
//! default) makes the island machinery a structural no-op: every golden
//! window sequence is bit-identical to the pre-VFI simulator. That contract
//! is pinned by `tests/island_invariants.rs`.
//!
//! ```
//! use noc_sim::{RegionLayout, RegionMap};
//!
//! let map = RegionLayout::Quadrants.build(4, 4);
//! assert_eq!(map.island_count(), 4);
//! // Node 0 (top-left corner) and node 15 (bottom-right) sit in different
//! // quadrants.
//! assert_ne!(map.island_of(0), map.island_of(15));
//! assert_eq!(map.node_counts().iter().sum::<usize>(), 16);
//! ```

use crate::error::ConfigError;

/// The named voltage-frequency island partitions of a `width × height` grid.
///
/// These are the layouts worth crossing with the scenario grid (topology ×
/// pattern × injection); arbitrary partitions go through
/// [`RegionScheme::Custom`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum RegionLayout {
    /// One island spanning the whole network — the pre-VFI global-DVFS
    /// behaviour, and the default.
    #[default]
    Whole,
    /// One island per mesh row (`height` islands).
    PerRow,
    /// One island per mesh column (`width` islands).
    PerColumn,
    /// Four islands splitting the grid at `width/2` / `height/2`.
    ///
    /// On odd dimensions the extra row/column joins the lower-indexed half,
    /// so every quadrant is non-empty for any grid of at least 2×2.
    Quadrants,
}

impl RegionLayout {
    /// Every named layout, in scenario-grid order.
    pub const ALL: [RegionLayout; 4] =
        [RegionLayout::Whole, RegionLayout::PerRow, RegionLayout::PerColumn, RegionLayout::Quadrants];

    /// A short lowercase name for labels (e.g. `"quadrants"`).
    pub fn name(&self) -> &'static str {
        match self {
            RegionLayout::Whole => "whole",
            RegionLayout::PerRow => "rows",
            RegionLayout::PerColumn => "columns",
            RegionLayout::Quadrants => "quadrants",
        }
    }

    /// Number of islands this layout produces on a `width × height` grid.
    pub fn island_count(&self, width: usize, height: usize) -> usize {
        match self {
            RegionLayout::Whole => 1,
            RegionLayout::PerRow => height,
            RegionLayout::PerColumn => width,
            RegionLayout::Quadrants => 4,
        }
    }

    /// Builds the resolved node→island map for a `width × height` grid.
    ///
    /// Named layouts are total on every grid the
    /// [`NetworkConfig`](crate::NetworkConfig) builder accepts (≥ 2×2), so
    /// this cannot fail.
    pub fn build(&self, width: usize, height: usize) -> RegionMap {
        let island_of = (0..width * height)
            .map(|node| {
                let (x, y) = (node % width, node / width);
                match self {
                    RegionLayout::Whole => 0,
                    RegionLayout::PerRow => y as u32,
                    RegionLayout::PerColumn => x as u32,
                    RegionLayout::Quadrants => {
                        let right = (x >= width.div_ceil(2)) as u32;
                        let bottom = (y >= height.div_ceil(2)) as u32;
                        bottom * 2 + right
                    }
                }
            })
            .collect();
        RegionMap::from_assignments(island_of, self.island_count(width, height))
    }
}

/// How a network is partitioned into voltage-frequency islands: a named
/// [`RegionLayout`] or an explicit per-node map.
///
/// Stored inside [`NetworkConfig`](crate::NetworkConfig) (builder method
/// [`regions`](crate::NetworkConfigBuilder::regions)) and resolved into a
/// [`RegionMap`] when the simulation is built.
#[derive(Debug, Clone, PartialEq)]
pub enum RegionScheme {
    /// A named layout (whole / rows / columns / quadrants).
    Layout(RegionLayout),
    /// An explicit `node → island id` assignment in node order
    /// (row-major: `node = y * width + x`).
    ///
    /// Island ids must be contiguous from zero — every id in
    /// `0..island_count` must own at least one node — and the vector length
    /// must equal the node count. Validated by
    /// [`build`](RegionScheme::build), and therefore by
    /// [`NetworkConfigBuilder::build`](crate::NetworkConfigBuilder::build).
    Custom(Vec<u32>),
}

impl RegionScheme {
    /// A short lowercase name for labels.
    pub fn name(&self) -> &'static str {
        match self {
            RegionScheme::Layout(layout) => layout.name(),
            RegionScheme::Custom(_) => "custom",
        }
    }

    /// Resolves the scheme on a `width × height` grid.
    ///
    /// # Errors
    ///
    /// For [`Custom`](RegionScheme::Custom) maps: [`ConfigError::RegionMapWrongLength`]
    /// when the assignment vector does not cover exactly `width × height`
    /// nodes, [`ConfigError::RegionIdsNotContiguous`] when some id below the
    /// maximum assigned id owns no node. Named layouts never fail.
    pub fn build(&self, width: usize, height: usize) -> Result<RegionMap, ConfigError> {
        match self {
            RegionScheme::Layout(layout) => Ok(layout.build(width, height)),
            RegionScheme::Custom(island_of) => {
                RegionMap::custom(island_of.clone(), width * height)
            }
        }
    }
}

impl RegionScheme {
    /// This type's part of `NetworkConfig::encode_fields`.
    pub(crate) fn encode_fields(&self, w: &mut crate::snapshot::SnapWriter) {
        match self {
            RegionScheme::Layout(layout) => {
                w.put_u8(0);
                w.put_u8(match layout {
                    RegionLayout::Whole => 0,
                    RegionLayout::PerRow => 1,
                    RegionLayout::PerColumn => 2,
                    RegionLayout::Quadrants => 3,
                });
            }
            RegionScheme::Custom(island_of) => {
                w.put_u8(1);
                w.put_usize(island_of.len());
                island_of.iter().for_each(|island| w.put_u32(*island));
            }
        }
    }
}

impl Default for RegionScheme {
    fn default() -> Self {
        RegionScheme::Layout(RegionLayout::Whole)
    }
}

impl From<RegionLayout> for RegionScheme {
    fn from(layout: RegionLayout) -> Self {
        RegionScheme::Layout(layout)
    }
}

/// A resolved partition of the network's nodes into voltage-frequency
/// islands: the dense `node → island` table the simulator indexes on its hot
/// path, plus per-island membership counts.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionMap {
    island_of: Vec<u32>,
    node_counts: Vec<usize>,
}

impl RegionMap {
    /// Builds a map from an explicit assignment, validating it.
    ///
    /// # Errors
    ///
    /// [`ConfigError::RegionMapWrongLength`] when `island_of.len() != nodes`;
    /// [`ConfigError::RegionIdsNotContiguous`] when the used ids are not
    /// exactly `0..island_count`.
    pub fn custom(island_of: Vec<u32>, nodes: usize) -> Result<Self, ConfigError> {
        if island_of.len() != nodes {
            return Err(ConfigError::RegionMapWrongLength {
                expected: nodes,
                got: island_of.len(),
            });
        }
        let island_count = island_of.iter().max().map_or(0, |&m| m as usize + 1);
        if island_count > nodes {
            // More islands than nodes ⇒ some island is necessarily empty, so
            // the map is invalid no matter what. Reject before sizing the
            // per-island counters by the (attacker-controllable) largest id:
            // by pigeonhole at least one id in 0..nodes owns no node.
            let mut node_counts = vec![0usize; nodes];
            for &island in &island_of {
                if let Some(count) = node_counts.get_mut(island as usize) {
                    *count += 1;
                }
            }
            let missing = node_counts.iter().position(|&c| c == 0).unwrap_or(nodes) as u32;
            return Err(ConfigError::RegionIdsNotContiguous { island_count, missing });
        }
        let mut node_counts = vec![0usize; island_count];
        for &island in &island_of {
            node_counts[island as usize] += 1;
        }
        if let Some(missing) = node_counts.iter().position(|&c| c == 0) {
            return Err(ConfigError::RegionIdsNotContiguous {
                island_count,
                missing: missing as u32,
            });
        }
        Ok(RegionMap { island_of, node_counts })
    }

    /// Internal constructor for assignments known to be contiguous.
    fn from_assignments(island_of: Vec<u32>, island_count: usize) -> Self {
        let mut node_counts = vec![0usize; island_count];
        for &island in &island_of {
            node_counts[island as usize] += 1;
        }
        debug_assert!(node_counts.iter().all(|&c| c > 0), "layouts produce no empty island");
        RegionMap { island_of, node_counts }
    }

    /// Number of islands in the partition (at least 1 for any non-empty map).
    pub fn island_count(&self) -> usize {
        self.node_counts.len()
    }

    /// Number of nodes covered by the map.
    pub fn node_count(&self) -> usize {
        self.island_of.len()
    }

    /// The island owning `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[inline]
    pub fn island_of(&self, node: usize) -> u32 {
        self.island_of[node]
    }

    /// The full `node → island` table, in node order.
    pub fn assignments(&self) -> &[u32] {
        &self.island_of
    }

    /// Per-island node counts, indexed by island id.
    pub fn node_counts(&self) -> &[usize] {
        &self.node_counts
    }

    /// The nodes of one island, in ascending node order.
    pub fn nodes_of(&self, island: u32) -> Vec<usize> {
        self.island_of
            .iter()
            .enumerate()
            .filter_map(|(node, &i)| (i == island).then_some(node))
            .collect()
    }

    /// Per-island membership bitmasks: for each island, one `u64` word per
    /// 64 nodes with bit `n & 63` of word `n >> 6` set iff node `n` belongs
    /// to the island. This is the shape the sparse stepping engine consumes
    /// to gate its worklists on the islands that fire in a given base tick.
    pub fn word_masks(&self) -> Vec<Vec<u64>> {
        let words = self.island_of.len().div_ceil(64);
        let mut masks = vec![vec![0u64; words]; self.island_count()];
        for (node, &island) in self.island_of.iter().enumerate() {
            masks[island as usize][node >> 6] |= 1u64 << (node & 63);
        }
        masks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn whole_layout_is_one_island() {
        let map = RegionLayout::Whole.build(5, 5);
        assert_eq!(map.island_count(), 1);
        assert!(map.assignments().iter().all(|&i| i == 0));
        assert_eq!(map.node_counts(), &[25]);
    }

    #[test]
    fn per_row_and_per_column_split_along_the_right_axis() {
        let rows = RegionLayout::PerRow.build(4, 3);
        assert_eq!(rows.island_count(), 3);
        // Nodes 0..4 are row 0.
        assert!((0..4).all(|n| rows.island_of(n) == 0));
        assert!((8..12).all(|n| rows.island_of(n) == 2));
        let cols = RegionLayout::PerColumn.build(4, 3);
        assert_eq!(cols.island_count(), 4);
        assert_eq!(cols.island_of(0), 0);
        assert_eq!(cols.island_of(5), 1);
        assert_eq!(cols.island_of(11), 3);
    }

    #[test]
    fn quadrants_are_non_empty_on_odd_grids() {
        for (w, h) in [(2, 2), (5, 5), (5, 4), (3, 7)] {
            let map = RegionLayout::Quadrants.build(w, h);
            assert_eq!(map.island_count(), 4);
            assert!(map.node_counts().iter().all(|&c| c > 0), "{w}x{h} has an empty quadrant");
            assert_eq!(map.node_counts().iter().sum::<usize>(), w * h);
        }
        // On 5x5 the extra row/column joins the low-indexed half: the
        // top-left quadrant is 3x3.
        let map = RegionLayout::Quadrants.build(5, 5);
        assert_eq!(map.node_counts()[0], 9);
    }

    #[test]
    fn custom_maps_are_validated() {
        assert!(RegionMap::custom(vec![0, 1, 0, 1], 4).is_ok());
        assert_eq!(
            RegionMap::custom(vec![0, 1, 0], 4),
            Err(ConfigError::RegionMapWrongLength { expected: 4, got: 3 })
        );
        assert_eq!(
            RegionMap::custom(vec![0, 2, 0, 2], 4),
            Err(ConfigError::RegionIdsNotContiguous { island_count: 3, missing: 1 })
        );
    }

    #[test]
    fn huge_island_ids_are_rejected_without_allocating_for_them() {
        // An id that could never be contiguous must come back as a clean
        // error (and must not size any allocation by the id value).
        assert_eq!(
            RegionMap::custom(vec![0, 0, 0, u32::MAX], 4),
            Err(ConfigError::RegionIdsNotContiguous {
                island_count: u32::MAX as usize + 1,
                missing: 1,
            })
        );
        // All ids out of range: the smallest missing id is 0.
        assert_eq!(
            RegionMap::custom(vec![9, 9, 9, 9], 4),
            Err(ConfigError::RegionIdsNotContiguous { island_count: 10, missing: 0 })
        );
    }

    #[test]
    fn nodes_of_inverts_island_of() {
        let map = RegionLayout::Quadrants.build(4, 4);
        let mut seen = 0;
        for island in 0..map.island_count() as u32 {
            let nodes = map.nodes_of(island);
            assert_eq!(nodes.len(), map.node_counts()[island as usize]);
            assert!(nodes.iter().all(|&n| map.island_of(n) == island));
            seen += nodes.len();
        }
        assert_eq!(seen, 16);
    }

    #[test]
    fn word_masks_partition_the_node_set() {
        let map = RegionLayout::PerRow.build(9, 9); // 81 nodes: two words
        let masks = map.word_masks();
        assert_eq!(masks.len(), 9);
        let mut union = [0u64; 2];
        for mask in &masks {
            assert_eq!(mask.len(), 2);
            for (w, &m) in mask.iter().enumerate() {
                assert_eq!(union[w] & m, 0, "islands must not overlap");
                union[w] |= m;
            }
        }
        assert_eq!(union[0], u64::MAX);
        assert_eq!(union[1], (1u64 << (81 - 64)) - 1);
    }

    #[test]
    fn scheme_round_trips_layouts_and_customs() {
        let scheme: RegionScheme = RegionLayout::Quadrants.into();
        assert_eq!(scheme.name(), "quadrants");
        assert_eq!(scheme.build(4, 4).unwrap(), RegionLayout::Quadrants.build(4, 4));
        let custom = RegionScheme::Custom(vec![1, 0, 1, 0]);
        assert_eq!(custom.name(), "custom");
        assert_eq!(custom.build(2, 2).unwrap().island_count(), 2);
        assert!(custom.build(3, 2).is_err());
        assert_eq!(RegionScheme::default(), RegionScheme::Layout(RegionLayout::Whole));
    }

    #[test]
    fn layout_island_counts_match_their_maps() {
        for layout in RegionLayout::ALL {
            for (w, h) in [(2, 2), (4, 4), (5, 3)] {
                assert_eq!(
                    layout.island_count(w, h),
                    layout.build(w, h).island_count(),
                    "{} on {w}x{h}",
                    layout.name()
                );
            }
        }
    }
}
