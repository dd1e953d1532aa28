//! Error types for the simulator.

use crate::topology::Direction;
use std::error::Error;
use std::fmt;

/// An invalid [`NetworkConfig`](crate::NetworkConfig) was requested.
///
/// Returned by [`NetworkConfigBuilder::build`](crate::NetworkConfigBuilder::build)
/// when the requested parameters cannot describe a functioning network.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// The mesh must have at least 2 nodes in each dimension.
    MeshTooSmall {
        /// Requested width.
        width: usize,
        /// Requested height.
        height: usize,
    },
    /// At least one virtual channel per port is required.
    NoVirtualChannels,
    /// Each virtual channel needs at least one buffer slot.
    NoBufferSlots,
    /// Packets must carry at least one flit.
    EmptyPacket,
    /// The maximum frequency must not be below the minimum frequency.
    InvalidFrequencyRange {
        /// Minimum frequency in Hz.
        min_hz: f64,
        /// Maximum frequency in Hz.
        max_hz: f64,
    },
    /// A torus needs at least two virtual channels per port so that the
    /// dateline deadlock-avoidance scheme has two VC classes to work with.
    TorusNeedsVcClasses {
        /// The requested number of virtual channels.
        virtual_channels: usize,
    },
    /// The traffic pattern is only defined on square grids.
    PatternNeedsSquare {
        /// Short name of the offending pattern.
        pattern: &'static str,
        /// Requested width.
        width: usize,
        /// Requested height.
        height: usize,
    },
    /// The traffic pattern is a bit permutation and needs a power-of-two node
    /// count.
    PatternNeedsPowerOfTwoNodes {
        /// Short name of the offending pattern.
        pattern: &'static str,
        /// The requested node count.
        nodes: usize,
    },
    /// A custom voltage-frequency island map must assign every node exactly
    /// once.
    RegionMapWrongLength {
        /// Node count of the grid.
        expected: usize,
        /// Length of the supplied assignment vector.
        got: usize,
    },
    /// Island ids of a custom region map must be contiguous from zero (every
    /// id below the maximum assigned id must own at least one node).
    RegionIdsNotContiguous {
        /// Number of islands implied by the largest assigned id.
        island_count: usize,
        /// The smallest id that owns no node.
        missing: u32,
    },
    /// A scheduled fault targets a node beyond the grid.
    FaultNodeOutOfRange {
        /// The node named by the fault.
        node: usize,
        /// Number of nodes in the grid.
        nodes: usize,
    },
    /// A scheduled link fault names a link the topology does not have
    /// (a local "link", or an off-grid direction on a mesh).
    FaultLinkMissing {
        /// The endpoint named by the fault.
        node: usize,
        /// The missing direction.
        dir: Direction,
    },
    /// Transient faults must last at least one cycle.
    ZeroFaultDuration,
    /// Hazard probabilities must lie in `[0, 1]`.
    FaultRateOutOfRange {
        /// The offending rate.
        rate: f64,
    },
    /// Minimal-adaptive routing needs at least two virtual channels per port
    /// so that the escape VC class (dimension-ordered, deadlock-free) and
    /// the adaptive class are disjoint.
    AdaptiveNeedsVcClasses {
        /// The requested number of virtual channels.
        virtual_channels: usize,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::MeshTooSmall { width, height } => {
                write!(f, "mesh of {width}x{height} is too small, need at least 2x2")
            }
            ConfigError::NoVirtualChannels => write!(f, "at least one virtual channel is required"),
            ConfigError::NoBufferSlots => {
                write!(f, "each virtual channel needs at least one buffer slot")
            }
            ConfigError::EmptyPacket => write!(f, "packets must carry at least one flit"),
            ConfigError::InvalidFrequencyRange { min_hz, max_hz } => {
                write!(f, "invalid frequency range: min {min_hz} Hz exceeds max {max_hz} Hz")
            }
            ConfigError::TorusNeedsVcClasses { virtual_channels } => write!(
                f,
                "a torus needs at least 2 virtual channels for dateline deadlock \
                 avoidance, got {virtual_channels}"
            ),
            ConfigError::PatternNeedsSquare { pattern, width, height } => write!(
                f,
                "traffic pattern '{pattern}' is only defined on square grids, got {width}x{height}"
            ),
            ConfigError::PatternNeedsPowerOfTwoNodes { pattern, nodes } => write!(
                f,
                "traffic pattern '{pattern}' needs a power-of-two node count, got {nodes} nodes"
            ),
            ConfigError::RegionMapWrongLength { expected, got } => write!(
                f,
                "region map must assign all {expected} nodes, got {got} assignments"
            ),
            ConfigError::RegionIdsNotContiguous { island_count, missing } => write!(
                f,
                "region map island ids must be contiguous from 0: {island_count} islands \
                 implied but island {missing} owns no node"
            ),
            ConfigError::FaultNodeOutOfRange { node, nodes } => {
                write!(f, "fault targets node {node} but the grid has only {nodes} nodes")
            }
            ConfigError::FaultLinkMissing { node, dir } => {
                write!(f, "fault targets the {dir} link of node {node}, which does not exist")
            }
            ConfigError::ZeroFaultDuration => {
                write!(f, "transient faults must last at least one cycle")
            }
            ConfigError::FaultRateOutOfRange { rate } => {
                write!(f, "fault hazard rate {rate} is outside [0, 1]")
            }
            ConfigError::AdaptiveNeedsVcClasses { virtual_channels } => write!(
                f,
                "minimal-adaptive routing needs at least 2 virtual channels for its escape \
                 class, got {virtual_channels}"
            ),
        }
    }
}

impl Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_informative() {
        let e = ConfigError::MeshTooSmall { width: 1, height: 5 };
        let msg = e.to_string();
        assert!(msg.contains("1x5"));
        assert!(msg.starts_with(char::is_lowercase));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ConfigError>();
    }

    #[test]
    fn pattern_and_torus_messages_name_the_culprit() {
        let e = ConfigError::PatternNeedsSquare { pattern: "transpose", width: 5, height: 4 };
        assert!(e.to_string().contains("transpose"));
        assert!(e.to_string().contains("5x4"));
        let e = ConfigError::PatternNeedsPowerOfTwoNodes { pattern: "shuffle", nodes: 25 };
        assert!(e.to_string().contains("shuffle"));
        assert!(e.to_string().contains("25"));
        let e = ConfigError::TorusNeedsVcClasses { virtual_channels: 1 };
        assert!(e.to_string().contains("dateline"));
    }

    #[test]
    fn frequency_range_message_mentions_both_ends() {
        let e = ConfigError::InvalidFrequencyRange { min_hz: 2.0e9, max_hz: 1.0e9 };
        let msg = e.to_string();
        assert!(msg.contains("2000000000"));
        assert!(msg.contains("1000000000"));
    }
}
