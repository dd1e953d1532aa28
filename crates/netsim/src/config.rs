//! Network configuration and its builder.
//!
//! [`NetworkConfig`] captures every micro-architectural parameter varied in the
//! paper's sensitivity analysis (Fig. 8): mesh size, number of virtual
//! channels, buffer depth per virtual channel, and packet size; plus the
//! frequency range of the NoC clock and the fixed node-clock frequency.

use crate::error::ConfigError;
use crate::fault::FaultConfig;
use crate::gating::GatingConfig;
use crate::region::{RegionMap, RegionScheme};
use crate::routing::RoutingKind;
use crate::snapshot::SnapWriter;
use crate::topology::{Topology, TopologyKind};
use crate::traffic::{SyntheticTraffic, TrafficPattern};
use crate::units::Hertz;

/// Default node clock frequency used throughout the paper (1 GHz).
pub const DEFAULT_NODE_FREQUENCY_HZ: f64 = 1.0e9;
/// Default minimum NoC frequency (333 MHz), the low end of the DVFS range.
pub const DEFAULT_MIN_FREQUENCY_HZ: f64 = 333.0e6;
/// Default maximum NoC frequency (1 GHz), the high end of the DVFS range.
pub const DEFAULT_MAX_FREQUENCY_HZ: f64 = 1.0e9;
/// Largest accepted link/credit latency in NoC cycles. The sparse simulation
/// core keeps a timing-wheel slot per latency cycle, so latencies must be
/// bounded; the builder clamps to this value.
pub const MAX_CHANNEL_LATENCY: u64 = 4096;

/// Full configuration of a simulated NoC.
///
/// Construct one through [`NetworkConfig::builder`]; the builder validates the
/// parameters so that an existing `NetworkConfig` is always usable.
///
/// ```
/// use noc_sim::NetworkConfig;
///
/// # fn main() -> Result<(), noc_sim::ConfigError> {
/// let cfg = NetworkConfig::builder()
///     .mesh(5, 5)
///     .virtual_channels(8)
///     .buffer_depth(4)
///     .packet_length(20)
///     .build()?;
/// assert_eq!(cfg.node_count(), 25);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkConfig {
    topology: TopologyKind,
    width: usize,
    height: usize,
    virtual_channels: usize,
    buffer_depth: usize,
    packet_length: usize,
    link_latency: u64,
    credit_latency: u64,
    node_frequency_hz: f64,
    min_frequency_hz: f64,
    max_frequency_hz: f64,
    regions: RegionScheme,
    gating: GatingConfig,
    routing: RoutingKind,
    faults: FaultConfig,
}

impl NetworkConfig {
    /// Starts building a configuration with the paper's default parameters
    /// (5×5 mesh, 8 VCs, 4 buffers per VC, 20-flit packets, 1 GHz node clock,
    /// NoC clock range 333 MHz – 1 GHz).
    pub fn builder() -> NetworkConfigBuilder {
        NetworkConfigBuilder::new()
    }

    /// The configuration used for the paper's baseline experiments
    /// (Figs. 2, 4 and 6): 5×5 mesh, 8 VCs, 4 buffers per VC, 20-flit packets.
    pub fn paper_baseline() -> NetworkConfig {
        NetworkConfig::builder().build().expect("paper baseline configuration is valid")
    }

    /// Whether the grid is an open mesh or a wrap-around torus.
    pub fn topology_kind(&self) -> TopologyKind {
        self.topology
    }

    /// The grid described by this configuration.
    pub fn topology(&self) -> Topology {
        Topology::with_kind(self.topology, self.width, self.height)
    }

    /// Mesh width (number of columns).
    pub fn width(&self) -> usize {
        self.width
    }

    /// Mesh height (number of rows).
    pub fn height(&self) -> usize {
        self.height
    }

    /// Total number of nodes (`width × height`).
    pub fn node_count(&self) -> usize {
        self.width * self.height
    }

    /// Number of virtual channels per input port.
    pub fn virtual_channels(&self) -> usize {
        self.virtual_channels
    }

    /// Buffer depth (in flits) of each virtual channel.
    pub fn buffer_depth(&self) -> usize {
        self.buffer_depth
    }

    /// Number of flits per packet.
    pub fn packet_length(&self) -> usize {
        self.packet_length
    }

    /// Link traversal latency in NoC cycles.
    pub fn link_latency(&self) -> u64 {
        self.link_latency
    }

    /// Credit return latency in NoC cycles.
    pub fn credit_latency(&self) -> u64 {
        self.credit_latency
    }

    /// Checks that a synthetic traffic pattern is well-defined on this
    /// configuration's grid.
    ///
    /// # Errors
    ///
    /// Returns the same rejections as [`TrafficPattern::validate_for`]:
    /// transpose on a non-square grid, bit permutations on a non-power-of-two
    /// node count.
    pub fn validate_pattern(&self, pattern: TrafficPattern) -> Result<(), ConfigError> {
        pattern.validate_for(&self.topology())
    }

    /// Builds a validated Bernoulli source for `pattern` at `injection_rate`
    /// flits per node cycle, using this configuration's packet length.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] when the pattern is undefined on this grid
    /// (see [`validate_pattern`](Self::validate_pattern)) — the checked
    /// alternative to constructing a [`SyntheticTraffic`] directly and
    /// hitting a silent no-inject or a runtime panic later.
    pub fn synthetic_traffic(
        &self,
        pattern: TrafficPattern,
        injection_rate: f64,
    ) -> Result<SyntheticTraffic, ConfigError> {
        self.validate_pattern(pattern)?;
        Ok(SyntheticTraffic::new(pattern, injection_rate, self.packet_length))
    }

    /// How the network is partitioned into voltage-frequency islands
    /// (the default is one island spanning the whole NoC).
    pub fn regions(&self) -> &RegionScheme {
        &self.regions
    }

    /// The power-gating parameters (disabled by default, in which case the
    /// gating machinery is a structural no-op in the simulator).
    pub fn gating(&self) -> &GatingConfig {
        &self.gating
    }

    /// The routing algorithm (dimension-ordered XY by default).
    pub fn routing(&self) -> RoutingKind {
        self.routing
    }

    /// The fault-injection configuration (no faults by default, in which
    /// case the fault machinery is a structural no-op in the simulator).
    pub fn faults(&self) -> &FaultConfig {
        &self.faults
    }

    /// The resolved `node → island` partition described by
    /// [`regions`](Self::regions).
    ///
    /// # Panics
    ///
    /// [`NetworkConfigBuilder::build`] validates the scheme, so this cannot
    /// fail for builder-made configurations. It panics only if a config was
    /// materialized behind the builder's back (e.g. deserialized from an
    /// untrusted source) with a custom map that skips validation.
    pub fn region_map(&self) -> RegionMap {
        self.regions
            .build(self.width, self.height)
            .expect("region scheme was validated by the config builder")
    }

    /// A builder pre-loaded with this configuration's values (for deriving
    /// variants, e.g. the same micro-architecture on a different topology).
    pub fn to_builder(&self) -> NetworkConfigBuilder {
        NetworkConfigBuilder {
            topology: self.topology,
            width: self.width,
            height: self.height,
            virtual_channels: self.virtual_channels,
            buffer_depth: self.buffer_depth,
            packet_length: self.packet_length,
            link_latency: self.link_latency,
            credit_latency: self.credit_latency,
            node_frequency_hz: self.node_frequency_hz,
            min_frequency_hz: self.min_frequency_hz,
            max_frequency_hz: self.max_frequency_hz,
            regions: self.regions.clone(),
            gating: self.gating.clone(),
            routing: self.routing,
            faults: self.faults.clone(),
        }
    }

    /// Writes every field in declaration order: the bytes the snapshot
    /// header's configuration fingerprint hashes. The destructuring is
    /// exhaustive, so a new field does not compile until it is written here.
    pub(crate) fn encode_fields(&self, w: &mut SnapWriter) {
        let NetworkConfig {
            topology,
            width,
            height,
            virtual_channels,
            buffer_depth,
            packet_length,
            link_latency,
            credit_latency,
            node_frequency_hz,
            min_frequency_hz,
            max_frequency_hz,
            regions,
            gating,
            routing,
            faults,
        } = self;
        w.put_u8(match topology {
            TopologyKind::Mesh => 0,
            TopologyKind::Torus => 1,
        });
        for size in [width, height, virtual_channels, buffer_depth, packet_length] {
            w.put_usize(*size);
        }
        w.put_u64(*link_latency);
        w.put_u64(*credit_latency);
        for hz in [node_frequency_hz, min_frequency_hz, max_frequency_hz] {
            w.put_f64(*hz);
        }
        regions.encode_fields(w);
        gating.encode_fields(w);
        w.put_u8(match routing {
            RoutingKind::Xy => 0,
            RoutingKind::Yx => 1,
            RoutingKind::MinimalAdaptive => 2,
        });
        faults.encode_fields(w);
    }

    /// Fixed frequency of the injecting nodes.
    pub fn node_frequency(&self) -> Hertz {
        Hertz::new(self.node_frequency_hz)
    }

    /// Lower bound of the NoC clock frequency range.
    pub fn min_frequency(&self) -> Hertz {
        Hertz::new(self.min_frequency_hz)
    }

    /// Upper bound of the NoC clock frequency range.
    pub fn max_frequency(&self) -> Hertz {
        Hertz::new(self.max_frequency_hz)
    }
}

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig::paper_baseline()
    }
}

/// Builder for [`NetworkConfig`].
#[derive(Debug, Clone)]
pub struct NetworkConfigBuilder {
    topology: TopologyKind,
    width: usize,
    height: usize,
    virtual_channels: usize,
    buffer_depth: usize,
    packet_length: usize,
    link_latency: u64,
    credit_latency: u64,
    node_frequency_hz: f64,
    min_frequency_hz: f64,
    max_frequency_hz: f64,
    regions: RegionScheme,
    gating: GatingConfig,
    routing: RoutingKind,
    faults: FaultConfig,
}

impl NetworkConfigBuilder {
    /// Creates a builder pre-loaded with the paper's baseline parameters.
    pub fn new() -> Self {
        NetworkConfigBuilder {
            topology: TopologyKind::Mesh,
            width: 5,
            height: 5,
            virtual_channels: 8,
            buffer_depth: 4,
            packet_length: 20,
            link_latency: 1,
            credit_latency: 1,
            node_frequency_hz: DEFAULT_NODE_FREQUENCY_HZ,
            min_frequency_hz: DEFAULT_MIN_FREQUENCY_HZ,
            max_frequency_hz: DEFAULT_MAX_FREQUENCY_HZ,
            regions: RegionScheme::default(),
            gating: GatingConfig::disabled(),
            routing: RoutingKind::default(),
            faults: FaultConfig::none(),
        }
    }

    /// Sets an open-mesh grid of the given dimensions (columns × rows).
    pub fn mesh(mut self, width: usize, height: usize) -> Self {
        self.topology = TopologyKind::Mesh;
        self.width = width;
        self.height = height;
        self
    }

    /// Sets a wrap-around torus grid of the given dimensions.
    pub fn torus(mut self, width: usize, height: usize) -> Self {
        self.topology = TopologyKind::Torus;
        self.width = width;
        self.height = height;
        self
    }

    /// Sets the topology kind, keeping the current dimensions.
    pub fn topology(mut self, kind: TopologyKind) -> Self {
        self.topology = kind;
        self
    }

    /// Sets the number of virtual channels per input port.
    pub fn virtual_channels(mut self, vcs: usize) -> Self {
        self.virtual_channels = vcs;
        self
    }

    /// Sets the buffer depth (flits) of each virtual channel.
    pub fn buffer_depth(mut self, depth: usize) -> Self {
        self.buffer_depth = depth;
        self
    }

    /// Sets the packet length in flits.
    pub fn packet_length(mut self, flits: usize) -> Self {
        self.packet_length = flits;
        self
    }

    /// Sets the link traversal latency in NoC cycles (default 1).
    ///
    /// Clamped to `1..=MAX_CHANNEL_LATENCY`, mirroring the existing
    /// clamp-to-one convention: the simulator's timing wheels allocate
    /// one slot per latency cycle, so the latency must be bounded (4096
    /// cycles is orders of magnitude beyond any physical link).
    pub fn link_latency(mut self, cycles: u64) -> Self {
        self.link_latency = cycles.clamp(1, MAX_CHANNEL_LATENCY);
        self
    }

    /// Sets the credit return latency in NoC cycles (default 1).
    ///
    /// Clamped to `1..=MAX_CHANNEL_LATENCY` (4096; see
    /// [`link_latency`](Self::link_latency)).
    pub fn credit_latency(mut self, cycles: u64) -> Self {
        self.credit_latency = cycles.clamp(1, MAX_CHANNEL_LATENCY);
        self
    }

    /// Sets the fixed node clock frequency.
    pub fn node_frequency(mut self, f: Hertz) -> Self {
        self.node_frequency_hz = f.as_hz();
        self
    }

    /// Sets the NoC clock frequency range available to the DVFS controller.
    pub fn frequency_range(mut self, min: Hertz, max: Hertz) -> Self {
        self.min_frequency_hz = min.as_hz();
        self.max_frequency_hz = max.as_hz();
        self
    }

    /// Partitions the network into voltage-frequency islands (default: one
    /// island spanning the whole NoC, i.e. global DVFS).
    ///
    /// Accepts a named [`RegionLayout`](crate::RegionLayout) or a full
    /// [`RegionScheme`] (for custom `node → island` maps); custom maps are
    /// validated by [`build`](Self::build).
    pub fn regions(mut self, regions: impl Into<RegionScheme>) -> Self {
        self.regions = regions.into();
        self
    }

    /// Sets the power-gating parameters (default:
    /// [`GatingConfig::disabled`]). Per-island overrides are validated
    /// against the island partition by [`build`](Self::build).
    pub fn gating(mut self, gating: GatingConfig) -> Self {
        self.gating = gating;
        self
    }

    /// Sets the routing algorithm (default: [`RoutingKind::Xy`]).
    /// [`RoutingKind::MinimalAdaptive`] requires at least two virtual
    /// channels, checked by [`build`](Self::build).
    pub fn routing(mut self, routing: RoutingKind) -> Self {
        self.routing = routing;
        self
    }

    /// Sets the fault-injection configuration (default:
    /// [`FaultConfig::none`]). Scheduled targets and hazard rates are
    /// validated against the topology by [`build`](Self::build).
    pub fn faults(mut self, faults: FaultConfig) -> Self {
        self.faults = faults;
        self
    }

    /// Validates the parameters and produces the configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if the mesh is smaller than 2×2, there are no
    /// virtual channels or buffer slots, packets are empty, or the frequency
    /// range is inverted.
    pub fn build(self) -> Result<NetworkConfig, ConfigError> {
        if self.width < 2 || self.height < 2 {
            return Err(ConfigError::MeshTooSmall { width: self.width, height: self.height });
        }
        if self.virtual_channels == 0 {
            return Err(ConfigError::NoVirtualChannels);
        }
        if self.buffer_depth == 0 {
            return Err(ConfigError::NoBufferSlots);
        }
        if self.packet_length == 0 {
            return Err(ConfigError::EmptyPacket);
        }
        if self.topology == TopologyKind::Torus && self.virtual_channels < 2 {
            return Err(ConfigError::TorusNeedsVcClasses {
                virtual_channels: self.virtual_channels,
            });
        }
        if self.routing == RoutingKind::MinimalAdaptive && self.virtual_channels < 2 {
            return Err(ConfigError::AdaptiveNeedsVcClasses {
                virtual_channels: self.virtual_channels,
            });
        }
        self.faults.validate(&Topology::with_kind(self.topology, self.width, self.height))?;
        if self.min_frequency_hz > self.max_frequency_hz {
            return Err(ConfigError::InvalidFrequencyRange {
                min_hz: self.min_frequency_hz,
                max_hz: self.max_frequency_hz,
            });
        }
        // Resolve once to validate custom maps (length, contiguous ids).
        self.regions.build(self.width, self.height)?;
        Ok(NetworkConfig {
            topology: self.topology,
            width: self.width,
            height: self.height,
            virtual_channels: self.virtual_channels,
            buffer_depth: self.buffer_depth,
            packet_length: self.packet_length,
            link_latency: self.link_latency,
            credit_latency: self.credit_latency,
            node_frequency_hz: self.node_frequency_hz,
            min_frequency_hz: self.min_frequency_hz,
            max_frequency_hz: self.max_frequency_hz,
            regions: self.regions,
            gating: self.gating,
            routing: self.routing,
            faults: self.faults,
        })
    }
}

impl Default for NetworkConfigBuilder {
    fn default() -> Self {
        NetworkConfigBuilder::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_baseline_matches_section_iii() {
        let cfg = NetworkConfig::paper_baseline();
        assert_eq!(cfg.width(), 5);
        assert_eq!(cfg.height(), 5);
        assert_eq!(cfg.virtual_channels(), 8);
        assert_eq!(cfg.buffer_depth(), 4);
        assert_eq!(cfg.packet_length(), 20);
        assert_eq!(cfg.node_frequency().as_ghz(), 1.0);
        assert_eq!(cfg.min_frequency().as_mhz(), 333.0);
        assert_eq!(cfg.max_frequency().as_ghz(), 1.0);
    }

    #[test]
    fn default_equals_paper_baseline() {
        assert_eq!(NetworkConfig::default(), NetworkConfig::paper_baseline());
    }

    #[test]
    fn builder_rejects_tiny_mesh() {
        let err = NetworkConfig::builder().mesh(1, 4).build().unwrap_err();
        assert_eq!(err, ConfigError::MeshTooSmall { width: 1, height: 4 });
    }

    #[test]
    fn builder_rejects_zero_vcs() {
        let err = NetworkConfig::builder().virtual_channels(0).build().unwrap_err();
        assert_eq!(err, ConfigError::NoVirtualChannels);
    }

    #[test]
    fn builder_rejects_zero_buffers() {
        let err = NetworkConfig::builder().buffer_depth(0).build().unwrap_err();
        assert_eq!(err, ConfigError::NoBufferSlots);
    }

    #[test]
    fn builder_rejects_empty_packets() {
        let err = NetworkConfig::builder().packet_length(0).build().unwrap_err();
        assert_eq!(err, ConfigError::EmptyPacket);
    }

    #[test]
    fn builder_rejects_inverted_frequency_range() {
        let err = NetworkConfig::builder()
            .frequency_range(Hertz::from_ghz(2.0), Hertz::from_ghz(1.0))
            .build()
            .unwrap_err();
        assert!(matches!(err, ConfigError::InvalidFrequencyRange { .. }));
    }

    #[test]
    fn builder_customization_sticks() {
        let cfg = NetworkConfig::builder()
            .mesh(8, 8)
            .virtual_channels(2)
            .buffer_depth(16)
            .packet_length(10)
            .link_latency(2)
            .credit_latency(3)
            .node_frequency(Hertz::from_ghz(2.0))
            .frequency_range(Hertz::from_mhz(250.0), Hertz::from_ghz(2.0))
            .build()
            .unwrap();
        assert_eq!(cfg.node_count(), 64);
        assert_eq!(cfg.virtual_channels(), 2);
        assert_eq!(cfg.buffer_depth(), 16);
        assert_eq!(cfg.packet_length(), 10);
        assert_eq!(cfg.link_latency(), 2);
        assert_eq!(cfg.credit_latency(), 3);
        assert_eq!(cfg.node_frequency().as_ghz(), 2.0);
        assert_eq!(cfg.min_frequency().as_mhz(), 250.0);
    }

    #[test]
    fn link_latency_never_below_one() {
        let cfg = NetworkConfig::builder().link_latency(0).credit_latency(0).build().unwrap();
        assert_eq!(cfg.link_latency(), 1);
        assert_eq!(cfg.credit_latency(), 1);
    }

    #[test]
    fn channel_latencies_are_clamped_to_the_due_list_bound() {
        // The sparse core allocates one due-list slot per latency cycle, so
        // absurd latencies are clamped instead of exhausting memory at
        // simulation construction.
        let cfg = NetworkConfig::builder()
            .link_latency(u64::MAX)
            .credit_latency(1 << 40)
            .build()
            .unwrap();
        assert_eq!(cfg.link_latency(), MAX_CHANNEL_LATENCY);
        assert_eq!(cfg.credit_latency(), MAX_CHANNEL_LATENCY);
    }

    #[test]
    fn torus_builder_produces_a_torus_topology() {
        let cfg = NetworkConfig::builder().torus(4, 4).build().unwrap();
        assert_eq!(cfg.topology_kind(), TopologyKind::Torus);
        assert!(cfg.topology().is_torus());
        assert_eq!(cfg.topology().node_count(), 16);
        // `.mesh` resets the kind; `.topology` flips it back in place.
        let cfg = NetworkConfig::builder().torus(4, 4).mesh(4, 4).build().unwrap();
        assert_eq!(cfg.topology_kind(), TopologyKind::Mesh);
        let cfg =
            NetworkConfig::builder().mesh(4, 4).topology(TopologyKind::Torus).build().unwrap();
        assert!(cfg.topology().is_torus());
    }

    #[test]
    fn builder_rejects_torus_without_vc_classes() {
        let err = NetworkConfig::builder().torus(4, 4).virtual_channels(1).build().unwrap_err();
        assert_eq!(err, ConfigError::TorusNeedsVcClasses { virtual_channels: 1 });
        // The same single-VC configuration is fine on a mesh.
        assert!(NetworkConfig::builder().mesh(4, 4).virtual_channels(1).build().is_ok());
    }

    #[test]
    fn pattern_validation_surfaces_config_errors() {
        use crate::traffic::TrafficPattern;
        let rect = NetworkConfig::builder().mesh(5, 4).build().unwrap();
        assert_eq!(
            rect.validate_pattern(TrafficPattern::Transpose),
            Err(ConfigError::PatternNeedsSquare { pattern: "transpose", width: 5, height: 4 })
        );
        assert!(rect.validate_pattern(TrafficPattern::Uniform).is_ok());
        let five = NetworkConfig::paper_baseline();
        assert_eq!(
            five.validate_pattern(TrafficPattern::Shuffle),
            Err(ConfigError::PatternNeedsPowerOfTwoNodes { pattern: "shuffle", nodes: 25 })
        );
        assert_eq!(
            five.validate_pattern(TrafficPattern::BitReverse),
            Err(ConfigError::PatternNeedsPowerOfTwoNodes { pattern: "bitrev", nodes: 25 })
        );
        let square = NetworkConfig::builder().mesh(4, 4).build().unwrap();
        for pattern in TrafficPattern::ALL {
            assert!(square.validate_pattern(pattern).is_ok(), "{} on 4x4", pattern.name());
        }
    }

    #[test]
    fn synthetic_traffic_constructor_checks_the_pattern() {
        use crate::traffic::TrafficPattern;
        let rect = NetworkConfig::builder().mesh(5, 4).build().unwrap();
        assert!(rect.synthetic_traffic(TrafficPattern::Transpose, 0.1).is_err());
        let ok = rect.synthetic_traffic(TrafficPattern::Hotspot, 0.1).unwrap();
        assert_eq!(ok.pattern(), TrafficPattern::Hotspot);
        assert_eq!(ok.injection_rate(), 0.1);
    }

    #[test]
    fn to_builder_round_trips_every_field() {
        let cfg = NetworkConfig::builder()
            .torus(6, 3)
            .virtual_channels(4)
            .buffer_depth(8)
            .packet_length(10)
            .link_latency(2)
            .credit_latency(3)
            .node_frequency(Hertz::from_ghz(2.0))
            .frequency_range(Hertz::from_mhz(250.0), Hertz::from_ghz(2.0))
            .build()
            .unwrap();
        assert_eq!(cfg.to_builder().build().unwrap(), cfg);
    }

    #[test]
    fn regions_default_to_a_single_island_and_round_trip() {
        use crate::region::{RegionLayout, RegionScheme};
        let cfg = NetworkConfig::paper_baseline();
        assert_eq!(cfg.regions(), &RegionScheme::Layout(RegionLayout::Whole));
        assert_eq!(cfg.region_map().island_count(), 1);
        let cfg = NetworkConfig::builder()
            .mesh(4, 4)
            .regions(RegionLayout::Quadrants)
            .build()
            .unwrap();
        assert_eq!(cfg.region_map().island_count(), 4);
        assert_eq!(cfg.to_builder().build().unwrap(), cfg);
    }

    #[test]
    fn builder_rejects_invalid_custom_region_maps() {
        use crate::region::RegionScheme;
        let err = NetworkConfig::builder()
            .mesh(2, 2)
            .regions(RegionScheme::Custom(vec![0, 1, 2]))
            .build()
            .unwrap_err();
        assert_eq!(err, ConfigError::RegionMapWrongLength { expected: 4, got: 3 });
        let err = NetworkConfig::builder()
            .mesh(2, 2)
            .regions(RegionScheme::Custom(vec![0, 0, 3, 3]))
            .build()
            .unwrap_err();
        assert_eq!(err, ConfigError::RegionIdsNotContiguous { island_count: 4, missing: 1 });
        let ok = NetworkConfig::builder()
            .mesh(2, 2)
            .regions(RegionScheme::Custom(vec![1, 0, 1, 0]))
            .build()
            .unwrap();
        assert_eq!(ok.region_map().island_count(), 2);
    }

    #[test]
    fn gating_defaults_to_disabled_and_round_trips() {
        use crate::gating::GatingConfig;
        let cfg = NetworkConfig::paper_baseline();
        assert!(!cfg.gating().is_enabled());
        let cfg = NetworkConfig::builder()
            .mesh(4, 4)
            .gating(GatingConfig::enabled(24, 6))
            .build()
            .unwrap();
        assert!(cfg.gating().is_enabled());
        assert_eq!(cfg.gating().idle_threshold(), 24);
        assert_eq!(cfg.gating().wakeup_latency(), 6);
        assert_eq!(cfg.to_builder().build().unwrap(), cfg);
    }

    #[test]
    fn routing_and_faults_default_to_inert_and_round_trip() {
        use crate::fault::{FaultConfig, FaultEvent, FaultTarget};
        use crate::routing::RoutingKind;
        use crate::topology::Direction;
        let cfg = NetworkConfig::paper_baseline();
        assert_eq!(cfg.routing(), RoutingKind::Xy);
        assert!(!cfg.faults().is_enabled());
        let cfg = NetworkConfig::builder()
            .mesh(4, 4)
            .routing(RoutingKind::MinimalAdaptive)
            .faults(FaultConfig::scheduled(vec![FaultEvent::permanent(
                FaultTarget::Link { node: 5, dir: Direction::East },
                100,
            )]))
            .build()
            .unwrap();
        assert_eq!(cfg.routing(), RoutingKind::MinimalAdaptive);
        assert!(cfg.faults().is_enabled());
        assert_eq!(cfg.to_builder().build().unwrap(), cfg);
    }

    #[test]
    fn builder_rejects_adaptive_without_vc_classes() {
        use crate::routing::RoutingKind;
        let err = NetworkConfig::builder()
            .mesh(4, 4)
            .virtual_channels(1)
            .routing(RoutingKind::MinimalAdaptive)
            .build()
            .unwrap_err();
        assert_eq!(err, ConfigError::AdaptiveNeedsVcClasses { virtual_channels: 1 });
        // Two VCs are enough, and dimension-ordered routing never needs them.
        assert!(NetworkConfig::builder()
            .mesh(4, 4)
            .virtual_channels(2)
            .routing(RoutingKind::MinimalAdaptive)
            .build()
            .is_ok());
        assert!(NetworkConfig::builder()
            .mesh(4, 4)
            .virtual_channels(1)
            .routing(RoutingKind::Yx)
            .build()
            .is_ok());
    }

    #[test]
    fn builder_validates_the_fault_schedule_against_the_topology() {
        use crate::fault::{FaultConfig, FaultEvent, FaultTarget};
        use crate::topology::Direction;
        // Node 3 is the top-right corner of a 4x4 mesh: no East link.
        let faults = FaultConfig::scheduled(vec![FaultEvent::permanent(
            FaultTarget::Link { node: 3, dir: Direction::East },
            0,
        )]);
        let err =
            NetworkConfig::builder().mesh(4, 4).faults(faults.clone()).build().unwrap_err();
        assert_eq!(err, ConfigError::FaultLinkMissing { node: 3, dir: Direction::East });
        // The same link exists once the grid wraps around.
        assert!(NetworkConfig::builder().torus(4, 4).faults(faults).build().is_ok());
    }

    /// The snapshot header's fingerprint is a function of every field and of
    /// nothing else: each of the fifteen, changed alone, changes it — down to
    /// one entry of a custom region map, one field of a scheduled fault and
    /// one hazard rate — and a configuration rebuilt through its builder
    /// keeps it. The baseline's value is pinned: re-ordering or re-typing
    /// the encoding would silently refuse every snapshot on disk.
    #[test]
    fn every_field_reaches_the_fingerprint() {
        use crate::fault::{FaultConfig, FaultEvent, FaultTarget, HazardConfig};
        use crate::gating::GatingConfig;
        use crate::region::{RegionLayout, RegionScheme};
        use crate::routing::RoutingKind;
        use crate::snapshot::config_fingerprint;
        use crate::topology::Direction;
        let quadrants = |last: u32| {
            RegionScheme::Custom(vec![0, 0, 1, 1, 0, 0, 1, 1, 2, 2, 3, 3, 2, 2, 3, last])
        };
        let faults = |at_cycle: u64, link_rate: f64| {
            let link = FaultTarget::Link { node: 5, dir: Direction::East };
            FaultConfig::scheduled(vec![FaultEvent::transient(link, at_cycle, 50)]).with_hazard(
                HazardConfig { link_rate, ..HazardConfig::transient(1e-4, 1e-5, 120) },
            )
        };
        let base = NetworkConfig::builder()
            .mesh(4, 4)
            .virtual_channels(2)
            .regions(quadrants(3))
            .gating(GatingConfig::enabled(24, 8))
            .faults(faults(100, 1e-4))
            .build()
            .unwrap();
        type Change<'a> = &'a dyn Fn(&mut NetworkConfig);
        let changes: [(&str, Change); 21] = [
            ("topology", &|c| c.topology = TopologyKind::Torus),
            ("width", &|c| c.width = 5),
            ("height", &|c| c.height = 5),
            ("virtual_channels", &|c| c.virtual_channels = 3),
            ("buffer_depth", &|c| c.buffer_depth = 5),
            ("packet_length", &|c| c.packet_length = 21),
            ("link_latency", &|c| c.link_latency = 2),
            ("credit_latency", &|c| c.credit_latency = 2),
            ("node_frequency_hz", &|c| c.node_frequency_hz = 2.0e9),
            ("min_frequency_hz", &|c| c.min_frequency_hz = 250.0e6),
            ("max_frequency_hz", &|c| c.max_frequency_hz = 2.0e9),
            ("regions: one entry of a custom map", &|c| c.regions = quadrants(2)),
            ("regions: a layout for a custom map", &|c| c.regions = RegionLayout::Quadrants.into()),
            ("gating: the switch", &|c| c.gating = GatingConfig::disabled()),
            ("gating: the idle threshold", &|c| c.gating = GatingConfig::enabled(25, 8)),
            ("gating: the wakeup latency", &|c| c.gating = GatingConfig::enabled(24, 9)),
            ("routing", &|c| c.routing = RoutingKind::Yx),
            ("faults: one field of a scheduled event", &|c| c.faults = faults(101, 1e-4)),
            ("faults: one hazard rate", &|c| c.faults = faults(100, 2e-4)),
            ("faults: no hazard", &|c| {
                c.faults = FaultConfig::scheduled(c.faults.schedule().to_vec());
            }),
            ("faults: none", &|c| c.faults = FaultConfig::none()),
        ];
        let mut seen = vec![config_fingerprint(&base)];
        for (field, change) in changes {
            let mut changed = base.clone();
            change(&mut changed);
            let fingerprint = config_fingerprint(&changed);
            assert!(!seen.contains(&fingerprint), "{field} does not reach the fingerprint");
            seen.push(fingerprint);
        }
        assert_eq!(config_fingerprint(&base.to_builder().build().unwrap()), seen[0]);
        assert_eq!(config_fingerprint(&NetworkConfig::paper_baseline()), 0x29C1_BF2D_043B_7982);
    }

    #[test]
    fn config_is_send_and_sync() {
        fn assert_traits<T: Send + Sync>() {}
        assert_traits::<NetworkConfig>();
    }
}
