//! Multi-tenant workload composition and per-tenant QoS accounting.
//!
//! The paper evaluates one application per fabric. Real MPSoCs co-locate
//! many: this module maps N application task graphs — the published
//! H.264/VCE encoders or seeded random DAGs
//! ([`noc_apps::random_task_graph`]) — onto disjoint rectangular tiles of
//! one large fabric and runs them **concurrently over shared routers**,
//! with per-tenant QoS ledgers that sum exactly to the global measurement
//! window (the same conservation contract the per-island windows keep).
//!
//! The pieces:
//!
//! * [`TenantWorkload`] — one application graph plus its relative speed;
//! * [`MappingPolicy`] — where each tenant's tile goes
//!   ([`Tiled`](MappingPolicy::Tiled) row packing, or explicit
//!   [`Offsets`](MappingPolicy::Offsets));
//! * [`compose_tenants`] — the composition itself: one fabric-sized
//!   [`MatrixTraffic`] summing every tenant's scaled traffic, plus the
//!   [`TenantMap`] that attributes counted events to slots;
//! * [`run_tenants`] — a fixed-frequency measurement driver producing a
//!   [`TenantReport`]: global window, per-slot windows and per-slot energy
//!   ([`RouterPowerModel::partition_energy`]).

use noc_apps::TaskGraph;
use noc_power::{model::EnergyBreakdown, FdsoiTech, RouterPowerModel};
use noc_sim::{
    MatrixTraffic, NetworkConfig, NocSimulation, TenantMap, TenantMapError, WindowMeasurement,
};
use std::error::Error;
use std::fmt;

/// One tenant: an application task graph (mapped on its own tile) and the
/// relative speed it runs at.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantWorkload {
    /// The application graph, mapped on a `tile_size()` tile.
    pub graph: TaskGraph,
    /// Relative application speed (1.0 ≙ the nominal frame rate).
    pub speed: f64,
}

impl TenantWorkload {
    /// A tenant running at nominal speed.
    pub fn new(graph: TaskGraph) -> Self {
        TenantWorkload { graph, speed: 1.0 }
    }

    /// The `(width, height)` of the tile the graph is mapped on.
    pub fn tile_size(&self) -> (usize, usize) {
        self.graph.mesh_size()
    }
}

/// Where each tenant's tile is placed on the fabric.
#[derive(Debug, Clone, PartialEq)]
pub enum MappingPolicy {
    /// Greedy row packing: tiles go left to right in placement order; when a
    /// tile would cross the fabric's right edge, placement moves down past
    /// the tallest tile of the finished row and starts a new one.
    Tiled,
    /// Explicit `(x, y)` top-left corner per tenant, in tenant order.
    Offsets(Vec<(usize, usize)>),
}

/// Errors returned by [`compose_tenants`].
#[derive(Debug, Clone, PartialEq)]
pub enum TenantComposeError {
    /// No workloads were given.
    NoTenants,
    /// A parameter was non-positive or not finite.
    InvalidParam(&'static str),
    /// A tenant's tile does not fit on the fabric at its placement.
    DoesNotFit {
        /// The tenant whose tile fell outside the fabric.
        tenant: usize,
        /// The attempted top-left corner.
        offset: (usize, usize),
        /// The tenant's tile dimensions.
        tile: (usize, usize),
        /// The fabric dimensions.
        fabric: (usize, usize),
    },
    /// [`MappingPolicy::Offsets`] listed a different number of offsets than
    /// there are tenants.
    WrongOffsetCount {
        /// Number of tenants to place.
        tenants: usize,
        /// Number of offsets given.
        offsets: usize,
    },
    /// Two tenants' tiles overlap on a fabric node.
    Overlap {
        /// The doubly-claimed fabric node.
        node: usize,
        /// The tenant that claimed it first.
        first: usize,
        /// The tenant that claimed it again.
        second: usize,
    },
    /// A tenant's graph carries no traffic, so its load cannot be scaled.
    NoTraffic {
        /// The offending tenant.
        tenant: usize,
    },
    /// The assembled assignment failed [`TenantMap`] validation.
    Map(TenantMapError),
}

impl fmt::Display for TenantComposeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TenantComposeError::NoTenants => write!(f, "at least one tenant workload is required"),
            TenantComposeError::InvalidParam(what) => {
                write!(f, "{what} must be positive and finite")
            }
            TenantComposeError::DoesNotFit { tenant, offset, tile, fabric } => write!(
                f,
                "tenant {tenant}: a {}x{} tile at ({}, {}) falls outside the {}x{} fabric",
                tile.0, tile.1, offset.0, offset.1, fabric.0, fabric.1
            ),
            TenantComposeError::WrongOffsetCount { tenants, offsets } => {
                write!(f, "{tenants} tenants but {offsets} placement offsets")
            }
            TenantComposeError::Overlap { node, first, second } => write!(
                f,
                "tenants {first} and {second} both claim fabric node {node}"
            ),
            TenantComposeError::NoTraffic { tenant } => {
                write!(f, "tenant {tenant}'s graph carries no traffic")
            }
            TenantComposeError::Map(err) => write!(f, "tenant map rejected: {err}"),
        }
    }
}

impl Error for TenantComposeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            TenantComposeError::Map(err) => Some(err),
            _ => None,
        }
    }
}

impl From<TenantMapError> for TenantComposeError {
    fn from(err: TenantMapError) -> Self {
        TenantComposeError::Map(err)
    }
}

/// The result of [`compose_tenants`]: everything needed to run and account
/// a multi-tenant fabric.
#[derive(Debug, Clone)]
pub struct TenantComposition {
    /// Fabric-wide traffic: the sum of every tenant's scaled matrix.
    pub traffic: MatrixTraffic,
    /// Node → tenant-slot assignment for the accounting ledgers.
    pub map: TenantMap,
    /// The `(x, y)` top-left corner each tenant was placed at.
    pub offsets: Vec<(usize, usize)>,
}

/// Resolves the placement of every tile, either by greedy row packing or
/// from the explicit offset list.
fn place_tiles(
    fabric: (usize, usize),
    workloads: &[TenantWorkload],
    policy: &MappingPolicy,
) -> Result<Vec<(usize, usize)>, TenantComposeError> {
    let (fw, fh) = fabric;
    match policy {
        MappingPolicy::Offsets(offsets) => {
            if offsets.len() != workloads.len() {
                return Err(TenantComposeError::WrongOffsetCount {
                    tenants: workloads.len(),
                    offsets: offsets.len(),
                });
            }
            for (tenant, (w, &(x, y))) in workloads.iter().zip(offsets.iter()).enumerate() {
                let (tw, th) = w.tile_size();
                if x + tw > fw || y + th > fh {
                    return Err(TenantComposeError::DoesNotFit {
                        tenant,
                        offset: (x, y),
                        tile: (tw, th),
                        fabric,
                    });
                }
            }
            Ok(offsets.clone())
        }
        MappingPolicy::Tiled => {
            let mut offsets = Vec::with_capacity(workloads.len());
            let (mut x, mut y, mut row_height) = (0usize, 0usize, 0usize);
            for (tenant, w) in workloads.iter().enumerate() {
                let (tw, th) = w.tile_size();
                if x + tw > fw {
                    x = 0;
                    y += row_height;
                    row_height = 0;
                }
                if x + tw > fw || y + th > fh {
                    return Err(TenantComposeError::DoesNotFit {
                        tenant,
                        offset: (x, y),
                        tile: (tw, th),
                        fabric,
                    });
                }
                offsets.push((x, y));
                x += tw;
                row_height = row_height.max(th);
            }
            Ok(offsets)
        }
    }
}

/// Composes N tenant workloads onto one `fabric_width × fabric_height`
/// fabric.
///
/// Each tenant's packet rates are scaled exactly as
/// [`TaskGraph::traffic_matrix`] scales a solo run — at `speed == 1.0` the
/// tenant's busiest source node injects `peak_node_rate` flits per node
/// cycle — then translated to the tenant's tile placement and summed into
/// one fabric-sized [`MatrixTraffic`]. Every node of a tenant's tile
/// (whether or not it hosts a task) is assigned to that tenant's slot in
/// the returned [`TenantMap`]; fabric nodes outside every tile fall to the
/// map's background slot, so the per-slot ledgers always sum to the global
/// window.
///
/// # Errors
///
/// Returns a [`TenantComposeError`] if the workload list is empty, a
/// parameter is invalid, a tile does not fit or overlaps another, or a
/// graph carries no traffic.
pub fn compose_tenants(
    fabric_width: usize,
    fabric_height: usize,
    workloads: &[TenantWorkload],
    policy: &MappingPolicy,
    packet_length: usize,
    peak_node_rate: f64,
) -> Result<TenantComposition, TenantComposeError> {
    if workloads.is_empty() {
        return Err(TenantComposeError::NoTenants);
    }
    if packet_length == 0 {
        return Err(TenantComposeError::InvalidParam("packet length"));
    }
    if !(peak_node_rate.is_finite() && peak_node_rate > 0.0) {
        return Err(TenantComposeError::InvalidParam("peak node rate"));
    }
    for w in workloads {
        if !(w.speed.is_finite() && w.speed >= 0.0) {
            return Err(TenantComposeError::InvalidParam("tenant speed"));
        }
    }
    let fabric = (fabric_width, fabric_height);
    let offsets = place_tiles(fabric, workloads, policy)?;

    let node_count = fabric_width * fabric_height;
    let mut rates = vec![vec![0.0f64; node_count]; node_count];
    let mut owner: Vec<Option<u32>> = vec![None; node_count];

    for (tenant, (w, &(ox, oy))) in workloads.iter().zip(offsets.iter()).enumerate() {
        let (tw, th) = w.tile_size();
        // Claim the whole tile for the tenant's slot (shared routers inside
        // the tile carry only this tenant's traffic under XY routing).
        for ty in 0..th {
            for tx in 0..tw {
                let node = (oy + ty) * fabric_width + (ox + tx);
                if let Some(first) = owner[node] {
                    return Err(TenantComposeError::Overlap {
                        node,
                        first: first as usize,
                        second: tenant,
                    });
                }
                owner[node] = Some(tenant as u32);
            }
        }
        // The same normalisation as TaskGraph::traffic_matrix, translated to
        // the tile placement.
        let packet_rates = w.graph.node_packet_rates();
        let peak_packets: f64 =
            packet_rates.iter().map(|row| row.iter().sum::<f64>()).fold(0.0, f64::max);
        if peak_packets <= 0.0 {
            return Err(TenantComposeError::NoTraffic { tenant });
        }
        let scale = peak_node_rate / (peak_packets * packet_length as f64);
        for (src, row) in packet_rates.iter().enumerate() {
            let (sx, sy) = (src % tw, src / tw);
            let fabric_src = (oy + sy) * fabric_width + (ox + sx);
            for (dst, &packets) in row.iter().enumerate() {
                if packets <= 0.0 {
                    continue;
                }
                let (dx, dy) = (dst % tw, dst / tw);
                let fabric_dst = (oy + dy) * fabric_width + (ox + dx);
                rates[fabric_src][fabric_dst] +=
                    packets * packet_length as f64 * scale * w.speed;
            }
        }
    }

    let map = TenantMap::new(owner, workloads.len())?;
    Ok(TenantComposition {
        traffic: MatrixTraffic::new(rates, packet_length),
        map,
        offsets,
    })
}

/// Per-slot QoS of one [`run_tenants`] measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantQos {
    /// The tenant id, or `None` for the background slot (fabric nodes
    /// outside every tile).
    pub tenant: Option<u32>,
    /// Fabric nodes assigned to the slot.
    pub nodes: usize,
    /// The slot's accounting ledger over the measurement phase. Additive
    /// fields sum to [`TenantReport::global`] across all slots.
    pub window: WindowMeasurement,
    /// Energy consumed by the slot's routers over the measurement phase.
    pub energy: EnergyBreakdown,
}

/// The result of one [`run_tenants`] measurement: the global window plus
/// one [`TenantQos`] per slot (tenants first, background slot last).
#[derive(Debug, Clone, PartialEq)]
pub struct TenantReport {
    /// The fabric-wide measurement window.
    pub global: WindowMeasurement,
    /// Per-slot QoS, indexed by slot (`tenant_count` entries for tenants,
    /// then the background slot).
    pub slots: Vec<TenantQos>,
    /// Fabric-wide energy over the measurement phase (the exact sum of the
    /// per-slot energies — same fold, partitioned).
    pub energy: EnergyBreakdown,
}

impl TenantReport {
    /// The QoS entry of tenant `t`, if it exists.
    pub fn tenant(&self, t: u32) -> Option<&TenantQos> {
        self.slots.iter().find(|q| q.tenant == Some(t))
    }

    /// The background slot's QoS entry.
    pub fn background(&self) -> &TenantQos {
        self.slots.last().expect("a report always has the background slot")
    }
}

/// Runs a composed multi-tenant fabric at the network's maximum frequency
/// and reports per-tenant QoS.
///
/// The simulation warms up for `warmup_cycles` (ledgers then reset), then
/// measures for `measure_cycles`. Energy is attributed per slot with
/// [`RouterPowerModel::partition_energy`] at the maximum frequency's operating
/// point, so the slot energies sum bit-identically to the fabric total.
///
/// # Panics
///
/// Panics if the composition's node count does not match `net` (compose for
/// the same fabric dimensions you run on).
pub fn run_tenants(
    net: &NetworkConfig,
    composition: &TenantComposition,
    warmup_cycles: u64,
    measure_cycles: u64,
    seed: u64,
) -> TenantReport {
    let mut sim = NocSimulation::new(net.clone(), Box::new(composition.traffic.clone()), seed);
    sim.set_noc_frequency(net.max_frequency());
    sim.set_tenant_map(composition.map.clone())
        .expect("composition tile map must match the network dimensions");

    sim.run_cycles(warmup_cycles);
    let _ = sim.take_window();
    let _ = sim.take_tenant_windows();
    let _ = sim.take_activity();

    sim.run_cycles(measure_cycles);
    let global = sim.take_window();
    let windows = sim.take_tenant_windows();
    let activity = sim.take_activity();

    let tech = FdsoiTech::new();
    let power_model = RouterPowerModel::new();
    let f = net.max_frequency();
    let vdd = tech.vdd_for_frequency(f);

    let map = &composition.map;
    let mut energy = EnergyBreakdown::default();
    let slots = windows
        .into_iter()
        .enumerate()
        .map(|(slot, window)| {
            let e = power_model.partition_energy(
                &activity,
                map.assignments(),
                slot as u32,
                f,
                vdd,
                global.wall_time_ps,
            );
            energy += e;
            TenantQos {
                tenant: (slot < map.tenant_count()).then_some(slot as u32),
                nodes: map.node_counts()[slot],
                window,
                energy: e,
            }
        })
        .collect();

    TenantReport { global, slots, energy }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_apps::{h264_encoder, random_task_graph, DagConfig};

    fn fabric(width: usize, height: usize) -> NetworkConfig {
        NetworkConfig::builder()
            .mesh(width, height)
            .virtual_channels(2)
            .buffer_depth(4)
            .packet_length(5)
            .build()
            .unwrap()
    }

    fn two_dags() -> Vec<TenantWorkload> {
        (0..2)
            .map(|t| {
                TenantWorkload::new(
                    random_task_graph(format!("t{t}"), &DagConfig::new(6, 4, 4, 100 + t)).unwrap(),
                )
            })
            .collect()
    }

    #[test]
    fn tiled_placement_packs_rows() {
        let comp =
            compose_tenants(8, 4, &two_dags(), &MappingPolicy::Tiled, 5, 0.2).unwrap();
        assert_eq!(comp.offsets, vec![(0, 0), (4, 0)]);
        assert_eq!(comp.map.tenant_count(), 2);
        // The whole fabric is tiled: the background slot is empty.
        assert_eq!(comp.map.node_counts()[2], 0);
        // Tile translation: node (x, y) of tile 1 lands at x+4 on the fabric.
        assert_eq!(comp.map.tenant_of(4), Some(1));
        assert_eq!(comp.map.tenant_of(3), Some(0));
    }

    #[test]
    fn explicit_offsets_place_and_leave_background() {
        let comp = compose_tenants(
            8,
            8,
            &two_dags(),
            &MappingPolicy::Offsets(vec![(0, 0), (4, 4)]),
            5,
            0.2,
        )
        .unwrap();
        assert_eq!(comp.map.tenant_of(0), Some(0));
        assert_eq!(comp.map.tenant_of(4 * 8 + 4), Some(1));
        // Node (4, 0) belongs to neither tile: background.
        assert_eq!(comp.map.tenant_of(4), None);
        assert!(comp.map.node_counts()[2] > 0);
    }

    #[test]
    fn composition_errors_cover_misplacement() {
        let w = two_dags();
        assert!(matches!(
            compose_tenants(8, 4, &[], &MappingPolicy::Tiled, 5, 0.2),
            Err(TenantComposeError::NoTenants)
        ));
        assert!(matches!(
            compose_tenants(4, 4, &w, &MappingPolicy::Tiled, 5, 0.2),
            Err(TenantComposeError::DoesNotFit { tenant: 1, .. })
        ));
        assert!(matches!(
            compose_tenants(8, 4, &w, &MappingPolicy::Offsets(vec![(0, 0)]), 5, 0.2),
            Err(TenantComposeError::WrongOffsetCount { tenants: 2, offsets: 1 })
        ));
        assert!(matches!(
            compose_tenants(8, 8, &w, &MappingPolicy::Offsets(vec![(0, 0), (2, 2)]), 5, 0.2),
            Err(TenantComposeError::Overlap { first: 0, second: 1, .. })
        ));
        assert!(matches!(
            compose_tenants(8, 4, &w, &MappingPolicy::Tiled, 0, 0.2),
            Err(TenantComposeError::InvalidParam("packet length"))
        ));
    }

    #[test]
    fn per_tenant_rates_match_the_solo_traffic_matrix() {
        use noc_sim::TrafficSpec;
        // One tenant on an exactly-fitting fabric must reproduce the solo
        // matrix (same normalisation, zero offset).
        let app = h264_encoder();
        let solo = app.traffic_matrix(1.0, 5, 0.2);
        let comp = compose_tenants(
            4,
            4,
            &[TenantWorkload::new(app.clone())],
            &MappingPolicy::Tiled,
            5,
            0.2,
        )
        .unwrap();
        for src in 0..16 {
            for dst in 0..16 {
                assert_eq!(comp.traffic.rate(src, dst), solo.rate(src, dst));
            }
        }
        assert!(comp.traffic.offered_load() > 0.0);
    }

    #[test]
    fn run_tenants_reports_conserving_ledgers_and_energy() {
        let comp = compose_tenants(8, 4, &two_dags(), &MappingPolicy::Tiled, 5, 0.2).unwrap();
        let net = fabric(8, 4);
        let report = run_tenants(&net, &comp, 500, 2_000, 7);
        assert_eq!(report.slots.len(), 3);
        assert!(report.global.packets_ejected > 0);
        // Additive ledger fields sum exactly to the global window.
        let sum: u64 = report.slots.iter().map(|q| q.window.flits_ejected).sum();
        assert_eq!(sum, report.global.flits_ejected);
        let gen: u64 = report.slots.iter().map(|q| q.window.flits_generated).sum();
        assert_eq!(gen, report.global.flits_generated);
        // Both tenants made progress and were charged energy.
        for t in 0..2 {
            let q = report.tenant(t).unwrap();
            assert!(q.window.flits_generated > 0, "tenant {t} generated nothing");
            assert!(q.energy.total_pj() > 0.0);
        }
        // Slot energies partition the fabric total.
        let per_slot: f64 = report.slots.iter().map(|q| q.energy.total_pj()).sum();
        assert!((per_slot - report.energy.total_pj()).abs() < 1e-9);
        // The empty background slot moved nothing.
        assert_eq!(report.background().window.flits_generated, 0);
        assert_eq!(report.background().tenant, None);
    }
}
