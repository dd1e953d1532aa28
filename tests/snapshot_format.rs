//! The snapshot format, pinned by a file.
//!
//! `tests/checkpoint_invariants.rs` proves that what this build writes this
//! build reads back; nothing there notices the format itself moving — a
//! re-ordered section, a re-typed field, a configuration fingerprint computed
//! differently — because writer and reader move together. The committed
//! fixture does: it was written once, by [`write_the_fixture`], and must
//! keep restoring to the windows pinned below. A deliberate format change
//! bumps `SNAP_VERSION`, regenerates the fixture under a new name
//! (`cargo test --test snapshot_format -- --ignored --nocapture`) and pastes
//! the rows the generator prints.

use noc_sim::{
    FaultConfig, FaultEvent, FaultTarget, GatingConfig, HazardConfig, Hertz, NetworkConfig,
    NocSimulation, RegionLayout, RoutingKind, SimSnapshot, SnapshotError, SyntheticTraffic,
    TenantMap, TrafficPattern, WindowMeasurement,
};

const FIXTURE: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/quadrant4x4_gated_faulted_tenanted.v3.snap");

/// Cycles per compared window, and how many are compared.
const WINDOW: u64 = 500;
const WINDOWS: usize = 4;

/// A fresh simulation of the fixture's world: a gated quadrant 4×4 under
/// adaptive routing with one scheduled router outage and a transient-fault
/// hazard. Everything the fixture run did to it afterwards — the detuned
/// island, the tenant map — is state, and comes out of the file.
fn fresh() -> NocSimulation {
    let outage = FaultEvent::transient(FaultTarget::Router { node: 6 }, 300, 500);
    let cfg = NetworkConfig::builder()
        .mesh(4, 4)
        .virtual_channels(2)
        .buffer_depth(4)
        .packet_length(4)
        .link_latency(2)
        .regions(RegionLayout::Quadrants)
        .gating(GatingConfig::enabled(8, 4))
        .routing(RoutingKind::MinimalAdaptive)
        .faults(
            FaultConfig::scheduled(vec![outage])
                .with_hazard(HazardConfig::transient(2e-4, 1e-4, 120)),
        )
        .build()
        .expect("a valid configuration");
    let traffic = SyntheticTraffic::new(TrafficPattern::Uniform, 0.08, cfg.packet_length());
    NocSimulation::new(cfg, Box::new(traffic), 2015)
}

/// The run the fixture was cut from, paused inside the scheduled outage.
fn paused() -> NocSimulation {
    let mut sim = fresh();
    sim.set_island_frequency(2, Hertz::from_mhz(500.0));
    let owners = (0..16).map(|node| [Some(0), Some(1), None][node % 3]).collect();
    sim.set_tenant_map(TenantMap::new(owners, 2).expect("a valid map")).expect("16 nodes");
    sim.run_cycles(777);
    sim
}

/// What is pinned of one step: the global window's packets, latency sum and
/// drops, packets ejected per island and per tenant slot, and an FNV-1a hash
/// over every field of all eight windows (floats as bit patterns).
type Row = (u64, u64, u64, [u64; 4], [u64; 3], u64);

fn packets_ejected<const N: usize>(windows: &[WindowMeasurement]) -> [u64; N] {
    assert_eq!(windows.len(), N);
    std::array::from_fn(|i| windows[i].packets_ejected)
}

fn next_row(sim: &mut NocSimulation) -> Row {
    sim.run_cycles(WINDOW);
    let global = sim.take_window();
    let islands = sim.take_island_windows();
    let tenants = sim.take_tenant_windows();
    let mut hash: u64 = 0xCBF2_9CE4_8422_2325;
    for w in std::iter::once(&global).chain(&islands).chain(&tenants) {
        let fields = [
            w.noc_cycles,
            w.node_cycles,
            w.wall_time_ps.to_bits(),
            w.flits_generated,
            w.flits_injected,
            w.packets_ejected,
            w.flits_ejected,
            w.latency_cycles_sum,
            w.delay_ps_sum.to_bits(),
            w.flits_dropped,
        ];
        for byte in fields.iter().flat_map(|field| field.to_le_bytes()) {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    (
        global.packets_ejected,
        global.latency_cycles_sum,
        global.flits_dropped,
        packets_ejected(&islands),
        packets_ejected(&tenants),
        hash,
    )
}

/// The windows that follow the pause, as the build that wrote the fixture
/// produced them.
const PINNED: [Row; WINDOWS] = [
    (406, 23897, 9, [105, 89, 115, 97], [150, 123, 133], 3284266856454016694),
    (166, 5518, 0, [32, 38, 45, 51], [62, 58, 46], 10008343803973799385),
    (161, 7038, 24, [41, 43, 42, 35], [61, 49, 51], 9168273559257325590),
    (168, 5882, 1, [42, 36, 43, 47], [63, 47, 58], 5454045747698642675),
];

#[test]
#[ignore = "writes tests/fixtures/; run by hand when the format version is bumped"]
fn write_the_fixture() {
    let mut sim = paused();
    let (gated, in_flight, queued) =
        (sim.gated_router_count(), sim.in_flight_flits(), sim.queued_source_flits());
    assert!(gated > 0 && in_flight > 0 && queued > 0, "{gated} gated, {in_flight} in flight");
    std::fs::write(FIXTURE, sim.snapshot().to_bytes()).expect("the fixture directory exists");
    for _ in 0..WINDOWS {
        println!("    {:?},", next_row(&mut sim));
    }
}

#[test]
fn the_committed_fixture_restores_to_its_pinned_windows() {
    let bytes = std::fs::read(FIXTURE).expect("the fixture is committed");
    let snap = SimSnapshot::from_bytes(&bytes).expect("the fixture is a snapshot of this version");
    let mut sim = fresh();
    sim.restore(&snap).expect("the fixture restores into its configuration");
    assert_eq!(sim.current_cycle(), 777);
    assert_eq!(sim.island_frequency(2), Hertz::from_mhz(500.0));
    assert!(sim.snapshot().to_bytes() == bytes, "restore → snapshot reproduces the file");
    for (window, pinned) in PINNED.iter().enumerate() {
        assert_eq!(next_row(&mut sim), *pinned, "window {window}");
    }
}

/// A file from before the format bump is refused by its version, whatever
/// else it holds — exactly what a version-1 file got when version 2 was cut.
#[test]
fn a_version_2_header_is_an_unsupported_version() {
    let mut header = Vec::new();
    header.extend_from_slice(&0x4E4F_4353_4E41_5031u64.to_le_bytes());
    header.extend_from_slice(&2u32.to_le_bytes());
    header.extend_from_slice(&0xFEED_FACE_CAFE_F00Du64.to_le_bytes());
    header.extend_from_slice(&0u64.to_le_bytes());
    assert_eq!(SimSnapshot::from_bytes(&header), Err(SnapshotError::UnsupportedVersion(2)));
}
