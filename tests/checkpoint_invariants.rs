//! Differential suite for the crash-safe checkpoint/resume subsystem.
//!
//! The snapshot contract ([`NocSimulation::snapshot`] /
//! [`NocSimulation::restore`]) is **bit-identity**: a run paused at any cycle
//! boundary, saved, and restored into a freshly built simulation produces
//! windows, counters and RNG streams identical — bit for bit — to a run that
//! never paused. Four families of checks pin it:
//!
//! 1. **Randomized save/restore differentials** — scenarios across gating ×
//!    faults × voltage-frequency islands × bursty injection are paused at a
//!    random mid-run cycle, serialized through the byte format, restored
//!    into a fresh simulation (standing in for a restarted process), and
//!    stepped alongside an uninterrupted twin; every subsequent window and
//!    the final ledgers must match exactly. The pausing and the resuming
//!    run take opposite skipping settings, so every snapshot is taken in one
//!    engine mode and resumed in another.
//! 2. **Determinism of the format** — snapshotting twice without stepping,
//!    or snapshotting after a restore, yields byte-identical snapshots.
//! 3. **Rejection of the wrong world** — restoring into a simulation built
//!    from a different configuration fails with `ConfigMismatch` and a
//!    mangled byte stream fails with a decode error; neither panics.
//! 4. **Mid-run actuation** — frequency retunes and gating-threshold changes
//!    before the pause survive the round trip (the island dividers and
//!    runtime-mutable gating parameters are state, not configuration).

use noc_sim::{
    BurstyTraffic, FaultConfig, GatingConfig, HazardConfig, Hertz, NetworkConfig, NocSimulation,
    RegionLayout, RoutingKind, SimSnapshot, SnapshotError, SyntheticTraffic, TopologyKind,
    TrafficPattern, TrafficSpec,
};
use proptest::prelude::*;

/// A 4×4 grid exercising the chosen subsystem combination: power gating, a
/// transient-fault hazard with adaptive routing, and/or quadrant
/// voltage-frequency islands.
fn subsystem_cfg(kind: TopologyKind, gated: bool, faulted: bool, islands: bool) -> NetworkConfig {
    let mut b = NetworkConfig::builder()
        .mesh(4, 4)
        .topology(kind)
        .virtual_channels(2)
        .buffer_depth(4)
        .packet_length(4);
    if gated {
        b = b.gating(GatingConfig::enabled(24, 8));
    }
    if faulted {
        b = b.routing(RoutingKind::MinimalAdaptive).faults(FaultConfig::none().with_hazard(
            HazardConfig {
                link_rate: 2e-4,
                router_rate: 1e-4,
                transient_fraction: 1.0,
                transient_duration: 120,
            },
        ));
    }
    if islands {
        b = b.regions(RegionLayout::Quadrants);
    }
    b.build().expect("subsystem combinations are valid")
}

fn scenario_traffic(rate: f64, packet_length: usize, bursty: bool) -> Box<dyn TrafficSpec> {
    if bursty {
        Box::new(BurstyTraffic::new(TrafficPattern::Uniform, rate, packet_length, 200.0, 4.0))
    } else {
        Box::new(SyntheticTraffic::new(TrafficPattern::Uniform, rate, packet_length))
    }
}

/// Serializes and re-parses the snapshot — every differential goes through
/// the byte format, so the round trip (not just the in-memory object) is
/// what the suite certifies.
fn through_bytes(snap: &SimSnapshot) -> SimSnapshot {
    SimSnapshot::from_bytes(&snap.to_bytes()).expect("a written snapshot must parse back")
}

/// Final-ledger comparison between the uninterrupted reference and the
/// resumed run: aggregate stats plus every conservation-relevant counter.
fn assert_ledgers_match(reference: &NocSimulation, resumed: &NocSimulation) {
    assert_eq!(reference.stats(), resumed.stats());
    assert_eq!(reference.current_cycle(), resumed.current_cycle());
    assert_eq!(reference.wall_time(), resumed.wall_time());
    assert_eq!(reference.total_flits_generated(), resumed.total_flits_generated());
    assert_eq!(reference.total_packets_delivered(), resumed.total_packets_delivered());
    assert_eq!(reference.total_flits_received(), resumed.total_flits_received());
    assert_eq!(reference.total_flits_dropped(), resumed.total_flits_dropped());
    assert_eq!(reference.queued_source_flits(), resumed.queued_source_flits());
    assert_eq!(reference.buffered_network_flits(), resumed.buffered_network_flits());
    assert_eq!(reference.in_flight_flits(), resumed.in_flight_flits());
    assert_eq!(reference.in_flight_credits(), resumed.in_flight_credits());
    assert_eq!(reference.gated_router_count(), resumed.gated_router_count());
}

proptest! {
    #![proptest_config(ProptestConfig::default())]

    /// The headline differential: pause at a random mid-run cycle, restore
    /// into a fresh process-stand-in, and compare every subsequent window
    /// and the final ledgers against an uninterrupted twin — across gating,
    /// faults, islands and bursty injection, resuming with skipping on or
    /// off.
    #[test]
    fn save_restore_is_bit_identical_to_an_uninterrupted_run(
        gated in prop_oneof![Just(false), Just(true)],
        faulted in prop_oneof![Just(false), Just(true)],
        islands in prop_oneof![Just(false), Just(true)],
        bursty in prop_oneof![Just(false), Just(true)],
        resume_skip in prop_oneof![Just(false), Just(true)],
        rate in 0.0f64..0.3,
        seed in 0u64..1_000_000,
        pause_at in 1u64..700,
        chunk in 60u64..250,
    ) {
        let cfg = subsystem_cfg(TopologyKind::Mesh, gated, faulted, islands);
        let mk = || scenario_traffic(rate, 4, bursty);

        let mut reference = NocSimulation::new(cfg.clone(), mk(), seed);
        let mut paused = NocSimulation::new(cfg.clone(), mk(), seed);
        if islands {
            // A detuned island keeps fractional divider state live across
            // the pause point.
            reference.set_island_frequency(2, Hertz::from_mhz(400.0));
            paused.set_island_frequency(2, Hertz::from_mhz(400.0));
        }

        // The snapshot is taken under the opposite skipping setting of the
        // run that resumes from it.
        paused.set_event_skipping(!resume_skip);
        reference.run_cycles(pause_at);
        paused.run_cycles(pause_at);
        let snap = through_bytes(&paused.snapshot());

        // A fresh simulation from the same configuration, traffic and seed —
        // exactly what a restarted process would build before restoring.
        let mut resumed = NocSimulation::new(cfg.clone(), mk(), seed);
        resumed.restore(&snap).expect("restoring into the same configuration succeeds");
        resumed.set_event_skipping(resume_skip);

        let chunks = [chunk, 2 * chunk, chunk / 2 + 1, chunk + 37];
        for (i, &cycles) in chunks.iter().enumerate() {
            reference.run_cycles(cycles);
            resumed.run_cycles(cycles);
            prop_assert_eq!(
                reference.take_window(),
                resumed.take_window(),
                "window {} diverged (gated={} faulted={} islands={} bursty={} \
                 resume_skip={} seed={} pause_at={})",
                i, gated, faulted, islands, bursty, resume_skip, seed, pause_at
            );
            prop_assert_eq!(reference.take_island_windows(), resumed.take_island_windows());
        }
        assert_ledgers_match(&reference, &resumed);
    }

    /// Pausing must also preserve the *partial* window: snapshot mid-window,
    /// restore, finish the window — the stitched window equals the
    /// uninterrupted one.
    #[test]
    fn a_window_straddling_the_pause_is_stitched_exactly(
        gated in prop_oneof![Just(false), Just(true)],
        rate in 0.02f64..0.3,
        seed in 0u64..1_000_000,
        first_half in 40u64..400,
        second_half in 40u64..400,
    ) {
        let cfg = subsystem_cfg(TopologyKind::Torus, gated, false, false);
        let mk = || scenario_traffic(rate, 4, false);
        let mut reference = NocSimulation::new(cfg.clone(), mk(), seed);
        let mut paused = NocSimulation::new(cfg.clone(), mk(), seed);

        reference.run_cycles(first_half + second_half);
        paused.run_cycles(first_half);
        let snap = through_bytes(&paused.snapshot());
        let mut resumed = NocSimulation::new(cfg.clone(), mk(), seed);
        resumed.restore(&snap).expect("restore succeeds");
        resumed.run_cycles(second_half);

        prop_assert_eq!(reference.take_window(), resumed.take_window());
        assert_ledgers_match(&reference, &resumed);
    }
}

/// Snapshotting is a pure observation: taking one does not perturb the run,
/// taking two in a row yields identical bytes, and a snapshot taken right
/// after a restore reproduces the restored snapshot byte for byte.
#[test]
fn snapshots_are_deterministic_and_non_perturbing() {
    let cfg = subsystem_cfg(TopologyKind::Mesh, true, true, true);
    let mk = || scenario_traffic(0.12, 4, true);
    let mut sim = NocSimulation::new(cfg.clone(), mk(), 2015);
    let mut twin = NocSimulation::new(cfg.clone(), mk(), 2015);
    sim.run_cycles(333);
    twin.run_cycles(333);

    let first = sim.snapshot();
    let second = sim.snapshot();
    assert_eq!(first.to_bytes(), second.to_bytes(), "snapshot must be deterministic");

    // The observed run continues exactly like the unobserved twin.
    sim.run_cycles(400);
    twin.run_cycles(400);
    assert_eq!(sim.take_window(), twin.take_window());
    assert_ledgers_match(&twin, &sim);

    // restore → snapshot is the identity on the byte format.
    let mut resumed = NocSimulation::new(cfg, mk(), 2015);
    resumed.restore(&first).expect("restore succeeds");
    assert_eq!(resumed.snapshot().to_bytes(), first.to_bytes());
}

/// Restoring into a simulation built from a different configuration must be
/// refused up front via the configuration fingerprint.
#[test]
fn restore_rejects_a_configuration_mismatch() {
    let cfg_a = subsystem_cfg(TopologyKind::Mesh, false, false, false);
    let cfg_b = NetworkConfig::builder()
        .mesh(4, 4)
        .virtual_channels(4) // differs
        .buffer_depth(4)
        .packet_length(4)
        .build()
        .unwrap();
    let mut a = NocSimulation::new(cfg_a, scenario_traffic(0.1, 4, false), 1);
    a.run_cycles(100);
    let snap = a.snapshot();
    let mut b = NocSimulation::new(cfg_b, scenario_traffic(0.1, 4, false), 1);
    assert!(matches!(b.restore(&snap), Err(SnapshotError::ConfigMismatch)));
}

/// A mangled byte stream fails with a decode error — never a panic, and
/// never a silent half-restore that parses.
#[test]
fn corrupt_snapshot_bytes_are_rejected() {
    let cfg = subsystem_cfg(TopologyKind::Mesh, true, false, true);
    let mut sim = NocSimulation::new(cfg.clone(), scenario_traffic(0.15, 4, false), 7);
    sim.run_cycles(250);
    let bytes = sim.snapshot().to_bytes();

    // Truncations anywhere in the stream must surface as errors, either at
    // parse time or at restore time.
    for cut in [0, 1, 7, bytes.len() / 2, bytes.len() - 1] {
        match SimSnapshot::from_bytes(&bytes[..cut]) {
            Err(_) => {}
            Ok(snap) => {
                let mut fresh = NocSimulation::new(cfg.clone(), scenario_traffic(0.15, 4, false), 7);
                assert!(fresh.restore(&snap).is_err(), "truncation at {cut} must not restore");
            }
        }
    }

    // A corrupted magic number is rejected at parse time.
    let mut bad_magic = bytes.clone();
    bad_magic[0] ^= 0xFF;
    assert!(matches!(SimSnapshot::from_bytes(&bad_magic), Err(SnapshotError::BadMagic)));

    // A corrupted leading section tag is rejected at restore time.
    let snap = SimSnapshot::from_bytes(&bytes).unwrap();
    let mut tampered = bytes;
    let payload_start = tampered.len() - snap.payload_len();
    tampered[payload_start] = 0xEE;
    let tampered_snap = SimSnapshot::from_bytes(&tampered).unwrap();
    let mut fresh = NocSimulation::new(cfg, scenario_traffic(0.15, 4, false), 7);
    assert!(matches!(
        fresh.restore(&tampered_snap),
        Err(SnapshotError::Corrupt("section tag mismatch"))
    ));
}

/// Runtime actuation before the pause — per-island frequency retunes and
/// gating-threshold changes — is state and must survive the round trip.
#[test]
fn runtime_actuation_survives_the_round_trip() {
    let cfg = subsystem_cfg(TopologyKind::Mesh, true, false, true);
    let mk = || scenario_traffic(0.1, 4, false);
    let mut reference = NocSimulation::new(cfg.clone(), mk(), 42);
    let mut paused = NocSimulation::new(cfg.clone(), mk(), 42);
    for sim in [&mut reference, &mut paused] {
        sim.run_cycles(200);
        sim.set_island_frequency(1, Hertz::from_mhz(500.0));
        sim.set_island_idle_threshold(3, 64);
        sim.run_cycles(173);
    }
    let snap = through_bytes(&paused.snapshot());
    let mut resumed = NocSimulation::new(cfg, mk(), 42);
    resumed.restore(&snap).expect("restore succeeds");
    assert_eq!(resumed.island_frequency(1), Hertz::from_mhz(500.0));
    assert_eq!(resumed.island_idle_threshold(3), 64);
    for _ in 0..3 {
        reference.run_cycles(250);
        resumed.run_cycles(250);
        assert_eq!(reference.take_window(), resumed.take_window());
        assert_eq!(reference.take_island_windows(), resumed.take_island_windows());
    }
    assert_ledgers_match(&reference, &resumed);
}
