//! Invariant suite for the fault-injection subsystem and the
//! minimal-adaptive escape-VC routing that tolerates it.
//!
//! Five contracts are pinned here:
//!
//! 1. **Invariants under fault storms** — randomized hazard storms
//!    (mesh/torus × transient/permanent mix × XY/minimal-adaptive routing ×
//!    gating on/off) keep every engine invariant
//!    ([`NocSimulation::check_invariants`]: worklists through deaths and
//!    recoveries, transport counters, flit and credit ledgers) after every
//!    tick.
//! 2. **Conservation through failures** — the flit ledger stays exact at
//!    every pause point even while routers die with flits buffered inside
//!    them: `generated = received + queued + buffered + in flight + dropped`
//!    (with the rest of the invariants).
//! 3. **Zero-fault bit-identity** — a configuration with an empty
//!    `FaultConfig` reproduces the unfaulted simulator's behaviour bit for
//!    bit (the golden window constants themselves are re-checked by
//!    `tests/determinism.rs`, which runs with no fault state allocated).
//! 4. **Adaptive delivery where dimension-order strands** — under a
//!    permanent link fault that cuts the unique XY path of a flow, XY
//!    delivers nothing and strands its flits forever, while minimal-adaptive
//!    detours and keeps delivering every packet between the (still fully
//!    connected) pairs, dropping none.
//! 5. **Escape-VC deadlock freedom** — minimal-adaptive routing on mesh and
//!    torus stays live through sustained transient-link storms: delivery
//!    strictly increases in every observation window and nothing is dropped
//!    (link fences stall flits, they never vaporise them).

use noc_sim::{
    BurstyTraffic, Direction, FaultConfig, FaultEvent, FaultTarget, GatingConfig, HazardConfig,
    MatrixTraffic, NetworkConfig, NocSimulation, RoutingKind, SyntheticTraffic, TopologyKind,
    TrafficPattern, TrafficSpec,
};
use proptest::prelude::*;

mod common;
use common::run_checked;

fn faulted_grid_cfg(
    kind: TopologyKind,
    routing: RoutingKind,
    gated: bool,
    faults: FaultConfig,
) -> NetworkConfig {
    let mut builder = NetworkConfig::builder()
        .mesh(4, 4)
        .topology(kind)
        .virtual_channels(2)
        .buffer_depth(4)
        .packet_length(4)
        .routing(routing)
        .faults(faults);
    if gated {
        builder = builder.gating(GatingConfig::enabled(8, 4));
    }
    builder.build().expect("4x4 faulted grid configurations are valid")
}

fn scenario_traffic(
    pattern: TrafficPattern,
    rate: f64,
    packet_length: usize,
    bursty: bool,
) -> Box<dyn TrafficSpec> {
    if bursty {
        Box::new(BurstyTraffic::new(pattern, rate, packet_length, 200.0, 4.0))
    } else {
        Box::new(SyntheticTraffic::new(pattern, rate, packet_length))
    }
}

proptest! {
    #![proptest_config(ProptestConfig::default())]

    /// Named for the dense reference loop these storms were once stepped
    /// beside: across topology, routing algorithm and gating settings, every
    /// invariant holds after every tick of a randomized fault storm.
    #[test]
    fn sparse_and_dense_agree_under_fault_storms(
        kind in prop_oneof![Just(TopologyKind::Mesh), Just(TopologyKind::Torus)],
        routing in prop_oneof![Just(RoutingKind::Xy), Just(RoutingKind::MinimalAdaptive)],
        gated in prop_oneof![Just(false), Just(true)],
        pattern_idx in 0usize..TrafficPattern::ALL.len(),
        bursty in prop_oneof![Just(false), Just(true)],
        rate in 0.01f64..0.2,
        link_rate in 0f64..4e-4,
        router_rate in 0f64..4e-4,
        transient_fraction in 0f64..1.0,
        transient_duration in 50u64..300,
        seed in 0u64..1_000_000,
        chunk in 80u64..320,
    ) {
        let pattern = TrafficPattern::ALL[pattern_idx];
        let faults = FaultConfig::none().with_hazard(HazardConfig {
            link_rate,
            router_rate,
            transient_fraction,
            transient_duration,
        });
        let cfg = faulted_grid_cfg(kind, routing, gated, faults);
        let mut sim = NocSimulation::new(
            cfg.clone(),
            scenario_traffic(pattern, rate, cfg.packet_length(), bursty),
            seed,
        );
        run_checked(&mut sim, 4 * chunk + chunk / 2 + 38);
        let w = sim.take_window();
        prop_assert_eq!(w.flits_dropped, sim.total_flits_dropped(), "the window saw every drop");
    }

    /// Nothing escapes the ledger through failures: exact flit conservation
    /// at every pause point, with the drop counter absorbing exactly the
    /// flits that died inside failed components.
    #[test]
    fn conservation_through_fault_storms(
        kind in prop_oneof![Just(TopologyKind::Mesh), Just(TopologyKind::Torus)],
        routing in prop_oneof![Just(RoutingKind::Xy), Just(RoutingKind::MinimalAdaptive)],
        gated in prop_oneof![Just(false), Just(true)],
        rate in 0.02f64..0.15,
        transient_fraction in 0f64..1.0,
        seed in 0u64..1_000_000,
    ) {
        // An aggressive storm plus one scheduled router death under load, so
        // both the hazard path and the schedule path feed the same ledger.
        let faults = FaultConfig::scheduled(vec![FaultEvent::transient(
            FaultTarget::Router { node: 5 },
            700,
            400,
        )])
        .with_hazard(HazardConfig {
            link_rate: 3e-4,
            router_rate: 3e-4,
            transient_fraction,
            transient_duration: 150,
        });
        let cfg = faulted_grid_cfg(kind, routing, gated, faults);
        let mut sim = NocSimulation::new(
            cfg.clone(),
            scenario_traffic(TrafficPattern::Uniform, rate, cfg.packet_length(), true),
            seed,
        );
        for pause in 0..6 {
            sim.run_cycles(1_000);
            prop_assert_eq!(sim.check_invariants(), Ok(()), "pause {}", pause);
        }
        prop_assert!(sim.total_packets_delivered() > 0, "the network must make progress");
    }

    /// An empty fault configuration allocates no fault state and reproduces
    /// the plain simulator bit for bit, window by window.
    #[test]
    fn zero_faults_are_bit_identical(
        kind in prop_oneof![Just(TopologyKind::Mesh), Just(TopologyKind::Torus)],
        rate in 0.02f64..0.3,
        seed in 0u64..1_000_000,
    ) {
        let plain = NetworkConfig::builder()
            .mesh(4, 4)
            .topology(kind)
            .virtual_channels(2)
            .buffer_depth(4)
            .packet_length(4)
            .build()
            .unwrap();
        let empty = plain.to_builder().faults(FaultConfig::none()).build().unwrap();
        let mut a = NocSimulation::new(
            plain.clone(),
            scenario_traffic(TrafficPattern::Uniform, rate, 4, false),
            seed,
        );
        let mut b = NocSimulation::new(
            empty,
            scenario_traffic(TrafficPattern::Uniform, rate, 4, false),
            seed,
        );
        for _ in 0..4 {
            a.run_cycles(400);
            b.run_cycles(400);
            prop_assert_eq!(a.take_window(), b.take_window());
            prop_assert_eq!(a.take_activity(), b.take_activity());
        }
        prop_assert_eq!(a.stats(), b.stats());
        prop_assert_eq!(b.total_flits_dropped(), 0);
        prop_assert_eq!(b.reachable_pairs_fraction(), 1.0);
    }
}

/// The issue's acceptance criterion, pinned: a permanent link fault on the
/// unique XY path of a flow strands dimension-order routing completely,
/// while minimal-adaptive keeps delivering every packet between the still
/// fully connected pair — sustained progress in every window, zero drops,
/// and no unbounded backlog.
#[test]
fn adaptive_delivers_between_connected_pairs_where_xy_strands() {
    // Kill the 5→6 link before any traffic: the XY route 4→7 crosses it.
    let faults = FaultConfig::scheduled(vec![FaultEvent::permanent(
        FaultTarget::Link { node: 5, dir: Direction::East },
        0,
    )]);
    let traffic = |cfg: &NetworkConfig| {
        let mut rates = vec![vec![0.0; 16]; 16];
        rates[4][7] = 0.2;
        Box::new(MatrixTraffic::new(rates, cfg.packet_length()))
    };
    let xy_cfg = faulted_grid_cfg(TopologyKind::Mesh, RoutingKind::Xy, false, faults.clone());
    let ad_cfg =
        faulted_grid_cfg(TopologyKind::Mesh, RoutingKind::MinimalAdaptive, false, faults);
    let mut xy = NocSimulation::new(xy_cfg.clone(), traffic(&xy_cfg), 3);
    let mut adaptive = NocSimulation::new(ad_cfg.clone(), traffic(&ad_cfg), 3);

    let mut delivered_last = 0;
    for chunk in 0..8 {
        xy.run_cycles(1_000);
        adaptive.run_cycles(1_000);
        let delivered = adaptive.total_packets_delivered();
        assert!(delivered > delivered_last, "adaptive stalled in chunk {chunk}");
        delivered_last = delivered;
    }

    // A single dead link leaves the mesh fully connected, so every pair is
    // "still connected" — adaptive must serve all of them.
    assert_eq!(adaptive.reachable_pairs_fraction(), 1.0);
    assert_eq!(adaptive.total_flits_dropped(), 0, "a detour is not a drop");
    let plen = ad_cfg.packet_length() as u64;
    let in_network = adaptive.queued_source_flits() as u64
        + adaptive.buffered_network_flits() as u64
        + adaptive.in_flight_flits() as u64;
    assert_eq!(
        adaptive.total_packets_delivered() * plen + in_network,
        adaptive.total_flits_generated(),
        "everything generated is either delivered or still moving"
    );
    assert!(
        in_network < 16 * plen,
        "the detour path keeps up with the offered load ({in_network} flits backlogged)"
    );

    // Dimension-order routing has exactly one path, and it is dead.
    assert_eq!(xy.reachable_pairs_fraction(), 1.0, "the topology itself is still whole");
    assert_eq!(xy.total_packets_delivered(), 0, "XY cannot route around the dead link");
    assert!(xy.queued_source_flits() + xy.buffered_network_flits() > 0, "XY strands flits");
    assert_eq!(xy.check_invariants(), Ok(()), "stranded XY flow");
    assert_eq!(adaptive.check_invariants(), Ok(()), "detoured adaptive flow");
}

/// Escape-VC deadlock freedom under sustained transient-link storms: the
/// adaptive class may detour arbitrarily, but every blocked head keeps being
/// re-offered the dimension-ordered escape class, so the network keeps
/// delivering through link flaps on both mesh and torus — and link fences
/// only ever stall flits, never drop them.
#[test]
fn escape_vcs_keep_the_network_live_through_link_storms() {
    for (kind, seed) in
        [(TopologyKind::Mesh, 7u64), (TopologyKind::Torus, 11), (TopologyKind::Torus, 2015)]
    {
        let faults = FaultConfig::none().with_hazard(HazardConfig {
            link_rate: 5e-4,
            router_rate: 0.0,
            transient_fraction: 1.0,
            transient_duration: 200,
        });
        let cfg = faulted_grid_cfg(kind, RoutingKind::MinimalAdaptive, false, faults);
        let mut sim = NocSimulation::new(
            cfg.clone(),
            scenario_traffic(TrafficPattern::Uniform, 0.08, cfg.packet_length(), false),
            seed,
        );
        let mut delivered_last = 0;
        for chunk in 0..10 {
            sim.run_cycles(1_500);
            let delivered = sim.total_packets_delivered();
            assert!(
                delivered > delivered_last,
                "{}/seed {seed}: no progress in chunk {chunk} — wedged under link flaps",
                kind.name()
            );
            delivered_last = delivered;
            assert_eq!(sim.check_invariants(), Ok(()), "{}/seed {seed}", kind.name());
        }
        assert_eq!(
            sim.total_flits_dropped(),
            0,
            "{}/seed {seed}: transient link fences must stall, not drop",
            kind.name()
        );
    }
}
