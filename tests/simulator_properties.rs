//! Property-based tests of the simulation substrate, spanning `noc-sim` and
//! the clock/latency semantics the DVFS study depends on.

use noc_sim::{
    Hertz, NetworkConfig, NocSimulation, SyntheticTraffic, TrafficPattern, TrafficSpec,
};
use proptest::prelude::*;

fn arbitrary_config() -> impl Strategy<Value = NetworkConfig> {
    (2usize..=4, 2usize..=4, 1usize..=4, 2usize..=6, 1usize..=8).prop_map(
        |(w, h, vcs, depth, packet)| {
            NetworkConfig::builder()
                .mesh(w, h)
                .virtual_channels(vcs)
                .buffer_depth(depth)
                .packet_length(packet)
                .build()
                .expect("generated configurations are valid")
        },
    )
}

fn arbitrary_pattern() -> impl Strategy<Value = TrafficPattern> {
    prop_oneof![
        Just(TrafficPattern::Uniform),
        Just(TrafficPattern::Tornado),
        Just(TrafficPattern::BitComplement),
        Just(TrafficPattern::Transpose),
        Just(TrafficPattern::Neighbor),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// No flit is ever created or destroyed: everything generated is either
    /// still queued at a source, buffered in the network, in flight, or
    /// delivered — for any configuration, pattern, rate and seed (the flit
    /// ledger of `check_invariants`, with the rest of its clauses).
    #[test]
    fn flits_are_conserved(
        cfg in arbitrary_config(),
        pattern in arbitrary_pattern(),
        rate in 0.01f64..0.3,
        seed in 0u64..1_000,
    ) {
        let packet_length = cfg.packet_length();
        let traffic = SyntheticTraffic::new(pattern, rate, packet_length);
        let mut sim = NocSimulation::new(cfg, Box::new(traffic), seed);
        sim.run_cycles(2_000);
        prop_assert_eq!(sim.check_invariants(), Ok(()));
    }

    /// Same seed, same configuration → bit-identical statistics.
    #[test]
    fn simulation_is_deterministic(
        cfg in arbitrary_config(),
        rate in 0.01f64..0.25,
        seed in 0u64..1_000,
    ) {
        let packet_length = cfg.packet_length();
        let t1 = SyntheticTraffic::new(TrafficPattern::Uniform, rate, packet_length);
        let t2 = SyntheticTraffic::new(TrafficPattern::Uniform, rate, packet_length);
        let mut a = NocSimulation::new(cfg.clone(), Box::new(t1), seed);
        let mut b = NocSimulation::new(cfg, Box::new(t2), seed);
        a.run_cycles(1_500);
        b.run_cycles(1_500);
        prop_assert_eq!(a.stats(), b.stats());
        prop_assert_eq!(a.total_flits_generated(), b.total_flits_generated());
    }

    /// The wall-clock time of a run equals cycles / frequency, whatever the
    /// frequency chosen inside the allowed range — the arithmetic behind
    /// every "delay in ns" number of the paper.
    #[test]
    fn wall_time_matches_cycles_over_frequency(
        cfg in arbitrary_config(),
        mhz in 333.0f64..1_000.0,
        cycles in 100u64..3_000,
    ) {
        let packet_length = cfg.packet_length();
        let traffic = SyntheticTraffic::new(TrafficPattern::Uniform, 0.05, packet_length);
        let mut sim = NocSimulation::new(cfg, Box::new(traffic), 1);
        sim.set_noc_frequency(Hertz::from_mhz(mhz));
        sim.run_cycles(cycles);
        let expected_ns = cycles as f64 / (mhz / 1.0e3);
        prop_assert!((sim.wall_time().as_ns() - expected_ns).abs() < 1e-6 * expected_ns + 1e-9);
    }

    /// Delivered packets never beat the physics: latency in cycles is at
    /// least the minimal hop count plus the packet serialisation length.
    #[test]
    fn latency_respects_lower_bounds(
        cfg in arbitrary_config(),
        rate in 0.01f64..0.15,
        seed in 0u64..100,
    ) {
        let packet_length = cfg.packet_length();
        let traffic = SyntheticTraffic::new(TrafficPattern::Uniform, rate, packet_length);
        let mut sim = NocSimulation::new(cfg, Box::new(traffic), seed);
        sim.run_cycles(3_000);
        if sim.stats().packets > 0 {
            let avg = sim.stats().avg_latency_cycles().unwrap();
            // Any packet needs at least packet_length cycles of serialisation
            // plus one hop through a router pipeline.
            prop_assert!(
                avg >= packet_length as f64,
                "average latency {avg} below the serialisation bound {packet_length}"
            );
        }
    }

    /// Offered load below ~10% of capacity is always sustained: the accepted
    /// throughput tracks the offered load.
    #[test]
    fn light_load_is_always_sustained(
        cfg in arbitrary_config(),
        pattern in arbitrary_pattern(),
        seed in 0u64..100,
    ) {
        let packet_length = cfg.packet_length();
        let rate = 0.04;
        let traffic = SyntheticTraffic::new(pattern, rate, packet_length);
        let offered = traffic.offered_load();
        let mut sim = NocSimulation::new(cfg, Box::new(traffic), seed);
        sim.run_cycles(2_000);
        let _ = sim.take_window();
        sim.run_cycles(4_000);
        let window = sim.take_window();
        let throughput = window.throughput(sim.node_count());
        // Patterns where some nodes do not inject (e.g. transpose diagonal)
        // offer less than `rate`; compare against the measured offered load.
        prop_assert!(
            throughput >= 0.7 * offered.min(window.node_injection_rate(sim.node_count())),
            "throughput {throughput} too low for offered {offered}"
        );
    }
}
