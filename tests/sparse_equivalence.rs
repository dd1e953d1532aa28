//! Suite for the sparse activity-tracked simulation core.
//!
//! The sparse engine (active-router and pending-source worklists, two
//! timing wheels) finds its work by inference: a router or source missing
//! from a worklist would silently stop moving traffic. Five contracts are
//! pinned here:
//!
//! 1. **Worklists checked after every tick** — randomized scenarios from the
//!    PR-2 grid (mesh/torus × every pattern × Bernoulli/bursty injection,
//!    random link and credit latencies, mid-run frequency changes) are
//!    stepped tick by tick and [`NocSimulation::check_invariants`] recounts
//!    every worklist, counter and ledger after each one.
//! 2. **Quiescence invariant** — the active-router worklist is empty exactly
//!    when no flit is buffered; a drained network is quiescent (no buffered,
//!    queued, or in-flight payloads) and stays so at zero cost.
//! 3. **RNG-stream identity** — the generation short-circuit for NoC cycles in
//!    which zero node cycles complete performs zero RNG draws.
//! 4. **Event-horizon skipping** — jumping the clock over quiescent spans
//!    ([`NocSimulation::set_event_skipping`]) is a
//!    pure scheduling optimization: randomized differentials across
//!    gating × faults × islands × bursty injection (including a
//!    quiescent-then-burst source that forces long horizon jumps) pin it
//!    bit-identical to base-tick stepping.
//! 5. **Island-thread parity** — per-island parallel stepping
//!    ([`NocSimulation::run_cycles_with_workers`]) is
//!    pinned bit-identical to the serial step on the golden scenarios.

mod common;
use common::{run_checked, QuiescentThenBurst};

use noc_sim::{
    BurstyTraffic, FaultConfig, GatingConfig, HazardConfig, Hertz, MatrixTraffic, NetworkConfig,
    NocSimulation, RegionLayout, RoutingKind, SyntheticTraffic, Topology, TopologyKind,
    TrafficPattern, TrafficSpec,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A 4×4 grid of either topology with randomized channel latencies — every
/// pattern in [`TrafficPattern::ALL`] is valid on it (square, power-of-two
/// node count).
fn grid_cfg(kind: TopologyKind, link_latency: u64, credit_latency: u64) -> NetworkConfig {
    // `.mesh(4, 4)` sets the dimensions AND resets the kind to Mesh, so the
    // topology override must come after it.
    NetworkConfig::builder()
        .mesh(4, 4)
        .topology(kind)
        .virtual_channels(2)
        .buffer_depth(4)
        .packet_length(4)
        .link_latency(link_latency)
        .credit_latency(credit_latency)
        .build()
        .expect("4x4 grid configurations are valid")
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

/// Runs `sim` through the window schedule with `run`, returning the window
/// sequence. A frequency change after the second window exercises the
/// dual-clock path (including NoC cycles with zero completed node cycles
/// after the change is reverted — the NoC never exceeds the node clock here,
/// but the windows still cover two different clock ratios).
fn window_sequence(
    sim: &mut NocSimulation,
    chunks: &[u64],
    run: fn(&mut NocSimulation, u64),
) -> Vec<noc_sim::WindowMeasurement> {
    let mut windows = Vec::with_capacity(chunks.len());
    for (i, &cycles) in chunks.iter().enumerate() {
        if i == 2 {
            sim.set_noc_frequency(Hertz::from_mhz(500.0));
        }
        if i == 4 {
            sim.set_noc_frequency(Hertz::from_ghz(1.0));
        }
        run(sim, cycles);
        windows.push(sim.take_window());
    }
    windows
}

proptest! {
    #![proptest_config(ProptestConfig::default())]

    /// Named for the dense reference loop this grid was once stepped beside:
    /// across the randomized scenario grid the worklists, counters and
    /// ledgers hold after every tick.
    #[test]
    fn sparse_and_dense_stepping_are_bit_identical(
        kind in prop_oneof![Just(TopologyKind::Mesh), Just(TopologyKind::Torus)],
        pattern_idx in 0usize..TrafficPattern::ALL.len(),
        bursty in prop_oneof![Just(false), Just(true)],
        rate in 0.02f64..0.35,
        link_latency in 1u64..=3,
        credit_latency in 1u64..=2,
        seed in 0u64..1_000_000,
        chunk in 80u64..320,
    ) {
        let pattern = TrafficPattern::ALL[pattern_idx];
        let cfg = grid_cfg(kind, link_latency, credit_latency);
        let mut sim = NocSimulation::new(
            cfg.clone(),
            scenario_traffic(pattern, rate, cfg.packet_length(), bursty),
            seed,
        );
        let chunks = [chunk, 2 * chunk, chunk / 2 + 1, chunk, chunk + 37, chunk];
        let windows = window_sequence(&mut sim, &chunks, run_checked);
        prop_assert!(windows.iter().map(|w| w.flits_generated).sum::<u64>() > 0);
    }

    /// The active-router worklist is empty exactly when no flit is buffered,
    /// and a drained network satisfies the full quiescence contract.
    #[test]
    fn quiescence_invariant_holds_through_drain(
        kind in prop_oneof![Just(TopologyKind::Mesh), Just(TopologyKind::Torus)],
        budget in 5u64..60,
        rate in 0.05f64..0.5,
        seed in 0u64..1_000_000,
    ) {
        let cfg = grid_cfg(kind, 1, 1);
        let traffic = FiniteTraffic { budget, rate, packet_length: cfg.packet_length() };
        let mut sim = NocSimulation::new(cfg.clone(), Box::new(traffic), seed);
        let mut drained_at = None;
        for chunk in 0..60 {
            sim.run_cycles(50);
            // The worklists hold at every observation point, loaded or not.
            prop_assert_eq!(sim.check_invariants(), Ok(()), "chunk {}", chunk);
            if sim.is_quiescent() {
                drained_at = Some(chunk);
                break;
            }
        }
        prop_assert!(drained_at.is_some(), "a finite workload must drain within 3000 cycles");
        // The quiescence contract: nothing buffered, queued or in flight, and
        // every generated packet fully delivered.
        prop_assert_eq!(sim.active_router_count(), 0);
        prop_assert_eq!(sim.buffered_network_flits(), 0);
        prop_assert_eq!(sim.queued_source_flits(), 0);
        prop_assert_eq!(sim.in_flight_flits(), 0);
        prop_assert_eq!(sim.in_flight_credits(), 0);
        prop_assert_eq!(
            sim.total_packets_delivered() * cfg.packet_length() as u64,
            sim.total_flits_generated(),
            "a drained network has delivered every generated flit"
        );
        // A quiescent network stays quiescent, and its windows show pure
        // clock progress with zero traffic.
        let _ = sim.take_window();
        sim.run_cycles(500);
        prop_assert!(sim.is_quiescent());
        let w = sim.take_window();
        prop_assert_eq!(w.noc_cycles, 500);
        prop_assert_eq!(w.flits_generated, 0);
        prop_assert_eq!(w.flits_injected, 0);
        prop_assert_eq!(w.flits_ejected, 0);
    }
}

/// Traffic that offers Bernoulli uniform load for the first `budget`
/// node-cycle sweeps and then goes silent — lets a run drain completely.
#[derive(Debug)]
struct FiniteTraffic {
    budget: u64,
    rate: f64,
    packet_length: usize,
}

impl TrafficSpec for FiniteTraffic {
    fn packet_length(&self) -> usize {
        self.packet_length
    }
    fn offered_load(&self) -> f64 {
        self.rate
    }
    fn maybe_generate(
        &mut self,
        src: usize,
        _node_cycle: u64,
        topo: &Topology,
        rng: &mut StdRng,
    ) -> Option<usize> {
        if self.budget == 0 {
            return None;
        }
        if src + 1 == topo.node_count() {
            self.budget -= 1;
        }
        use rand::Rng;
        let p = self.rate / self.packet_length as f64;
        if rng.gen_bool(p) {
            TrafficPattern::Uniform.destination(src, topo, rng)
        } else {
            None
        }
    }
}

/// Regression for the generation short-circuit: when a NoC cycle completes
/// zero node-clock cycles, the generation phase is skipped entirely — which
/// is only sound because `generate_tick` with zero node cycles performs zero
/// RNG draws and leaves the generator as it was. Pinned directly on every
/// built-in source, then end-to-end on a configuration whose NoC clock
/// outpaces the node clock, its invariants checked after every window.
#[test]
fn zero_node_cycle_short_circuit_preserves_the_rng_stream() {
    // Direct: generate_tick(.., node_cycles = 0, ..) must emit nothing and
    // leave the shared RNG and the generator's own state untouched.
    let topo = Topology::with_kind(TopologyKind::Mesh, 4, 4);
    let nodes = topo.node_count();
    let sources: Vec<Box<dyn TrafficSpec>> = vec![
        Box::new(SyntheticTraffic::new(TrafficPattern::Uniform, 0.9, 4)),
        Box::new(BurstyTraffic::new(TrafficPattern::Uniform, 0.4, 4, 6.0, 3.0)),
        Box::new(MatrixTraffic::new(vec![vec![0.02; nodes]; nodes], 4)),
    ];
    for mut traffic in sources {
        let mut rng = StdRng::seed_from_u64(99);
        // Bursty sources build their per-node state lazily: warm it up so the
        // zero-cycle tick is compared against a live generator.
        traffic.generate_tick(nodes, 0, 3, &topo, &mut rng, &mut |_, _, _| {});
        let (rng_before, state_before) = (rng.clone(), format!("{traffic:?}"));
        let mut emitted = 0;
        traffic.generate_tick(nodes, 3, 0, &topo, &mut rng, &mut |_, _, _| emitted += 1);
        assert_eq!(emitted, 0, "zero node cycles must generate nothing: {state_before}");
        assert_eq!(rng, rng_before, "zero node cycles must draw nothing from the RNG");
        assert_eq!(format!("{traffic:?}"), state_before, "generator state must not move");
    }

    // End to end: node clock at 400 MHz under a 1 GHz NoC clock means ~60 %
    // of NoC cycles complete zero node cycles, so the short-circuit fires
    // constantly; every window must still leave the engine consistent.
    let cfg = NetworkConfig::builder()
        .mesh(4, 4)
        .virtual_channels(2)
        .buffer_depth(4)
        .packet_length(4)
        .node_frequency(Hertz::from_mhz(400.0))
        .build()
        .unwrap();
    let mk = || Box::new(SyntheticTraffic::new(TrafficPattern::Uniform, 0.2, 4));
    let mut sim = NocSimulation::new(cfg, mk(), 7);
    let mut windows = Vec::new();
    for _ in 0..5 {
        sim.run_cycles(400);
        assert_eq!(sim.check_invariants(), Ok(()));
        windows.push(sim.take_window());
    }
    // The scenario really exercises the skip: fewer node cycles than NoC
    // cycles, yet traffic still flows.
    let node_cycles: u64 = windows.iter().map(|w| w.node_cycles).sum();
    let noc_cycles: u64 = windows.iter().map(|w| w.noc_cycles).sum();
    assert!(node_cycles < noc_cycles / 2, "node clock must lag the NoC clock");
    assert!(windows.iter().map(|w| w.flits_ejected).sum::<u64>() > 0);
}

// ---------------------------------------------------------------------------
// Event-horizon skipping differentials
// ---------------------------------------------------------------------------

/// A 4×4 mesh exercising the chosen subsystem combination: power gating,
/// a transient-fault hazard with adaptive routing, and/or quadrant
/// voltage-frequency islands.
fn subsystem_cfg(gated: bool, faulted: bool, islands: bool) -> NetworkConfig {
    let mut b = NetworkConfig::builder().mesh(4, 4).virtual_channels(2).buffer_depth(4).packet_length(4);
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

proptest! {
    #![proptest_config(ProptestConfig::default())]

    /// Event-horizon skipping is bit-identical to base-tick stepping across
    /// every subsystem combination: gating (sleep/wake due-heaps), a fault
    /// hazard (next-event draws), voltage-frequency islands (clock
    /// dividers, optionally detuned mid-run) and bursty injection.
    #[test]
    fn event_skipping_is_bit_identical_across_subsystems(
        gated in prop_oneof![Just(false), Just(true)],
        faulted in prop_oneof![Just(false), Just(true)],
        islands in prop_oneof![Just(false), Just(true)],
        bursty in prop_oneof![Just(false), Just(true)],
        rate in 0.0f64..0.3,
        seed in 0u64..1_000_000,
        chunk in 80u64..320,
    ) {
        let cfg = subsystem_cfg(gated, faulted, islands);
        let mk = || scenario_traffic(TrafficPattern::Uniform, rate, 4, bursty);
        let mut skipping = NocSimulation::new(cfg.clone(), mk(), seed);
        let mut stepping = NocSimulation::new(cfg.clone(), mk(), seed);
        skipping.set_event_skipping(true);
        stepping.set_event_skipping(false);
        if islands {
            // A detuned island keeps the divider wheels busy across jumps.
            skipping.set_island_frequency(2, Hertz::from_mhz(400.0));
            stepping.set_island_frequency(2, Hertz::from_mhz(400.0));
        }
        let chunks = [chunk, 2 * chunk, chunk / 2 + 1, chunk + 37, chunk];
        let ws = window_sequence(&mut skipping, &chunks, NocSimulation::run_cycles);
        let wn = window_sequence(&mut stepping, &chunks, NocSimulation::run_cycles);
        prop_assert_eq!(ws, wn, "windows diverged (gated={} faulted={} islands={} bursty={} seed={})",
            gated, faulted, islands, bursty, seed);
        prop_assert_eq!(skipping.stats(), stepping.stats());
        prop_assert_eq!(skipping.total_packets_delivered(), stepping.total_packets_delivered());
        prop_assert_eq!(skipping.buffered_network_flits(), stepping.buffered_network_flits());
        prop_assert_eq!(skipping.in_flight_flits(), stepping.in_flight_flits());
        prop_assert_eq!(skipping.in_flight_credits(), stepping.in_flight_credits());
        prop_assert_eq!(stepping.skipped_cycle_count(), 0, "disabled skipping must not skip");
    }

    /// Quiescent-then-burst traffic, skipping and stepping: the long silent
    /// prelude must be jumped (not stepped), and the burst must land on the
    /// exact same cycle with the exact same RNG stream. The activity is
    /// compared too: a jump over a due sleep timer gates the idle routers
    /// late, which no window shows but the gated residency does.
    #[test]
    fn quiescent_then_burst_jumps_the_horizon_bit_identically(
        gated in prop_oneof![Just(false), Just(true)],
        silence in 500u64..3_000,
        burst in 100u64..400,
        rate in 0.2f64..0.8,
        seed in 0u64..1_000_000,
    ) {
        let cfg = subsystem_cfg(gated, false, false);
        let mk = || Box::new(QuiescentThenBurst {
            burst_start: silence,
            burst_end: silence + burst,
            rate,
            packet_length: 4,
        });
        let mut skipping = NocSimulation::new(cfg.clone(), mk(), seed);
        let mut stepping = NocSimulation::new(cfg.clone(), mk(), seed);
        skipping.set_event_skipping(true);
        stepping.set_event_skipping(false);
        // One window across the silence, one across the burst, one to drain.
        let chunks = [silence, burst, 1_000];
        for &cycles in &chunks {
            skipping.run_cycles(cycles);
            stepping.run_cycles(cycles);
            prop_assert_eq!(skipping.take_window(), stepping.take_window());
            prop_assert_eq!(skipping.take_activity(), stepping.take_activity());
        }
        prop_assert_eq!(skipping.stats(), stepping.stats());
        prop_assert!(
            skipping.total_packets_delivered() > 0,
            "the burst must inject traffic (rate {rate})"
        );
        // The silent prelude really was jumped, not stepped.
        prop_assert!(
            skipping.skipped_cycle_count() >= silence / 2,
            "expected a long horizon jump over {} silent cycles, skipped only {}",
            silence, skipping.skipped_cycle_count()
        );
    }
}

// ---------------------------------------------------------------------------
// Per-island parallel stepping parity
// ---------------------------------------------------------------------------

/// Multi-threaded island stepping pinned against the single-threaded golden:
/// the quadrant scenario stepped serially and with 2 and 4 workers must
/// produce bit-identical windows, island windows and aggregate stats —
/// including across a mid-run per-island frequency change.
#[test]
fn parallel_island_stepping_matches_the_serial_golden() {
    let cfg = NetworkConfig::builder()
        .mesh(4, 4)
        .virtual_channels(2)
        .buffer_depth(4)
        .packet_length(5)
        .regions(RegionLayout::Quadrants)
        .build()
        .unwrap();
    let mk = || Box::new(SyntheticTraffic::new(TrafficPattern::Uniform, 0.12, 5));
    let mut serial = NocSimulation::new(cfg.clone(), mk(), 2015);
    let mut threaded2 = NocSimulation::new(cfg.clone(), mk(), 2015);
    let mut threaded4 = NocSimulation::new(cfg.clone(), mk(), 2015);
    for window in 0..6 {
        if window == 2 {
            for sim in [&mut serial, &mut threaded2, &mut threaded4] {
                sim.set_island_frequency(1, Hertz::from_mhz(500.0));
            }
        }
        serial.run_cycles_with_workers(500, 1);
        threaded2.run_cycles_with_workers(500, 2);
        threaded4.run_cycles_with_workers(500, 4);
        let golden = serial.take_window();
        assert_eq!(golden, threaded2.take_window(), "2-worker window {window} diverged");
        assert_eq!(golden, threaded4.take_window(), "4-worker window {window} diverged");
        let island_golden = serial.take_island_windows();
        assert_eq!(island_golden, threaded2.take_island_windows());
        assert_eq!(island_golden, threaded4.take_island_windows());
    }
    assert_eq!(serial.stats(), threaded2.stats());
    assert_eq!(serial.stats(), threaded4.stats());
    assert_eq!(serial.total_packets_delivered(), threaded4.total_packets_delivered());
    assert!(serial.total_packets_delivered() > 0, "the golden scenario must carry traffic");
}
