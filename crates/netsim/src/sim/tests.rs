//! Unit tests of the simulation driver.

use super::*;
use crate::traffic::{SyntheticTraffic, TrafficPattern};
use crate::units::Hertz;

fn small_cfg() -> NetworkConfig {
    NetworkConfig::builder()
        .mesh(4, 4)
        .virtual_channels(2)
        .buffer_depth(4)
        .packet_length(4)
        .build()
        .unwrap()
}

fn sim_with(rate: f64, pattern: TrafficPattern, cfg: NetworkConfig, seed: u64) -> NocSimulation {
    let traffic = SyntheticTraffic::new(pattern, rate, cfg.packet_length());
    NocSimulation::new(cfg, Box::new(traffic), seed)
}

#[test]
fn packets_are_delivered_under_light_load() {
    let mut sim = sim_with(0.05, TrafficPattern::Uniform, small_cfg(), 1);
    sim.run_cycles(5_000);
    assert!(sim.total_packets_delivered() > 50, "light load must deliver packets");
    let stats = sim.stats();
    let avg = stats.avg_latency_cycles().unwrap();
    assert!(avg > 5.0 && avg < 120.0, "zero-load-ish latency should be moderate, got {avg}");
}

#[test]
fn flit_conservation_after_drain() {
    let mut sim = sim_with(0.08, TrafficPattern::Uniform, small_cfg(), 2);
    sim.run_cycles(3_000);
    // Everything generated is queued at a source, buffered in the network,
    // in flight or received by a sink: the flit ledger.
    assert!(sim.sink.flits_received() > 0);
    assert_eq!(sim.check_invariants(), Ok(()));
}

#[test]
fn latency_grows_with_load() {
    let cfg = small_cfg();
    let mut low = sim_with(0.05, TrafficPattern::Uniform, cfg.clone(), 3);
    let mut high = sim_with(0.30, TrafficPattern::Uniform, cfg, 3);
    low.run_cycles(8_000);
    high.run_cycles(8_000);
    let l = low.stats().avg_latency_cycles().unwrap();
    let h = high.stats().avg_latency_cycles().unwrap();
    assert!(h > l, "latency must grow with offered load ({l} vs {h})");
}

#[test]
fn slowing_the_clock_keeps_cycles_but_stretches_time() {
    let cfg = small_cfg();
    let mut fast = sim_with(0.05, TrafficPattern::Uniform, cfg.clone(), 4);
    let mut slow = sim_with(0.05, TrafficPattern::Uniform, cfg, 4);
    slow.set_noc_frequency(Hertz::from_mhz(500.0));
    fast.run_cycles(4_000);
    slow.run_cycles(4_000);
    // Same number of NoC cycles, but the slow run spans twice the time.
    assert!((slow.wall_time().as_ns() - 2.0 * fast.wall_time().as_ns()).abs() < 1.0);
    // The slow NoC sees a higher per-NoC-cycle injection rate, therefore
    // equal-or-higher latency in cycles and clearly higher delay in ns.
    let d_fast = fast.stats().avg_delay_ns().unwrap();
    let d_slow = slow.stats().avg_delay_ns().unwrap();
    assert!(d_slow > d_fast * 1.5, "delay must stretch when the clock slows ({d_fast} -> {d_slow})");
}

#[test]
fn deterministic_given_a_seed() {
    let cfg = small_cfg();
    let mut a = sim_with(0.1, TrafficPattern::Uniform, cfg.clone(), 99);
    let mut b = sim_with(0.1, TrafficPattern::Uniform, cfg, 99);
    a.run_cycles(3_000);
    b.run_cycles(3_000);
    assert_eq!(a.total_packets_delivered(), b.total_packets_delivered());
    assert_eq!(a.stats(), b.stats());
}

#[test]
fn window_measurements_cover_the_run() {
    let mut sim = sim_with(0.1, TrafficPattern::Uniform, small_cfg(), 5);
    sim.run_cycles(2_000);
    let w1 = sim.take_window();
    assert_eq!(w1.noc_cycles, 2_000);
    assert!(w1.flits_generated > 0);
    assert!(w1.packets_ejected > 0);
    assert!(w1.avg_delay_ns().unwrap() > 0.0);
    // The rate estimate should be near the configured 0.1 flits/node-cycle.
    let rate = w1.node_injection_rate(sim.node_count());
    assert!((rate - 0.1).abs() < 0.03, "measured rate {rate} too far from 0.1");
    // A second window starts from scratch.
    sim.run_cycles(100);
    let w2 = sim.take_window();
    assert_eq!(w2.noc_cycles, 100);
}

#[test]
fn activity_counters_accumulate_and_reset() {
    let mut sim = sim_with(0.1, TrafficPattern::Uniform, small_cfg(), 6);
    sim.run_cycles(2_000);
    let act = sim.take_activity();
    let total = act.total();
    assert!(total.buffer_writes > 0);
    assert!(total.crossbar_traversals > 0);
    assert_eq!(total.cycles, 2_000 * sim.node_count() as u64);
    let empty = sim.take_activity();
    assert_eq!(empty.total().buffer_writes, 0);
    assert_eq!(empty.total().cycles, 0);
}

#[test]
fn reset_activity_discards_the_window() {
    let mut sim = sim_with(0.1, TrafficPattern::Uniform, small_cfg(), 6);
    sim.run_cycles(500);
    sim.reset_activity();
    sim.run_cycles(250);
    let act = sim.take_activity();
    assert_eq!(act.total().cycles, 250 * sim.node_count() as u64);
}

#[test]
fn deterministic_pattern_traffic_flows() {
    for pattern in [
        TrafficPattern::Tornado,
        TrafficPattern::BitComplement,
        TrafficPattern::Transpose,
        TrafficPattern::Neighbor,
    ] {
        let mut sim = sim_with(0.1, pattern, small_cfg(), 7);
        sim.run_cycles(5_000);
        assert!(
            sim.total_packets_delivered() > 20,
            "{} should deliver packets",
            pattern.name()
        );
    }
}

#[test]
fn saturation_shows_up_as_growing_source_queues() {
    // Offered load far above capacity: queues must build up.
    let mut sim = sim_with(0.9, TrafficPattern::Uniform, small_cfg(), 8);
    sim.run_cycles(4_000);
    let q1 = sim.queued_source_flits();
    sim.run_cycles(4_000);
    let q2 = sim.queued_source_flits();
    assert!(q2 > q1, "above saturation the source queues keep growing ({q1} -> {q2})");
}

fn torus_cfg() -> NetworkConfig {
    NetworkConfig::builder()
        .torus(4, 4)
        .virtual_channels(2)
        .buffer_depth(4)
        .packet_length(4)
        .build()
        .unwrap()
}

#[test]
fn torus_delivers_packets_under_light_load() {
    let mut sim = sim_with(0.05, TrafficPattern::Uniform, torus_cfg(), 1);
    assert!(sim.topo.is_torus());
    sim.run_cycles(5_000);
    assert!(sim.total_packets_delivered() > 50, "torus light load must deliver packets");
    // Wrap links shorten paths: average latency must not exceed the mesh's.
    let mut mesh = sim_with(0.05, TrafficPattern::Uniform, small_cfg(), 1);
    mesh.run_cycles(5_000);
    let t = sim.stats().avg_latency_cycles().unwrap();
    let m = mesh.stats().avg_latency_cycles().unwrap();
    assert!(t < m, "torus latency {t} should beat mesh latency {m}");
}

#[test]
fn torus_sustains_heavy_adversarial_load_without_deadlock() {
    // Tornado traffic around the rings is the classic torus deadlock
    // scenario: without the dateline VC discipline the wrap-around
    // channel-dependency cycle wedges. Progress must continue throughout.
    for pattern in [TrafficPattern::Tornado, TrafficPattern::Uniform] {
        let mut sim = sim_with(0.6, pattern, torus_cfg(), 3);
        let mut last = 0;
        for chunk in 0..6 {
            sim.run_cycles(2_000);
            let delivered = sim.total_packets_delivered();
            assert!(
                delivered > last,
                "{} on the torus stalled in chunk {chunk} ({last} packets)",
                pattern.name()
            );
            last = delivered;
        }
    }
}

#[test]
fn torus_runs_are_deterministic() {
    let cfg = torus_cfg();
    let mut a = sim_with(0.2, TrafficPattern::Uniform, cfg.clone(), 11);
    let mut b = sim_with(0.2, TrafficPattern::Uniform, cfg, 11);
    a.run_cycles(3_000);
    b.run_cycles(3_000);
    assert_eq!(a.take_window(), b.take_window());
    assert_eq!(a.stats(), b.stats());
}

#[test]
fn bursty_traffic_flows_end_to_end() {
    use crate::traffic::BurstyTraffic;
    let cfg = torus_cfg();
    let traffic =
        BurstyTraffic::new(TrafficPattern::Hotspot, 0.1, cfg.packet_length(), 60.0, 4.0);
    let mut sim = NocSimulation::new(cfg, Box::new(traffic), 5);
    sim.run_cycles(8_000);
    assert!(sim.total_packets_delivered() > 30, "bursty hotspot torus must make progress");
    let rate = sim.take_window().node_injection_rate(sim.node_count());
    assert!((rate - 0.1).abs() < 0.05, "long-run bursty rate {rate} should approach 0.1");
}

#[test]
fn frequency_is_clamped_to_config_range() {
    let mut sim = sim_with(0.1, TrafficPattern::Uniform, small_cfg(), 9);
    sim.set_noc_frequency(Hertz::from_mhz(10.0));
    assert_eq!(sim.noc_frequency(), Hertz::from_mhz(333.0));
    sim.set_noc_frequency(Hertz::from_ghz(5.0));
    assert_eq!(sim.noc_frequency(), Hertz::from_ghz(1.0));
}

#[test]
fn active_worklist_mirrors_buffer_occupancy() {
    let mut sim = sim_with(0.1, TrafficPattern::Uniform, small_cfg(), 21);
    let mut saw_active = false;
    for _ in 0..60 {
        sim.run_cycles(37);
        // The active-set clause: active bit ⇔ the router buffers a flit.
        assert_eq!(sim.check_invariants(), Ok(()));
        saw_active |= sim.active_router_count() > 0;
    }
    assert!(saw_active, "a loaded 4x4 mesh must activate routers at some point");
}

#[test]
fn single_island_is_the_default_and_tracks_the_global_clock() {
    let mut sim = sim_with(0.1, TrafficPattern::Uniform, small_cfg(), 4);
    assert_eq!(sim.island_count(), 1);
    sim.run_cycles(1_000);
    assert_eq!(sim.island_cycle(0), sim.current_cycle());
    assert_eq!(sim.island_frequency(0), sim.noc_frequency());
    // Per-island control degenerates to the global knob.
    sim.set_island_frequency(0, Hertz::from_mhz(500.0));
    assert_eq!(sim.noc_frequency(), Hertz::from_mhz(500.0));
    let windows = sim.take_island_windows();
    assert_eq!(windows.len(), 1);
    let global = sim.take_window();
    assert_eq!(windows[0].noc_cycles, global.noc_cycles);
    assert_eq!(windows[0].flits_generated, global.flits_generated);
    assert_eq!(windows[0].flits_ejected, global.flits_ejected);
}

fn quadrant_cfg() -> NetworkConfig {
    NetworkConfig::builder()
        .mesh(4, 4)
        .virtual_channels(2)
        .buffer_depth(4)
        .packet_length(4)
        .regions(crate::region::RegionLayout::Quadrants)
        .build()
        .unwrap()
}

#[test]
fn slowed_island_completes_fewer_domain_cycles() {
    let mut sim = sim_with(0.05, TrafficPattern::Uniform, quadrant_cfg(), 5);
    assert_eq!(sim.island_count(), 4);
    sim.set_island_frequency(3, Hertz::from_mhz(500.0));
    sim.run_cycles(4_000);
    // Base ticks run at 1 GHz; island 3 fires on half of them.
    assert_eq!(sim.island_cycle(0), 4_000);
    let slow = sim.island_cycle(3);
    assert!((slow as i64 - 2_000).unsigned_abs() <= 1, "expected ~2000, got {slow}");
    let windows = sim.take_island_windows();
    assert_eq!(windows[3].noc_cycles, slow);
    // The slowed island keeps delivering its share of traffic.
    assert!(windows[3].flits_ejected > 0);
}

#[test]
fn returning_to_the_base_rate_clears_fractional_cycle_backlog() {
    // Slow an island, stop mid-fraction (acc = 0.5), restore it to the
    // base rate, then slow it again: the second slowdown must start
    // from a clean divider, not fire early on the stale backlog.
    let mut sim = sim_with(0.0, TrafficPattern::Uniform, quadrant_cfg(), 1);
    sim.set_island_frequency(1, Hertz::from_mhz(500.0));
    sim.run_cycles(3); // fires on tick 2 only; acc ends at 0.5
    assert_eq!(sim.island_cycle(1), 1);
    sim.set_island_frequency(1, Hertz::from_ghz(1.0));
    sim.run_cycles(4);
    assert_eq!(sim.island_cycle(1), 5);
    sim.set_island_frequency(1, Hertz::from_mhz(500.0));
    sim.run_cycles(3);
    // A fresh half-rate divider fires once in 3 ticks (on tick 2); a
    // stale acc of 0.5 would have fired twice (ticks 1 and 3).
    assert_eq!(sim.island_cycle(1), 6);
}

#[test]
fn atomic_retune_preserves_untouched_island_divider_phase() {
    let init = [
        Hertz::from_ghz(1.0),
        Hertz::from_mhz(500.0),
        Hertz::from_mhz(400.0),
        Hertz::from_mhz(400.0),
    ];
    // Swap which island anchors the base rate (0: 1 GHz → 400 MHz,
    // 2: 400 MHz → 1 GHz); island 1 is untouched and mid-fraction.
    let swapped = [
        Hertz::from_mhz(400.0),
        Hertz::from_mhz(500.0),
        Hertz::from_ghz(1.0),
        Hertz::from_mhz(400.0),
    ];
    let mut sim = sim_with(0.0, TrafficPattern::Uniform, quadrant_cfg(), 1);
    sim.set_island_frequencies(&init);
    sim.run_cycles(3); // island 1 fires on tick 2 and owes half a cycle
    assert_eq!(sim.island_cycle(1), 1);
    sim.set_island_frequencies(&swapped);
    sim.run_cycles(1);
    assert_eq!(
        sim.island_cycle(1),
        2,
        "an untouched island's half-cycle backlog must survive an atomic retune"
    );
    // The same retune applied one island at a time dips the base rate
    // to 500 MHz in between, which legitimately resets island 1's
    // divider (it transiently *is* the base) — the control loop
    // therefore applies frequency vectors atomically.
    let mut seq = sim_with(0.0, TrafficPattern::Uniform, quadrant_cfg(), 1);
    seq.set_island_frequencies(&init);
    seq.run_cycles(3);
    seq.set_island_frequency(0, Hertz::from_mhz(400.0));
    seq.set_island_frequency(2, Hertz::from_ghz(1.0));
    seq.run_cycles(1);
    assert_eq!(seq.island_cycle(1), 1, "sequential retune loses the backlog");
}

#[test]
fn island_windows_sum_to_the_global_window() {
    let mut sim = sim_with(0.15, TrafficPattern::Uniform, quadrant_cfg(), 6);
    sim.set_island_frequency(1, Hertz::from_mhz(700.0));
    sim.set_island_frequency(2, Hertz::from_mhz(400.0));
    sim.run_cycles(3_000);
    let islands = sim.take_island_windows();
    let global = sim.take_window();
    assert_eq!(islands.iter().map(|w| w.flits_generated).sum::<u64>(), global.flits_generated);
    assert_eq!(islands.iter().map(|w| w.flits_injected).sum::<u64>(), global.flits_injected);
    assert_eq!(islands.iter().map(|w| w.flits_ejected).sum::<u64>(), global.flits_ejected);
    assert_eq!(islands.iter().map(|w| w.packets_ejected).sum::<u64>(), global.packets_ejected);
    assert_eq!(
        islands.iter().map(|w| w.latency_cycles_sum).sum::<u64>(),
        global.latency_cycles_sum
    );
    for w in &islands {
        assert_eq!(w.wall_time_ps, global.wall_time_ps);
        assert_eq!(w.node_cycles, global.node_cycles);
    }
}

/// Advances `sim` one tick at a time for `cycles` ticks, checking its
/// invariants after every tick.
fn run_checked(sim: &mut NocSimulation, cycles: u64) {
    for _ in 0..cycles {
        sim.run_cycles(1);
        assert_eq!(sim.check_invariants(), Ok(()));
    }
}

/// Named for the dense reference loop this run was once stepped beside: the
/// worklists of a four-island run, every island at its own rate, hold what a
/// scan of every router and source would find — checked after every tick.
#[test]
fn sparse_and_dense_engines_agree_on_multi_island_runs() {
    let mut sim = sim_with(0.12, TrafficPattern::Uniform, quadrant_cfg(), 42);
    for (island, mhz) in [(0usize, 1000.0), (1, 666.0), (2, 500.0), (3, 333.0)] {
        sim.set_island_frequency(island, Hertz::from_mhz(mhz));
    }
    run_checked(&mut sim, 2_000);
    assert!(sim.total_packets_delivered() > 0);
}

#[test]
fn multi_island_network_with_slow_islands_still_drains() {
    // Slowing three of four quadrants must not wedge the network: stop
    // injecting and every in-flight packet completes.
    let cfg = quadrant_cfg();
    let traffic = SyntheticTraffic::new(TrafficPattern::Uniform, 0.1, cfg.packet_length());
    let mut sim = NocSimulation::new(cfg, Box::new(traffic), 9);
    sim.set_island_frequency(1, Hertz::from_mhz(333.0));
    sim.set_island_frequency(2, Hertz::from_mhz(500.0));
    sim.set_island_frequency(3, Hertz::from_mhz(333.0));
    sim.run_cycles(3_000);
    assert!(sim.total_packets_delivered() > 30);
    // A zero-rate tail lets the network drain completely.
    let cfg2 = quadrant_cfg();
    let drained = SyntheticTraffic::new(TrafficPattern::Uniform, 0.0, cfg2.packet_length());
    let mut sim2 = NocSimulation::new(cfg2, Box::new(drained), 9);
    sim2.set_island_frequency(2, Hertz::from_mhz(333.0));
    sim2.run_cycles(500);
    assert!(sim2.is_quiescent());
}

#[test]
fn island_activity_cycles_track_island_clocks() {
    let mut sim = sim_with(0.1, TrafficPattern::Uniform, quadrant_cfg(), 11);
    sim.set_island_frequency(3, Hertz::from_mhz(500.0));
    sim.run_cycles(2_000);
    let act = sim.take_activity();
    let map = sim.region_map().clone();
    for node in 0..sim.node_count() {
        let island = map.island_of(node) as usize;
        assert_eq!(
            act.routers[node].cycles,
            sim.island_cycle(island),
            "router {node} must report its island's domain cycles"
        );
    }
}

fn gated_cfg(threshold: u64, wakeup: u64) -> NetworkConfig {
    NetworkConfig::builder()
        .mesh(4, 4)
        .virtual_channels(2)
        .buffer_depth(4)
        .packet_length(4)
        .gating(crate::gating::GatingConfig::enabled(threshold, wakeup))
        .build()
        .unwrap()
}

#[test]
fn idle_network_gates_every_router_after_the_threshold() {
    let mut sim = sim_with(0.0, TrafficPattern::Uniform, gated_cfg(16, 4), 1);
    assert!(sim.gating_enabled());
    assert_eq!(sim.gated_router_count(), 0);
    sim.run_cycles(8);
    assert_eq!(sim.gated_router_count(), 0, "below the idle threshold nothing gates");
    sim.run_cycles(100);
    assert_eq!(sim.gated_router_count(), sim.node_count(), "a silent network fully gates");
    assert!(sim.is_quiescent());
    for node in 0..sim.node_count() {
        assert_eq!(sim.router_gate_state(node), crate::gating::GateState::Gated);
    }
    let act = sim.take_activity();
    let total = act.total();
    assert_eq!(total.sleep_events, sim.node_count() as u64);
    assert_eq!(total.wake_events, 0);
    assert!(total.gated_cycles > 0);
    for r in &act.routers {
        assert!(r.gated_cycles <= r.cycles);
    }
}

#[test]
fn traffic_wakes_gated_routers_and_loses_no_flits() {
    let mut sim = sim_with(0.02, TrafficPattern::Uniform, gated_cfg(8, 5), 3);
    sim.run_cycles(12_000);
    assert!(sim.total_packets_delivered() > 20, "gated light load still delivers");
    let act = sim.take_activity().total();
    assert!(act.sleep_events > 0, "light load must trigger power-downs");
    assert!(act.wake_events > 0, "arrivals must trigger wakeups");
    // Nothing was lost through the sleep/wake churn: the flit ledger is one
    // of the invariants.
    assert_eq!(sim.check_invariants(), Ok(()));
}

#[test]
fn gating_disabled_is_bit_identical_to_an_ungated_run() {
    let plain = small_cfg();
    let explicit = NetworkConfig::builder()
        .mesh(4, 4)
        .virtual_channels(2)
        .buffer_depth(4)
        .packet_length(4)
        .gating(crate::gating::GatingConfig::disabled())
        .build()
        .unwrap();
    let mut a = sim_with(0.12, TrafficPattern::Uniform, plain, 9);
    let mut b = sim_with(0.12, TrafficPattern::Uniform, explicit, 9);
    for _ in 0..4 {
        a.run_cycles(500);
        b.run_cycles(500);
        assert_eq!(a.take_window(), b.take_window());
    }
    assert_eq!(a.stats(), b.stats());
}

/// Named for the dense reference loop this run was once stepped beside:
/// through gating's sleeps, fences and wakeups the worklists and the fence
/// bookkeeping hold — checked after every tick.
#[test]
fn sparse_and_dense_engines_agree_under_gating() {
    let mut sim = sim_with(0.05, TrafficPattern::Uniform, gated_cfg(6, 3), 42);
    run_checked(&mut sim, 2_400);
    let act = sim.take_activity().total();
    assert!(act.sleep_events > 0 && act.wake_events > 0, "the run must sleep and wake");
}

#[test]
fn island_threshold_actuator_controls_per_island_gating() {
    let cfg = NetworkConfig::builder()
        .mesh(4, 4)
        .virtual_channels(2)
        .buffer_depth(4)
        .packet_length(4)
        .regions(crate::region::RegionLayout::Quadrants)
        .gating(crate::gating::GatingConfig::enabled(8, 4))
        .build()
        .unwrap();
    let mut sim = sim_with(0.0, TrafficPattern::Uniform, cfg, 7);
    sim.set_island_idle_threshold(2, 40);
    assert_eq!(sim.island_idle_threshold(0), 8);
    assert_eq!(sim.island_idle_threshold(2), 40);
    sim.run_cycles(20);
    // Islands 0,1,3 (threshold 8) have gated; island 2 (threshold 40) not yet.
    let map = sim.region_map().clone();
    for node in 0..sim.node_count() {
        let gated = sim.router_gate_state(node) == crate::gating::GateState::Gated;
        assert_eq!(gated, map.island_of(node) != 2, "node {node}");
    }
    // Raise island 2's threshold to "never": it must stay awake forever.
    sim.set_island_idle_threshold(2, crate::gating::GATE_NEVER);
    sim.run_cycles(200);
    assert_eq!(
        sim.gated_router_count(),
        sim.node_count() - map.nodes_of(2).len(),
        "a GATE_NEVER island never powers down"
    );
    // Lowering the threshold re-arms the already idle routers.
    sim.set_island_idle_threshold(2, 4);
    sim.run_cycles(10);
    assert_eq!(sim.gated_router_count(), sim.node_count());
}

use crate::fault::FaultConfig;

fn faulted_cfg(faults: FaultConfig) -> NetworkConfig {
    NetworkConfig::builder()
        .mesh(4, 4)
        .virtual_channels(2)
        .buffer_depth(4)
        .packet_length(4)
        .faults(faults)
        .build()
        .unwrap()
}

#[test]
fn zero_fault_config_is_bit_identical_to_the_seed_behaviour() {
    // An *empty* fault config must not even allocate the fault state,
    // and an adaptive run with zero faults must still deliver normally.
    let plain = sim_with(0.12, TrafficPattern::Uniform, small_cfg(), 9);
    assert!(plain.faults.is_none());
    let mut a = sim_with(0.12, TrafficPattern::Uniform, small_cfg(), 9);
    let mut b = sim_with(0.12, TrafficPattern::Uniform, faulted_cfg(FaultConfig::none()), 9);
    a.run_cycles(2_000);
    b.run_cycles(2_000);
    assert_eq!(a.take_window(), b.take_window());
    assert_eq!(a.stats(), b.stats());
}

#[test]
fn permanent_router_death_conserves_flits_and_reports_drops() {
    use crate::fault::{FaultEvent, FaultTarget};
    let cfg = faulted_cfg(FaultConfig::scheduled(vec![FaultEvent::permanent(
        FaultTarget::Router { node: 5 },
        500,
    )]));
    let mut sim = sim_with(0.10, TrafficPattern::Uniform, cfg, 3);
    sim.run_cycles(3_000);
    assert!(sim.total_flits_dropped() > 0, "a loaded router dies with flits in it");
    assert!(sim.reachable_pairs_fraction() < 1.0);
    assert_eq!(sim.check_invariants(), Ok(()));
    let w = sim.take_window();
    assert_eq!(w.flits_dropped, sim.total_flits_dropped(), "window saw every drop");
}

#[test]
fn transient_router_death_recovers_and_conserves() {
    use crate::fault::{FaultEvent, FaultTarget};
    let cfg = faulted_cfg(FaultConfig::scheduled(vec![FaultEvent::transient(
        FaultTarget::Router { node: 10 },
        400,
        300,
    )]));
    let mut sim = sim_with(0.08, TrafficPattern::Uniform, cfg, 7);
    sim.run_cycles(500);
    assert!((sim.reachable_pairs_fraction() - 210.0 / 240.0).abs() < 1e-12);
    sim.run_cycles(5_000);
    assert_eq!(sim.reachable_pairs_fraction(), 1.0, "recovered network is whole");
    assert_eq!(sim.check_invariants(), Ok(()));
    // Traffic keeps flowing after recovery.
    let before = sim.total_packets_delivered();
    sim.run_cycles(2_000);
    assert!(sim.total_packets_delivered() > before);
}

#[test]
fn transient_link_faults_conserve_and_drop_nothing() {
    use crate::fault::{FaultEvent, FaultTarget};
    let cfg = faulted_cfg(
        FaultConfig::scheduled(vec![
            FaultEvent::transient(FaultTarget::Link { node: 5, dir: Direction::East }, 200, 400),
            FaultEvent::transient(FaultTarget::Link { node: 9, dir: Direction::South }, 300, 500),
        ]),
    );
    let mut sim = sim_with(0.10, TrafficPattern::Uniform, cfg, 11);
    sim.run_cycles(4_000);
    assert_eq!(sim.total_flits_dropped(), 0, "link fences never vaporise flits");
    assert_eq!(sim.check_invariants(), Ok(()));
    let before = sim.total_packets_delivered();
    sim.run_cycles(1_000);
    assert!(sim.total_packets_delivered() > before, "network recovered");
}

/// Named for the dense reference loop this run was once stepped beside:
/// through a storm of router and link deaths and recoveries the worklists,
/// the transport counters and both ledgers hold — checked after every tick.
#[test]
fn sparse_and_dense_engines_agree_under_fault_storms() {
    use crate::fault::HazardConfig;
    let cfg = faulted_cfg(FaultConfig::none().with_hazard(HazardConfig {
        link_rate: 2e-4,
        router_rate: 2e-4,
        transient_fraction: 0.7,
        transient_duration: 150,
    }));
    let mut sim = sim_with(0.10, TrafficPattern::Uniform, cfg, 42);
    run_checked(&mut sim, 3_000);
    assert!(sim.total_flits_dropped() > 0, "storm hit something");
}

#[test]
fn adaptive_routing_delivers_around_a_permanent_link_fault_where_xy_strands() {
    use crate::fault::{FaultEvent, FaultTarget};
    // Kill the 5→6 link before any traffic: XY routes 4→7 through it and
    // strands; minimal-adaptive detours and keeps delivering everything.
    let faults = FaultConfig::scheduled(vec![FaultEvent::permanent(
        FaultTarget::Link { node: 5, dir: Direction::East },
        0,
    )]);
    let traffic = |cfg: &NetworkConfig| {
        let mut rates = vec![vec![0.0; 16]; 16];
        rates[4][7] = 0.2;
        Box::new(crate::traffic::MatrixTraffic::new(rates, cfg.packet_length()))
    };
    let xy_cfg = faulted_cfg(faults.clone());
    let mut xy = NocSimulation::new(xy_cfg.clone(), traffic(&xy_cfg), 3);
    let ad_cfg = xy_cfg.to_builder().routing(crate::routing::RoutingKind::MinimalAdaptive)
        .build()
        .unwrap();
    let mut adaptive = NocSimulation::new(ad_cfg.clone(), traffic(&ad_cfg), 3);
    xy.run_cycles(4_000);
    adaptive.run_cycles(4_000);
    assert_eq!(xy.reachable_pairs_fraction(), 1.0, "the mesh is still connected");
    assert_eq!(xy.total_packets_delivered(), 0, "XY cannot route around the dead link");
    assert!(xy.queued_source_flits() + xy.buffered_network_flits() > 0, "XY strands flits");
    assert!(adaptive.total_packets_delivered() > 100, "adaptive detours around the fault");
    assert_eq!(xy.check_invariants(), Ok(()));
    assert_eq!(adaptive.check_invariants(), Ok(()));
}

#[test]
fn faults_compose_with_power_gating() {
    use crate::fault::{FaultEvent, FaultTarget};
    let cfg = NetworkConfig::builder()
        .mesh(4, 4)
        .virtual_channels(2)
        .buffer_depth(4)
        .packet_length(4)
        .gating(crate::gating::GatingConfig::enabled(8, 4))
        .faults(FaultConfig::scheduled(vec![FaultEvent::transient(
            FaultTarget::Router { node: 6 },
            300,
            500,
        )]))
        .build()
        .unwrap();
    let mut sim = sim_with(0.05, TrafficPattern::Uniform, cfg, 13);
    run_checked(&mut sim, 3_200);
    assert!(sim.take_activity().total().sleep_events > 0, "the run must gate");
}

#[test]
fn zero_rate_network_is_quiescent_and_stays_so() {
    let mut sim = sim_with(0.0, TrafficPattern::Uniform, small_cfg(), 3);
    assert!(sim.is_quiescent(), "a fresh network is quiescent");
    sim.run_cycles(1_000);
    assert!(sim.is_quiescent());
    assert_eq!(sim.active_router_count(), 0);
    assert_eq!(sim.in_flight_flits(), 0);
    assert_eq!(sim.in_flight_credits(), 0);
    let w = sim.take_window();
    assert_eq!(w.noc_cycles, 1_000);
    assert_eq!(w.flits_generated, 0);
    assert_eq!(w.flits_ejected, 0);
}

#[test]
fn event_horizon_jump_absorbs_an_idle_run_and_stays_bit_identical() {
    let cfg = small_cfg();
    let mut skipping = sim_with(0.0, TrafficPattern::Uniform, cfg.clone(), 11);
    let mut stepping = sim_with(0.0, TrafficPattern::Uniform, cfg, 11);
    skipping.set_event_skipping(true);
    stepping.set_event_skipping(false);
    skipping.run_cycles(10_000);
    stepping.run_cycles(10_000);
    assert_eq!(skipping.current_cycle(), 10_000);
    assert_eq!(skipping.take_window(), stepping.take_window());
    assert_eq!(skipping.take_activity(), stepping.take_activity());
    assert_eq!(stepping.skipped_cycle_count(), 0);
    assert!(
        skipping.skipped_cycle_count() >= 9_990,
        "an idle run should be almost entirely jumped, got {}",
        skipping.skipped_cycle_count()
    );
}

#[test]
fn event_horizon_skipping_agrees_with_stepping_under_load() {
    // Under sustained load the jump engine rarely engages, but whenever
    // it does the behaviour must stay bit-identical.
    let cfg = small_cfg();
    let mut skipping = sim_with(0.08, TrafficPattern::Transpose, cfg.clone(), 5);
    let mut stepping = sim_with(0.08, TrafficPattern::Transpose, cfg, 5);
    skipping.set_event_skipping(true);
    stepping.set_event_skipping(false);
    for _ in 0..5 {
        skipping.run_cycles(400);
        stepping.run_cycles(400);
        assert_eq!(skipping.take_window(), stepping.take_window());
    }
    assert_eq!(skipping.stats(), stepping.stats());
}

#[test]
fn event_horizon_jump_composes_with_power_gating() {
    // An idle gated network: sleep timers land exactly where base-tick
    // stepping puts them, then the fully gated network is one long jump.
    let cfg = gated_cfg(16, 4);
    let mut skipping = sim_with(0.0, TrafficPattern::Uniform, cfg.clone(), 7);
    let mut stepping = sim_with(0.0, TrafficPattern::Uniform, cfg, 7);
    skipping.set_event_skipping(true);
    stepping.set_event_skipping(false);
    skipping.run_cycles(5_000);
    stepping.run_cycles(5_000);
    assert_eq!(skipping.gated_router_count(), skipping.node_count());
    assert_eq!(skipping.gated_router_count(), stepping.gated_router_count());
    assert_eq!(skipping.take_window(), stepping.take_window());
    assert_eq!(skipping.take_activity(), stepping.take_activity());
    assert!(
        skipping.skipped_cycle_count() > 4_000,
        "the gated span should be jumped, got {}",
        skipping.skipped_cycle_count()
    );
}

#[test]
fn event_horizon_jump_lands_scheduled_faults_on_time() {
    use crate::fault::{FaultEvent, FaultTarget};
    // A transient router outage on an idle network: the death and the
    // recovery are horizon events; jumps must stop exactly on them.
    let faults = FaultConfig::scheduled(vec![FaultEvent::transient(
        FaultTarget::Router { node: 5 },
        1_000,
        2_000,
    )]);
    let cfg = faulted_cfg(faults);
    let mut skipping = sim_with(0.0, TrafficPattern::Uniform, cfg.clone(), 3);
    let mut stepping = sim_with(0.0, TrafficPattern::Uniform, cfg, 3);
    skipping.set_event_skipping(true);
    stepping.set_event_skipping(false);
    for _ in 0..4 {
        skipping.run_cycles(1_000);
        stepping.run_cycles(1_000);
        assert_eq!(skipping.take_window(), stepping.take_window());
        assert_eq!(skipping.reachable_pairs_fraction(), stepping.reachable_pairs_fraction());
    }
    assert!(skipping.skipped_cycle_count() > 3_000);
}

#[test]
fn parallel_island_stepping_matches_serial_bit_for_bit() {
    let cfg = quadrant_cfg();
    let mut parallel = sim_with(0.12, TrafficPattern::Uniform, cfg.clone(), 42);
    let mut serial = sim_with(0.12, TrafficPattern::Uniform, cfg, 42);
    for (island, mhz) in [(0usize, 1000.0), (1, 666.0), (2, 500.0), (3, 333.0)] {
        parallel.set_island_frequency(island, Hertz::from_mhz(mhz));
        serial.set_island_frequency(island, Hertz::from_mhz(mhz));
    }
    for _ in 0..5 {
        parallel.run_cycles_with_workers(400, 4);
        serial.run_cycles_with_workers(400, 1);
        assert_eq!(parallel.take_window(), serial.take_window());
        assert_eq!(parallel.take_island_windows(), serial.take_island_windows());
        assert_eq!(parallel.take_activity(), serial.take_activity());
    }
    assert_eq!(parallel.stats(), serial.stats());
    assert_eq!(parallel.total_packets_delivered(), serial.total_packets_delivered());
    assert_eq!(parallel.buffered_network_flits(), serial.buffered_network_flits());
}

#[test]
fn parallel_island_stepping_composes_with_gating_and_faults() {
    use crate::fault::{FaultEvent, FaultTarget};
    let cfg = NetworkConfig::builder()
        .mesh(4, 4)
        .virtual_channels(2)
        .buffer_depth(4)
        .packet_length(4)
        .regions(crate::region::RegionLayout::Quadrants)
        .gating(crate::gating::GatingConfig::enabled(8, 4))
        .faults(FaultConfig::scheduled(vec![FaultEvent::transient(
            FaultTarget::Router { node: 6 },
            300,
            500,
        )]))
        .build()
        .unwrap();
    let mut parallel = sim_with(0.06, TrafficPattern::Uniform, cfg.clone(), 13);
    let mut serial = sim_with(0.06, TrafficPattern::Uniform, cfg, 13);
    parallel.set_island_frequency(2, Hertz::from_mhz(500.0));
    serial.set_island_frequency(2, Hertz::from_mhz(500.0));
    for _ in 0..8 {
        parallel.run_cycles_with_workers(400, 2);
        serial.run_cycles_with_workers(400, 1);
        assert_eq!(parallel.take_window(), serial.take_window());
        assert_eq!(parallel.gated_router_count(), serial.gated_router_count());
        assert_eq!(parallel.total_flits_dropped(), serial.total_flits_dropped());
    }
    assert_eq!(parallel.stats(), serial.stats());
    assert_eq!(parallel.check_invariants(), Ok(()));
    assert_eq!(serial.check_invariants(), Ok(()));
}

/// `gated_router_count` is derived (fenced less waking), not counted: after
/// every tick of a gated, faulted quadrant run it equals a recount of the
/// gate states.
#[test]
fn gated_count_matches_a_recount_after_every_tick() {
    use crate::fault::{FaultEvent, FaultTarget};
    use crate::gating::GateState;
    let cfg = quadrant_cfg()
        .to_builder()
        .gating(crate::gating::GatingConfig::enabled(6, 3))
        .faults(FaultConfig::scheduled(vec![FaultEvent::transient(
            FaultTarget::Router { node: 6 },
            300,
            500,
        )]))
        .build()
        .unwrap();
    let mut sim = sim_with(0.04, TrafficPattern::Uniform, cfg, 19);
    sim.set_island_frequency(2, Hertz::from_mhz(500.0));
    let (mut saw_gated, mut saw_waking) = (false, false);
    for _ in 0..2_000 {
        sim.run_cycles(1);
        let gated = sim.gating.states.iter().filter(|s| **s == GateState::Gated).count();
        assert_eq!(sim.gated_router_count(), gated, "cycle {}", sim.current_cycle());
        saw_gated |= gated > 0;
        saw_waking |= sim.gating.states.contains(&GateState::WakeUp);
    }
    assert!(saw_gated && saw_waking, "the run must gate and wake routers");
}

/// An activity window cannot start in its island's future: the window's
/// `cycles` and every open gated span are counted from its start, and a
/// restored start past the island clock would underflow the next drain.
#[test]
fn an_activity_window_starting_after_its_island_clock_is_refused() {
    let fresh = || sim_with(0.05, TrafficPattern::Uniform, gated_cfg(6, 3), 5);
    let mut sim = fresh();
    sim.run_cycles(300);
    sim.reset_activity();
    sim.run_cycles(40);
    assert!(fresh().restore(&sim.snapshot()).is_ok());
    sim.gating.window_start[0] = sim.islands[0].local_cycle + 1;
    assert_eq!(
        fresh().restore(&sim.snapshot()),
        Err(crate::snapshot::SnapshotError::Corrupt("activity window start"))
    );
}

// ----- the source queue on disk: one record per waiting packet ----------------

/// A saturated 3×3 caught with sources backlogged behind partly injected
/// packets, through the byte format: the restored simulation is the one that
/// never paused, and snapshots again to the same bytes.
#[test]
fn saturated_mid_packet_snapshot_restores_to_the_run_that_never_paused() {
    let fresh = || {
        let cfg = NetworkConfig::builder().mesh(3, 3).virtual_channels(2).buffer_depth(4);
        sim_with(0.9, TrafficPattern::Uniform, cfg.packet_length(5).build().unwrap(), 21)
    };
    let mut sim = fresh();
    sim.run_cycles(600);
    while sim.sources.iter().filter(|s| backlogged_mid_packet(s, 5)).count() < 3 {
        assert!(sim.current_cycle() < 5_000, "no cycle shows three backlogged, mid-packet sources");
        sim.run_cycles(1);
    }
    let bytes = sim.snapshot().to_bytes();
    let stored = crate::snapshot::SimSnapshot::from_bytes(&bytes).expect("intact bytes");
    let mut restored = fresh();
    restored.restore(&stored).expect("an untouched snapshot restores");
    assert_eq!(restored.queued_source_flits(), sim.queued_source_flits());
    assert!(restored.snapshot().to_bytes() == bytes);
    for _ in 0..4 {
        sim.run_cycles(500);
        restored.run_cycles(500);
        assert_eq!(restored.take_window(), sim.take_window());
    }
    assert_eq!(restored.stats(), sim.stats());
    assert!(restored.snapshot().to_bytes() == sim.snapshot().to_bytes());
    assert_eq!(restored.check_invariants(), Ok(()));
}

// ----- hostile snapshot bytes in the router, source and gating sections -------

/// Flips one bit in every byte of `range` of a serialized snapshot and
/// restores each mangled copy into a simulation from `fresh`: it is either
/// refused, or runs on for 200 cycles without a panic (debug builds check
/// every router's derived state after every tick on the way). Returns
/// `(refused, survived)`.
fn flip_sweep(
    fresh: &dyn Fn() -> NocSimulation,
    bytes: &[u8],
    range: std::ops::Range<usize>,
) -> (usize, usize) {
    let (mut refused, mut survived) = (0, 0);
    for i in range {
        let mut mangled = bytes.to_vec();
        mangled[i] ^= 1 << (i % 8);
        let mangled =
            crate::snapshot::SimSnapshot::from_bytes(&mangled).expect("the header is intact");
        let mut sim = fresh();
        if sim.restore(&mangled).is_err() {
            refused += 1;
            continue;
        }
        sim.run_cycles(200);
        survived += 1;
    }
    (refused, survived)
}

/// The snapshot encoding of `save`, on its own.
fn encoded(save: &dyn Fn(&mut crate::snapshot::SnapWriter)) -> Vec<u8> {
    let mut w = crate::snapshot::SnapWriter::new();
    save(&mut w);
    w.into_vec()
}

/// Where the leading sections of a snapshot sit in its serialized bytes.
struct Sections {
    clock: std::ops::Range<usize>,
    routers: std::ops::Range<usize>,
    sources: std::ops::Range<usize>,
    sink: std::ops::Range<usize>,
    channels: std::ops::Range<usize>,
}

/// Finds the sections of `sim`'s snapshot in its serialized `bytes`, measured
/// with the same codecs that wrote them: behind the file header every
/// section is one tag byte and its encoding — the clock, four RNG words and
/// the packet counter, the routers, the sources, the sink, the traffic blob
/// behind its length, the channels.
fn sections(sim: &NocSimulation, snap: &crate::snapshot::SimSnapshot, bytes: &[u8]) -> Sections {
    let mut at = bytes.len() - snap.payload_len();
    let mut next = |save: &dyn Fn(&mut crate::snapshot::SnapWriter)| {
        let start = at + 1;
        at = start + encoded(save).len();
        start..at
    };
    let clock = next(&|w| sim.clock.save_state(w));
    next(&|w| (0..5).for_each(|_| w.put_u64(0)));
    let routers = next(&|w| sim.routers.iter().for_each(|r| r.save_state(w)));
    let sources = next(&|w| sim.sources.iter().for_each(|s| s.save_state(w)));
    let sink = next(&|w| sim.sink.save_state(w));
    let mut blob = Vec::new();
    sim.traffic.save_extra_state(&mut blob);
    next(&|w| (0..8 + blob.len()).for_each(|_| w.put_u8(0)));
    let channels = next(&|w| sim.save_channels(w));
    Sections { clock, routers, sources, sink, channels }
}

/// Whether a source of `packet_length`-flit packets holds a partly injected
/// packet with at least one whole packet queued behind it.
fn backlogged_mid_packet(source: &Source, packet_length: usize) -> bool {
    let queued = source.queued_flits();
    queued > packet_length && !queued.is_multiple_of(packet_length)
}

/// One bit flipped in every byte of the clock, router, source and sink
/// sections of a loaded snapshot — caught with a source backlogged behind a
/// partly injected packet — then of the gating section of a gated one
/// (see [`flip_sweep`]). Before the clock compared its stored terms with the
/// configuration's and its emitted-cycle count with its wall time, one
/// flipped word made the next tick emit billions of node cycles; before the
/// router rebuilt its masks from the per-VC state on load, roughly one flip
/// in eight restored `Ok` and then indexed out of bounds or met an `expect`
/// inside a pipeline stage; before the source checked its records, credit
/// counts and active VC, a flipped `injected` met the `expect` in
/// `Source::injection_vc` and a flipped credit count overran the router's
/// local input VC; before the gating controller recounted its fenced
/// routers, a flipped count switched the fence off over gated routers or
/// underflowed at the next wakeup.
#[test]
fn bit_flips_in_the_router_section_are_refused_or_harmless() {
    use crate::gating::GateState;
    // Nine routers keep the sweep (one restore per byte of a section, and
    // a 200-cycle run for each one accepted) to a few seconds.
    let small =
        || NetworkConfig::builder().mesh(3, 3).virtual_channels(2).buffer_depth(4).packet_length(4);
    let loaded = || sim_with(0.35, TrafficPattern::Uniform, small().build().unwrap(), 7);
    let mut sim = loaded();
    sim.run_cycles(400);
    let buffered = sim.routers.iter().map(Router::buffered_flits).sum::<usize>();
    assert!(buffered > 20, "the snapshot must catch packets in every stage, got {buffered} flits");
    while !sim.sources.iter().any(|s| backlogged_mid_packet(s, 4)) {
        assert!(sim.current_cycle() < 5_000, "no cycle shows a backlogged, mid-packet source");
        sim.run_cycles(1);
    }
    let snap = sim.snapshot();
    let bytes = snap.to_bytes();
    let Sections { clock, routers, sources, sink, .. } = sections(&sim, &snap, &bytes);

    // The clock, router and source sections are mostly checked state: a flip
    // either breaks an invariant the loader recomputes or lands in payload it
    // cannot judge (the cycle count and the low bits of the wall time, a
    // queued packet's timestamps and id, a buffered flit's hop count, the
    // generation counters). The sink is three counters with two inequalities
    // between them.
    for (section, range, mostly_refused) in [
        ("clock", clock, true),
        ("router", routers, true),
        ("source", sources, true),
        ("sink", sink, false),
    ] {
        let (refused, survived) = flip_sweep(&loaded, &bytes, range);
        println!("{section} section: {refused} refused, {survived} survived");
        assert!(refused > 0 && survived > 0, "{section}: {refused} refused, {survived} survived");
        assert!(!mostly_refused || refused > survived, "{section}: {refused} refused");
    }

    // The gating section, caught with routers in all four gate states.
    let gated = || {
        let cfg = small().link_latency(3).gating(crate::gating::GatingConfig::enabled(6, 12));
        sim_with(0.03, TrafficPattern::Uniform, cfg.build().unwrap(), 11)
    };
    let mut sim = gated();
    let all_states = [GateState::Active, GateState::DrainWait, GateState::Gated, GateState::WakeUp];
    while !all_states.iter().all(|s| sim.gating.states.contains(s)) {
        assert!(sim.current_cycle() < 50_000, "no cycle shows all four gate states");
        sim.run_cycles(1);
    }
    let bytes = sim.snapshot().to_bytes();
    // The section is found by its own encoding, which occurs exactly once.
    let section = encoded(&|w| sim.gating.save_state(w));
    let mut sections = bytes.windows(section.len()).enumerate().filter(|(_, w)| *w == section);
    let (start, _) = sections.next().expect("the gating section is in the payload");
    assert!(sections.next().is_none(), "the gating section must be found exactly once");
    let (refused, survived) = flip_sweep(&gated, &bytes, start..start + section.len());
    println!("gating section: {refused} refused, {survived} survived");
    assert!(refused > 0 && survived > 0, "gating: {refused} refused, {survived} survived");
}

// ----- the wheel is the wire: transport on disk and under faults --------------

/// With one and with three cycles of link latency, a saturated 3×3's snapshot
/// restores — over a used simulation: what that one had in flight goes — to
/// the run that never paused. The restored wheels list what the live ones
/// list, in the same order: the global send order within a due cycle survives
/// the file, not just each channel's.
#[test]
fn channel_section_restores_the_wheels_in_delivery_order() {
    for link_latency in [1, 3] {
        let fresh = || {
            let cfg = NetworkConfig::builder().mesh(3, 3).virtual_channels(2).buffer_depth(4);
            let cfg = cfg.packet_length(5).link_latency(link_latency).build().unwrap();
            sim_with(0.9, TrafficPattern::Uniform, cfg, 21)
        };
        let mut sim = fresh();
        sim.run_cycles(600);
        assert!(sim.in_flight_flits() > 10 && sim.in_flight_credits() > 10, "a saturated fabric");
        let bytes = sim.snapshot().to_bytes();

        let stored = crate::snapshot::SimSnapshot::from_bytes(&bytes).expect("intact bytes");
        let mut restored = fresh();
        restored.run_cycles(123);
        restored.restore(&stored).expect("an untouched snapshot restores");
        let now = sim.current_cycle();
        assert!(restored.flits_in_flight.iter(now).eq(sim.flits_in_flight.iter(now)));
        assert!(restored.credits_in_flight.iter(now).eq(sim.credits_in_flight.iter(now)));
        assert_eq!(restored.inbound_flits, sim.inbound_flits);
        assert!(restored.snapshot().to_bytes() == bytes, "latency {link_latency}");
        for _ in 0..4 {
            sim.run_cycles(500);
            restored.run_cycles(500);
            assert_eq!(restored.take_window(), sim.take_window());
        }
        assert_eq!(restored.stats(), sim.stats());
        assert!(restored.snapshot().to_bytes() == sim.snapshot().to_bytes());
        assert_eq!(restored.check_invariants(), Ok(()));
    }
}

/// A router that dies on the very tick a flit towards it is due (link
/// latency 1: every flit in flight is) drops that flit, credits its sender
/// and has nothing inbound afterwards. The fault phase runs before the
/// tick's deliveries, so the flit is still on the wheel — in the slot of
/// `now` itself, which an extraction starting one cycle ahead would miss.
#[test]
fn a_flit_due_on_the_tick_its_receiver_dies_is_dropped_and_credited() {
    use crate::fault::{FaultEvent, FaultTarget};
    const VICTIM: usize = 5;
    let dying_at = |at: u64| {
        let death = FaultEvent::permanent(FaultTarget::Router { node: VICTIM }, at);
        sim_with(0.3, TrafficPattern::Uniform, faulted_cfg(FaultConfig::scheduled(vec![death])), 17)
    };
    // The first death tick on which a link flit (not an injected one) is due
    // at the victim.
    let (mut sim, doomed) = (200..400)
        .find_map(|at| {
            let mut sim = dying_at(at);
            sim.run_cycles(at - 1);
            let doomed: Vec<FlitInFlight> = sim
                .flits_in_flight
                .iter(at - 1)
                .filter(|(due, f)| *due == at && f.dest as usize == VICTIM)
                .map(|(_, f)| *f)
                .collect();
            doomed.iter().any(|f| usize::from(f.in_port) != LOCAL_PORT).then_some((sim, doomed))
        })
        .expect("some tick has a link flit due at the victim");
    let now = sim.current_cycle() + 1;
    let sent_by_victim = sim
        .flits_in_flight
        .iter(now - 1)
        .filter(|(_, f)| {
            usize::from(f.in_port) != LOCAL_PORT
                && sim.topo.neighbor(f.dest as usize, Direction::from_index(usize::from(f.in_port)))
                    == Some(VICTIM)
        })
        .count();
    let lost = sim.routers[VICTIM].buffered_flits() + doomed.len() + sent_by_victim;

    sim.run_cycles(1);
    assert!(sim.faults.as_ref().is_some_and(|f| f.router_dead(VICTIM)));
    assert_eq!(sim.total_flits_dropped(), lost as u64, "buffered + inbound + outbound");
    assert_eq!(sim.inbound_flits[VICTIM], 0);
    assert!(sim.flits_in_flight.iter(now).all(|(_, f)| f.dest as usize != VICTIM));
    assert_eq!(sim.routers[VICTIM].buffered_flits(), 0, "nothing was delivered into the purge");
    for f in &doomed {
        // The credit is on its way to whoever sent the flit.
        let (target, out_port) = if usize::from(f.in_port) == LOCAL_PORT {
            (VICTIM, LOCAL_PORT)
        } else {
            let dir = Direction::from_index(usize::from(f.in_port));
            (sim.topo.neighbor(VICTIM, dir).expect("a link"), dir.opposite().index())
        };
        let credited = sim.credits_in_flight.iter(now).any(|(due, c)| {
            due == now + sim.cfg.credit_latency()
                && (c.target as usize, usize::from(c.out_port), usize::from(c.vc))
                    == (target, out_port, f.flit.vc())
        });
        assert!(credited, "no credit for {} towards router {target}", f.flit);
    }
    assert_eq!(sim.check_invariants(), Ok(()));
    sim.run_cycles(2_000);
    assert_eq!(sim.check_invariants(), Ok(()));
}

/// A gated, faulted, four-island 4×4 with two cycles of link latency:
/// router 6 dies at cycle 300 and recovers at 800, island 2 runs at half
/// rate.
fn gated_faulted_quadrants(rate: f64, seed: u64) -> NocSimulation {
    use crate::fault::{FaultEvent, FaultTarget};
    let cfg = NetworkConfig::builder()
        .mesh(4, 4)
        .virtual_channels(2)
        .buffer_depth(4)
        .packet_length(4)
        .link_latency(2)
        .regions(crate::region::RegionLayout::Quadrants)
        .gating(crate::gating::GatingConfig::enabled(8, 4))
        .faults(FaultConfig::scheduled(vec![FaultEvent::transient(
            FaultTarget::Router { node: 6 },
            300,
            500,
        )]))
        .build()
        .unwrap();
    let mut sim = sim_with(rate, TrafficPattern::Uniform, cfg, seed);
    sim.set_island_frequency(2, Hertz::from_mhz(500.0));
    sim
}

/// The O(1) transport counters are the wheels' contents: after every tick of
/// a gated, faulted quadrant 4×4 — sleeps, wakeups, a router death with its
/// extraction and the recovery — `inbound_flits` and both in-flight counts
/// equal a recount over the wheels (a clause of `check_invariants`).
#[test]
fn transport_counters_match_a_recount_after_every_tick() {
    let mut sim = gated_faulted_quadrants(0.06, 13);
    let (mut saw_gated, mut saw_inbound) = (false, false);
    for _ in 0..1_500 {
        sim.run_cycles(1);
        assert_eq!(sim.check_invariants(), Ok(()));
        saw_gated |= sim.gated_router_count() > 0;
        saw_inbound |= sim.inbound_flits.iter().any(|&n| n > 1);
    }
    assert!(saw_gated && saw_inbound && sim.total_flits_dropped() > 0, "the run must exercise it");
}

/// The credit ledger `restore` refuses a snapshot over is one a live run
/// keeps — an equality, bounded only on outputs a recovery retired: after
/// every tick of a fault storm over a gated torus — router and link deaths,
/// permanent and transient, purges, recoveries with refilled and with
/// retired outputs — at two loads, under XY and adaptive routing.
#[test]
fn the_link_ledger_holds_after_every_tick_of_a_fault_storm() {
    use crate::fault::HazardConfig;
    use crate::routing::RoutingKind;
    use crate::topology::TopologyKind;
    let storm = FaultConfig::none().with_hazard(HazardConfig {
        link_rate: 5e-4,
        router_rate: 5e-4,
        transient_fraction: 0.8,
        transient_duration: 120,
    });
    for (rate, routing) in [(0.05, RoutingKind::Xy), (0.30, RoutingKind::MinimalAdaptive)] {
        let cfg = faulted_cfg(storm.clone()).to_builder().topology(TopologyKind::Torus);
        let cfg = cfg.routing(routing).gating(crate::gating::GatingConfig::enabled(8, 4));
        let mut sim = sim_with(rate, TrafficPattern::Uniform, cfg.build().unwrap(), 29);
        for _ in 0..3_000 {
            sim.run_cycles(1);
            assert_eq!(sim.check_invariants(), Ok(()));
        }
        let faults = sim.faults.as_ref().expect("a faulted configuration");
        let dead = (0..sim.node_count()).filter(|&n| faults.router_dead(n)).count();
        assert!(sim.total_flits_dropped() > 0 && dead > 0, "the storm must hit: {dead} dead");
    }
}

/// One bit flipped in every byte of the channel section of a loaded 3×3
/// snapshot taken with three cycles of link latency, so flits and credits
/// are in flight for several due cycles (see [`flip_sweep`]). Before the
/// section checked its bytes, a flit's VC and endpoints and a credit's VC
/// were read as they came and met an `assert!` in `accept_flit` /
/// `accept_credit` ticks later, and a due cycle was only checked for order —
/// on a wheel, one outside `now + 1 ..= now + latency` would alias a slot.
/// The receiver an item is addressed to is stored too, and checked against
/// the fabric's nodes and links.
#[test]
fn bit_flips_in_the_channel_section_are_refused_or_harmless() {
    let loaded = || {
        let cfg = NetworkConfig::builder().mesh(3, 3).virtual_channels(2).buffer_depth(4);
        let cfg = cfg.packet_length(4).link_latency(3).build().unwrap();
        sim_with(0.35, TrafficPattern::Uniform, cfg, 7)
    };
    let mut sim = loaded();
    sim.run_cycles(400);
    let now = sim.current_cycle();
    let mut dues: Vec<u64> = sim.flits_in_flight.iter(now).map(|(due, _)| due).collect();
    dues.dedup();
    assert_eq!(dues.len(), 3, "flits must be in flight for every due cycle, got {dues:?}");
    assert!(sim.in_flight_credits() > 0);
    let snap = sim.snapshot();
    let bytes = snap.to_bytes();
    let section = sections(&sim, &snap, &bytes).channels;
    let (refused, survived) = flip_sweep(&loaded, &bytes, section.clone());
    println!("channel section: {refused} refused, {survived} survived");
    assert!(refused > 0 && survived > 0, "channel: {refused} refused, {survived} survived");

    // A stored count no payload could hold: items are pushed as their bytes
    // are read, so even with every item behind it valid the restore ends at
    // the end of the payload — nothing is sized by the count.
    let header = bytes.len() - snap.payload_len();
    let (_, f) = sim.flits_in_flight.iter(now).next().expect("a flit in flight");
    let mut payload = bytes[header..section.start].to_vec();
    payload.extend(encoded(&|w| {
        w.put_usize(usize::MAX);
        for _ in 0..100 {
            w.put_u64(1);
            w.put_u32(f.dest);
            w.put_u8(f.in_port);
            f.flit.save_state(w);
        }
    }));
    let hostile = crate::snapshot::SimSnapshot::new(snap.config_fingerprint(), payload);
    assert_eq!(loaded().restore(&hostile), Err(crate::snapshot::SnapshotError::UnexpectedEof));

    // Likewise the length of the traffic source's blob, the eight bytes
    // behind the tag that follows the sink.
    let length = sections(&sim, &snap, &bytes).sink.end + 1;
    let mut payload = bytes[header..].to_vec();
    payload[length - header..][..8].fill(0xFF);
    let hostile = crate::snapshot::SimSnapshot::new(snap.config_fingerprint(), payload);
    assert_eq!(loaded().restore(&hostile), Err(crate::snapshot::SnapshotError::UnexpectedEof));
}

// ----- every clause names the corruption it exists for ------------------------

/// A loaded [`gated_faulted_quadrants`] run stopped while router 6 is dead at a
/// cycle where some router is gated, some buffers flits, some live source is
/// pending and credits are in flight — every invariant holds. Each test below
/// breaks one field of it.
fn corruptible() -> NocSimulation {
    let mut sim = gated_faulted_quadrants(0.08, 7);
    sim.run_cycles(500);
    let ready = |sim: &NocSimulation| {
        let live = |n: usize| !sim.faults.as_ref().is_some_and(|f| f.router_dead(n));
        sim.gating.states.contains(&GateState::Gated)
            && sim.active.len() > 0
            && (0..sim.node_count()).any(|n| pending_live(sim, n))
            && sim.credits_in_flight.iter(sim.current_cycle()).any(|(_, c)| live(c.target as usize))
    };
    while !ready(&sim) {
        assert!(sim.current_cycle() < 800, "no cycle of the outage has every state to corrupt");
        sim.run_cycles(1);
    }
    assert!(sim.faults.as_ref().is_some_and(|f| f.router_dead(6)));
    assert_eq!(sim.check_invariants(), Ok(()));
    sim
}

use crate::gating::GateState;

/// Whether `node`'s source is on the pending worklist, unfenced, in front of
/// a live router.
fn pending_live(sim: &NocSimulation, node: usize) -> bool {
    sim.pending_sources.contains(node)
        && !sim.gating.fenced_sources[node]
        && !sim.faults.as_ref().is_some_and(|f| f.router_dead(node))
}

/// The clause and node `check_invariants` names.
fn caught(sim: &NocSimulation) -> (&'static str, Option<usize>) {
    let violation = sim.check_invariants().expect_err("the corruption must be caught");
    assert_eq!(violation.cycle, sim.current_cycle());
    (violation.clause, violation.node)
}

/// A busy router missing from the active worklist would never be visited.
#[test]
fn check_invariants_names_a_cleared_active_bit() {
    let mut sim = corruptible();
    let node = (0..sim.node_count()).rev().find(|&n| sim.active.contains(n)).unwrap();
    sim.active.set_to(node, false);
    assert_eq!(caught(&sim), ("active set", Some(node)));
}

/// A source with queued flits missing from the pending worklist would never
/// inject them.
#[test]
fn check_invariants_names_a_cleared_pending_bit() {
    let mut sim = corruptible();
    let node = (0..sim.node_count()).rev().find(|&n| pending_live(&sim, n)).unwrap();
    sim.pending_sources.set_to(node, false);
    assert_eq!(caught(&sim), ("pending set", Some(node)));
}

/// A source fenced behind a router that is still gated never raised its
/// wakeup request: the router would sleep forever (the lost wakeup a
/// recovery once caused).
#[test]
fn check_invariants_names_a_fenced_source_behind_a_gated_router() {
    let mut sim = corruptible();
    let node = sim.gating.states.iter().rposition(|s| *s == GateState::Gated).unwrap();
    sim.gating.fenced_sources[node] = true;
    assert_eq!(caught(&sim), ("pending set", Some(node)));
}

/// An inflated inbound count would keep the router from ever gating.
#[test]
fn check_invariants_names_a_bumped_inbound_count() {
    let mut sim = corruptible();
    sim.inbound_flits[9] += 1;
    assert_eq!(caught(&sim), ("transport counters", Some(9)));
}

/// A credit lost on its way upstream strands a buffer slot: the ledger of the
/// input VC it was returned for comes up one short.
#[test]
fn check_invariants_names_a_credit_taken_off_the_wheel() {
    let mut sim = corruptible();
    let now = sim.current_cycle();
    let faults = sim.faults.as_ref().unwrap();
    let (_, &credit) =
        sim.credits_in_flight.iter(now).find(|(_, c)| !faults.router_dead(c.target as usize)).unwrap();
    let mut taken = false;
    sim.credits_in_flight.extract(now, |c| !taken && *c == credit && { taken = true; true }, |_| {});
    let (target, out_port) = (credit.target as usize, usize::from(credit.out_port));
    let (node, in_port) = if out_port == LOCAL_PORT {
        (target, LOCAL_PORT)
    } else {
        sim.neighbor_table[target][out_port].unwrap()
    };
    let violation = sim.check_invariants().expect_err("the lost credit must be caught");
    assert_eq!(
        (violation.clause, violation.node, violation.input_vc),
        ("credit ledger", Some(node), Some((in_port, usize::from(credit.vc))))
    );
}

/// A fenced-router count above the truth would underflow at a wakeup; one
/// below it would drop the fence over gated routers.
#[test]
fn check_invariants_names_a_bumped_fenced_count() {
    let mut sim = corruptible();
    sim.gating.fenced_count += 1;
    assert_eq!(caught(&sim), ("gating", None));
}
