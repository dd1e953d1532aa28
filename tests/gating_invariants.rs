//! Invariant suite for the power-gating subsystem.
//!
//! Four contracts are pinned here:
//!
//! 1. **Invariants under gating** — randomized scenarios (mesh/torus ×
//!    pattern × Bernoulli/bursty × random thresholds, wakeup latencies and
//!    island layouts) keep every engine invariant
//!    ([`NocSimulation::check_invariants`]: worklists, fence bookkeeping,
//!    transport counters, flit and credit ledgers) after every tick.
//! 2. **Conservation through sleep/wake storms** — no flit and no credit is
//!    ever lost: at every pause point the invariants hold (`generated =
//!    received + queued + buffered + in flight` among them), partial packets
//!    reassemble, and an aggressive ImmediateSleep configuration still
//!    delivers every packet.
//! 3. **Gating-off bit-identity** — a configuration with gating disabled
//!    (explicitly or by default) reproduces the ungated simulator's golden
//!    behaviour bit for bit (the golden window constants themselves are
//!    re-checked by `tests/determinism.rs`, which runs on the default —
//!    gating-disabled — configuration).
//! 4. **Wakeup-latency monotonicity** — a higher wakeup latency can only
//!    stall flits longer: average packet latency is non-decreasing in the
//!    configured wakeup latency, and the break-even-aware acceptance setting
//!    (light-load 8×8 mesh) burns strictly less energy than the ungated
//!    baseline at unchanged accepted throughput.
//!
//! A fifth pins the activity drains: a window drained after skipped drains
//! or after a restore reports what an every-window drain reports, and the
//! gated residency they report is a per-tick recount of the gate states.

mod common;
use common::{run_checked, ENGINE_MODES};

use noc_dvfs::{
    run_operating_point, run_operating_point_gated, BreakEvenConfig, ClosedLoopConfig,
    GatingPolicyKind, PolicyKind,
};
use noc_sim::{
    BurstyTraffic, Direction, FaultConfig, FaultEvent, FaultTarget, GateState, GatingConfig, Hertz,
    NetworkConfig, NocSimulation, RegionLayout, SimSnapshot, SyntheticTraffic, TopologyKind,
    TrafficPattern, TrafficSpec, GATE_NEVER,
};
use proptest::prelude::*;

fn gated_grid_cfg(
    kind: TopologyKind,
    layout: RegionLayout,
    idle_threshold: u64,
    wakeup_latency: u64,
) -> NetworkConfig {
    NetworkConfig::builder()
        .mesh(4, 4)
        .topology(kind)
        .virtual_channels(2)
        .buffer_depth(4)
        .packet_length(4)
        .regions(layout)
        .gating(GatingConfig::enabled(idle_threshold, wakeup_latency))
        .build()
        .expect("4x4 gated grid configurations are valid")
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

    /// Named for the dense reference loop these scenarios were once stepped
    /// beside: with gating enabled, across random thresholds, wakeup
    /// latencies and island layouts, every invariant holds after every tick.
    #[test]
    fn sparse_and_dense_agree_under_gating(
        kind in prop_oneof![Just(TopologyKind::Mesh), Just(TopologyKind::Torus)],
        layout in prop_oneof![
            Just(RegionLayout::Whole),
            Just(RegionLayout::PerRow),
            Just(RegionLayout::Quadrants)
        ],
        pattern_idx in 0usize..TrafficPattern::ALL.len(),
        bursty in prop_oneof![Just(false), Just(true)],
        rate in 0.005f64..0.25,
        idle_threshold in 0u64..48,
        wakeup_latency in 1u64..24,
        seed in 0u64..1_000_000,
        chunk in 80u64..320,
    ) {
        let pattern = TrafficPattern::ALL[pattern_idx];
        let cfg = gated_grid_cfg(kind, layout, idle_threshold, wakeup_latency);
        let mut sim = NocSimulation::new(
            cfg.clone(),
            scenario_traffic(pattern, rate, cfg.packet_length(), bursty),
            seed,
        );
        for (i, &cycles) in [chunk, 2 * chunk, chunk / 2 + 1, chunk + 37].iter().enumerate() {
            if i == 2 && sim.island_count() > 1 {
                // A mid-run per-island retune exercises gating across
                // non-firing ticks.
                sim.set_island_frequency(1, noc_sim::Hertz::from_mhz(500.0));
            }
            run_checked(&mut sim, cycles);
            let activity = sim.take_activity();
            prop_assert!(activity.routers.iter().all(|r| r.gated_cycles <= r.cycles));
        }
    }

    /// Nothing is lost through sleep/wake storms: exact flit conservation at
    /// every pause point, and an aggressively gated network still delivers
    /// (wakeup requests always get through, fenced flits are held, credits
    /// into gated routers update retained state).
    #[test]
    fn conservation_through_sleep_wake_storms(
        kind in prop_oneof![Just(TopologyKind::Mesh), Just(TopologyKind::Torus)],
        layout in prop_oneof![Just(RegionLayout::Whole), Just(RegionLayout::Quadrants)],
        rate in 0.01f64..0.12,
        wakeup_latency in 1u64..32,
        seed in 0u64..1_000_000,
    ) {
        // Threshold 0 = ImmediateSleep at the simulator level: the maximum
        // possible number of sleep/wake transitions for the workload.
        let cfg = gated_grid_cfg(kind, layout, 0, wakeup_latency);
        let mut sim = NocSimulation::new(
            cfg.clone(),
            scenario_traffic(TrafficPattern::Uniform, rate, cfg.packet_length(), true),
            seed,
        );
        let mut delivered_last = 0;
        for pause in 0..6 {
            sim.run_cycles(1_500);
            prop_assert_eq!(sim.check_invariants(), Ok(()), "pause {}", pause);
            let delivered = sim.total_packets_delivered();
            prop_assert!(delivered >= delivered_last);
            delivered_last = delivered;
        }
        let activity = sim.take_activity().total();
        prop_assert!(activity.sleep_events > 0, "storm setup must actually gate");
        prop_assert!(activity.wake_events > 0, "traffic must wake gated routers");
        prop_assert!(sim.total_packets_delivered() > 0, "the network must make progress");
        // Sleep/wake events balance up to the routers still asleep/waking.
        prop_assert!(activity.wake_events <= activity.sleep_events);
    }

    /// Gating disabled — explicitly or by default — is bit-identical to the
    /// ungated simulator, window by window.
    #[test]
    fn gating_off_is_bit_identical(
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
        let disabled = plain.to_builder().gating(GatingConfig::disabled()).build().unwrap();
        let mut a = NocSimulation::new(
            plain.clone(),
            scenario_traffic(TrafficPattern::Uniform, rate, 4, false),
            seed,
        );
        let mut b = NocSimulation::new(
            disabled,
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
        prop_assert_eq!(b.gated_router_count(), 0);
    }
}

/// Higher wakeup latency ⇒ no lower average packet latency: each extra cycle
/// of power-up time can only stall fenced flits longer.
#[test]
fn wakeup_latency_is_monotone_in_packet_latency() {
    for (kind, seed) in
        [(TopologyKind::Mesh, 11u64), (TopologyKind::Mesh, 23), (TopologyKind::Torus, 7)]
    {
        let mut last = 0.0f64;
        for wakeup_latency in [1u64, 4, 16, 64] {
            let cfg = gated_grid_cfg(kind, RegionLayout::Whole, 4, wakeup_latency);
            let mut sim = NocSimulation::new(
                cfg.clone(),
                scenario_traffic(TrafficPattern::Uniform, 0.03, cfg.packet_length(), false),
                seed,
            );
            sim.run_cycles(20_000);
            let latency = sim.stats().avg_latency_cycles().expect("packets must complete");
            assert!(
                latency >= last,
                "{}/seed {seed}: latency fell from {last} to {latency} when the wakeup \
                 latency rose to {wakeup_latency}",
                kind.name()
            );
            last = latency;
        }
    }
}

/// A gated router refuses new route computation by construction: it is only
/// ever entered once drained, and the fence keeps flits out until it is
/// Active again — observable as zero buffered flits in any non-Active state.
#[test]
fn fenced_routers_never_hold_flits() {
    let cfg = gated_grid_cfg(TopologyKind::Mesh, RegionLayout::Whole, 2, 12);
    let mut sim = NocSimulation::new(
        cfg.clone(),
        scenario_traffic(TrafficPattern::Uniform, 0.05, cfg.packet_length(), true),
        3,
    );
    let mut saw_gated = false;
    for _ in 0..400 {
        sim.run_cycles(17);
        for node in 0..sim.node_count() {
            if sim.router_gate_state(node) != GateState::Active {
                saw_gated = true;
            }
        }
        if sim.gated_router_count() > 0 {
            // The quiescence contract extends to gating: gated routers are
            // excluded from the active worklist entirely.
            assert!(sim.active_router_count() <= sim.node_count() - sim.gated_router_count());
        }
    }
    assert!(saw_gated, "the scenario must exercise the state machine");
    assert_eq!(sim.check_invariants(), Ok(()));
}

/// A gated, faulted, four-island fabric under bursty light load, one island
/// slowed: routers sleep through whole windows, wake mid-window, die and
/// recover.
fn drain_fixture() -> NocSimulation {
    let cfg = NetworkConfig::builder()
        .mesh(4, 4)
        .virtual_channels(2)
        .buffer_depth(4)
        .packet_length(4)
        .regions(RegionLayout::Quadrants)
        .gating(GatingConfig::enabled(6, 5))
        .faults(FaultConfig::scheduled(vec![
            FaultEvent::transient(FaultTarget::Router { node: 5 }, 700, 900),
            FaultEvent::transient(FaultTarget::Link { node: 9, dir: Direction::East }, 400, 1_500),
        ]))
        .build()
        .expect("valid configuration");
    let traffic = scenario_traffic(TrafficPattern::Uniform, 0.03, cfg.packet_length(), true);
    let mut sim = NocSimulation::new(cfg, traffic, 2026);
    sim.set_island_frequency(3, Hertz::from_mhz(500.0));
    sim
}

/// Two copies of one run, under every engine mode: A drains its activity
/// every window and steps tick by tick, recounting from the gate states what
/// each router's window should report — domain cycles spent Gated, sleeps,
/// wakes; B steps whole windows and alternates `reset_activity` with
/// `take_activity`, and is paused, snapshotted and restored into a fresh
/// simulation in the middle of a window. B's taken windows equal A's field
/// for field, A's gating fields equal the recount window by window (so their
/// sums over the run do too), and no record is gated for longer than it
/// lasted.
#[test]
fn activity_drains_match_every_window_drains_and_a_per_tick_recount() {
    const WINDOW: u64 = 250;
    const WINDOWS: usize = 12;
    const PAUSED: usize = 7;
    for mode in &ENGINE_MODES {
        let fresh = || {
            let mut sim = drain_fixture();
            mode.select(&mut sim);
            sim
        };
        let (mut a, mut b) = (fresh(), fresh());
        let island_of = a.region_map().assignments().to_vec();
        let nodes = a.node_count();
        let states = |sim: &NocSimulation| -> Vec<GateState> {
            (0..nodes).map(|node| sim.router_gate_state(node)).collect()
        };
        let mut island_cycles: Vec<u64> =
            (0..a.island_count()).map(|i| a.island_cycle(i)).collect();
        let mut slept_through_a_window = false;
        for window in 0..WINDOWS {
            if window == 5 {
                for sim in [&mut a, &mut b] {
                    sim.set_island_idle_threshold(1, 30);
                    sim.set_island_idle_threshold(2, GATE_NEVER);
                }
            }
            // (gated domain cycles, sleeps, wakes) per router. With every
            // idle threshold ≥ 1 a router enters the fence at most once per
            // tick; it may gate and be woken in the same tick.
            let mut recount = vec![(0u64, 0u64, 0u64); nodes];
            for _ in 0..WINDOW {
                let before = states(&a);
                mode.run(&mut a, 1);
                for (node, (was, is)) in before.iter().zip(states(&a)).enumerate() {
                    let island = island_of[node] as usize;
                    let r = &mut recount[node];
                    if *was == GateState::Gated {
                        r.0 += a.island_cycle(island) - island_cycles[island];
                    }
                    r.1 += u64::from(!was.is_fenced() && is.is_fenced());
                    r.2 += u64::from(
                        (*was == GateState::Gated && is != GateState::Gated)
                            || (!was.is_fenced() && is == GateState::WakeUp),
                    );
                }
                for (island, cycle) in island_cycles.iter_mut().enumerate() {
                    *cycle = a.island_cycle(island);
                }
            }
            if window == PAUSED {
                mode.run(&mut b, WINDOW / 2);
                let bytes = b.snapshot().to_bytes();
                let mut restored = fresh();
                let snap = SimSnapshot::from_bytes(&bytes).expect("decodes");
                restored.restore(&snap).expect("restores");
                assert_eq!(restored.snapshot().to_bytes(), bytes, "{}: re-snapshot", mode.name);
                b = restored;
                mode.run(&mut b, WINDOW - WINDOW / 2);
            } else {
                mode.run(&mut b, WINDOW);
            }
            let taken = a.take_activity();
            for (node, r) in taken.routers.iter().enumerate() {
                let at = format!("{}: window {window}, router {node}", mode.name);
                assert!(r.gated_cycles <= r.cycles, "{at}");
                assert_eq!((r.gated_cycles, r.sleep_events, r.wake_events), recount[node], "{at}");
                slept_through_a_window |= r.gated_cycles == r.cycles && r.cycles > 0;
            }
            if window % 2 == 0 {
                b.reset_activity();
            } else {
                assert_eq!(b.take_activity(), taken, "{}: window {window}", mode.name);
            }
        }
        assert!(slept_through_a_window, "{}: a router must stay gated across a drain", mode.name);
        assert!(a.total_flits_dropped() > 0, "{}: the router fault must hit traffic", mode.name);
        assert_eq!(a.snapshot().to_bytes(), b.snapshot().to_bytes(), "{}", mode.name);
    }
}

/// The issue's acceptance criterion at full scale: BreakEvenAware gating on
/// a light-load 8×8 mesh reports strictly lower total energy than the
/// ungated baseline while the accepted throughput is unchanged.
#[test]
fn break_even_gating_on_8x8_saves_energy_at_unchanged_throughput() {
    let net = NetworkConfig::builder().mesh(8, 8).build().unwrap();
    let loop_cfg = ClosedLoopConfig::quick();
    let load = 0.03;
    let baseline = run_operating_point(
        &net,
        Box::new(SyntheticTraffic::new(TrafficPattern::Uniform, load, net.packet_length())),
        PolicyKind::NoDvfs,
        &loop_cfg,
        2015,
    );
    let gated = run_operating_point_gated(
        &net,
        Box::new(SyntheticTraffic::new(TrafficPattern::Uniform, load, net.packet_length())),
        PolicyKind::NoDvfs,
        GatingPolicyKind::BreakEvenAware(BreakEvenConfig::new()),
        &loop_cfg,
        2015,
    );
    let baseline_energy = baseline.power_mw * baseline.measurement_wall_ns;
    let gated_energy = gated.aggregate.power_mw * gated.aggregate.measurement_wall_ns;
    assert!(
        gated_energy < baseline_energy,
        "gating must cut total energy ({gated_energy} vs {baseline_energy} pJ)"
    );
    assert!(
        (gated.aggregate.throughput - baseline.throughput).abs()
            <= 0.02 * baseline.throughput.max(1e-12),
        "accepted throughput must be unchanged ({} vs {})",
        gated.aggregate.throughput,
        baseline.throughput
    );
    assert!(gated.gated_fraction() > 0.25, "a 3% load leaves most routers asleep");
    assert!(gated.gating.total().net_saving_pj() > 0.0);
}
