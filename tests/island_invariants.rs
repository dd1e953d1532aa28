//! Invariants of the voltage-frequency island (VFI) machinery.
//!
//! Three contracts are pinned here:
//!
//! 1. **Single-island bit-identity** — a configuration with an explicit
//!    one-island partition (named `Whole` layout *or* a degenerate custom
//!    map) reproduces the pre-VFI golden window sequence of
//!    `tests/determinism.rs` bit for bit. The island machinery must be a
//!    structural no-op when there is nothing to partition.
//! 2. **Window-sum conservation** — on *any* partition, the per-island
//!    windows of [`NocSimulation::take_island_windows`] sum field-by-field
//!    (for the additive flit/packet/latency fields) to the global
//!    [`NocSimulation::take_window`] over the same span, and the shared-clock
//!    fields (`wall_time_ps`, `node_cycles`) are identical across islands.
//! 3. **Invariants under per-island DVFS** — randomized partitions with
//!    randomized per-island frequencies keep every engine invariant
//!    ([`NocSimulation::check_invariants`]) after every tick: routers and
//!    sources of islands that do not fire stay on their worklists.

use noc_sim::{
    Hertz, NetworkConfig, NocSimulation, RegionLayout, RegionScheme, SyntheticTraffic,
    TrafficPattern, WindowMeasurement,
};
use proptest::prelude::*;

mod common;
use common::run_checked;

/// The 4×4 baseline of `tests/determinism.rs`, with a caller-chosen island
/// scheme.
fn baseline_4x4(regions: RegionScheme) -> NetworkConfig {
    NetworkConfig::builder()
        .mesh(4, 4)
        .virtual_channels(2)
        .buffer_depth(4)
        .packet_length(5)
        .regions(regions)
        .build()
        .unwrap()
}

/// First golden window of `(baseline_4x4, uniform @ 0.10, seed 2015)` from
/// `tests/determinism.rs` — enough to pin bit-identity (the full sequence is
/// checked there; any divergence shows up in the first window or cascades
/// into the aggregate equality asserted below).
const GOLDEN_FIRST: WindowMeasurement = WindowMeasurement {
    noc_cycles: 500,
    node_cycles: 500,
    wall_time_ps: 500000.0,
    flits_generated: 875,
    flits_injected: 867,
    packets_ejected: 170,
    flits_ejected: 852,
    latency_cycles_sum: 3249,
    delay_ps_sum: 3249000.0,
    flits_dropped: 0,
};

fn golden_sim(regions: RegionScheme) -> NocSimulation {
    let cfg = baseline_4x4(regions);
    let traffic = SyntheticTraffic::new(TrafficPattern::Uniform, 0.10, cfg.packet_length());
    NocSimulation::new(cfg, Box::new(traffic), 2015)
}

#[test]
fn explicit_single_island_reproduces_the_pre_vfi_golden_windows() {
    for regions in [
        RegionScheme::Layout(RegionLayout::Whole),
        RegionScheme::Custom(vec![0; 16]),
    ] {
        let mut sim = golden_sim(regions.clone());
        assert_eq!(sim.island_count(), 1);
        sim.run_cycles(500);
        assert_eq!(sim.take_window(), GOLDEN_FIRST, "regions {regions:?}");
        // The rest of the run must match the implicit-default simulation
        // window for window (six more spans, including the aggregate stats).
        let mut reference = golden_sim(RegionScheme::default());
        reference.run_cycles(500);
        let _ = reference.take_window();
        for _ in 0..6 {
            sim.run_cycles(500);
            reference.run_cycles(500);
            assert_eq!(sim.take_window(), reference.take_window(), "regions {regions:?}");
        }
        assert_eq!(sim.stats(), reference.stats());
    }
}

#[test]
fn single_island_per_island_control_is_the_global_knob() {
    // Driving the one island through set_island_frequency must match a
    // reference run driven through set_noc_frequency, window for window.
    let mut by_island = golden_sim(RegionScheme::default());
    let mut by_global = golden_sim(RegionScheme::default());
    for mhz in [1000.0, 500.0, 333.0, 800.0] {
        let f = Hertz::from_mhz(mhz);
        by_island.set_island_frequency(0, f);
        by_global.set_noc_frequency(f);
        by_island.run_cycles(400);
        by_global.run_cycles(400);
        assert_eq!(by_island.take_window(), by_global.take_window());
    }
    assert_eq!(by_island.stats(), by_global.stats());
}

/// Strategy: a random valid custom partition of the 16-node grid into
/// 1..=5 islands (always contiguous ids — node `n` gets `n % islands`).
fn random_partition(islands: usize, shift: usize) -> RegionScheme {
    RegionScheme::Custom((0..16).map(|n| ((n + shift) % islands) as u32).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::default())]

    /// On any partition, additive island-window fields sum to the global
    /// window, and shared-clock fields are identical across islands.
    #[test]
    fn island_windows_conserve_the_global_window(
        islands in 1usize..=5,
        shift in 0usize..16,
        rate in 0.03f64..0.3,
        seed in 0u64..1_000_000,
        slow_island in 0usize..5,
        slow_mhz in 333.0f64..1000.0,
        chunk in 100u64..400,
    ) {
        let cfg = baseline_4x4(random_partition(islands, shift));
        let traffic = SyntheticTraffic::new(TrafficPattern::Uniform, rate, cfg.packet_length());
        let mut sim = NocSimulation::new(cfg, Box::new(traffic), seed);
        sim.set_island_frequency(slow_island % islands, Hertz::from_mhz(slow_mhz));
        for _ in 0..3 {
            sim.run_cycles(chunk);
            let island_windows = sim.take_island_windows();
            let global = sim.take_window();
            prop_assert_eq!(island_windows.len(), islands);
            let sum = |f: fn(&WindowMeasurement) -> u64| -> u64 {
                island_windows.iter().map(f).sum()
            };
            prop_assert_eq!(sum(|w| w.flits_generated), global.flits_generated);
            prop_assert_eq!(sum(|w| w.flits_injected), global.flits_injected);
            prop_assert_eq!(sum(|w| w.flits_ejected), global.flits_ejected);
            prop_assert_eq!(sum(|w| w.packets_ejected), global.packets_ejected);
            prop_assert_eq!(sum(|w| w.latency_cycles_sum), global.latency_cycles_sum);
            let delay_sum: f64 = island_windows.iter().map(|w| w.delay_ps_sum).sum();
            prop_assert!((delay_sum - global.delay_ps_sum).abs() < 1e-6);
            for w in &island_windows {
                prop_assert_eq!(w.wall_time_ps, global.wall_time_ps);
                prop_assert_eq!(w.node_cycles, global.node_cycles);
                prop_assert!(w.noc_cycles <= global.noc_cycles);
            }
        }
    }

    /// Named for the dense reference loop these partitions were once
    /// stepped beside: under multi-island partitions with heterogeneous
    /// per-island frequencies every invariant holds after every tick.
    #[test]
    fn sparse_and_dense_agree_under_per_island_dvfs(
        islands in 2usize..=4,
        shift in 0usize..16,
        rate in 0.05f64..0.3,
        seed in 0u64..1_000_000,
        f0 in 333.0f64..1000.0,
        f1 in 333.0f64..1000.0,
        chunk in 80u64..300,
    ) {
        let cfg = baseline_4x4(random_partition(islands, shift));
        let traffic = SyntheticTraffic::new(TrafficPattern::Uniform, rate, cfg.packet_length());
        let mut sim = NocSimulation::new(cfg, Box::new(traffic), seed);
        sim.set_island_frequency(0, Hertz::from_mhz(f0));
        sim.set_island_frequency(1, Hertz::from_mhz(f1));
        run_checked(&mut sim, 4 * chunk);
    }

    /// Per-router activity reports each router's own island-domain cycles,
    /// and the per-island domain cycle counts track the frequency ratios.
    #[test]
    fn activity_cycles_follow_island_clocks(
        islands in 1usize..=4,
        shift in 0usize..16,
        slow_mhz in 333.0f64..1000.0,
        seed in 0u64..1_000_000,
    ) {
        let cfg = baseline_4x4(random_partition(islands, shift));
        let traffic = SyntheticTraffic::new(TrafficPattern::Uniform, 0.1, cfg.packet_length());
        let mut sim = NocSimulation::new(cfg, Box::new(traffic), seed);
        let slow = islands - 1;
        sim.set_island_frequency(slow, Hertz::from_mhz(slow_mhz));
        sim.run_cycles(2_000);
        let act = sim.take_activity();
        let map = sim.region_map().clone();
        for node in 0..sim.node_count() {
            let island = map.island_of(node) as usize;
            prop_assert_eq!(act.routers[node].cycles, sim.island_cycle(island));
        }
        // The slowed island's domain cycle count matches its ratio to the
        // base clock (within rounding). With a single island the "slowed"
        // island *is* the base clock: it still fires on every base tick.
        let expected =
            if islands == 1 { 2_000.0 } else { 2_000.0 * (slow_mhz / 1000.0) };
        let got = sim.island_cycle(slow) as f64;
        prop_assert!(
            (got - expected).abs() <= 2.0,
            "island {} completed {} cycles, expected about {:.1}",
            slow, got, expected
        );
    }
}
