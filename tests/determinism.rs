//! Determinism contract of the simulator and the sweep engine.
//!
//! Three guarantees are pinned here:
//!
//! 1. **Golden windows** — the exact [`WindowMeasurement`] sequence of the
//!    4×4 baseline scenario `(config, uniform traffic, seed 2015)` is checked
//!    in. Any hot-path change that alters simulated behaviour (rather than
//!    just making it faster) trips this test; an intentional behaviour change
//!    must update the constants below *deliberately*. The goldens are
//!    checked under every engine mode ([`common::ENGINE_MODES`]) — sparse
//!    with and without event-horizon skipping, and two island workers on a
//!    quadrant partition of the same fabric (every island at the base rate
//!    fires on every tick, so the partition changes who steps a router,
//!    never what happens).
//! 2. **Serial / parallel parity** — a multi-policy load sweep produces
//!    bit-identical [`OperatingPointResult`]s whether the `(policy × load)`
//!    grid runs on one thread or across all cores, because every operating
//!    point is an independent simulation with an explicit seed.
//! 3. **Golden closed-loop points** — `to_bits` of power, delay, frequency
//!    and Vdd of the control loop on the 4×4 baseline, for the default
//!    single-island partition (through both `run_operating_point` and
//!    `run_operating_point_islands`: global DVFS is the one-island case),
//!    for quadrant islands, and for break-even-aware gating.

use noc_dvfs::experiments::{compare_policies_synthetic, ExperimentQuality};
use noc_dvfs::scenario::{scenario_grid, sweep_scenario, sweep_scenario_serial};
use noc_dvfs::sweep::{sweep_policies, sweep_policies_serial};
use noc_dvfs::{
    run_operating_point, run_operating_point_gated, run_operating_point_islands, BreakEvenConfig,
    ClosedLoopConfig, DmsdConfig, GatingPolicyKind, OperatingPointResult, PolicyKind, RmsdConfig,
};
use noc_sim::{
    BurstyTraffic, NetworkConfig, NocSimulation, RegionLayout, SyntheticTraffic, TrafficPattern,
    TrafficSpec,
};

mod common;
use common::ENGINE_MODES;

/// One expected measurement window (mirrors `WindowMeasurement`, minus the
/// fields that are trivially zero in this scenario).
struct GoldenWindow {
    noc_cycles: u64,
    node_cycles: u64,
    wall_time_ps: f64,
    flits_generated: u64,
    flits_injected: u64,
    packets_ejected: u64,
    flits_ejected: u64,
    latency_cycles_sum: u64,
    delay_ps_sum: f64,
}

/// The 4×4 paper-style baseline used throughout the unit tests.
fn baseline_4x4() -> NetworkConfig {
    NetworkConfig::builder()
        .mesh(4, 4)
        .virtual_channels(2)
        .buffer_depth(4)
        .packet_length(5)
        .build()
        .unwrap()
}

/// Golden `WindowMeasurement` sequence for
/// `(baseline_4x4, uniform @ 0.10 flits/cycle/node, seed 2015)`,
/// six windows of 500 NoC cycles at the default 1 GHz clock.
const GOLDEN_WINDOWS: [GoldenWindow; 6] = [
    GoldenWindow {
        noc_cycles: 500,
        node_cycles: 500,
        wall_time_ps: 500000.0,
        flits_generated: 875,
        flits_injected: 867,
        packets_ejected: 170,
        flits_ejected: 852,
        latency_cycles_sum: 3249,
        delay_ps_sum: 3249000.0,
    },
    GoldenWindow {
        noc_cycles: 500,
        node_cycles: 500,
        wall_time_ps: 500000.0,
        flits_generated: 770,
        flits_injected: 776,
        packets_ejected: 154,
        flits_ejected: 768,
        latency_cycles_sum: 2992,
        delay_ps_sum: 2992000.0,
    },
    GoldenWindow {
        noc_cycles: 500,
        node_cycles: 500,
        wall_time_ps: 500000.0,
        flits_generated: 865,
        flits_injected: 867,
        packets_ejected: 172,
        flits_ejected: 866,
        latency_cycles_sum: 3405,
        delay_ps_sum: 3405000.0,
    },
    GoldenWindow {
        noc_cycles: 500,
        node_cycles: 500,
        wall_time_ps: 500000.0,
        flits_generated: 810,
        flits_injected: 810,
        packets_ejected: 160,
        flits_ejected: 803,
        latency_cycles_sum: 3190,
        delay_ps_sum: 3190000.0,
    },
    GoldenWindow {
        noc_cycles: 500,
        node_cycles: 500,
        wall_time_ps: 500000.0,
        flits_generated: 815,
        flits_injected: 811,
        packets_ejected: 166,
        flits_ejected: 821,
        latency_cycles_sum: 3214,
        delay_ps_sum: 3214000.0,
    },
    GoldenWindow {
        noc_cycles: 500,
        node_cycles: 500,
        wall_time_ps: 500000.0,
        flits_generated: 905,
        flits_injected: 905,
        packets_ejected: 180,
        flits_ejected: 900,
        latency_cycles_sum: 3525,
        delay_ps_sum: 3525000.0,
    },
];

/// The 4×4 torus used by the scenario-engine goldens: the baseline
/// micro-architecture on wrap-around links.
fn torus_4x4() -> NetworkConfig {
    NetworkConfig::builder()
        .torus(4, 4)
        .virtual_channels(2)
        .buffer_depth(4)
        .packet_length(5)
        .build()
        .unwrap()
}

/// Golden `WindowMeasurement` sequence for
/// `(torus_4x4, bursty hotspot @ 0.10 flits/cycle/node, seed 2015)` —
/// bursty parameters: 200-cycle bursts at 4× the average rate. Six windows
/// of 500 NoC cycles at the default 1 GHz clock. Pins the whole new scenario
/// stack at once: torus wrap links, dateline VC classes, hotspot
/// destinations and the MMP injection process (note the ~3× swing in
/// `flits_generated` across windows — that *is* the burstiness).
const GOLDEN_TORUS_WINDOWS: [GoldenWindow; 6] = [
    GoldenWindow {
        noc_cycles: 500,
        node_cycles: 500,
        wall_time_ps: 500000.0,
        flits_generated: 880,
        flits_injected: 862,
        packets_ejected: 167,
        flits_ejected: 841,
        latency_cycles_sum: 3647,
        delay_ps_sum: 3647000.0,
    },
    GoldenWindow {
        noc_cycles: 500,
        node_cycles: 500,
        wall_time_ps: 500000.0,
        flits_generated: 1500,
        flits_injected: 1237,
        packets_ejected: 237,
        flits_ejected: 1191,
        latency_cycles_sum: 7871,
        delay_ps_sum: 7871000.0,
    },
    GoldenWindow {
        noc_cycles: 500,
        node_cycles: 500,
        wall_time_ps: 500000.0,
        flits_generated: 1050,
        flits_injected: 1234,
        packets_ejected: 254,
        flits_ejected: 1260,
        latency_cycles_sum: 28623,
        delay_ps_sum: 28623000.0,
    },
    GoldenWindow {
        noc_cycles: 500,
        node_cycles: 500,
        wall_time_ps: 500000.0,
        flits_generated: 830,
        flits_injected: 907,
        packets_ejected: 179,
        flits_ejected: 898,
        latency_cycles_sum: 6970,
        delay_ps_sum: 6970000.0,
    },
    GoldenWindow {
        noc_cycles: 500,
        node_cycles: 500,
        wall_time_ps: 500000.0,
        flits_generated: 825,
        flits_injected: 830,
        packets_ejected: 169,
        flits_ejected: 846,
        latency_cycles_sum: 3749,
        delay_ps_sum: 3749000.0,
    },
    GoldenWindow {
        noc_cycles: 500,
        node_cycles: 500,
        wall_time_ps: 500000.0,
        flits_generated: 460,
        flits_injected: 472,
        packets_ejected: 95,
        flits_ejected: 472,
        latency_cycles_sum: 2028,
        delay_ps_sum: 2028000.0,
    },
];

/// Checks `expected` against `cfg` under `traffic`, seed 2015, in every
/// engine mode, on the fabric as configured and split into quadrant islands.
fn assert_windows_match(
    cfg: &NetworkConfig,
    traffic: impl Fn() -> Box<dyn TrafficSpec>,
    expected: &[GoldenWindow],
) {
    for layout in [RegionLayout::Whole, RegionLayout::Quadrants] {
        let cfg = cfg.to_builder().regions(layout).build().unwrap();
        for mode in &ENGINE_MODES {
            let mut sim = NocSimulation::new(cfg.clone(), traffic(), 2015);
            mode.select(&mut sim);
            for (i, e) in expected.iter().enumerate() {
                mode.run(&mut sim, 500);
                let w = sim.take_window();
                let at = format!("{layout:?}, {}, window {i}", mode.name);
                assert_eq!(w.noc_cycles, e.noc_cycles, "{at}: noc_cycles");
                assert_eq!(w.node_cycles, e.node_cycles, "{at}: node_cycles");
                assert_eq!(w.wall_time_ps, e.wall_time_ps, "{at}: wall_time_ps");
                assert_eq!(w.flits_generated, e.flits_generated, "{at}: flits_generated");
                assert_eq!(w.flits_injected, e.flits_injected, "{at}: flits_injected");
                assert_eq!(w.packets_ejected, e.packets_ejected, "{at}: packets_ejected");
                assert_eq!(w.flits_ejected, e.flits_ejected, "{at}: flits_ejected");
                assert_eq!(w.latency_cycles_sum, e.latency_cycles_sum, "{at}: latency_cycles_sum");
                assert_eq!(w.delay_ps_sum, e.delay_ps_sum, "{at}: delay_ps_sum");
            }
        }
    }
}

#[test]
fn golden_torus_hotspot_bursty_sequence_is_stable() {
    let cfg = torus_4x4();
    let length = cfg.packet_length();
    let traffic = || -> Box<dyn TrafficSpec> {
        Box::new(BurstyTraffic::new(TrafficPattern::Hotspot, 0.10, length, 200.0, 4.0))
    };
    assert_windows_match(&cfg, traffic, &GOLDEN_TORUS_WINDOWS);
}

#[test]
fn scenario_grid_sweeps_have_serial_parallel_parity() {
    // The widened (topology × pattern × injection) grid: every scenario the
    // 4×4 base admits, swept once on the serial grid and once on the parallel
    // grid (`NOC_SWEEP_THREADS` workers, all cores unless set); the
    // operating points must be bit-identical. One cheap load point and a
    // single policy per scenario keep the full-grid check affordable.
    let base = baseline_4x4();
    let loads = [0.08];
    let policies = [PolicyKind::NoDvfs];
    let loop_cfg = ClosedLoopConfig::quick();
    let mut grid = scenario_grid(&base, true);
    assert_eq!(grid.len(), 32, "4x4 admits the full 2 topo x 8 pattern x 2 process grid");
    // One loop and one grid pair serve every axis, so the island and gating
    // axes are two more cases of the same check, not a separate sweep.
    let uniform = grid[0];
    grid.push(uniform.islands(RegionLayout::Quadrants));
    grid.push(uniform.gated(GatingPolicyKind::IdleThreshold(12)));
    for scenario in grid {
        let net = scenario.network(&base).expect("grid scenarios are valid");
        let parallel = sweep_scenario(&net, scenario, &loads, &policies, &loop_cfg, 2015);
        let serial = sweep_scenario_serial(&net, scenario, &loads, &policies, &loop_cfg, 2015);
        assert_eq!(parallel, serial, "parity broke for {}", scenario.label());
    }
}

#[test]
fn golden_window_sequence_is_stable() {
    let cfg = baseline_4x4();
    let length = cfg.packet_length();
    let traffic = || -> Box<dyn TrafficSpec> {
        Box::new(SyntheticTraffic::new(TrafficPattern::Uniform, 0.10, length))
    };
    assert_windows_match(&cfg, traffic, &GOLDEN_WINDOWS);
}

#[test]
fn identical_runs_produce_identical_window_sequences() {
    let cfg = baseline_4x4();
    let mk = |seed: u64| {
        let traffic = SyntheticTraffic::new(TrafficPattern::Uniform, 0.18, 5);
        NocSimulation::new(cfg.clone(), Box::new(traffic), seed)
    };
    let mut a = mk(7);
    let mut b = mk(7);
    for _ in 0..10 {
        a.run_cycles(300);
        b.run_cycles(300);
        assert_eq!(a.take_window(), b.take_window());
    }
    assert_eq!(a.stats(), b.stats());
}

#[test]
fn parallel_sweep_is_bit_identical_to_serial() {
    let net = baseline_4x4();
    let loads = [0.05, 0.10, 0.16];
    let make: &(dyn Fn(f64) -> Box<dyn TrafficSpec> + Sync) =
        &|load| Box::new(SyntheticTraffic::new(TrafficPattern::Uniform, load, 5));
    let policies =
        [PolicyKind::NoDvfs, PolicyKind::Rmsd(RmsdConfig::with_lambda_max(0.3))];
    let loop_cfg = ClosedLoopConfig::quick();
    let serial = sweep_policies_serial(&net, &loads, make, &policies, &loop_cfg, 2015);
    let parallel = sweep_policies(&net, &loads, make, &policies, &loop_cfg, 2015);
    assert_eq!(serial, parallel, "parallel sweep must be bit-identical to serial");
}

#[test]
fn figure_driver_is_deterministic_across_invocations() {
    // A Fig. 2-style comparison (smallest budget) run twice end to end —
    // covers the saturation search + parallel sweep pipeline.
    let quality = ExperimentQuality {
        loop_cfg: ClosedLoopConfig {
            control_period_cycles: 600,
            warmup_intervals: 2,
            measure_intervals: 3,
            max_settle_intervals: 12,
            settle_tolerance: 0.02,
        },
        load_points: 2,
        saturation_probe_cycles: 3_000,
        seed: 2015,
    };
    let net = baseline_4x4();
    let a = compare_policies_synthetic("parity", &net, TrafficPattern::Uniform, &quality, None);
    let b = compare_policies_synthetic("parity", &net, TrafficPattern::Uniform, &quality, None);
    assert_eq!(a, b);
}

/// One pinned closed-loop operating point: `to_bits` of the four averages a
/// figure reads plus the delivered-packet count.
#[derive(Debug, PartialEq)]
struct GoldenPoint {
    power_mw: u64,
    avg_delay_ns: u64,
    avg_frequency_ghz: u64,
    avg_vdd: u64,
    packets_delivered: u64,
}

impl GoldenPoint {
    fn of(p: &OperatingPointResult) -> Self {
        GoldenPoint {
            power_mw: p.power_mw.to_bits(),
            avg_delay_ns: p.avg_delay_ns.to_bits(),
            avg_frequency_ghz: p.avg_frequency_ghz.to_bits(),
            avg_vdd: p.avg_vdd.to_bits(),
            packets_delivered: p.packets_delivered,
        }
    }
}

/// `[power_mw, avg_delay_ns]`, `[avg_frequency_ghz, avg_vdd]` (all `to_bits`)
/// and the packet count of one golden point.
const fn golden(power_delay: [u64; 2], freq_vdd: [u64; 2], packets_delivered: u64) -> GoldenPoint {
    GoldenPoint {
        power_mw: power_delay[0],
        avg_delay_ns: power_delay[1],
        avg_frequency_ghz: freq_vdd[0],
        avg_vdd: freq_vdd[1],
        packets_delivered,
    }
}

/// Loads of the closed-loop golden grid: `baseline_4x4`,
/// `ClosedLoopConfig::quick()`, seed 2015, uniform traffic, policy-major over
/// [`golden_loop_policies`] at these two loads. The light load gates under
/// `BreakEvenAware`; the heavier one makes RMSD and DMSD leave the frequency
/// floor and the quadrant islands diverge.
const GOLDEN_LOOP_LOADS: [f64; 2] = [0.04, 0.12];

fn golden_loop_policies() -> [PolicyKind; 3] {
    [
        PolicyKind::NoDvfs,
        PolicyKind::Rmsd(RmsdConfig::with_lambda_max(0.3)),
        PolicyKind::Dmsd(DmsdConfig::with_target_ns(45.0)),
    ]
}

/// Calls `check(index, traffic, policy)` for every point of the golden grid,
/// in the order the constant tables below are written.
fn for_each_golden_loop_point(mut check: impl FnMut(usize, Box<dyn TrafficSpec>, PolicyKind)) {
    let mut index = 0;
    for policy in golden_loop_policies() {
        for load in GOLDEN_LOOP_LOADS {
            let traffic = SyntheticTraffic::new(TrafficPattern::Uniform, load, 5);
            check(index, Box::new(traffic), policy.clone());
            index += 1;
        }
    }
}

/// Golden closed-loop points on the default single-island partition.
const GOLDEN_LOOP_WHOLE: [GoldenPoint; 6] = [
    // No-DVFS @ 0.04
    golden(
        [0x40480395810624dd, 0x4032af673e63e9cc],
        [0x3ff0000000000000, 0x3feccccccccccccd],
        1153,
    ),
    // No-DVFS @ 0.12
    golden(
        [0x40510e3b58b37eee, 0x40341db80c836396],
        [0x3ff0000000000000, 0x3feccccccccccccd],
        3437,
    ),
    // RMSD @ 0.04
    golden(
        [0x4023a34991adf07e, 0x404da272511cc78d],
        [0x3fd54fdf3b645a1d, 0x3fe1eb851eb851ec],
        1158,
    ),
    // RMSD @ 0.12
    golden(
        [0x4034ea166d235d1d, 0x404d38d8d5eed7f5],
        [0x3fd9ac46920ac9dc, 0x3fe301a5d262cb66],
        3475,
    ),
    // DMSD @ 0.04
    golden(
        [0x4031d9711856460e, 0x40422c5f42593d46],
        [0x3fe14f7f4f400424, 0x3fe53ac08868b3c2],
        1184,
    ),
    // DMSD @ 0.12
    golden(
        [0x403e89d309dd9c22, 0x40429808f0796ba7],
        [0x3fe246a4853c6c75, 0x3fe5b6196b75297b],
        3471,
    ),
];

/// Golden closed-loop points under per-island control on
/// `RegionLayout::Quadrants`: the aggregate plus each island's time-averaged
/// frequency (`residency.avg_frequency_ghz().to_bits()`).
const GOLDEN_LOOP_QUADRANTS: [(GoldenPoint, [u64; 4]); 6] = [
    // No-DVFS @ 0.04
    (
        golden(
            [0x40480395810624dd, 0x4032af673e63e9cc],
            [0x3ff0000000000000, 0x3feccccccccccccd],
            1153,
        ),
        [0x3ff0000000000000, 0x3ff0000000000000,
         0x3ff0000000000000, 0x3ff0000000000000],
    ),
    // No-DVFS @ 0.12
    (
        golden(
            [0x40510e3b58b37eee, 0x40341db80c836396],
            [0x3ff0000000000000, 0x3feccccccccccccd],
            3437,
        ),
        [0x3ff0000000000000, 0x3ff0000000000000,
         0x3ff0000000000000, 0x3ff0000000000000],
    ),
    // RMSD @ 0.04
    (
        golden(
            [0x4023a34991adf07e, 0x404da272511cc78d],
            [0x3fd54fdf3b645a1d, 0x3fe1eb851eb851ec],
            1158,
        ),
        [0x3fd54fdf3b645a1d, 0x3fd54fdf3b645a1d,
         0x3fd54fdf3b645a1d, 0x3fd54fdf3b645a1d],
    ),
    // RMSD @ 0.12
    (
        golden(
            [0x4034e6039293351c, 0x404c8d90d3d571fe],
            [0x3fd9b0b3bd3927ac, 0x3fe302a952fcb666],
            3474,
        ),
        [0x3fda0c2db3e36976, 0x3fd9a1dec3e6e9c3,
         0x3fd834536b6212ab, 0x3fdae06f11b838d3],
    ),
    // DMSD @ 0.04
    (
        golden(
            [0x4031c780039173db, 0x404218ca4afb9f27],
            [0x3fe1451303fb675e, 0x3fe5358f0f1f17ff],
            1182,
        ),
        [0x3fe146882a23a14b, 0x3fe1207b7487820e,
         0x3fe1545f52692965, 0x3fe158e91ed950bd],
    ),
    // DMSD @ 0.12
    (
        golden(
            [0x403e79f120192004, 0x4042a1ba8ae8b585],
            [0x3fe2432e41449fde, 0x3fe5b45ef00501f5],
            3474,
        ),
        [0x3fe26bd9c794438c, 0x3fe226edeb72728c,
         0x3fe2453f7faafe2b, 0x3fe234b1d260cb32],
    ),
];

/// Golden closed-loop points under `BreakEvenAware` gating on the default
/// partition: the aggregate plus `gated_fraction().to_bits()`.
const GOLDEN_LOOP_GATED: [(GoldenPoint, u64); 6] = [
    // No-DVFS @ 0.04
    (
        golden(
            [0x4045e607f84bbebc, 0x403d458e38e38e39],
            [0x3ff0000000000000, 0x3feccccccccccccd],
            1152,
        ),
        0x3fd518cdb5d11fa1,
    ),
    // No-DVFS @ 0.12
    (
        golden(
            [0x40510e3b58b37eee, 0x40341db80c836396],
            [0x3ff0000000000000, 0x3feccccccccccccd],
            3437,
        ),
        0x0000000000000000,
    ),
    // RMSD @ 0.04
    (
        golden(
            [0x4023a34991adf07e, 0x404da272511cc78d],
            [0x3fd54fdf3b645a1d, 0x3fe1eb851eb851ec],
            1158,
        ),
        0x0000000000000000,
    ),
    // RMSD @ 0.12
    (
        golden(
            [0x4034ea166d235d1d, 0x404d38d8d5eed7f5],
            [0x3fd9ac46920ac9dc, 0x3fe301a5d262cb66],
            3475,
        ),
        0x0000000000000000,
    ),
    // DMSD @ 0.04
    (
        golden(
            [0x403b86a31b60d52e, 0x4042e39986fe22ac],
            [0x3fe75ad2ec26774d, 0x3fe84676b93da187],
            1166,
        ),
        0x3fccce6be35022ec,
    ),
    // DMSD @ 0.12
    (
        golden(
            [0x403e58babe2d1790, 0x4042a5d18ded8ca4],
            [0x3fe2387dec7bcb0e, 0x3fe5af06ee0e60b9],
            3472,
        ),
        0x0000000000000000,
    ),
];

#[test]
fn golden_closed_loop_points_on_the_default_partition_are_stable() {
    // Global DVFS is the one-island case: `run_operating_point` and the
    // aggregate of `run_operating_point_islands` must hit the same constants.
    let net = baseline_4x4();
    let cfg = ClosedLoopConfig::quick();
    for_each_golden_loop_point(|i, traffic, policy| {
        let p = run_operating_point(&net, traffic, policy, &cfg, 2015);
        assert_eq!(GoldenPoint::of(&p), GOLDEN_LOOP_WHOLE[i], "run_operating_point, point {i}");
    });
    for_each_golden_loop_point(|i, traffic, policy| {
        let p = run_operating_point_islands(&net, traffic, policy, &cfg, 2015);
        assert_eq!(p.islands.len(), 1);
        assert_eq!(
            GoldenPoint::of(&p.aggregate),
            GOLDEN_LOOP_WHOLE[i],
            "run_operating_point_islands aggregate, point {i}"
        );
    });
}

#[test]
fn golden_closed_loop_points_on_quadrant_islands_are_stable() {
    let net = baseline_4x4().to_builder().regions(RegionLayout::Quadrants).build().unwrap();
    let cfg = ClosedLoopConfig::quick();
    for_each_golden_loop_point(|i, traffic, policy| {
        let p = run_operating_point_islands(&net, traffic, policy, &cfg, 2015);
        let (aggregate, island_freqs) = &GOLDEN_LOOP_QUADRANTS[i];
        assert_eq!(&GoldenPoint::of(&p.aggregate), aggregate, "aggregate, point {i}");
        let freqs: Vec<u64> =
            p.islands.iter().map(|s| s.residency.avg_frequency_ghz().to_bits()).collect();
        assert_eq!(freqs, island_freqs, "island frequencies, point {i}");
    });
}

#[test]
fn golden_gated_closed_loop_points_are_stable() {
    let net = baseline_4x4();
    let cfg = ClosedLoopConfig::quick();
    let gating = GatingPolicyKind::BreakEvenAware(BreakEvenConfig::new());
    for_each_golden_loop_point(|i, traffic, policy| {
        let p = run_operating_point_gated(&net, traffic, policy, gating, &cfg, 2015);
        let (aggregate, gated_fraction) = &GOLDEN_LOOP_GATED[i];
        assert_eq!(&GoldenPoint::of(&p.aggregate), aggregate, "aggregate, point {i}");
        assert_eq!(p.gated_fraction().to_bits(), *gated_fraction, "gated fraction, point {i}");
    });
}
