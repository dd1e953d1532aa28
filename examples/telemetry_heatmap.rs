//! Zero-perturbation telemetry end to end: counter fabric, congestion
//! heatmap, Perfetto trace export and the engine profile.
//!
//! ```text
//! cargo run --release --example telemetry_heatmap
//! ```
//!
//! One 8×8 mesh runs a hotspot load with power gating, four
//! voltage-frequency islands and a transient fault storm — the busiest
//! observable scenario the simulator has — with the telemetry layer
//! installed. The example then:
//!
//! 1. prints the latest [`TelemetrySnapshot`]'s grant/stall census and
//!    buffer-occupancy histogram,
//! 2. renders the per-router congestion heatmap as ASCII plus JSON and CSV
//!    artifacts,
//! 3. exports the typed event trace as a Chrome/Perfetto `trace_events`
//!    JSON (open it at `ui.perfetto.dev`), and
//! 4. proves the zero-perturbation contract on the spot: a twin run
//!    *without* telemetry produces the bit-identical measurement window.
//!
//! [`TelemetrySnapshot`]: noc_dvfs_repro::sim::TelemetrySnapshot

use noc_dvfs_repro::sim::{
    BurstyTraffic, FaultConfig, GatingConfig, HazardConfig, Hertz, NetworkConfig, NocSimulation,
    RegionLayout, RoutingKind, TelemetryConfig, TrafficPattern, OCC_BINS,
};

fn build_sim() -> NocSimulation {
    let cfg = NetworkConfig::builder()
        .mesh(8, 8)
        .virtual_channels(2)
        .routing(RoutingKind::MinimalAdaptive)
        .regions(RegionLayout::Quadrants)
        .gating(GatingConfig::enabled(24, 8))
        .faults(FaultConfig::none().with_hazard(HazardConfig {
            link_rate: 1e-4,
            router_rate: 5e-5,
            transient_fraction: 1.0,
            transient_duration: 150,
        }))
        .build()
        .expect("8x8 observability scenario is valid");
    let traffic =
        BurstyTraffic::new(TrafficPattern::Hotspot, 0.10, cfg.packet_length(), 200.0, 4.0);
    NocSimulation::new(cfg, Box::new(traffic), 2015)
}

fn main() {
    let out_dir = std::env::temp_dir().join(format!("telemetry-heatmap-{}", std::process::id()));
    std::fs::create_dir_all(&out_dir).expect("temp output dir");

    // --- 1. an instrumented run -------------------------------------------
    let mut sim = build_sim();
    sim.install_telemetry(
        TelemetryConfig::default().with_sample_interval(512).with_profile(true),
    );
    // Retune one island mid-run so the trace shows a set-frequency event.
    sim.run_cycles(4_000);
    sim.set_island_frequency(2, Hertz::from_mhz(500.0));
    sim.run_cycles(4_000);

    let counters = sim.counters();
    println!("=== run: 8x8 hotspot + gating + islands + fault storm ===\n");
    println!(
        "cycle {}  delivered {} packets  dropped {} flits  gated {} routers",
        counters.cycle, counters.packets_delivered, counters.flits_dropped, counters.gated_routers
    );

    let telemetry = sim.telemetry().expect("telemetry installed above");
    let snap = telemetry.latest_snapshot().expect("8000 cycles cover many sample windows");
    println!("\n--- latest sample window ({}..{}) ---", snap.start_cycle, snap.end_cycle);
    println!("grants          {:>8}", snap.grants);
    println!("link flits      {:>8}", snap.link_flits);
    println!("escape flits    {:>8}   adaptive {:>8}", snap.escape_flits, snap.adaptive_flits);
    println!(
        "stalls          {:>8}   (no-credit {}, fenced {}, escape-hold {}, route {}, va {})",
        snap.total_stalls(),
        snap.stall_no_credit,
        snap.stall_fenced,
        snap.stall_escape_hold,
        snap.stall_route_wait,
        snap.stall_va_wait
    );
    println!(
        "gating          {:>8} sleeps, {} wakes, {} gated at sample",
        snap.gate_sleeps, snap.gate_wakes, snap.gated_routers
    );
    println!(
        "faults          {:>8} transitions, {} flits dropped",
        snap.fault_events, snap.fault_drops
    );
    println!("mean worklist   {:>10.1} active routers/cycle", snap.mean_worklist_occupancy());
    let occupied: u64 = snap.occupancy_hist[1..].iter().sum();
    println!(
        "occupancy hist  {:>8} empty VCs, {} occupied (deepest bin {})",
        snap.occupancy_hist[0],
        occupied,
        (0..OCC_BINS).rev().find(|&b| snap.occupancy_hist[b] > 0).unwrap_or(0)
    );

    // --- 2. the congestion heatmap ----------------------------------------
    let heatmap = sim.telemetry_heatmap().expect("telemetry installed above");
    println!("\n--- congestion heatmap (flits/router/cycle; peak {:.3}) ---", heatmap.peak());
    let peak = heatmap.peak().max(1e-12);
    for y in 0..heatmap.height {
        let row: String = (0..heatmap.width)
            .map(|x| {
                let u = heatmap.utilization[y * heatmap.width + x] / peak;
                // Five-shade ASCII ramp, hottest router = '#'.
                b" .:*#"[((u * 4.0).round() as usize).min(4)] as char
            })
            .collect();
        println!("    {row}");
    }
    let json_path = out_dir.join("heatmap.json");
    let csv_path = out_dir.join("heatmap.csv");
    std::fs::write(&json_path, heatmap.to_json()).expect("write heatmap JSON");
    std::fs::write(&csv_path, heatmap.to_csv()).expect("write heatmap CSV");
    println!("\nwrote {} and {}", json_path.display(), csv_path.display());

    // --- 3. the Perfetto trace --------------------------------------------
    let trace_path = out_dir.join("trace.json");
    let telemetry = sim.telemetry().expect("telemetry installed above");
    telemetry.events().write_perfetto(&trace_path).expect("write Perfetto trace");
    println!(
        "wrote {} ({} events, {} evicted) — open at ui.perfetto.dev",
        trace_path.display(),
        telemetry.events().len(),
        telemetry.events().dropped_events()
    );

    // --- 4. the engine profile --------------------------------------------
    let profile = telemetry.profile();
    println!("\n--- engine profile ({} steps) ---", profile.steps);
    let total = profile.total_ns().max(1);
    println!(
        "pre {:>3}%  pipeline {:>3}%  post {:>3}%  skip {:>3}%",
        100 * profile.pre_ns / total,
        100 * profile.pipeline_ns / total,
        100 * profile.post_ns / total,
        100 * profile.skip_ns / total
    );

    // --- 5. the zero-perturbation proof -----------------------------------
    let window = sim.take_window();
    let mut plain = build_sim();
    plain.run_cycles(4_000);
    plain.set_island_frequency(2, Hertz::from_mhz(500.0));
    plain.run_cycles(4_000);
    let plain_window = plain.take_window();
    assert_eq!(window, plain_window, "telemetry must not perturb the simulation");
    println!("\nzero-perturbation check: instrumented window == plain window ✔");
}
