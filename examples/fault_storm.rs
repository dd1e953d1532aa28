//! Fault tolerance end to end: permanent faults, transient storms, and the
//! degraded-mode accounting that prices the difference.
//!
//! ```text
//! cargo run --release --example fault_storm
//! ```
//!
//! Two demonstrations:
//!
//! 1. **Routing around a permanent fault.** A link on the unique XY path of
//!    a flow is killed at cycle 0. Dimension-ordered routing strands every
//!    packet of the flow (visible as queued/buffered backlog, zero
//!    deliveries); minimal-adaptive routing with escape VCs detours and
//!    keeps delivering everything — the topology is still fully connected,
//!    and the conservation ledger `generated = received + queued + buffered
//!    + in flight + dropped` stays exact for both.
//!
//! 2. **A transient fault storm under the closed loop.** An 8×8 mesh runs
//!    the same operating point twice — once fault-free, once under a hazard
//!    process that keeps flipping links and routers down and back up — and
//!    the [`DegradedModeReport`] prices the difference: reachability,
//!    dropped flits, latency inflation, and the energy the detours cost.

use noc_dvfs_repro::dvfs::{
    degraded_mode_report, run_operating_point, ClosedLoopConfig, PolicyKind,
};
use noc_dvfs_repro::sim::{
    Direction, FaultConfig, FaultEvent, FaultTarget, HazardConfig, MatrixTraffic, NetworkConfig,
    NocSimulation, RoutingKind, SyntheticTraffic, TrafficPattern,
};

/// Part 1: one dead link, two routing algorithms, 4×4 mesh.
fn permanent_fault_demo() {
    println!("=== permanent fault: XY strands, minimal-adaptive delivers ===\n");
    // Kill the 5→6 link before any traffic; the single flow 4→7 crosses it
    // under XY routing.
    let faults = FaultConfig::scheduled(vec![FaultEvent::permanent(
        FaultTarget::Link { node: 5, dir: Direction::East },
        0,
    )]);
    for routing in [RoutingKind::Xy, RoutingKind::MinimalAdaptive] {
        let cfg = NetworkConfig::builder()
            .mesh(4, 4)
            .virtual_channels(2)
            .buffer_depth(4)
            .packet_length(4)
            .routing(routing)
            .faults(faults.clone())
            .build()
            .expect("4x4 faulted mesh configuration is valid");
        let mut rates = vec![vec![0.0; 16]; 16];
        rates[4][7] = 0.2;
        let traffic = MatrixTraffic::new(rates, cfg.packet_length());
        let mut sim = NocSimulation::new(cfg, Box::new(traffic), 2015);
        sim.run_cycles(8_000);
        // One diagnostic bundle instead of five separate getters; the
        // stranded backlog is the ledger's in-transit term.
        let c = sim.counters();
        println!(
            "{:<9} delivered {:>4} packets, stranded {:>5} flits, dropped {:>2}, \
             reachability {:.2}",
            routing.name(),
            c.packets_delivered,
            c.in_transit_flits(),
            c.flits_dropped,
            c.reachable_pairs,
        );
    }
}

/// Part 2: a sustained transient storm on an 8×8 mesh, priced against the
/// fault-free run of the same operating point.
fn storm_demo() {
    println!("\n=== transient storm: degraded-mode report ===\n");
    let load = 0.05;
    let base = NetworkConfig::builder()
        .mesh(8, 8)
        .virtual_channels(2)
        .routing(RoutingKind::MinimalAdaptive)
        .build()
        .expect("8x8 mesh configuration is valid");
    let stormy = base
        .to_builder()
        .faults(FaultConfig::none().with_hazard(HazardConfig {
            link_rate: 5e-5,
            router_rate: 2e-5,
            transient_fraction: 1.0,
            transient_duration: 300,
        }))
        .build()
        .expect("hazard configuration is valid");
    let loop_cfg = ClosedLoopConfig::quick();
    let traffic = |cfg: &NetworkConfig| {
        Box::new(SyntheticTraffic::new(TrafficPattern::Uniform, load, cfg.packet_length()))
    };
    let fault_free =
        run_operating_point(&base, traffic(&base), PolicyKind::NoDvfs, &loop_cfg, 2015);
    let faulted =
        run_operating_point(&stormy, traffic(&stormy), PolicyKind::NoDvfs, &loop_cfg, 2015);
    let report = degraded_mode_report(&faulted, &fault_free);
    println!("reachability        {:>10.3}", report.reachability);
    println!("packets delivered   {:>10}", report.packets_delivered);
    println!("flits dropped       {:>10}", report.flits_dropped);
    println!(
        "latency             {:>10.1} cycles  ({:.2}x fault-free)",
        report.avg_latency_cycles,
        report.latency_inflation()
    );
    println!(
        "energy per packet   {:>10.1} pJ      (fault-free {:.1} pJ)",
        report.energy_per_packet_pj, report.fault_free_energy_per_packet_pj
    );
    println!("rerouting energy    {:>10.1} pJ", report.rerouting_energy_pj());
    println!("degraded            {:>10}", report.is_degraded());
}

fn main() {
    permanent_fault_demo();
    storm_demo();
}
