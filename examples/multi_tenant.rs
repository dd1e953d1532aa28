//! A multi-tenant 16×16 fabric: the published encoders co-located with
//! random-DAG tenants, per-tenant QoS, and deterministic trace replay.
//!
//! ```text
//! cargo run --release --example multi_tenant
//! ```
//!
//! Three demonstrations:
//!
//! 1. **Composition.** Eight application task graphs — the paper's H.264
//!    encoder (4×4) and Video Conference Encoder (5×5) plus six seeded
//!    random DAGs with Pareto-distributed rates — are tiled onto one
//!    16×16 fabric with a [`TenantMap`] attributing every counted event
//!    to its tenant.
//! 2. **Per-tenant QoS.** One measurement reports, per tenant, latency /
//!    throughput / energy — and the additive ledger fields sum *exactly*
//!    (`u64`-equal) to the global window, so no flit is lost or double
//!    counted across tenants.
//! 3. **Record / replay.** The same composed run is recorded into a
//!    chunked on-disk trace and replayed on a fresh simulation with a
//!    different seed: the window ledger replays bit for bit.
//!
//! [`TenantMap`]: noc_dvfs_repro::sim::TenantMap

use noc_dvfs_repro::apps::{h264_encoder, random_task_graph, video_conference_encoder, DagConfig};
use noc_dvfs_repro::dvfs::{compose_tenants, run_tenants, MappingPolicy, TenantWorkload};
use noc_dvfs_repro::sim::{
    NetworkConfig, NocSimulation, RecordingTraffic, TraceTraffic, TraceWriter,
};
use std::sync::{Arc, Mutex};

fn main() {
    // --- 1. Compose eight tenants onto one 16x16 fabric. -----------------
    let mut workloads = vec![
        TenantWorkload::new(h264_encoder()),
        TenantWorkload::new(video_conference_encoder()),
    ];
    for t in 0..6u64 {
        let graph = random_task_graph(
            format!("dag{t}"),
            &DagConfig::new(10, 4, 4, 2015 + t),
        )
        .expect("valid generator config");
        workloads.push(TenantWorkload::new(graph));
    }
    let names: Vec<String> =
        workloads.iter().map(|w| w.graph.name().to_string()).collect();

    let net = NetworkConfig::builder()
        .mesh(16, 16)
        .virtual_channels(2)
        .buffer_depth(4)
        .packet_length(5)
        .build()
        .expect("valid configuration");
    let comp = compose_tenants(16, 16, &workloads, &MappingPolicy::Tiled, 5, 0.2)
        .expect("eight tiles fit a 16x16 fabric");
    println!("composed {} tenants onto a 16x16 fabric:", comp.map.tenant_count());
    for (t, (name, &(x, y))) in names.iter().zip(comp.offsets.iter()).enumerate() {
        let (w, h) = workloads[t].tile_size();
        println!("  tenant {t} ({name:>6}): {w}x{h} tile at ({x:2}, {y:2})");
    }
    println!(
        "  background slot: {} nodes outside every tile\n",
        comp.map.node_counts()[comp.map.tenant_count()]
    );

    // --- 2. Per-tenant QoS over one measurement. --------------------------
    let report = run_tenants(&net, &comp, 2_000, 10_000, 7);
    println!("per-tenant QoS over {} NoC cycles:", report.global.noc_cycles);
    println!(
        "  {:<10} {:>5} {:>10} {:>10} {:>12} {:>12}",
        "tenant", "nodes", "generated", "ejected", "latency cyc", "energy nJ"
    );
    for q in &report.slots {
        let label = match q.tenant {
            Some(t) => names[t as usize].clone(),
            None => "background".to_string(),
        };
        println!(
            "  {:<10} {:>5} {:>10} {:>10} {:>12} {:>12.3}",
            label,
            q.nodes,
            q.window.flits_generated,
            q.window.flits_ejected,
            q.window
                .avg_latency_cycles()
                .map_or_else(|| "-".to_string(), |l| format!("{l:.2}")),
            q.energy.total_pj() / 1e3,
        );
    }

    // The conservation contract: additive fields sum exactly.
    let gen: u64 = report.slots.iter().map(|q| q.window.flits_generated).sum();
    let ej: u64 = report.slots.iter().map(|q| q.window.flits_ejected).sum();
    let energy: f64 = report.slots.iter().map(|q| q.energy.total_pj()).sum();
    assert_eq!(gen, report.global.flits_generated);
    assert_eq!(ej, report.global.flits_ejected);
    assert!((energy - report.energy.total_pj()).abs() < 1e-9);
    println!(
        "\nconservation: {} generated / {} ejected flits across slots == global window exactly",
        gen, ej
    );

    // --- 3. Record the composed run, replay it bit for bit. --------------
    let dir = std::env::temp_dir().join(format!("multi-tenant-trace-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let writer = Arc::new(Mutex::new(
        TraceWriter::create(&dir, net.packet_length(), net.node_count(), 4096)
            .expect("trace directory is writable"),
    ));
    let recording = RecordingTraffic::new(Box::new(comp.traffic.clone()), Arc::clone(&writer))
        .with_tenants(&comp.map);
    let mut record_sim = NocSimulation::new(net.clone(), Box::new(recording), 7);
    record_sim.run_cycles(5_000);
    let recorded = record_sim.take_window();
    let summary = writer.lock().expect("no panics hold the writer").finish().expect("trace flushes");
    println!(
        "\nrecorded {} injections into {} chunks; replaying with a different seed...",
        summary.events, summary.chunks
    );

    let replay = TraceTraffic::open(&dir).expect("finished traces open");
    let mut replay_sim = NocSimulation::new(net, Box::new(replay), 999_999);
    replay_sim.run_cycles(5_000);
    let replayed = replay_sim.take_window();
    assert_eq!(replayed, recorded, "replay must reproduce the window bit for bit");
    println!(
        "replay == record: {} flits ejected, latency sum {} cycles — bit-identical",
        replayed.flits_ejected, replayed.latency_cycles_sum
    );
    let _ = std::fs::remove_dir_all(&dir);
}
