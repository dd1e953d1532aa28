//! `loaded_fabric`: raw `run_cycles` at or near saturation, no control loop.
//!
//! The router pipeline does the work here and `core` / `power` / the codecs
//! do nothing, so this is where a change to the pipeline kernel shows, on
//! small and large fabrics. The third stepping path, per-island worker
//! threads, is run and checked in every pass but not timed (see
//! [`Stepping::Workers`]).

use super::{built, uniform, EngineCase, Stepping, Workload};
use crate::pass::{Pass, RunConfig};
use noc_sim::{BurstyTraffic, NetworkConfig, RegionLayout, TrafficPattern};

/// See the [module docs](self).
#[derive(Debug)]
pub struct LoadedFabric;

impl Workload for LoadedFabric {
    const NAME: &'static str = "loaded_fabric";
    const WHY: &'static str = "raw stepping near saturation: the router pipeline is nearly all \
        of the time, on small and large fabrics; the per-island-worker path is run and checked \
        but not timed";
    type Inputs = Vec<EngineCase>;

    fn setup(cfg: &RunConfig, pass: &mut Pass) -> Vec<EngineCase> {
        let seed = cfg.seed;
        let mut cases = Vec::new();

        let net = built(NetworkConfig::builder().mesh(8, 8));
        let cycles = cfg.scaled(42_000, 200);
        cases.push(EngineCase::new(
            pass,
            "mesh8x8_uniform_0.35",
            net.clone(),
            uniform(&net, 0.35),
            seed,
            cycles,
        ));

        let net = built(NetworkConfig::builder().mesh(16, 16));
        let cycles = cfg.scaled(13_000, 200);
        cases.push(EngineCase::new(
            pass,
            "mesh16x16_uniform_0.15",
            net.clone(),
            uniform(&net, 0.15),
            seed,
            cycles,
        ));

        let net = NetworkConfig::paper_baseline();
        let cycles = cfg.scaled(165_000, 200);
        cases.push(EngineCase::new(
            pass,
            "paper5x5_uniform_0.35",
            net.clone(),
            uniform(&net, 0.35),
            seed,
            cycles,
        ));

        let net = built(NetworkConfig::builder().torus(5, 5));
        let cycles = cfg.scaled(290_000, 200);
        let mmp = BurstyTraffic::new(
            TrafficPattern::Hotspot,
            0.35,
            net.packet_length(),
            200.0,
            4.0,
        );
        cases.push(EngineCase::new(
            pass,
            "torus5x5_hotspot_mmp_0.35",
            net,
            Box::new(mmp),
            seed,
            cycles,
        ));

        let net = built(
            NetworkConfig::builder()
                .mesh(8, 8)
                .regions(RegionLayout::Quadrants),
        );
        let cycles = cfg.scaled(3_000, 200);
        cases.push(
            EngineCase::new(
                pass,
                "islands8x8_uniform_0.30_workers2",
                net.clone(),
                uniform(&net, 0.30),
                seed,
                cycles,
            )
            .stepping(Stepping::Workers(2)),
        );
        cases
    }

    fn pass(_cfg: &RunConfig, inputs: Vec<EngineCase>, pass: &mut Pass) {
        for case in inputs {
            case.run(pass);
        }
    }
}
