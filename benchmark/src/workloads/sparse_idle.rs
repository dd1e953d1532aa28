//! `sparse_idle`: the same engine used the other way round.
//!
//! Large or long runs at very light load, where traffic draws, worklists,
//! gating bookkeeping and event-horizon skipping dominate and the router
//! pipeline is a minority of the time. A pipeline gain bought with slower
//! wake-up, skip or per-window cost shows here as a loss.

use super::{built, uniform, EngineCase, Stepping, Workload};
use crate::pass::{Pass, RunConfig};
use noc_dvfs::{compose_tenants, MappingPolicy, TenantMix};
use noc_sim::{BurstyTraffic, GatingConfig, NetworkConfig, TrafficPattern};

/// See the [module docs](self).
#[derive(Debug)]
pub struct SparseIdle;

/// Seed of the tenant task graphs (the one `bench_record` uses).
const TENANT_MIX_SEED: u64 = 2015;

/// Cycles per control window of the idle-window case (the `quick` control
/// period).
const WINDOW_PERIOD: u64 = 1_500;

impl Workload for SparseIdle {
    const NAME: &'static str = "sparse_idle";
    const WHY: &'static str = "large or long runs at very light load: traffic draws, worklists, \
        gating and event-horizon skipping dominate and the pipeline is a minority";
    type Inputs = Vec<EngineCase>;

    fn setup(cfg: &RunConfig, pass: &mut Pass) -> Vec<EngineCase> {
        let seed = cfg.seed;
        let mut cases = Vec::new();

        let net = built(NetworkConfig::builder().mesh(64, 64));
        let cycles = cfg.scaled(21_000, 200);
        cases.push(EngineCase::new(
            pass,
            "mesh64x64_uniform_0.0005",
            net.clone(),
            uniform(&net, 0.0005),
            seed,
            cycles,
        ));

        let net = built(NetworkConfig::builder().mesh(8, 8));
        let cycles = cfg.scaled(2_100_000, 2_000);
        cases.push(EngineCase::new(
            pass,
            "mesh8x8_uniform_0.0005",
            net.clone(),
            uniform(&net, 0.0005),
            seed,
            cycles,
        ));

        // Bursts far enough apart that routers sleep through the gaps and are
        // woken by the next burst: the gating state machines and their
        // bookkeeping run alongside the Markov-modulated source.
        let net = built(
            NetworkConfig::builder()
                .mesh(8, 8)
                .gating(GatingConfig::enabled(24, 8)),
        );
        let cycles = cfg.scaled(590_000, 2_000);
        let mmp = BurstyTraffic::new(
            TrafficPattern::Uniform,
            0.01,
            net.packet_length(),
            200.0,
            4.0,
        );
        cases.push(EngineCase::new(
            pass,
            "gated8x8_mmp_0.01",
            net,
            Box::new(mmp),
            seed,
            cycles,
        ));

        // Eight random-DAG tenants tiled onto one torus: a fabric-sized matrix
        // source whose hot rows cluster inside each tenant's tile. The task
        // graphs are the application, fixed like the H.264 and VCE graphs
        // (their Pareto-distributed rates would otherwise move the amount of
        // work by 10 % from seed to seed); `--seed` drives the injections.
        let net = built(NetworkConfig::builder().torus(16, 16));
        let cycles = cfg.scaled(210_000, 1_000);
        let mix = TenantMix::new(8, 10, TENANT_MIX_SEED);
        let tenants = pass
            .span("apps.dag.generate", || mix.workloads())
            .expect("valid tenant mix");
        let composed = pass
            .span("core.tenant.compose", || {
                compose_tenants(
                    16,
                    16,
                    &tenants,
                    &MappingPolicy::Tiled,
                    net.packet_length(),
                    0.2,
                )
            })
            .expect("eight 4x4 tiles fit a 16x16 fabric");
        cases.push(EngineCase::new(
            pass,
            "torus16x16_8tenants_0.2",
            net,
            Box::new(composed.traffic),
            seed,
            cycles,
        ));

        // Pure horizon skip plus window bookkeeping: nothing is ever due
        // except the control-window edge.
        let net = built(
            NetworkConfig::builder()
                .mesh(64, 64)
                .gating(GatingConfig::enabled(24, 8)),
        );
        let windows = cfg.scaled(21_000, 20);
        cases.push(
            EngineCase::new(
                pass,
                "idle_windows_gated64x64",
                net.clone(),
                uniform(&net, 0.0),
                seed,
                windows * WINDOW_PERIOD,
            )
            .stepping(Stepping::Windows {
                period: WINDOW_PERIOD,
            })
            .idle(),
        );
        cases
    }

    fn pass(_cfg: &RunConfig, inputs: Vec<EngineCase>, pass: &mut Pass) {
        for case in inputs {
            case.run(pass);
        }
    }
}
