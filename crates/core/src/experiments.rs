//! One driver per figure of the paper's evaluation.
//!
//! | function | paper figure | contents |
//! |---|---|---|
//! | [`fig2_rmsd_vs_nodvfs`] | Fig. 2(a)(b) | RMSD vs No-DVFS latency (cycles) and delay (ns) vs injection rate, uniform 5×5 |
//! | [`fig4_fig6_baseline_comparison`] | Fig. 4(a)(b) and Fig. 6 | frequency, delay and power of No-DVFS / RMSD / DMSD on the baseline scenario |
//! | [`fig5_frequency_vs_vdd`] | Fig. 5 | the 28-nm FDSOI Fmax-vs-Vdd curve |
//! | [`fig7_synthetic_patterns`] | Fig. 7(a–h) | delay and power under tornado, bit-complement, transpose and neighbor traffic |
//! | [`fig8_sensitivity`] | Fig. 8(a–h) | sensitivity to VCs, buffer depth, packet size and mesh size |
//! | [`fig10_multimedia`] | Fig. 10(a–d) | delay and power of the H.264 and VCE applications vs application speed |
//!
//! Every driver returns [`PolicyComparison`] values: the three policy curves
//! over the same load grid, from which delay, latency, power and frequency
//! series can be read (Fig. 4 and Fig. 6 share one driver because they are
//! two views of the same sweep). The `quality` argument trades fidelity for
//! run time; [`ExperimentQuality::full`] matches the paper's simulation
//! budgets while [`ExperimentQuality::quick`] is meant for tests.

use crate::closed_loop::ClosedLoopConfig;
use crate::dmsd::DmsdConfig;
use crate::policy::PolicyKind;
use crate::rmsd::RmsdConfig;
use crate::saturation::{find_saturation_load, find_saturation_rate};
use crate::sweep::{load_grid, sweep_policies, PolicyCurve};
use noc_apps::{h264_encoder, video_conference_encoder, TaskGraph};
use noc_power::{FdsoiTech, OperatingPoint};
use noc_sim::{NetworkConfig, SyntheticTraffic, TopologyKind, TrafficPattern, TrafficSpec};

/// The delay target used by DMSD throughout the paper (Fig. 4: 150 ns, chosen
/// as the RMSD delay at `λ_max`).
pub const PAPER_TARGET_DELAY_NS: f64 = 150.0;

/// The margin below the measured saturation rate at which RMSD aims to keep
/// the network (`λ_max = 0.9 × saturation` in the paper).
pub const PAPER_LAMBDA_MAX_MARGIN: f64 = 0.9;

/// Peak per-node injection rate (flits per node cycle) that the busiest
/// application node reaches at application speed 1.0. The paper publishes
/// only relative speeds; this constant sets the absolute traffic scale of the
/// multimedia experiments (see `DESIGN.md`).
pub const APP_PEAK_NODE_RATE: f64 = 0.35;

/// Simulation-budget knobs shared by all experiment drivers.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentQuality {
    /// Control-loop timing for every operating point.
    pub loop_cfg: ClosedLoopConfig,
    /// Number of load points per sweep.
    pub load_points: usize,
    /// Cycle budget of each saturation-search probe.
    pub saturation_probe_cycles: u64,
    /// RNG seed shared by all runs (results are deterministic given the seed).
    pub seed: u64,
}

impl ExperimentQuality {
    /// Paper-fidelity budgets (10 000-cycle control period, 8 load points).
    pub fn full() -> Self {
        ExperimentQuality {
            loop_cfg: ClosedLoopConfig::paper(),
            load_points: 8,
            saturation_probe_cycles: 30_000,
            seed: 2015,
        }
    }

    /// A medium budget that preserves the figure shapes at a fraction of the
    /// cost (used by the default `figures` binary run).
    pub fn standard() -> Self {
        ExperimentQuality {
            loop_cfg: ClosedLoopConfig {
                control_period_cycles: 10_000,
                warmup_intervals: 5,
                measure_intervals: 12,
                max_settle_intervals: 80,
                settle_tolerance: 0.004,
            },
            load_points: 6,
            saturation_probe_cycles: 20_000,
            seed: 2015,
        }
    }

    /// A reduced budget for unit tests and smoke benches.
    pub fn quick() -> Self {
        ExperimentQuality {
            loop_cfg: ClosedLoopConfig::quick(),
            load_points: 3,
            saturation_probe_cycles: 6_000,
            seed: 2015,
        }
    }
}

/// The three policy curves of one scenario (one sub-plot of a paper figure).
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyComparison {
    /// Scenario label (traffic pattern, parameter value, application name…).
    pub label: String,
    /// The `λ_max` used by RMSD in this scenario (flits per node cycle).
    pub lambda_max: f64,
    /// Per-policy sweeps over the same load grid.
    pub curves: Vec<PolicyCurve>,
}

impl PolicyComparison {
    /// Returns the curve of the policy with the given name, if present.
    pub fn curve(&self, policy: &str) -> Option<&PolicyCurve> {
        self.curves.iter().find(|c| c.policy == policy)
    }

    /// The load grid shared by all curves.
    pub fn loads(&self) -> Vec<f64> {
        self.curves.first().map(|c| c.loads()).unwrap_or_default()
    }
}

/// The standard policy set of the paper's comparisons.
pub(crate) fn standard_policies(lambda_max: f64) -> Vec<PolicyKind> {
    vec![
        PolicyKind::NoDvfs,
        PolicyKind::Rmsd(RmsdConfig::with_lambda_max(lambda_max)),
        PolicyKind::Dmsd(DmsdConfig::with_target_ns(PAPER_TARGET_DELAY_NS)),
    ]
}

/// Builds the synthetic-traffic closure for a pattern and packet length.
fn synthetic_factory(
    pattern: TrafficPattern,
    packet_length: usize,
) -> impl Fn(f64) -> Box<dyn TrafficSpec> {
    move |rate: f64| -> Box<dyn TrafficSpec> {
        Box::new(SyntheticTraffic::new(pattern, rate, packet_length))
    }
}

/// The `λ_max` of one synthetic scenario: the paper's margin below the
/// saturation rate found by one search at the quality's probe budget.
fn synthetic_lambda_max(
    net: &NetworkConfig,
    pattern: TrafficPattern,
    quality: &ExperimentQuality,
) -> f64 {
    PAPER_LAMBDA_MAX_MARGIN
        * find_saturation_rate(net, pattern, quality.saturation_probe_cycles, quality.seed)
}

/// Sweeps `policies` over the standard load grid `[0.1 λ_max, λ_max]` of one
/// synthetic pattern, for a `lambda_max` the caller already searched.
fn compare_at(
    label: &str,
    net: &NetworkConfig,
    pattern: TrafficPattern,
    quality: &ExperimentQuality,
    lambda_max: f64,
    policies: &[PolicyKind],
) -> PolicyComparison {
    let loads = load_grid(0.1 * lambda_max, lambda_max, quality.load_points);
    let factory = synthetic_factory(pattern, net.packet_length());
    let curves = sweep_policies(net, &loads, &factory, policies, &quality.loop_cfg, quality.seed);
    PolicyComparison { label: label.to_string(), lambda_max, curves }
}

/// Runs a three-policy comparison for one synthetic pattern on one network
/// configuration. This is the shared engine behind Figs. 4, 6, 7 and 8.
pub fn compare_policies_synthetic(
    label: &str,
    net: &NetworkConfig,
    pattern: TrafficPattern,
    quality: &ExperimentQuality,
    policies: Option<Vec<PolicyKind>>,
) -> PolicyComparison {
    let lambda_max = synthetic_lambda_max(net, pattern, quality);
    let policies = policies.unwrap_or_else(|| standard_policies(lambda_max));
    compare_at(label, net, pattern, quality, lambda_max, &policies)
}

/// Fig. 2: RMSD vs No-DVFS on the baseline 5×5 uniform scenario.
///
/// The returned comparison contains two curves ("No-DVFS", "RMSD"); the
/// latency-in-cycles view is Fig. 2(a) and the delay-in-nanoseconds view is
/// Fig. 2(b). The RMSD delay curve is expected to be non-monotonic with a
/// peak near `λ_min`.
pub fn fig2_rmsd_vs_nodvfs(quality: &ExperimentQuality) -> PolicyComparison {
    let net = NetworkConfig::paper_baseline();
    let pattern = TrafficPattern::Uniform;
    let lambda_max = synthetic_lambda_max(&net, pattern, quality);
    let policies =
        [PolicyKind::NoDvfs, PolicyKind::Rmsd(RmsdConfig::with_lambda_max(lambda_max))];
    compare_at("uniform 5x5 (Fig. 2)", &net, pattern, quality, lambda_max, &policies)
}

/// Figs. 4 and 6: the full No-DVFS / RMSD / DMSD comparison on the baseline
/// scenario. Fig. 4(a) reads the frequency series, Fig. 4(b) the delay
/// series, Fig. 6 the power series.
pub fn fig4_fig6_baseline_comparison(quality: &ExperimentQuality) -> PolicyComparison {
    let net = NetworkConfig::paper_baseline();
    compare_policies_synthetic(
        "uniform 5x5 (Figs. 4 & 6)",
        &net,
        TrafficPattern::Uniform,
        quality,
        None,
    )
}

/// Fig. 5: the maximum router frequency vs supply voltage in the 28-nm FDSOI
/// technology model.
pub fn fig5_frequency_vs_vdd(points: usize) -> Vec<OperatingPoint> {
    FdsoiTech::new().frequency_voltage_curve(points)
}

/// Fig. 7: delay and power under the four non-uniform synthetic patterns
/// (tornado, bit-complement, transpose, neighbor).
pub fn fig7_synthetic_patterns(quality: &ExperimentQuality) -> Vec<PolicyComparison> {
    let net = NetworkConfig::paper_baseline();
    [
        TrafficPattern::Tornado,
        TrafficPattern::BitComplement,
        TrafficPattern::Transpose,
        TrafficPattern::Neighbor,
    ]
    .iter()
    .map(|&pattern| {
        compare_policies_synthetic(pattern.name(), &net, pattern, quality, None)
    })
    .collect()
}

/// One axis of the Fig. 8 sensitivity analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SensitivityAxis {
    /// Number of virtual channels (paper values: 2, 4, 8).
    VirtualChannels,
    /// Buffer depth per virtual channel (4, 8, 16).
    BufferDepth,
    /// Packet length in flits (10, 15, 20).
    PacketSize,
    /// Mesh size (4×4, 5×5, 8×8).
    MeshSize,
}

impl SensitivityAxis {
    /// All four axes varied in Fig. 8.
    pub const ALL: [SensitivityAxis; 4] = [
        SensitivityAxis::VirtualChannels,
        SensitivityAxis::BufferDepth,
        SensitivityAxis::PacketSize,
        SensitivityAxis::MeshSize,
    ];

    /// The parameter values used in the paper for this axis.
    pub fn paper_values(self) -> Vec<usize> {
        match self {
            SensitivityAxis::VirtualChannels => vec![2, 4, 8],
            SensitivityAxis::BufferDepth => vec![4, 8, 16],
            SensitivityAxis::PacketSize => vec![10, 15, 20],
            SensitivityAxis::MeshSize => vec![4, 5, 8],
        }
    }

    /// Builds the network configuration for one value along this axis, with
    /// every other parameter held at the paper baseline.
    pub fn config(self, value: usize) -> NetworkConfig {
        let builder = NetworkConfig::builder();
        let builder = match self {
            SensitivityAxis::VirtualChannels => builder.virtual_channels(value),
            SensitivityAxis::BufferDepth => builder.buffer_depth(value),
            SensitivityAxis::PacketSize => builder.packet_length(value),
            SensitivityAxis::MeshSize => builder.mesh(value, value),
        };
        builder.build().expect("sensitivity configurations are valid")
    }

    /// A short label for reports (e.g. `"vc=4"`, `"mesh=8x8"`).
    pub fn label(self, value: usize) -> String {
        match self {
            SensitivityAxis::VirtualChannels => format!("vc={value}"),
            SensitivityAxis::BufferDepth => format!("buffers={value}"),
            SensitivityAxis::PacketSize => format!("packet={value}"),
            SensitivityAxis::MeshSize => format!("mesh={value}x{value}"),
        }
    }
}

/// Fig. 8: sensitivity of the comparison to virtual channels, buffer depth,
/// packet size and mesh size, under uniform traffic.
///
/// Returns one comparison per (axis, value) pair — twelve in total with the
/// paper's values. `axes` restricts the sweep (useful for tests); `None`
/// runs all four axes.
pub fn fig8_sensitivity(
    quality: &ExperimentQuality,
    axes: Option<&[SensitivityAxis]>,
) -> Vec<PolicyComparison> {
    let axes = axes.unwrap_or(&SensitivityAxis::ALL);
    let mut out = Vec::new();
    for &axis in axes {
        for value in axis.paper_values() {
            let net = axis.config(value);
            out.push(compare_policies_synthetic(
                &axis.label(value),
                &net,
                TrafficPattern::Uniform,
                quality,
                None,
            ));
        }
    }
    out
}

/// Runs a three-policy comparison for an application task graph on the
/// paper's mesh mapping, sweeping the application speed (Fig. 10's x axis,
/// 1.0 ≙ 75 frames/s).
pub fn compare_policies_application(
    graph: &TaskGraph,
    quality: &ExperimentQuality,
) -> PolicyComparison {
    compare_policies_application_on(graph, TopologyKind::Mesh, quality)
}

/// [`compare_policies_application`] generalized over the topology axis: the
/// same application mapping evaluated on a mesh or on a torus (wrap links
/// shorten the paths of edge-mapped task pairs).
pub fn compare_policies_application_on(
    graph: &TaskGraph,
    topology: TopologyKind,
    quality: &ExperimentQuality,
) -> PolicyComparison {
    let net = graph.network_config(topology).expect("application grids are valid");
    let packet_length = net.packet_length();
    let graph_for_factory = graph.clone();
    let factory = move |speed: f64| -> Box<dyn TrafficSpec> {
        Box::new(graph_for_factory.traffic_matrix(speed, packet_length, APP_PEAK_NODE_RATE))
    };
    // Determine the saturation *speed* and the average injection rate there,
    // which is what the RMSD controller compares its measurement against.
    let estimate = find_saturation_load(
        &net,
        &factory,
        2.0,
        quality.saturation_probe_cycles,
        quality.seed,
    );
    let lambda_max = PAPER_LAMBDA_MAX_MARGIN * estimate.offered_rate.max(1e-6);
    let max_speed = (PAPER_LAMBDA_MAX_MARGIN * estimate.load).clamp(0.2, 1.0);
    let loads = load_grid(0.1 * max_speed, max_speed, quality.load_points);
    let policies = standard_policies(lambda_max);
    let curves =
        sweep_policies(&net, &loads, &factory, &policies, &quality.loop_cfg, quality.seed);
    let label = match topology {
        TopologyKind::Mesh => graph.name().to_string(),
        TopologyKind::Torus => format!("{}/torus", graph.name()),
    };
    PolicyComparison { label, lambda_max, curves }
}

/// Fig. 10: delay and power of the H.264 encoder (4×4 mesh) and the Video
/// Conference Encoder (5×5 mesh) as a function of the application speed.
pub fn fig10_multimedia(quality: &ExperimentQuality) -> Vec<PolicyComparison> {
    vec![
        compare_policies_application(&h264_encoder(), quality),
        compare_policies_application(&video_conference_encoder(), quality),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny network/quality pair so that unit tests stay fast; the
    /// paper-scale drivers are exercised by the integration tests and the
    /// bench harness.
    fn tiny_quality() -> ExperimentQuality {
        ExperimentQuality {
            loop_cfg: ClosedLoopConfig {
                control_period_cycles: 800,
                warmup_intervals: 3,
                measure_intervals: 8,
                max_settle_intervals: 20,
                settle_tolerance: 0.02,
            },
            load_points: 2,
            saturation_probe_cycles: 3_000,
            seed: 7,
        }
    }

    fn tiny_net() -> NetworkConfig {
        NetworkConfig::builder()
            .mesh(4, 4)
            .virtual_channels(2)
            .buffer_depth(4)
            .packet_length(5)
            .build()
            .unwrap()
    }

    #[test]
    fn quality_presets_are_ordered_by_cost() {
        let full = ExperimentQuality::full();
        let std = ExperimentQuality::standard();
        let quick = ExperimentQuality::quick();
        assert!(full.loop_cfg.measure_intervals > std.loop_cfg.measure_intervals);
        assert!(std.loop_cfg.measure_intervals > quick.loop_cfg.measure_intervals);
        assert!(full.load_points >= std.load_points);
        assert!(std.load_points >= quick.load_points);
    }

    #[test]
    fn sensitivity_axis_configs_change_only_their_parameter() {
        let base = NetworkConfig::paper_baseline();
        let cfg = SensitivityAxis::VirtualChannels.config(2);
        assert_eq!(cfg.virtual_channels(), 2);
        assert_eq!(cfg.buffer_depth(), base.buffer_depth());
        assert_eq!(cfg.packet_length(), base.packet_length());
        let cfg = SensitivityAxis::MeshSize.config(8);
        assert_eq!(cfg.node_count(), 64);
        assert_eq!(cfg.virtual_channels(), base.virtual_channels());
        assert_eq!(SensitivityAxis::PacketSize.label(15), "packet=15");
        assert_eq!(SensitivityAxis::MeshSize.label(4), "mesh=4x4");
    }

    #[test]
    fn fig5_curve_spans_the_published_range() {
        let curve = fig5_frequency_vs_vdd(12);
        assert_eq!(curve.len(), 12);
        assert!((curve.first().unwrap().frequency.as_mhz() - 333.0).abs() < 2.0);
        assert!((curve.last().unwrap().frequency.as_ghz() - 1.0).abs() < 1e-3);
    }

    #[test]
    fn synthetic_comparison_produces_three_ordered_curves() {
        let q = tiny_quality();
        let cmp = compare_policies_synthetic(
            "tiny uniform",
            &tiny_net(),
            TrafficPattern::Uniform,
            &q,
            None,
        );
        assert_eq!(cmp.curves.len(), 3);
        assert_eq!(cmp.curves[0].policy, "No-DVFS");
        assert_eq!(cmp.curves[1].policy, "RMSD");
        assert_eq!(cmp.curves[2].policy, "DMSD");
        assert!(cmp.lambda_max > 0.0);
        assert_eq!(cmp.loads().len(), q.load_points);
        // Every policy was swept over the same grid.
        assert_eq!(cmp.curves[0].loads(), cmp.curves[1].loads());
        assert!(cmp.curve("RMSD").is_some());
        assert!(cmp.curve("unknown").is_none());
    }

    #[test]
    fn rmsd_power_never_exceeds_no_dvfs_power_on_the_tiny_scenario() {
        let q = tiny_quality();
        let cmp = compare_policies_synthetic(
            "tiny uniform",
            &tiny_net(),
            TrafficPattern::Uniform,
            &q,
            None,
        );
        let baseline = cmp.curve("No-DVFS").unwrap().powers_mw();
        let rmsd = cmp.curve("RMSD").unwrap().powers_mw();
        for (b, r) in baseline.iter().zip(rmsd.iter()) {
            assert!(r <= b, "RMSD ({r} mW) must not consume more than No-DVFS ({b} mW)");
        }
    }

    #[test]
    fn application_comparison_runs_on_the_h264_torus() {
        let q = tiny_quality();
        let cmp = compare_policies_application_on(&h264_encoder(), TopologyKind::Torus, &q);
        assert_eq!(cmp.label, "h264/torus");
        assert_eq!(cmp.curves.len(), 3);
        for curve in &cmp.curves {
            for p in &curve.points {
                assert!(p.result.packets_delivered > 0, "every point must deliver packets");
            }
        }
    }

    #[test]
    fn application_comparison_runs_on_the_h264_mesh() {
        let q = tiny_quality();
        let cmp = compare_policies_application(&h264_encoder(), &q);
        assert_eq!(cmp.label, "h264");
        assert_eq!(cmp.curves.len(), 3);
        assert!(cmp.lambda_max > 0.0);
        for curve in &cmp.curves {
            for p in &curve.points {
                assert!(p.result.packets_delivered > 0, "every point must deliver packets");
            }
        }
    }
}
