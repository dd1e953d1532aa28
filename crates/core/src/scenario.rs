//! Scenario grids: the topology × pattern × injection × island axis.
//!
//! The paper's figures fix one scenario family (2D mesh, Bernoulli
//! injection, five patterns). This module widens the experiment space into a
//! cross product of
//!
//! * **topology** — mesh or torus ([`TopologyKind`]),
//! * **pattern** — any [`TrafficPattern`], including the hotspot/shuffle/
//!   bit-reverse extensions,
//! * **injection process** — Bernoulli or two-state bursty
//!   ([`InjectionProcess`]),
//! * **island layout** — the named voltage-frequency island partitions
//!   ([`RegionLayout`]: whole / rows / columns / quadrants),
//!
//! so that a DVFS-policy claim can be checked far beyond Fig. 2–4. Every
//! scenario reuses the generic sweep machinery ([`crate::sweep`]), so the
//! serial and parallel executors stay bit-identical per scenario.

use crate::closed_loop::{run_loop, ClosedLoopConfig};
use crate::experiments::{ExperimentQuality, PolicyComparison, PAPER_LAMBDA_MAX_MARGIN};
use crate::gating::GatingPolicyKind;
use crate::policy::PolicyKind;
use crate::saturation::find_saturation_load;
use crate::sweep::{grid_parallel, grid_serial, load_grid, sweep_curves, PolicyCurve, PolicyGrid};
use noc_sim::{
    BurstyTraffic, ConfigError, Direction, FaultConfig, FaultEvent, FaultTarget, HazardConfig,
    NetworkConfig, RegionLayout, RoutingKind, SyntheticTraffic, Topology, TopologyKind,
    TrafficPattern, TrafficSpec,
};

/// How packets are released over time at each node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum InjectionProcess {
    /// Memoryless Bernoulli injection (the paper's process).
    Bernoulli,
    /// Two-state Markov-modulated ON/OFF injection (see
    /// [`BurstyTraffic`]).
    Bursty {
        /// Mean burst (ON-state) duration in node cycles.
        avg_burst_cycles: f64,
        /// Peak-to-average injection-rate ratio while ON.
        burst_factor: f64,
    },
}

impl InjectionProcess {
    /// The default bursty parameterization used by the scenario grids:
    /// 200-cycle bursts at 4× the average rate.
    pub fn default_bursty() -> Self {
        InjectionProcess::Bursty { avg_burst_cycles: 200.0, burst_factor: 4.0 }
    }

    /// A short lowercase name for labels.
    pub fn name(&self) -> &'static str {
        match self {
            InjectionProcess::Bernoulli => "bernoulli",
            InjectionProcess::Bursty { .. } => "bursty",
        }
    }
}

/// One point of the scenario grid: topology, pattern, injection process,
/// voltage-frequency island layout and power-gating policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scenario {
    /// Mesh or torus.
    pub topology: TopologyKind,
    /// Destination pattern.
    pub pattern: TrafficPattern,
    /// Packet release process.
    pub injection: InjectionProcess,
    /// Voltage-frequency island partition ([`RegionLayout::Whole`] — the
    /// single-island global-DVFS setting — unless widened via
    /// [`islands`](Scenario::islands)).
    pub regions: RegionLayout,
    /// Power-gating axis: `None` (the historical ungated setting) or a
    /// gating policy run alongside DVFS (set via [`gated`](Scenario::gated);
    /// [`sweep_scenario`] then runs the closed loop gated).
    pub gating: Option<GatingPolicyKind>,
    /// Routing-algorithm axis: dimension-ordered XY (the historical
    /// default), YX, or minimal-adaptive escape-VC routing (set via
    /// [`routed`](Scenario::routed)).
    pub routing: RoutingKind,
    /// Fault-injection axis: `None` (the historical fault-free setting) or
    /// a deterministic [`FaultProfile`] materialised into the network's
    /// [`FaultConfig`] by [`network`](Scenario::network) (set via
    /// [`faulted`](Scenario::faulted)).
    pub faults: Option<FaultProfile>,
    /// Multi-tenant axis: `None` (the historical single-workload setting)
    /// or a [`TenantMix`] of seeded random-DAG tenants composed over the
    /// fabric (set via [`tenanted`](Scenario::tenanted)). When set, the
    /// mix **replaces** the synthetic `pattern`/`injection` source:
    /// [`traffic`](Scenario::traffic) builds the composed tenant matrix and
    /// interprets the load level as the per-tenant peak node injection
    /// rate.
    pub tenants: Option<TenantMix>,
}

/// A compact, `Copy` description of a multi-tenant workload that a
/// [`Scenario`] can carry (the full composed [`TenantComposition`] owns
/// heap state and so cannot live in the `Copy` scenario struct; the mix is
/// expanded deterministically from its seed by
/// [`Scenario::traffic`]).
///
/// [`TenantComposition`]: crate::tenant::TenantComposition
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantMix {
    /// Number of random-DAG tenants composed onto the fabric.
    pub tenants: u32,
    /// Tasks per generated DAG.
    pub tasks_per_tenant: u32,
    /// Tile width each tenant's DAG is mapped on.
    pub tile_width: u32,
    /// Tile height each tenant's DAG is mapped on.
    pub tile_height: u32,
    /// Base seed; tenant `t` generates its graph from `seed + t`.
    pub seed: u64,
}

impl TenantMix {
    /// A mix of `tenants` DAGs of `tasks_per_tenant` tasks each, tiled on
    /// 4×4 tiles with default Pareto rates.
    pub fn new(tenants: u32, tasks_per_tenant: u32, seed: u64) -> Self {
        TenantMix { tenants, tasks_per_tenant, tile_width: 4, tile_height: 4, seed }
    }

    /// A short label component, e.g. `"tenants8x12s42"` (8 tenants, 12
    /// tasks each, base seed 42).
    pub fn name(&self) -> String {
        format!("tenants{}x{}s{}", self.tenants, self.tasks_per_tenant, self.seed)
    }

    /// Expands the mix into its tenant workloads (one seeded random DAG per
    /// tenant, all at nominal speed).
    ///
    /// # Errors
    ///
    /// Propagates [`noc_apps::DagError`]s from the generator (too many
    /// tasks for the tile, degenerate parameters).
    pub fn workloads(&self) -> Result<Vec<crate::tenant::TenantWorkload>, noc_apps::DagError> {
        (0..self.tenants)
            .map(|t| {
                let cfg = noc_apps::DagConfig::new(
                    self.tasks_per_tenant as usize,
                    self.tile_width as usize,
                    self.tile_height as usize,
                    self.seed + u64::from(t),
                );
                let graph = noc_apps::random_task_graph(format!("tenant{t}"), &cfg)?;
                Ok(crate::tenant::TenantWorkload::new(graph))
            })
            .collect()
    }

    /// Composes the mix onto a `width × height` fabric under tiled
    /// placement.
    ///
    /// # Errors
    ///
    /// Returns a [`TenantComposeError`](crate::tenant::TenantComposeError)
    /// when the tiles do not fit the fabric, wrapping generator errors as
    /// [`InvalidParam`](crate::tenant::TenantComposeError::InvalidParam).
    pub fn compose(
        &self,
        width: usize,
        height: usize,
        packet_length: usize,
        peak_node_rate: f64,
    ) -> Result<crate::tenant::TenantComposition, crate::tenant::TenantComposeError> {
        let workloads = self
            .workloads()
            .map_err(|_| crate::tenant::TenantComposeError::InvalidParam("tenant mix"))?;
        crate::tenant::compose_tenants(
            width,
            height,
            &workloads,
            &crate::tenant::MappingPolicy::Tiled,
            packet_length,
            peak_node_rate,
        )
    }

    /// Whether the mix fits a `width × height` fabric under tiled
    /// placement.
    pub fn fits(&self, width: usize, height: usize) -> bool {
        self.compose(width, height, 5, 0.1).is_ok()
    }
}

/// A compact, `Copy` description of a fault workload that a [`Scenario`]
/// can carry (the full [`FaultConfig`] owns a schedule `Vec` and so cannot
/// live in the `Copy` scenario struct). [`Scenario::network`] expands the
/// profile deterministically for the scenario's topology and dimensions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultProfile {
    /// `count` permanent link failures injected at cycle `at_cycle`, spread
    /// evenly over the topology's canonical East/South link list — the same
    /// links on every run, so labels and goldens are stable.
    PermanentLinks {
        /// Number of links to kill (clamped to the links available).
        count: usize,
        /// Injection cycle of every failure.
        at_cycle: u64,
    },
    /// A hazard-driven storm of transient faults: independent per-cycle
    /// failure draws at the given rates, every fault recovering after
    /// `duration` cycles.
    TransientStorm {
        /// Per-link failure probability per cycle, parts per million.
        link_ppm: u32,
        /// Per-router failure probability per cycle, parts per million.
        router_ppm: u32,
        /// Downtime of each transient fault, cycles.
        duration: u64,
    },
}

impl FaultProfile {
    /// A short label component, e.g. `"perm-links2"` or
    /// `"storm-l20r10d150"`.
    pub fn name(&self) -> String {
        match *self {
            FaultProfile::PermanentLinks { count, at_cycle: 0 } => format!("perm-links{count}"),
            FaultProfile::PermanentLinks { count, at_cycle } => {
                format!("perm-links{count}-at{at_cycle}")
            }
            FaultProfile::TransientStorm { link_ppm, router_ppm, duration } => {
                format!("storm-l{link_ppm}r{router_ppm}d{duration}")
            }
        }
    }

    /// Expands the profile into a concrete [`FaultConfig`] for `topo`.
    pub fn fault_config(&self, topo: &Topology) -> FaultConfig {
        match *self {
            FaultProfile::PermanentLinks { count, at_cycle } => {
                let mut links = Vec::new();
                for node in 0..topo.node_count() {
                    for dir in [Direction::East, Direction::South] {
                        if topo.neighbor(node, dir).is_some() {
                            links.push(FaultTarget::Link { node, dir });
                        }
                    }
                }
                let picks = count.min(links.len());
                let schedule = (0..picks)
                    .map(|i| FaultEvent::permanent(links[i * links.len() / picks.max(1)], at_cycle))
                    .collect();
                FaultConfig::scheduled(schedule)
            }
            FaultProfile::TransientStorm { link_ppm, router_ppm, duration } => {
                FaultConfig::none().with_hazard(HazardConfig {
                    link_rate: f64::from(link_ppm) * 1e-6,
                    router_rate: f64::from(router_ppm) * 1e-6,
                    transient_fraction: 1.0,
                    transient_duration: duration,
                })
            }
        }
    }
}

impl Scenario {
    /// A Bernoulli scenario (the paper's injection process) on a single
    /// island, ungated.
    pub fn new(topology: TopologyKind, pattern: TrafficPattern) -> Self {
        Scenario {
            topology,
            pattern,
            injection: InjectionProcess::Bernoulli,
            regions: RegionLayout::Whole,
            gating: None,
            routing: RoutingKind::Xy,
            faults: None,
            tenants: None,
        }
    }

    /// The same scenario with the default bursty injection process.
    pub fn bursty(self) -> Self {
        Scenario { injection: InjectionProcess::default_bursty(), ..self }
    }

    /// The same scenario partitioned into the given island layout.
    pub fn islands(self, regions: RegionLayout) -> Self {
        Scenario { regions, ..self }
    }

    /// The same scenario with power gating run by the given policy.
    pub fn gated(self, gating: GatingPolicyKind) -> Self {
        Scenario { gating: Some(gating), ..self }
    }

    /// The same scenario under the given routing algorithm.
    pub fn routed(self, routing: RoutingKind) -> Self {
        Scenario { routing, ..self }
    }

    /// The same scenario with the given fault profile injected.
    pub fn faulted(self, faults: FaultProfile) -> Self {
        Scenario { faults: Some(faults), ..self }
    }

    /// The same scenario composing the given multi-tenant mix (which then
    /// replaces the synthetic traffic source — see
    /// [`traffic`](Scenario::traffic)).
    pub fn tenanted(self, tenants: TenantMix) -> Self {
        Scenario { tenants: Some(tenants), ..self }
    }

    /// A `topology/pattern/process` label for figures and reports, e.g.
    /// `"torus/hotspot/bursty"`. Non-default axes append fixed-order
    /// suffixes — layout, gating policy, routing (when not XY), fault
    /// profile — so every distinct scenario names a distinct sweep result:
    /// `"mesh/uniform/bernoulli/quadrants/imm-sleep/adaptive/perm-links2"`.
    pub fn label(&self) -> String {
        let mut label =
            format!("{}/{}/{}", self.topology.name(), self.pattern.name(), self.injection.name());
        if self.regions != RegionLayout::Whole {
            label = format!("{label}/{}", self.regions.name());
        }
        if let Some(gating) = self.gating {
            label = format!("{label}/{}", gating.name());
        }
        if self.routing != RoutingKind::Xy {
            label = format!("{label}/{}", self.routing.name());
        }
        if let Some(faults) = self.faults {
            label = format!("{label}/{}", faults.name());
        }
        if let Some(tenants) = self.tenants {
            label = format!("{label}/{}", tenants.name());
        }
        label
    }

    /// Rebuilds `base` with this scenario's topology and island layout (all
    /// other micro-architectural parameters kept) and validates the pattern
    /// on it.
    ///
    /// # Errors
    ///
    /// Propagates [`ConfigError`]s: torus needing ≥2 VCs, transpose needing a
    /// square grid, bit permutations needing a power-of-two node count,
    /// adaptive routing needing ≥2 VCs for its escape class.
    pub fn network(&self, base: &NetworkConfig) -> Result<NetworkConfig, ConfigError> {
        let mut builder = base
            .to_builder()
            .topology(self.topology)
            .regions(self.regions)
            .routing(self.routing);
        if let Some(profile) = self.faults {
            let topo = Topology::with_kind(self.topology, base.width(), base.height());
            builder = builder.faults(profile.fault_config(&topo));
        }
        let net = builder.build()?;
        net.validate_pattern(self.pattern)?;
        Ok(net)
    }

    /// Builds the traffic source for one load level on `net`.
    ///
    /// A tenanted scenario ([`tenants`](Scenario::tenants) set) composes
    /// its DAG mix onto `net`'s fabric instead of the synthetic source, and
    /// `load` becomes the per-tenant peak node injection rate (each
    /// tenant's busiest source node injects `load` flits per node cycle).
    ///
    /// # Panics
    ///
    /// Panics if a tenanted scenario's mix does not fit `net` — validate
    /// with [`TenantMix::fits`].
    pub fn traffic(&self, net: &NetworkConfig, load: f64) -> Box<dyn TrafficSpec> {
        if let Some(mix) = self.tenants {
            let comp = mix
                .compose(net.width(), net.height(), net.packet_length(), load)
                .unwrap_or_else(|e| {
                    panic!("tenant mix {} does not fit the network: {e}", mix.name())
                });
            return Box::new(comp.traffic);
        }
        match self.injection {
            InjectionProcess::Bernoulli => {
                Box::new(SyntheticTraffic::new(self.pattern, load, net.packet_length()))
            }
            InjectionProcess::Bursty { avg_burst_cycles, burst_factor } => Box::new(
                BurstyTraffic::new(
                    self.pattern,
                    load,
                    net.packet_length(),
                    avg_burst_cycles,
                    burst_factor,
                ),
            ),
        }
    }
}

/// The full cross product of topologies × patterns valid on `base`'s
/// dimensions, in Bernoulli and (when `include_bursty`) bursty flavours.
/// Invalid combinations (e.g. shuffle on 25 nodes) are silently skipped —
/// they are rejected configurations, not errors of the grid.
pub fn scenario_grid(base: &NetworkConfig, include_bursty: bool) -> Vec<Scenario> {
    let mut out = Vec::new();
    for topology in TopologyKind::ALL {
        for pattern in TrafficPattern::ALL {
            let scenario = Scenario::new(topology, pattern);
            if scenario.network(base).is_err() {
                continue;
            }
            out.push(scenario);
            if include_bursty {
                out.push(scenario.bursty());
            }
        }
    }
    out
}

/// The standard No-DVFS / RMSD / DMSD policy set over one scenario: the
/// scenario analogue of
/// [`compare_policies_synthetic`](crate::experiments::compare_policies_synthetic).
///
/// The saturation point is searched with the scenario's own injection
/// process, so bursty sweeps get a bursty-aware `λ_max`. Multi-island
/// scenarios sweep under per-island control (see [`sweep_scenario`]).
///
/// # Errors
///
/// Returns the [`ConfigError`] when the scenario is invalid on `base`'s
/// dimensions (see [`Scenario::network`]).
pub fn compare_policies_scenario(
    base: &NetworkConfig,
    scenario: Scenario,
    quality: &ExperimentQuality,
) -> Result<PolicyComparison, ConfigError> {
    let net = scenario.network(base)?;
    let factory = |load: f64| scenario.traffic(&net, load);
    let estimate =
        find_saturation_load(&net, &factory, 1.0, quality.saturation_probe_cycles, quality.seed);
    let lambda_max = PAPER_LAMBDA_MAX_MARGIN * estimate.load.max(1e-6);
    let policies = crate::experiments::standard_policies(lambda_max);
    let loads = load_grid(0.1 * lambda_max, lambda_max, quality.load_points);
    let curves = sweep_scenario(&net, scenario, &loads, &policies, &quality.loop_cfg, quality.seed);
    Ok(PolicyComparison { label: scenario.label(), lambda_max, curves })
}

/// Parallel multi-policy sweep of one scenario over explicit loads (used by
/// the figure drivers above and directly by parity tests).
///
/// Every point is one run of the closed loop on `net` with the scenario's
/// traffic and gating policy, and each curve point carries the aggregate
/// operating point. The island axis needs no dispatch: the loop drives
/// whatever partition `net` was built with ([`Scenario::network`]), so a
/// quadrant scenario runs one policy instance per quadrant and a
/// single-island scenario is the paper's global DVFS — genuinely different
/// numbers per layout, not relabelled copies. For the per-island detail
/// (residency, per-island rates) run one point through
/// [`run_operating_point_islands`](crate::island::run_operating_point_islands);
/// for the gating residency, through
/// [`run_operating_point_gated`](crate::gating::run_operating_point_gated).
pub fn sweep_scenario(
    net: &NetworkConfig,
    scenario: Scenario,
    loads: &[f64],
    policies: &[PolicyKind],
    loop_cfg: &ClosedLoopConfig,
    seed: u64,
) -> Vec<PolicyCurve> {
    sweep_scenario_on(grid_parallel, net, scenario, loads, policies, loop_cfg, seed)
}

/// Serial reference implementation of [`sweep_scenario`] — bit-identical
/// results, used by the parity tests.
pub fn sweep_scenario_serial(
    net: &NetworkConfig,
    scenario: Scenario,
    loads: &[f64],
    policies: &[PolicyKind],
    loop_cfg: &ClosedLoopConfig,
    seed: u64,
) -> Vec<PolicyCurve> {
    sweep_scenario_on(grid_serial, net, scenario, loads, policies, loop_cfg, seed)
}

/// [`sweep_scenario`] / [`sweep_scenario_serial`] on the given grid.
fn sweep_scenario_on(
    grid: PolicyGrid,
    net: &NetworkConfig,
    scenario: Scenario,
    loads: &[f64],
    policies: &[PolicyKind],
    loop_cfg: &ClosedLoopConfig,
    seed: u64,
) -> Vec<PolicyCurve> {
    sweep_curves(grid, loads, policies, &|policy, load| {
        let traffic = scenario.traffic(net, load);
        run_loop(net, traffic, policy.clone(), scenario.gating, loop_cfg, seed).aggregate
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gating::run_operating_point_gated;
    use crate::island::run_operating_point_islands;

    fn small_base() -> NetworkConfig {
        NetworkConfig::builder()
            .mesh(4, 4)
            .virtual_channels(2)
            .buffer_depth(4)
            .packet_length(5)
            .build()
            .unwrap()
    }

    fn tiny_quality() -> ExperimentQuality {
        ExperimentQuality {
            loop_cfg: ClosedLoopConfig {
                control_period_cycles: 800,
                warmup_intervals: 3,
                measure_intervals: 6,
                max_settle_intervals: 16,
                settle_tolerance: 0.02,
            },
            load_points: 2,
            saturation_probe_cycles: 3_000,
            seed: 7,
        }
    }

    fn no_dvfs_and_rmsd() -> Vec<PolicyKind> {
        vec![PolicyKind::NoDvfs, PolicyKind::Rmsd(crate::rmsd::RmsdConfig::with_lambda_max(0.3))]
    }

    /// Sweeps `scenario` on the 4×4 base with `ClosedLoopConfig::quick()` and
    /// seed 2015 through [`sweep_scenario`] and [`sweep_scenario_serial`],
    /// asserts the two grids agree bit for bit, and returns the network and
    /// the curves for the caller's own assertions.
    fn assert_sweep_parity(
        scenario: Scenario,
        loads: &[f64],
        policies: &[PolicyKind],
    ) -> (NetworkConfig, Vec<PolicyCurve>) {
        let net = scenario.network(&small_base()).unwrap();
        let loop_cfg = ClosedLoopConfig::quick();
        let parallel = sweep_scenario(&net, scenario, loads, policies, &loop_cfg, 2015);
        let serial = sweep_scenario_serial(&net, scenario, loads, policies, &loop_cfg, 2015);
        assert_eq!(parallel, serial, "parity broke for {}", scenario.label());
        assert_eq!(parallel.len(), policies.len());
        assert!(parallel.iter().all(|curve| curve.points.len() == loads.len()));
        (net, parallel)
    }

    #[test]
    fn labels_and_constructors_compose() {
        let s = Scenario::new(TopologyKind::Torus, TrafficPattern::Hotspot).bursty();
        assert_eq!(s.label(), "torus/hotspot/bursty");
        let s = Scenario::new(TopologyKind::Mesh, TrafficPattern::Uniform);
        assert_eq!(s.label(), "mesh/uniform/bernoulli");
    }

    #[test]
    fn scenario_network_keeps_microarchitecture_and_swaps_topology() {
        let base = small_base();
        let s = Scenario::new(TopologyKind::Torus, TrafficPattern::Uniform);
        let net = s.network(&base).unwrap();
        assert!(net.topology().is_torus());
        assert_eq!(net.virtual_channels(), base.virtual_channels());
        assert_eq!(net.packet_length(), base.packet_length());
    }

    #[test]
    fn invalid_scenarios_surface_config_errors() {
        let rect = NetworkConfig::builder().mesh(5, 4).build().unwrap();
        let transpose = Scenario::new(TopologyKind::Mesh, TrafficPattern::Transpose);
        assert!(matches!(
            transpose.network(&rect),
            Err(ConfigError::PatternNeedsSquare { .. })
        ));
        let shuffle = Scenario::new(TopologyKind::Torus, TrafficPattern::Shuffle);
        assert!(matches!(
            shuffle.network(&rect),
            Err(ConfigError::PatternNeedsPowerOfTwoNodes { .. })
        ));
        let one_vc = NetworkConfig::builder().mesh(4, 4).virtual_channels(1).build().unwrap();
        let torus = Scenario::new(TopologyKind::Torus, TrafficPattern::Uniform);
        assert!(matches!(torus.network(&one_vc), Err(ConfigError::TorusNeedsVcClasses { .. })));
    }

    #[test]
    fn grid_covers_both_topologies_and_filters_invalid_patterns() {
        // 4x4 (16 nodes, square, power of two): every pattern is valid on
        // both topologies.
        let grid = scenario_grid(&small_base(), false);
        assert_eq!(grid.len(), 2 * TrafficPattern::ALL.len());
        // 5x5: shuffle and bitrev drop out, transpose stays (square).
        let base5 = NetworkConfig::paper_baseline();
        let grid5 = scenario_grid(&base5, false);
        assert_eq!(grid5.len(), 2 * (TrafficPattern::ALL.len() - 2));
        // Bursty doubles the grid.
        assert_eq!(scenario_grid(&small_base(), true).len(), 4 * TrafficPattern::ALL.len());
    }

    #[test]
    fn torus_hotspot_bursty_comparison_runs_end_to_end() {
        let q = tiny_quality();
        let scenario = Scenario::new(TopologyKind::Torus, TrafficPattern::Hotspot).bursty();
        let cmp = compare_policies_scenario(&small_base(), scenario, &q).unwrap();
        assert_eq!(cmp.label, "torus/hotspot/bursty");
        assert_eq!(cmp.curves.len(), 3);
        assert!(cmp.lambda_max > 0.0);
        for curve in &cmp.curves {
            assert_eq!(curve.points.len(), q.load_points);
            for p in &curve.points {
                assert!(p.result.packets_delivered > 0, "every point must deliver packets");
            }
        }
    }

    #[test]
    fn island_labels_and_grid_compose() {
        let s = Scenario::new(TopologyKind::Torus, TrafficPattern::Hotspot)
            .bursty()
            .islands(RegionLayout::Quadrants);
        assert_eq!(s.label(), "torus/hotspot/bursty/quadrants");
        // Whole-island scenarios keep the historical three-part label.
        let s = Scenario::new(TopologyKind::Mesh, TrafficPattern::Uniform);
        assert_eq!(s.label(), "mesh/uniform/bernoulli");
        let net = Scenario::new(TopologyKind::Mesh, TrafficPattern::Uniform)
            .islands(RegionLayout::PerRow)
            .network(&small_base())
            .unwrap();
        assert_eq!(net.region_map().island_count(), 4);
    }

    #[test]
    fn multi_island_scenarios_run_per_island_control_through_the_standard_sweep() {
        // Hotspot load is concentrated in one quadrant, so per-island RMSD
        // must land on a different operating point than global RMSD: the
        // quadrant layout's curve cannot be a relabelled copy of the whole-
        // island curve. The aggregate must also match the per-island run
        // bit for bit (same seed, same loop).
        let scenario = Scenario::new(TopologyKind::Mesh, TrafficPattern::Hotspot);
        let quad = scenario.islands(RegionLayout::Quadrants);
        let loads = [0.1];
        let policies = vec![PolicyKind::Rmsd(crate::rmsd::RmsdConfig::with_lambda_max(0.3))];
        let (_, whole_curves) = assert_sweep_parity(scenario, &loads, &policies);
        let (net_quad, quad_curves) = assert_sweep_parity(quad, &loads, &policies);
        assert_ne!(
            whole_curves[0].points[0].result, quad_curves[0].points[0].result,
            "quadrant islands must not be a relabelled global-DVFS run"
        );
        let islands = run_operating_point_islands(
            &net_quad,
            quad.traffic(&net_quad, loads[0]),
            policies[0].clone(),
            &ClosedLoopConfig::quick(),
            2015,
        );
        assert_eq!(quad_curves[0].points[0].result, islands.aggregate);
    }

    #[test]
    fn island_scenario_sweep_serial_parallel_parity() {
        let scenario = Scenario::new(TopologyKind::Torus, TrafficPattern::Uniform)
            .islands(RegionLayout::Quadrants);
        let loads = [0.06, 0.12];
        let policies = no_dvfs_and_rmsd();
        let loop_cfg = ClosedLoopConfig::quick();
        let (net, curves) = assert_sweep_parity(scenario, &loads, &policies);
        for (policy, curve) in policies.iter().zip(&curves) {
            for (&load, curve_point) in loads.iter().zip(&curve.points) {
                let point = run_operating_point_islands(
                    &net,
                    scenario.traffic(&net, load),
                    policy.clone(),
                    &loop_cfg,
                    2015,
                );
                assert_eq!(point.islands.len(), 4);
                assert!(point.aggregate.packets_delivered > 0);
                // The curve sweep's point is this point's aggregate.
                assert_eq!(curve_point.result, point.aggregate);
            }
        }
    }

    #[test]
    fn gated_labels_and_grid_compose() {
        use crate::gating::{BreakEvenConfig, GatingPolicyKind};
        let s = Scenario::new(TopologyKind::Mesh, TrafficPattern::Uniform)
            .gated(GatingPolicyKind::BreakEvenAware(BreakEvenConfig::new()));
        assert_eq!(s.label(), "mesh/uniform/bernoulli/break-even");
        let s = Scenario::new(TopologyKind::Torus, TrafficPattern::Hotspot)
            .bursty()
            .islands(RegionLayout::Quadrants)
            .gated(GatingPolicyKind::ImmediateSleep);
        assert_eq!(s.label(), "torus/hotspot/bursty/quadrants/imm-sleep");
    }

    #[test]
    fn gated_scenario_sweep_serial_parallel_parity() {
        use crate::gating::GatingPolicyKind;
        let gating = GatingPolicyKind::IdleThreshold(12);
        let scenario = Scenario::new(TopologyKind::Mesh, TrafficPattern::Uniform).gated(gating);
        let loads = [0.02, 0.05];
        let policies = no_dvfs_and_rmsd();
        let loop_cfg = ClosedLoopConfig::quick();
        let (net, curves) = assert_sweep_parity(scenario, &loads, &policies);
        for (policy, curve) in policies.iter().zip(&curves) {
            for (&load, curve_point) in loads.iter().zip(&curve.points) {
                let point = run_operating_point_gated(
                    &net,
                    scenario.traffic(&net, load),
                    policy.clone(),
                    gating,
                    &loop_cfg,
                    2015,
                );
                assert!(point.aggregate.packets_delivered > 0);
                assert!(point.gated_fraction() > 0.0, "light loads must gate");
                // The curve sweep runs gated scenarios gated: its point is
                // this point's aggregate, bit for bit.
                assert_eq!(curve_point.result, point.aggregate);
            }
        }
        // And a gated curve is a genuinely different operating point from
        // the ungated one (lower power at light load).
        let ungated = Scenario::new(TopologyKind::Mesh, TrafficPattern::Uniform);
        let (_, plain) = assert_sweep_parity(ungated, &loads, &policies);
        assert!(
            curves[0].points[0].result.power_mw < plain[0].points[0].result.power_mw,
            "gating must show up as saved power"
        );
    }

    #[test]
    fn faulted_labels_and_grid_compose() {
        let s = Scenario::new(TopologyKind::Mesh, TrafficPattern::Uniform)
            .routed(RoutingKind::MinimalAdaptive)
            .faulted(FaultProfile::PermanentLinks { count: 2, at_cycle: 0 });
        assert_eq!(s.label(), "mesh/uniform/bernoulli/adaptive/perm-links2");
        // Every axis at once: layout, gating, routing, fault — fixed order.
        let s = Scenario::new(TopologyKind::Torus, TrafficPattern::Hotspot)
            .bursty()
            .islands(RegionLayout::Quadrants)
            .gated(crate::gating::GatingPolicyKind::ImmediateSleep)
            .routed(RoutingKind::MinimalAdaptive)
            .faulted(FaultProfile::TransientStorm { link_ppm: 20, router_ppm: 10, duration: 150 });
        assert_eq!(
            s.label(),
            "torus/hotspot/bursty/quadrants/imm-sleep/adaptive/storm-l20r10d150"
        );
        // XY routing never appends a suffix; the fault suffix still does.
        let s = Scenario::new(TopologyKind::Mesh, TrafficPattern::Uniform)
            .faulted(FaultProfile::PermanentLinks { count: 1, at_cycle: 500 });
        assert_eq!(s.label(), "mesh/uniform/bernoulli/perm-links1-at500");
        // A 1-VC base has no escape class: adaptive scenarios are rejected.
        let adaptive = Scenario::new(TopologyKind::Mesh, TrafficPattern::Uniform)
            .routed(RoutingKind::MinimalAdaptive);
        assert!(adaptive.network(&small_base()).is_ok());
        let one_vc = NetworkConfig::builder().mesh(4, 4).virtual_channels(1).build().unwrap();
        assert!(adaptive.network(&one_vc).is_err());
    }

    #[test]
    fn faulted_scenario_network_embeds_routing_and_faults() {
        let base = small_base();
        let s = Scenario::new(TopologyKind::Mesh, TrafficPattern::Uniform)
            .routed(RoutingKind::MinimalAdaptive)
            .faulted(FaultProfile::PermanentLinks { count: 3, at_cycle: 0 });
        let net = s.network(&base).unwrap();
        assert_eq!(net.routing(), RoutingKind::MinimalAdaptive);
        assert!(net.faults().is_enabled());
        assert_eq!(net.faults().schedule().len(), 3);
        // The profile expands the same way every time (stable labels ⇒
        // stable goldens).
        let again = s.network(&base).unwrap();
        assert_eq!(net.faults().schedule(), again.faults().schedule());
    }

    #[test]
    fn faulted_scenario_sweep_parity_and_degraded_mode_report() {
        // The fault-free reference of the same workload, then the faults.
        let reference = Scenario::new(TopologyKind::Mesh, TrafficPattern::Uniform)
            .routed(RoutingKind::MinimalAdaptive);
        let scenario = reference.faulted(FaultProfile::PermanentLinks { count: 2, at_cycle: 0 });
        let loads = [0.05];
        let policies = vec![PolicyKind::NoDvfs];
        let (_, parallel) = assert_sweep_parity(scenario, &loads, &policies);
        let faulted = &parallel[0].points[0].result;
        assert!(faulted.packets_delivered > 0, "adaptive routing must survive 2 dead links");
        let (_, plain) = assert_sweep_parity(reference, &loads, &policies);
        let fault_free = &plain[0].points[0].result;
        assert_eq!(fault_free.reachability, 1.0);
        assert_eq!(fault_free.flits_dropped, 0);
        let report = crate::closed_loop::degraded_mode_report(faulted, fault_free);
        assert_eq!(report.packets_delivered, faulted.packets_delivered);
        assert!(report.latency_inflation() > 0.0);
        assert!(report.rerouting_energy_pj() >= 0.0);
    }

    #[test]
    fn tenant_labels_and_grid_compose() {
        let mix = TenantMix::new(2, 6, 42);
        let s = Scenario::new(TopologyKind::Mesh, TrafficPattern::Uniform).tenanted(mix);
        assert_eq!(s.label(), "mesh/uniform/bernoulli/tenants2x6s42");
        // The tenant suffix composes after every other axis.
        let s = s.islands(RegionLayout::Quadrants);
        assert_eq!(s.label(), "mesh/uniform/bernoulli/quadrants/tenants2x6s42");
        // An 8x4 fabric fits two 4x4 tiles on both topologies; a 4x4 fabric
        // does not.
        let wide = NetworkConfig::builder().mesh(8, 4).virtual_channels(2).build().unwrap();
        let mix = TenantMix::new(2, 6, 1);
        for topology in TopologyKind::ALL {
            let scenario = Scenario::new(topology, TrafficPattern::Uniform).tenanted(mix);
            assert!(scenario.network(&wide).is_ok(), "{} fits the 2-tenant mix", topology.name());
        }
        assert!(mix.fits(wide.width(), wide.height()));
        assert!(!mix.fits(4, 4), "two 4x4 tiles cannot fit a 4x4 fabric");
    }

    #[test]
    fn tenanted_scenario_sweeps_through_the_standard_machinery() {
        let wide = NetworkConfig::builder()
            .mesh(8, 4)
            .virtual_channels(2)
            .buffer_depth(4)
            .packet_length(5)
            .build()
            .unwrap();
        let scenario =
            Scenario::new(TopologyKind::Mesh, TrafficPattern::Uniform).tenanted(TenantMix::new(2, 6, 42));
        let net = scenario.network(&wide).unwrap();
        let loads = [0.1];
        let policies = vec![PolicyKind::NoDvfs];
        let loop_cfg = ClosedLoopConfig::quick();
        let curves = sweep_scenario(&net, scenario, &loads, &policies, &loop_cfg, 2015);
        assert!(curves[0].points[0].result.packets_delivered > 0);
        let serial = sweep_scenario_serial(&net, scenario, &loads, &policies, &loop_cfg, 2015);
        assert_eq!(curves, serial);
    }

    #[test]
    fn scenario_sweep_serial_parallel_parity() {
        let scenario = Scenario::new(TopologyKind::Torus, TrafficPattern::Tornado).bursty();
        assert_sweep_parity(scenario, &[0.05, 0.12], &[PolicyKind::NoDvfs]);
    }
}
