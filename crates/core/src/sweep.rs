//! Load sweeps: run policies over a list of load levels.
//!
//! Every operating point of a sweep is an independent simulation with an
//! explicit seed, so sweeps are embarrassingly parallel. There is one grid:
//! `grid_parallel` flattens the `(policy × load)` grid into one work list
//! and fans it out over the [`parallel`](crate::parallel) executor, and
//! `grid_serial` is its reference twin, the policy-major double loop the
//! parity tests compare against. Every sweep of the crate —
//! [`sweep_policies`] and the scenario sweep of [`crate::scenario`], each
//! with its `_serial` variant — is a per-point
//! function handed to one of the two, so results are reassembled in grid
//! order and are **bit-identical** between them for the same seeds; set
//! `NOC_SWEEP_THREADS=1` to force serial execution globally.

use crate::closed_loop::{run_operating_point, ClosedLoopConfig, OperatingPointResult};
use crate::parallel::par_map;
use crate::policy::PolicyKind;
use noc_sim::{NetworkConfig, TrafficSpec};

/// A deterministic `load → workload` closure that can be shared across sweep
/// worker threads.
pub type TrafficFactory<'a> = &'a (dyn Fn(f64) -> Box<dyn TrafficSpec> + Sync);

/// One (load, result) pair of a sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// The load parameter (injection rate for synthetic traffic, relative
    /// application speed for multimedia traffic).
    pub load: f64,
    /// The measured operating point.
    pub result: OperatingPointResult,
}

/// A full load sweep for one policy.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyCurve {
    /// Policy name (figure legend label).
    pub policy: String,
    /// The sweep, ordered by increasing load.
    pub points: Vec<SweepPoint>,
}

impl PolicyCurve {
    /// The point whose load is closest to `load`.
    ///
    /// Distances are compared with [`f64::total_cmp`], so `NaN` loads (in the
    /// query or the curve) cannot cause a panic: `NaN` distances order after
    /// every finite distance and the nearest finite point wins.
    ///
    /// # Panics
    ///
    /// Panics if the curve is empty.
    pub fn nearest(&self, load: f64) -> &SweepPoint {
        assert!(!self.points.is_empty(), "cannot query an empty curve");
        self.points
            .iter()
            .min_by(|a, b| (a.load - load).abs().total_cmp(&(b.load - load).abs()))
            .expect("non-empty")
    }

    /// The loads covered by the sweep.
    pub fn loads(&self) -> Vec<f64> {
        self.points.iter().map(|p| p.load).collect()
    }

    /// The average delay (ns) series, ordered like [`loads`](Self::loads).
    pub fn delays_ns(&self) -> Vec<f64> {
        self.points.iter().map(|p| p.result.avg_delay_ns).collect()
    }

    /// The average latency (cycles) series.
    pub fn latencies_cycles(&self) -> Vec<f64> {
        self.points.iter().map(|p| p.result.avg_latency_cycles).collect()
    }

    /// The total power (mW) series.
    pub fn powers_mw(&self) -> Vec<f64> {
        self.points.iter().map(|p| p.result.power_mw).collect()
    }

    /// The time-averaged clock frequency (GHz) series.
    pub fn frequencies_ghz(&self) -> Vec<f64> {
        self.points.iter().map(|p| p.result.avg_frequency_ghz).collect()
    }
}

/// A `(policy index, load) → point` function evaluated over a grid. It must
/// be pure in its arguments so that [`grid_parallel`] stays bit-identical to
/// [`grid_serial`].
pub(crate) type GridPoint<'a> = &'a (dyn Fn(usize, f64) -> SweepPoint + Sync);

/// One of the two grid executors, [`grid_parallel`] or [`grid_serial`]: runs
/// a [`GridPoint`] at every `(policy, load)` pair and returns the results
/// grouped per policy, in load order.
pub(crate) type PolicyGrid = fn(&[f64], usize, GridPoint<'_>) -> Vec<Vec<SweepPoint>>;

/// The parallel grid: flattens the `(policy × load)` grid into one work list
/// (policy-major, then load order), so all curves of a figure progress
/// simultaneously and a single slow operating point cannot serialize an
/// entire policy, then regroups the results per policy.
pub(crate) fn grid_parallel(
    loads: &[f64],
    policy_count: usize,
    point: GridPoint<'_>,
) -> Vec<Vec<SweepPoint>> {
    let grid: Vec<(usize, f64)> = (0..policy_count)
        .flat_map(|pi| loads.iter().map(move |&load| (pi, load)))
        .collect();
    let mut results = par_map(&grid, |_, &(pi, load)| point(pi, load)).into_iter();
    (0..policy_count).map(|_| results.by_ref().take(loads.len()).collect()).collect()
}

/// The serial reference of [`grid_parallel`]: the policy-major double loop,
/// one point at a time on the calling thread. Used by the parity tests and
/// available for debugging (`NOC_SWEEP_THREADS=1` achieves the same through
/// the parallel path).
pub(crate) fn grid_serial(
    loads: &[f64],
    policy_count: usize,
    point: GridPoint<'_>,
) -> Vec<Vec<SweepPoint>> {
    (0..policy_count).map(|pi| loads.iter().map(|&load| point(pi, load)).collect()).collect()
}

/// Evaluates `point` for every `(policy, load)` pair on `grid` and labels
/// each policy's points with its name: the one projection from grid results
/// to [`PolicyCurve`]s, shared by every curve-returning sweep.
pub(crate) fn sweep_curves(
    grid: PolicyGrid,
    loads: &[f64],
    policies: &[PolicyKind],
    point: &(dyn Fn(&PolicyKind, f64) -> OperatingPointResult + Sync),
) -> Vec<PolicyCurve> {
    let groups = grid(loads, policies.len(), &|pi, load| SweepPoint {
        load,
        result: point(&policies[pi], load),
    });
    policies
        .iter()
        .zip(groups)
        .map(|(p, points)| PolicyCurve { policy: p.name().to_string(), points })
        .collect()
}

/// [`sweep_policies`] / [`sweep_policies_serial`] on the given grid.
fn sweep_policies_on(
    grid: PolicyGrid,
    net: &NetworkConfig,
    loads: &[f64],
    make_traffic: TrafficFactory<'_>,
    policies: &[PolicyKind],
    loop_cfg: &ClosedLoopConfig,
    seed: u64,
) -> Vec<PolicyCurve> {
    sweep_curves(grid, loads, policies, &|policy, load| {
        run_operating_point(net, make_traffic(load), policy.clone(), loop_cfg, seed)
    })
}

/// Runs several policies over the same loads (the standard No-DVFS / RMSD /
/// DMSD comparison of every figure), building the traffic for each load with
/// `make_traffic`. Operating points run in parallel across cores; per-point
/// seeding is that of the serial path, making the output bit-identical to
/// [`sweep_policies_serial`].
pub fn sweep_policies(
    net: &NetworkConfig,
    loads: &[f64],
    make_traffic: TrafficFactory<'_>,
    policies: &[PolicyKind],
    loop_cfg: &ClosedLoopConfig,
    seed: u64,
) -> Vec<PolicyCurve> {
    sweep_policies_on(grid_parallel, net, loads, make_traffic, policies, loop_cfg, seed)
}

/// Serial reference implementation of [`sweep_policies`].
pub fn sweep_policies_serial(
    net: &NetworkConfig,
    loads: &[f64],
    make_traffic: TrafficFactory<'_>,
    policies: &[PolicyKind],
    loop_cfg: &ClosedLoopConfig,
    seed: u64,
) -> Vec<PolicyCurve> {
    sweep_policies_on(grid_serial, net, loads, make_traffic, policies, loop_cfg, seed)
}

/// Generates `count` evenly spaced loads in `[lo, hi]` (inclusive).
///
/// # Panics
///
/// Panics if `count < 2` or the interval is inverted.
pub fn load_grid(lo: f64, hi: f64, count: usize) -> Vec<f64> {
    assert!(count >= 2, "need at least two load points");
    assert!(lo <= hi && lo.is_finite() && hi.is_finite(), "invalid load interval");
    (0..count).map(|i| lo + (hi - lo) * i as f64 / (count - 1) as f64).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rmsd::RmsdConfig;
    use noc_sim::{SyntheticTraffic, TrafficPattern};

    fn small_net() -> NetworkConfig {
        NetworkConfig::builder()
            .mesh(4, 4)
            .virtual_channels(2)
            .buffer_depth(4)
            .packet_length(5)
            .build()
            .unwrap()
    }

    fn uniform(load: f64) -> Box<dyn TrafficSpec> {
        Box::new(SyntheticTraffic::new(TrafficPattern::Uniform, load, 5))
    }

    #[test]
    fn load_grid_is_inclusive_and_even() {
        let g = load_grid(0.1, 0.3, 5);
        assert_eq!(g.len(), 5);
        assert!((g[0] - 0.1).abs() < 1e-12);
        assert!((g[4] - 0.3).abs() < 1e-12);
        assert!((g[2] - 0.2).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn degenerate_grid_rejected() {
        let _ = load_grid(0.1, 0.3, 1);
    }

    #[test]
    fn sweep_produces_one_point_per_load() {
        let net = small_net();
        let loads = [0.05, 0.15];
        let curve = sweep_policies(
            &net,
            &loads,
            &uniform,
            &[PolicyKind::NoDvfs],
            &ClosedLoopConfig::quick(),
            1,
        )
        .remove(0);
        assert_eq!(curve.points.len(), 2);
        assert_eq!(curve.policy, "No-DVFS");
        assert_eq!(curve.loads(), vec![0.05, 0.15]);
        assert!(curve.delays_ns().iter().all(|&d| d > 0.0));
        assert!(curve.powers_mw()[1] > curve.powers_mw()[0], "more load, more power");
    }

    #[test]
    fn nearest_point_lookup() {
        let net = small_net();
        let curve = sweep_policies(
            &net,
            &[0.05, 0.10, 0.20],
            &uniform,
            &[PolicyKind::Rmsd(RmsdConfig::with_lambda_max(0.3))],
            &ClosedLoopConfig::quick(),
            2,
        )
        .remove(0);
        assert_eq!(curve.nearest(0.11).load, 0.10);
        assert_eq!(curve.nearest(0.0).load, 0.05);
        assert_eq!(curve.nearest(9.0).load, 0.20);
    }

    #[test]
    fn nearest_is_total_and_never_panics_on_nan() {
        // Hand-built curve: no simulation needed to exercise the ordering.
        let point = |load: f64| SweepPoint {
            load,
            result: OperatingPointResult {
                policy: "No-DVFS".to_string(),
                offered_load: load,
                measured_rate: load,
                avg_latency_cycles: 0.0,
                avg_delay_ns: 0.0,
                max_delay_ns: 0.0,
                power_mw: 0.0,
                dynamic_power_mw: 0.0,
                static_power_mw: 0.0,
                avg_frequency_ghz: 1.0,
                avg_vdd: 0.9,
                throughput: load,
                packets_delivered: 1,
                measurement_wall_ns: 1.0,
                flits_dropped: 0,
                reachability: 1.0,
            },
        };
        let curve = PolicyCurve {
            policy: "No-DVFS".to_string(),
            points: vec![point(0.1), point(f64::NAN), point(0.3)],
        };
        // A NaN query must not panic; NaN distances order after finite ones,
        // so the nearest finite point wins when one exists.
        let _ = curve.nearest(f64::NAN);
        assert_eq!(curve.nearest(0.29).load, 0.3);
        assert_eq!(curve.nearest(0.11).load, 0.1);
    }

    #[test]
    fn multi_policy_sweep_keeps_policy_order() {
        let net = small_net();
        let curves = sweep_policies(
            &net,
            &[0.1],
            &uniform,
            &[PolicyKind::NoDvfs, PolicyKind::Rmsd(RmsdConfig::with_lambda_max(0.3))],
            &ClosedLoopConfig::quick(),
            3,
        );
        assert_eq!(curves.len(), 2);
        assert_eq!(curves[0].policy, "No-DVFS");
        assert_eq!(curves[1].policy, "RMSD");
    }
}
