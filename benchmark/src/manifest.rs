//! The single source of `BENCHMARK.json`: the command, the paths, the run
//! length and every metric's name, unit, direction and bound. The file at the
//! repository root is what [`benchmark_json`] renders
//! (`noc-benchmark --manifest > BENCHMARK.json`); a test keeps the two equal.

use std::fmt::Write as _;

/// The command the gate runs from the root of a checkout.
pub const COMMAND: [&str; 2] = ["bash", "benchmark/run.sh"];
/// The directories that hold the benchmark and nothing else.
pub const PATHS: [&str; 1] = ["benchmark"];
/// Seconds one run measures: [`crate::driver::TIMED_PASSES`] passes of a
/// little over four seconds each. The work is fixed, so `--seconds` is
/// accepted and ignored.
pub const RUN_SECONDS: u32 = 21;

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One declared metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Name, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Unit, `[A-Za-z0-9_/%.-]+`.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before a
    /// change counts as a regression (end-to-end metrics only; 0 for layers).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
    }
}

const fn lower(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
        bound: 0.0,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Higher,
        bound: 0.0,
    }
}

/// What a user of the system sees. All host-side.
///
/// * `setup_s` — median seconds of one set-up (everything before the timed
///   region: configurations, task graphs, tenant compositions,
///   `NocSimulation::new`, temporary directories), over the three samples
///   [`crate::driver::setup_samples`] takes before each timed pass.
/// * `pass_wall_s` — host seconds of one full pass on a quiet machine: each
///   timed slice at the fastest of its timed passes, summed
///   ([`crate::driver::quiet_pass`]).
/// * `host_ns_per_flit` — `pass_wall_s` ÷ flits delivered in the pass; the
///   flit count repeats exactly, so this is host time per simulated event.
/// * `peak_rss_mb` — `VmHWM` of the process (one per workload) after its
///   first pass: the peak of one set-up and one pass in a fresh process.
///   Read at exit it also holds the heap fragmentation of the set-ups and
///   passes that follow, which differs by 5 % between two runs on the same
///   inputs.
/// * `ops_ok_frac` — 1 − failed ÷ attempted operations over all timed
///   passes. Reported as the share that succeeded because the gate needs a
///   metric that is never 0; the human-readable report prints
///   `ops_failed_frac` next to it.
///
/// Bounds: each is the widest spread (first to third quartile over ten
/// seeds, as a share of the median) seen in any of the ten-seed sets recorded
/// in `benchmark/README.md`, rounded up to the next 5 % — 15.8 % for the two
/// timings, 10.8 % for `peak_rss_mb` — because the gate refuses a benchmark
/// whose spread exceeds its bound. The issue that defined the benchmark asked
/// for 10 % and 5 %: the timings keep to 10 % in quiet hours of the reference
/// box (spreads of 1–9 %) and not in noisy ones, and `peak_rss_mb` cannot
/// keep to 5 % on the 6 MiB `fig_sweep` process; both are reported there as
/// not met. `setup_s`, microseconds on three workloads, carries the largest
/// bound, as the gate asks.
pub const END_TO_END: [Metric; 5] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("pass_wall_s", "s", Better::Lower, 0.20),
    e2e("host_ns_per_flit", "ns", Better::Lower, 0.20),
    e2e("peak_rss_mb", "MiB", Better::Lower, 0.15),
    e2e("ops_ok_frac", "ratio", Better::Higher, 0.001),
];

/// Single-layer metrics of the traced run. No bounds: they explain the
/// end-to-end numbers, they do not gate.
pub const PER_LAYER: [Metric; 60] = [
    lower("netsim.sim.run_cycles_s", "s"),
    higher("netsim.sim.cycles_per_s", "1/s"),
    lower("netsim.sim.cycles", "count"),
    higher("netsim.sim.skipped_cycles", "count"),
    lower("netsim.sim.pipeline_ns", "ns"),
    lower("netsim.sim.pre_ns", "ns"),
    lower("netsim.sim.post_ns", "ns"),
    lower("netsim.sim.skip_ns", "ns"),
    lower("netsim.sim.window_us", "us"),
    lower("netsim.sim.new_ms", "ms"),
    higher("netsim.sim.worker_busy_frac", "ratio"),
    lower("netsim.sim.worker_imbalance", "ratio"),
    lower("netsim.router.ns_per_grant", "ns"),
    higher("netsim.router.grants", "count"),
    lower("netsim.router.stalls", "count"),
    higher("netsim.router.grant_ratio", "ratio"),
    lower("netsim.router.flit_hops", "count"),
    lower("netsim.traffic.draw_ns", "ns"),
    higher("netsim.traffic.flits_generated", "count"),
    higher("netsim.gating.sleeps", "count"),
    lower("netsim.gating.wakes", "count"),
    higher("netsim.gating.gated_cycle_frac", "ratio"),
    lower("netsim.fault.events", "count"),
    lower("netsim.fault.drops", "count"),
    lower("netsim.snapshot.encode_us", "us"),
    lower("netsim.snapshot.decode_us", "us"),
    lower("netsim.snapshot.restore_us", "us"),
    lower("netsim.snapshot.bytes", "B"),
    lower("netsim.trace.record_ns_per_event", "ns"),
    lower("netsim.trace.replay_ns_per_event", "ns"),
    lower("netsim.trace.bytes_per_event", "B"),
    lower("netsim.trace.chunk_loads", "count"),
    lower("netsim.telemetry.on_overhead_frac", "ratio"),
    lower("netsim.telemetry.perfetto_export_ms", "ms"),
    lower("netsim.telemetry.dropped_events", "count"),
    lower("power.model.network_energy_ns", "ns"),
    lower("power.model.calls", "count"),
    lower("power.tech.vdd_lookup_ns", "ns"),
    lower("core.policy.rmsd_step_ns", "ns"),
    lower("core.policy.dmsd_step_ns", "ns"),
    lower("core.policy.steps", "count"),
    lower("core.closed_loop.point_s", "s"),
    higher("core.closed_loop.mirror_match", "flag"),
    lower("core.saturation.search_s", "s"),
    higher("core.saturation.lambda_sat", "flits/cycle"),
    lower("core.sweep.serial_s", "s"),
    lower("core.sweep.parallel_s", "s"),
    higher("core.parallel.efficiency", "ratio"),
    lower("core.coordinator.journal_us_per_point", "us"),
    lower("core.coordinator.resume_ms", "ms"),
    lower("core.coordinator.retries", "count"),
    lower("core.coordinator.failed", "count"),
    lower("core.tenant.compose_ms", "ms"),
    lower("apps.dag.generate_ms", "ms"),
    lower("apps.task_graph.build_ms", "ms"),
    higher("paper.power_ratio_nodvfs_over_rmsd", "ratio"),
    higher("paper.delay_ratio_rmsd_over_dmsd", "ratio"),
    lower("paper.rmsd_delay_peak_load", "flits/cycle"),
    lower("trace.overhead_frac", "ratio"),
    lower("trace.unattributed_frac", "ratio"),
];

/// `BENCHMARK.json`, byte for byte. `workloads` is `(name, why)` in
/// reporting order.
pub fn benchmark_json(workloads: &[(&str, &str)]) -> String {
    let quoted = |items: &[&str]| {
        items
            .iter()
            .map(|s| format!("\"{s}\""))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"command\": [{}],", quoted(&COMMAND));
    let _ = writeln!(out, "  \"paths\": [{}],", quoted(&PATHS));
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    let section = |out: &mut String, key: &str, rows: Vec<String>, last: bool| {
        let _ = writeln!(out, "  \"{key}\": [");
        let _ = writeln!(out, "    {}", rows.join(",\n    "));
        let _ = writeln!(out, "  ]{}", if last { "" } else { "," });
    };
    let metric = |m: &Metric, bounded: bool| {
        let bound = if bounded {
            format!(", \"bound\": {}", m.bound)
        } else {
            String::new()
        };
        format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"{bound}}}",
            m.name,
            m.unit,
            m.better.as_str()
        )
    };
    section(
        &mut out,
        "workloads",
        workloads
            .iter()
            .map(|(name, why)| format!("{{\"name\": \"{name}\", \"why\": \"{why}\"}}"))
            .collect(),
        false,
    );
    section(
        &mut out,
        "end_to_end",
        END_TO_END.iter().map(|m| metric(m, true)).collect(),
        false,
    );
    section(
        &mut out,
        "per_layer",
        PER_LAYER.iter().map(|m| metric(m, false)).collect(),
        true,
    );
    out.push_str("}\n");
    out
}

/// Whether `name` is made of the characters a metric or workload name may use.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is made of the characters a unit may use.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}
