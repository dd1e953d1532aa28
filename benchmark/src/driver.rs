//! Runs one workload in this process and turns its passes into metrics.
//!
//! **Load shape.** A closed loop with one client: pass after pass, each
//! starting when the previous one ends. Inside the simulator the injected
//! traffic is open-loop (Bernoulli, Markov-modulated or matrix injection at
//! the stated flits-per-node-cycle rates).
//!
//! **Passes.** One untimed warm-up pass, then [`TIMED_PASSES`] timed passes
//! of fixed work, each behind [`SETUP_SAMPLES`] timed set-ups. End-to-end metrics come only from these passes, with spans
//! and telemetry off. A traced run follows the warm-up with two passes that
//! take the traced route with the recorder off (the baseline of
//! `trace.overhead_frac`), then one pass with spans and one with the engine
//! profiler, then the workload's layer probes.

use crate::manifest::{END_TO_END, PER_LAYER};
use crate::pass::{Layers, Mode, Pass, RunConfig, Verdict};
use crate::spans::{self_times, totals_by_name, NameTotals, Recorder, Span};
use crate::stats::median;
use crate::workloads::Workload;
use std::collections::BTreeMap;
use std::time::Instant;

/// Timed passes of an end-to-end run: the fewest the issue that defined the
/// benchmark allows, because the gate's 92 runs and two builds must fit in
/// 3420 s and a pass may not be shorter than four seconds.
pub const TIMED_PASSES: usize = 5;
/// Untraced passes of a traced run.
pub const TRACED_BASELINE_PASSES: usize = 2;
/// `setup_s` samples taken before each timed pass.
pub const SETUP_SAMPLES: usize = 3;
/// A set-up sample repeats the set-up until this much time has passed and
/// reports the mean, so that a microsecond-scale set-up is not measured at
/// the resolution of the clock.
const SETUP_SAMPLE_FLOOR_S: f64 = 0.005;
/// The pass id stamped on the spans of the traced pass.
const TRACED_PASS_ID: u32 = 1;

/// Everything one run of one workload produced.
#[derive(Debug)]
pub struct Report {
    /// Workload name.
    pub workload: &'static str,
    /// Why the workload exists.
    pub why: &'static str,
    /// Whether this was a traced run.
    pub traced: bool,
    /// Operations attempted over all counted passes.
    pub attempted: u64,
    /// Operations failed over all counted passes.
    pub failed: u64,
    /// Why operations failed (bounded).
    pub failures: Vec<String>,
    /// `result_digest` of the first timed pass.
    pub digest: u64,
    /// Flits delivered in one pass.
    pub flits: u64,
    /// Set-up seconds, one sample per set-up.
    pub setup_samples: Vec<f64>,
    /// Pass seconds, one sample per timed pass.
    pub pass_samples: Vec<f64>,
    /// Per-case seconds, one sample per timed pass, in execution order.
    pub cases: Vec<(&'static str, Vec<f64>)>,
    /// Per-slice seconds of every timed pass (see [`Pass::timed`]).
    pub slices: Vec<Vec<f64>>,
    /// Seconds of the parts kept out of the pass time (see
    /// [`Pass::host_bound`]), one sample per timed pass.
    pub host_bound: Vec<(&'static str, Vec<f64>)>,
    /// `(name, value, unit)`: the end-to-end metrics, or in a traced run the
    /// per-layer metrics.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// The traced pass's spans (traced runs only).
    pub spans: Option<Recorder>,
}

/// [`SETUP_SAMPLES`] `setup_s` samples, taken between two passes behind one
/// discarded set-up, so that every sample meets the heap in the state a pass
/// and a set-up leave it in, and so that the samples of a run are spread over
/// its whole length: a set-up is mostly page faults, which a noisy minute on
/// the host doubles. How long a set-up takes follows what the allocator has
/// kept mapped: before the first pass `sparse_idle` re-faults its 130 MiB at
/// every set-up (44–62 ms, against 21–24 ms here). Tearing a set-up's
/// products down is not timed.
pub fn setup_samples<W: Workload>(cfg: &RunConfig) -> Vec<f64> {
    let mut scratch = Pass::new(Mode::Timed, None);
    drop(W::setup(cfg, &mut scratch));
    (0..SETUP_SAMPLES)
        .map(|_| {
            let mut elapsed = 0.0;
            let mut repeats = 0u32;
            while elapsed < SETUP_SAMPLE_FLOOR_S {
                let t0 = Instant::now();
                let inputs = W::setup(cfg, &mut scratch);
                elapsed += t0.elapsed().as_secs_f64();
                repeats += 1;
                drop(inputs);
            }
            elapsed / f64::from(repeats)
        })
        .collect()
}

/// One set-up and one pass.
pub fn one_pass<W: Workload>(cfg: &RunConfig, mode: Mode, rec: Option<Recorder>) -> Pass {
    let mut pass = Pass::new(mode, rec);
    if let Some(rec) = pass.rec.as_mut() {
        rec.set_pass(TRACED_PASS_ID);
    }
    pass.enter("pass");
    let inputs = W::setup(cfg, &mut pass);
    W::pass(cfg, inputs, &mut pass);
    pass.exit();
    pass
}

/// The layer probes of a traced run: measurements that are too small for a
/// span or that compare two whole runs. They add to `pass`'s layer sums.
pub fn probes<W: Workload>(cfg: &RunConfig, pass: &mut Pass) {
    crate::workloads::probe_traffic_draw(cfg, pass);
    W::probes(cfg, pass);
}

/// Folds a finished pass's operation counts into the run's.
fn count(report: &mut Report, pass: &Pass) {
    report.attempted += pass.attempted;
    report.failed += pass.failed;
    for why in &pass.failures {
        if report.failures.len() < 32 {
            report.failures.push(why.clone());
        }
    }
}

/// The quiet-machine pass: every timed slice at the fastest of its passes,
/// summed. The work is deterministic, so the noise of a shared host only
/// ever adds time, and it comes in bursts shorter than a pass; a slice needs
/// one undisturbed pass out of [`TIMED_PASSES`]. If a panic cut a pass short
/// the slices do not line up, and the fastest whole pass stands in.
pub fn quiet_pass(slices: &[Vec<f64>]) -> f64 {
    let Some(first) = slices.first() else {
        return 0.0;
    };
    if slices.iter().any(|p| p.len() != first.len()) {
        return slices
            .iter()
            .map(|p| p.iter().sum())
            .fold(f64::INFINITY, f64::min);
    }
    (0..first.len())
        .map(|i| slices.iter().map(|p| p[i]).fold(f64::INFINITY, f64::min))
        .sum()
}

/// Runs `W`: a warm-up pass, the timed passes, and in a traced run the
/// traced passes and probes.
pub fn run<W: Workload>(cfg: &RunConfig, traced: bool) -> Report {
    let mut report = Report {
        workload: W::NAME,
        why: W::WHY,
        traced,
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
        digest: 0,
        flits: 0,
        setup_samples: Vec::new(),
        pass_samples: Vec::new(),
        cases: Vec::new(),
        slices: Vec::new(),
        host_bound: Vec::new(),
        metrics: Vec::new(),
        spans: None,
    };

    // Warm-up: lets caches, the allocator and lazy set-up settle. Untimed
    // and uncounted; every later pass must reproduce its results.
    let warm_up = one_pass::<W>(cfg, Mode::Timed, None);
    let peak_rss = peak_rss_mib();
    report.digest = warm_up.digest.value();
    report.flits = warm_up.flits;
    report.cases = warm_up
        .cases
        .iter()
        .map(|&(name, _)| (name, Vec::new()))
        .collect();
    report.host_bound = warm_up
        .host_bound
        .iter()
        .map(|&(name, _)| (name, Vec::new()))
        .collect();

    // A traced run's baseline takes the traced route (sweeps serial, on one
    // thread) with the recorder off, so that `trace.overhead_frac` is the
    // cost of recording and not of serialising.
    let (passes, mode) = if traced {
        (TRACED_BASELINE_PASSES, Mode::Spans)
    } else {
        (TIMED_PASSES, Mode::Timed)
    };
    for _ in 0..passes {
        if !traced {
            report.setup_samples.extend(setup_samples::<W>(cfg));
        }
        let mut pass = one_pass::<W>(cfg, mode, None);
        // Same seed ⇒ bit-identical.
        let mut v = Verdict::default();
        v.require(
            pass.digest.value() == report.digest && pass.flits == report.flits,
            || {
                format!(
                    "digest {:#018x} differs from the warm-up pass's",
                    pass.digest.value()
                )
            },
        );
        pass.op("pass reproduces the warm-up pass", v);
        count(&mut report, &pass);
        report.pass_samples.push(pass.wall_secs());
        for ((_, samples), &(_, secs)) in report.cases.iter_mut().zip(&pass.cases) {
            samples.push(secs);
        }
        for ((_, samples), &(_, secs)) in report.host_bound.iter_mut().zip(&pass.host_bound) {
            samples.push(secs);
        }
        report.slices.push(pass.slices);
    }

    if traced {
        let mut spans_pass = one_pass::<W>(cfg, Mode::Spans, Some(Recorder::default()));
        let profile_pass = one_pass::<W>(cfg, Mode::Profile, None);
        let rec = spans_pass.rec.take();
        probes::<W>(cfg, &mut spans_pass);
        count(&mut report, &spans_pass);
        count(&mut report, &profile_pass);
        let reproduced = [&spans_pass, &profile_pass]
            .iter()
            .all(|p| p.digest.value() == report.digest && p.flits == report.flits);
        if !reproduced {
            eprintln!(
                "warning: {}: traced passes did not reproduce the untraced result_digest",
                W::NAME
            );
        }
        let rec = rec.expect("the spans pass records");
        let traced_wall = spans_pass.wall_secs();
        let layers = merge_layers(spans_pass.layers, &profile_pass.layers);
        let derived = layer_metrics(
            rec.spans(),
            &layers,
            median(&report.pass_samples),
            traced_wall,
            reproduced,
        );
        report.metrics = PER_LAYER
            .iter()
            .map(|m| (m.name, derived.get(m.name).copied().unwrap_or(0.0), m.unit))
            .collect();
        report.spans = Some(rec);
    } else {
        let quiet_pass = quiet_pass(&report.slices);
        let ok_frac = 1.0 - report.failed as f64 / report.attempted.max(1) as f64;
        let values = [
            median(&report.setup_samples),
            quiet_pass,
            quiet_pass * 1e9 / report.flits.max(1) as f64,
            peak_rss,
            ok_frac,
        ];
        report.metrics = END_TO_END
            .iter()
            .zip(values)
            .map(|(m, v)| (m.name, v, m.unit))
            .collect();
    }
    report
}

/// Layer sums that come from the profiling pass; everything else comes from
/// the spans pass (both passes count cycles and flits, so they are not added).
const FROM_PROFILE_PASS: [&str; 15] = [
    "netsim.sim.pre_ns",
    "netsim.sim.pipeline_ns",
    "netsim.sim.post_ns",
    "netsim.sim.skip_ns",
    "netsim.sim.worker_imbalance",
    "netsim.router.grants",
    "netsim.router.stalls",
    "netsim.router.flit_hops",
    "netsim.gating.sleeps",
    "netsim.gating.wakes",
    "netsim.fault.events",
    "raw.worker_busy_ns",
    "raw.worker_wall_ns",
    "raw.gated_router_samples",
    "raw.gating_samples",
];

fn merge_layers(mut spans: Layers, profile: &Layers) -> Layers {
    for key in FROM_PROFILE_PASS {
        spans.set(key, profile.get(key));
    }
    spans
}

fn is_layer_span(name: &str) -> bool {
    ["netsim.", "power.", "core.", "apps."]
        .iter()
        .any(|p| name.starts_with(p))
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Turns the traced pass's spans and layer sums into the per-layer metrics.
/// Metrics of layers the workload never calls stay 0.
fn layer_metrics(
    spans: &[Span],
    l: &Layers,
    untraced_pass_s: f64,
    traced_pass_s: f64,
    reproduced: bool,
) -> BTreeMap<&'static str, f64> {
    let totals = totals_by_name(spans, TRACED_PASS_ID);
    let t = |name: &str| totals.get(name).copied().unwrap_or_default();
    let total_s = |name: &str| t(name).total_ns as f64 / 1e9;
    let mean = |x: NameTotals, per: f64| ratio(x.total_ns as f64 / per, x.calls as f64);
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();

    // Sums that are metrics as they stand.
    for metric in &PER_LAYER {
        m.insert(metric.name, l.get(metric.name));
    }

    let run_cycles_s = total_s("netsim.sim.run_cycles");
    m.insert("netsim.sim.run_cycles_s", run_cycles_s);
    m.insert(
        "netsim.sim.cycles_per_s",
        ratio(l.get("netsim.sim.cycles"), run_cycles_s),
    );
    m.insert("netsim.sim.window_us", mean(t("netsim.sim.window"), 1e3));
    m.insert("netsim.sim.new_ms", total_s("netsim.sim.new") * 1e3);
    m.insert(
        "netsim.sim.worker_busy_frac",
        ratio(l.get("raw.worker_busy_ns"), l.get("raw.worker_wall_ns")),
    );

    let grants = l.get("netsim.router.grants");
    m.insert(
        "netsim.router.ns_per_grant",
        ratio(l.get("netsim.sim.pipeline_ns"), grants),
    );
    m.insert(
        "netsim.router.grant_ratio",
        ratio(grants, grants + l.get("netsim.router.stalls")),
    );
    m.insert(
        "netsim.gating.gated_cycle_frac",
        ratio(
            l.get("raw.gated_router_samples"),
            l.get("raw.gating_samples"),
        ),
    );

    let encode = t("netsim.snapshot.encode");
    m.insert("netsim.snapshot.encode_us", mean(encode, 1e3));
    m.insert(
        "netsim.snapshot.decode_us",
        mean(t("netsim.snapshot.decode"), 1e3),
    );
    m.insert(
        "netsim.snapshot.restore_us",
        mean(t("netsim.snapshot.restore"), 1e3),
    );
    m.insert(
        "netsim.snapshot.bytes",
        ratio(l.get("raw.snapshot_bytes"), encode.calls as f64),
    );
    m.insert(
        "netsim.telemetry.perfetto_export_ms",
        total_s("netsim.telemetry.perfetto_export") * 1e3,
    );

    let energy = t("power.model.network_energy");
    m.insert("power.model.network_energy_ns", mean(energy, 1.0));
    m.insert("power.model.calls", energy.calls as f64);
    let steps = [
        "core.policy.step.nodvfs",
        "core.policy.step.rmsd",
        "core.policy.step.dmsd",
    ];
    m.insert(
        "core.policy.steps",
        steps.iter().map(|s| t(s).calls as f64).sum(),
    );

    let mut points: Vec<f64> = spans
        .iter()
        .filter(|s| s.pass == TRACED_PASS_ID && s.name == "core.closed_loop.point")
        .map(|s| s.duration_ns() as f64 / 1e9)
        .collect();
    points.sort_by(f64::total_cmp);
    m.insert("core.closed_loop.point_s", median(&points));
    m.insert(
        "core.closed_loop.mirror_match",
        f64::from(u8::from(reproduced)),
    );
    m.insert(
        "core.saturation.search_s",
        total_s("core.saturation.search"),
    );
    m.insert(
        "core.coordinator.resume_ms",
        total_s("core.coordinator.resume") * 1e3,
    );
    m.insert(
        "core.tenant.compose_ms",
        total_s("core.tenant.compose") * 1e3,
    );
    m.insert("apps.dag.generate_ms", total_s("apps.dag.generate") * 1e3);
    m.insert(
        "apps.task_graph.build_ms",
        total_s("apps.task_graph.build") * 1e3,
    );

    // Quality of the trace itself: what tracing cost, and how much of the
    // pass no layer span covers.
    let own = self_times(spans);
    let unattributed: u64 = spans
        .iter()
        .zip(&own)
        .filter(|(s, _)| s.pass == TRACED_PASS_ID && !is_layer_span(s.name))
        .map(|(_, &ns)| ns)
        .sum();
    let root_ns = spans
        .iter()
        .find(|s| s.pass == TRACED_PASS_ID && s.parent.is_none())
        .map_or(0, Span::duration_ns);
    m.insert(
        "trace.unattributed_frac",
        ratio(unattributed as f64, root_ns as f64),
    );
    m.insert(
        "trace.overhead_frac",
        ratio(traced_pass_s, untraced_pass_s) - 1.0,
    );
    m
}

/// `VmHWM` from `/proc/self/status`, MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            pass: TRACED_PASS_ID,
        }
    }

    #[test]
    fn unattributed_time_is_what_no_layer_span_covers() {
        // pass [0,1000]: set-up layer span [0,100]; case [100,900] holding a
        // run_cycles span [150,850]; 100 ns of glue after the case.
        let spans = [
            span("pass", 0, 1_000, None),
            span("netsim.sim.new", 0, 100, Some(0)),
            span("some_case", 100, 900, Some(0)),
            span("netsim.sim.run_cycles", 150, 850, Some(2)),
        ];
        let mut layers = Layers::default();
        layers.add("netsim.sim.cycles", 7_000.0);
        let m = layer_metrics(&spans, &layers, 0.5e-6, 0.8e-6, true);
        // 100 ns of pass glue + 100 ns of case glue, of 1000.
        assert!((m["trace.unattributed_frac"] - 0.2).abs() < 1e-12);
        assert!((m["netsim.sim.run_cycles_s"] - 700e-9).abs() < 1e-15);
        assert!((m["netsim.sim.cycles_per_s"] - 1e10).abs() < 1.0);
        assert!((m["netsim.sim.new_ms"] - 1e-4).abs() < 1e-12);
        // The traced pass timed 800 ns against an untraced 500 ns.
        assert!((m["trace.overhead_frac"] - 0.6).abs() < 1e-9);
        assert_eq!(m["core.closed_loop.mirror_match"], 1.0);
        assert_eq!(m["power.model.calls"], 0.0);
    }

    #[test]
    fn every_declared_layer_metric_is_emitted() {
        let m = layer_metrics(&[], &Layers::default(), 1.0, 1.0, false);
        for metric in &PER_LAYER {
            assert!(m.contains_key(metric.name), "{}", metric.name);
        }
        assert_eq!(m.len(), PER_LAYER.len(), "no undeclared metric");
    }

    #[test]
    fn the_quiet_pass_takes_every_slice_at_its_fastest() {
        let passes = [
            vec![1.0, 5.0, 2.0],
            vec![3.0, 1.0, 2.5],
            vec![2.0, 2.0, 2.0],
        ];
        assert_eq!(quiet_pass(&passes), 1.0 + 1.0 + 2.0);
        // A pass cut short by a panic: the fastest whole pass stands in.
        let ragged = [vec![1.0, 5.0, 2.0], vec![3.0, 1.0]];
        assert_eq!(quiet_pass(&ragged), 4.0);
        assert_eq!(quiet_pass(&[]), 0.0);
    }

    #[test]
    fn peak_rss_is_read_from_proc() {
        assert!(peak_rss_mib() > 0.0);
    }
}
