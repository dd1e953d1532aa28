//! The per-pass context every workload runs against.
//!
//! A [`Pass`] collects what one pass of a workload produces: the timed
//! duration of each case, the operations attempted and failed, the flits the
//! simulated fabric delivered, and the `result_digest`. In a traced run it
//! also carries the span [`Recorder`] and the layer counters.

use crate::digest::Digest;
use crate::spans::Recorder;
use noc_sim::{NocSimulation, TelemetryConfig};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::Instant;

/// What a pass measures beyond its wall time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// End-to-end timing only: no spans, no telemetry. Every end-to-end
    /// metric comes from passes in this mode.
    Timed,
    /// Spans around every call into a layer; sweeps run serially.
    Spans,
    /// Engine telemetry with wall-clock profiling installed on every
    /// simulation, for the phase split and the router counters. Kept apart
    /// from [`Mode::Spans`] because the profiler's clock reads distort span
    /// durations.
    Profile,
}

/// Inputs of a run, fixed before any pass starts.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Seeds every traffic source and sweep.
    pub seed: u64,
    /// Divisor applied to every case's cycle / point count. `1` is the
    /// benchmark; the unit tests smoke every workload at `100`.
    pub scale: u64,
    /// Directory for per-pass temporary files and the span export.
    pub out_dir: PathBuf,
}

impl RunConfig {
    /// `n / scale`, never below `floor`.
    pub fn scaled(&self, n: u64, floor: u64) -> u64 {
        (n / self.scale.max(1)).max(floor)
    }
}

/// Accumulates named layer counters during traced passes. Keys are metric
/// names or raw sums that [`crate::driver`] turns into metrics.
#[derive(Debug, Default, Clone)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    /// Adds `v` to the counter `key`.
    pub fn add(&mut self, key: &'static str, v: f64) {
        *self.0.entry(key).or_insert(0.0) += v;
    }

    /// Overwrites the counter `key`.
    pub fn set(&mut self, key: &'static str, v: f64) {
        self.0.insert(key, v);
    }

    /// The counter `key`, 0 when never touched.
    pub fn get(&self, key: &str) -> f64 {
        self.0.get(key).copied().unwrap_or(0.0)
    }
}

/// Outcome of the checks on one operation.
#[derive(Debug, Default)]
pub struct Verdict {
    problems: Vec<String>,
}

impl Verdict {
    /// Records `problem()` unless `cond` holds.
    pub fn require(&mut self, cond: bool, problem: impl FnOnce() -> String) {
        if !cond {
            self.problems.push(problem());
        }
    }

    /// Requires every value to be finite.
    pub fn finite(&mut self, what: &str, values: &[f64]) {
        self.require(values.iter().all(|v| v.is_finite()), || {
            format!("{what}: non-finite value")
        });
    }
}

/// The telemetry a profiling pass reads a `cycles`-long run through: the
/// phase profiler on, and a sample interval sized so that the retained
/// snapshot ring covers at least 63/64 of the run.
pub fn profile_telemetry(cycles: u64) -> TelemetryConfig {
    TelemetryConfig::default()
        .with_profile(true)
        .with_sample_interval((cycles / 64).max(256))
        .with_history(80)
}

/// One pass of one workload.
#[derive(Debug)]
pub struct Pass {
    /// What this pass measures.
    pub mode: Mode,
    /// Hash of every simulated statistic produced so far.
    pub digest: Digest,
    /// Flits delivered by the simulated fabric.
    pub flits: u64,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that panicked or failed a check.
    pub failed: u64,
    /// Why operations failed (bounded; for the human-readable report).
    pub failures: Vec<String>,
    /// `(case name, timed seconds)` in execution order.
    pub cases: Vec<(&'static str, f64)>,
    /// Seconds of every [`timed`](Self::timed) call, in execution order.
    pub slices: Vec<f64>,
    /// `(what, seconds)` of every [`host_bound`](Self::host_bound) call.
    pub host_bound: Vec<(&'static str, f64)>,
    /// Layer counters (traced modes only).
    pub layers: Layers,
    /// Span store ([`Mode::Spans`] only).
    pub rec: Option<Recorder>,
    case_secs: f64,
}

impl Pass {
    /// An empty pass.
    pub fn new(mode: Mode, rec: Option<Recorder>) -> Self {
        Pass {
            mode,
            digest: Digest::default(),
            flits: 0,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            cases: Vec::new(),
            slices: Vec::new(),
            host_bound: Vec::new(),
            layers: Layers::default(),
            rec,
            case_secs: 0.0,
        }
    }

    /// Sum of the timed seconds of every case.
    pub fn wall_secs(&self) -> f64 {
        self.cases.iter().map(|c| c.1).sum()
    }

    /// Whether layer counters and spans are being collected.
    pub fn traced(&self) -> bool {
        self.mode != Mode::Timed
    }

    /// Opens a span (no-op unless recording).
    pub fn enter(&mut self, name: &'static str) {
        if let Some(rec) = self.rec.as_mut() {
            rec.enter(name);
        }
    }

    /// Closes the innermost span (no-op unless recording).
    pub fn exit(&mut self) {
        if let Some(rec) = self.rec.as_mut() {
            rec.exit();
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Runs `f` as one timed slice of the current case. A case is cut into
    /// slices of fixed work so that the driver can take each slice at the
    /// fastest of its passes: the finer the cut, the shorter the bursts of
    /// host noise that still get through.
    pub fn timed<T>(&mut self, f: impl FnOnce(&mut Pass) -> T) -> T {
        let t0 = Instant::now();
        let out = f(self);
        let secs = t0.elapsed().as_secs_f64();
        self.case_secs += secs;
        self.slices.push(secs);
        out
    }

    /// Runs `f`, which is checked like any other part of a case but whose
    /// duration is reported on its own and kept out of the pass time: it
    /// measures the host, not the program (see the island-worker case of
    /// `loaded_fabric`).
    pub fn host_bound<T>(&mut self, what: &'static str, f: impl FnOnce(&mut Pass) -> T) -> T {
        let t0 = Instant::now();
        let out = f(self);
        self.host_bound.push((what, t0.elapsed().as_secs_f64()));
        out
    }

    /// Runs one case. A panic inside it is caught and counted as one failed
    /// operation, and the cases after it still run.
    pub fn case(&mut self, name: &'static str, f: impl FnOnce(&mut Pass)) {
        self.case_secs = 0.0;
        let depth = self.rec.as_ref().map_or(0, Recorder::depth);
        self.enter(name);
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| f(&mut *self))) {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "<non-string panic>".to_string());
            self.fail(format!("{name}: panicked: {msg}"));
        }
        if let Some(rec) = self.rec.as_mut() {
            rec.unwind_to(depth);
        }
        // A case with no timed slice (see `host_bound`) has no pass time.
        if self.case_secs > 0.0 {
            self.cases.push((name, self.case_secs));
        }
    }

    /// Counts one operation, failed if the verdict holds any problem.
    pub fn op(&mut self, what: &str, verdict: Verdict) {
        if verdict.problems.is_empty() {
            self.attempted += 1;
        } else {
            self.fail(format!("{what}: {}", verdict.problems.join("; ")));
        }
    }

    fn fail(&mut self, why: String) {
        self.attempted += 1;
        self.failed += 1;
        if self.failures.len() < 16 {
            self.failures.push(why);
        }
    }

    /// Installs the profiling telemetry on `sim` in [`Mode::Profile`]; a
    /// no-op otherwise.
    pub fn instrument(&self, sim: &mut NocSimulation, cycles: u64) {
        if self.mode == Mode::Profile {
            sim.install_telemetry(profile_telemetry(cycles).with_trace_capacity(0));
        }
    }

    /// Folds a finished simulation's counters into the layer sums: cycle and
    /// flit counts always, the engine profile and router counters when
    /// telemetry was installed by [`instrument`](Self::instrument).
    pub fn harvest(&mut self, sim: &NocSimulation) {
        if !self.traced() {
            return;
        }
        let c = sim.counters();
        let l = &mut self.layers;
        l.add("netsim.sim.skipped_cycles", c.skipped_cycles as f64);
        l.add("netsim.traffic.flits_generated", c.flits_generated as f64);
        l.add("netsim.fault.drops", c.flits_dropped as f64);
        let Some(t) = sim.telemetry() else { return };
        let p = t.profile();
        l.add("netsim.sim.pre_ns", p.pre_ns as f64);
        l.add("netsim.sim.pipeline_ns", p.pipeline_ns as f64);
        l.add("netsim.sim.post_ns", p.post_ns as f64);
        l.add("netsim.sim.skip_ns", p.skip_ns as f64);
        if !p.worker_busy_ns.is_empty() {
            l.add(
                "raw.worker_busy_ns",
                p.worker_busy_ns.iter().sum::<u64>() as f64,
            );
            l.set(
                "netsim.sim.worker_imbalance",
                p.worker_imbalance().unwrap_or(0.0),
            );
        }
        let nodes = sim.node_count() as f64;
        for s in t.snapshots() {
            l.add("netsim.router.grants", s.grants as f64);
            l.add("netsim.router.stalls", s.total_stalls() as f64);
            l.add("netsim.router.flit_hops", s.link_flits as f64);
            l.add("netsim.gating.sleeps", s.gate_sleeps as f64);
            l.add("netsim.gating.wakes", s.gate_wakes as f64);
            l.add("netsim.fault.events", s.fault_events as f64);
            if sim.gating_enabled() {
                l.add(
                    "raw.gated_router_samples",
                    f64::from(s.gated_routers) / nodes,
                );
                l.add("raw.gating_samples", 1.0);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_panicking_case_is_one_failed_op_and_later_cases_still_run() {
        let mut pass = Pass::new(Mode::Spans, Some(Recorder::default()));
        pass.case("boom", |p| {
            p.enter("left.open");
            panic!("expected test panic");
        });
        pass.case("fine", |p| {
            p.timed(|_| std::thread::sleep(std::time::Duration::from_micros(10)));
            p.op("fine", Verdict::default());
        });
        assert_eq!((pass.attempted, pass.failed), (2, 1));
        assert!(pass.failures[0].contains("boom: panicked: expected test panic"));
        assert_eq!(pass.cases.len(), 1, "only the case that timed something");
        assert_eq!(
            pass.rec.as_ref().unwrap().depth(),
            0,
            "spans closed after the unwind"
        );
    }

    #[test]
    fn verdicts_collect_every_problem() {
        let mut v = Verdict::default();
        v.require(true, || unreachable!());
        v.require(false, || "ledger".to_string());
        v.finite("power", &[1.0, f64::NAN]);
        let mut pass = Pass::new(Mode::Timed, None);
        pass.op("case", v);
        assert_eq!((pass.attempted, pass.failed), (1, 1));
        assert_eq!(pass.failures[0], "case: ledger; power: non-finite value");
    }

    #[test]
    fn scaling_keeps_a_floor() {
        let cfg = RunConfig {
            seed: 1,
            scale: 100,
            out_dir: PathBuf::new(),
        };
        assert_eq!(cfg.scaled(40_000, 1), 400);
        assert_eq!(cfg.scaled(50, 10), 10);
    }
}
