//! The benchmark against its own contract: `BENCHMARK.json` declares exactly
//! what the binary emits, and every workload runs clean at 1/100 scale.

use noc_benchmark::driver::{one_pass, probes, setup_samples};
use noc_benchmark::manifest::{
    benchmark_json, valid_name, valid_unit, Better, END_TO_END, PER_LAYER,
};
use noc_benchmark::pass::{Mode, Pass, RunConfig};
use noc_benchmark::spans::Recorder;
use noc_benchmark::workloads::{
    self, checkpoint_replay::CheckpointReplay, fig_sweep::FigSweep, loaded_fabric::LoadedFabric,
    sparse_idle::SparseIdle, Workload,
};
use std::path::Path;
use std::time::Instant;

#[test]
fn benchmark_json_is_what_the_manifest_renders() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let declared = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    assert_eq!(
        declared,
        benchmark_json(&workloads::ALL),
        "regenerate with `noc-benchmark --manifest > BENCHMARK.json`"
    );
}

#[test]
fn names_units_and_bounds_keep_to_the_contract() {
    let mut names: Vec<&str> = Vec::new();
    for (name, why) in workloads::ALL {
        assert!(valid_name(name), "{name}");
        assert!(why.len() <= 200 && !why.contains(['\n', '"']), "{name}");
        names.push(name);
    }
    for m in END_TO_END.iter().chain(&PER_LAYER) {
        assert!(valid_name(m.name), "{}", m.name);
        assert!(valid_unit(m.unit), "{}: unit {:?}", m.name, m.unit);
        names.push(m.name);
    }
    let declared = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), declared, "a name is used twice");

    let bound = |name: &str| {
        let m = END_TO_END.iter().find(|m| m.name == name).expect(name);
        assert!(m.bound > 0.0 && m.bound <= 0.25, "{name}");
        m.bound
    };
    let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
    assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
    let largest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
    assert_eq!(
        bound("setup_s"),
        largest,
        "setup_s carries the largest bound"
    );
    assert_eq!(bound("pass_wall_s"), bound("host_ns_per_flit"));
    assert!(bound("pass_wall_s") < largest && bound("peak_rss_mb") < largest);
    assert!(bound("ops_ok_frac") <= 0.001);
}

/// One timed, one span-traced and one profiled pass plus the layer probes,
/// all at 1/100 scale. Returns the failures.
fn smoke<W: Workload>(cfg: &RunConfig) -> Vec<String> {
    let setups = setup_samples::<W>(cfg);
    assert!(!setups.is_empty() && setups.iter().all(|s| s.is_finite() && *s > 0.0));
    let timed = one_pass::<W>(cfg, Mode::Timed, None);
    assert!(
        timed.attempted > 0 && timed.wall_secs() > 0.0,
        "{}: nothing ran",
        W::NAME
    );
    assert!(timed.flits > 0, "{}: no flit delivered", W::NAME);
    let mut spans = one_pass::<W>(cfg, Mode::Spans, Some(Recorder::default()));
    let profiled = one_pass::<W>(cfg, Mode::Profile, None);
    for traced in [&spans, &profiled] {
        assert_eq!(
            (traced.digest, traced.flits),
            (timed.digest, timed.flits),
            "{}: a traced pass moved simulated results",
            W::NAME
        );
    }
    let recorded = spans
        .rec
        .as_ref()
        .expect("the spans pass records")
        .spans()
        .len();
    assert!(
        recorded > timed.cases.len(),
        "{}: no layer span recorded",
        W::NAME
    );
    probes::<W>(cfg, &mut spans);
    [timed, spans, profiled]
        .iter()
        .flat_map(|p: &Pass| p.failures.clone())
        .collect()
}

#[test]
fn every_workload_passes_a_hundredth_scale_smoke_run() {
    let out_dir = std::env::temp_dir().join(format!("noc-benchmark-smoke-{}", std::process::id()));
    std::fs::create_dir_all(&out_dir).unwrap();
    let started = Instant::now();
    let cfg = RunConfig {
        seed: 2015,
        scale: 100,
        out_dir: out_dir.clone(),
    };
    let mut failures = Vec::new();
    for (name, run) in [
        (
            FigSweep::NAME,
            smoke::<FigSweep> as fn(&RunConfig) -> Vec<String>,
        ),
        (LoadedFabric::NAME, smoke::<LoadedFabric>),
        (SparseIdle::NAME, smoke::<SparseIdle>),
        (CheckpointReplay::NAME, smoke::<CheckpointReplay>),
    ] {
        let t0 = Instant::now();
        failures.extend(run(&cfg));
        println!("{name}: smoke took {:?}", t0.elapsed());
    }
    assert!(failures.is_empty(), "failed operations: {failures:#?}");
    let _ = std::fs::remove_dir_all(&out_dir);
    assert!(
        started.elapsed().as_secs() < 30,
        "smoke took {:?}",
        started.elapsed()
    );
}
