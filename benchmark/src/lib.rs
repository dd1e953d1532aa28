//! The repository's benchmark.
//!
//! Four workloads, five end-to-end metrics, and a per-layer traced run, all
//! measured **from outside**: the benchmark times calls into the public
//! functions of `noc-sim`, `noc-power`, `noc-apps` and `noc-dvfs` and changes
//! nothing inside them. See `benchmark/README.md` for the metric tables and
//! `BENCHMARK.json` at the repository root for the machine-readable contract.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod digest;
pub mod driver;
pub mod manifest;
pub mod pass;
pub mod report;
pub mod spans;
pub mod stats;
pub mod workloads;

use driver::Report;
use pass::RunConfig;
use workloads::{
    checkpoint_replay::CheckpointReplay, fig_sweep::FigSweep, loaded_fabric::LoadedFabric,
    sparse_idle::SparseIdle, Workload,
};

/// Runs the workload called `name`; `None` for an unknown name.
pub fn run_workload(name: &str, cfg: &RunConfig, traced: bool) -> Option<Report> {
    Some(match name {
        FigSweep::NAME => driver::run::<FigSweep>(cfg, traced),
        LoadedFabric::NAME => driver::run::<LoadedFabric>(cfg, traced),
        SparseIdle::NAME => driver::run::<SparseIdle>(cfg, traced),
        CheckpointReplay::NAME => driver::run::<CheckpointReplay>(cfg, traced),
        _ => return None,
    })
}
