//! Synthetic task graphs: layered series-parallel random DAGs with
//! Pareto-distributed communication rates.
//!
//! The H.264 and VCE graphs cover the paper's two published applications, but
//! multi-tenant experiments need *many* distinct applications to co-locate on
//! one fabric. This module generates them: a seeded random DAG whose tasks
//! are arranged in consecutive layers (every edge goes from a lower-numbered
//! task to a higher-numbered one, so the graph is acyclic by construction)
//! and whose edge weights follow a bounded Pareto distribution
//! `x_m · u^(-1/α)` — a long-tailed rate mix in which a few hot producer
//! edges dominate, matching the published encoder graphs' shape where a
//! handful of edges carry most of the traffic.
//!
//! Generation is fully deterministic: the same [`DagConfig`] always yields
//! the same [`TaskGraph`], so sweep scenarios can reference a tenant mix by
//! seed alone.

use crate::task_graph::{TaskEdge, TaskGraph, TaskGraphError, TaskNode};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::error::Error;
use std::fmt;

/// Weights are clamped here so an aggressively small `pareto_shape` cannot
/// push a single edge to infinity (which [`TaskGraph::new`] would reject).
const MAX_EDGE_WEIGHT: f64 = 1e12;

/// Configuration for [`random_task_graph`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DagConfig {
    /// Number of tasks (DAG vertices). At least 2: one source, one sink.
    pub tasks: usize,
    /// Width of the mesh tile the tasks are mapped on.
    pub mesh_width: usize,
    /// Height of the mesh tile the tasks are mapped on.
    pub mesh_height: usize,
    /// Pareto shape parameter `α` (> 0). Smaller values give a heavier tail:
    /// a few edges carry far more traffic than the rest.
    pub pareto_shape: f64,
    /// Pareto scale parameter `x_m` (> 0): the minimum packets-per-frame
    /// weight of any edge.
    pub pareto_scale: f64,
    /// Probability of each optional forward "skip" edge between tasks in
    /// non-adjacent layers, in `[0, 1]`. `0.0` gives a pure series-parallel
    /// spine.
    pub extra_edge_prob: f64,
    /// Seed for the generator's private RNG stream.
    pub seed: u64,
}

impl DagConfig {
    /// A reasonable default parameterisation: Pareto shape 1.5 (finite mean,
    /// heavy tail), scale 10 packets/frame, 15 % skip-edge probability.
    pub fn new(tasks: usize, mesh_width: usize, mesh_height: usize, seed: u64) -> Self {
        DagConfig {
            tasks,
            mesh_width,
            mesh_height,
            pareto_shape: 1.5,
            pareto_scale: 10.0,
            extra_edge_prob: 0.15,
            seed,
        }
    }
}

/// Errors returned by [`random_task_graph`].
#[derive(Debug, Clone, PartialEq)]
pub enum DagError {
    /// Fewer than two tasks were requested.
    TooFewTasks {
        /// The requested task count.
        tasks: usize,
    },
    /// More tasks than mesh nodes: the one-task-per-node mapping cannot fit.
    TooManyTasks {
        /// The requested task count.
        tasks: usize,
        /// Nodes available on the mesh tile.
        node_count: usize,
    },
    /// A Pareto parameter was non-positive or not finite.
    InvalidPareto {
        /// The offending shape value.
        shape: f64,
        /// The offending scale value.
        scale: f64,
    },
    /// The skip-edge probability was outside `[0, 1]`.
    InvalidEdgeProbability {
        /// The offending probability.
        prob: f64,
    },
    /// The generated graph failed [`TaskGraph`] validation (unreachable for
    /// a valid config; kept so the constructor cannot panic).
    Graph(TaskGraphError),
}

impl fmt::Display for DagError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DagError::TooFewTasks { tasks } => {
                write!(f, "a DAG needs at least 2 tasks, got {tasks}")
            }
            DagError::TooManyTasks { tasks, node_count } => {
                write!(f, "{tasks} tasks cannot map 1:1 onto a {node_count}-node tile")
            }
            DagError::InvalidPareto { shape, scale } => {
                write!(f, "Pareto shape {shape} and scale {scale} must be positive and finite")
            }
            DagError::InvalidEdgeProbability { prob } => {
                write!(f, "skip-edge probability {prob} must be in [0, 1]")
            }
            DagError::Graph(err) => write!(f, "generated graph failed validation: {err}"),
        }
    }
}

impl Error for DagError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            DagError::Graph(err) => Some(err),
            _ => None,
        }
    }
}

impl From<TaskGraphError> for DagError {
    fn from(err: TaskGraphError) -> Self {
        DagError::Graph(err)
    }
}

/// One bounded-Pareto draw: `x_m · u^(-1/α)` with `u` uniform in `(0, 1]`.
fn pareto(rng: &mut StdRng, shape: f64, scale: f64) -> f64 {
    // 1 - gen_f64() maps [0, 1) onto (0, 1], keeping the draw finite.
    let u = 1.0 - rng.gen_range(0.0..1.0);
    (scale * u.powf(-1.0 / shape)).min(MAX_EDGE_WEIGHT)
}

/// Generates a seeded random layered DAG mapped onto a
/// `mesh_width × mesh_height` tile.
///
/// Structure: tasks are split into consecutive layers (layer widths are
/// drawn uniformly up to `⌈√tasks⌉`, so depth and parallelism both grow with
/// the task count). Every task in layer `i+1` receives at least one edge
/// from layer `i` and every non-sink task sends at least one — the graph is
/// weakly connected along the spine. Optional forward skip edges between
/// non-adjacent layers are added with probability
/// [`extra_edge_prob`](DagConfig::extra_edge_prob) each. All edges point
/// from a lower task index to a higher one, so **the result is acyclic by
/// construction**. Tasks are mapped onto distinct mesh nodes by a partial
/// Fisher–Yates shuffle of the tile's node indices.
///
/// # Errors
///
/// Returns a [`DagError`] if the config is invalid (see the variants).
pub fn random_task_graph(name: impl Into<String>, cfg: &DagConfig) -> Result<TaskGraph, DagError> {
    let node_count = cfg.mesh_width * cfg.mesh_height;
    if cfg.tasks < 2 {
        return Err(DagError::TooFewTasks { tasks: cfg.tasks });
    }
    if cfg.tasks > node_count {
        return Err(DagError::TooManyTasks { tasks: cfg.tasks, node_count });
    }
    if !(cfg.pareto_shape.is_finite()
        && cfg.pareto_shape > 0.0
        && cfg.pareto_scale.is_finite()
        && cfg.pareto_scale > 0.0)
    {
        return Err(DagError::InvalidPareto { shape: cfg.pareto_shape, scale: cfg.pareto_scale });
    }
    if !(0.0..=1.0).contains(&cfg.extra_edge_prob) || !cfg.extra_edge_prob.is_finite() {
        return Err(DagError::InvalidEdgeProbability { prob: cfg.extra_edge_prob });
    }
    let mut rng = StdRng::seed_from_u64(cfg.seed);

    // Partition task indices 0..tasks into consecutive layers.
    let max_width = (cfg.tasks as f64).sqrt().ceil() as usize;
    let mut layers: Vec<std::ops::Range<usize>> = Vec::new();
    let mut start = 0;
    while start < cfg.tasks {
        let cap = max_width.min(cfg.tasks - start).max(1);
        let width = 1 + rng.gen_range(0..cap);
        let width = width.min(cfg.tasks - start);
        layers.push(start..start + width);
        start += width;
    }

    // Spine: every consumer pulls from the previous layer, every producer
    // pushes to the next, so no task is isolated.
    let mut edge_set: Vec<(usize, usize)> = Vec::new();
    for pair in layers.windows(2) {
        let (prev, next) = (pair[0].clone(), pair[1].clone());
        for dst in next.clone() {
            let src = prev.start + rng.gen_range(0..prev.len());
            edge_set.push((src, dst));
        }
        for src in prev {
            if !edge_set.iter().any(|&(s, _)| s == src) || rng.gen_bool(0.5) {
                let dst = next.start + rng.gen_range(0..next.len());
                if !edge_set.contains(&(src, dst)) {
                    edge_set.push((src, dst));
                }
            }
        }
    }
    // Forward skip edges between non-adjacent layers.
    if cfg.extra_edge_prob > 0.0 {
        for (i, from) in layers.iter().enumerate() {
            for to in layers.iter().skip(i + 2) {
                for src in from.clone() {
                    for dst in to.clone() {
                        if rng.gen_bool(cfg.extra_edge_prob) && !edge_set.contains(&(src, dst)) {
                            edge_set.push((src, dst));
                        }
                    }
                }
            }
        }
    }

    // Map tasks onto distinct mesh nodes: partial Fisher–Yates shuffle.
    let mut nodes: Vec<usize> = (0..node_count).collect();
    for i in 0..cfg.tasks {
        let j = i + rng.gen_range(0..node_count - i);
        nodes.swap(i, j);
    }
    let tasks: Vec<TaskNode> = (0..cfg.tasks)
        .map(|t| TaskNode { name: format!("t{t}"), mesh_node: nodes[t] })
        .collect();

    let edges: Vec<TaskEdge> = edge_set
        .into_iter()
        .map(|(src_task, dst_task)| TaskEdge {
            src_task,
            dst_task,
            packets_per_frame: pareto(&mut rng, cfg.pareto_shape, cfg.pareto_scale),
        })
        .collect();

    Ok(TaskGraph::new(name, cfg.mesh_width, cfg.mesh_height, tasks, edges)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_graph_is_acyclic_by_index_order() {
        let g = random_task_graph("dag", &DagConfig::new(12, 4, 4, 42)).unwrap();
        assert_eq!(g.tasks().len(), 12);
        assert!(!g.edges().is_empty());
        for e in g.edges() {
            assert!(e.src_task < e.dst_task, "edge {}→{} breaks the DAG order", e.src_task, e.dst_task);
        }
    }

    #[test]
    fn rates_are_pareto_bounded_below_by_the_scale() {
        let cfg = DagConfig { pareto_scale: 7.5, ..DagConfig::new(10, 4, 4, 7) };
        let g = random_task_graph("dag", &cfg).unwrap();
        for e in g.edges() {
            assert!(e.packets_per_frame >= 7.5);
            assert!(e.packets_per_frame.is_finite());
        }
    }

    #[test]
    fn same_seed_same_graph_different_seed_different_graph() {
        let a = random_task_graph("dag", &DagConfig::new(9, 4, 4, 3)).unwrap();
        let b = random_task_graph("dag", &DagConfig::new(9, 4, 4, 3)).unwrap();
        let c = random_task_graph("dag", &DagConfig::new(9, 4, 4, 4)).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn mapping_is_distinct_and_in_range() {
        let g = random_task_graph("dag", &DagConfig::new(16, 4, 4, 11)).unwrap();
        let mut seen = std::collections::HashSet::new();
        for t in g.tasks() {
            assert!(t.mesh_node < 16);
            assert!(seen.insert(t.mesh_node), "node {} mapped twice", t.mesh_node);
        }
    }

    #[test]
    fn invalid_configs_are_rejected() {
        assert!(matches!(
            random_task_graph("x", &DagConfig::new(1, 4, 4, 0)),
            Err(DagError::TooFewTasks { .. })
        ));
        assert!(matches!(
            random_task_graph("x", &DagConfig::new(17, 4, 4, 0)),
            Err(DagError::TooManyTasks { .. })
        ));
        let bad_shape = DagConfig { pareto_shape: 0.0, ..DagConfig::new(4, 4, 4, 0) };
        assert!(matches!(
            random_task_graph("x", &bad_shape),
            Err(DagError::InvalidPareto { .. })
        ));
        let bad_prob = DagConfig { extra_edge_prob: 1.5, ..DagConfig::new(4, 4, 4, 0) };
        assert!(matches!(
            random_task_graph("x", &bad_prob),
            Err(DagError::InvalidEdgeProbability { .. })
        ));
    }

    #[test]
    fn generated_graph_feeds_the_traffic_matrix() {
        use noc_sim::TrafficSpec;
        let g = random_task_graph("dag", &DagConfig::new(8, 4, 4, 99)).unwrap();
        let m = g.traffic_matrix(1.0, 5, 0.2);
        assert!(m.offered_load() > 0.0);
    }
}
