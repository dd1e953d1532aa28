//! Application task graphs and their conversion into NoC traffic matrices.

use noc_sim::MatrixTraffic;
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// A computation block of the application, mapped onto one mesh node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskNode {
    /// Human-readable task name (e.g. `"motion estimation"`).
    pub name: String,
    /// Mesh node (row-major index) the task is mapped to.
    pub mesh_node: usize,
}

/// A directed communication between two tasks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskEdge {
    /// Index of the producing task in [`TaskGraph::tasks`].
    pub src_task: usize,
    /// Index of the consuming task in [`TaskGraph::tasks`].
    pub dst_task: usize,
    /// Packets exchanged per encoded frame (the Fig. 9 edge weight).
    pub packets_per_frame: f64,
}

/// Errors returned while building a [`TaskGraph`].
#[derive(Debug, Clone, PartialEq)]
pub enum TaskGraphError {
    /// A task was mapped outside the mesh.
    MappingOutOfRange {
        /// Name of the offending task.
        task: String,
        /// Requested mesh node.
        mesh_node: usize,
        /// Number of nodes in the mesh.
        node_count: usize,
    },
    /// Two tasks were mapped onto the same mesh node.
    DuplicateMapping {
        /// The mesh node mapped twice.
        mesh_node: usize,
    },
    /// An edge references a task index that does not exist.
    UnknownTask {
        /// The offending task index.
        task_index: usize,
    },
    /// An edge weight was negative or not finite.
    InvalidWeight {
        /// The offending weight.
        weight: f64,
    },
}

impl fmt::Display for TaskGraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TaskGraphError::MappingOutOfRange { task, mesh_node, node_count } => write!(
                f,
                "task '{task}' mapped to node {mesh_node} but the mesh only has {node_count} nodes"
            ),
            TaskGraphError::DuplicateMapping { mesh_node } => {
                write!(f, "two tasks mapped onto mesh node {mesh_node}")
            }
            TaskGraphError::UnknownTask { task_index } => {
                write!(f, "edge references unknown task index {task_index}")
            }
            TaskGraphError::InvalidWeight { weight } => {
                write!(f, "edge weight {weight} is not a non-negative finite number")
            }
        }
    }
}

impl Error for TaskGraphError {}

/// A mapped application task graph.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskGraph {
    name: String,
    mesh_width: usize,
    mesh_height: usize,
    tasks: Vec<TaskNode>,
    edges: Vec<TaskEdge>,
}

impl TaskGraph {
    /// Builds and validates a task graph mapped on a `mesh_width × mesh_height`
    /// mesh.
    ///
    /// # Errors
    ///
    /// Returns a [`TaskGraphError`] if a task is mapped outside the mesh, two
    /// tasks share a node, an edge references a missing task, or a weight is
    /// invalid.
    pub fn new(
        name: impl Into<String>,
        mesh_width: usize,
        mesh_height: usize,
        tasks: Vec<TaskNode>,
        edges: Vec<TaskEdge>,
    ) -> Result<Self, TaskGraphError> {
        let node_count = mesh_width * mesh_height;
        let mut used = HashMap::new();
        for task in &tasks {
            if task.mesh_node >= node_count {
                return Err(TaskGraphError::MappingOutOfRange {
                    task: task.name.clone(),
                    mesh_node: task.mesh_node,
                    node_count,
                });
            }
            if used.insert(task.mesh_node, &task.name).is_some() {
                return Err(TaskGraphError::DuplicateMapping { mesh_node: task.mesh_node });
            }
        }
        for edge in &edges {
            if edge.src_task >= tasks.len() {
                return Err(TaskGraphError::UnknownTask { task_index: edge.src_task });
            }
            if edge.dst_task >= tasks.len() {
                return Err(TaskGraphError::UnknownTask { task_index: edge.dst_task });
            }
            if !edge.packets_per_frame.is_finite() || edge.packets_per_frame < 0.0 {
                return Err(TaskGraphError::InvalidWeight { weight: edge.packets_per_frame });
            }
        }
        Ok(TaskGraph { name: name.into(), mesh_width, mesh_height, tasks, edges })
    }

    /// The application name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Mesh dimensions `(width, height)` the application is mapped on.
    pub fn mesh_size(&self) -> (usize, usize) {
        (self.mesh_width, self.mesh_height)
    }

    /// Builds the paper-baseline network configuration this application is
    /// mapped on, with the grid dimensions of the mapping and the requested
    /// topology kind. The traffic matrix itself is placement-based and
    /// topology-agnostic, so the same application can be evaluated on a mesh
    /// (as in the paper) or on a torus (shorter wrap paths for edge-mapped
    /// tasks).
    ///
    /// # Errors
    ///
    /// Propagates [`noc_sim::ConfigError`]s from the validated builder (e.g.
    /// a torus with fewer than two virtual channels — impossible with the
    /// baseline parameters, but kept fallible for custom builders).
    pub fn network_config(
        &self,
        kind: noc_sim::TopologyKind,
    ) -> Result<noc_sim::NetworkConfig, noc_sim::ConfigError> {
        noc_sim::NetworkConfig::builder()
            .mesh(self.mesh_width, self.mesh_height)
            .topology(kind)
            .build()
    }

    /// The mapped tasks.
    pub fn tasks(&self) -> &[TaskNode] {
        &self.tasks
    }

    /// The communication edges.
    pub fn edges(&self) -> &[TaskEdge] {
        &self.edges
    }

    /// Total packets exchanged per frame (sum of edge weights).
    pub fn packets_per_frame(&self) -> f64 {
        self.edges.iter().map(|e| e.packets_per_frame).sum()
    }

    /// Looks up a task index by name.
    pub fn task_index(&self, name: &str) -> Option<usize> {
        self.tasks.iter().position(|t| t.name == name)
    }

    /// Per-mesh-node packet rates per frame: `rates[src_node][dst_node]`.
    pub fn node_packet_rates(&self) -> Vec<Vec<f64>> {
        let n = self.mesh_width * self.mesh_height;
        let mut rates = vec![vec![0.0; n]; n];
        for edge in &self.edges {
            let src = self.tasks[edge.src_task].mesh_node;
            let dst = self.tasks[edge.dst_task].mesh_node;
            if src != dst {
                rates[src][dst] += edge.packets_per_frame;
            }
        }
        rates
    }

    /// Builds the NoC traffic matrix for this application running at
    /// `speed` × the nominal frame rate.
    ///
    /// The paper plots results against a *relative* application speed
    /// (1.0 ≙ 75 frames/s); only the relative per-edge weights are published,
    /// so the absolute scale is set here by `peak_node_rate`: at `speed == 1.0`
    /// the busiest source node injects exactly `peak_node_rate` flits per node
    /// clock cycle, and all other nodes are scaled proportionally. Packets are
    /// `packet_length` flits long.
    ///
    /// # Panics
    ///
    /// Panics if `speed` or `peak_node_rate` is negative/not finite, if
    /// `packet_length` is zero, or if the graph has no traffic at all.
    pub fn traffic_matrix(
        &self,
        speed: f64,
        packet_length: usize,
        peak_node_rate: f64,
    ) -> MatrixTraffic {
        assert!(speed.is_finite() && speed >= 0.0, "speed must be non-negative");
        assert!(
            peak_node_rate.is_finite() && peak_node_rate > 0.0,
            "peak node rate must be positive"
        );
        assert!(packet_length > 0, "packet length must be positive");
        let packet_rates = self.node_packet_rates();
        let peak_packets: f64 = packet_rates
            .iter()
            .map(|row| row.iter().sum::<f64>())
            .fold(0.0, f64::max);
        assert!(peak_packets > 0.0, "application graph carries no traffic");
        // Flit rate of the busiest node at speed 1.0 must equal peak_node_rate.
        let scale = peak_node_rate / (peak_packets * packet_length as f64);
        let flit_rates: Vec<Vec<f64>> = packet_rates
            .iter()
            .map(|row| {
                row.iter().map(|p| p * packet_length as f64 * scale * speed).collect()
            })
            .collect();
        MatrixTraffic::new(flit_rates, packet_length)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_sim::TrafficSpec;

    fn simple_graph() -> TaskGraph {
        TaskGraph::new(
            "toy",
            2,
            2,
            vec![
                TaskNode { name: "a".into(), mesh_node: 0 },
                TaskNode { name: "b".into(), mesh_node: 1 },
                TaskNode { name: "c".into(), mesh_node: 3 },
            ],
            vec![
                TaskEdge { src_task: 0, dst_task: 1, packets_per_frame: 100.0 },
                TaskEdge { src_task: 1, dst_task: 2, packets_per_frame: 50.0 },
            ],
        )
        .unwrap()
    }

    #[test]
    fn valid_graph_builds() {
        let g = simple_graph();
        assert_eq!(g.name(), "toy");
        assert_eq!(g.tasks().len(), 3);
        assert_eq!(g.packets_per_frame(), 150.0);
        assert_eq!(g.task_index("b"), Some(1));
        assert_eq!(g.task_index("zz"), None);
    }

    #[test]
    fn network_config_follows_mapping_and_topology() {
        let g = simple_graph();
        let mesh = g.network_config(noc_sim::TopologyKind::Mesh).unwrap();
        assert_eq!((mesh.width(), mesh.height()), g.mesh_size());
        assert!(!mesh.topology().is_torus());
        let torus = g.network_config(noc_sim::TopologyKind::Torus).unwrap();
        assert!(torus.topology().is_torus());
        assert_eq!(torus.node_count(), 4);
    }

    #[test]
    fn out_of_range_mapping_rejected() {
        let err = TaskGraph::new(
            "bad",
            2,
            2,
            vec![TaskNode { name: "a".into(), mesh_node: 7 }],
            vec![],
        )
        .unwrap_err();
        assert!(matches!(err, TaskGraphError::MappingOutOfRange { .. }));
        assert!(err.to_string().contains("'a'"));
    }

    #[test]
    fn duplicate_mapping_rejected() {
        let err = TaskGraph::new(
            "bad",
            2,
            2,
            vec![
                TaskNode { name: "a".into(), mesh_node: 1 },
                TaskNode { name: "b".into(), mesh_node: 1 },
            ],
            vec![],
        )
        .unwrap_err();
        assert_eq!(err, TaskGraphError::DuplicateMapping { mesh_node: 1 });
    }

    #[test]
    fn dangling_edge_rejected() {
        let err = TaskGraph::new(
            "bad",
            2,
            2,
            vec![TaskNode { name: "a".into(), mesh_node: 0 }],
            vec![TaskEdge { src_task: 0, dst_task: 3, packets_per_frame: 1.0 }],
        )
        .unwrap_err();
        assert_eq!(err, TaskGraphError::UnknownTask { task_index: 3 });
    }

    #[test]
    fn negative_weight_rejected() {
        let err = TaskGraph::new(
            "bad",
            2,
            2,
            vec![
                TaskNode { name: "a".into(), mesh_node: 0 },
                TaskNode { name: "b".into(), mesh_node: 1 },
            ],
            vec![TaskEdge { src_task: 0, dst_task: 1, packets_per_frame: -2.0 }],
        )
        .unwrap_err();
        assert!(matches!(err, TaskGraphError::InvalidWeight { .. }));
    }

    #[test]
    fn node_rates_follow_the_mapping() {
        let g = simple_graph();
        let rates = g.node_packet_rates();
        assert_eq!(rates[0][1], 100.0);
        assert_eq!(rates[1][3], 50.0);
        assert_eq!(rates[0][3], 0.0);
    }

    #[test]
    fn traffic_matrix_peaks_at_the_requested_rate() {
        let g = simple_graph();
        let m = g.traffic_matrix(1.0, 10, 0.4);
        // Node 0 is the busiest source (100 packets/frame vs 50).
        assert!((m.row_total(0) - 0.4).abs() < 1e-12);
        assert!((m.row_total(1) - 0.2).abs() < 1e-12);
        // Speed scales everything linearly.
        let half = g.traffic_matrix(0.5, 10, 0.4);
        assert!((half.row_total(0) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn traffic_matrix_preserves_relative_weights() {
        let g = simple_graph();
        let m = g.traffic_matrix(1.0, 20, 0.3);
        let ratio = m.rate(0, 1) / m.rate(1, 3);
        assert!((ratio - 2.0).abs() < 1e-9);
        assert!(m.offered_load() > 0.0);
    }

    #[test]
    #[should_panic(expected = "no traffic")]
    fn empty_graph_cannot_make_traffic() {
        let g = TaskGraph::new(
            "empty",
            2,
            2,
            vec![TaskNode { name: "a".into(), mesh_node: 0 }],
            vec![],
        )
        .unwrap();
        let _ = g.traffic_matrix(1.0, 10, 0.4);
    }
}
