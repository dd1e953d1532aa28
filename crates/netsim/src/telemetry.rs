//! Zero-perturbation observability: counter fabric, structured event trace,
//! congestion heatmaps and engine profiling.
//!
//! The telemetry layer is **off by default** and installed at run time
//! ([`NocSimulation::install_telemetry`](crate::NocSimulation::install_telemetry)),
//! exactly like the tenant map: installing it changes **no** simulation
//! behaviour. Probes are read-only observers — they draw no RNG, schedule
//! nothing, and touch no state the cycle loop reads — so every window,
//! golden and RNG stream is bit-identical with telemetry on or off (pinned
//! by `tests/telemetry_invariants.rs` across skipping modes and subsystem
//! combinations, the same differential discipline as skip ≡ no-skip). With
//! telemetry uninstalled each probe site costs one `is_some` branch.
//!
//! Three sub-surfaces share the layer:
//!
//! * **Counter fabric** — per-router/per-port/per-VC probes (switch grants,
//!   stall causes, link utilization, escape- vs adaptive-class usage,
//!   occupancy histograms) plus engine-level counters (gating transitions,
//!   fault events/drops, horizon jumps, worklist occupancy), aggregated into
//!   periodic [`TelemetrySnapshot`]s held in a bounded ring of the last *K*
//!   sample windows.
//! * **Structured event trace** — a [`TraceEmitter`] ring of typed
//!   [`TelemetryEvent`]s (gate/wake, fault inject/recover, horizon jumps,
//!   set-frequency, island progress, sweep points) with a Chrome/Perfetto
//!   `trace_events` JSON exporter ([`TraceEmitter::perfetto_json`]):
//!   simulated cycles become timestamps, islands and routers become tracks,
//!   and a run opens directly in a trace viewer.
//! * **Profiling** — an [`EngineProfile`] of wall time per step phase, skip
//!   statistics and per-worker island-thread balance
//!   ([`TelemetryConfig::with_profile`]).
//!
//! The per-router congestion view exports as a [`CongestionHeatmap`]
//! (JSON/CSV) for the figures pipeline; see `examples/telemetry_heatmap.rs`.

use crate::router::{Router, TraversalOutput, LOCAL_PORT};
use crate::topology::PORT_COUNT;
use std::collections::VecDeque;

/// Number of bins in the buffer-occupancy histogram: occupancies `0..=15`
/// bin exactly, deeper buffers saturate into the last bin.
pub const OCC_BINS: usize = 17;

/// Configuration of the telemetry layer
/// ([`NocSimulation::install_telemetry`](crate::NocSimulation::install_telemetry)).
///
/// The default enables the counter fabric with a 1024-cycle sample interval,
/// a 16-window snapshot ring, a 4096-event trace ring, and no wall-clock
/// profiling.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TelemetryConfig {
    /// Base ticks per [`TelemetrySnapshot`] sample window.
    pub sample_interval: u64,
    /// Number of snapshot windows retained (ring of the last *K*).
    pub history: usize,
    /// Capacity of the [`TraceEmitter`] event ring (`0` disables event
    /// tracing; counters and snapshots still run).
    pub trace_capacity: usize,
    /// Whether to collect wall-clock [`EngineProfile`] timings.
    pub profile: bool,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig { sample_interval: 1024, history: 16, trace_capacity: 4096, profile: false }
    }
}

impl TelemetryConfig {
    /// Sets the snapshot sample interval in base ticks (clamped to ≥ 1).
    pub fn with_sample_interval(mut self, cycles: u64) -> Self {
        self.sample_interval = cycles.max(1);
        self
    }

    /// Sets how many snapshot windows the ring retains (clamped to ≥ 1).
    pub fn with_history(mut self, windows: usize) -> Self {
        self.history = windows.max(1);
        self
    }

    /// Sets the event-trace ring capacity (`0` disables event tracing).
    pub fn with_trace_capacity(mut self, events: usize) -> Self {
        self.trace_capacity = events;
        self
    }

    /// Enables wall-clock profiling of the step phases.
    pub fn with_profile(mut self, enabled: bool) -> Self {
        self.profile = enabled;
        self
    }
}

/// Why a buffered input VC cannot advance this cycle — the stall census the
/// per-router probe takes after the pipeline stages ran.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub(crate) struct StallCensus {
    /// Active VCs whose allocated output VC has zero credits.
    pub(crate) no_credit: u64,
    /// Active VCs whose output port is fenced (gated, waking or failed
    /// downstream).
    pub(crate) fenced: u64,
    /// VCs waiting for VC allocation whose required escape class (class 0)
    /// has no free output VC — the escape network is the contended resource.
    pub(crate) escape_hold: u64,
    /// VCs still waiting for route computation.
    pub(crate) route_wait: u64,
    /// VCs waiting for VC allocation for any other reason (all candidate
    /// output VCs of a non-escape class taken).
    pub(crate) va_wait: u64,
}

/// Per-router accumulation window of the counter fabric. Reset at every
/// snapshot sample; parallel island workers write only their own islands'
/// slots (the same disjointness argument as the router vector itself).
#[derive(Debug, Default, Clone)]
pub(crate) struct RouterProbe {
    /// Flits that won switch allocation + traversal this window (towards a
    /// link or the local ejection port).
    pub(crate) grants: u64,
    /// Flits sent per output port (`LOCAL_PORT` slot counts ejections).
    pub(crate) link_flits: [u64; PORT_COUNT],
    /// Flits ejected to the local node.
    pub(crate) ejected: u64,
    /// Outgoing flits assigned an escape-class (class 0) downstream VC.
    pub(crate) escape_flits: u64,
    /// Outgoing flits assigned an adaptive-class (class 1) downstream VC.
    pub(crate) adaptive_flits: u64,
    /// The stall census accumulated over the window.
    pub(crate) stalls: StallCensus,
    /// Flits dropped at this router (fault purges, blocked-port discards and
    /// orphaned-segment drains).
    pub(crate) dropped: u64,
}

impl RouterProbe {
    /// Accumulate one router's pipeline step into the window. Called right
    /// after the router's SA/ST + VA + RC sequence with the traversal scratch
    /// still holding this router's output; reads only — the probe never
    /// writes back into the router or the scratch.
    pub(crate) fn record(&mut self, scratch: &TraversalOutput, fence: u8, router: &Router) {
        self.grants += (scratch.outgoing.len() + scratch.ejected.len()) as u64;
        self.ejected += scratch.ejected.len() as u64;
        for out in &scratch.outgoing {
            self.link_flits[out.out_port] += 1;
            if router.vc_is_escape(out.flit.vc()) {
                self.escape_flits += 1;
            } else {
                self.adaptive_flits += 1;
            }
        }
        self.link_flits[LOCAL_PORT] += scratch.ejected.len() as u64;
        self.dropped += scratch.dropped;
        router.stall_census(fence, &mut self.stalls);
    }

    fn total_link_flits(&self) -> u64 {
        self.link_flits.iter().sum()
    }

    fn reset(&mut self) {
        *self = RouterProbe { ..Default::default() };
    }
}

/// One aggregated sample window of the counter fabric.
///
/// All counts cover the window `start_cycle..end_cycle` in base ticks; the
/// occupancy histogram is a point sample of every input VC taken at
/// `end_cycle`. Snapshots live in a bounded ring of the last *K* windows
/// ([`TelemetryConfig::with_history`]), so memory is fixed no matter how
/// long the run.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetrySnapshot {
    /// First base tick covered by this window.
    pub start_cycle: u64,
    /// One past the last base tick covered (the sample point).
    pub end_cycle: u64,
    /// Histogram of input-VC buffer occupancy at the sample point:
    /// bin `i` counts VCs holding `i` flits, the last bin saturates.
    pub occupancy_hist: [u64; OCC_BINS],
    /// Flits granted switch traversal across all routers.
    pub grants: u64,
    /// Active-VC cycles stalled on an empty downstream credit pool.
    pub stall_no_credit: u64,
    /// Active-VC cycles stalled on a fenced (gated/waking/failed) port.
    pub stall_fenced: u64,
    /// VC-allocation waits where the escape class was exhausted.
    pub stall_escape_hold: u64,
    /// VC cycles waiting for route computation.
    pub stall_route_wait: u64,
    /// VC-allocation waits of any other cause.
    pub stall_va_wait: u64,
    /// Flits put on inter-router links.
    pub link_flits: u64,
    /// Flits ejected to local nodes.
    pub ejected_flits: u64,
    /// Outgoing flits carried on escape-class (class 0) VCs.
    pub escape_flits: u64,
    /// Outgoing flits carried on adaptive-class (class 1) VCs.
    pub adaptive_flits: u64,
    /// Routers that closed their power gate in the window.
    pub gate_sleeps: u64,
    /// Routers that completed a wakeup in the window.
    pub gate_wakes: u64,
    /// Routers gated at the sample point.
    pub gated_routers: u32,
    /// Fault transitions (component deaths and recoveries) in the window.
    pub fault_events: u64,
    /// Flits dropped by failed components in the window.
    pub fault_drops: u64,
    /// Event-horizon jumps taken in the window.
    pub horizon_jumps: u64,
    /// Base ticks absorbed by those jumps.
    pub horizon_skipped_cycles: u64,
    /// Longest single jump, in base ticks.
    pub max_horizon_jump: u64,
    /// Sum over full steps of the active-router worklist length.
    pub worklist_sum: u64,
    /// Sum over full steps of the pending-source worklist length.
    pub pending_source_sum: u64,
    /// Number of full (non-skipped) steps the sums cover.
    pub worklist_samples: u64,
}

impl TelemetrySnapshot {
    fn new(start_cycle: u64) -> Self {
        TelemetrySnapshot {
            start_cycle,
            end_cycle: start_cycle,
            occupancy_hist: [0; OCC_BINS],
            grants: 0,
            stall_no_credit: 0,
            stall_fenced: 0,
            stall_escape_hold: 0,
            stall_route_wait: 0,
            stall_va_wait: 0,
            link_flits: 0,
            ejected_flits: 0,
            escape_flits: 0,
            adaptive_flits: 0,
            gate_sleeps: 0,
            gate_wakes: 0,
            gated_routers: 0,
            fault_events: 0,
            fault_drops: 0,
            horizon_jumps: 0,
            horizon_skipped_cycles: 0,
            max_horizon_jump: 0,
            worklist_sum: 0,
            pending_source_sum: 0,
            worklist_samples: 0,
        }
    }

    /// Mean active-router worklist occupancy over the window's full steps,
    /// or `0.0` when every tick was skipped.
    pub fn mean_worklist_occupancy(&self) -> f64 {
        if self.worklist_samples == 0 {
            return 0.0;
        }
        self.worklist_sum as f64 / self.worklist_samples as f64
    }

    /// Total stalled-VC cycles across all causes.
    pub fn total_stalls(&self) -> u64 {
        self.stall_no_credit
            + self.stall_fenced
            + self.stall_escape_hold
            + self.stall_route_wait
            + self.stall_va_wait
    }
}

/// A typed event on the structured trace (see [`TraceEmitter`]).
#[derive(Debug, Clone, PartialEq)]
pub enum TelemetryEvent {
    /// Periodic island progress: the island's local cycle at a sample point
    /// (the bounded representation of the island fire stream — one counter
    /// event per island per sample window, not one per fire).
    IslandProgress {
        /// Island id.
        island: u32,
        /// Domain cycles completed so far.
        local_cycle: u64,
    },
    /// An island's clock was retuned.
    SetFrequency {
        /// Island id.
        island: u32,
        /// The new frequency in hertz (post-clamping).
        hz: f64,
    },
    /// A router closed its power gate.
    GateSleep {
        /// The gated router.
        node: u32,
    },
    /// A router completed its wakeup.
    GateWake {
        /// The woken router.
        node: u32,
    },
    /// A component failed (`link == true` for a link, else a router).
    FaultDown {
        /// The failed node (link faults: the node owning the port).
        node: u32,
        /// Whether the failed component is a link.
        link: bool,
    },
    /// A component recovered.
    FaultUp {
        /// The recovered node.
        node: u32,
        /// Whether the recovered component is a link.
        link: bool,
    },
    /// An event-horizon jump absorbed `ticks` base ticks starting at the
    /// event's timestamp.
    HorizonJump {
        /// Base ticks absorbed.
        ticks: u64,
    },
    /// A scalar counter sample (worklist occupancy, gated-router count, …).
    Counter {
        /// Counter track name.
        name: &'static str,
        /// Sampled value.
        value: f64,
    },
    /// A sweep point began executing (coordinator trace; timestamps are
    /// microseconds since the sweep started, not simulated cycles).
    SweepPointStart {
        /// The point's journal key.
        key: String,
        /// The executing worker.
        worker: u32,
    },
    /// A sweep point attempt failed and will be retried.
    SweepPointRetry {
        /// The point's journal key.
        key: String,
        /// The attempt number that failed (1-based).
        attempt: u32,
    },
    /// A sweep point finished (successfully or permanently failed).
    SweepPointComplete {
        /// The point's journal key.
        key: String,
        /// The executing worker.
        worker: u32,
        /// Whether the point produced a result.
        ok: bool,
    },
}

/// A [`TelemetryEvent`] with its timestamp (simulated base ticks in the
/// simulation trace; microseconds in the sweep-coordinator trace).
#[derive(Debug, Clone, PartialEq)]
pub struct TimedEvent {
    /// Event timestamp (see the type docs for the unit).
    pub ts: u64,
    /// The event.
    pub event: TelemetryEvent,
}

/// A bounded ring of typed trace events with a Chrome/Perfetto
/// `trace_events` JSON exporter.
///
/// The ring keeps the **last** `capacity` events (old events are evicted,
/// counted in [`dropped_events`](Self::dropped_events)), so memory stays
/// fixed for arbitrarily long runs. A capacity of `0` disables emission
/// entirely.
#[derive(Debug, Clone, Default)]
pub struct TraceEmitter {
    events: VecDeque<TimedEvent>,
    capacity: usize,
    dropped: u64,
}

impl TraceEmitter {
    /// Creates an emitter retaining the last `capacity` events.
    pub fn new(capacity: usize) -> Self {
        TraceEmitter { events: VecDeque::with_capacity(capacity.min(4096)), capacity, dropped: 0 }
    }

    /// Appends an event at timestamp `ts`, evicting the oldest event when
    /// the ring is full.
    pub fn emit(&mut self, ts: u64, event: TelemetryEvent) {
        if self.capacity == 0 {
            self.dropped += 1;
            return;
        }
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(TimedEvent { ts, event });
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TimedEvent> {
        self.events.iter()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no event is retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events evicted (or refused, at capacity 0) since construction.
    pub fn dropped_events(&self) -> u64 {
        self.dropped
    }

    /// Renders the retained events as Chrome/Perfetto `trace_events` JSON.
    ///
    /// Timestamps map 1:1 onto the viewer's microsecond axis (one simulated
    /// base tick — or one real microsecond for coordinator traces — per
    /// `ts` unit). Tracks: router-scoped events use the node id as `tid`,
    /// island-scoped counters get one counter track per island, sweep
    /// points use the worker id as `tid` with begin/end pairs. The output
    /// opens directly in `chrome://tracing` / [ui.perfetto.dev](https://ui.perfetto.dev).
    pub fn perfetto_json(&self) -> String {
        let mut out = String::with_capacity(64 + self.events.len() * 96);
        out.push_str("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
        out.push_str(
            "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 0, \"ts\": 0, \
             \"args\": {\"name\": \"noc-sim\"}}",
        );
        for TimedEvent { ts, event } in &self.events {
            out.push_str(",\n");
            let line = match event {
                TelemetryEvent::IslandProgress { island, local_cycle } => format!(
                    "{{\"name\": \"island{island}_cycles\", \"ph\": \"C\", \"ts\": {ts}, \
                     \"pid\": 0, \"args\": {{\"value\": {local_cycle}}}}}"
                ),
                TelemetryEvent::SetFrequency { island, hz } => format!(
                    "{{\"name\": \"island{island}_freq_mhz\", \"ph\": \"C\", \"ts\": {ts}, \
                     \"pid\": 0, \"args\": {{\"value\": {:.3}}}}}",
                    hz / 1.0e6
                ),
                TelemetryEvent::GateSleep { node } => format!(
                    "{{\"name\": \"gate_sleep\", \"ph\": \"I\", \"ts\": {ts}, \"pid\": 0, \
                     \"tid\": {node}, \"s\": \"t\"}}"
                ),
                TelemetryEvent::GateWake { node } => format!(
                    "{{\"name\": \"gate_wake\", \"ph\": \"I\", \"ts\": {ts}, \"pid\": 0, \
                     \"tid\": {node}, \"s\": \"t\"}}"
                ),
                TelemetryEvent::FaultDown { node, link } => format!(
                    "{{\"name\": \"{}_down\", \"ph\": \"I\", \"ts\": {ts}, \"pid\": 0, \
                     \"tid\": {node}, \"s\": \"t\"}}",
                    if *link { "link" } else { "router" }
                ),
                TelemetryEvent::FaultUp { node, link } => format!(
                    "{{\"name\": \"{}_up\", \"ph\": \"I\", \"ts\": {ts}, \"pid\": 0, \
                     \"tid\": {node}, \"s\": \"t\"}}",
                    if *link { "link" } else { "router" }
                ),
                TelemetryEvent::HorizonJump { ticks } => format!(
                    "{{\"name\": \"horizon_jump\", \"ph\": \"X\", \"ts\": {ts}, \
                     \"dur\": {ticks}, \"pid\": 0, \"tid\": 0}}"
                ),
                TelemetryEvent::Counter { name, value } => format!(
                    "{{\"name\": \"{name}\", \"ph\": \"C\", \"ts\": {ts}, \"pid\": 0, \
                     \"args\": {{\"value\": {value}}}}}"
                ),
                TelemetryEvent::SweepPointStart { key, worker } => format!(
                    "{{\"name\": \"{}\", \"ph\": \"B\", \"ts\": {ts}, \"pid\": 0, \
                     \"tid\": {worker}}}",
                    escape_json(key)
                ),
                TelemetryEvent::SweepPointRetry { key, attempt } => format!(
                    "{{\"name\": \"retry {} (attempt {attempt})\", \"ph\": \"I\", \
                     \"ts\": {ts}, \"pid\": 0, \"tid\": 0, \"s\": \"p\"}}",
                    escape_json(key)
                ),
                TelemetryEvent::SweepPointComplete { key, worker, ok } => format!(
                    "{{\"name\": \"{}\", \"ph\": \"E\", \"ts\": {ts}, \"pid\": 0, \
                     \"tid\": {worker}, \"args\": {{\"ok\": {ok}}}}}",
                    escape_json(key)
                ),
            };
            out.push_str(&line);
        }
        out.push_str("\n]}\n");
        out
    }

    /// Writes [`perfetto_json`](Self::perfetto_json) to `path`.
    ///
    /// # Errors
    ///
    /// Any I/O error from creating or writing the file.
    pub fn write_perfetto(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.perfetto_json())
    }
}

fn escape_json(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// A per-router utilization matrix — the congestion-heatmap export consumed
/// by the figures pipeline.
///
/// `utilization[y * width + x]` is the router's mean flits-forwarded per
/// observed base tick (links plus ejections), so hot routers stand out and
/// idle corners read `0.0`.
#[derive(Debug, Clone, PartialEq)]
pub struct CongestionHeatmap {
    /// Grid width in routers.
    pub width: usize,
    /// Grid height in routers.
    pub height: usize,
    /// Row-major per-router utilization (flits per base tick).
    pub utilization: Vec<f64>,
}

impl CongestionHeatmap {
    /// The hottest router's utilization (or `0.0` for an empty map).
    pub fn peak(&self) -> f64 {
        self.utilization.iter().copied().fold(0.0, f64::max)
    }

    /// Renders the heatmap as a JSON object
    /// (`{"width": .., "height": .., "utilization": [[row0], [row1], ..]}`).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(32 + self.utilization.len() * 10);
        out.push_str(&format!(
            "{{\"width\": {}, \"height\": {}, \"utilization\": [",
            self.width, self.height
        ));
        for y in 0..self.height {
            if y > 0 {
                out.push_str(", ");
            }
            out.push('[');
            for x in 0..self.width {
                if x > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!("{:.6}", self.utilization[y * self.width + x]));
            }
            out.push(']');
        }
        out.push_str("]}\n");
        out
    }

    /// Renders the heatmap as CSV, one grid row per line.
    pub fn to_csv(&self) -> String {
        let mut out = String::with_capacity(self.utilization.len() * 10);
        for y in 0..self.height {
            for x in 0..self.width {
                if x > 0 {
                    out.push(',');
                }
                out.push_str(&format!("{:.6}", self.utilization[y * self.width + x]));
            }
            out.push('\n');
        }
        out
    }
}

/// Wall-clock profile of the stepping engine (collected only under
/// [`TelemetryConfig::with_profile`]; wall-clock reads never feed back into
/// simulated behaviour).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EngineProfile {
    /// Full steps executed.
    pub steps: u64,
    /// Nanoseconds in the pre-pipeline phases (clocks, gating, faults,
    /// generation, credit delivery). Draws that ran ahead on the generation
    /// helper are not in it: for those ticks generation is the queueing of
    /// the helper's emits, plus any wait for it ([`ahead_wait_ns`](Self::ahead_wait_ns)).
    pub pre_ns: u64,
    /// Nanoseconds in the router-pipeline phase. Under island workers this
    /// is the main thread's span from opening the barrier to having applied
    /// every worker's effects.
    pub pipeline_ns: u64,
    /// Nanoseconds in the post-pipeline phases (deliveries, injection).
    pub post_ns: u64,
    /// Nanoseconds spent inside the event-horizon skip routine.
    pub skip_ns: u64,
    /// Ticks whose packet draws ran ahead on the generation helper thread
    /// (zero unless a run call was long enough to lend it the spec).
    pub ahead_ticks: u64,
    /// Nanoseconds the engine waited for the generation helper — counted
    /// inside `pre_ns`, or `skip_ns` when the skip routine waited. Large
    /// when generation, not the engine, bounds the run.
    pub ahead_wait_ns: u64,
    /// Per-worker nanoseconds spent in the parallel island-pipeline phase —
    /// the island-thread balance (empty unless parallel stepping ran).
    pub worker_busy_ns: Vec<u64>,
}

impl EngineProfile {
    /// Total attributed nanoseconds across the serial phases.
    pub fn total_ns(&self) -> u64 {
        self.pre_ns + self.pipeline_ns + self.post_ns + self.skip_ns
    }

    /// Imbalance of the parallel island workers: slowest worker's busy time
    /// over the mean (1.0 = perfectly balanced; `None` without workers).
    pub fn worker_imbalance(&self) -> Option<f64> {
        let busy: Vec<u64> = self.worker_busy_ns.iter().copied().filter(|&n| n > 0).collect();
        if busy.is_empty() {
            return None;
        }
        let max = *busy.iter().max().expect("non-empty") as f64;
        let mean = busy.iter().sum::<u64>() as f64 / busy.len() as f64;
        Some(if mean > 0.0 { max / mean } else { 1.0 })
    }

    pub(crate) fn ensure_workers(&mut self, workers: usize) {
        if self.worker_busy_ns.len() < workers {
            self.worker_busy_ns.resize(workers, 0);
        }
    }
}

/// Engine-level counters accumulated between snapshot samples.
#[derive(Debug, Default, Clone)]
struct WindowAccum {
    gate_sleeps: u64,
    gate_wakes: u64,
    fault_events: u64,
    horizon_jumps: u64,
    horizon_skipped: u64,
    max_horizon_jump: u64,
    worklist_sum: u64,
    pending_source_sum: u64,
    worklist_samples: u64,
}

/// The installed telemetry layer of one simulation: per-router probes, the
/// snapshot ring, the event trace and the engine profile. Obtained via
/// [`NocSimulation::telemetry`](crate::NocSimulation::telemetry) /
/// [`telemetry_mut`](crate::NocSimulation::telemetry_mut).
#[derive(Debug)]
pub struct TelemetryState {
    cfg: TelemetryConfig,
    pub(crate) routers: Vec<RouterProbe>,
    win: WindowAccum,
    window_start_cycle: u64,
    pub(crate) next_sample_at: u64,
    snapshots: VecDeque<TelemetrySnapshot>,
    /// Cumulative per-router forwarded flits since install (heatmap source).
    cum_flits: Vec<u64>,
    /// Base tick at install (heatmap utilization denominator start).
    install_cycle: u64,
    emitter: TraceEmitter,
    profile: EngineProfile,
}

impl TelemetryState {
    pub(crate) fn new(cfg: TelemetryConfig, nodes: usize, now: u64) -> Self {
        let cfg = TelemetryConfig {
            sample_interval: cfg.sample_interval.max(1),
            history: cfg.history.max(1),
            ..cfg
        };
        TelemetryState {
            routers: vec![RouterProbe::default(); nodes],
            win: WindowAccum::default(),
            window_start_cycle: now,
            next_sample_at: now + cfg.sample_interval,
            snapshots: VecDeque::with_capacity(cfg.history),
            cum_flits: vec![0; nodes],
            install_cycle: now,
            emitter: TraceEmitter::new(cfg.trace_capacity),
            profile: EngineProfile::default(),
            cfg,
        }
    }

    /// The retained snapshot ring, oldest first.
    pub fn snapshots(&self) -> impl Iterator<Item = &TelemetrySnapshot> {
        self.snapshots.iter()
    }

    /// The most recent completed snapshot, if any window completed yet.
    pub fn latest_snapshot(&self) -> Option<&TelemetrySnapshot> {
        self.snapshots.back()
    }

    /// Drains the snapshot ring (oldest first), leaving it empty.
    pub fn take_snapshots(&mut self) -> Vec<TelemetrySnapshot> {
        self.snapshots.drain(..).collect()
    }

    /// The structured event trace.
    pub fn events(&self) -> &TraceEmitter {
        &self.emitter
    }

    /// The engine profile (all-zero unless profiling was enabled).
    pub fn profile(&self) -> &EngineProfile {
        &self.profile
    }

    pub(crate) fn profiling(&self) -> bool {
        self.cfg.profile
    }

    pub(crate) fn profile_mut(&mut self) -> &mut EngineProfile {
        &mut self.profile
    }

    pub(crate) fn record_horizon_jump(&mut self, start_cycle: u64, ticks: u64) {
        self.win.horizon_jumps += 1;
        self.win.horizon_skipped += ticks;
        self.win.max_horizon_jump = self.win.max_horizon_jump.max(ticks);
        self.emitter.emit(start_cycle, TelemetryEvent::HorizonJump { ticks });
    }

    pub(crate) fn tick_worklist(&mut self, active: usize, pending: usize) {
        self.win.worklist_sum += active as u64;
        self.win.pending_source_sum += pending as u64;
        self.win.worklist_samples += 1;
    }

    pub(crate) fn on_gate_transition(&mut self, node: u32, to_sleep: bool, now: u64) {
        if to_sleep {
            self.win.gate_sleeps += 1;
            self.emitter.emit(now, TelemetryEvent::GateSleep { node });
        } else {
            self.win.gate_wakes += 1;
            self.emitter.emit(now, TelemetryEvent::GateWake { node });
        }
    }

    pub(crate) fn on_fault_transition(&mut self, node: u32, link: bool, down: bool, now: u64) {
        self.win.fault_events += 1;
        let event = if down {
            TelemetryEvent::FaultDown { node, link }
        } else {
            TelemetryEvent::FaultUp { node, link }
        };
        self.emitter.emit(now, event);
    }

    pub(crate) fn on_set_frequency(&mut self, island: u32, hz: f64, now: u64) {
        self.emitter.emit(now, TelemetryEvent::SetFrequency { island, hz });
    }

    /// Closes the current sample window: aggregates the per-router probes
    /// and engine counters into a [`TelemetrySnapshot`], point-samples the
    /// occupancy histogram, pushes the snapshot into the ring (evicting the
    /// oldest beyond the history bound) and resets the accumulators.
    pub(crate) fn sample(
        &mut self,
        routers: &[crate::router::Router],
        gated_routers: usize,
        island_cycles: &[u64],
        now: u64,
    ) {
        let mut snap = TelemetrySnapshot::new(self.window_start_cycle);
        snap.end_cycle = now;
        for (probe, cum) in self.routers.iter_mut().zip(self.cum_flits.iter_mut()) {
            snap.grants += probe.grants;
            snap.ejected_flits += probe.ejected;
            snap.escape_flits += probe.escape_flits;
            snap.adaptive_flits += probe.adaptive_flits;
            snap.stall_no_credit += probe.stalls.no_credit;
            snap.stall_fenced += probe.stalls.fenced;
            snap.stall_escape_hold += probe.stalls.escape_hold;
            snap.stall_route_wait += probe.stalls.route_wait;
            snap.stall_va_wait += probe.stalls.va_wait;
            snap.fault_drops += probe.dropped;
            let total = probe.total_link_flits();
            snap.link_flits += total - probe.ejected;
            *cum += total;
            probe.reset();
        }
        for router in routers {
            let vcs = router.virtual_channels();
            for port in 0..PORT_COUNT {
                for vc in 0..vcs {
                    let occ = router.input_vc_occupancy(port, vc).min(OCC_BINS - 1);
                    snap.occupancy_hist[occ] += 1;
                }
            }
        }
        snap.gate_sleeps = self.win.gate_sleeps;
        snap.gate_wakes = self.win.gate_wakes;
        snap.gated_routers = gated_routers as u32;
        snap.fault_events = self.win.fault_events;
        snap.horizon_jumps = self.win.horizon_jumps;
        snap.horizon_skipped_cycles = self.win.horizon_skipped;
        snap.max_horizon_jump = self.win.max_horizon_jump;
        snap.worklist_sum = self.win.worklist_sum;
        snap.pending_source_sum = self.win.pending_source_sum;
        snap.worklist_samples = self.win.worklist_samples;
        if snap.worklist_samples > 0 {
            self.emitter.emit(
                now,
                TelemetryEvent::Counter {
                    name: "active_routers",
                    value: snap.mean_worklist_occupancy(),
                },
            );
        }
        if gated_routers > 0 || snap.gate_sleeps > 0 || snap.gate_wakes > 0 {
            self.emitter.emit(
                now,
                TelemetryEvent::Counter { name: "gated_routers", value: gated_routers as f64 },
            );
        }
        for (island, &cycle) in island_cycles.iter().enumerate() {
            self.emitter.emit(
                now,
                TelemetryEvent::IslandProgress { island: island as u32, local_cycle: cycle },
            );
        }
        self.win = WindowAccum::default();
        self.window_start_cycle = now;
        self.next_sample_at = now + self.cfg.sample_interval;
        if self.snapshots.len() == self.cfg.history {
            self.snapshots.pop_front();
        }
        self.snapshots.push_back(snap);
    }

    /// Builds the congestion heatmap over everything observed since install:
    /// per-router forwarded flits (completed sample windows plus the open
    /// one) divided by elapsed base ticks.
    pub(crate) fn heatmap(&self, width: usize, height: usize, now: u64) -> CongestionHeatmap {
        let cycles = (now - self.install_cycle).max(1) as f64;
        let utilization = self
            .cum_flits
            .iter()
            .zip(self.routers.iter())
            .map(|(&cum, probe)| (cum + probe.total_link_flits()) as f64 / cycles)
            .collect();
        CongestionHeatmap { width, height, utilization }
    }
}

/// A one-call bundle of the simulation's diagnostic counters — everything a
/// monitoring loop or example used to collect from five separate getters
/// ([`NocSimulation::counters`](crate::NocSimulation::counters)).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimCounters {
    /// NoC base ticks simulated so far.
    pub cycle: u64,
    /// Simulated wall-clock time, picoseconds.
    pub wall_time_ps: f64,
    /// Base ticks absorbed by event-horizon jumps.
    pub skipped_cycles: u64,
    /// Routers currently holding buffered flits.
    pub active_routers: usize,
    /// Routers currently power-gated.
    pub gated_routers: usize,
    /// Flits in flight on links and injection channels.
    pub in_flight_flits: usize,
    /// Credits in flight on credit-return channels.
    pub in_flight_credits: usize,
    /// Flits waiting in source queues.
    pub queued_source_flits: usize,
    /// Flits buffered inside routers.
    pub buffered_network_flits: usize,
    /// Flits generated since the start of the run.
    pub flits_generated: u64,
    /// Flits delivered to sinks since the start of the run.
    pub flits_received: u64,
    /// Flits dropped by failed components since the start of the run.
    pub flits_dropped: u64,
    /// Packets fully delivered since the start of the run.
    pub packets_delivered: u64,
    /// Fraction of `(source, destination)` pairs currently connected.
    pub reachable_pairs: f64,
}

impl SimCounters {
    /// Flits currently anywhere in the system (queued, buffered or flying)
    /// — the in-transit term of the conservation ledger
    /// `generated = received + in_transit + dropped`.
    pub fn in_transit_flits(&self) -> u64 {
        self.queued_source_flits as u64
            + self.buffered_network_flits as u64
            + self.in_flight_flits as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emitter_ring_is_bounded_and_counts_evictions() {
        let mut e = TraceEmitter::new(3);
        for i in 0..5u64 {
            e.emit(i, TelemetryEvent::HorizonJump { ticks: i });
        }
        assert_eq!(e.len(), 3);
        assert_eq!(e.dropped_events(), 2);
        let ts: Vec<u64> = e.events().map(|ev| ev.ts).collect();
        assert_eq!(ts, vec![2, 3, 4], "oldest events evicted first");
        let mut off = TraceEmitter::new(0);
        off.emit(1, TelemetryEvent::HorizonJump { ticks: 1 });
        assert!(off.is_empty());
        assert_eq!(off.dropped_events(), 1);
    }

    #[test]
    fn perfetto_export_contains_every_event_shape() {
        let mut e = TraceEmitter::new(64);
        e.emit(10, TelemetryEvent::IslandProgress { island: 1, local_cycle: 10 });
        e.emit(11, TelemetryEvent::SetFrequency { island: 0, hz: 5.0e8 });
        e.emit(12, TelemetryEvent::GateSleep { node: 7 });
        e.emit(13, TelemetryEvent::GateWake { node: 7 });
        e.emit(14, TelemetryEvent::FaultDown { node: 3, link: true });
        e.emit(15, TelemetryEvent::FaultUp { node: 3, link: false });
        e.emit(16, TelemetryEvent::HorizonJump { ticks: 40 });
        e.emit(17, TelemetryEvent::Counter { name: "active_routers", value: 2.5 });
        e.emit(18, TelemetryEvent::SweepPointStart { key: "op1|f=1".into(), worker: 2 });
        e.emit(19, TelemetryEvent::SweepPointRetry { key: "op1|f=1".into(), attempt: 1 });
        e.emit(20, TelemetryEvent::SweepPointComplete { key: "op1|f=1".into(), worker: 2, ok: true });
        let json = e.perfetto_json();
        assert!(json.contains("\"traceEvents\""));
        for needle in [
            "island1_cycles",
            "island0_freq_mhz",
            "gate_sleep",
            "gate_wake",
            "link_down",
            "router_up",
            "horizon_jump",
            "\"dur\": 40",
            "active_routers",
            "\"ph\": \"B\"",
            "\"ph\": \"E\"",
            "\"ph\": \"I\"",
            "\"ph\": \"C\"",
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
    }

    #[test]
    fn heatmap_renders_json_and_csv_row_major() {
        let map = CongestionHeatmap {
            width: 2,
            height: 2,
            utilization: vec![0.0, 0.25, 0.5, 1.0],
        };
        assert_eq!(map.peak(), 1.0);
        let json = map.to_json();
        assert!(json.starts_with("{\"width\": 2, \"height\": 2, \"utilization\": [["));
        assert!(json.contains("[0.500000, 1.000000]"));
        let csv = map.to_csv();
        assert_eq!(csv, "0.000000,0.250000\n0.500000,1.000000\n");
    }

    #[test]
    fn profile_imbalance_is_max_over_mean() {
        let mut p = EngineProfile::default();
        assert_eq!(p.worker_imbalance(), None);
        p.worker_busy_ns = vec![100, 300];
        let imb = p.worker_imbalance().unwrap();
        assert!((imb - 1.5).abs() < 1e-12);
    }
}
