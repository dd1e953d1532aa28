//! Router power gating: per-router sleep/wakeup state machines built on the
//! sparse engine's quiescence substrate.
//!
//! DVFS attacks dynamic power; leakage only falls when idle resources are
//! actually switched off. The activity-tracked core already knows, per cycle,
//! exactly which routers are quiescent — this module turns that bookkeeping
//! into a power-gating subsystem:
//!
//! * [`GatingConfig`] — per-network gating parameters (enabled, idle
//!   threshold, wakeup latency), stored inside
//!   [`NetworkConfig`](crate::NetworkConfig); per-island thresholds are set
//!   at run time through
//!   [`set_island_idle_threshold`](crate::NocSimulation::set_island_idle_threshold);
//! * [`GateState`] — the per-router sleep state machine
//!   `Active → DrainWait → Gated → WakeUp → Active`;
//! * `GatingController` (crate-internal) — the event-driven mechanics the
//!   [`NocSimulation`](crate::NocSimulation) driver runs each cycle.
//!
//! # The state machine and the drain/fence contract
//!
//! A router that has been continuously quiescent (no buffered flit) for
//! `idle_threshold` of its island's domain cycles enters **DrainWait**: the
//! intent to gate. It actually gates only once every in-flight flit headed
//! for it has landed — all incoming link channels and its injection channel
//! are empty — so a flit can never arrive at a powered-down router. Any
//! arrival during DrainWait aborts back to Active (no wakeup penalty: the
//! power-down had not begun).
//!
//! Once **Gated**, the router's links are *fenced*: a neighbour whose switch
//! allocation wants to forward a flit towards it keeps the flit buffered
//! (exactly as if the output had no credit) and raises a **wakeup request**
//! instead; the local source is likewise fenced and raises a wakeup when it
//! has flits to inject. The first request moves the router to **WakeUp**; it
//! becomes Active `wakeup_latency` domain cycles later and traffic resumes.
//! Nothing is ever dropped: flits wait upstream behind the fence, and
//! credit returns into a gated router simply update its retained credit
//! counters (observationally identical to fencing and replaying them at
//! wakeup, because a gated router runs no allocation until it is Active
//! again). The no-lost-flits / no-lost-credits contract is pinned by
//! `tests/gating_invariants.rs`.
//!
//! With gating disabled (the default) the controller is a structural no-op:
//! every golden window sequence is bit-identical to the ungated simulator
//! in every engine mode. The fence's bookkeeping — a recount of the fenced
//! routers, and every fenced source's router waking — is a clause of
//! [`NocSimulation::check_invariants`](crate::NocSimulation::check_invariants).

use crate::config::MAX_CHANNEL_LATENCY;
use crate::region::RegionMap;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Idle-threshold value meaning "never gate this island's routers".
///
/// Gating policies use this as the *off* actuator position: the sleep timer
/// is never armed, but routers already gated stay gated until traffic wakes
/// them (switching a sleeping router on without demand would waste the very
/// transition energy the policy is trying to save).
pub const GATE_NEVER: u64 = u64::MAX;

/// Power-gating state of one router.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum GateState {
    /// Powered on and participating normally in the pipeline.
    #[default]
    Active,
    /// Idle past the threshold; waiting for in-flight traffic towards the
    /// router to drain before the power gate closes. Not fenced: an arrival
    /// aborts back to [`Active`](GateState::Active) at no cost.
    DrainWait,
    /// Power-gated: the pipeline is off, links towards the router are
    /// fenced, and only retained state (credit counters) is kept.
    Gated,
    /// Powering back up after a wakeup request; still fenced until the
    /// configured wakeup latency elapses.
    WakeUp,
}

impl GateState {
    /// Whether links towards a router in this state are fenced: neighbours
    /// must hold flits upstream and raise a wakeup request instead of
    /// sending.
    #[inline]
    pub fn is_fenced(&self) -> bool {
        matches!(self, GateState::Gated | GateState::WakeUp)
    }
}

/// Power-gating parameters of a network, stored inside
/// [`NetworkConfig`](crate::NetworkConfig).
///
/// ```
/// use noc_sim::{GatingConfig, NetworkConfig};
///
/// let cfg = NetworkConfig::builder()
///     .mesh(4, 4)
///     .virtual_channels(2)
///     .buffer_depth(4)
///     .packet_length(5)
///     .gating(GatingConfig::enabled(32, 8))
///     .build()
///     .unwrap();
/// assert!(cfg.gating().is_enabled());
/// assert_eq!(cfg.gating().idle_threshold(), 32);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GatingConfig {
    enabled: bool,
    idle_threshold: u64,
    wakeup_latency: u64,
}

impl GatingConfig {
    /// Gating switched off — the default, and a structural no-op in the
    /// simulator (golden windows are bit-identical to the pre-gating core).
    pub fn disabled() -> Self {
        GatingConfig { enabled: false, idle_threshold: GATE_NEVER, wakeup_latency: 1 }
    }

    /// Gating enabled with an `idle_threshold` (domain cycles of continuous
    /// quiescence before a router starts powering down) and a
    /// `wakeup_latency` (domain cycles from the first wakeup request until
    /// the router is usable again).
    ///
    /// The wakeup latency is clamped to `1..=MAX_CHANNEL_LATENCY` (4096),
    /// mirroring the channel-latency convention.
    pub fn enabled(idle_threshold: u64, wakeup_latency: u64) -> Self {
        GatingConfig {
            enabled: true,
            idle_threshold,
            wakeup_latency: wakeup_latency.clamp(1, MAX_CHANNEL_LATENCY),
        }
    }

    /// Whether gating is enabled at all.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The network-wide idle threshold in domain cycles.
    pub fn idle_threshold(&self) -> u64 {
        self.idle_threshold
    }

    /// The network-wide wakeup latency in domain cycles.
    pub fn wakeup_latency(&self) -> u64 {
        self.wakeup_latency
    }

    /// This type's part of `NetworkConfig::encode_fields`.
    pub(crate) fn encode_fields(&self, w: &mut crate::snapshot::SnapWriter) {
        let GatingConfig { enabled, idle_threshold, wakeup_latency } = self;
        w.put_bool(*enabled);
        w.put_u64(*idle_threshold);
        w.put_u64(*wakeup_latency);
    }
}

impl Default for GatingConfig {
    fn default() -> Self {
        GatingConfig::disabled()
    }
}

/// The event-driven gating mechanics run by the simulation driver.
///
/// Cost model: with gating disabled nothing here is touched; with gating
/// enabled, all per-cycle work is event-driven — sleep timers live in a
/// per-island due-heap armed only when a router *becomes* idle, wake timers
/// in a per-island FIFO (wakeup latency is constant per island, so dues are
/// pushed in order), and the DrainWait population is a small transient list.
/// A fully gated idle network therefore costs O(islands) per cycle, the same
/// as the plain idle sparse core ("gated routers are literally free").
///
/// The same holds per activity window: a router's open Gated span is never
/// closed at a window edge. It starts at `max(gated_since, window_start)` of
/// its island, read lazily where a span ends (`request_wakeup`), where a
/// window is reported (`open_gated_span`) and where it is saved, so draining
/// a window touches no router that stayed gated through it.
#[derive(Debug)]
pub(crate) struct GatingController {
    /// Master switch (configuration).
    pub(crate) enabled: bool,
    /// Per-router gate state.
    pub(crate) states: Vec<GateState>,
    /// Per-router "currently quiescent" mirror maintained by idle/active
    /// events from the driver.
    pub(crate) idle: Vec<bool>,
    /// Island domain cycle at which the router last became idle.
    idle_since: Vec<u64>,
    /// Node → island (copy of the region assignments).
    island_of: Vec<u32>,
    /// Per-island idle threshold in domain cycles ([`GATE_NEVER`] = off).
    thresholds: Vec<u64>,
    /// Per-island wakeup latency in domain cycles (≥ 1; configuration).
    wake_latency: Vec<u64>,
    /// Per-island sleep-timer due-heap: `(due domain cycle, node)`, popped
    /// when the island's clock reaches `due`. Entries are hints — validity
    /// (still idle, still Active, threshold still met) is re-checked at pop.
    sleep_due: Vec<BinaryHeap<Reverse<(u64, u32)>>>,
    /// Per-island wakeup FIFO: `(due domain cycle, node)` in push order.
    wake_due: Vec<VecDeque<(u64, u32)>>,
    /// Nodes currently in DrainWait (small, transient; lazily pruned).
    drain_wait: Vec<u32>,
    /// Number of routers in a fenced state (Gated | WakeUp) — the fast-path
    /// gate for fence-mask computation in the pipeline phase.
    pub(crate) fenced_count: usize,
    /// Sources removed from the sparse pending worklist because their router
    /// is fenced; re-inserted when the router wakes.
    pub(crate) fenced_sources: Vec<bool>,
    /// Domain cycle at which the router's current Gated span began — or an
    /// earlier cycle: the span counts in the current activity window from
    /// `max(gated_since, window_start[island])`, and that maximum is
    /// written back when the span ends.
    gated_since: Vec<u64>,
    /// Per-island domain cycle at which the current activity window began
    /// (the simulation restarts it at every activity drain; it also bounds
    /// the `cycles` every router reports for the window).
    pub(crate) window_start: Vec<u64>,
    /// Per-router gated domain cycles accumulated since the last activity
    /// drain (completed spans only; the open span is read lazily).
    win_gated_cycles: Vec<u64>,
    /// Sleep (Active→Gated) transitions since the last activity drain.
    win_sleep_events: Vec<u64>,
    /// Wake (Gated→WakeUp) transitions since the last activity drain.
    win_wake_events: Vec<u64>,
    /// Telemetry transition log (`(node, to_sleep)` in occurrence order),
    /// `None` unless the telemetry layer is installed. Pure observer: it is
    /// drained by the driver after the gating phase, feeds no decision, and
    /// is deliberately not part of snapshots (telemetry describes how the
    /// run was watched, not what the state is).
    transition_log: Option<Vec<(u32, bool)>>,
}

impl GatingController {
    /// Builds the controller for a freshly constructed (empty, cycle-0)
    /// network. With gating enabled every router starts idle and armed.
    pub(crate) fn new(cfg: &GatingConfig, regions: &RegionMap) -> Self {
        let n = regions.node_count();
        let islands = regions.island_count();
        let mut controller = GatingController {
            enabled: cfg.is_enabled(),
            states: vec![GateState::Active; n],
            idle: vec![false; n],
            idle_since: vec![0; n],
            island_of: regions.assignments().to_vec(),
            thresholds: vec![cfg.idle_threshold; islands],
            wake_latency: vec![cfg.wakeup_latency; islands],
            sleep_due: (0..islands).map(|_| BinaryHeap::new()).collect(),
            wake_due: (0..islands).map(|_| VecDeque::new()).collect(),
            drain_wait: Vec::new(),
            fenced_count: 0,
            fenced_sources: vec![false; n],
            gated_since: vec![0; n],
            window_start: vec![0; islands],
            win_gated_cycles: vec![0; n],
            win_sleep_events: vec![0; n],
            win_wake_events: vec![0; n],
            transition_log: None,
        };
        if controller.enabled {
            for node in 0..n {
                controller.mark_idle(node, 0);
            }
        }
        controller
    }

    /// Current idle threshold of an island.
    pub(crate) fn threshold(&self, island: usize) -> u64 {
        self.thresholds[island]
    }

    /// Number of routers currently in the [`Gated`](GateState::Gated) state:
    /// the fenced routers less the waking ones, which pair one to one with
    /// the wake timers (`load_state` refuses a snapshot where they do not).
    /// O(islands).
    pub(crate) fn gated_count(&self) -> usize {
        self.fenced_count - self.wake_due.iter().map(VecDeque::len).sum::<usize>()
    }

    /// Whether no router is currently in DrainWait. A non-empty DrainWait
    /// population does per-cycle work (inbound-clear checks on every firing
    /// island cycle), so the event-horizon engine only skips when this holds.
    #[inline]
    pub(crate) fn drain_wait_empty(&self) -> bool {
        self.drain_wait.is_empty()
    }

    /// Earliest armed sleep/wake timer of an island, in the island's domain
    /// cycles (`u64::MAX` when nothing is armed).
    ///
    /// Entries are hints — a stale sleep timer (its router woke and re-idled
    /// meanwhile) may report an earlier due than any real state change. That
    /// is safe for event-horizon computation: a conservative (too early)
    /// bound only shortens the jump, and the full step taken at the bound
    /// pops and re-validates the hint.
    pub(crate) fn earliest_due(&self, island: usize) -> u64 {
        let sleep =
            self.sleep_due[island].peek().map(|&Reverse((due, _))| due).unwrap_or(u64::MAX);
        let wake = self.wake_due[island].front().map(|&(due, _)| due).unwrap_or(u64::MAX);
        sleep.min(wake)
    }

    /// Marks a router idle as of `now` (its island's domain cycle) and arms
    /// its sleep timer.
    #[inline]
    pub(crate) fn mark_idle(&mut self, node: usize, now: u64) {
        debug_assert!(!self.idle[node], "idle transition of an already idle router");
        self.idle[node] = true;
        self.idle_since[node] = now;
        self.arm(node, now);
    }

    /// (Re-)arms the sleep timer of an idle router.
    fn arm(&mut self, node: usize, idle_since: u64) {
        let island = self.island_of[node] as usize;
        let threshold = self.thresholds[island];
        if threshold != GATE_NEVER {
            self.sleep_due[island]
                .push(Reverse((idle_since.saturating_add(threshold), node as u32)));
        }
    }

    /// Records a flit arrival at `node`: clears the idle flag and aborts a
    /// pending DrainWait (no wakeup penalty — power-down had not begun).
    ///
    /// Must never be called for a fenced router: the fence exists precisely
    /// so that no flit reaches a gated or waking router.
    #[inline]
    pub(crate) fn on_flit_arrival(&mut self, node: usize) {
        debug_assert!(
            !self.states[node].is_fenced(),
            "a flit reached a fenced (gated/waking) router"
        );
        if self.states[node] == GateState::DrainWait {
            self.states[node] = GateState::Active;
        }
        self.idle[node] = false;
    }

    /// Raises a wakeup request towards `node` (neighbour flit demand or
    /// local source demand) at its island's domain cycle `now`. Idempotent:
    /// only the first request of a Gated span starts the wakeup, and only
    /// that one returns `true` — the router's window counters changed.
    #[inline]
    pub(crate) fn request_wakeup(&mut self, node: usize, now: u64) -> bool {
        if self.states[node] != GateState::Gated {
            return false;
        }
        let island = self.island_of[node] as usize;
        self.states[node] = GateState::WakeUp;
        self.win_wake_events[node] += 1;
        // The span ends: its share of this window is closed into the window
        // counter, and its window-relative start is what stays behind.
        let since = self.span_start(node);
        self.win_gated_cycles[node] += now - since;
        self.gated_since[node] = since;
        self.wake_due[island].push_back((now + self.wake_latency[island], node as u32));
        true
    }

    /// Completes due wakeups of one island (`now` = the island's domain
    /// cycle). Calls `source_unfenced` for every woken router whose local
    /// source had been fenced off the pending worklist, so the driver can
    /// restore it.
    pub(crate) fn complete_wakeups(
        &mut self,
        island: usize,
        now: u64,
        mut source_unfenced: impl FnMut(usize),
    ) {
        while let Some(&(due, node)) = self.wake_due[island].front() {
            if due > now {
                break;
            }
            self.wake_due[island].pop_front();
            let node = node as usize;
            debug_assert_eq!(self.states[node], GateState::WakeUp);
            self.states[node] = GateState::Active;
            self.fenced_count -= 1;
            if let Some(log) = self.transition_log.as_mut() {
                log.push((node as u32, false));
            }
            // A freshly woken router is empty, hence idle again; re-arm so a
            // spurious wakeup can put it back to sleep after the threshold.
            self.idle[node] = true;
            self.idle_since[node] = now;
            self.arm(node, now);
            if self.fenced_sources[node] {
                self.fenced_sources[node] = false;
                source_unfenced(node);
            }
        }
    }

    /// Pops due sleep timers of one island and moves still-idle routers into
    /// DrainWait. `source_pending(node)` lets the driver veto a power-down
    /// while the local source has queued flits (they would wake it right
    /// back up).
    pub(crate) fn start_drains(
        &mut self,
        island: usize,
        now: u64,
        mut source_pending: impl FnMut(usize) -> bool,
    ) {
        let threshold = self.thresholds[island];
        while let Some(&Reverse((due, node))) = self.sleep_due[island].peek() {
            if due > now {
                break;
            }
            self.sleep_due[island].pop();
            let n = node as usize;
            // Entries are hints: re-validate against the current state (the
            // router may have woken and re-idled, or the threshold changed).
            if self.states[n] != GateState::Active
                || !self.idle[n]
                || threshold == GATE_NEVER
                || now.saturating_sub(self.idle_since[n]) < threshold
                || source_pending(n)
            {
                continue;
            }
            self.states[n] = GateState::DrainWait;
            self.drain_wait.push(node);
        }
    }

    /// Walks the DrainWait population and gates every router whose inbound
    /// traffic has fully drained. The driver supplies `fires(island)`,
    /// `inbound_clear(node)` (incoming link + injection channels empty) and
    /// `source_pending(node)`, and hears of every router that gated through
    /// `gated(node)` (its window counters changed).
    pub(crate) fn complete_drains(
        &mut self,
        fires: impl Fn(usize) -> bool,
        inbound_clear: impl Fn(usize) -> bool,
        source_pending: impl Fn(usize) -> bool,
        island_cycle: impl Fn(usize) -> u64,
        mut gated: impl FnMut(usize),
    ) {
        if self.drain_wait.is_empty() {
            return;
        }
        let mut drain_wait = std::mem::take(&mut self.drain_wait);
        drain_wait.retain(|&node| {
            let n = node as usize;
            if self.states[n] != GateState::DrainWait {
                // Aborted by a flit arrival; already back to Active.
                return false;
            }
            let island = self.island_of[n] as usize;
            if !fires(island) {
                return true;
            }
            if !inbound_clear(n) || source_pending(n) {
                return true;
            }
            self.states[n] = GateState::Gated;
            self.gated_since[n] = island_cycle(island);
            self.win_sleep_events[n] += 1;
            self.fenced_count += 1;
            if let Some(log) = self.transition_log.as_mut() {
                log.push((node, true));
            }
            gated(n);
            false
        });
        self.drain_wait = drain_wait;
    }

    /// Changes one island's idle threshold and re-arms the sleep timers of
    /// its currently idle Active routers against the new value (stale heap
    /// entries are invalidated at pop time). `members` is the island's
    /// node bitmask (one `u64` per 64 nodes), walked in ascending node
    /// order — the order the timers were always pushed in.
    pub(crate) fn set_island_threshold(
        &mut self,
        island: usize,
        threshold: u64,
        now: u64,
        members: &[u64],
    ) {
        if self.thresholds[island] == threshold {
            return;
        }
        self.thresholds[island] = threshold;
        if !self.enabled || threshold == GATE_NEVER {
            return;
        }
        for (widx, &word) in members.iter().enumerate() {
            let mut w = word;
            while w != 0 {
                let node = (widx << 6) | w.trailing_zeros() as usize;
                w &= w - 1;
                if self.states[node] == GateState::Active && self.idle[node] {
                    let due = self.idle_since[node].saturating_add(threshold).max(now);
                    self.sleep_due[island].push(Reverse((due, node as u32)));
                }
            }
        }
    }

    /// Switches the telemetry transition log on or off. Turning it on starts
    /// an empty log; turning it off discards any pending entries.
    pub(crate) fn set_transition_log(&mut self, enabled: bool) {
        self.transition_log = if enabled { Some(Vec::new()) } else { None };
    }

    /// Drains the telemetry transition log (if installed), calling
    /// `f(node, to_sleep)` for each transition in occurrence order.
    pub(crate) fn drain_transition_log(&mut self, mut f: impl FnMut(u32, bool)) {
        if let Some(log) = self.transition_log.as_mut() {
            for (node, to_sleep) in log.drain(..) {
                f(node, to_sleep);
            }
        }
    }

    /// Where `node`'s open Gated span starts counting in the current
    /// activity window: its gating cycle, or the window's start if it was
    /// already gated then.
    #[inline]
    fn span_start(&self, node: usize) -> u64 {
        self.gated_since[node].max(self.window_start[self.island_of[node] as usize])
    }

    /// The domain cycles of the current activity window `node` has spent in
    /// its still open Gated span (0 unless it is Gated); `now` is its
    /// island's domain cycle.
    #[inline]
    pub(crate) fn open_gated_span(&self, node: usize, now: u64) -> u64 {
        if self.states[node] == GateState::Gated {
            now - self.span_start(node)
        } else {
            0
        }
    }

    /// Drains one router's gating window counters — gated domain cycles of
    /// the spans that ended in the window, sleep events, wake events. The
    /// open span is not among them: [`open_gated_span`](Self::open_gated_span)
    /// reads it, and restarting the window ends its share.
    pub(crate) fn drain_router_window(&mut self, node: usize) -> (u64, u64, u64) {
        (
            std::mem::take(&mut self.win_gated_cycles[node]),
            std::mem::take(&mut self.win_sleep_events[node]),
            std::mem::take(&mut self.win_wake_events[node]),
        )
    }

    /// Whether `node`'s gating window counters are all zero (what
    /// [`drain_router_window`](Self::drain_router_window) would return).
    pub(crate) fn window_is_empty(&self, node: usize) -> bool {
        self.win_gated_cycles[node] == 0
            && self.win_sleep_events[node] == 0
            && self.win_wake_events[node] == 0
    }

    /// Starts a new activity window at each island's current domain cycle.
    pub(crate) fn restart_window(&mut self, island_cycles: impl Iterator<Item = u64>) {
        for (start, cycle) in self.window_start.iter_mut().zip(island_cycles) {
            *start = cycle;
        }
    }
}

impl GatingController {
    /// Encodes the complete gating state for a checkpoint: the per-island
    /// idle thresholds (runtime-mutable, hence state), every router's gate
    /// machine, and the sleep/wake timers. The master switch, the wakeup
    /// latencies and the fenced-router count are written too — configuration
    /// and derived state, which [`load_state`](Self::load_state) reads only
    /// to compare. The node→island map is not written, and the activity
    /// window starts travel in the simulation's island section.
    ///
    /// The sleep-timer heaps are written as their sorted ascending contents:
    /// a heap's pop sequence is a function of the multiset of `(due, node)`
    /// entries alone, so rebuilding by pushing in sorted order reproduces the
    /// original pop-for-pop behaviour exactly.
    pub(crate) fn save_state(&self, w: &mut crate::snapshot::SnapWriter) {
        w.put_bool(self.enabled);
        for state in &self.states {
            w.put_u8(match state {
                GateState::Active => 0,
                GateState::DrainWait => 1,
                GateState::Gated => 2,
                GateState::WakeUp => 3,
            });
        }
        for idle in &self.idle {
            w.put_bool(*idle);
        }
        for since in &self.idle_since {
            w.put_u64(*since);
        }
        for threshold in &self.thresholds {
            w.put_u64(*threshold);
        }
        for latency in &self.wake_latency {
            w.put_u64(*latency);
        }
        for heap in &self.sleep_due {
            let mut entries: Vec<(u64, u32)> =
                heap.iter().map(|&Reverse((due, node))| (due, node)).collect();
            entries.sort_unstable();
            w.put_usize(entries.len());
            for (due, node) in entries {
                w.put_u64(due);
                w.put_u32(node);
            }
        }
        for fifo in &self.wake_due {
            w.put_usize(fifo.len());
            for (due, node) in fifo {
                w.put_u64(*due);
                w.put_u32(*node);
            }
        }
        w.put_usize(self.drain_wait.len());
        for node in &self.drain_wait {
            w.put_u32(*node);
        }
        w.put_usize(self.fenced_count);
        for fenced in &self.fenced_sources {
            w.put_bool(*fenced);
        }
        // A Gated router's span start as the window sees it: the value an
        // eager drain would have left in `gated_since`.
        for (node, since) in self.gated_since.iter().enumerate() {
            let gated = self.states[node] == GateState::Gated;
            w.put_u64(if gated { self.span_start(node) } else { *since });
        }
        for win in [&self.win_gated_cycles, &self.win_sleep_events, &self.win_wake_events] {
            for v in win {
                w.put_u64(*v);
            }
        }
    }

    /// Restores the gating state written by [`save_state`](Self::save_state)
    /// into a controller built from the same configuration.
    ///
    /// `island_cycle(island)` is the already restored domain clock of an island.
    ///
    /// The stored master switch and wakeup latencies must equal the
    /// controller's own (they are configuration), and the stored
    /// fenced-router count the number of fenced states just read — a count
    /// below the truth would switch the fence off and let flits into
    /// powered-down routers, one above it would underflow at the next
    /// wakeup. The waking routers and the wake timers must pair up one to
    /// one (a timer for a router that is not waking trips the wakeup phase, a
    /// waking router without one never wakes), a fenced source needs a fenced
    /// router, and a gated span cannot have begun in its island's future.
    pub(crate) fn load_state(
        &mut self,
        r: &mut crate::snapshot::SnapReader<'_>,
        island_cycle: impl Fn(usize) -> u64,
    ) -> Result<(), crate::snapshot::SnapshotError> {
        use crate::snapshot::SnapshotError;
        let n = self.states.len() as u32;
        if r.read_bool()? != self.enabled {
            return Err(SnapshotError::Corrupt("gating switch"));
        }
        for state in &mut self.states {
            *state = match r.read_u8()? {
                0 => GateState::Active,
                1 => GateState::DrainWait,
                2 => GateState::Gated,
                3 => GateState::WakeUp,
                _ => return Err(SnapshotError::Corrupt("gate state")),
            };
        }
        for idle in &mut self.idle {
            *idle = r.read_bool()?;
        }
        for since in &mut self.idle_since {
            *since = r.read_u64()?;
        }
        for threshold in &mut self.thresholds {
            *threshold = r.read_u64()?;
        }
        for latency in &self.wake_latency {
            if r.read_u64()? != *latency {
                return Err(SnapshotError::Corrupt("wake-up latency"));
            }
        }
        for heap in &mut self.sleep_due {
            heap.clear();
            let len = r.read_usize()?;
            for _ in 0..len {
                let due = r.read_u64()?;
                let node = r.read_u32()?;
                if node >= n {
                    return Err(SnapshotError::Corrupt("sleep-timer node"));
                }
                heap.push(Reverse((due, node)));
            }
        }
        let mut untimed: Vec<bool> = self.states.iter().map(|s| *s == GateState::WakeUp).collect();
        for fifo in &mut self.wake_due {
            fifo.clear();
            let len = r.read_usize()?;
            for _ in 0..len {
                let due = r.read_u64()?;
                let node = r.read_u32()?;
                if node >= n || !std::mem::take(&mut untimed[node as usize]) {
                    return Err(SnapshotError::Corrupt("wake-timer node"));
                }
                fifo.push_back((due, node));
            }
        }
        if untimed.contains(&true) {
            return Err(SnapshotError::Corrupt("waking router without a wake timer"));
        }
        self.drain_wait.clear();
        let drain_len = r.read_usize()?;
        for _ in 0..drain_len {
            let node = r.read_u32()?;
            if node >= n {
                return Err(SnapshotError::Corrupt("drain-wait node"));
            }
            self.drain_wait.push(node);
        }
        self.fenced_count = self.states.iter().filter(|s| s.is_fenced()).count();
        if r.read_usize()? != self.fenced_count {
            return Err(SnapshotError::Corrupt("fenced count"));
        }
        for (fenced, state) in self.fenced_sources.iter_mut().zip(&self.states) {
            *fenced = r.read_bool()?;
            if *fenced && !state.is_fenced() {
                return Err(SnapshotError::Corrupt("fenced source"));
            }
        }
        for (node, since) in self.gated_since.iter_mut().enumerate() {
            *since = r.read_u64()?;
            if self.states[node] == GateState::Gated
                && *since > island_cycle(self.island_of[node] as usize)
            {
                return Err(SnapshotError::Corrupt("gated-since cycle"));
            }
        }
        for win in
            [&mut self.win_gated_cycles, &mut self.win_sleep_events, &mut self.win_wake_events]
        {
            for v in win.iter_mut() {
                *v = r.read_u64()?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::region::RegionLayout;

    #[test]
    fn disabled_config_is_the_default() {
        assert_eq!(GatingConfig::default(), GatingConfig::disabled());
        assert!(!GatingConfig::default().is_enabled());
    }

    #[test]
    fn enabled_config_clamps_wakeup_latency() {
        let g = GatingConfig::enabled(10, 0);
        assert_eq!(g.wakeup_latency(), 1);
        let g = GatingConfig::enabled(10, u64::MAX);
        assert_eq!(g.wakeup_latency(), MAX_CHANNEL_LATENCY);
    }

    #[test]
    fn fenced_states_are_gated_and_wakeup() {
        assert!(!GateState::Active.is_fenced());
        assert!(!GateState::DrainWait.is_fenced());
        assert!(GateState::Gated.is_fenced());
        assert!(GateState::WakeUp.is_fenced());
    }

    #[test]
    fn controller_walks_the_state_machine() {
        let map = RegionLayout::Whole.build(2, 2);
        let mut c = GatingController::new(&GatingConfig::enabled(3, 2), &map);
        assert!(c.enabled);
        // All four routers idle from cycle 0; due at cycle 3.
        c.start_drains(0, 2, |_| false);
        assert!(c.drain_wait.is_empty());
        c.start_drains(0, 3, |_| false);
        assert_eq!(c.drain_wait.len(), 4);
        assert_eq!(c.states[0], GateState::DrainWait);
        // Inbound clear on every node: all gate.
        let mut gated_nodes = Vec::new();
        c.complete_drains(|_| true, |_| true, |_| false, |_| 3, |n| gated_nodes.push(n));
        assert_eq!(gated_nodes, vec![0, 1, 2, 3]);
        assert_eq!(c.gated_count(), 4);
        assert_eq!(c.fenced_count, 4);
        // Wake node 2 at cycle 10; due at 12.
        assert!(c.request_wakeup(2, 10));
        assert_eq!(c.states[2], GateState::WakeUp);
        assert_eq!(c.gated_count(), 3, "a waking router is fenced but not gated");
        assert!(!c.request_wakeup(2, 10), "idempotent");
        c.fenced_sources[2] = true;
        let mut unfenced = Vec::new();
        c.complete_wakeups(0, 11, |n| unfenced.push(n));
        assert!(unfenced.is_empty());
        c.complete_wakeups(0, 12, |n| unfenced.push(n));
        assert_eq!(unfenced, vec![2], "the fenced source is handed back at wakeup");
        assert!(!c.fenced_sources[2]);
        assert_eq!(c.states[2], GateState::Active);
        assert!(c.idle[2], "a woken router is empty, hence idle again");
        assert_eq!(c.open_gated_span(2, 12), 0);
        let (gated, sleeps, wakes) = c.drain_router_window(2);
        assert_eq!(gated, 10 - 3);
        assert_eq!(sleeps, 1);
        assert_eq!(wakes, 1);
    }

    #[test]
    fn an_open_gated_span_starts_at_the_later_of_its_gating_and_the_window() {
        let map = RegionLayout::Whole.build(2, 2);
        let mut c = GatingController::new(&GatingConfig::enabled(3, 2), &map);
        c.start_drains(0, 3, |_| false);
        c.complete_drains(|_| true, |_| true, |_| false, |_| 3, |_| {});
        assert_eq!(c.open_gated_span(1, 8), 8 - 3);
        // A window edge at 6 touches no gated router, yet restarts its span.
        c.restart_window(std::iter::once(6));
        assert_eq!(c.open_gated_span(1, 8), 8 - 6);
        assert!(c.request_wakeup(1, 10));
        assert_eq!(c.drain_router_window(1), (10 - 6, 1, 1));
        assert_eq!(c.gated_since[1], 6, "the span's window-relative start stays behind");
        assert_eq!(c.gated_since[0], 3, "a span still open keeps its gating cycle");
    }

    #[test]
    fn arrival_aborts_drain_wait_without_a_wake_event() {
        let map = RegionLayout::Whole.build(2, 2);
        let mut c = GatingController::new(&GatingConfig::enabled(1, 4), &map);
        c.start_drains(0, 1, |_| false);
        assert_eq!(c.states[0], GateState::DrainWait);
        c.on_flit_arrival(0);
        assert_eq!(c.states[0], GateState::Active);
        assert!(!c.idle[0]);
        c.complete_drains(|_| true, |_| true, |_| false, |_| 1, |_| {});
        assert_eq!(c.states[0], GateState::Active, "the arrival aborted node 0's power-down");
        assert_eq!(c.gated_count(), 3, "the untouched routers gate normally");
        assert_eq!(c.open_gated_span(0, 5), 0);
        assert_eq!(c.drain_router_window(0), (0, 0, 0));
    }
}
