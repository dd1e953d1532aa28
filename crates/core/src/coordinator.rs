//! Crash-tolerant sweep coordination: shard a grid into per-point work
//! units, journal every completed point, and survive worker panics, hangs
//! and process kills without losing (or recomputing) finished work.
//!
//! The experiment layer's sweeps ([`crate::sweep`], [`crate::scenario`]) are
//! embarrassingly parallel but fragile as a *process*: a panic in one
//! operating point, a wedged simulation, or an external kill throws away
//! every point computed so far. This module adds the missing fabric:
//!
//! * **Sharding** — [`shard_policy_grid`] flattens a `(policy × load)` grid
//!   into [`WorkUnit`]s with deterministic string keys, so a point's
//!   identity is stable across runs and processes.
//! * **Journaling** — every completed point is appended to a results
//!   journal (JSON lines, one object per line) through an atomic
//!   write-temp-then-rename, so the file on disk is *always* a valid
//!   prefix of the sweep: a kill mid-write cannot corrupt finished work.
//! * **Resume** — [`run_sweep`] reloads the journal on start and re-runs
//!   only the missing points. Long points can warm-start from their latest
//!   mid-run checkpoint ([`PointContext::save_checkpoint`] /
//!   [`PointContext::load_checkpoint`]), which is bit-identity-safe when
//!   the checkpoint bytes come from [`noc_sim`]'s snapshot subsystem.
//! * **Self-healing** — each attempt runs on its own thread behind a
//!   watchdog timeout; a panicked, erroring or stuck point is retried with
//!   bounded exponential backoff while the rest of the grid completes.
//! * **Chaos testing** — [`ChaosConfig`] deterministically kills worker
//!   attempts mid-point (at a [`PointContext::checkpoint_tick`] call), so a
//!   test can prove the sweep converges to the bit-identical uninterrupted
//!   result under fire.
//!
//! Results travel through the journal as caller-encoded strings (see
//! [`encode_operating_point`]); "bit-identical" for a resumed or
//! chaos-ridden sweep therefore means *string equality* of the merged
//! artifact, with floats encoded via their exact bit patterns.

use crate::closed_loop::OperatingPointResult;
use crate::parallel::worker_threads;
use crate::policy::PolicyKind;
use noc_sim::{write_atomic, TelemetryEvent, TraceEmitter};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// One schedulable point of a sweep grid.
#[derive(Debug, Clone)]
pub struct WorkUnit {
    /// Deterministic identity of the point — the journal key. Stable across
    /// runs and processes for the same grid.
    pub key: String,
    /// The DVFS policy of this point.
    pub policy: PolicyKind,
    /// The load parameter of this point.
    pub load: f64,
    /// The simulation seed of this point.
    pub seed: u64,
}

impl WorkUnit {
    /// Builds a unit with the canonical key
    /// `"<prefix>/<policy>@<load-bits>#<seed>"`. The load enters the key as
    /// its exact bit pattern, so two grid points differing in the last ulp
    /// still get distinct keys.
    pub fn new(prefix: &str, policy: PolicyKind, load: f64, seed: u64) -> Self {
        let key = format!("{prefix}/{}@{:016x}#{seed}", policy.name(), load.to_bits());
        WorkUnit { key, policy, load, seed }
    }
}

/// Flattens a `(policy × load)` grid into work units in policy-major order —
/// the same order [`crate::sweep::sweep_policies`] computes points in.
pub fn shard_policy_grid(
    prefix: &str,
    policies: &[PolicyKind],
    loads: &[f64],
    seed: u64,
) -> Vec<WorkUnit> {
    policies
        .iter()
        .flat_map(|p| loads.iter().map(move |&load| WorkUnit::new(prefix, p.clone(), load, seed)))
        .collect()
}

/// Deterministic chaos injection: kill a fraction of worker attempts
/// mid-point to exercise the retry/resume fabric.
#[derive(Debug, Clone, Copy)]
pub struct ChaosConfig {
    /// Probability (0..=1) that any given attempt is killed. Kills are a
    /// deterministic function of `(key, attempt, seed)`, and the final
    /// permitted attempt of a point is never killed, so a chaos sweep
    /// always converges.
    pub kill_probability: f64,
    /// Seed of the kill pattern.
    pub seed: u64,
}

/// Tuning of the self-healing executor.
#[derive(Debug, Clone)]
pub struct CoordinatorConfig {
    /// Per-attempt watchdog: an attempt that neither finishes nor fails
    /// within this budget is declared stuck and retried. (The stuck thread
    /// is abandoned; its checkpoint writes remain atomic, so a later retry
    /// still only ever sees complete checkpoints.)
    pub watchdog: Duration,
    /// Retries after the first attempt (`2` means up to three attempts).
    pub max_retries: u32,
    /// First retry delay; doubles per retry.
    pub backoff_base: Duration,
    /// Upper bound on the retry delay.
    pub backoff_cap: Duration,
    /// Worker threads (`None`: [`worker_threads`]).
    pub workers: Option<usize>,
    /// Chaos test mode, off by default.
    pub chaos: Option<ChaosConfig>,
}

impl Default for CoordinatorConfig {
    fn default() -> Self {
        CoordinatorConfig {
            watchdog: Duration::from_secs(300),
            max_retries: 3,
            backoff_base: Duration::from_millis(50),
            backoff_cap: Duration::from_secs(5),
            workers: None,
            chaos: None,
        }
    }
}

impl CoordinatorConfig {
    /// A configuration suitable for tests: short watchdog, near-zero
    /// backoff.
    pub fn quick() -> Self {
        CoordinatorConfig {
            watchdog: Duration::from_secs(30),
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(8),
            ..CoordinatorConfig::default()
        }
    }

    /// The same configuration with chaos mode enabled.
    pub fn with_chaos(mut self, chaos: ChaosConfig) -> Self {
        self.chaos = Some(chaos);
        self
    }
}

/// Why a point ultimately failed (after exhausting its retries).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PointFailure {
    /// The journal key of the failed point.
    pub key: String,
    /// Attempts performed (first try + retries).
    pub attempts: u32,
    /// The last attempt's error: a runner error message, a rendered panic
    /// payload, or `"watchdog timeout"`.
    pub last_error: String,
}

/// The per-attempt context handed to a point runner: checkpoint storage and
/// the chaos kill hook.
#[derive(Debug)]
pub struct PointContext {
    checkpoint_path: PathBuf,
    /// Chaos: panic when `ticks` reaches this value (`None`: never).
    kill_at_tick: Option<u64>,
    ticks: u64,
}

impl PointContext {
    /// The latest complete checkpoint saved by a previous attempt of this
    /// point, if any — warm-start material for a long point. Checkpoint
    /// writes are atomic, so this is never a torn file.
    pub fn load_checkpoint(&self) -> Option<Vec<u8>> {
        std::fs::read(&self.checkpoint_path).ok()
    }

    /// Atomically replaces this point's checkpoint (write temp, rename).
    /// Also counts as a [`checkpoint_tick`](Self::checkpoint_tick).
    pub fn save_checkpoint(&mut self, bytes: &[u8]) {
        // Best-effort: a failed checkpoint write only costs warm-start
        // potential, never correctness — the journal is the source of truth.
        let _ = write_atomic(&self.checkpoint_path, bytes);
        self.checkpoint_tick();
    }

    /// The chaos kill point: under [`ChaosConfig`], a condemned attempt
    /// panics at a deterministic tick. Runners that want to be killable
    /// mid-point (rather than only at the end) call this between work
    /// chunks; [`save_checkpoint`](Self::save_checkpoint) calls it
    /// implicitly so checkpointing runners are killable for free.
    ///
    /// # Panics
    ///
    /// Panics when this attempt's chaos kill is due — that is the feature.
    pub fn checkpoint_tick(&mut self) {
        self.ticks += 1;
        if self.kill_at_tick.is_some_and(|at| self.ticks >= at) {
            // Disarm first so a panic-handler re-entry cannot double-kill.
            self.kill_at_tick = None;
            panic!("chaos kill (tick {})", self.ticks);
        }
    }
}

/// A point runner: computes one work unit into its journal-encoded result
/// string, with access to checkpoint storage. Must be a pure function of
/// the unit (plus its own captured configuration) so retries and resumed
/// runs reproduce identical results.
pub type PointRunner =
    dyn Fn(&WorkUnit, &mut PointContext) -> Result<String, String> + Send + Sync;

/// Outcome of a coordinated sweep.
#[derive(Debug)]
pub struct SweepReport {
    /// `(key, encoded result)` for every unit, in input order, for units
    /// that completed (this run or a previous one).
    pub results: Vec<(String, String)>,
    /// Points that exhausted their retries — the grid completed around
    /// them; re-running the same sweep retries exactly these.
    pub failures: Vec<PointFailure>,
    /// Units satisfied from the journal without running.
    pub resumed: usize,
    /// Attempts beyond the first, summed over all points.
    pub retries: u64,
    /// Progress / fault counters of this run (also written to
    /// `<journal>.profile.json` next to the results journal).
    pub profile: SweepProfile,
    /// Per-point execution trace (start / retry / complete events,
    /// timestamps in microseconds since the sweep started) — exportable as
    /// a Perfetto timeline via [`TraceEmitter::write_perfetto`] with worker
    /// ids as tracks.
    pub trace: TraceEmitter,
}

/// Progress and fault counters of one [`run_sweep`] call.
///
/// Pure observability: the counters never influence scheduling, retries or
/// results. They are written alongside the results journal (as
/// `<journal>.profile.json`, atomically, best-effort) so a monitoring loop
/// tailing a long sweep — or a postmortem of a crashed one — can see how
/// the run behaved without parsing worker logs.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct SweepProfile {
    /// Grid size handed to [`run_sweep`].
    pub points_total: u64,
    /// Points holding a result when the run ended (journaled + fresh).
    pub completed: u64,
    /// Points satisfied from the journal without running.
    pub resumed: u64,
    /// Attempts beyond the first, summed over all points.
    pub retries: u64,
    /// Attempts reaped by the per-attempt watchdog.
    pub watchdog_timeouts: u64,
    /// Attempts condemned by [`ChaosConfig`] (every condemned attempt
    /// fails, at its kill tick or at the pre-append crash window).
    pub chaos_kills: u64,
    /// Points that exhausted their retries.
    pub failed: u64,
    /// Wall time of the run in microseconds.
    pub wall_micros: u64,
}

impl SweepProfile {
    /// Renders the profile as a single JSON object (the
    /// `<journal>.profile.json` artifact).
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"points_total\": {}, \"completed\": {}, \"resumed\": {}, ",
                "\"retries\": {}, \"watchdog_timeouts\": {}, \"chaos_kills\": {}, ",
                "\"failed\": {}, \"wall_micros\": {}}}"
            ),
            self.points_total,
            self.completed,
            self.resumed,
            self.retries,
            self.watchdog_timeouts,
            self.chaos_kills,
            self.failed,
            self.wall_micros,
        )
    }
}

/// Shared observer state of one sweep run: the event trace plus the fault
/// counters, all append-only — workers never read it, so it cannot steer
/// the sweep.
#[derive(Debug)]
struct SweepObserver {
    started: Instant,
    trace: Mutex<TraceEmitter>,
    retries: AtomicU64,
    watchdog_timeouts: AtomicU64,
    chaos_kills: AtomicU64,
}

impl SweepObserver {
    fn new(capacity: usize) -> Self {
        SweepObserver {
            started: Instant::now(),
            trace: Mutex::new(TraceEmitter::new(capacity)),
            retries: AtomicU64::new(0),
            watchdog_timeouts: AtomicU64::new(0),
            chaos_kills: AtomicU64::new(0),
        }
    }

    /// Emits one event stamped with microseconds since the sweep started.
    fn emit(&self, event: TelemetryEvent) {
        let ts = self.started.elapsed().as_micros() as u64;
        self.trace.lock().expect("trace lock").emit(ts, event);
    }
}

/// Errors of the coordination fabric itself (not of individual points —
/// those surface as [`PointFailure`]s in the report).
#[derive(Debug)]
pub enum CoordinatorError {
    /// Reading or writing the journal failed.
    Io(std::io::Error),
}

impl std::fmt::Display for CoordinatorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoordinatorError::Io(e) => write!(f, "journal I/O failed: {e}"),
        }
    }
}

impl std::error::Error for CoordinatorError {}

impl From<std::io::Error> for CoordinatorError {
    fn from(e: std::io::Error) -> Self {
        CoordinatorError::Io(e)
    }
}

/// Runs every unit of the grid through `runner`, journaling each completed
/// point to `journal_path` and resuming from whatever the journal already
/// holds. See the [module docs](self) for the fault model.
///
/// Returns the merged results (journaled + freshly computed) in input-unit
/// order; points that exhausted their retries are reported as
/// [`SweepReport::failures`] and stay missing from the journal, so a later
/// run retries exactly those.
pub fn run_sweep(
    units: &[WorkUnit],
    runner: Arc<PointRunner>,
    journal_path: &Path,
    cfg: &CoordinatorConfig,
) -> Result<SweepReport, CoordinatorError> {
    let journal = Journal::load(journal_path)?;
    let todo: Vec<usize> =
        (0..units.len()).filter(|&i| !journal.entries.contains_key(&units[i].key)).collect();
    let resumed = units.len() - todo.len();

    let journal = Mutex::new(journal);
    let failures = Mutex::new(Vec::new());
    let observer = SweepObserver::new((units.len() * 4).max(64));
    let cursor = AtomicUsize::new(0);
    let workers = cfg.workers.unwrap_or_else(worker_threads).min(todo.len().max(1));

    std::thread::scope(|scope| {
        for w in 0..workers {
            let (cursor, todo, journal, failures, observer, runner) =
                (&cursor, &todo, &journal, &failures, &observer, &runner);
            scope.spawn(move || loop {
                let slot = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(&index) = todo.get(slot) else { break };
                let unit = &units[index];
                let worker = w as u32;
                observer.emit(TelemetryEvent::SweepPointStart { key: unit.key.clone(), worker });
                let outcome = run_point(unit, runner, journal_path, cfg, observer);
                let ok = outcome.is_ok();
                match outcome {
                    Ok(value) => {
                        let mut journal = journal.lock().expect("journal lock");
                        // Ignore a racing duplicate (cannot happen with
                        // distinct keys, but double-append must not corrupt).
                        if !journal.entries.contains_key(&unit.key) {
                            if let Err(e) = journal.append(journal_path, &unit.key, &value) {
                                drop(journal);
                                failures.lock().expect("failure lock").push(PointFailure {
                                    key: unit.key.clone(),
                                    attempts: cfg.max_retries + 1,
                                    last_error: format!("journal append failed: {e}"),
                                });
                                observer.emit(TelemetryEvent::SweepPointComplete {
                                    key: unit.key.clone(),
                                    worker,
                                    ok: false,
                                });
                                continue;
                            }
                        }
                    }
                    Err(failure) => {
                        failures.lock().expect("failure lock").push(failure);
                    }
                }
                observer.emit(TelemetryEvent::SweepPointComplete {
                    key: unit.key.clone(),
                    worker,
                    ok,
                });
            });
        }
    });

    let journal = journal.into_inner().expect("all workers joined");
    let mut failures = failures.into_inner().expect("all workers joined");
    failures.sort_by(|a, b| a.key.cmp(&b.key));
    let results: Vec<(String, String)> = units
        .iter()
        .filter_map(|u| journal.entries.get(&u.key).map(|v| (u.key.clone(), v.clone())))
        .collect();
    let retries = observer.retries.load(Ordering::Relaxed);
    let profile = SweepProfile {
        points_total: units.len() as u64,
        completed: results.len() as u64,
        resumed: resumed as u64,
        retries,
        watchdog_timeouts: observer.watchdog_timeouts.load(Ordering::Relaxed),
        chaos_kills: observer.chaos_kills.load(Ordering::Relaxed),
        failed: failures.len() as u64,
        wall_micros: observer.started.elapsed().as_micros() as u64,
    };
    // Best-effort observability artifact next to the journal; the journal
    // itself stays the sole source of truth for resume.
    let _ = write_atomic(&profile_path(journal_path), profile.to_json().as_bytes());
    let trace = observer.trace.into_inner().expect("all workers joined");
    Ok(SweepReport { results, failures, resumed, retries, profile, trace })
}

/// The profile artifact of a sweep: `<journal file name>.profile.json`,
/// next to the journal.
pub fn profile_path(journal_path: &Path) -> PathBuf {
    let mut name = journal_path.file_name().unwrap_or_default().to_os_string();
    name.push(".profile.json");
    journal_path.with_file_name(name)
}

/// Runs one unit through its attempt/backoff loop. `Ok` carries the encoded
/// result; `Err` means the retries are exhausted.
fn run_point(
    unit: &WorkUnit,
    runner: &Arc<PointRunner>,
    journal_path: &Path,
    cfg: &CoordinatorConfig,
    observer: &SweepObserver,
) -> Result<String, PointFailure> {
    let checkpoint_path = checkpoint_path(journal_path, &unit.key);
    let max_attempts = cfg.max_retries + 1;
    let mut last_error = String::new();
    for attempt in 0..max_attempts {
        if attempt > 0 {
            observer.retries.fetch_add(1, Ordering::Relaxed);
            observer.emit(TelemetryEvent::SweepPointRetry { key: unit.key.clone(), attempt });
            let factor = 1u32 << attempt.saturating_sub(1).min(16);
            std::thread::sleep((cfg.backoff_base * factor).min(cfg.backoff_cap));
        }
        let kill_at_tick = cfg
            .chaos
            .filter(|_| attempt + 1 < max_attempts) // the last attempt always survives
            .and_then(|chaos| chaos_kill_tick(&chaos, &unit.key, attempt));
        if kill_at_tick.is_some() {
            // Every condemned attempt dies (at its tick, or at the
            // pre-append window), so condemnations count as kills.
            observer.chaos_kills.fetch_add(1, Ordering::Relaxed);
        }
        match run_attempt(unit, runner, checkpoint_path.clone(), kill_at_tick, cfg.watchdog) {
            Ok(value) => {
                let _ = std::fs::remove_file(&checkpoint_path);
                return Ok(value);
            }
            Err(e) => {
                if e == "watchdog timeout" {
                    observer.watchdog_timeouts.fetch_add(1, Ordering::Relaxed);
                }
                last_error = e;
            }
        }
    }
    let _ = std::fs::remove_file(&checkpoint_path);
    Err(PointFailure { key: unit.key.clone(), attempts: max_attempts, last_error })
}

/// Executes one attempt on a dedicated thread behind the watchdog. The
/// attempt thread owns clones of the unit and runner, so on timeout it can
/// be abandoned without unsoundness; it only ever touches its own
/// checkpoint file, atomically.
fn run_attempt(
    unit: &WorkUnit,
    runner: &Arc<PointRunner>,
    checkpoint_path: PathBuf,
    kill_at_tick: Option<u64>,
    watchdog: Duration,
) -> Result<String, String> {
    let (tx, rx) = mpsc::channel::<Result<String, String>>();
    let unit = unit.clone();
    let runner = Arc::clone(runner);
    let builder = std::thread::Builder::new().name(format!("sweep-point-{}", unit.seed));
    let spawned = builder.spawn(move || {
        let mut context = PointContext { checkpoint_path, kill_at_tick, ticks: 0 };
        let mut outcome =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| runner(&unit, &mut context)))
                .unwrap_or_else(|payload| Err(render_panic(&*payload)));
        // A chaos kill whose tick the runner never reached (too few
        // checkpoints) strikes here instead: the worker "dies" after
        // computing the point but before the journal append — the other
        // classic crash window.
        if outcome.is_ok() && context.kill_at_tick.is_some() {
            outcome = Err("chaos kill (before journal append)".to_string());
        }
        // The receiver may have timed out and gone away; nothing to do then.
        let _ = tx.send(outcome);
    });
    match spawned {
        Ok(_join) => match rx.recv_timeout(watchdog) {
            Ok(outcome) => outcome,
            Err(_) => Err("watchdog timeout".to_string()),
        },
        Err(e) => Err(format!("could not spawn attempt thread: {e}")),
    }
}

/// Renders a panic payload into a journal-safe message.
fn render_panic(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("panic: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("panic: {s}")
    } else {
        "panic: <non-string payload>".to_string()
    }
}

/// The deterministic chaos decision for `(key, attempt)`: `Some(tick)` to
/// kill at that [`PointContext::checkpoint_tick`], `None` to let the
/// attempt run. Tick numbers start at 1; a kill tick of 1 fires at the
/// first checkpoint, simulating a crash early in the point.
fn chaos_kill_tick(chaos: &ChaosConfig, key: &str, attempt: u32) -> Option<u64> {
    if chaos.kill_probability <= 0.0 {
        return None;
    }
    let mut h = fnv(chaos.seed, key.as_bytes());
    h = fnv(h, &attempt.to_le_bytes());
    // Map the hash to [0, 1) and compare against the kill probability.
    let draw = (h >> 11) as f64 / (1u64 << 53) as f64;
    if draw < chaos.kill_probability.min(1.0) {
        Some(1 + (h % 4))
    } else {
        None
    }
}

fn fnv(mut hash: u64, bytes: &[u8]) -> u64 {
    if hash == 0 {
        hash = 0xCBF2_9CE4_8422_2325;
    }
    for b in bytes {
        hash ^= u64::from(*b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// Checkpoint file of one point, next to the journal, keyed by the FNV of
/// the point key (keys contain `/` and are unbounded; file names are not).
fn checkpoint_path(journal_path: &Path, key: &str) -> PathBuf {
    let mut name = journal_path.file_name().unwrap_or_default().to_os_string();
    name.push(format!(".ckpt-{:016x}", fnv(0, key.as_bytes())));
    journal_path.with_file_name(name)
}

// ---------------------------------------------------------------------------
// The results journal
// ---------------------------------------------------------------------------

/// The on-disk journal: JSON lines, one `{"key": …, "value": …}` object per
/// completed point. Appends go through [`write_atomic`], so the journal can
/// never hold a torn line; [`Journal::load`] additionally tolerates one (a
/// journal written by a non-atomic writer that crashed mid-append) by
/// ignoring an unparseable final line.
#[derive(Debug, Default)]
struct Journal {
    entries: BTreeMap<String, String>,
}

impl Journal {
    fn load(path: &Path) -> Result<Self, CoordinatorError> {
        let mut journal = Journal::default();
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(journal),
            Err(e) => return Err(e.into()),
        };
        let lines: Vec<&str> = text.lines().collect();
        for (i, line) in lines.iter().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            match parse_entry(line) {
                Some((key, value)) => {
                    journal.entries.insert(key, value);
                }
                None if i + 1 == lines.len() => {
                    // A torn final line: the previous process died mid-append.
                    // Everything before it is intact — resume from there.
                }
                None => {
                    return Err(CoordinatorError::Io(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        format!("journal line {} is corrupt", i + 1),
                    )));
                }
            }
        }
        Ok(journal)
    }

    /// Appends one completed point and atomically replaces the journal file.
    fn append(&mut self, path: &Path, key: &str, value: &str) -> std::io::Result<()> {
        self.entries.insert(key.to_string(), value.to_string());
        let mut text = String::new();
        for (k, v) in &self.entries {
            text.push_str(&render_entry(k, v));
            text.push('\n');
        }
        write_atomic(path, text.as_bytes())
    }
}

fn render_entry(key: &str, value: &str) -> String {
    format!("{{\"key\":\"{}\",\"value\":\"{}\"}}", escape_json(key), escape_json(value))
}

fn parse_entry(line: &str) -> Option<(String, String)> {
    let rest = line.trim().strip_prefix("{\"key\":\"")?;
    let (key, rest) = split_json_string(rest)?;
    let rest = rest.strip_prefix(",\"value\":\"")?;
    let (value, rest) = split_json_string(rest)?;
    rest.strip_prefix('}').filter(|r| r.is_empty())?;
    Some((key, value))
}

/// Splits a JSON string body at its closing unescaped quote, unescaping it;
/// returns `(content, remainder-after-quote)`.
fn split_json_string(s: &str) -> Option<(String, &str)> {
    let mut out = String::new();
    let mut chars = s.char_indices();
    while let Some((i, c)) = chars.next() {
        match c {
            '"' => return Some((out, &s[i + 1..])),
            '\\' => match chars.next()?.1 {
                '"' => out.push('"'),
                '\\' => out.push('\\'),
                'n' => out.push('\n'),
                'r' => out.push('\r'),
                't' => out.push('\t'),
                'u' => {
                    let mut code = 0u32;
                    for _ in 0..4 {
                        code = code * 16 + chars.next()?.1.to_digit(16)?;
                    }
                    out.push(char::from_u32(code)?);
                }
                _ => return None,
            },
            _ => out.push(c),
        }
    }
    None
}

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Operating-point result codec (exact, journal-string form)
// ---------------------------------------------------------------------------

/// Encodes an operating point for the journal. Floats are written as their
/// exact bit patterns, so `decode(encode(x)) == x` bit for bit and the
/// "chaos sweep equals uninterrupted sweep" comparison can be plain string
/// equality.
pub fn encode_operating_point(r: &OperatingPointResult) -> String {
    format!(
        "op1|{}|{:016x}|{:016x}|{:016x}|{:016x}|{:016x}|{:016x}|{:016x}|{:016x}|{:016x}|{:016x}|{:016x}|{}|{:016x}|{}|{:016x}",
        escape_field(&r.policy),
        r.offered_load.to_bits(),
        r.measured_rate.to_bits(),
        r.avg_latency_cycles.to_bits(),
        r.avg_delay_ns.to_bits(),
        r.max_delay_ns.to_bits(),
        r.power_mw.to_bits(),
        r.dynamic_power_mw.to_bits(),
        r.static_power_mw.to_bits(),
        r.avg_frequency_ghz.to_bits(),
        r.avg_vdd.to_bits(),
        r.throughput.to_bits(),
        r.packets_delivered,
        r.measurement_wall_ns.to_bits(),
        r.flits_dropped,
        r.reachability.to_bits(),
    )
}

/// Decodes a journal string written by [`encode_operating_point`]; `None`
/// for anything malformed.
pub fn decode_operating_point(s: &str) -> Option<OperatingPointResult> {
    let mut parts = s.split('|');
    if parts.next()? != "op1" {
        return None;
    }
    let policy = unescape_field(parts.next()?);
    let mut f = || -> Option<f64> { Some(f64::from_bits(u64::from_str_radix(parts.next()?, 16).ok()?)) };
    let offered_load = f()?;
    let measured_rate = f()?;
    let avg_latency_cycles = f()?;
    let avg_delay_ns = f()?;
    let max_delay_ns = f()?;
    let power_mw = f()?;
    let dynamic_power_mw = f()?;
    let static_power_mw = f()?;
    let avg_frequency_ghz = f()?;
    let avg_vdd = f()?;
    let throughput = f()?;
    let packets_delivered = parts.next()?.parse().ok()?;
    let measurement_wall_ns = f64::from_bits(u64::from_str_radix(parts.next()?, 16).ok()?);
    let flits_dropped = parts.next()?.parse().ok()?;
    let reachability = f64::from_bits(u64::from_str_radix(parts.next()?, 16).ok()?);
    if parts.next().is_some() {
        return None;
    }
    Some(OperatingPointResult {
        policy,
        offered_load,
        measured_rate,
        avg_latency_cycles,
        avg_delay_ns,
        max_delay_ns,
        power_mw,
        dynamic_power_mw,
        static_power_mw,
        avg_frequency_ghz,
        avg_vdd,
        throughput,
        packets_delivered,
        measurement_wall_ns,
        flits_dropped,
        reachability,
    })
}

fn escape_field(s: &str) -> String {
    s.replace('\\', "\\\\").replace('|', "\\p")
}

fn unescape_field(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('p') => out.push('|'),
                Some('\\') => out.push('\\'),
                Some(other) => out.push(other),
                None => {}
            }
        } else {
            out.push(c);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    /// A unique temp directory per test, cleaned up on drop.
    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> Self {
            let dir = std::env::temp_dir()
                .join(format!("noc-coordinator-{tag}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).expect("temp dir");
            TempDir(dir)
        }
        fn path(&self, name: &str) -> PathBuf {
            self.0.join(name)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn units(n: usize) -> Vec<WorkUnit> {
        (0..n)
            .map(|i| WorkUnit::new("test", PolicyKind::NoDvfs, i as f64 * 0.01, 42))
            .collect()
    }

    /// A cheap deterministic runner: the "result" is a pure function of the
    /// unit.
    fn echo_runner() -> Arc<PointRunner> {
        Arc::new(|unit: &WorkUnit, ctx: &mut PointContext| {
            ctx.checkpoint_tick();
            Ok(format!("value-of-{}", unit.key))
        })
    }

    #[test]
    fn keys_are_distinct_and_stable() {
        let grid = shard_policy_grid("g", &[PolicyKind::NoDvfs], &[0.1, 0.2, 0.1 + 1e-18], 7);
        assert_eq!(grid.len(), 3);
        assert_ne!(grid[0].key, grid[1].key);
        // 0.1 + 1e-18 rounds to 0.1 in f64 — identical bits, identical key.
        assert_eq!(grid[0].key, grid[2].key);
        let again = shard_policy_grid("g", &[PolicyKind::NoDvfs], &[0.1, 0.2, 0.1 + 1e-18], 7);
        assert_eq!(grid[1].key, again[1].key);
    }

    #[test]
    fn sweep_completes_and_journals_every_point() {
        let dir = TempDir::new("basic");
        let journal = dir.path("journal.jsonl");
        let grid = units(9);
        let report =
            run_sweep(&grid, echo_runner(), &journal, &CoordinatorConfig::quick()).unwrap();
        assert_eq!(report.results.len(), 9);
        assert!(report.failures.is_empty());
        assert_eq!(report.resumed, 0);
        for (unit, (key, value)) in grid.iter().zip(&report.results) {
            assert_eq!(key, &unit.key);
            assert_eq!(value, &format!("value-of-{}", unit.key));
        }
        // The journal round-trips: a second run re-computes nothing.
        let calls = AtomicU32::new(0);
        let counting: Arc<PointRunner> = {
            let calls = &calls;
            // Scoped borrow is not 'static; emulate by a fresh runner that
            // would produce *different* values — resume must not call it.
            let _ = calls;
            Arc::new(|_: &WorkUnit, _: &mut PointContext| Ok("WRONG".to_string()))
        };
        let resumed = run_sweep(&grid, counting, &journal, &CoordinatorConfig::quick()).unwrap();
        assert_eq!(resumed.resumed, 9);
        assert_eq!(resumed.results, report.results, "resume must not recompute");
    }

    #[test]
    fn panics_are_contained_and_retried() {
        let dir = TempDir::new("panic");
        let journal = dir.path("journal.jsonl");
        let grid = units(6);
        // Panic on the first attempt of every odd point; succeed afterwards.
        let attempts = Arc::new(Mutex::new(BTreeMap::<String, u32>::new()));
        let runner: Arc<PointRunner> = {
            let attempts = Arc::clone(&attempts);
            Arc::new(move |unit: &WorkUnit, _: &mut PointContext| {
                let n = {
                    // Scope the lock: panicking while holding it would poison
                    // the map for every later attempt.
                    let mut map = attempts.lock().unwrap();
                    let n = map.entry(unit.key.clone()).or_insert(0);
                    *n += 1;
                    *n
                };
                if n == 1 && unit.load.to_bits() % 2 == 1 {
                    panic!("injected failure for {}", unit.key);
                }
                Ok(format!("value-of-{}", unit.key))
            })
        };
        let report = run_sweep(&grid, runner, &journal, &CoordinatorConfig::quick()).unwrap();
        assert_eq!(report.results.len(), 6);
        assert!(report.failures.is_empty());
        assert!(report.retries > 0, "the panicked points must have been retried");
    }

    #[test]
    fn a_point_that_always_fails_does_not_sink_the_grid() {
        let dir = TempDir::new("hardfail");
        let journal = dir.path("journal.jsonl");
        let grid = units(5);
        let poison = grid[2].key.clone();
        let runner: Arc<PointRunner> = {
            let poison = poison.clone();
            Arc::new(move |unit: &WorkUnit, _: &mut PointContext| {
                if unit.key == poison {
                    Err("deterministic failure".to_string())
                } else {
                    Ok(format!("value-of-{}", unit.key))
                }
            })
        };
        let cfg = CoordinatorConfig { max_retries: 1, ..CoordinatorConfig::quick() };
        let report = run_sweep(&grid, Arc::clone(&runner), &journal, &cfg).unwrap();
        assert_eq!(report.results.len(), 4, "the healthy points complete");
        assert_eq!(report.failures.len(), 1);
        assert_eq!(report.failures[0].key, poison);
        assert_eq!(report.failures[0].attempts, 2);
        assert_eq!(report.failures[0].last_error, "deterministic failure");
        // The failed point is exactly what a re-run retries.
        let healed: Arc<PointRunner> =
            Arc::new(|unit: &WorkUnit, _: &mut PointContext| Ok(format!("value-of-{}", unit.key)));
        let second = run_sweep(&grid, healed, &journal, &cfg).unwrap();
        assert_eq!(second.resumed, 4);
        assert_eq!(second.results.len(), 5);
        assert!(second.failures.is_empty());
    }

    #[test]
    fn watchdog_reaps_a_stuck_point() {
        let dir = TempDir::new("stuck");
        let journal = dir.path("journal.jsonl");
        let grid = units(3);
        let stuck_key = grid[1].key.clone();
        // The stuck attempt parks until the test ends (bounded, so the
        // abandoned thread cannot outlive the suite for long).
        let runner: Arc<PointRunner> = {
            let stuck_key = stuck_key.clone();
            let first = Arc::new(Mutex::new(true));
            Arc::new(move |unit: &WorkUnit, _: &mut PointContext| {
                if unit.key == stuck_key {
                    let mut first = first.lock().unwrap();
                    if *first {
                        *first = false;
                        drop(first);
                        std::thread::sleep(Duration::from_secs(2));
                    }
                }
                Ok(format!("value-of-{}", unit.key))
            })
        };
        let cfg = CoordinatorConfig {
            watchdog: Duration::from_millis(50),
            ..CoordinatorConfig::quick()
        };
        let report = run_sweep(&grid, runner, &journal, &cfg).unwrap();
        assert_eq!(report.results.len(), 3, "the stuck point recovers on retry");
        assert!(report.failures.is_empty());
        assert!(report.retries >= 1);
    }

    #[test]
    fn chaos_kills_converge_to_the_uninterrupted_artifact() {
        let dir = TempDir::new("chaos");
        let clean_journal = dir.path("clean.jsonl");
        let chaos_journal = dir.path("chaos.jsonl");
        let grid = units(12);
        let report =
            run_sweep(&grid, echo_runner(), &clean_journal, &CoordinatorConfig::quick()).unwrap();
        let chaos_cfg = CoordinatorConfig::quick()
            .with_chaos(ChaosConfig { kill_probability: 0.9, seed: 0xC4A0 });
        let chaos_report =
            run_sweep(&grid, echo_runner(), &chaos_journal, &chaos_cfg).unwrap();
        assert!(chaos_report.failures.is_empty(), "chaos must converge");
        assert!(chaos_report.retries > 0, "a 90% kill rate must cause retries");
        assert_eq!(chaos_report.results, report.results, "artifact must be bit-identical");
        // And so must the journal files themselves.
        assert_eq!(
            std::fs::read_to_string(&clean_journal).unwrap(),
            std::fs::read_to_string(&chaos_journal).unwrap()
        );
    }

    #[test]
    fn checkpoints_warm_start_a_retried_point() {
        let dir = TempDir::new("warm");
        let journal = dir.path("journal.jsonl");
        let grid = units(1);
        // The runner "computes" in 4 chunks, checkpointing its progress; the
        // first attempt dies after chunk 2. The retry must resume from the
        // checkpoint (progress 2), not from scratch.
        let observed_starts = Arc::new(Mutex::new(Vec::new()));
        let runner: Arc<PointRunner> = {
            let observed = Arc::clone(&observed_starts);
            Arc::new(move |unit: &WorkUnit, ctx: &mut PointContext| {
                let mut progress = ctx
                    .load_checkpoint()
                    .and_then(|b| String::from_utf8(b).ok())
                    .and_then(|s| s.parse::<u32>().ok())
                    .unwrap_or(0);
                observed.lock().unwrap().push(progress);
                let first_attempt = progress == 0;
                while progress < 4 {
                    progress += 1;
                    ctx.save_checkpoint(progress.to_string().as_bytes());
                    if first_attempt && progress == 2 {
                        panic!("simulated crash after chunk 2");
                    }
                }
                Ok(format!("done-{}-chunks4", unit.key))
            })
        };
        let report = run_sweep(&grid, runner, &journal, &CoordinatorConfig::quick()).unwrap();
        assert!(report.failures.is_empty());
        let starts = observed_starts.lock().unwrap().clone();
        assert_eq!(starts, vec![0, 2], "retry must warm-start from the checkpoint");
        // Success removes the checkpoint file.
        assert!(!checkpoint_path(&journal, &grid[0].key).exists());
    }

    #[test]
    fn journal_tolerates_a_torn_final_line() {
        let dir = TempDir::new("torn");
        let journal_path = dir.path("journal.jsonl");
        let grid = units(4);
        let report =
            run_sweep(&grid, echo_runner(), &journal_path, &CoordinatorConfig::quick()).unwrap();
        assert_eq!(report.results.len(), 4);
        // Simulate a crash mid-append by a non-atomic writer: truncate the
        // journal inside its final line.
        let text = std::fs::read_to_string(&journal_path).unwrap();
        let cut = text.len() - 7;
        std::fs::write(&journal_path, &text[..cut]).unwrap();
        let resumed =
            run_sweep(&grid, echo_runner(), &journal_path, &CoordinatorConfig::quick()).unwrap();
        assert_eq!(resumed.resumed, 3, "three intact lines survive the tear");
        assert_eq!(resumed.results, report.results, "the torn point is recomputed identically");
    }

    #[test]
    fn journal_rejects_corruption_before_the_final_line() {
        let dir = TempDir::new("corrupt");
        let journal_path = dir.path("journal.jsonl");
        let grid = units(3);
        run_sweep(&grid, echo_runner(), &journal_path, &CoordinatorConfig::quick()).unwrap();
        let mut text = std::fs::read_to_string(&journal_path).unwrap();
        let mid = text.find('\n').unwrap() + 3;
        text.replace_range(mid..mid + 1, "\u{0}");
        std::fs::write(&journal_path, &text).unwrap();
        let err = run_sweep(&grid, echo_runner(), &journal_path, &CoordinatorConfig::quick());
        assert!(err.is_err(), "corruption in the journal body must fail loudly");
    }

    #[test]
    fn json_escaping_round_trips() {
        for s in ["plain", "with \"quotes\"", "back\\slash", "tab\there", "nl\nthere", "\u{1}"] {
            let line = render_entry(s, s);
            let (k, v) = parse_entry(&line).expect("round trip");
            assert_eq!(k, s);
            assert_eq!(v, s);
        }
        assert!(parse_entry("{\"key\":\"a\"}").is_none());
        assert!(parse_entry("garbage").is_none());
    }

    #[test]
    fn operating_point_codec_is_bit_exact() {
        let point = OperatingPointResult {
            policy: "DMSD|odd\\name".to_string(),
            offered_load: 0.1,
            measured_rate: 0.1 + f64::EPSILON,
            avg_latency_cycles: 17.25,
            avg_delay_ns: f64::MIN_POSITIVE,
            max_delay_ns: 1e300,
            power_mw: -0.0,
            dynamic_power_mw: 3.5,
            static_power_mw: 1.5,
            avg_frequency_ghz: 1.0,
            avg_vdd: 0.9,
            throughput: 0.099,
            packets_delivered: u64::MAX,
            measurement_wall_ns: 123.456,
            flits_dropped: 7,
            reachability: 1.0,
        };
        let encoded = encode_operating_point(&point);
        let decoded = decode_operating_point(&encoded).expect("decode");
        assert_eq!(format!("{point:?}"), format!("{decoded:?}"));
        assert_eq!(decoded.power_mw.to_bits(), (-0.0f64).to_bits(), "-0.0 survives");
        assert!(decode_operating_point("op1|truncated").is_none());
        assert!(decode_operating_point(&format!("{encoded}|extra")).is_none());
        assert!(decode_operating_point(&encoded.replace("op1", "op9")).is_none());
    }
}
