//! The `Monitor`: AkitaRTM's library API.
//!
//! This is the Rust rendering of the paper's Go API (§IV-B). The mapping:
//!
//! | Paper (Go)                     | Here                                   |
//! |--------------------------------|----------------------------------------|
//! | `RegisterEngine`               | [`Monitor::attach`] (grabs the engine's query client and control block) |
//! | `RegisterComponent`            | automatic — every component registered with the [`Simulation`](akita::Simulation) is discoverable; [`Monitor::components`] lists them and [`Monitor::component_state`] serializes one on demand (the reflection substitute) |
//! | `CreateProgressBar`            | [`Monitor::create_progress_bar`]       |
//! | `UpdateProgressBar`            | [`Monitor::update_progress_bar`]       |
//! | `DestroyProgressBar`           | [`Monitor::destroy_progress_bar`]      |
//! | pause / continue               | [`Monitor::pause`] / [`Monitor::resume`] |
//! | query simulation time          | [`Monitor::now`] (lock-free)           |
//! | list buffer levels             | [`Monitor::buffers`]                   |
//! | profile simulation             | [`Monitor::set_profiling`] / [`Monitor::profile`] |
//! | tick component / kick start    | [`Monitor::tick_component`] / [`Monitor::kick_start`] |
//! | resource utilization           | [`Monitor::resources`]                 |
//! | value monitoring               | [`Monitor::watch`] / [`Monitor::series`] |
//!
//! The monitor is `Send + Sync`: the HTTP server shares one instance across
//! request handlers, on a thread separate from the simulation (§VII design
//! choice 3).

use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use akita::{
    trace, ActivityStamp, BufferSnapshot, ComponentInfo, ComponentStateDto, CrashInfo,
    EngineStatus, EventCounts, FaultInstallSummary, FaultPlan, FaultReport, LintReport,
    ProfileReport, ProgressBarId, ProgressRegistry, ProgressSnapshot, QueryClient, QueryError,
    RunState, Simulation, TaskTraceReport, TopologyEdge, TraceRecord, VTime,
};
use serde::{Deserialize, Serialize};

use crate::alerts::{AlertEngine, AlertId, AlertRule, AlertStatus};
use crate::resources::{ResourceSampler, ResourceUsage};
use crate::timeseries::{Series, ValueMonitor, WatchId};
use crate::watchdog::{StallReport, Watchdog, WatchdogConfig, WatchdogStatus};

/// How to order the buffer analyzer table (paper Fig 3: "Sort by: Size |
/// Percent").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "lowercase")]
pub enum BufferSort {
    /// By element count, descending.
    Size,
    /// By fill ratio, descending.
    Percent,
}

/// Sliding-window state behind [`Monitor::events_per_sec`].
struct EventRate {
    last_instant: Instant,
    last_events: u64,
    rate: f64,
}

/// Window below which [`Monitor::events_per_sec`] reuses the last computed
/// rate instead of resampling — keeps rapid dashboard polls from reading a
/// noisy near-zero-elapsed quotient.
const RATE_WINDOW: Duration = Duration::from_millis(100);

/// A monitor attached to a running simulation.
pub struct Monitor {
    client: QueryClient,
    progress: ProgressRegistry,
    resources: ResourceSampler,
    values: Arc<ValueMonitor>,
    alerts: Arc<AlertEngine>,
    rate: Mutex<EventRate>,
    /// Per-event-kind counters, when the host wired an
    /// [`akita::EventCountHook`] in via [`Monitor::set_event_counts`].
    event_counts: Mutex<Option<EventCounts>>,
    /// The stall watchdog, once [`Monitor::enable_watchdog`] installed it.
    watchdog: Mutex<Option<Watchdog>>,
    /// Dropping this wakes and stops the sampler thread immediately.
    sampler_stop: Option<mpsc::Sender<()>>,
    sampler: Option<JoinHandle<()>>,
}

impl Monitor {
    /// Attaches a monitor to `sim` before it starts running, sharing
    /// `progress` with the simulation side (dispatcher/driver bars).
    ///
    /// Starts a background sampler thread that feeds active value watches
    /// every `sample_interval`.
    pub fn attach(sim: &Simulation, progress: ProgressRegistry, sample_interval: Duration) -> Self {
        let client = sim.client();
        let values = Arc::new(ValueMonitor::new());
        let alerts = Arc::new(AlertEngine::new());
        let (stop_tx, stop_rx) = mpsc::channel::<()>();
        let sampler = {
            let client = client.clone();
            let values = Arc::clone(&values);
            let alerts = Arc::clone(&alerts);
            std::thread::Builder::new()
                .name("rtm-value-sampler".into())
                .spawn(move || {
                    // The sleep doubles as the stop signal: dropping the
                    // sender ends the thread without waiting out the
                    // interval.
                    while let Err(mpsc::RecvTimeoutError::Timeout) =
                        stop_rx.recv_timeout(sample_interval)
                    {
                        if !values.is_empty() {
                            let _ = values.sample_all(&client);
                        }
                        if !alerts.is_empty() {
                            let _ = alerts.evaluate(&client);
                        }
                    }
                })
                .expect("spawn sampler thread")
        };
        let rate = Mutex::new(EventRate {
            last_instant: Instant::now(),
            last_events: client.events_handled(),
            rate: 0.0,
        });
        Monitor {
            client,
            progress,
            resources: ResourceSampler::new(),
            values,
            alerts,
            rate,
            event_counts: Mutex::new(None),
            watchdog: Mutex::new(None),
            sampler_stop: Some(stop_tx),
            sampler: Some(sampler),
        }
    }

    /// Attaches with the default 100 ms sampling interval.
    pub fn attach_default(sim: &Simulation, progress: ProgressRegistry) -> Self {
        Monitor::attach(sim, progress, Duration::from_millis(100))
    }

    // --- Simulation controls (Fig 2 C) -------------------------------

    /// Pauses the simulation at the next event boundary.
    pub fn pause(&self) {
        self.client.pause();
    }

    /// Resumes a paused simulation.
    pub fn resume(&self) {
        self.client.resume();
    }

    /// Current virtual time, lock-free.
    pub fn now(&self) -> VTime {
        self.client.now()
    }

    /// Current run state, lock-free.
    pub fn run_state(&self) -> RunState {
        self.client.run_state()
    }

    /// Live event throughput: dispatched events per wall-clock second,
    /// derived from the engine's lock-free counter over a sliding window
    /// (the "how fast is my simulation actually going" heartbeat number).
    ///
    /// Returns the last computed rate when called faster than the window;
    /// 0.0 until the first window elapses or while the engine is idle.
    pub fn events_per_sec(&self) -> f64 {
        let mut r = self
            .rate
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let elapsed = r.last_instant.elapsed();
        if elapsed >= RATE_WINDOW {
            let events = self.client.events_handled();
            r.rate = events.saturating_sub(r.last_events) as f64 / elapsed.as_secs_f64();
            r.last_events = events;
            r.last_instant = Instant::now();
        }
        r.rate
    }

    /// Engine status (round-trips to the engine).
    ///
    /// # Errors
    ///
    /// [`QueryError`] when the simulation is gone or unresponsive.
    pub fn status(&self) -> Result<EngineStatus, QueryError> {
        self.client.status()
    }

    /// Ends an interactive run.
    ///
    /// # Errors
    ///
    /// [`QueryError::Disconnected`] when the simulation is gone.
    pub fn terminate(&self) -> Result<(), QueryError> {
        self.client.terminate()
    }

    // --- Component inspection (Fig 2 D) -------------------------------

    /// Every registered component (flat; the hierarchy is in the names).
    ///
    /// # Errors
    ///
    /// [`QueryError`] when the simulation is gone or unresponsive.
    pub fn components(&self) -> Result<Vec<ComponentInfo>, QueryError> {
        self.client.components()
    }

    /// Serializes one component's state (fine-grained, on demand — §VII).
    ///
    /// # Errors
    ///
    /// [`QueryError`] when the simulation is gone or unresponsive.
    pub fn component_state(&self, name: &str) -> Result<Option<ComponentStateDto>, QueryError> {
        self.client.component_state(name)
    }

    /// The wiring map: which ports attach to which connections — the
    /// "map of how components are connected" the paper lists as a planned
    /// usability improvement (§VIII).
    ///
    /// # Errors
    ///
    /// [`QueryError`] when the simulation is gone or unresponsive.
    pub fn topology(&self) -> Result<Vec<TopologyEdge>, QueryError> {
        self.client.topology()
    }

    /// Runs the topology lint and deadlock analyzer
    /// ([`akita::Simulation::analyze`]) inside the simulation thread and
    /// returns the full [`LintReport`] — structural findings, potential
    /// backpressure cycles, and the runtime wait-for graph.
    ///
    /// # Errors
    ///
    /// [`QueryError`] when the simulation is gone or unresponsive.
    pub fn analysis(&self) -> Result<LintReport, QueryError> {
        self.client.analysis()
    }

    // --- Hang debugging (Case Study 2) --------------------------------

    /// Schedules a tick for a sleeping component (the "Tick" button).
    ///
    /// # Errors
    ///
    /// [`QueryError`] when the simulation is gone or unresponsive.
    pub fn tick_component(&self, name: &str) -> Result<bool, QueryError> {
        self.client.tick_component(name)
    }

    /// Wakes every component (the "Kick Start" button).
    ///
    /// # Errors
    ///
    /// [`QueryError`] when the simulation is gone or unresponsive.
    pub fn kick_start(&self) -> Result<usize, QueryError> {
        self.client.kick_start()
    }

    /// Schedules a custom event for a component — the "Schedule" button
    /// the paper proposes for event-driven simulators (§V-B).
    ///
    /// # Errors
    ///
    /// [`QueryError`] when the simulation is gone or unresponsive.
    pub fn schedule_custom(&self, name: &str, code: u64) -> Result<bool, QueryError> {
        self.client.schedule_custom(name, code)
    }

    /// Turns the recent-event trace ring on or off.
    ///
    /// # Errors
    ///
    /// [`QueryError::Disconnected`] when the simulation is gone.
    pub fn set_tracing(&self, on: bool) -> Result<(), QueryError> {
        self.client.set_tracing(on)
    }

    /// The most recent `n` dispatched events (empty unless tracing is on) —
    /// which component ran, when, and why, for fine-grained hang forensics.
    ///
    /// # Errors
    ///
    /// [`QueryError`] when the simulation is gone or unresponsive.
    pub fn trace(&self, n: usize) -> Result<Vec<TraceRecord>, QueryError> {
        self.client.trace(n)
    }

    // --- Buffer analyzer (Fig 3) ---------------------------------------

    /// Snapshot of every live buffer, sorted per `sort`, truncated to
    /// `top` entries when given.
    ///
    /// # Errors
    ///
    /// [`QueryError`] when the simulation is gone or unresponsive.
    pub fn buffers(
        &self,
        sort: BufferSort,
        top: Option<usize>,
    ) -> Result<Vec<BufferSnapshot>, QueryError> {
        let mut buffers = self.client.buffers()?;
        sort_buffers(&mut buffers, sort);
        if let Some(n) = top {
            buffers.truncate(n);
        }
        Ok(buffers)
    }

    // --- Progress bars (Fig 2 G) ---------------------------------------

    /// Creates a bar tracking `total` tasks.
    pub fn create_progress_bar(&self, name: impl Into<String>, total: u64) -> ProgressBarId {
        self.progress.create_bar(name, total)
    }

    /// Updates a bar's finished and in-progress counts.
    pub fn update_progress_bar(&self, id: ProgressBarId, finished: u64, in_progress: u64) {
        self.progress.update(id, finished, in_progress);
    }

    /// Removes a bar.
    pub fn destroy_progress_bar(&self, id: ProgressBarId) {
        self.progress.destroy(id);
    }

    /// All live bars.
    pub fn progress(&self) -> Vec<ProgressSnapshot> {
        self.progress.snapshot()
    }

    // --- Simulator profiling (Fig 2 E) ----------------------------------

    /// Turns the simulator's scope profiler on or off.
    ///
    /// # Errors
    ///
    /// [`QueryError::Disconnected`] when the simulation is gone.
    pub fn set_profiling(&self, on: bool) -> Result<(), QueryError> {
        self.client.set_profiling(on)
    }

    /// The current profile, truncated to the `top` hottest scopes.
    ///
    /// # Errors
    ///
    /// [`QueryError`] when the simulation is gone or unresponsive.
    pub fn profile(&self, top: usize) -> Result<ProfileReport, QueryError> {
        Ok(self.client.profile()?.top_n(top))
    }

    // --- Resource monitoring (Fig 2 A) -----------------------------------

    /// CPU/memory usage of the simulator process.
    pub fn resources(&self) -> ResourceUsage {
        self.resources.sample()
    }

    // --- Value monitoring (Fig 2 F) --------------------------------------

    /// Starts a time-series watch on `field` of `component` (the flag
    /// icon). The sampler thread records up to 300 points.
    pub fn watch(&self, component: &str, field: &str) -> WatchId {
        self.values.watch(component, field)
    }

    /// Stops a watch.
    pub fn unwatch(&self, id: WatchId) -> bool {
        self.values.unwatch(id)
    }

    /// A watch's current series.
    pub fn series(&self, id: WatchId) -> Option<Series> {
        self.values.series(id)
    }

    /// Every active watch's series.
    pub fn all_series(&self) -> Vec<Series> {
        self.values.all_series()
    }

    /// Forces one synchronous sampling pass over all watches (useful for
    /// deterministic tests and harnesses; the background thread does this
    /// continuously).
    pub fn sample_watches_now(&self) -> usize {
        self.values.sample_all(&self.client)
    }

    // --- Alerts: automated "fail early, fail fast" -----------------------

    /// Installs an alert rule; the sampler thread evaluates it every
    /// interval, records the firing, and pauses the simulation when the
    /// rule asks.
    pub fn add_alert(&self, rule: AlertRule) -> AlertId {
        self.alerts.add(rule)
    }

    /// Removes an alert rule.
    pub fn remove_alert(&self, id: AlertId) -> bool {
        self.alerts.remove(id)
    }

    /// Every alert's live status (streak, fired record).
    pub fn alerts(&self) -> Vec<AlertStatus> {
        self.alerts.statuses()
    }

    /// Forces one synchronous alert-evaluation pass (deterministic tests).
    pub fn evaluate_alerts_now(&self) -> Vec<crate::FiredAlert> {
        self.alerts.evaluate(&self.client)
    }

    // --- Task tracing and metrics (akita::trace) --------------------------

    /// Turns message-lifetime task tracing on or off. Unlike the
    /// event-trace ring ([`Monitor::set_tracing`]), this needs no engine
    /// round-trip: collection is gated by a process-global flag the
    /// components check with one relaxed atomic load.
    pub fn set_task_tracing(&self, on: bool) {
        trace::set_enabled(on);
    }

    /// Whether task tracing is currently collecting.
    pub fn task_tracing(&self) -> bool {
        trace::is_enabled()
    }

    /// Aggregates every tracing shard into one report: latency histograms,
    /// up to `max_spans` completed spans (newest kept), and up to
    /// `max_open` oldest in-flight tasks (the slowest ones).
    pub fn task_trace(&self, max_spans: usize, max_open: usize) -> TaskTraceReport {
        trace::snapshot(max_spans, max_open)
    }

    /// Wires an [`akita::EventCountHook`]'s shared handle in, so
    /// `/api/metrics` can export per-event-kind counters.
    pub fn set_event_counts(&self, counts: EventCounts) {
        *self
            .event_counts
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(counts);
    }

    /// Per-event-kind counts, when a hook was wired in; sorted by kind.
    pub fn event_counts(&self) -> Option<Vec<(String, u64)>> {
        self.event_counts
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .as_ref()
            .map(EventCounts::all)
    }

    // --- Stall watchdog (crate::watchdog) ---------------------------------

    /// Installs and starts the stall watchdog; replaces (and joins) any
    /// previous one. Returns its effective configuration.
    pub fn enable_watchdog(&self, config: WatchdogConfig) -> WatchdogConfig {
        let mut dog = Watchdog::new(&self.client, Arc::clone(&self.alerts), config);
        dog.start();
        *self
            .watchdog
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(dog);
        config
    }

    /// Stops and removes the watchdog; returns whether one was running.
    pub fn disable_watchdog(&self) -> bool {
        self.watchdog
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .take()
            .is_some()
    }

    /// The watchdog's live status, when enabled.
    pub fn watchdog_status(&self) -> Option<WatchdogStatus> {
        self.watchdog
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .as_ref()
            .map(Watchdog::status)
    }

    /// The declared stall, when the watchdog tripped.
    pub fn watchdog_stall(&self) -> Option<StallReport> {
        self.watchdog
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .as_ref()
            .and_then(Watchdog::stall)
    }

    /// Forces one synchronous watchdog heartbeat (deterministic tests).
    pub fn watchdog_check_now(&self) -> Option<StallReport> {
        self.watchdog
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .as_ref()
            .and_then(Watchdog::check_once)
    }

    // --- Fault injection (akita::faults) ----------------------------------

    /// Installs a fault plan into the running simulation.
    ///
    /// # Errors
    ///
    /// [`QueryError`] when the simulation is gone or unresponsive.
    pub fn install_faults(&self, plan: FaultPlan) -> Result<FaultInstallSummary, QueryError> {
        self.client.install_faults(plan)
    }

    /// The live fault report: every installed rule with decision and
    /// injection counters.
    ///
    /// # Errors
    ///
    /// [`QueryError`] when the simulation is gone or unresponsive.
    pub fn faults(&self) -> Result<FaultReport, QueryError> {
        self.client.faults()
    }

    /// Turns per-component last-activity stamping on or off.
    ///
    /// # Errors
    ///
    /// [`QueryError::Disconnected`] when the simulation is gone.
    pub fn set_activity_stamps(&self, on: bool) -> Result<(), QueryError> {
        self.client.set_activity_stamps(on)
    }

    /// Per-component last-event timestamps (empty unless stamping is on).
    ///
    /// # Errors
    ///
    /// [`QueryError`] when the simulation is gone or unresponsive.
    pub fn activity(&self) -> Result<Vec<ActivityStamp>, QueryError> {
        self.client.activity()
    }

    /// Details of the crash, when a component handler panicked under
    /// [`akita::Simulation::run_caught`]. Lock-free; answers even while
    /// the simulation thread is gone.
    pub fn crash_info(&self) -> Option<CrashInfo> {
        self.client.crash_info()
    }

    /// The underlying query client (for advanced integrations).
    pub fn client(&self) -> &QueryClient {
        &self.client
    }
}

impl Drop for Monitor {
    fn drop(&mut self) {
        // Watchdog first (it may hold a client and pause the engine),
        // then the sampler; both stop via dropped senders and join, so a
        // monitor drop is bounded by one sampling interval each.
        drop(
            self.watchdog
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .take(),
        );
        drop(self.sampler_stop.take());
        if let Some(h) = self.sampler.take() {
            let _ = h.join();
        }
    }
}

impl std::fmt::Debug for Monitor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Monitor(state {:?}, {} watches, {} bars)",
            self.run_state(),
            self.values.len(),
            self.progress.len()
        )
    }
}

/// Sorts a buffer table like the paper's analyzer panel.
pub fn sort_buffers(buffers: &mut [BufferSnapshot], sort: BufferSort) {
    match sort {
        BufferSort::Size => buffers.sort_by(|a, b| {
            b.size
                .cmp(&a.size)
                .then_with(|| {
                    b.percent()
                        .partial_cmp(&a.percent())
                        .unwrap_or(std::cmp::Ordering::Equal)
                })
                .then_with(|| a.name.cmp(&b.name))
        }),
        BufferSort::Percent => buffers.sort_by(|a, b| {
            b.percent()
                .partial_cmp(&a.percent())
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| b.size.cmp(&a.size))
                .then_with(|| a.name.cmp(&b.name))
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(name: &str, size: usize, capacity: usize) -> BufferSnapshot {
        BufferSnapshot {
            name: name.into(),
            size,
            capacity,
        }
    }

    #[test]
    fn sort_by_size_descends() {
        let mut b = vec![snap("a", 2, 8), snap("b", 8, 8), snap("c", 4, 4)];
        sort_buffers(&mut b, BufferSort::Size);
        let names: Vec<_> = b.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["b", "c", "a"]);
    }

    #[test]
    fn sort_by_percent_prefers_full_small_buffers() {
        let mut b = vec![snap("big", 8, 32), snap("small", 4, 4)];
        sort_buffers(&mut b, BufferSort::Percent);
        assert_eq!(b[0].name, "small");
    }

    #[test]
    fn equal_keys_tie_break_by_name_for_determinism() {
        let mut b = vec![snap("z", 4, 8), snap("a", 4, 8)];
        sort_buffers(&mut b, BufferSort::Size);
        assert_eq!(b[0].name, "a");
    }
}
