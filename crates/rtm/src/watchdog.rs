//! The stall watchdog: notices a hung simulation *for* you.
//!
//! The paper's Case Study 2 is an architect staring at a frozen progress
//! bar, manually poking the buffer analyzer to find a deadlock. The
//! watchdog automates the noticing: a background thread samples the
//! engine's lock-free heartbeats (event count, virtual time, run state)
//! every `interval` and on every run-state transition. An engine that
//! goes idle with an empty event queue is quiesced — nothing changes
//! without outside input — so it is classified on that transition. A
//! running engine (or one idled by a `run_until` deadline with events
//! still queued) is declared stalled when neither heartbeat advances for
//! `stall_checks` consecutive samples. On a stall the watchdog classifies
//! it, optionally pauses or stops the simulation, and fires a synthetic
//! alert ([`crate::AlertEngine::fire_external`]).
//!
//! Classification (see [`StallKind`]):
//!
//! - the engine can't even answer a status query → **livelock** (a handler
//!   is stuck inside one event — an infinite loop in a `tick`);
//! - the event queue drained and the runtime wait-for analysis
//!   ([`akita::Simulation::analyze`]) says messages are still in flight →
//!   **backpressure** stall, with the actual blocked cycles and suspects
//!   copied into the report (this is what names an injected
//!   `stuckfull` fault site from `akita::faults`);
//! - the queue drained clean → **drainedidle** (the workload simply
//!   completed while the server holds the process open);
//! - events queued but neither time nor the event counter moves →
//!   **livelock** again (a zero-delay self-rescheduling spin).
//!
//! The watchdog also keeps per-buffer *dwell* counters — how many
//! consecutive checks each buffer spent completely full — which the
//! dashboard surfaces as early backpressure warnings long before the
//! stall itself trips.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use akita::{EngineStatus, QueryClient, QueryError, RunState, VTime};
use serde::{Deserialize, Serialize};

use crate::alerts::AlertEngine;

/// Synthetic alert-rule component name used for watchdog firings.
pub const WATCHDOG_ALERT_COMPONENT: &str = "<watchdog>";

/// Watchdog tuning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WatchdogConfig {
    /// Heartbeat sampling period.
    pub interval: Duration,
    /// Consecutive no-progress checks before a stall is declared. The
    /// livelock detection window is therefore `interval * stall_checks`;
    /// a quiesced engine (idle, empty queue) is declared without it.
    pub stall_checks: u32,
    /// Pause the simulation when a stall is declared (freeze the crime
    /// scene for the dashboard).
    pub auto_pause: bool,
    /// Ask the engine to end the run when a stall is declared (batch/CI
    /// use: `rtm-sim run --watchdog` exits with a documented code).
    pub stop_on_stall: bool,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig {
            interval: Duration::from_millis(100),
            stall_checks: 5,
            auto_pause: true,
            stop_on_stall: false,
        }
    }
}

/// Wire form of [`WatchdogConfig`] for `POST /api/watchdog/enable`;
/// omitted fields take the defaults.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WatchdogParams {
    /// Sampling period in milliseconds (default 100).
    #[serde(default)]
    pub interval_ms: Option<u64>,
    /// Consecutive no-progress checks before declaring a stall (default 5).
    #[serde(default)]
    pub stall_checks: Option<u32>,
    /// Pause on stall (default true).
    #[serde(default)]
    pub auto_pause: Option<bool>,
    /// Request run stop on stall (default false).
    #[serde(default)]
    pub stop_on_stall: Option<bool>,
}

impl From<WatchdogParams> for WatchdogConfig {
    fn from(p: WatchdogParams) -> Self {
        let d = WatchdogConfig::default();
        WatchdogConfig {
            interval: p.interval_ms.map_or(d.interval, Duration::from_millis),
            stall_checks: p.stall_checks.unwrap_or(d.stall_checks).max(1),
            auto_pause: p.auto_pause.unwrap_or(d.auto_pause),
            stop_on_stall: p.stop_on_stall.unwrap_or(d.stop_on_stall),
        }
    }
}

/// What kind of stall the watchdog diagnosed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "lowercase")]
pub enum StallKind {
    /// Event queue empty, no messages in flight: the workload finished
    /// (an interactive server merely holds the process open).
    DrainedIdle,
    /// The engine is (or claims to be) running but makes no progress — a
    /// handler spinning inside one event, or a zero-delay reschedule loop.
    Livelock,
    /// Quiesced with messages still in flight: a blocked cycle or
    /// saturated buffer is wedging the pipeline (Case Study 2).
    Backpressure,
}

/// The watchdog's diagnosis of a stall.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StallReport {
    /// Diagnosed kind.
    pub kind: StallKind,
    /// Event counter at declaration time.
    pub at_events: u64,
    /// Virtual time (ps) at declaration time.
    pub at_now_ps: u64,
    /// Human-readable diagnosis.
    pub detail: String,
    /// Blocked cycles from the runtime wait-for analysis (component name
    /// lists), when a backpressure stall was diagnosed.
    pub cycles: Vec<Vec<String>>,
    /// Implicated components (`"name: reason"`), when available.
    pub suspects: Vec<String>,
    /// Whether the watchdog paused the simulation.
    pub paused: bool,
    /// Whether the watchdog asked the engine to end the run.
    pub stop_requested: bool,
}

/// How long one buffer has been completely full, in watchdog checks.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BufferDwell {
    /// Buffer name.
    pub name: String,
    /// Consecutive checks at 100% occupancy.
    pub full_checks: u32,
}

/// Live watchdog state for `GET /api/watchdog`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WatchdogStatus {
    /// Sampling period in milliseconds.
    pub interval_ms: u64,
    /// Configured no-progress threshold.
    pub stall_checks: u32,
    /// Total heartbeat checks performed.
    pub checks: u64,
    /// Current consecutive no-progress streak.
    pub no_progress_checks: u32,
    /// Event counter at the last check.
    pub events: u64,
    /// Virtual time (ps) at the last check.
    pub now_ps: u64,
    /// Run state at the last check.
    pub state: RunState,
    /// The declared stall, if one tripped (latched: survives a resume).
    pub stall: Option<StallReport>,
    /// Buffers currently at 100% occupancy, with dwell counts, sorted by
    /// name.
    pub full_buffers: Vec<BufferDwell>,
}

struct WatchState {
    checks: u64,
    streak: u32,
    last_events: u64,
    last_now_ps: u64,
    last_state: RunState,
    stall: Option<StallReport>,
    dwell: BTreeMap<String, u32>,
}

struct Shared {
    client: QueryClient,
    alerts: Arc<AlertEngine>,
    config: WatchdogConfig,
    state: Mutex<WatchState>,
    /// Set on drop, before the final wake-up.
    stopping: AtomicBool,
}

impl Shared {
    /// One heartbeat pass. Returns the stall report if this pass declared
    /// one (a stall is declared at most once per watchdog).
    fn check(&self) -> Option<StallReport> {
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        st.checks += 1;
        let events = self.client.events_handled();
        let now_ps = self.client.now().ps();
        let state = self.client.run_state();
        let progressed = events != st.last_events || now_ps != st.last_now_ps;
        st.last_events = events;
        st.last_now_ps = now_ps;
        st.last_state = state;

        // Dwell counters: consecutive checks a buffer spent full. Needs an
        // engine round-trip; skipped silently while the engine can't
        // answer (the stall classifier handles that case).
        if let Ok(bufs) = self.client.buffers() {
            let mut next = BTreeMap::new();
            for b in &bufs {
                if b.capacity > 0 && b.size >= b.capacity {
                    let prev = st.dwell.get(&b.name).copied().unwrap_or(0);
                    next.insert(b.name.clone(), prev + 1);
                }
            }
            st.dwell = next;
        }

        // Idle with an empty queue is quiesced: nothing can change without
        // outside input, so it is classified at once instead of waiting
        // out `stall_checks`. Idle with queued events (a `run_until`
        // deadline) needs the time window like a running engine does.
        let status = (state == RunState::Idle).then(|| self.client.status());
        let quiesced = matches!(
            status,
            Some(Ok(s)) if s.state == RunState::Idle && s.queue_len == 0
        );

        // Paused / finished / crashed are not stalls: the engine is not
        // *trying* to make progress.
        if progressed
            || matches!(
                state,
                RunState::Paused | RunState::Finished | RunState::Crashed
            )
        {
            st.streak = 0;
            if !quiesced {
                return None;
            }
        }
        st.streak += 1;
        if st.stall.is_some() || (!quiesced && st.streak < self.config.stall_checks.max(1)) {
            return None;
        }

        let status = status.unwrap_or_else(|| self.client.status());
        let mut report = self.classify(status, events, now_ps, state, st.streak);
        if self.config.auto_pause {
            self.client.pause();
            report.paused = true;
        }
        if self.config.stop_on_stall {
            self.client.request_stop();
            // Wakes an engine blocked in its idle loop, so the run returns
            // now rather than at its next poll of the stop flag.
            let _ = self.client.terminate();
            report.stop_requested = true;
        }
        let field: &str = match report.kind {
            StallKind::DrainedIdle => "stall.drainedidle",
            StallKind::Livelock => "stall.livelock",
            StallKind::Backpressure => "stall.backpressure",
        };
        self.alerts.fire_external(
            WATCHDOG_ALERT_COMPONENT,
            field,
            VTime::from_ps(now_ps),
            st.streak as f64,
            report.paused,
        );
        st.stall = Some(report.clone());
        Some(report)
    }

    fn classify(
        &self,
        status: Result<EngineStatus, QueryError>,
        events: u64,
        now_ps: u64,
        state: RunState,
        streak: u32,
    ) -> StallReport {
        let mut report = StallReport {
            kind: StallKind::Livelock,
            at_events: events,
            at_now_ps: now_ps,
            detail: String::new(),
            cycles: Vec::new(),
            suspects: Vec::new(),
            paused: false,
            stop_requested: false,
        };
        let Ok(status) = status else {
            report.detail = format!(
                "engine made no progress for {streak} checks and did not \
                 answer a status query; a component handler is likely stuck \
                 inside a single event"
            );
            return report;
        };
        if status.queue_len == 0 || state == RunState::Idle {
            match self.client.analysis() {
                Ok(analysis) if analysis.deadlock.is_deadlocked() => {
                    report.kind = StallKind::Backpressure;
                    report.detail = format!(
                        "event queue quiesced with {} message(s) still in \
                         flight: backpressure deadlock ({} blocked cycle(s), \
                         {} suspect(s))",
                        analysis.deadlock.in_flight,
                        analysis.deadlock.cycles.len(),
                        analysis.deadlock.suspects.len(),
                    );
                    report.cycles = analysis.deadlock.cycles;
                    report.suspects = analysis
                        .deadlock
                        .suspects
                        .into_iter()
                        .map(|s| format!("{}: {}", s.component, s.reason))
                        .collect();
                }
                Ok(_) => {
                    report.kind = StallKind::DrainedIdle;
                    report.detail = format!(
                        "event queue drained with nothing in flight at {} \
                         events; the workload appears complete",
                        status.events
                    );
                }
                Err(e) => {
                    report.detail = format!(
                        "engine idle but the wait-for analysis failed ({e}); \
                         treating as livelock"
                    );
                }
            }
        } else {
            report.detail = format!(
                "engine state {:?} with {} queued event(s), but neither \
                 virtual time nor the event counter advanced across {streak} \
                 checks",
                state, status.queue_len
            );
        }
        report
    }

    fn status(&self) -> WatchdogStatus {
        let st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        WatchdogStatus {
            interval_ms: self.config.interval.as_millis() as u64,
            stall_checks: self.config.stall_checks,
            checks: st.checks,
            no_progress_checks: st.streak,
            events: st.last_events,
            now_ps: st.last_now_ps,
            state: st.last_state,
            stall: st.stall.clone(),
            full_buffers: st
                .dwell
                .iter()
                .map(|(name, full_checks)| BufferDwell {
                    name: name.clone(),
                    full_checks: *full_checks,
                })
                .collect(),
        }
    }
}

/// A running (or manually-driven) stall watchdog.
///
/// Created by [`Monitor::enable_watchdog`](crate::Monitor::enable_watchdog);
/// the background thread stops and joins on drop. Tests drive it
/// deterministically with [`Watchdog::check_once`] instead of
/// [`Watchdog::start`].
pub struct Watchdog {
    shared: Arc<Shared>,
    /// The heartbeat thread's wake channel (shared with the engine's
    /// state watchers); a wake with `stopping` set ends the thread.
    wake: Option<mpsc::Sender<()>>,
    thread: Option<JoinHandle<()>>,
}

impl Watchdog {
    /// Creates a watchdog without starting its thread.
    ///
    /// The engine-facing queries use their own timeout of one sampling
    /// interval (min 10 ms): an engine that can't answer within a period
    /// is exactly what the livelock classifier needs to observe quickly.
    pub fn new(client: &QueryClient, alerts: Arc<AlertEngine>, config: WatchdogConfig) -> Self {
        let client = client
            .clone()
            .with_timeout(config.interval.max(Duration::from_millis(10)));
        let state = WatchState {
            checks: 0,
            streak: 0,
            last_events: client.events_handled(),
            last_now_ps: client.now().ps(),
            last_state: client.run_state(),
            stall: None,
            dwell: BTreeMap::new(),
        };
        Watchdog {
            shared: Arc::new(Shared {
                client,
                alerts,
                config,
                state: Mutex::new(state),
                stopping: AtomicBool::new(false),
            }),
            wake: None,
            thread: None,
        }
    }

    /// Starts the heartbeat thread (idempotent).
    ///
    /// The thread wakes on every engine run-state transition as well as
    /// every `interval`: a transition into [`RunState::Idle`] is checked
    /// at once (a drained queue is classified on the spot), while the
    /// interval ticks drive the no-progress streak.
    pub fn start(&mut self) {
        if self.thread.is_some() {
            return;
        }
        let (wake_tx, wake_rx) = mpsc::channel::<()>();
        self.shared.client.watch_state(wake_tx.clone());
        // An engine that went idle before the subscription still counts
        // as a transition to check.
        if self.shared.client.run_state() == RunState::Idle {
            let _ = wake_tx.send(());
        }
        let shared = Arc::clone(&self.shared);
        let interval = self.shared.config.interval;
        let thread = std::thread::Builder::new()
            .name("rtm-watchdog".into())
            .spawn(move || loop {
                let transition = match wake_rx.recv_timeout(interval) {
                    Ok(()) => true,
                    Err(mpsc::RecvTimeoutError::Timeout) => false,
                    Err(mpsc::RecvTimeoutError::Disconnected) => break,
                };
                if shared.stopping.load(Ordering::SeqCst) {
                    break;
                }
                if !transition || shared.client.run_state() == RunState::Idle {
                    let _ = shared.check();
                }
            })
            .expect("spawn watchdog thread");
        self.wake = Some(wake_tx);
        self.thread = Some(thread);
    }

    /// Runs one heartbeat check synchronously; returns the stall report if
    /// this check declared one. Deterministic alternative to [`start`].
    ///
    /// [`start`]: Watchdog::start
    pub fn check_once(&self) -> Option<StallReport> {
        self.shared.check()
    }

    /// Current watchdog state.
    pub fn status(&self) -> WatchdogStatus {
        self.shared.status()
    }

    /// The declared stall, if any.
    pub fn stall(&self) -> Option<StallReport> {
        self.shared
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .stall
            .clone()
    }

    /// The configuration this watchdog runs with.
    pub fn config(&self) -> WatchdogConfig {
        self.shared.config
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        self.shared.stopping.store(true, Ordering::SeqCst);
        if let Some(wake) = self.wake.take() {
            let _ = wake.send(());
        }
        if let Some(h) = self.thread.take() {
            let _ = h.join();
        }
    }
}

impl std::fmt::Debug for Watchdog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.status();
        write!(
            f,
            "Watchdog(checks {}, streak {}/{}, stalled: {})",
            st.checks,
            st.no_progress_checks,
            st.stall_checks,
            st.stall.is_some()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use akita::{CompBase, Component, Ctx, Simulation};

    /// Ticks `left` times, then goes quiet.
    struct Nop {
        base: CompBase,
        left: u32,
    }

    impl Component for Nop {
        fn base(&self) -> &CompBase {
            &self.base
        }
        fn base_mut(&mut self) -> &mut CompBase {
            &mut self.base
        }
        fn tick(&mut self, _ctx: &mut Ctx) -> bool {
            self.left -= 1;
            self.left > 0
        }
    }

    fn nop_sim(ticks: u32) -> Simulation {
        let mut sim = Simulation::new();
        let (id, _) = sim.register(Nop {
            base: CompBase::new("Nop", "n"),
            left: ticks,
        });
        sim.wake_at(id, VTime::ZERO);
        sim
    }

    fn fast_config(stall_checks: u32) -> WatchdogConfig {
        WatchdogConfig {
            interval: Duration::from_millis(10),
            stall_checks,
            auto_pause: true,
            stop_on_stall: false,
        }
    }

    #[test]
    fn params_fill_defaults() {
        let c: WatchdogConfig = WatchdogParams::default().into();
        assert_eq!(c, WatchdogConfig::default());
        let c: WatchdogConfig = WatchdogParams {
            interval_ms: Some(20),
            stall_checks: Some(0), // clamped to 1
            auto_pause: Some(false),
            stop_on_stall: Some(true),
        }
        .into();
        assert_eq!(c.interval, Duration::from_millis(20));
        assert_eq!(c.stall_checks, 1);
        assert!(!c.auto_pause);
        assert!(c.stop_on_stall);
    }

    #[test]
    fn params_parse_with_omitted_fields() {
        let p: WatchdogParams = serde_json::from_str(r#"{"stall_checks": 3}"#).unwrap();
        assert_eq!(p.stall_checks, Some(3));
        assert_eq!(p.interval_ms, None);
    }

    /// An engine that exists but never serves queries (nothing is running
    /// the event loop) is the livelock signature: heartbeats frozen AND
    /// the status query times out.
    #[test]
    fn unresponsive_engine_declares_livelock_once_and_pauses() {
        let sim = Simulation::new();
        let alerts = Arc::new(AlertEngine::new());
        let dog = Watchdog::new(&sim.client(), Arc::clone(&alerts), fast_config(2));
        assert!(dog.check_once().is_none(), "first check only starts streak");
        let report = dog.check_once().expect("second check trips");
        assert_eq!(report.kind, StallKind::Livelock);
        assert!(report.paused);
        assert!(!report.stop_requested);
        // Declared at most once; the report latches.
        assert!(dog.check_once().is_none());
        assert_eq!(dog.stall(), Some(report));
        // And the firing is visible as a synthetic alert.
        let statuses = alerts.statuses();
        assert_eq!(statuses.len(), 1);
        assert_eq!(statuses[0].rule.component, WATCHDOG_ALERT_COMPONENT);
        assert!(statuses[0].fired.is_some());
    }

    #[test]
    fn progress_resets_the_streak() {
        let mut sim = Simulation::new();
        let alerts = Arc::new(AlertEngine::new());
        let dog = Watchdog::new(&sim.client(), Arc::clone(&alerts), fast_config(3));
        assert!(dog.check_once().is_none());
        assert_eq!(dog.status().no_progress_checks, 1);
        // Running the (empty) simulation bumps the run state to Finished,
        // which resets the streak even with zero events handled.
        sim.run();
        assert!(dog.check_once().is_none());
        let st = dog.status();
        assert_eq!(st.no_progress_checks, 0);
        assert_eq!(st.state, akita::RunState::Finished);
        assert!(st.stall.is_none());
        assert!(alerts.is_empty());
    }

    /// An engine that idles with an empty queue is quiesced: the first
    /// check after the transition declares drained-idle, although events
    /// advanced since the watchdog was created and `stall_checks` is 5.
    #[test]
    fn quiesced_engine_is_declared_on_the_first_check() {
        let (client_tx, client_rx) = mpsc::channel();
        let (go_tx, go_rx) = mpsc::channel::<()>();
        let engine = std::thread::spawn(move || {
            let mut sim = nop_sim(50);
            client_tx.send(sim.client()).expect("hand over the client");
            go_rx.recv().expect("go signal");
            sim.run_interactive()
        });
        let client = client_rx.recv().expect("client");
        let mut cfg = fast_config(5);
        cfg.interval = Duration::from_secs(1);
        cfg.auto_pause = false;
        let dog = Watchdog::new(&client, Arc::new(AlertEngine::new()), cfg);
        let (state_tx, state_rx) = mpsc::channel();
        client.watch_state(state_tx);
        go_tx.send(()).expect("start the run");
        while client.run_state() != RunState::Idle {
            state_rx.recv().expect("state transitions");
        }

        let report = dog.check_once().expect("quiesced: declared at once");
        assert_eq!(report.kind, StallKind::DrainedIdle, "{}", report.detail);
        assert_eq!(report.at_events, 50);
        assert_eq!(dog.status().checks, 1);

        client.terminate().expect("engine alive");
        engine.join().expect("engine thread");
    }

    /// A `run_until` deadline idles the engine with events still queued;
    /// that is not quiesced, so it still takes `stall_checks` checks.
    #[test]
    fn idle_with_queued_events_needs_the_full_window() {
        let mut sim = nop_sim(1_000);
        sim.run_until(VTime::from_ps(10_000));
        assert_eq!(sim.control().state(), RunState::Idle);
        assert!(sim.control().events_handled() > 0);
        let dog = Watchdog::new(&sim.client(), Arc::new(AlertEngine::new()), fast_config(3));
        assert!(dog.check_once().is_none());
        assert!(dog.check_once().is_none());
        let report = dog.check_once().expect("third check trips");
        assert_ne!(report.kind, StallKind::DrainedIdle);
    }

    #[test]
    fn stop_on_stall_is_recorded() {
        let sim = Simulation::new();
        let alerts = Arc::new(AlertEngine::new());
        let mut cfg = fast_config(1);
        cfg.auto_pause = false;
        cfg.stop_on_stall = true;
        let dog = Watchdog::new(&sim.client(), alerts, cfg);
        let report = dog.check_once().expect("single-check threshold");
        assert!(report.stop_requested);
        assert!(!report.paused);
    }
}
