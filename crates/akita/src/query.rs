//! The monitor query protocol and its thread-safe client.
//!
//! The monitoring layer never touches simulation state directly: it sends a
//! [`SimQuery`] over a channel and the engine loop answers between events
//! (or while paused/idle). Each request serializes exactly one component or
//! one snapshot — the paper's fine-grained, on-demand serialization (§VII).

use std::fmt;
use std::sync::Arc;
use std::time::Duration;

use std::sync::mpsc::{sync_channel, Sender, SyncSender};

use serde::{Deserialize, Serialize};

use crate::analysis::LintReport;
use crate::buffer::BufferSnapshot;
use crate::engine::{CrashInfo, RunState, SimControl};
use crate::faults::{FaultInstallSummary, FaultPlan, FaultReport};
use crate::profile::ProfileReport;
use crate::queue::EventKind;
use crate::state::ComponentState;
use crate::time::VTime;

/// One-shot reply channel.
pub type Replier<T> = SyncSender<T>;

/// A request the engine loop can answer.
#[derive(Debug)]
pub enum SimQuery {
    /// The wiring map: which ports of which components attach to which
    /// connections (the paper's §VIII "map of how components are
    /// connected" improvement).
    Topology(Replier<Vec<TopologyEdge>>),
    /// Schedule a custom event for the named component in the next cycle —
    /// the paper's proposed "Schedule" button for event-driven simulators
    /// (§V-B). Replies whether the name resolved.
    ScheduleCustom(String, u64, Replier<bool>),
    /// Engine status: time, state, event and queue counts.
    Status(Replier<EngineStatus>),
    /// All registered components (flat; hierarchy is encoded in the names).
    ListComponents(Replier<Vec<ComponentInfo>>),
    /// One component's observable fields, by name.
    ComponentState(String, Replier<Option<ComponentStateDto>>),
    /// Fill levels of every live buffer (the buffer analyzer snapshot).
    Buffers(Replier<Vec<BufferSnapshot>>),
    /// Schedule a tick for the named component in the next cycle (the
    /// "Tick" button, Case Study 2). Replies whether the name resolved.
    TickComponent(String, Replier<bool>),
    /// Schedule a tick for every component (the "Kick Start" button).
    /// Replies with the number of components woken.
    KickStart(Replier<usize>),
    /// Turn simulator profiling collection on or off.
    SetProfiling(bool),
    /// Snapshot the simulator profile.
    Profile(Replier<ProfileReport>),
    /// Turn the recent-event trace ring on or off.
    SetTracing(bool),
    /// The most recent `n` dispatched events (requires tracing on).
    Trace(usize, Replier<Vec<TraceRecord>>),
    /// Run the topology lint + deadlock analysis
    /// ([`Simulation::analyze`](crate::Simulation::analyze)) against the
    /// live simulation.
    Analysis(Replier<LintReport>),
    /// Install a fault plan at runtime
    /// ([`Simulation::install_faults`](crate::Simulation::install_faults)).
    InstallFaults(FaultPlan, Replier<FaultInstallSummary>),
    /// Live status of the fault subsystem.
    Faults(Replier<FaultReport>),
    /// Turn per-component last-activity stamps on or off (the watchdog's
    /// "who went quiet" signal).
    SetActivityStamps(bool),
    /// Per-component last-activity stamps (empty while stamps are off).
    Activity(Replier<Vec<ActivityStamp>>),
    /// End an interactive run.
    Terminate,
}

/// One component's last-dispatch stamp.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ActivityStamp {
    /// Hierarchical component name.
    pub component: String,
    /// Virtual time (ps) of the component's most recent event, or `None`
    /// if it has not been dispatched since stamps were enabled.
    pub last_event_ps: Option<u64>,
}

/// One dispatched event in the trace view.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceRecord {
    /// When the event fired.
    pub time: VTime,
    /// The component it was dispatched to.
    pub component: String,
    /// What it asked the component to do.
    pub kind: EventKind,
}

/// Engine status reported to the monitor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EngineStatus {
    /// Current virtual time.
    pub now: VTime,
    /// Run state at the time of the query.
    pub state: RunState,
    /// Total events dispatched since simulation start.
    pub events: u64,
    /// Events currently queued.
    pub queue_len: usize,
    /// Registered components.
    pub components: usize,
    /// Live monitorable buffers.
    pub live_buffers: usize,
}

/// One edge of the wiring map: a component's port attached to a
/// connection.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TopologyEdge {
    /// The connection's component name.
    pub connection: String,
    /// The attached component's name.
    pub component: String,
    /// The attached port's name.
    pub port: String,
}

/// Identity of one component in the component tree.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ComponentInfo {
    /// Hierarchical name, e.g. `GPU[0].SA[3].L1VCache[1]`.
    pub name: String,
    /// Component type label.
    pub kind: String,
}

/// A serialized component snapshot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ComponentStateDto {
    /// Hierarchical name.
    pub name: String,
    /// Component type label.
    pub kind: String,
    /// Observable fields.
    pub state: ComponentState,
}

/// Why a query failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryError {
    /// The simulation thread is gone (dropped or panicked).
    Disconnected,
    /// No reply within the client's timeout — the engine is stuck inside a
    /// single event or the machine is heavily loaded.
    Timeout,
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::Disconnected => write!(f, "simulation is no longer running"),
            QueryError::Timeout => write!(f, "simulation did not reply in time"),
        }
    }
}

impl std::error::Error for QueryError {}

/// A cloneable, `Send` handle for querying and controlling a running
/// simulation from another thread.
///
/// Obtained from [`Simulation::client`](crate::Simulation::client). This is
/// what the RTM web server holds.
#[derive(Debug, Clone)]
pub struct QueryClient {
    tx: Sender<SimQuery>,
    ctrl: Arc<SimControl>,
    timeout: Duration,
}

impl QueryClient {
    pub(crate) fn new(tx: Sender<SimQuery>, ctrl: Arc<SimControl>) -> Self {
        QueryClient {
            tx,
            ctrl,
            timeout: Duration::from_secs(5),
        }
    }

    /// Sets the per-request reply timeout (default 5 s).
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self
    }

    /// Puts `q` on the engine channel, keeping the control block's
    /// pending-query counter in sync so the run loop knows to drain.
    fn send(&self, q: SimQuery) -> Result<(), QueryError> {
        self.ctrl.note_query_sent();
        self.tx.send(q).map_err(|_| {
            self.ctrl.note_query_done();
            QueryError::Disconnected
        })
    }

    fn request<T>(&self, make: impl FnOnce(Replier<T>) -> SimQuery) -> Result<T, QueryError> {
        let (rtx, rrx) = sync_channel(1);
        self.send(make(rtx))?;
        rrx.recv_timeout(self.timeout).map_err(|e| match e {
            std::sync::mpsc::RecvTimeoutError::Timeout => QueryError::Timeout,
            std::sync::mpsc::RecvTimeoutError::Disconnected => QueryError::Disconnected,
        })
    }

    /// Engine status (blocks for the engine's reply).
    ///
    /// # Errors
    ///
    /// [`QueryError`] when the simulation is gone or unresponsive.
    pub fn status(&self) -> Result<EngineStatus, QueryError> {
        self.request(SimQuery::Status)
    }

    /// All registered components.
    ///
    /// # Errors
    ///
    /// [`QueryError`] when the simulation is gone or unresponsive.
    pub fn components(&self) -> Result<Vec<ComponentInfo>, QueryError> {
        self.request(SimQuery::ListComponents)
    }

    /// The wiring map (ports ↔ connections).
    ///
    /// # Errors
    ///
    /// [`QueryError`] when the simulation is gone or unresponsive.
    pub fn topology(&self) -> Result<Vec<TopologyEdge>, QueryError> {
        self.request(SimQuery::Topology)
    }

    /// Schedules a custom event for the named component in the next cycle
    /// (the event-driven "Schedule" button). Returns whether the component
    /// exists.
    ///
    /// # Errors
    ///
    /// [`QueryError`] when the simulation is gone or unresponsive.
    pub fn schedule_custom(&self, name: &str, code: u64) -> Result<bool, QueryError> {
        self.request(|r| SimQuery::ScheduleCustom(name.to_owned(), code, r))
    }

    /// One component's current state, or `None` for an unknown name.
    ///
    /// # Errors
    ///
    /// [`QueryError`] when the simulation is gone or unresponsive.
    pub fn component_state(&self, name: &str) -> Result<Option<ComponentStateDto>, QueryError> {
        self.request(|r| SimQuery::ComponentState(name.to_owned(), r))
    }

    /// Fill levels of every live buffer.
    ///
    /// # Errors
    ///
    /// [`QueryError`] when the simulation is gone or unresponsive.
    pub fn buffers(&self) -> Result<Vec<BufferSnapshot>, QueryError> {
        self.request(SimQuery::Buffers)
    }

    /// Schedules a tick for the named component in the next cycle.
    /// Returns whether the component exists.
    ///
    /// # Errors
    ///
    /// [`QueryError`] when the simulation is gone or unresponsive.
    pub fn tick_component(&self, name: &str) -> Result<bool, QueryError> {
        self.request(|r| SimQuery::TickComponent(name.to_owned(), r))
    }

    /// Schedules a tick for every component; returns how many were woken.
    ///
    /// # Errors
    ///
    /// [`QueryError`] when the simulation is gone or unresponsive.
    pub fn kick_start(&self) -> Result<usize, QueryError> {
        self.request(SimQuery::KickStart)
    }

    /// Turns simulator profiling on or off (fire-and-forget).
    ///
    /// # Errors
    ///
    /// [`QueryError::Disconnected`] when the simulation is gone.
    pub fn set_profiling(&self, on: bool) -> Result<(), QueryError> {
        self.send(SimQuery::SetProfiling(on))
    }

    /// Snapshot of the simulator profile.
    ///
    /// # Errors
    ///
    /// [`QueryError`] when the simulation is gone or unresponsive.
    pub fn profile(&self) -> Result<ProfileReport, QueryError> {
        self.request(SimQuery::Profile)
    }

    /// Turns the recent-event trace on or off (fire-and-forget).
    ///
    /// # Errors
    ///
    /// [`QueryError::Disconnected`] when the simulation is gone.
    pub fn set_tracing(&self, on: bool) -> Result<(), QueryError> {
        self.send(SimQuery::SetTracing(on))
    }

    /// The most recent `n` dispatched events (empty unless tracing is on).
    ///
    /// # Errors
    ///
    /// [`QueryError`] when the simulation is gone or unresponsive.
    pub fn trace(&self, n: usize) -> Result<Vec<TraceRecord>, QueryError> {
        self.request(|r| SimQuery::Trace(n, r))
    }

    /// Runs the topology lint + deadlock analysis on the live simulation
    /// (see [`crate::analysis`]).
    ///
    /// # Errors
    ///
    /// [`QueryError`] when the simulation is gone or unresponsive.
    pub fn analysis(&self) -> Result<LintReport, QueryError> {
        self.request(SimQuery::Analysis)
    }

    /// Installs a fault plan on the running simulation, returning how its
    /// rules bound to injection sites.
    ///
    /// # Errors
    ///
    /// [`QueryError`] when the simulation is gone or unresponsive.
    pub fn install_faults(&self, plan: FaultPlan) -> Result<FaultInstallSummary, QueryError> {
        self.request(|r| SimQuery::InstallFaults(plan, r))
    }

    /// Live status of the fault subsystem.
    ///
    /// # Errors
    ///
    /// [`QueryError`] when the simulation is gone or unresponsive.
    pub fn faults(&self) -> Result<FaultReport, QueryError> {
        self.request(SimQuery::Faults)
    }

    /// Turns per-component activity stamps on or off (fire-and-forget).
    ///
    /// # Errors
    ///
    /// [`QueryError::Disconnected`] when the simulation is gone.
    pub fn set_activity_stamps(&self, on: bool) -> Result<(), QueryError> {
        self.send(SimQuery::SetActivityStamps(on))
    }

    /// Per-component last-activity stamps (empty while stamps are off).
    ///
    /// # Errors
    ///
    /// [`QueryError`] when the simulation is gone or unresponsive.
    pub fn activity(&self) -> Result<Vec<ActivityStamp>, QueryError> {
        self.request(SimQuery::Activity)
    }

    /// Details of a caught handler panic, if any (lock-free; works even
    /// when the engine thread is past serving queries).
    pub fn crash_info(&self) -> Option<CrashInfo> {
        self.ctrl.crash_info()
    }

    /// Ends an interactive run (fire-and-forget).
    ///
    /// # Errors
    ///
    /// [`QueryError::Disconnected`] when the simulation is gone.
    pub fn terminate(&self) -> Result<(), QueryError> {
        self.send(SimQuery::Terminate)
    }

    /// Requests a pause (lock-free; takes effect at the next event).
    pub fn pause(&self) {
        self.ctrl.pause();
    }

    /// Resumes a paused simulation (lock-free).
    pub fn resume(&self) {
        self.ctrl.resume();
    }

    /// Asks the run loop to return (lock-free).
    pub fn request_stop(&self) {
        self.ctrl.request_stop();
    }

    /// Current virtual time (lock-free, no engine round-trip).
    pub fn now(&self) -> VTime {
        self.ctrl.now()
    }

    /// Current run state (lock-free, no engine round-trip).
    pub fn run_state(&self) -> RunState {
        self.ctrl.state()
    }

    /// Sends `()` on `tx` after every run-state transition (see
    /// [`SimControl::watch_state`]).
    pub fn watch_state(&self, tx: Sender<()>) {
        self.ctrl.watch_state(tx);
    }

    /// Total events dispatched (lock-free, no engine round-trip).
    pub fn events_handled(&self) -> u64 {
        self.ctrl.events_handled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_error_displays() {
        assert_eq!(
            QueryError::Disconnected.to_string(),
            "simulation is no longer running"
        );
        assert_eq!(
            QueryError::Timeout.to_string(),
            "simulation did not reply in time"
        );
    }

    #[test]
    fn client_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<QueryClient>();
    }

    #[test]
    fn dtos_serialize_round_trip() {
        let info = ComponentInfo {
            name: "GPU[0].CU[1]".into(),
            kind: "ComputeUnit".into(),
        };
        let json = serde_json::to_string(&info).unwrap();
        let back: ComponentInfo = serde_json::from_str(&json).unwrap();
        assert_eq!(back, info);
    }
}
