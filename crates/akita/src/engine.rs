//! The simulation engine: event loop, scheduling context, and the shared
//! control block that the monitoring thread reads and writes.
//!
//! The engine loop embodies the paper's three low-overhead design choices
//! (§VII): monitoring work happens *on demand only* (a query channel drained
//! between events), serialization is *fine-grained* (one component or one
//! buffer snapshot per request), and the monitor itself runs on a
//! *dedicated thread* — the simulation thread pays only a couple of
//! predictable branches per event.
//!
//! # Hot path (see DESIGN.md, "Engine hot path")
//!
//! Per dispatched event the engine neither sifts a heap nor hashes:
//!
//! - the [`EventQueue`] keeps one FIFO bucket per distinct pending time
//!   over a single event slab; push appends to a bucket near the front,
//!   pop takes the front bucket's head, and the order is exactly a stable
//!   `(time, seq)` heap's;
//! - tick dedup ([`TickDedup`]) keeps each component's pending tick times
//!   in two inline slots plus a short per-component list, scanned
//!   linearly — exact, so no tick is ever dropped or duplicated;
//! - the query channel is only drained when [`SimControl`]'s pending-query
//!   counter (bumped by [`QueryClient`]) is non-zero;
//! - the `now`/`events` atomics are published every
//!   [`EngineTuning::publish_batch`] events, with an *exact* flush whenever
//!   a query is served, the engine pauses/idles, or a run returns — so the
//!   monitor never observes a stale count when it actually looks.
//!
//! The last two are [`EngineTuning`] knobs; every setting dispatches the
//! same event sequence.

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

use serde::{Deserialize, Serialize};
use std::sync::mpsc::{channel, Receiver, Sender};

use crate::buffer::BufferRegistry;
use crate::component::Component;
use crate::conn::Connection;
use crate::faults::{CompFaultSpec, FaultHub, FaultInstallSummary, FaultPlan, FaultReport};
use crate::hook::Hook;
use crate::ids::ComponentId;
use crate::port::Port;
use crate::profile;
use crate::query::{
    ActivityStamp, ComponentInfo, ComponentStateDto, EngineStatus, QueryClient, SimQuery,
    TopologyEdge, TraceRecord,
};
use crate::queue::{EventKind, EventQueue};
use crate::time::VTime;

/// Hot-path tuning knobs for the engine loop.
///
/// The default ([`EngineTuning::fast`]) polls the query channel only when a
/// query is pending and publishes the lock-free `now`/`events` view in
/// batches. Every configuration dispatches the *same* event sequence; only
/// constant factors differ.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineTuning {
    /// Drain the query channel only when a query is actually pending.
    pub demand_polling: bool,
    /// Publish the `now`/`events` atomics every N events (min 1). Exact
    /// flushes still happen on every query, pause, idle, and run return.
    pub publish_batch: u64,
}

impl EngineTuning {
    /// Every fast path on (the default).
    pub const fn fast() -> Self {
        EngineTuning {
            demand_polling: true,
            publish_batch: 1024,
        }
    }
}

impl Default for EngineTuning {
    fn default() -> Self {
        EngineTuning::fast()
    }
}

/// Sentinel for an empty tick-dedup slot ([`VTime::MAX`] is reserved as an
/// "infinitely far" marker and never a real tick time).
const NO_TICK: u64 = u64::MAX;

/// Bookkeeping that guarantees at most one queued `Tick` per
/// `(component, time)` pair.
///
/// Each component keeps the times of its pending ticks in two inline
/// slots — the common `{now, next-cycle}` pair — and any further ones in a
/// short list scanned linearly. A component has few pending tick times at
/// once (about a connection's latency divided by its clock period), so
/// the scan is shorter than a hash. The record is exact: a dropped or
/// duplicated tick would change the simulation.
#[derive(Debug, Default)]
struct TickDedup {
    comps: Vec<PendingTicks>,
}

/// One component's pending tick times (picoseconds).
#[derive(Debug)]
struct PendingTicks {
    slots: [u64; 2],
    more: Vec<u64>,
}

impl Default for PendingTicks {
    fn default() -> Self {
        PendingTicks {
            slots: [NO_TICK; 2],
            more: Vec::new(),
        }
    }
}

impl TickDedup {
    /// Records a pending tick; returns `false` when one is already queued
    /// for this exact `(component, time)`.
    #[inline]
    fn insert(&mut self, component: ComponentId, t: VTime) -> bool {
        let i = component.index();
        let t = t.ps();
        debug_assert_ne!(t, NO_TICK, "VTime::MAX is not a schedulable tick time");
        if i >= self.comps.len() {
            self.comps.resize_with(i + 1, PendingTicks::default);
        }
        let p = &mut self.comps[i];
        if p.slots[0] == t || p.slots[1] == t || p.more.contains(&t) {
            return false;
        }
        if p.slots[0] == NO_TICK {
            p.slots[0] = t;
        } else if p.slots[1] == NO_TICK {
            p.slots[1] = t;
        } else {
            p.more.push(t);
        }
        true
    }

    /// Clears the pending record after the tick is dispatched.
    #[inline]
    fn remove(&mut self, component: ComponentId, t: VTime) {
        let t = t.ps();
        let Some(p) = self.comps.get_mut(component.index()) else {
            return;
        };
        if p.slots[0] == t {
            p.slots[0] = NO_TICK;
        } else if p.slots[1] == t {
            p.slots[1] = NO_TICK;
        } else if let Some(k) = p.more.iter().position(|&m| m == t) {
            p.more.swap_remove(k);
        }
    }
}

/// What the engine loop is currently doing, as published to the monitor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[repr(u8)]
pub enum RunState {
    /// Processing events.
    Running = 0,
    /// Paused by the user; serving monitor queries only.
    Paused = 1,
    /// Event queue empty in interactive mode: the simulation has either
    /// finished or deadlocked; still serving monitor queries.
    Idle = 2,
    /// The run loop returned.
    Finished = 3,
    /// A component handler panicked under [`Simulation::run_caught`]; the
    /// engine may keep serving post-mortem queries
    /// ([`Simulation::serve_post_mortem`]).
    Crashed = 4,
}

impl RunState {
    fn from_u8(v: u8) -> RunState {
        match v {
            0 => RunState::Running,
            1 => RunState::Paused,
            2 => RunState::Idle,
            4 => RunState::Crashed,
            _ => RunState::Finished,
        }
    }
}

/// What went wrong when a handler panicked, preserved for post-mortem
/// monitoring (`GET /api/status` keeps answering after a crash).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CrashInfo {
    /// The panic payload, when it was a string.
    pub message: String,
    /// Name of the component whose handler panicked.
    pub component: String,
    /// Virtual time of the fatal event.
    pub now: VTime,
    /// Events dispatched before the crash.
    pub events: u64,
}

/// Lock-free state shared between the simulation thread and monitor thread.
///
/// The simulation publishes virtual time and run state; the monitor flips
/// pause/stop flags (the Simulation Controls view, paper Fig 2 C).
#[derive(Debug, Default)]
pub struct SimControl {
    pause: AtomicBool,
    stop: AtomicBool,
    state: AtomicU8,
    now_ps: AtomicU64,
    events: AtomicU64,
    /// Queries sent by [`QueryClient`]s but not yet served. The run loop
    /// skips the channel `try_recv` entirely while this is zero — the
    /// "no monitor attached" fast path.
    pending_queries: AtomicU64,
    /// Details of a handler panic caught by [`Simulation::run_caught`].
    /// Readable without the engine thread's cooperation, so a monitor can
    /// report the crash even if post-mortem serving is unavailable.
    crash: Mutex<Option<CrashInfo>>,
    /// Woken on every run-state transition (never per event), so a
    /// watcher such as the stall watchdog reacts to the engine going idle
    /// at once instead of polling for it. Closed channels are pruned on
    /// the next transition.
    state_watchers: Mutex<Vec<Sender<()>>>,
}

impl SimControl {
    /// Requests the engine pause at the next event boundary.
    pub fn pause(&self) {
        self.pause.store(true, Ordering::Release);
    }

    /// Lets a paused engine continue.
    pub fn resume(&self) {
        self.pause.store(false, Ordering::Release);
    }

    /// Whether a pause is requested.
    pub fn is_paused(&self) -> bool {
        self.pause.load(Ordering::Acquire)
    }

    /// Asks the run loop to return as soon as possible.
    pub fn request_stop(&self) {
        self.stop.store(true, Ordering::Release);
    }

    /// Whether a stop is requested.
    pub fn stop_requested(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }

    /// Current virtual time (updated once per event).
    pub fn now(&self) -> VTime {
        VTime::from_ps(self.now_ps.load(Ordering::Relaxed))
    }

    /// Current run state.
    pub fn state(&self) -> RunState {
        RunState::from_u8(self.state.load(Ordering::Relaxed))
    }

    /// Total events dispatched so far.
    pub fn events_handled(&self) -> u64 {
        self.events.load(Ordering::Relaxed)
    }

    fn publish(&self, now: VTime) {
        self.now_ps.store(now.ps(), Ordering::Relaxed);
    }

    /// Publishes the run state; a transition wakes every state watcher.
    /// Called on state changes only (run start/end, pause, idle), never
    /// per event.
    fn set_state(&self, s: RunState) {
        if self.state.swap(s as u8, Ordering::Relaxed) != s as u8 {
            self.state_watchers
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .retain(|tx| tx.send(()).is_ok());
        }
    }

    /// Sends `()` on `tx` after every future run-state transition, until
    /// the receiver is dropped. The channel's happens-before edge makes
    /// the new state visible to [`SimControl::state`] on receipt.
    pub fn watch_state(&self, tx: Sender<()>) {
        self.state_watchers
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(tx);
    }

    /// A [`QueryClient`] is about to put a query on the channel.
    pub(crate) fn note_query_sent(&self) {
        self.pending_queries.fetch_add(1, Ordering::Release);
    }

    /// A query was served (or its send failed after being counted).
    pub(crate) fn note_query_done(&self) {
        self.pending_queries.fetch_sub(1, Ordering::Release);
    }

    fn has_pending_queries(&self) -> bool {
        self.pending_queries.load(Ordering::Acquire) != 0
    }

    /// Details of a caught handler panic, if one occurred. Lock-free for
    /// the engine; the monitor takes a short poison-tolerant lock.
    pub fn crash_info(&self) -> Option<CrashInfo> {
        self.crash
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    fn set_crashed(&self, info: CrashInfo) {
        *self.crash.lock().unwrap_or_else(PoisonError::into_inner) = Some(info);
    }
}

/// Scheduling context handed to components during [`Component::tick`].
#[derive(Debug)]
pub struct Ctx<'a> {
    pub(crate) sched: &'a mut Scheduler,
}

impl Ctx<'_> {
    /// Current virtual time.
    pub fn now(&self) -> VTime {
        self.sched.now
    }

    /// The component currently being dispatched.
    pub fn current(&self) -> ComponentId {
        self.sched.current
    }

    /// Schedules a tick for `component` at the current time, waking it if
    /// asleep.
    pub fn wake(&mut self, component: ComponentId) {
        let t = self.sched.now;
        self.sched.schedule_tick(component, t);
    }

    /// Schedules a tick for `component` at time `t` (clamped to now).
    pub fn schedule_tick(&mut self, component: ComponentId, t: VTime) {
        self.sched.schedule_tick(component, t);
    }

    /// Schedules a custom event for `component` at time `t`.
    pub fn schedule_custom(&mut self, component: ComponentId, code: u64, t: VTime) {
        let t = t.max(self.sched.now);
        self.sched.queue.push(t, component, EventKind::Custom(code));
    }
}

/// The event queue plus tick bookkeeping.
#[derive(Debug)]
pub(crate) struct Scheduler {
    queue: EventQueue,
    now: VTime,
    current: ComponentId,
    pending_ticks: TickDedup,
}

impl Scheduler {
    fn new() -> Self {
        Scheduler {
            queue: EventQueue::new(),
            now: VTime::ZERO,
            current: ComponentId::from_index(0),
            pending_ticks: TickDedup::default(),
        }
    }

    fn schedule_tick(&mut self, component: ComponentId, t: VTime) {
        let t = t.max(self.now);
        if self.pending_ticks.insert(component, t) {
            self.queue.push(t, component, EventKind::Tick);
        }
    }
}

/// Why [`Simulation::run`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StopReason {
    /// The event queue drained: the simulation completed (or deadlocked —
    /// the engine cannot tell the two apart; see paper task T3).
    Completed,
    /// [`SimControl::request_stop`] or [`SimQuery::Terminate`] ended the run.
    Stopped,
    /// A `run_until` deadline was reached with events still pending.
    DeadlineReached,
    /// A component handler panicked and [`Simulation::run_caught`] caught
    /// the unwind.
    Crashed,
}

/// Statistics from one run of the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RunSummary {
    /// Events dispatched during this call.
    pub events: u64,
    /// Virtual time when the run ended.
    pub end_time: VTime,
    /// Why the run ended.
    pub reason: StopReason,
}

/// A complete simulation: engine, component registry, and monitoring hooks.
///
/// See [`Component`] for a complete usage example.
pub struct Simulation {
    sched: Scheduler,
    components: Vec<Rc<RefCell<dyn Component>>>,
    by_name: HashMap<String, ComponentId>,
    buffers: BufferRegistry,
    ctrl: Arc<SimControl>,
    query_tx: Sender<SimQuery>,
    query_rx: Receiver<SimQuery>,
    /// Events between query-channel polls (1 = poll every event).
    query_poll_interval: u64,
    tuning: EngineTuning,
    /// Exact events dispatched (engine-thread view; the atomic in `ctrl`
    /// lags by at most `tuning.publish_batch` between exact flushes).
    events_total: u64,
    /// `events_total` at the last atomic flush.
    events_published: u64,
    terminate_requested: bool,
    topology: Vec<TopologyEdge>,
    /// Registered connections by component id, for topology analysis.
    connections: std::collections::BTreeMap<ComponentId, Rc<RefCell<dyn Connection>>>,
    /// Recent-event ring buffer (the trace view); empty when disabled.
    trace: std::collections::VecDeque<(VTime, ComponentId, EventKind)>,
    trace_enabled: bool,
    trace_cap: usize,
    hooks: Vec<Rc<RefCell<dyn Hook>>>,
    /// Handle to the fault hub carried by `buffers`; the engine publishes
    /// virtual time into it and resolves component-level rules.
    fhub: FaultHub,
    /// Freeze/slow rules resolved to component ids, rebuilt on every
    /// [`Simulation::install_faults`].
    comp_faults: Vec<Option<CompFaultEntry>>,
    /// True when any fault rule (site or component) is armed — the single
    /// per-event branch fault-free runs pay.
    faults_on: bool,
    /// Per-component last-dispatch virtual time (ps), `u64::MAX` = never;
    /// empty while stamps are off. Feeds the stall watchdog.
    activity: Vec<u64>,
    activity_on: bool,
}

#[derive(Clone)]
struct CompFaultEntry {
    name: String,
    spec: CompFaultSpec,
}

impl Default for Simulation {
    fn default() -> Self {
        Simulation::new()
    }
}

impl Simulation {
    /// Creates an empty simulation.
    pub fn new() -> Self {
        let (query_tx, query_rx) = channel();
        let buffers = BufferRegistry::new();
        let fhub = buffers.faults().clone();
        Simulation {
            sched: Scheduler::new(),
            components: Vec::new(),
            by_name: HashMap::new(),
            buffers,
            ctrl: Arc::new(SimControl::default()),
            query_tx,
            query_rx,
            query_poll_interval: 1,
            tuning: EngineTuning::fast(),
            events_total: 0,
            events_published: 0,
            terminate_requested: false,
            topology: Vec::new(),
            connections: std::collections::BTreeMap::new(),
            trace: std::collections::VecDeque::new(),
            trace_enabled: false,
            trace_cap: 1024,
            hooks: Vec::new(),
            fhub,
            comp_faults: Vec::new(),
            faults_on: false,
            activity: Vec::new(),
            activity_on: false,
        }
    }

    /// Sets how many events are dispatched between monitor-query polls.
    ///
    /// The default of 1 matches the paper's design; with demand polling
    /// (see [`EngineTuning`]) each poll is a single relaxed atomic load
    /// unless a query is actually waiting, so larger values exist only for
    /// the ablation benchmarks.
    pub fn set_query_poll_interval(&mut self, every_n_events: u64) {
        self.query_poll_interval = every_n_events.max(1);
    }

    /// Reconfigures the engine hot path (safe at any point).
    pub fn set_tuning(&mut self, tuning: EngineTuning) {
        self.tuning = EngineTuning {
            publish_batch: tuning.publish_batch.max(1),
            ..tuning
        };
    }

    /// The active hot-path configuration.
    pub fn tuning(&self) -> EngineTuning {
        self.tuning
    }

    /// Registers a component, assigning its [`ComponentId`].
    ///
    /// Returns the id and a shared handle to the concrete component so
    /// builders can keep wiring it up.
    ///
    /// # Panics
    ///
    /// Panics if another component already uses the same name.
    pub fn register<C: Component + 'static>(
        &mut self,
        component: C,
    ) -> (ComponentId, Rc<RefCell<C>>) {
        let id = ComponentId::from_index(self.components.len());
        let rc = Rc::new(RefCell::new(component));
        rc.borrow_mut().base_mut().id = id;
        let name = rc.borrow().name().to_owned();
        let prev = self.by_name.insert(name.clone(), id);
        assert!(prev.is_none(), "duplicate component name: {name}");
        self.components
            .push(Rc::clone(&rc) as Rc<RefCell<dyn Component>>);
        (id, rc)
    }

    /// Attaches `port` to `conn` in both directions and records the port's
    /// owner for wake-ups.
    ///
    /// # Panics
    ///
    /// Panics if the port is already attached to a connection.
    pub fn connect<C: Connection + 'static>(
        &mut self,
        conn: &Rc<RefCell<C>>,
        port: &Port,
        owner: ComponentId,
    ) {
        port.set_owner(owner);
        let conn_id = conn.borrow().id();
        conn.borrow_mut().attach(port);
        port.attach_conn(Rc::clone(conn) as Rc<RefCell<dyn Connection>>, conn_id);
        self.connections
            .entry(conn_id)
            .or_insert_with(|| Rc::clone(conn) as Rc<RefCell<dyn Connection>>);
        self.topology.push(TopologyEdge {
            connection: conn.borrow().name().to_owned(),
            component: self.components[owner.index()].borrow().name().to_owned(),
            port: port.name(),
        });
    }

    /// The wiring recorded by [`Simulation::connect`].
    pub fn topology(&self) -> &[TopologyEdge] {
        &self.topology
    }

    /// The registry new [`crate::Buffer`]s should join to be monitorable.
    pub fn buffer_registry(&self) -> BufferRegistry {
        self.buffers.clone()
    }

    /// The shared control block (pause/stop/time/state).
    pub fn control(&self) -> Arc<SimControl> {
        Arc::clone(&self.ctrl)
    }

    /// A thread-safe client for monitor queries against this simulation.
    pub fn client(&self) -> QueryClient {
        QueryClient::new(self.query_tx.clone(), Arc::clone(&self.ctrl))
    }

    /// Current virtual time.
    pub fn now(&self) -> VTime {
        self.sched.now
    }

    /// Number of registered components.
    pub fn component_count(&self) -> usize {
        self.components.len()
    }

    /// Looks up a component by hierarchical name.
    pub fn component_id(&self, name: &str) -> Option<ComponentId> {
        self.by_name.get(name).copied()
    }

    /// Shared handle to a registered component.
    pub fn component(&self, id: ComponentId) -> Rc<RefCell<dyn Component>> {
        Rc::clone(&self.components[id.index()])
    }

    /// Schedules a tick for `component` at `t` — used to kick off the
    /// initial activity after building a simulation.
    pub fn wake_at(&mut self, component: ComponentId, t: VTime) {
        self.sched.schedule_tick(component, t);
    }

    /// Installs a dispatch [`Hook`], returning a shared handle so its
    /// state stays readable after runs.
    pub fn add_hook<H: Hook + 'static>(&mut self, hook: H) -> Rc<RefCell<H>> {
        let rc = Rc::new(RefCell::new(hook));
        self.hooks.push(Rc::clone(&rc) as Rc<RefCell<dyn Hook>>);
        rc
    }

    /// A scheduling context outside event dispatch (for driver-style code
    /// that injects work between runs).
    pub fn ctx(&mut self) -> Ctx<'_> {
        Ctx {
            sched: &mut self.sched,
        }
    }

    // --- Fault injection ----------------------------------------------

    /// Installs a fault plan, arming its rules. Rules append to any plan
    /// already installed; component-level rules (freeze/slow) bind to the
    /// components registered at call time.
    pub fn install_faults(&mut self, plan: &FaultPlan) -> FaultInstallSummary {
        let known: Vec<&str> = self.by_name.keys().map(String::as_str).collect();
        let summary = self.fhub.install(plan, &known);
        self.rebind_comp_faults();
        summary
    }

    /// Disarms and removes every installed fault rule.
    pub fn clear_faults(&mut self) {
        self.fhub.clear();
        self.rebind_comp_faults();
    }

    /// Live status of the fault subsystem.
    pub fn fault_report(&self) -> FaultReport {
        self.fhub.set_now_ps(self.sched.now.ps());
        self.fhub.report()
    }

    /// The simulation's fault hub (shared with its [`BufferRegistry`]).
    pub fn fault_hub(&self) -> &FaultHub {
        &self.fhub
    }

    fn rebind_comp_faults(&mut self) {
        self.comp_faults = (0..self.components.len()).map(|_| None).collect();
        for (name, spec) in self.fhub.component_specs() {
            if !spec.is_some() {
                continue;
            }
            if let Some(id) = self.by_name.get(&name) {
                self.comp_faults[id.index()] = Some(CompFaultEntry { name, spec });
            }
        }
        self.faults_on = self.fhub.is_enabled() || self.comp_faults.iter().any(Option::is_some);
    }

    // --- Activity stamps (stall-watchdog support) ---------------------

    /// Enables or disables per-component last-dispatch stamps. Costs one
    /// vector store per event while on; the watchdog turns it on to name
    /// the components that went quiet before a stall.
    pub fn set_activity_stamps(&mut self, on: bool) {
        self.activity_on = on;
        self.activity = if on {
            vec![u64::MAX; self.components.len()]
        } else {
            Vec::new()
        };
    }

    /// Per-component last-dispatch stamps (`None` = no event since stamps
    /// were enabled). Empty while stamps are off.
    pub fn activity_stamps(&self) -> Vec<ActivityStamp> {
        if !self.activity_on {
            return Vec::new();
        }
        self.components
            .iter()
            .enumerate()
            .map(|(i, c)| ActivityStamp {
                component: c.borrow().name().to_owned(),
                last_event_ps: match self.activity.get(i) {
                    Some(&ps) if ps != u64::MAX => Some(ps),
                    _ => None,
                },
            })
            .collect()
    }

    // --- Accessors for the topology/deadlock analyzer -----------------

    pub(crate) fn components_slice(&self) -> &[Rc<RefCell<dyn Component>>] {
        &self.components
    }

    pub(crate) fn connections_map(
        &self,
    ) -> &std::collections::BTreeMap<ComponentId, Rc<RefCell<dyn Connection>>> {
        &self.connections
    }

    pub(crate) fn scheduled_set(&self) -> HashSet<ComponentId> {
        self.sched.queue.scheduled_components().collect()
    }

    pub(crate) fn queue_is_empty(&self) -> bool {
        self.sched.queue.is_empty()
    }

    /// Makes the lock-free monitor view (`now`, `events`) exact.
    ///
    /// Called every `publish_batch` events, and — so the monitor never
    /// observes staleness when it actually looks — before every served
    /// query, on pause/idle entry, and when a run returns.
    fn flush_publish(&mut self) {
        self.events_published = self.events_total;
        self.ctrl.publish(self.sched.now);
        self.ctrl.events.store(self.events_total, Ordering::Relaxed);
    }

    fn dispatch(&mut self, ev: crate::queue::Ev) {
        self.sched.now = ev.time;
        self.sched.current = ev.component;
        self.events_total += 1;
        if self.events_total - self.events_published >= self.tuning.publish_batch {
            self.flush_publish();
        }
        if self.trace_enabled {
            if self.trace.len() >= self.trace_cap {
                self.trace.pop_front();
            }
            self.trace.push_back((ev.time, ev.component, ev.kind));
        }
        if ev.kind == EventKind::Tick {
            self.sched.pending_ticks.remove(ev.component, ev.time);
        }
        if self.activity_on {
            let i = ev.component.index();
            if i >= self.activity.len() {
                self.activity.resize(i + 1, u64::MAX);
            }
            self.activity[i] = ev.time.ps();
        }
        let mut slow_factor = None;
        if self.faults_on {
            // Publish virtual time so buffer-level stuck-full windows can
            // be evaluated without a Ctx in hand.
            self.fhub.set_now_ps(ev.time.ps());
            if let Some(Some(entry)) = self.comp_faults.get(ev.component.index()) {
                if let Some((from, until)) = entry.spec.freeze {
                    let t = ev.time.ps();
                    if t >= from && t < until {
                        // Swallow the event; a finite freeze reschedules
                        // the tick at thaw time so the component resumes.
                        let name = entry.name.clone();
                        if ev.kind == EventKind::Tick && until != u64::MAX {
                            self.sched
                                .schedule_tick(ev.component, VTime::from_ps(until));
                        }
                        self.fhub.note_comp_injections(&name, true, 1);
                        return;
                    }
                }
                slow_factor = entry.spec.slow_factor.filter(|f| *f > 1);
            }
        }
        let comp_rc = Rc::clone(&self.components[ev.component.index()]);
        if !self.hooks.is_empty() {
            let comp = comp_rc.borrow();
            for hook in &self.hooks {
                hook.borrow_mut().before_event(&ev, &*comp);
            }
        }
        let mut slow_applied = false;
        {
            let mut comp = comp_rc.borrow_mut();
            let _prof = profile::scope(comp.kind());
            let mut ctx = Ctx {
                sched: &mut self.sched,
            };
            match ev.kind {
                EventKind::Tick => {
                    let progress = comp.tick(&mut ctx);
                    if progress {
                        let next = match slow_factor {
                            // Stretch the tick period: the component keeps
                            // working, at 1/factor the rate.
                            Some(f) => {
                                slow_applied = true;
                                let period = comp.freq().period().ps();
                                VTime::from_ps(
                                    ev.time.ps().saturating_add(period.saturating_mul(f)),
                                )
                            }
                            None => comp.freq().cycle_after(ev.time),
                        };
                        ctx.schedule_tick(ev.component, next);
                    }
                }
                EventKind::Custom(code) => comp.handle_custom(code, &mut ctx),
            }
        }
        if slow_applied {
            if let Some(Some(entry)) = self.comp_faults.get(ev.component.index()) {
                let name = entry.name.clone();
                self.fhub.note_comp_injections(&name, false, 1);
            }
        }
        if !self.hooks.is_empty() {
            let comp = comp_rc.borrow();
            for hook in &self.hooks {
                hook.borrow_mut().after_event(&ev, &*comp);
            }
        }
    }

    /// Runs one event; returns `false` when the queue is empty.
    ///
    /// Single-stepping is a monitoring activity, so the lock-free view is
    /// flushed exactly after each step.
    pub fn step(&mut self) -> bool {
        match self.sched.queue.pop() {
            Some(ev) => {
                self.dispatch(ev);
                self.flush_publish();
                true
            }
            None => false,
        }
    }

    /// Runs until the event queue drains or a stop is requested.
    ///
    /// Monitor queries are served between events and while paused. The
    /// queue draining means the simulation completed *or* deadlocked; use
    /// [`Simulation::run_interactive`] to stay alive for post-mortem
    /// inspection instead.
    pub fn run(&mut self) -> RunSummary {
        self.run_inner(None, false)
    }

    /// Runs until virtual time `deadline`; events after the deadline stay
    /// queued.
    pub fn run_until(&mut self, deadline: VTime) -> RunSummary {
        self.run_inner(Some(deadline), false)
    }

    /// Runs like [`Simulation::run`], but when the event queue drains the
    /// engine enters the [`RunState::Idle`] state and keeps serving monitor
    /// queries (so a hang can be inspected, ticked, and kick-started —
    /// Case Study 2). Returns only on [`SimQuery::Terminate`] or
    /// [`SimControl::request_stop`].
    pub fn run_interactive(&mut self) -> RunSummary {
        self.run_inner(None, true)
    }

    /// Runs under `catch_unwind`: a panicking component handler ends the
    /// run with [`StopReason::Crashed`] instead of tearing down the thread
    /// (and with it, any attached monitor's engine access). The crash
    /// details land in [`SimControl::crash_info`] and the state becomes
    /// [`RunState::Crashed`]. Pass `interactive = true` for
    /// [`Simulation::run_interactive`] semantics on the non-crash path.
    ///
    /// Component state after a caught panic may be mid-mutation;
    /// post-mortem inspection via [`Simulation::serve_post_mortem`] is
    /// best-effort by design.
    pub fn run_caught(&mut self, interactive: bool) -> RunSummary {
        let start_events = self.events_total;
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.run_inner(None, interactive)
        }));
        match result {
            Ok(summary) => summary,
            Err(payload) => {
                // RefCell borrow flags were reset as the unwind dropped
                // their guards, so post-mortem queries can still borrow.
                self.flush_publish();
                let component = self
                    .components
                    .get(self.sched.current.index())
                    .map(|c| c.borrow().name().to_owned())
                    .unwrap_or_default();
                self.ctrl.set_crashed(CrashInfo {
                    message: panic_message(payload.as_ref()),
                    component,
                    now: self.sched.now,
                    events: self.events_total,
                });
                self.ctrl.set_state(RunState::Crashed);
                RunSummary {
                    events: self.events_total - start_events,
                    end_time: self.sched.now,
                    reason: StopReason::Crashed,
                }
            }
        }
    }

    /// Serves monitor queries after a crash (state pinned to
    /// [`RunState::Crashed`]) until [`SimQuery::Terminate`] or
    /// [`SimControl::request_stop`]. Each query is individually caught:
    /// one query tripping over inconsistent post-crash state doesn't end
    /// post-mortem serving for the rest.
    pub fn serve_post_mortem(&mut self) {
        self.flush_publish();
        self.ctrl.set_state(RunState::Crashed);
        loop {
            if self.ctrl.stop_requested() || self.terminate_requested {
                return;
            }
            if let Ok(q) = self.query_rx.recv_timeout(Duration::from_millis(20)) {
                let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    self.serve_query(q);
                }));
                self.ctrl.set_state(RunState::Crashed);
            }
        }
    }

    fn run_inner(&mut self, deadline: Option<VTime>, interactive: bool) -> RunSummary {
        let start_events = self.events_total;
        self.ctrl.set_state(RunState::Running);
        self.flush_publish();
        self.terminate_requested = false;
        let mut since_poll = 0u64;
        let reason = loop {
            if self.ctrl.stop_requested() || self.terminate_requested {
                break StopReason::Stopped;
            }
            if self.ctrl.is_paused() {
                self.paused_loop();
                continue;
            }
            since_poll += 1;
            if since_poll >= self.query_poll_interval {
                since_poll = 0;
                if !self.tuning.demand_polling || self.ctrl.has_pending_queries() {
                    self.drain_queries();
                }
            }
            if let Some(d) = deadline {
                if self.sched.queue.peek_time().is_some_and(|t| t > d) {
                    self.sched.now = d;
                    break StopReason::DeadlineReached;
                }
            }
            match self.sched.queue.pop() {
                Some(ev) => self.dispatch(ev),
                None => {
                    if interactive {
                        if self.idle_loop() {
                            continue;
                        }
                        break StopReason::Stopped;
                    }
                    break StopReason::Completed;
                }
            }
        };
        self.flush_publish();
        // A deadline leaves the simulation resumable — report Idle, not
        // Finished, so a monitor doesn't declare a live sim done.
        self.ctrl.set_state(match reason {
            StopReason::DeadlineReached => RunState::Idle,
            StopReason::Completed | StopReason::Stopped | StopReason::Crashed => RunState::Finished,
        });
        RunSummary {
            events: self.events_total - start_events,
            end_time: self.sched.now,
            reason,
        }
    }

    /// Serves queries while paused; returns when unpaused or stopping.
    fn paused_loop(&mut self) {
        self.flush_publish();
        self.ctrl.set_state(RunState::Paused);
        while self.ctrl.is_paused() && !self.ctrl.stop_requested() && !self.terminate_requested {
            if let Ok(q) = self.query_rx.recv_timeout(Duration::from_millis(20)) {
                self.serve_query(q);
            }
        }
        self.ctrl.set_state(RunState::Running);
    }

    /// Serves queries while the queue is empty. Returns `true` when new
    /// events appeared (e.g. an injected tick) and the run should continue.
    fn idle_loop(&mut self) -> bool {
        self.flush_publish();
        self.ctrl.set_state(RunState::Idle);
        loop {
            if self.ctrl.stop_requested() || self.terminate_requested {
                return false;
            }
            if !self.sched.queue.is_empty() {
                self.ctrl.set_state(RunState::Running);
                return true;
            }
            if let Ok(q) = self.query_rx.recv_timeout(Duration::from_millis(20)) {
                self.serve_query(q);
            }
        }
    }

    /// Drains all pending monitor queries without blocking.
    pub fn drain_queries(&mut self) {
        while let Ok(q) = self.query_rx.try_recv() {
            self.serve_query(q);
        }
    }

    fn serve_query(&mut self, q: SimQuery) {
        // Exact view before any answer: flush the amortized publishes so
        // the monitor's lock-free reads agree with the reply it receives,
        // and retire the pending-query count this request contributed.
        self.flush_publish();
        self.ctrl.note_query_done();
        match q {
            SimQuery::Status(reply) => {
                let _ = reply.send(EngineStatus {
                    now: self.sched.now,
                    state: self.ctrl.state(),
                    events: self.events_total,
                    queue_len: self.sched.queue.len(),
                    components: self.components.len(),
                    live_buffers: self.buffers.len(),
                });
            }
            SimQuery::ListComponents(reply) => {
                let list = self
                    .components
                    .iter()
                    .map(|c| {
                        let c = c.borrow();
                        ComponentInfo {
                            name: c.name().to_owned(),
                            kind: c.kind().to_owned(),
                        }
                    })
                    .collect();
                let _ = reply.send(list);
            }
            SimQuery::ComponentState(name, reply) => {
                let dto = self.by_name.get(&name).map(|id| {
                    let c = self.components[id.index()].borrow();
                    ComponentStateDto {
                        name: c.name().to_owned(),
                        kind: c.kind().to_owned(),
                        state: c.state(),
                    }
                });
                let _ = reply.send(dto);
            }
            SimQuery::Buffers(reply) => {
                let _ = reply.send(self.buffers.snapshot());
            }
            SimQuery::TickComponent(name, reply) => {
                let found = self.by_name.get(&name).copied();
                if let Some(id) = found {
                    // Schedule a tick event in the next cycle, like the
                    // paper's Tick button (§V-B).
                    let next = {
                        let freq = self.components[id.index()].borrow().freq();
                        freq.cycle_after(self.sched.now)
                    };
                    self.sched.schedule_tick(id, next);
                }
                let _ = reply.send(found.is_some());
            }
            SimQuery::KickStart(reply) => {
                let n = self.components.len();
                for i in 0..n {
                    let id = ComponentId::from_index(i);
                    let next = self.components[i]
                        .borrow()
                        .freq()
                        .cycle_after(self.sched.now);
                    self.sched.schedule_tick(id, next);
                }
                let _ = reply.send(n);
            }
            SimQuery::SetProfiling(on) => {
                if on && !profile::is_enabled() {
                    profile::reset();
                }
                profile::set_enabled(on);
            }
            SimQuery::Profile(reply) => {
                let _ = reply.send(profile::snapshot());
            }
            SimQuery::Topology(reply) => {
                let _ = reply.send(self.topology.clone());
            }
            SimQuery::ScheduleCustom(name, code, reply) => {
                let found = self.by_name.get(&name).copied();
                if let Some(id) = found {
                    let next = {
                        let freq = self.components[id.index()].borrow().freq();
                        freq.cycle_after(self.sched.now)
                    };
                    self.sched.queue.push(next, id, EventKind::Custom(code));
                }
                let _ = reply.send(found.is_some());
            }
            SimQuery::SetTracing(on) => {
                self.trace_enabled = on;
                if !on {
                    self.trace.clear();
                }
            }
            SimQuery::Trace(n, reply) => {
                // Iterate the tail directly (no double reverse) and borrow
                // each component's name once via a lookup table instead of
                // once per record.
                let start = self.trace.len().saturating_sub(n);
                let mut names: Vec<Option<String>> = vec![None; self.components.len()];
                let records: Vec<TraceRecord> = self
                    .trace
                    .iter()
                    .skip(start)
                    .map(|&(time, comp, kind)| {
                        let name = names[comp.index()].get_or_insert_with(|| {
                            self.components[comp.index()].borrow().name().to_owned()
                        });
                        TraceRecord {
                            time,
                            component: name.clone(),
                            kind,
                        }
                    })
                    .collect();
                let _ = reply.send(records);
            }
            SimQuery::Analysis(reply) => {
                let _ = reply.send(self.analyze());
            }
            SimQuery::InstallFaults(plan, reply) => {
                let _ = reply.send(self.install_faults(&plan));
            }
            SimQuery::Faults(reply) => {
                let _ = reply.send(self.fault_report());
            }
            SimQuery::SetActivityStamps(on) => {
                self.set_activity_stamps(on);
            }
            SimQuery::Activity(reply) => {
                let _ = reply.send(self.activity_stamps());
            }
            SimQuery::Terminate => {
                self.terminate_requested = true;
            }
        }
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

impl Drop for Simulation {
    fn drop(&mut self) {
        // Break the port <-> connection reference cycles; without this
        // every dropped machine leaks its wiring and everything the
        // connections reach.
        self.buffers.detach_ports();
    }
}

impl std::fmt::Debug for Simulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Simulation({} components, now {}, {} queued events)",
            self.components.len(),
            self.sched.now,
            self.sched.queue.len()
        )
    }
}
