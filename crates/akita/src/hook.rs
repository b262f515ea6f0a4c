//! Dispatch hooks, in the spirit of Akita's hook system.
//!
//! Akita lets tools observe a simulation by hooking event dispatch — it is
//! how tracers and visualizers (like the paper's companion Daisen) attach
//! without modifying components. Hooks here see every event immediately
//! before and after the component handles it. The engine skips all hook
//! bookkeeping when none are installed.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::component::Component;
use crate::queue::Ev;

/// An observer of event dispatch.
///
/// Hooks run on the simulation thread; keep them cheap. For monitoring
/// from *other* threads use the query protocol instead.
pub trait Hook {
    /// Called immediately before the component handles `ev`.
    fn before_event(&mut self, _ev: &Ev, _component: &dyn Component) {}

    /// Called immediately after the component handled `ev`.
    fn after_event(&mut self, _ev: &Ev, _component: &dyn Component) {}
}

/// A shipped hook counting dispatched events per component kind.
///
/// # Examples
///
/// ```
/// use akita::{CompBase, Component, Ctx, EventCountHook, Simulation, VTime};
///
/// struct Nop { base: CompBase, left: u32 }
/// impl Component for Nop {
///     fn base(&self) -> &CompBase { &self.base }
///     fn base_mut(&mut self) -> &mut CompBase { &mut self.base }
///     fn tick(&mut self, _ctx: &mut Ctx) -> bool {
///         self.left -= 1;
///         self.left > 0
///     }
/// }
///
/// let mut sim = Simulation::new();
/// let (id, _) = sim.register(Nop { base: CompBase::new("Nop", "n"), left: 5 });
/// sim.wake_at(id, VTime::ZERO);
/// let counts = sim.add_hook(EventCountHook::default());
/// sim.run();
/// assert_eq!(counts.borrow().count("Nop"), 5);
/// ```
///
/// Each kind's count is one shared [`AtomicU64`]. The hook resolves a
/// component's kind to its counter the first time the component is
/// dispatched and caches it per component index, so the hot path is one
/// index and one relaxed `fetch_add` — no lock, no allocation, no
/// hashing. A [`Send`]able [`EventCounts`] handle
/// ([`EventCountHook::shared`]) reads the same counters from the
/// monitoring thread (the `/api/metrics` scrape surface); every read is
/// exact at the moment it is taken, with no flush step.
#[derive(Debug, Default)]
pub struct EventCountHook {
    /// Per component index: its kind's counter, once resolved.
    slots: Vec<Option<Arc<AtomicU64>>>,
    counts: EventCounts,
}

/// A cloneable, thread-safe read handle onto an [`EventCountHook`].
#[derive(Debug, Clone, Default)]
pub struct EventCounts {
    /// Kind name → counter. Locked only when a component is first seen
    /// and by readers, never per event.
    kinds: Arc<Mutex<HashMap<String, Arc<AtomicU64>>>>,
}

impl EventCountHook {
    /// Events dispatched to components of `kind` so far.
    pub fn count(&self, kind: &str) -> u64 {
        self.counts.count(kind)
    }

    /// All per-kind counts, sorted descending.
    pub fn all(&self) -> Vec<(String, u64)> {
        self.counts.all()
    }

    /// A read handle usable from other threads (e.g. the RTM monitor).
    pub fn shared(&self) -> EventCounts {
        self.counts.clone()
    }

    /// The counter for `component`'s kind, registered on first use.
    #[cold]
    fn resolve(&mut self, i: usize, component: &dyn Component) -> &AtomicU64 {
        if i >= self.slots.len() {
            self.slots.resize(i + 1, None);
        }
        let counter = Arc::clone(
            self.counts
                .lock()
                .entry(component.kind().to_owned())
                .or_default(),
        );
        self.slots[i].insert(counter)
    }
}

impl EventCounts {
    // Every update leaves the map valid, so a poisoned lock is still safe
    // to read.
    fn lock(&self) -> MutexGuard<'_, HashMap<String, Arc<AtomicU64>>> {
        self.kinds.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Events dispatched to components of `kind` so far.
    pub fn count(&self, kind: &str) -> u64 {
        self.lock()
            .get(kind)
            .map_or(0, |n| n.load(Ordering::Relaxed))
    }

    /// All per-kind counts, sorted descending.
    pub fn all(&self) -> Vec<(String, u64)> {
        let mut v: Vec<_> = self
            .lock()
            .iter()
            .map(|(k, n)| (k.clone(), n.load(Ordering::Relaxed)))
            .collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v
    }
}

impl Hook for EventCountHook {
    fn before_event(&mut self, ev: &Ev, component: &dyn Component) {
        let i = ev.component.index();
        // A statistic that publishes no other data: relaxed suffices.
        match self.slots.get(i) {
            Some(Some(counter)) => counter.fetch_add(1, Ordering::Relaxed),
            _ => self.resolve(i, component).fetch_add(1, Ordering::Relaxed),
        };
    }
}

#[cfg(test)]
mod tests {
    use std::sync::mpsc::{channel, sync_channel, Receiver, SyncSender, TryRecvError};

    use super::*;
    use crate::{CompBase, Ctx, Simulation, VTime};

    /// Ticks `left` times. When `gate` is set, every tenth tick hands its
    /// own tick count to a reader thread and blocks until the reader has
    /// taken its snapshot, forcing mid-run reads.
    struct Ticker {
        base: CompBase,
        left: u32,
        ticks: u64,
        gate: Option<(SyncSender<u64>, Receiver<()>)>,
    }

    impl Ticker {
        fn new(kind: &'static str, name: String, left: u32) -> Self {
            Ticker {
                base: CompBase::new(kind, name),
                left,
                ticks: 0,
                gate: None,
            }
        }
    }

    impl Component for Ticker {
        fn base(&self) -> &CompBase {
            &self.base
        }
        fn base_mut(&mut self) -> &mut CompBase {
            &mut self.base
        }
        fn tick(&mut self, _ctx: &mut Ctx) -> bool {
            self.ticks += 1;
            if let Some((to_reader, ack)) = &self.gate {
                if self.ticks.is_multiple_of(10) {
                    to_reader.send(self.ticks).expect("reader alive");
                    ack.recv().expect("reader acks");
                }
            }
            self.left -= 1;
            self.left > 0
        }
    }

    /// An independent reference count, keyed by kind.
    #[derive(Default)]
    struct Reference(HashMap<String, u64>);

    impl Hook for Reference {
        fn after_event(&mut self, _ev: &Ev, component: &dyn Component) {
            *self.0.entry(component.kind().to_owned()).or_default() += 1;
        }
    }

    /// Three kinds, several components each, different tick counts.
    fn mixed_sim() -> Simulation {
        let mut sim = Simulation::new();
        for (kind, copies, ticks) in [("Alpha", 3, 7), ("Beta", 2, 13), ("Gamma", 4, 3)] {
            for i in 0..copies {
                let (id, _) = sim.register(Ticker::new(kind, format!("{kind}[{i}]"), ticks + i));
                sim.wake_at(id, VTime::ZERO);
            }
        }
        sim
    }

    #[test]
    fn per_kind_counts_match_an_independent_count() {
        let mut sim = mixed_sim();
        let counts = sim.add_hook(EventCountHook::default());
        let reference = sim.add_hook(Reference::default());
        let summary = sim.run();

        let mut expected: Vec<(String, u64)> = reference
            .borrow()
            .0
            .iter()
            .map(|(k, &n)| (k.clone(), n))
            .collect();
        expected.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        assert_eq!(counts.borrow().all(), expected);
        assert_eq!(counts.borrow().shared().all(), expected);
        // Alpha: 7+8+9, Beta: 13+14, Gamma: 3+4+5+6.
        assert_eq!(counts.borrow().count("Alpha"), 24);
        assert_eq!(counts.borrow().count("Beta"), 27);
        assert_eq!(counts.borrow().count("Gamma"), 18);
        assert_eq!(counts.borrow().count("Delta"), 0);
        let total: u64 = expected.iter().map(|(_, n)| n).sum();
        assert_eq!(total, summary.events);
    }

    #[test]
    fn a_reader_thread_sees_exact_non_decreasing_counts() {
        let mut sim = mixed_sim();
        let (to_reader, from_sim) = sync_channel(0);
        let (ack_tx, ack_rx) = channel();
        let mut gated = Ticker::new("Gated", "Gated".into(), 45);
        gated.gate = Some((to_reader, ack_rx));
        let (id, _) = sim.register(gated);
        sim.wake_at(id, VTime::ZERO);
        let counts = sim.add_hook(EventCountHook::default());
        let shared = counts.borrow().shared();

        let reader = std::thread::spawn(move || {
            let mut last: HashMap<String, u64> = HashMap::new();
            let mut gated_reads = 0;
            loop {
                // Free-running reads race the simulation; gated ones
                // happen while it is blocked inside the gated tick.
                let gated = match from_sim.try_recv() {
                    Ok(ticks) => Some(ticks),
                    Err(TryRecvError::Empty) => None,
                    // The gate closes when the simulation is dropped.
                    Err(TryRecvError::Disconnected) => break,
                };
                for (kind, n) in shared.all() {
                    let prev = last.insert(kind.clone(), n).unwrap_or(0);
                    assert!(n >= prev, "{kind} went backwards: {prev} -> {n}");
                }
                if let Some(ticks) = gated {
                    // Exact with no flush: the gated event is counted and
                    // nothing else is pending.
                    assert_eq!(shared.count("Gated"), ticks);
                    gated_reads += 1;
                    ack_tx.send(()).expect("simulation alive");
                }
            }
            (gated_reads, shared)
        });
        sim.run();
        let last = counts.borrow().all();
        drop(sim);
        let (gated_reads, shared) = reader.join().expect("reader thread");
        assert_eq!(gated_reads, 4);
        assert_eq!(shared.all(), last);
        assert_eq!(shared.count("Gated"), 45);
    }
}
