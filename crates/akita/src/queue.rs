//! The engine's event queue.
//!
//! A stable priority queue: events pop in time order, and events scheduled
//! for the same time pop in the order they were scheduled (FIFO tie-break by
//! sequence number). Stability keeps simulations deterministic.
//!
//! # Time buckets
//!
//! A cycle-level simulation has few distinct pending times at once — the
//! current cycle, the next one, and one per connection latency in flight —
//! but many events per time. The queue therefore keeps one FIFO **bucket**
//! per distinct pending time, in a [`VecDeque`] sorted by time, and neither
//! sifts a heap nor hashes:
//!
//! - [`EventQueue::push`] appends to the bucket for its time, or inserts a
//!   new bucket. It scans the first few buckets linearly (almost every push
//!   lands there: same cycle, next cycle) and binary-searches the rest.
//! - [`EventQueue::pop`] takes the head of the front bucket and drops the
//!   bucket once it is empty.
//!
//! Events live in **one slab** with a free list; a bucket is a
//! `(time, head, tail)` singly linked list through the slab. Event storage
//! therefore grows with the number of events pending at once, never with
//! the number of buckets created over a run, and a bucket costs 16 bytes.
//!
//! # Why the order is the stable heap's order
//!
//! Sequence numbers come from one counter that only grows, so appending to
//! a bucket keeps it sorted by `seq`; buckets are sorted by time. The head
//! of the front bucket is therefore the global `(time, seq)` minimum — the
//! event a single stable binary heap keyed on `(time, seq)` pops. The
//! `proptests` module checks this differentially against such a heap.

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};

use crate::ids::ComponentId;
use crate::time::VTime;

/// What a scheduled event asks a component to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EventKind {
    /// Run one tick of the component's state machine.
    Tick,
    /// Deliver a component-defined event code to
    /// [`Component::handle_custom`](crate::Component::handle_custom).
    Custom(u64),
}

/// A scheduled event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ev {
    /// When the event fires.
    pub time: VTime,
    /// FIFO tie-breaker among same-time events.
    pub seq: u64,
    /// The component the event is addressed to.
    pub component: ComponentId,
    /// What to do.
    pub kind: EventKind,
}

impl Ord for Ev {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

impl PartialOrd for Ev {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// End of a slab list (bucket tail, or the free list's end).
const NIL: u32 = u32::MAX;

/// Buckets scanned linearly before [`EventQueue::push`] binary-searches.
const LINEAR_SCAN: usize = 8;

/// One pending event in the slab; its time is its bucket's.
#[derive(Debug, Clone, Copy)]
struct Node {
    seq: u64,
    kind: EventKind,
    component: ComponentId,
    /// The next event in the same bucket, or in the free list.
    next: u32,
}

/// The FIFO list of pending events at one virtual time.
#[derive(Debug, Clone, Copy)]
struct Bucket {
    time: VTime,
    head: u32,
    tail: u32,
}

/// A stable min-priority queue of [`Ev`]s: time-sorted FIFO buckets over
/// one event slab.
#[derive(Debug)]
pub struct EventQueue {
    /// One bucket per distinct pending time, sorted by time.
    buckets: VecDeque<Bucket>,
    /// Every event node, live or free.
    slab: Vec<Node>,
    /// Head of the free-node list.
    free: u32,
    len: usize,
    next_seq: u64,
}

impl Default for EventQueue {
    fn default() -> Self {
        EventQueue {
            buckets: VecDeque::new(),
            slab: Vec::new(),
            free: NIL,
            len: 0,
            next_seq: 0,
        }
    }
}

impl EventQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue::default()
    }

    /// Schedules an event for `component` at `time`.
    #[inline]
    pub fn push(&mut self, time: VTime, component: ComponentId, kind: EventKind) {
        let node = Node {
            seq: self.next_seq,
            kind,
            component,
            next: NIL,
        };
        self.next_seq += 1;
        let idx = if self.free == NIL {
            let idx = u32::try_from(self.slab.len()).expect("fewer than 2^32 pending events");
            self.slab.push(node);
            idx
        } else {
            let idx = self.free;
            self.free = self.slab[idx as usize].next;
            self.slab[idx as usize] = node;
            idx
        };
        self.len += 1;
        match self.find(time) {
            Ok(b) => {
                let bucket = &mut self.buckets[b];
                self.slab[bucket.tail as usize].next = idx;
                bucket.tail = idx;
            }
            Err(b) => self.buckets.insert(
                b,
                Bucket {
                    time,
                    head: idx,
                    tail: idx,
                },
            ),
        }
    }

    /// `Ok(i)` when bucket `i` holds `time`, else `Err(i)` where a bucket
    /// for `time` belongs.
    #[inline]
    fn find(&self, time: VTime) -> Result<usize, usize> {
        for (i, b) in self.buckets.iter().take(LINEAR_SCAN).enumerate() {
            if b.time >= time {
                return if b.time == time { Ok(i) } else { Err(i) };
            }
        }
        if self.buckets.len() <= LINEAR_SCAN {
            return Err(self.buckets.len());
        }
        self.buckets.binary_search_by_key(&time, |b| b.time)
    }

    /// Removes and returns the earliest event (smallest `(time, seq)`).
    #[inline]
    pub fn pop(&mut self) -> Option<Ev> {
        let front = self.buckets.front_mut()?;
        let (time, idx) = (front.time, front.head);
        let node = self.slab[idx as usize];
        if idx == front.tail {
            self.buckets.pop_front();
        } else {
            front.head = node.next;
        }
        self.slab[idx as usize].next = self.free;
        self.free = idx;
        self.len -= 1;
        Some(Ev {
            time,
            seq: node.seq,
            component: node.component,
            kind: node.kind,
        })
    }

    /// The time of the earliest event without removing it.
    pub fn peek_time(&self) -> Option<VTime> {
        self.buckets.front().map(|b| b.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The components with at least one pending event, in no particular
    /// order (used by the topology analyzer's reachability pass).
    pub fn scheduled_components(&self) -> impl Iterator<Item = ComponentId> + '_ {
        self.buckets.iter().flat_map(move |b| {
            let mut at = b.head;
            std::iter::from_fn(move || {
                if at == NIL {
                    return None;
                }
                let node = &self.slab[at as usize];
                at = node.next;
                Some(node.component)
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cid(i: usize) -> ComponentId {
        ComponentId::from_index(i)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(VTime::from_ns(3), cid(0), EventKind::Tick);
        q.push(VTime::from_ns(1), cid(1), EventKind::Tick);
        q.push(VTime::from_ns(2), cid(2), EventKind::Tick);
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|e| e.time.ps())
            .collect();
        assert_eq!(order, [1_000, 2_000, 3_000]);
    }

    #[test]
    fn same_time_events_are_fifo() {
        let mut q = EventQueue::new();
        let t = VTime::from_ns(1);
        for i in 0..10 {
            q.push(t, cid(i), EventKind::Tick);
        }
        let order: Vec<usize> = std::iter::from_fn(|| q.pop())
            .map(|e| e.component.index())
            .collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn same_time_fifo_survives_lane_advance() {
        // Pushes to a time before and after the clock reaches it must pop
        // in seq order: both land in the same bucket, in push order.
        let mut q = EventQueue::new();
        let t = VTime::from_ns(2);
        q.push(t, cid(0), EventKind::Tick);
        q.push(t, cid(1), EventKind::Tick);
        let first = q.pop().unwrap();
        assert_eq!(first.component, cid(0));
        q.push(t, cid(2), EventKind::Tick);
        assert_eq!(q.pop().unwrap().component, cid(1));
        assert_eq!(q.pop().unwrap().component, cid(2));
        assert!(q.pop().is_none());
    }

    #[test]
    fn peek_time_is_min() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.push(VTime::from_ns(5), cid(0), EventKind::Tick);
        q.push(VTime::from_ns(2), cid(0), EventKind::Custom(7));
        assert_eq!(q.peek_time(), Some(VTime::from_ns(2)));
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn peek_time_sees_the_ring_lane() {
        // The current-time bucket is seen ahead of a later one.
        let mut q = EventQueue::new();
        q.push(VTime::ZERO, cid(0), EventKind::Tick);
        q.push(VTime::from_ns(5), cid(1), EventKind::Tick);
        assert_eq!(q.peek_time(), Some(VTime::ZERO));
    }

    #[test]
    fn custom_events_carry_codes() {
        let mut q = EventQueue::new();
        q.push(VTime::ZERO, cid(0), EventKind::Custom(42));
        assert_eq!(q.pop().unwrap().kind, EventKind::Custom(42));
    }

    #[test]
    fn storage_grows_with_pending_events_not_buckets() {
        // 10,000 distinct times pass through the queue, never more than
        // three pending at once: the slab stays at three nodes and the
        // bucket list at three entries.
        let mut q = EventQueue::new();
        for t in 0..3u64 {
            q.push(VTime::from_ps(t), cid(0), EventKind::Tick);
        }
        for t in 3..10_000u64 {
            let ev = q.pop().unwrap();
            assert_eq!(ev.time.ps(), t - 3);
            q.push(VTime::from_ps(t), cid(0), EventKind::Tick);
        }
        assert_eq!(q.len(), 3);
        assert_eq!(q.slab.len(), 3);
        assert_eq!(q.buckets.len(), 3);
    }

    #[test]
    fn scheduled_components_lists_every_pending_event() {
        let mut q = EventQueue::new();
        for (t, c) in [(3, 0), (1, 1), (3, 2), (2, 3), (1, 4)] {
            q.push(VTime::from_ns(t), cid(c), EventKind::Tick);
        }
        q.pop(); // cid(1) at 1 ns
        let mut got: Vec<usize> = q.scheduled_components().map(ComponentId::index).collect();
        got.sort_unstable();
        assert_eq!(got, [0, 2, 3, 4]);
    }
}

#[cfg(test)]
mod proptests {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    use super::*;

    /// Deterministic xorshift64* generator so the randomized coverage below
    /// needs no external crates and reproduces exactly across runs.
    struct XorShift(u64);

    impl XorShift {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }
    }

    /// The reference model: a single stable binary heap keyed on
    /// `(time, seq)`. The bucketed queue must be observationally identical
    /// to it.
    #[derive(Default)]
    struct RefQueue {
        heap: BinaryHeap<Reverse<Ev>>,
        next_seq: u64,
    }

    impl RefQueue {
        fn push(&mut self, time: VTime, component: ComponentId, kind: EventKind) {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.heap.push(Reverse(Ev {
                time,
                seq,
                component,
                kind,
            }));
        }

        fn pop(&mut self) -> Option<Ev> {
            self.heap.pop().map(|Reverse(ev)| ev)
        }
    }

    /// Pops both queues to the end; the tails must be identical.
    fn drain_both(q: &mut EventQueue, r: &mut RefQueue) {
        loop {
            let a = q.pop();
            let b = r.pop();
            assert_eq!(a, b, "queues diverged while draining");
            if a.is_none() {
                break;
            }
        }
        assert!(q.is_empty());
    }

    /// Events always pop sorted by (time, insertion order).
    #[test]
    fn queue_is_a_stable_priority_queue() {
        let mut rng = XorShift(0x9E37_79B9_7F4A_7C15);
        for _case in 0..64 {
            let len = (rng.next() % 199 + 1) as usize;
            let times: Vec<u64> = (0..len).map(|_| rng.next() % 100).collect();
            let mut q = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.push(
                    VTime::from_ps(t),
                    ComponentId::from_index(i),
                    EventKind::Tick,
                );
            }
            let mut expected: Vec<(u64, usize)> =
                times.iter().enumerate().map(|(i, &t)| (t, i)).collect();
            expected.sort_unstable();
            let got: Vec<(u64, usize)> = std::iter::from_fn(|| q.pop())
                .map(|e| (e.time.ps(), e.component.index()))
                .collect();
            assert_eq!(got, expected);
        }
    }

    /// Interleaved pushes and pops never yield an event earlier than one
    /// already popped.
    #[test]
    fn pop_is_monotonic_when_pushing_future_events() {
        let mut rng = XorShift(0xD1B5_4A32_D192_ED03);
        for _case in 0..64 {
            let ops = (rng.next() % 199 + 1) as usize;
            let mut q = EventQueue::new();
            let mut last = 0u64;
            for _ in 0..ops {
                let dt = rng.next() % 1000;
                let do_pop = rng.next().is_multiple_of(2);
                q.push(
                    VTime::from_ps(last + dt),
                    ComponentId::from_index(0),
                    EventKind::Tick,
                );
                if do_pop {
                    if let Some(ev) = q.pop() {
                        assert!(ev.time.ps() >= last);
                        last = ev.time.ps();
                    }
                }
            }
        }
    }

    /// The differential determinism proof: the bucketed queue and the
    /// reference heap pop *identical* event sequences — same `(time, seq,
    /// component, kind)` tuples in the same order — under random push/pop
    /// interleavings biased toward the engine's same-cycle pattern.
    #[test]
    fn two_level_queue_matches_reference_heap_exactly() {
        let mut rng = XorShift(0xA076_1D64_78BD_642F);
        for _case in 0..128 {
            let ops = (rng.next() % 499 + 1) as usize;
            let mut q = EventQueue::new();
            let mut r = RefQueue::default();
            // `now` mimics the engine clock: the time of the last pop.
            let mut now = 0u64;
            for _ in 0..ops {
                match rng.next() % 10 {
                    // Same-cycle push — the hot case.
                    0..=4 => {
                        let c = ComponentId::from_index((rng.next() % 8) as usize);
                        q.push(VTime::from_ps(now), c, EventKind::Tick);
                        r.push(VTime::from_ps(now), c, EventKind::Tick);
                    }
                    // Future push.
                    5..=7 => {
                        let t = now + rng.next() % 50 + 1;
                        let c = ComponentId::from_index((rng.next() % 8) as usize);
                        let k = EventKind::Custom(rng.next() % 4);
                        q.push(VTime::from_ps(t), c, k);
                        r.push(VTime::from_ps(t), c, k);
                    }
                    // Pop from both; results must match field-for-field.
                    _ => {
                        let a = q.pop();
                        let b = r.pop();
                        assert_eq!(a, b, "queues diverged mid-interleaving");
                        if let Some(ev) = a {
                            now = ev.time.ps();
                        }
                    }
                }
            }
            drain_both(&mut q, &mut r);
        }
    }

    /// The same differential with many buckets live at once: past the
    /// linear scan, so pushes binary-search, land mid-list (new buckets
    /// inserted between existing ones, or appended to a deep bucket), and
    /// some go far into the future. Also checks that the slab never holds
    /// more nodes than were ever pending at once.
    #[test]
    fn many_buckets_match_reference_heap_exactly() {
        let mut rng = XorShift(0x5851_F42D_4C95_7F2D);
        let mut max_buckets = 0;
        for _case in 0..64 {
            let ops = (rng.next() % 1500 + 500) as usize;
            let mut q = EventQueue::new();
            let mut r = RefQueue::default();
            let mut now = 0u64;
            let mut max_pending = 0;
            for _ in 0..ops {
                match rng.next() % 16 {
                    0..=2 => {
                        let c = ComponentId::from_index((rng.next() % 8) as usize);
                        q.push(VTime::from_ps(now), c, EventKind::Tick);
                        r.push(VTime::from_ps(now), c, EventKind::Tick);
                    }
                    // Mid-list: one of ~64 near-future times, often
                    // already a bucket deep in the list.
                    3..=10 => {
                        let t = now + (rng.next() % 64 + 1) * 10;
                        let c = ComponentId::from_index((rng.next() % 8) as usize);
                        let k = EventKind::Custom(rng.next() % 4);
                        q.push(VTime::from_ps(t), c, k);
                        r.push(VTime::from_ps(t), c, k);
                    }
                    // Far future.
                    11 => {
                        let t = now + 1_000_000_000 + rng.next() % 1_000_000;
                        let c = ComponentId::from_index((rng.next() % 8) as usize);
                        q.push(VTime::from_ps(t), c, EventKind::Tick);
                        r.push(VTime::from_ps(t), c, EventKind::Tick);
                    }
                    _ => {
                        let a = q.pop();
                        assert_eq!(a, r.pop(), "queues diverged mid-interleaving");
                        if let Some(ev) = a {
                            now = ev.time.ps();
                        }
                    }
                }
                max_pending = max_pending.max(q.len());
                max_buckets = max_buckets.max(q.buckets.len());
                assert_eq!(q.len(), r.heap.len());
            }
            assert!(q.slab.len() <= max_pending, "slab outgrew the pending set");
            drain_both(&mut q, &mut r);
        }
        assert!(
            max_buckets > 4 * LINEAR_SCAN,
            "the binary-search path never ran ({max_buckets} buckets)"
        );
    }
}
