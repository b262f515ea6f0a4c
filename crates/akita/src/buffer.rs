//! Bounded FIFO buffers and the global buffer registry.
//!
//! Buffer fullness is AkitaRTM's lightweight bottleneck signal (paper §IV-C,
//! Fig 3/4): a component whose input buffer is persistently full is likely the
//! bottleneck of its chain. Every [`Buffer`] registers itself with the
//! simulation's [`BufferRegistry`] at creation, so the monitor can snapshot
//! *all* buffer levels in one pass without walking component internals —
//! the Rust stand-in for Go reflection discovering buffers.

use std::cell::{Ref, RefCell};
use std::collections::VecDeque;
use std::fmt;
use std::rc::{Rc, Weak};

use serde::{Deserialize, Serialize};

use crate::faults::{FaultHub, FaultSite};
use crate::port::{PortProbe, PortSnapshot};

/// Anything that can report a fill level: the registry's view of a buffer.
trait BufferProbe {
    fn name(&self) -> String;
    fn len(&self) -> usize;
    fn capacity(&self) -> usize;
}

struct BufInner<T> {
    name: String,
    capacity: usize,
    items: VecDeque<T>,
    /// Stuck-full fault hook; `None` for unregistered scratch buffers, and
    /// a dead branch (one `Cell` load) while no fault plan is armed.
    fsite: Option<FaultSite>,
}

impl<T> BufInner<T> {
    fn forced_full(&self) -> bool {
        match &self.fsite {
            Some(site) => site.armed() && site.forced_full(),
            None => false,
        }
    }
}

impl<T> BufferProbe for RefCell<BufInner<T>> {
    fn name(&self) -> String {
        self.borrow().name.clone()
    }
    fn len(&self) -> usize {
        self.borrow().items.len()
    }
    fn capacity(&self) -> usize {
        self.borrow().capacity
    }
}

/// A bounded FIFO buffer, observable by the monitoring layer.
///
/// Cloning a `Buffer` clones a *handle*: both handles view the same queue.
///
/// # Examples
///
/// ```
/// use akita::{Buffer, BufferRegistry};
///
/// let registry = BufferRegistry::new();
/// let buf: Buffer<u32> = Buffer::new(&registry, "Cache.TopPort.Buf", 2);
/// buf.push(1).unwrap();
/// buf.push(2).unwrap();
/// assert_eq!(buf.push(3), Err(3)); // full: backpressure
/// assert_eq!(buf.pop(), Some(1));
/// assert_eq!(registry.snapshot()[0].size, 1);
/// ```
pub struct Buffer<T> {
    inner: Rc<RefCell<BufInner<T>>>,
}

impl<T> Clone for Buffer<T> {
    fn clone(&self) -> Self {
        Buffer {
            inner: Rc::clone(&self.inner),
        }
    }
}

impl<T: 'static> Buffer<T> {
    /// Creates a buffer with the given hierarchical `name` and `capacity`,
    /// registered with `registry` for monitoring.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(registry: &BufferRegistry, name: impl Into<String>, capacity: usize) -> Self {
        assert!(capacity > 0, "buffer capacity must be positive");
        let name = name.into();
        let fsite = Some(registry.faults.site(&name));
        let inner = Rc::new(RefCell::new(BufInner {
            name,
            capacity,
            items: VecDeque::with_capacity(capacity.min(64)),
            fsite,
        }));
        registry.register(&(Rc::clone(&inner) as Rc<dyn BufferProbe>));
        Buffer { inner }
    }

    /// Creates a buffer that is *not* visible to the monitor. Useful for
    /// scratch queues that would only add noise to the buffer analyzer.
    pub fn unregistered(name: impl Into<String>, capacity: usize) -> Self {
        assert!(capacity > 0, "buffer capacity must be positive");
        Buffer {
            inner: Rc::new(RefCell::new(BufInner {
                name: name.into(),
                capacity,
                items: VecDeque::new(),
                fsite: None,
            })),
        }
    }
}

impl<T> Buffer<T> {
    /// Appends an item, or returns it back when the buffer is full (or an
    /// injected stuck-full fault window is holding it full).
    pub fn push(&self, item: T) -> Result<(), T> {
        let mut inner = self.inner.borrow_mut();
        if inner.items.len() >= inner.capacity || inner.forced_full() {
            Err(item)
        } else {
            inner.items.push_back(item);
            Ok(())
        }
    }

    /// Removes and returns the oldest item.
    pub fn pop(&self) -> Option<T> {
        self.inner.borrow_mut().items.pop_front()
    }

    /// Borrows the oldest item without removing it.
    ///
    /// # Panics
    ///
    /// Panics if the buffer is already mutably borrowed (single-threaded
    /// simulation code should never hold borrows across calls).
    pub fn peek(&self) -> Option<Ref<'_, T>> {
        let inner = self.inner.borrow();
        Ref::filter_map(inner, |b| b.items.front()).ok()
    }

    /// Applies `f` to every element in FIFO order, for diagnostics.
    pub fn for_each(&self, mut f: impl FnMut(&T)) {
        for item in &self.inner.borrow().items {
            f(item);
        }
    }

    /// Number of items currently buffered.
    pub fn len(&self) -> usize {
        self.inner.borrow().items.len()
    }

    /// Whether the buffer holds no items.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the buffer is at capacity (or held full by an injected
    /// stuck-full fault window).
    pub fn is_full(&self) -> bool {
        let inner = self.inner.borrow();
        inner.items.len() >= inner.capacity || inner.forced_full()
    }

    /// Maximum number of items the buffer can hold.
    pub fn capacity(&self) -> usize {
        self.inner.borrow().capacity
    }

    /// Free slots remaining (zero while a stuck-full fault holds the
    /// buffer full).
    pub fn free(&self) -> usize {
        let inner = self.inner.borrow();
        if inner.forced_full() {
            return 0;
        }
        inner.capacity - inner.items.len()
    }

    /// The buffer's hierarchical name.
    pub fn name(&self) -> String {
        self.inner.borrow().name.clone()
    }

    /// Removes all items.
    pub fn clear(&self) {
        self.inner.borrow_mut().items.clear();
    }
}

impl<T> fmt::Debug for Buffer<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.borrow();
        write!(
            f,
            "Buffer({} {}/{})",
            inner.name,
            inner.items.len(),
            inner.capacity
        )
    }
}

/// A point-in-time observation of one buffer's fill level.
///
/// This is the row type of the buffer analyzer table (paper Fig 3).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BufferSnapshot {
    /// Hierarchical buffer name, e.g. `GPU[1].SA[15].L1VROB[0].TopPort.Buf`.
    pub name: String,
    /// Items currently buffered.
    pub size: usize,
    /// Buffer capacity.
    pub capacity: usize,
}

impl BufferSnapshot {
    /// Fill ratio in `[0, 1]`.
    pub fn percent(&self) -> f64 {
        if self.capacity == 0 {
            0.0
        } else {
            self.size as f64 / self.capacity as f64
        }
    }
}

/// Registry of every monitorable buffer in a simulation.
///
/// Holds weak references: dropping a component's buffers automatically
/// removes them from future snapshots.
#[derive(Clone, Default)]
pub struct BufferRegistry {
    entries: Rc<RefCell<Vec<Weak<dyn BufferProbe>>>>,
    /// Every live [`crate::Port`], for topology analysis. The registry is
    /// already threaded through all port constructors, so it doubles as
    /// the port registry.
    ports: Rc<RefCell<Vec<Weak<dyn PortProbe>>>>,
    /// The simulation's fault-injection hub. Riding on the registry means
    /// every port and buffer picks up its injection site at construction
    /// with no extra plumbing.
    pub(crate) faults: FaultHub,
}

impl BufferRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The fault-injection hub shared by everything built against this
    /// registry.
    pub fn faults(&self) -> &FaultHub {
        &self.faults
    }

    fn register(&self, probe: &Rc<dyn BufferProbe>) {
        self.entries.borrow_mut().push(Rc::downgrade(probe));
    }

    pub(crate) fn register_port(&self, probe: &Rc<dyn PortProbe>) {
        self.ports.borrow_mut().push(Rc::downgrade(probe));
    }

    /// Snapshots every live port (id, name, owner, attachment, buffer
    /// level), pruning dead entries.
    pub fn port_snapshots(&self) -> Vec<PortSnapshot> {
        let mut ports = self.ports.borrow_mut();
        ports.retain(|w| w.strong_count() > 0);
        ports
            .iter()
            .filter_map(Weak::upgrade)
            .map(|probe| probe.port_snapshot())
            .collect()
    }

    /// Detaches every live port from its connection. Ports and
    /// connections hold each other strongly (a connection keeps its
    /// endpoint ports, a port keeps its connection), so the simulation
    /// calls this on drop to break the cycles and free the machine.
    pub(crate) fn detach_ports(&self) {
        let Ok(ports) = self.ports.try_borrow() else {
            return;
        };
        for probe in ports.iter().filter_map(Weak::upgrade) {
            probe.detach_conn();
        }
    }

    /// Number of live buffers.
    pub fn len(&self) -> usize {
        self.entries
            .borrow()
            .iter()
            .filter(|w| w.strong_count() > 0)
            .count()
    }

    /// Whether no live buffers are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshots every live buffer's fill level, pruning dead entries.
    pub fn snapshot(&self) -> Vec<BufferSnapshot> {
        let mut entries = self.entries.borrow_mut();
        entries.retain(|w| w.strong_count() > 0);
        entries
            .iter()
            .filter_map(Weak::upgrade)
            .map(|probe| BufferSnapshot {
                name: probe.name(),
                size: probe.len(),
                capacity: probe.capacity(),
            })
            .collect()
    }
}

impl fmt::Debug for BufferRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BufferRegistry({} buffers)", self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_preserved() {
        let b: Buffer<u32> = Buffer::unregistered("b", 4);
        for i in 0..4 {
            b.push(i).unwrap();
        }
        for i in 0..4 {
            assert_eq!(b.pop(), Some(i));
        }
        assert_eq!(b.pop(), None);
    }

    #[test]
    fn push_to_full_returns_item() {
        let b: Buffer<&str> = Buffer::unregistered("b", 1);
        b.push("a").unwrap();
        assert!(b.is_full());
        assert_eq!(b.push("x"), Err("x"));
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn peek_does_not_consume() {
        let b: Buffer<u32> = Buffer::unregistered("b", 2);
        assert!(b.peek().is_none());
        b.push(9).unwrap();
        assert_eq!(*b.peek().unwrap(), 9);
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn registry_snapshot_reflects_levels() {
        let reg = BufferRegistry::new();
        let a: Buffer<u32> = Buffer::new(&reg, "A.Buf", 8);
        let _b: Buffer<u32> = Buffer::new(&reg, "B.Buf", 4);
        a.push(1).unwrap();
        a.push(2).unwrap();
        let snap = reg.snapshot();
        assert_eq!(snap.len(), 2);
        let a_snap = snap.iter().find(|s| s.name == "A.Buf").unwrap();
        assert_eq!(a_snap.size, 2);
        assert_eq!(a_snap.capacity, 8);
        assert!((a_snap.percent() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn registry_prunes_dropped_buffers() {
        let reg = BufferRegistry::new();
        {
            let _tmp: Buffer<u32> = Buffer::new(&reg, "gone", 2);
            assert_eq!(reg.len(), 1);
        }
        assert_eq!(reg.snapshot().len(), 0);
        assert!(reg.is_empty());
    }

    #[test]
    fn unregistered_buffer_is_invisible() {
        let reg = BufferRegistry::new();
        let _b: Buffer<u32> = Buffer::unregistered("hidden", 2);
        assert!(reg.snapshot().is_empty());
    }

    #[test]
    fn clear_and_free() {
        let b: Buffer<u32> = Buffer::unregistered("b", 3);
        b.push(1).unwrap();
        b.push(2).unwrap();
        assert_eq!(b.free(), 1);
        b.clear();
        assert!(b.is_empty());
        assert_eq!(b.free(), 3);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _: Buffer<u32> = Buffer::unregistered("b", 0);
    }

    #[test]
    fn clone_shares_state() {
        let a: Buffer<u32> = Buffer::unregistered("b", 2);
        let b = a.clone();
        a.push(5).unwrap();
        assert_eq!(b.pop(), Some(5));
    }
}
