//! Miss Status Holding Registers.
//!
//! An MSHR tracks outstanding cache misses per line and coalesces further
//! accesses to the same line onto the existing miss. Its capacity bounds a
//! cache's in-flight transactions — the "L1 pinned at 16 transactions"
//! pattern of Case Study 1 is exactly an MSHR at capacity.

use std::collections::HashMap;

use akita::{IdBuildHasher, MsgId, PortId, TaskId, VTime};

use crate::addr::line_of;
use crate::msg::Addr;

/// One requester waiting on a miss.
#[derive(Debug, Clone)]
pub struct Waiter {
    /// Id of the upstream request to answer.
    pub req_id: MsgId,
    /// Port to send the answer to.
    pub requester: PortId,
    /// Bytes the upstream request asked for.
    pub size: u32,
    /// The upstream task, inherited onto the response and closed in the
    /// trace when the answer goes up.
    pub task: TaskId,
    /// When the cache accepted the request (virtual time), for service
    /// span measurement.
    pub accepted_at: VTime,
}

/// One outstanding miss.
#[derive(Debug)]
pub struct MshrEntry {
    /// The missing cache line's base address.
    pub line: Addr,
    /// Id of the downstream fetch, for response matching.
    pub downstream_id: MsgId,
    /// Upstream requests waiting for the fill.
    pub waiters: Vec<Waiter>,
}

/// A set of MSHRs with a fixed capacity.
#[derive(Debug)]
pub struct Mshr {
    capacity: usize,
    entries: HashMap<Addr, MshrEntry, IdBuildHasher>,
    by_downstream: HashMap<MsgId, Addr, IdBuildHasher>,
}

impl Mshr {
    /// Creates an MSHR file holding up to `capacity` outstanding lines.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "MSHR capacity must be positive");
        Mshr {
            capacity,
            entries: HashMap::default(),
            by_downstream: HashMap::default(),
        }
    }

    /// Outstanding misses.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no misses are outstanding.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether no more misses can be tracked.
    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    /// Capacity in lines.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The outstanding miss covering `addr`'s line, if any.
    pub fn lookup(&mut self, addr: Addr) -> Option<&mut MshrEntry> {
        self.entries.get_mut(&line_of(addr))
    }

    /// Starts tracking a miss for `addr`'s line fetched by downstream
    /// request `downstream_id`.
    ///
    /// # Panics
    ///
    /// Panics when full or when the line is already tracked — callers must
    /// check [`Mshr::lookup`] and [`Mshr::is_full`] first.
    pub fn allocate(&mut self, addr: Addr, downstream_id: MsgId, waiter: Waiter) {
        assert!(!self.is_full(), "MSHR allocate on full file");
        let line = line_of(addr);
        let prev = self.entries.insert(
            line,
            MshrEntry {
                line,
                downstream_id,
                waiters: vec![waiter],
            },
        );
        assert!(prev.is_none(), "MSHR line 0x{line:x} already tracked");
        self.by_downstream.insert(downstream_id, line);
    }

    /// The line being fetched by `downstream_id`, without completing it.
    pub fn peek_line(&self, downstream_id: MsgId) -> Option<Addr> {
        self.by_downstream.get(&downstream_id).copied()
    }

    /// Completes the miss fetched by `downstream_id`, returning its entry
    /// (with all coalesced waiters) or `None` for an unknown id.
    pub fn complete(&mut self, downstream_id: MsgId) -> Option<MshrEntry> {
        let line = self.by_downstream.remove(&downstream_id)?;
        self.entries.remove(&line)
    }

    /// Iterates over outstanding entries (for inspection).
    pub fn iter(&self) -> impl Iterator<Item = &MshrEntry> {
        self.entries.values()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn waiter() -> Waiter {
        Waiter {
            req_id: MsgId::fresh(),
            requester: {
                let reg = akita::BufferRegistry::new();
                akita::Port::new(&reg, "p", 1).id()
            },
            size: 4,
            task: TaskId::fresh(),
            accepted_at: VTime::ZERO,
        }
    }

    #[test]
    fn allocate_lookup_complete_cycle() {
        let mut m = Mshr::new(2);
        let down = MsgId::fresh();
        m.allocate(0x1004, down, waiter());
        // Same-line access coalesces.
        assert!(m.lookup(0x1030).is_some());
        m.lookup(0x1030).unwrap().waiters.push(waiter());
        // Different line misses.
        assert!(m.lookup(0x2000).is_none());
        let entry = m.complete(down).unwrap();
        assert_eq!(entry.line, 0x1000);
        assert_eq!(entry.waiters.len(), 2);
        assert!(m.is_empty());
    }

    #[test]
    fn capacity_is_enforced() {
        let mut m = Mshr::new(1);
        m.allocate(0x0, MsgId::fresh(), waiter());
        assert!(m.is_full());
    }

    #[test]
    #[should_panic(expected = "full")]
    fn allocate_when_full_panics() {
        let mut m = Mshr::new(1);
        m.allocate(0x0, MsgId::fresh(), waiter());
        m.allocate(0x40, MsgId::fresh(), waiter());
    }

    #[test]
    #[should_panic(expected = "already tracked")]
    fn double_allocate_same_line_panics() {
        let mut m = Mshr::new(4);
        m.allocate(0x10, MsgId::fresh(), waiter());
        m.allocate(0x20, MsgId::fresh(), waiter());
    }

    #[test]
    fn unknown_completion_is_none() {
        let mut m = Mshr::new(1);
        assert!(m.complete(MsgId::fresh()).is_none());
    }
}
