//! Ports: a component's message endpoints.
//!
//! Each port owns a bounded incoming buffer (visible to the buffer analyzer)
//! and may be attached to one [`Connection`](crate::Connection). Sending goes
//! through the connection; the connection delivers into the destination
//! port's buffer and wakes the owning component. When an owner retrieves a
//! message from a previously full buffer, the port wakes the connection so a
//! stalled delivery can retry — the flow-control loop that lets deadlocks
//! (Case Study 2) manifest as quiescence instead of busy-waiting.

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

use crate::buffer::{Buffer, BufferRegistry};
use crate::conn::{Connection, SendError};
use crate::engine::Ctx;
use crate::faults::FaultSite;
use crate::ids::{ComponentId, PortId};
use crate::msg::Msg;
use crate::trace;

struct PortInner {
    id: PortId,
    name: String,
    owner: Option<ComponentId>,
    conn: Option<(Rc<RefCell<dyn Connection>>, ComponentId)>,
}

/// A point-in-time description of one port, for topology analysis.
///
/// Produced by [`BufferRegistry::port_snapshots`] via the probe every
/// [`Port`] registers at creation; consumed by [`crate::analysis`].
#[derive(Debug, Clone, PartialEq)]
pub struct PortSnapshot {
    /// The port's globally unique id.
    pub id: PortId,
    /// The port's hierarchical name.
    pub name: String,
    /// The owning component, when assigned.
    pub owner: Option<ComponentId>,
    /// The attached connection's component id, when attached.
    pub connection: Option<ComponentId>,
    /// Messages currently waiting in the incoming buffer.
    pub buf_len: usize,
    /// Incoming buffer capacity.
    pub buf_cap: usize,
}

/// The registry's view of a port (mirrors the buffer probe mechanism).
pub(crate) trait PortProbe {
    fn port_snapshot(&self) -> PortSnapshot;

    /// Drops the port's strong reference to its connection.
    fn detach_conn(&self);
}

struct ProbeImpl {
    inner: Rc<RefCell<PortInner>>,
    incoming: Buffer<Box<dyn Msg>>,
}

impl PortProbe for ProbeImpl {
    fn port_snapshot(&self) -> PortSnapshot {
        let inner = self.inner.borrow();
        PortSnapshot {
            id: inner.id,
            name: inner.name.clone(),
            owner: inner.owner,
            connection: inner.conn.as_ref().map(|(_, id)| *id),
            buf_len: self.incoming.len(),
            buf_cap: self.incoming.capacity(),
        }
    }

    fn detach_conn(&self) {
        if let Ok(mut inner) = self.inner.try_borrow_mut() {
            inner.conn = None;
        }
    }
}

/// A message endpoint. Cloning clones a handle to the same port.
#[derive(Clone)]
pub struct Port {
    inner: Rc<RefCell<PortInner>>,
    incoming: Buffer<Box<dyn Msg>>,
    /// Interned at construction so the retrieve hot path records queue
    /// waits without borrowing or hashing.
    site: trace::SiteId,
    /// Fault-injection site keyed by the port's name; connections consult
    /// it per message when a plan is armed.
    fsite: FaultSite,
    /// Keeps the registry's weak probe alive for the port's lifetime.
    _probe: Rc<ProbeImpl>,
}

impl Port {
    /// Creates a port named `name` whose incoming buffer holds `buf_cap`
    /// messages. The buffer registers with `registry` as `"<name>.Buf"`;
    /// the port itself registers for topology analysis.
    ///
    /// # Panics
    ///
    /// Panics if `buf_cap` is zero.
    pub fn new(registry: &BufferRegistry, name: impl Into<String>, buf_cap: usize) -> Self {
        let name = name.into();
        let site = trace::site(&name);
        let fsite = registry.faults.site(&name);
        let incoming = Buffer::new(registry, format!("{name}.Buf"), buf_cap);
        let inner = Rc::new(RefCell::new(PortInner {
            id: PortId::fresh(),
            name,
            owner: None,
            conn: None,
        }));
        let probe = Rc::new(ProbeImpl {
            inner: Rc::clone(&inner),
            incoming: incoming.clone(),
        });
        registry.register_port(&(Rc::clone(&probe) as Rc<dyn PortProbe>));
        Port {
            inner,
            incoming,
            site,
            fsite,
            _probe: probe,
        }
    }

    /// The port's fault-injection site, consulted by connections for
    /// per-message drop/delay/duplicate/reorder verdicts.
    pub(crate) fn fault_site(&self) -> &FaultSite {
        &self.fsite
    }

    /// The port's globally unique id.
    pub fn id(&self) -> PortId {
        self.inner.borrow().id
    }

    /// The port's hierarchical name.
    pub fn name(&self) -> String {
        self.inner.borrow().name.clone()
    }

    /// The component that owns this port, if assigned.
    pub fn owner(&self) -> Option<ComponentId> {
        self.inner.borrow().owner
    }

    /// Assigns the owning component, which is woken on message delivery.
    pub fn set_owner(&self, owner: ComponentId) {
        self.inner.borrow_mut().owner = Some(owner);
    }

    /// Attaches a connection. Called by
    /// [`Simulation::connect`](crate::Simulation::connect).
    pub(crate) fn attach_conn(&self, conn: Rc<RefCell<dyn Connection>>, conn_id: ComponentId) {
        let mut inner = self.inner.borrow_mut();
        assert!(
            inner.conn.is_none(),
            "port {} is already attached to a connection",
            inner.name
        );
        inner.conn = Some((conn, conn_id));
    }

    /// Whether a connection is attached.
    pub fn is_connected(&self) -> bool {
        self.inner.borrow().conn.is_some()
    }

    /// Sends `msg` out through the attached connection.
    ///
    /// The message's `dst` must already be set; `src` is stamped with this
    /// port's id. On [`SendError::Busy`] the caller keeps the message and
    /// retries on a later tick (the connection wakes it when space frees up).
    ///
    /// # Panics
    ///
    /// Panics if no connection is attached, or if the destination port is
    /// not an endpoint of the attached connection
    /// ([`SendError::NotAttached`]) — wiring bugs the static lint pass
    /// (`crate::analysis`) reports before any message is sent.
    pub fn send(&self, ctx: &mut Ctx, mut msg: Box<dyn Msg>) -> Result<(), Box<dyn Msg>> {
        msg.meta_mut().src = self.id();
        let conn = {
            let inner = self.inner.borrow();
            let (conn, _) = inner
                .conn
                .as_ref()
                .unwrap_or_else(|| panic!("port {} has no connection", inner.name));
            Rc::clone(conn)
        };
        let result = conn.borrow_mut().push_msg(ctx, msg);
        match result {
            Ok(()) => Ok(()),
            Err(SendError::Busy(msg)) => Err(msg),
            Err(SendError::NotAttached {
                connection, dst, ..
            }) => panic!(
                "port {}: destination {dst} is not attached to connection {connection} \
                 (wiring bug — run the topology lint: `rtm-sim analyze`)",
                self.name()
            ),
        }
    }

    /// Removes the oldest delivered message, waking a stalled connection if
    /// the buffer was full.
    ///
    /// When task tracing is on, the time the message sat delivered-but-
    /// unretrieved (`now - recv_time`) is recorded as this port's queue
    /// wait — the central measurement point for every component's input
    /// queues.
    pub fn retrieve(&self, ctx: &mut Ctx) -> Option<Box<dyn Msg>> {
        let was_full = self.incoming.is_full();
        let msg = self.incoming.pop()?;
        if trace::is_enabled() {
            let meta = msg.meta();
            let wait = ctx
                .now()
                .checked_sub(meta.recv_time)
                .unwrap_or(crate::VTime::ZERO);
            trace::observe(self.site, meta.task_kind, trace::Phase::Queue, wait);
        }
        if was_full {
            if let Some((_, conn_id)) = self.inner.borrow().conn.as_ref() {
                ctx.wake(*conn_id);
            }
        }
        Some(msg)
    }

    /// Applies `f` to the oldest delivered message without removing it.
    pub fn peek<R>(&self, f: impl FnOnce(&dyn Msg) -> R) -> Option<R> {
        self.incoming.peek().map(|m| f(&**m))
    }

    /// Whether at least one delivered message is waiting.
    pub fn has_incoming(&self) -> bool {
        !self.incoming.is_empty()
    }

    /// Number of delivered messages waiting.
    pub fn incoming_len(&self) -> usize {
        self.incoming.len()
    }

    /// Delivers `msg` into the incoming buffer and wakes the owner.
    ///
    /// Called by connections; returns the message back when the buffer is
    /// full so the connection can stall.
    pub(crate) fn deliver(&self, ctx: &mut Ctx, mut msg: Box<dyn Msg>) -> Result<(), Box<dyn Msg>> {
        msg.meta_mut().recv_time = ctx.now();
        self.incoming.push(msg)?;
        if let Some(owner) = self.inner.borrow().owner {
            ctx.wake(owner);
        }
        Ok(())
    }

    /// Whether the incoming buffer can accept another message.
    pub fn can_accept(&self) -> bool {
        !self.incoming.is_full()
    }
}

impl fmt::Debug for Port {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.borrow();
        write!(
            f,
            "Port({} {} in:{}/{})",
            inner.name,
            inner.id,
            self.incoming.len(),
            self.incoming.capacity()
        )
    }
}
