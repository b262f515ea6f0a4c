//! Connections: the wires between ports.
//!
//! A connection is itself a ticking [`Component`]: messages accepted from a
//! source port sit in a per-destination link queue until their arrival time,
//! then move into the destination port's bounded buffer. Full buffers stall
//! the link head-of-line (backpressure); the destination port wakes the
//! connection when space frees, and the connection wakes blocked senders
//! when link space frees. This is the mechanism that turns hardware
//! bottlenecks into observable buffer fullness (paper Fig 4) and lets
//! deadlocks quiesce the simulation instead of spinning.

use std::collections::{BTreeMap, VecDeque};

use crate::component::{CompBase, Component};
use crate::engine::Ctx;
use crate::faults::MsgVerdict;
use crate::ids::{ComponentId, PortId};
use crate::msg::Msg;
use crate::port::Port;
use crate::state::ComponentState;
use crate::time::VTime;
use crate::trace;

/// Why a send was not accepted.
#[derive(Debug)]
pub enum SendError {
    /// The link toward the destination is full; the message is handed back
    /// and the sender will be woken when space frees up.
    Busy(Box<dyn Msg>),
    /// The destination port was never attached to this connection — a
    /// wiring bug, not a runtime condition. The static lint pass
    /// ([`crate::analysis`]) flags the topologies that can produce this
    /// before the first message is ever sent.
    NotAttached {
        /// Name of the connection the send went through.
        connection: String,
        /// The destination port that is not an endpoint of it.
        dst: PortId,
        /// The undeliverable message.
        msg: Box<dyn Msg>,
    },
}

/// One wait dependency observed inside a connection at runtime, used by the
/// deadlock analyzer ([`crate::analysis`]) to build the wait-for graph.
#[derive(Debug, Clone)]
pub struct LinkWait {
    /// The destination port of this link.
    pub dst_port: PortId,
    /// Messages currently queued on the link.
    pub queued: usize,
    /// Link queue capacity.
    pub cap: usize,
    /// Whether the head-of-line delivery is stalled on a full destination
    /// buffer.
    pub stalled: bool,
    /// Components whose sends were rejected and who wait for link space.
    pub blocked_senders: Vec<ComponentId>,
}

/// A wire between ports. Implemented by [`DirectConnection`] and by custom
/// fabrics such as the GPU crate's chiplet switch.
pub trait Connection: Component {
    /// Attaches `port` as an endpoint of this connection.
    fn attach(&mut self, port: &Port);

    /// Accepts `msg` for transport toward `msg.meta().dst`.
    ///
    /// # Errors
    ///
    /// [`SendError::Busy`] when the link's queue is full (the message is
    /// returned to the caller), [`SendError::NotAttached`] when the
    /// destination port is not an endpoint of this connection.
    fn push_msg(&mut self, ctx: &mut Ctx, msg: Box<dyn Msg>) -> Result<(), SendError>;

    /// The ports attached to this connection, for topology analysis.
    fn endpoints(&self) -> Vec<PortId> {
        Vec::new()
    }

    /// The current wait dependencies of every link, for the runtime
    /// deadlock analyzer. The default (no links reported) keeps custom
    /// fabrics compiling; implementing it makes them analyzable.
    fn link_waits(&self) -> Vec<LinkWait> {
        Vec::new()
    }
}

struct InFlight {
    arrive: VTime,
    msg: Box<dyn Msg>,
}

struct Link {
    port: Port,
    queue: VecDeque<InFlight>,
    cap: usize,
    /// Time the (bandwidth-limited) wire toward this port frees up.
    next_free: VTime,
    /// Components whose send was rejected; woken on delivery progress.
    blocked_senders: Vec<ComponentId>,
}

/// A point-to-point connection group with fixed latency and optional
/// per-link bandwidth.
///
/// All attached ports can exchange messages with each other; each
/// destination port has its own in-flight queue (a *link*).
pub struct DirectConnection {
    base: CompBase,
    site: trace::SiteId,
    latency: VTime,
    /// Bytes per second per link; `None` models an unlimited-bandwidth wire.
    bandwidth: Option<u64>,
    link_cap: usize,
    // BTreeMap: links drain in a deterministic order, keeping whole
    // simulations reproducible run-to-run.
    links: BTreeMap<PortId, Link>,
    delivered: u64,
    rejected: u64,
}

impl DirectConnection {
    /// Default number of in-flight messages a link can hold.
    pub const DEFAULT_LINK_CAP: usize = 8;

    /// Creates a connection with the given transport `latency`.
    pub fn new(name: impl Into<String>, latency: VTime) -> Self {
        let base = CompBase::new("DirectConnection", name);
        DirectConnection {
            site: trace::site(&base.name),
            base,
            latency,
            bandwidth: None,
            link_cap: Self::DEFAULT_LINK_CAP,
            links: BTreeMap::new(),
            delivered: 0,
            rejected: 0,
        }
    }

    /// Limits each link to `bytes_per_sec`, modeling serialization delay.
    pub fn with_bandwidth(mut self, bytes_per_sec: u64) -> Self {
        assert!(bytes_per_sec > 0, "bandwidth must be positive");
        self.bandwidth = Some(bytes_per_sec);
        self
    }

    /// Sets how many in-flight messages each link can hold.
    pub fn with_link_cap(mut self, cap: usize) -> Self {
        assert!(cap > 0, "link capacity must be positive");
        self.link_cap = cap;
        self
    }

    /// Total messages delivered so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Total sends rejected with busy so far.
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    fn arrival_time(&mut self, now: VTime, dst: PortId, bytes: u32) -> VTime {
        let min_latency = self.base.freq.period();
        let latency = if self.latency > min_latency {
            self.latency
        } else {
            min_latency
        };
        match self.bandwidth {
            None => now + latency,
            Some(bw) => {
                let link = self.links.get_mut(&dst).expect("link checked by caller");
                let ser_ps = (bytes as u64).saturating_mul(crate::time::PS_PER_SEC) / bw;
                let start = link.next_free.max(now);
                let tx_end = start + VTime::from_ps(ser_ps);
                link.next_free = tx_end;
                tx_end + latency
            }
        }
    }
}

impl Component for DirectConnection {
    fn base(&self) -> &CompBase {
        &self.base
    }

    fn base_mut(&mut self) -> &mut CompBase {
        &mut self.base
    }

    fn tick(&mut self, ctx: &mut Ctx) -> bool {
        let now = ctx.now();
        let mut progress = false;
        let mut next_arrival: Option<VTime> = None;
        for link in self.links.values_mut() {
            let mut link_progress = false;
            while let Some(head) = link.queue.front() {
                if head.arrive > now {
                    next_arrival = Some(match next_arrival {
                        Some(t) => t.min(head.arrive),
                        None => head.arrive,
                    });
                    break;
                }
                let msg = link.queue.pop_front().expect("front checked").msg;
                // Captured before `deliver` consumes the message; recorded
                // only on successful delivery.
                let hop = trace::is_enabled().then(|| {
                    let meta = msg.meta();
                    (meta.task, meta.task_kind, meta.send_time)
                });
                match link.port.deliver(ctx, msg) {
                    Ok(()) => {
                        self.delivered += 1;
                        link_progress = true;
                        if let Some((task, kind, sent)) = hop {
                            trace::complete(
                                task,
                                self.site,
                                kind,
                                trace::Phase::Transit,
                                sent,
                                now,
                            );
                        }
                    }
                    Err(msg) => {
                        // Destination buffer full: stall head-of-line. The
                        // port wakes us when the owner retrieves.
                        link.queue.push_front(InFlight { arrive: now, msg });
                        break;
                    }
                }
            }
            if link_progress {
                progress = true;
                for sender in link.blocked_senders.drain(..) {
                    ctx.wake(sender);
                }
            }
        }
        if let Some(t) = next_arrival {
            let id = self.base.id;
            ctx.schedule_tick(id, t);
        }
        progress
    }

    fn state(&self) -> ComponentState {
        let in_flight: usize = self.links.values().map(|l| l.queue.len()).sum();
        let blocked: usize = self.links.values().map(|l| l.blocked_senders.len()).sum();
        ComponentState::new()
            .field("latency", self.latency)
            .field("links", self.links.len())
            .container(
                "in_flight",
                in_flight,
                Some(self.link_cap * self.links.len().max(1)),
            )
            .field("blocked_senders", blocked)
            .field("delivered", self.delivered)
            .field("rejected", self.rejected)
    }
}

impl Connection for DirectConnection {
    fn attach(&mut self, port: &Port) {
        self.links.insert(
            port.id(),
            Link {
                port: port.clone(),
                queue: VecDeque::new(),
                cap: self.link_cap,
                next_free: VTime::ZERO,
                blocked_senders: Vec::new(),
            },
        );
    }

    fn push_msg(&mut self, ctx: &mut Ctx, mut msg: Box<dyn Msg>) -> Result<(), SendError> {
        let dst = msg.meta().dst;
        let now = ctx.now();
        let mut verdict = MsgVerdict::Pass;
        {
            let Some(link) = self.links.get_mut(&dst) else {
                return Err(SendError::NotAttached {
                    connection: self.base.name.clone(),
                    dst,
                    msg,
                });
            };
            if link.queue.len() >= link.cap {
                self.rejected += 1;
                link.blocked_senders.push(ctx.current());
                return Err(SendError::Busy(msg));
            }
            if link.port.fault_site().armed() {
                verdict = link.port.fault_site().msg_verdict();
            }
        }
        if verdict == MsgVerdict::Drop {
            // Consumed before entering the wire: the sender believes the
            // send succeeded, the destination never hears about it.
            return Ok(());
        }
        msg.meta_mut().send_time = now;
        let mut arrive = self.arrival_time(now, dst, msg.meta().traffic_bytes);
        if let MsgVerdict::Delay(extra_ps) = verdict {
            arrive += VTime::from_ps(extra_ps);
        }
        let duplicate = if verdict == MsgVerdict::Duplicate {
            // Messages that do not opt into clone_msg pass through intact.
            msg.clone_msg()
        } else {
            None
        };
        let link = self.links.get_mut(&dst).expect("checked above");
        if verdict == MsgVerdict::Reorder && !link.queue.is_empty() {
            // Jump the queue: this message swaps position — and arrival
            // time, keeping per-link delivery times monotonic — with the
            // previously queued one.
            let idx = link.queue.len() - 1;
            let prev_arrive = link.queue[idx].arrive;
            link.queue[idx].arrive = arrive;
            link.queue.insert(
                idx,
                InFlight {
                    arrive: prev_arrive,
                    msg,
                },
            );
        } else {
            link.queue.push_back(InFlight { arrive, msg });
        }
        if let Some(mut copy) = duplicate {
            if link.queue.len() < link.cap {
                copy.meta_mut().send_time = now;
                link.queue.push_back(InFlight { arrive, msg: copy });
            }
        }
        let id = self.base.id;
        ctx.schedule_tick(id, arrive);
        Ok(())
    }

    fn endpoints(&self) -> Vec<PortId> {
        self.links.keys().copied().collect()
    }

    fn link_waits(&self) -> Vec<LinkWait> {
        self.links
            .iter()
            .map(|(dst, link)| LinkWait {
                dst_port: *dst,
                queued: link.queue.len(),
                cap: link.cap,
                stalled: !link.queue.is_empty() && !link.port.can_accept(),
                blocked_senders: link.blocked_senders.clone(),
            })
            .collect()
    }
}

impl std::fmt::Debug for DirectConnection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "DirectConnection({} {} links, latency {})",
            self.base.name,
            self.links.len(),
            self.latency
        )
    }
}
