//! The L1 vector cache: write-through, no-write-allocate, MSHR-bounded.
//!
//! Case Study 1 identifies this component's signature bottleneck pattern:
//! its transaction count sits "constantly maxed out at 16" — the MSHR limit.
//! `state()` exposes exactly that `transactions` counter.

use serde::{Deserialize, Serialize};
use std::collections::{HashMap, VecDeque};

use akita::{
    trace, CompBase, Component, ComponentState, Ctx, IdBuildHasher, Msg, MsgExt, MsgId, Port,
    PortId, Simulation, TaskId, VTime,
};

use crate::addr::{line_of, CACHE_LINE};
use crate::directory::Directory;
use crate::msg::{DataReadyRsp, FlushDoneRsp, FlushReq, ReadReq, WriteDoneRsp, WriteReq};
use crate::mshr::{Mshr, Waiter};
use crate::plumbing::SendQueue;
use crate::routing::LowModuleFinder;

/// Configuration for an [`L1Cache`].
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(default)]
pub struct L1Config {
    /// Total cache size in bytes (paper: 16 KiB per CU).
    pub size_bytes: u64,
    /// Associativity.
    pub ways: u64,
    /// Hit latency in cycles.
    pub hit_latency: u64,
    /// MSHR entries — bounds outstanding misses (paper: 16).
    pub mshr_entries: usize,
    /// Outstanding write-through writes.
    pub write_slots: usize,
    /// Requests accepted per cycle.
    pub width: usize,
    /// Top-port buffer depth (paper shows 4).
    pub top_buf: usize,
    /// Bottom-port buffer depth.
    pub bottom_buf: usize,
}

impl Default for L1Config {
    fn default() -> Self {
        L1Config {
            size_bytes: 16 * 1024,
            ways: 4,
            hit_latency: 1,
            mshr_entries: 16,
            write_slots: 16,
            width: 2,
            top_buf: 4,
            bottom_buf: 8,
        }
    }
}

struct HitInFlight {
    ready: VTime,
    up_id: MsgId,
    requester: PortId,
    size: u32,
    task: TaskId,
    accepted_at: VTime,
}

/// A write-through L1 cache component.
pub struct L1Cache {
    base: CompBase,
    site: trace::SiteId,
    /// Port facing the address translator.
    pub top: Port,
    /// Port facing the L2 (via switch/RDMA routing).
    pub bottom: Port,
    /// Control port (flush requests from the dispatcher).
    pub ctrl: Port,
    low: Option<Box<dyn LowModuleFinder>>,
    cfg: L1Config,
    dir: Directory,
    mshr: Mshr,
    hit_pipeline: VecDeque<HitInFlight>,
    /// Outstanding write-through writes: downstream id → waiter.
    writes: HashMap<MsgId, Waiter, IdBuildHasher>,
    pending_down: VecDeque<Box<dyn Msg>>,
    up_queue: SendQueue,
    /// In-progress flush: the request to acknowledge once drained.
    flushing: Option<(MsgId, PortId)>,
    pending_ctrl: Option<Box<dyn Msg>>,
    hits: u64,
    misses: u64,
    write_count: u64,
    flushes: u64,
}

impl L1Cache {
    /// Creates an L1 cache named `name`.
    pub fn new(sim: &Simulation, name: &str, cfg: L1Config) -> Self {
        let reg = sim.buffer_registry();
        let top = Port::new(&reg, format!("{name}.TopPort"), cfg.top_buf);
        let bottom = Port::new(&reg, format!("{name}.BottomPort"), cfg.bottom_buf);
        let ctrl = Port::new(&reg, format!("{name}.CtrlPort"), 2);
        let up_queue = SendQueue::new(top.clone(), cfg.width.max(4));
        L1Cache {
            base: CompBase::new("L1Cache", name),
            site: trace::site(name),
            top,
            bottom,
            ctrl,
            low: None,
            dir: Directory::new(cfg.size_bytes, cfg.ways, CACHE_LINE),
            mshr: Mshr::new(cfg.mshr_entries),
            hit_pipeline: VecDeque::new(),
            writes: HashMap::default(),
            pending_down: VecDeque::new(),
            up_queue,
            flushing: None,
            pending_ctrl: None,
            hits: 0,
            misses: 0,
            write_count: 0,
            flushes: 0,
            cfg,
        }
    }

    /// Routes misses and writes toward memory.
    pub fn set_low(&mut self, low: Box<dyn LowModuleFinder>) {
        self.low = Some(low);
    }

    /// In-flight transactions: outstanding misses plus outstanding writes.
    pub fn transactions(&self) -> usize {
        self.mshr.len() + self.writes.len()
    }

    /// Lifetime `(hits, misses)`.
    pub fn hit_stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    fn low_find(&self, addr: u64) -> PortId {
        self.low
            .as_ref()
            .unwrap_or_else(|| panic!("L1 {}: low module not wired", self.base.name))
            .find(addr)
    }

    fn flush_down(&mut self, ctx: &mut Ctx) -> bool {
        let mut progress = false;
        while let Some(msg) = self.pending_down.pop_front() {
            match self.bottom.send(ctx, msg) {
                Ok(()) => progress = true,
                Err(msg) => {
                    self.pending_down.push_front(msg);
                    break;
                }
            }
        }
        progress
    }

    fn collect_responses(&mut self, ctx: &mut Ctx) -> bool {
        let mut progress = false;
        let now = ctx.now();
        while self.up_queue.can_push() {
            let Some(msg) = self.bottom.retrieve(ctx) else {
                break;
            };
            if let Some(d) = (*msg).downcast_ref::<DataReadyRsp>() {
                let entry = self.mshr.complete(d.respond_to).unwrap_or_else(|| {
                    panic!(
                        "L1 {}: fill {} matches no MSHR entry",
                        self.name(),
                        d.respond_to
                    )
                });
                // Write-through caches only ever hold clean lines, so the
                // victim needs no write-back.
                let _victim = self.dir.allocate(entry.line);
                let mut waiters = entry.waiters.into_iter();
                // First waiter goes out through the bounded queue checked
                // above; extras may exceed it, so re-check.
                for w in waiters.by_ref() {
                    let mut rsp = DataReadyRsp::new(w.requester, w.req_id, w.size);
                    rsp.meta.inherit_task(w.task, "read");
                    trace::complete(
                        w.task,
                        self.site,
                        "read",
                        trace::Phase::Service,
                        w.accepted_at,
                        now,
                    );
                    self.up_queue.push(Box::new(rsp));
                    if !self.up_queue.can_push() {
                        break;
                    }
                }
                // Any remaining coalesced waiters answer next tick via the
                // hit pipeline (the line is resident now).
                for w in waiters {
                    self.hit_pipeline.push_back(HitInFlight {
                        ready: now + self.base.freq.cycles(self.cfg.hit_latency),
                        up_id: w.req_id,
                        requester: w.requester,
                        size: w.size,
                        task: w.task,
                        accepted_at: w.accepted_at,
                    });
                }
                progress = true;
            } else if let Some(wd) = (*msg).downcast_ref::<WriteDoneRsp>() {
                let w = self.writes.remove(&wd.respond_to).unwrap_or_else(|| {
                    panic!(
                        "L1 {}: write-done {} matches no write",
                        self.name(),
                        wd.respond_to
                    )
                });
                let mut rsp = WriteDoneRsp::new(w.requester, w.req_id);
                rsp.meta.inherit_task(w.task, "write");
                trace::complete(
                    w.task,
                    self.site,
                    "write",
                    trace::Phase::Service,
                    w.accepted_at,
                    now,
                );
                self.up_queue.push(Box::new(rsp));
                progress = true;
            } else {
                panic!("L1 {}: unexpected message from below", self.name());
            }
        }
        progress
    }

    fn drain_hit_pipeline(&mut self, ctx: &mut Ctx) -> bool {
        let now = ctx.now();
        let mut progress = false;
        while self.up_queue.can_push() {
            let Some(head) = self.hit_pipeline.front() else {
                break;
            };
            if head.ready > now {
                let id = self.base.id;
                let t = head.ready;
                ctx.schedule_tick(id, t);
                break;
            }
            let h = self.hit_pipeline.pop_front().expect("front checked");
            let mut rsp = DataReadyRsp::new(h.requester, h.up_id, h.size);
            rsp.meta.inherit_task(h.task, "read");
            trace::complete(
                h.task,
                self.site,
                "read",
                trace::Phase::Service,
                h.accepted_at,
                now,
            );
            self.up_queue.push(Box::new(rsp));
            progress = true;
        }
        progress
    }

    /// Handles flush control traffic. A write-through cache holds no dirty
    /// data, so a flush only needs outstanding transactions to drain before
    /// the whole directory invalidates.
    fn handle_ctrl(&mut self, ctx: &mut Ctx) -> bool {
        let mut progress = false;
        if let Some(msg) = self.pending_ctrl.take() {
            match self.ctrl.send(ctx, msg) {
                Ok(()) => progress = true,
                Err(msg) => {
                    self.pending_ctrl = Some(msg);
                    return false;
                }
            }
        }
        if self.flushing.is_none() {
            if let Some(msg) = self.ctrl.retrieve(ctx) {
                let req = (*msg)
                    .downcast_ref::<FlushReq>()
                    .unwrap_or_else(|| panic!("L1 {}: unexpected control message", self.name()));
                self.flushing = Some((req.meta.id, req.meta.src));
                progress = true;
            }
        }
        if let Some((req_id, requester)) = self.flushing {
            if self.mshr.is_empty() && self.writes.is_empty() && self.hit_pipeline.is_empty() {
                self.dir.drain_all();
                self.flushes += 1;
                self.flushing = None;
                let rsp: Box<dyn Msg> = Box::new(FlushDoneRsp::new(requester, req_id));
                if let Err(m) = self.ctrl.send(ctx, rsp) {
                    self.pending_ctrl = Some(m);
                }
                progress = true;
            }
        }
        progress
    }

    fn accept_requests(&mut self, ctx: &mut Ctx) -> bool {
        let mut progress = false;
        let now = ctx.now();
        if self.flushing.is_some() {
            // Drain in peace: no new work during a flush.
            return false;
        }
        for _ in 0..self.cfg.width {
            if self.pending_down.len() >= 4 {
                break;
            }
            // Decide from the head without consuming, so stalls leave the
            // request in the port buffer (visible backpressure).
            enum Action {
                ReadHit,
                ReadCoalesce,
                ReadMiss,
                Write,
                Stall,
            }
            let action = {
                let Some(head) = self.top.peek(|m| {
                    if let Some(r) = m.downcast_ref::<ReadReq>() {
                        Some((true, r.addr))
                    } else {
                        m.downcast_ref::<WriteReq>().map(|w| (false, w.addr))
                    }
                }) else {
                    break;
                };
                let (is_read, addr) =
                    head.unwrap_or_else(|| panic!("L1 {}: unexpected message kind", self.name()));
                if is_read {
                    if self.dir.contains(addr) {
                        Action::ReadHit
                    } else if self.mshr.lookup(addr).is_some() {
                        Action::ReadCoalesce
                    } else if self.mshr.is_full() {
                        Action::Stall
                    } else {
                        Action::ReadMiss
                    }
                } else if self.writes.len() >= self.cfg.write_slots {
                    Action::Stall
                } else {
                    Action::Write
                }
            };
            if matches!(action, Action::Stall) {
                break;
            }
            let msg = self.top.retrieve(ctx).expect("peeked above");
            match action {
                Action::ReadHit => {
                    let r = (*msg).downcast_ref::<ReadReq>().expect("peeked read");
                    self.hits += 1;
                    trace::begin(r.meta.task, self.site, "read", now);
                    self.hit_pipeline.push_back(HitInFlight {
                        ready: now + self.base.freq.cycles(self.cfg.hit_latency),
                        up_id: r.meta.id,
                        requester: r.meta.src,
                        size: r.size,
                        task: r.meta.task,
                        accepted_at: now,
                    });
                }
                Action::ReadCoalesce => {
                    let r = (*msg).downcast_ref::<ReadReq>().expect("peeked read");
                    self.misses += 1;
                    trace::begin(r.meta.task, self.site, "read", now);
                    self.mshr
                        .lookup(r.addr)
                        .expect("coalesce checked")
                        .waiters
                        .push(Waiter {
                            req_id: r.meta.id,
                            requester: r.meta.src,
                            size: r.size,
                            task: r.meta.task,
                            accepted_at: now,
                        });
                }
                Action::ReadMiss => {
                    let r = (*msg).downcast_ref::<ReadReq>().expect("peeked read");
                    self.misses += 1;
                    trace::begin(r.meta.task, self.site, "read", now);
                    let line = line_of(r.addr);
                    let mut down = ReadReq::new(self.low_find(line), line, CACHE_LINE as u32);
                    down.meta.inherit_task(r.meta.task, r.meta.task_kind);
                    self.mshr.allocate(
                        r.addr,
                        down.meta.id,
                        Waiter {
                            req_id: r.meta.id,
                            requester: r.meta.src,
                            size: r.size,
                            task: r.meta.task,
                            accepted_at: now,
                        },
                    );
                    self.pending_down.push_back(Box::new(down));
                }
                Action::Write => {
                    let w = (*msg).downcast_ref::<WriteReq>().expect("peeked write");
                    self.write_count += 1;
                    trace::begin(w.meta.task, self.site, "write", now);
                    // Write-through: update the resident line (stays clean)
                    // and forward the write toward memory.
                    let _present = self.dir.touch(w.addr);
                    let mut down = WriteReq::new(self.low_find(w.addr), w.addr, w.size);
                    down.meta.inherit_task(w.meta.task, w.meta.task_kind);
                    self.writes.insert(
                        down.meta.id,
                        Waiter {
                            req_id: w.meta.id,
                            requester: w.meta.src,
                            size: w.size,
                            task: w.meta.task,
                            accepted_at: now,
                        },
                    );
                    self.pending_down.push_back(Box::new(down));
                }
                Action::Stall => unreachable!(),
            }
            progress = true;
        }
        progress
    }
}

impl Component for L1Cache {
    fn base(&self) -> &CompBase {
        &self.base
    }

    fn base_mut(&mut self) -> &mut CompBase {
        &mut self.base
    }

    fn tick(&mut self, ctx: &mut Ctx) -> bool {
        let _prof = akita::profile::scope("L1Cache::tick");
        let mut progress = false;
        progress |= self.up_queue.flush(ctx);
        progress |= self.flush_down(ctx);
        progress |= self.collect_responses(ctx);
        progress |= self.drain_hit_pipeline(ctx);
        progress |= self.handle_ctrl(ctx);
        progress |= self.accept_requests(ctx);
        progress |= self.up_queue.flush(ctx);
        progress |= self.flush_down(ctx);
        progress
    }

    fn state(&self) -> ComponentState {
        let cap = self.cfg.mshr_entries + self.cfg.write_slots;
        ComponentState::new()
            .container("transactions", self.transactions(), Some(cap))
            .container("mshr", self.mshr.len(), Some(self.cfg.mshr_entries))
            .container(
                "writes_in_flight",
                self.writes.len(),
                Some(self.cfg.write_slots),
            )
            .field("hits", self.hits)
            .field("misses", self.misses)
            .field("write_count", self.write_count)
            .field("flushes", self.flushes)
            .field("flushing", self.flushing.is_some())
    }
}

impl std::fmt::Debug for L1Cache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "L1Cache({} {} transactions, {}h/{}m)",
            self.name(),
            self.transactions(),
            self.hits,
            self.misses
        )
    }
}
