//! The L2 cache: write-back, write-allocate, with a write buffer — and the
//! deadlock bug of the paper's Case Study 2.
//!
//! In MGPUSim's L2, evicted dirty lines pass through a *write buffer* on
//! their way to DRAM, and lines fetched *from* DRAM also pass through the
//! write buffer before entering local storage. The bug: local storage holds
//! an eviction it cannot push into the full write buffer, and therefore
//! refuses the fetched data the write buffer wants to hand over — a
//! circular wait that hangs the whole simulation. The fix (merged upstream
//! after the paper) lets local storage accept fetched data first, freeing a
//! write-buffer slot for the eviction.
//!
//! Set [`L2Config::inject_writeback_deadlock`] to reproduce the hang.

use serde::{Deserialize, Serialize};
use std::collections::{HashSet, VecDeque};

use akita::{
    trace, CompBase, Component, ComponentState, Ctx, IdBuildHasher, Msg, MsgExt, MsgId, Port,
    PortId, Simulation, TaskId, VTime,
};

use crate::addr::{line_of, CACHE_LINE};
use crate::directory::{Directory, Victim};
use crate::msg::{Addr, DataReadyRsp, FlushDoneRsp, FlushReq, ReadReq, WriteDoneRsp, WriteReq};
use crate::mshr::{Mshr, Waiter};
use crate::plumbing::SendQueue;

/// Configuration for an [`L2Cache`].
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(default)]
pub struct L2Config {
    /// Total cache size in bytes (paper: 2 MiB shared per chiplet).
    pub size_bytes: u64,
    /// Associativity.
    pub ways: u64,
    /// Hit latency in cycles.
    pub hit_latency: u64,
    /// MSHR entries.
    pub mshr_entries: usize,
    /// Write-buffer entries shared by evictions and fetched fills.
    pub write_buffer_cap: usize,
    /// Requests accepted per cycle.
    pub width: usize,
    /// Top-port buffer depth.
    pub top_buf: usize,
    /// Bottom-port buffer depth.
    pub bottom_buf: usize,
    /// Reintroduces the write-buffer ↔ local-storage circular wait
    /// (Case Study 2). Default `false` = the fixed behaviour.
    pub inject_writeback_deadlock: bool,
}

impl Default for L2Config {
    fn default() -> Self {
        L2Config {
            size_bytes: 2 * 1024 * 1024,
            ways: 16,
            hit_latency: 8,
            mshr_entries: 32,
            write_buffer_cap: 16,
            width: 4,
            top_buf: 8,
            bottom_buf: 8,
            inject_writeback_deadlock: false,
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum WbEntry {
    /// A dirty victim headed for DRAM.
    Evict(Addr),
    /// A fetched line headed for local storage, completing this fetch id.
    Fetched(MsgId),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RspKind {
    Data(u32),
    WriteDone,
}

struct RspInFlight {
    ready: VTime,
    kind: RspKind,
    up_id: MsgId,
    requester: PortId,
    task: TaskId,
    accepted_at: VTime,
}

/// A write-back L2 cache component.
pub struct L2Cache {
    base: CompBase,
    site: trace::SiteId,
    /// Port facing the L1s (via the L1↔L2 switch or RDMA).
    pub top: Port,
    /// Port facing the DRAM controller.
    pub bottom: Port,
    /// Control port (flush requests from the dispatcher).
    pub ctrl: Port,
    dram_dst: Option<PortId>,
    cfg: L2Config,
    dir: Directory,
    mshr: Mshr,
    write_buffer: VecDeque<WbEntry>,
    /// The "local storage"'s single eviction staging slot (see module docs).
    staging_evict: Option<Addr>,
    /// Evictions in flight to DRAM, awaiting WriteDone.
    wb_writes: HashSet<MsgId, IdBuildHasher>,
    rsp_pipeline: VecDeque<RspInFlight>,
    pending_down: VecDeque<Box<dyn Msg>>,
    up_queue: SendQueue,
    /// In-progress flush: dirty lines still to push plus the request to
    /// acknowledge once everything reaches DRAM.
    flushing: Option<(MsgId, PortId)>,
    flush_queue: VecDeque<Addr>,
    pending_ctrl: Option<Box<dyn Msg>>,
    flushes: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    fills: u64,
}

impl L2Cache {
    /// Creates an L2 cache named `name`.
    pub fn new(sim: &Simulation, name: &str, cfg: L2Config) -> Self {
        let reg = sim.buffer_registry();
        let top = Port::new(&reg, format!("{name}.TopPort"), cfg.top_buf);
        let bottom = Port::new(&reg, format!("{name}.BottomPort"), cfg.bottom_buf);
        let ctrl = Port::new(&reg, format!("{name}.CtrlPort"), 2);
        let up_queue = SendQueue::new(top.clone(), cfg.width.max(4));
        // Expose the write buffer's fill level as its own monitorable
        // buffer via a dedicated probe component state instead; the shared
        // queue itself is internal.
        L2Cache {
            base: CompBase::new("L2Cache", name),
            site: trace::site(name),
            top,
            bottom,
            ctrl,
            dram_dst: None,
            dir: Directory::new(cfg.size_bytes, cfg.ways, CACHE_LINE),
            mshr: Mshr::new(cfg.mshr_entries),
            write_buffer: VecDeque::new(),
            staging_evict: None,
            wb_writes: HashSet::default(),
            rsp_pipeline: VecDeque::new(),
            pending_down: VecDeque::new(),
            up_queue,
            flushing: None,
            flush_queue: VecDeque::new(),
            pending_ctrl: None,
            flushes: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
            fills: 0,
            cfg,
        }
    }

    /// Points the L2 at its DRAM controller.
    pub fn set_dram(&mut self, dst: PortId) {
        self.dram_dst = Some(dst);
    }

    /// In-flight transactions: outstanding misses, buffered write-backs,
    /// and evictions awaiting DRAM acknowledgment.
    pub fn transactions(&self) -> usize {
        self.mshr.len() + self.write_buffer.len() + self.wb_writes.len()
    }

    /// Lifetime `(hits, misses)`.
    pub fn hit_stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Write-buffer occupancy `(len, cap)`.
    pub fn write_buffer_level(&self) -> (usize, usize) {
        (self.write_buffer.len(), self.cfg.write_buffer_cap)
    }

    /// Whether the deadlocked shape is currently present (diagnostic for
    /// tests and the hang case study).
    pub fn is_wedged(&self) -> bool {
        if !self.cfg.inject_writeback_deadlock
            || self.write_buffer.len() < self.cfg.write_buffer_cap
        {
            return false;
        }
        match self.write_buffer.front() {
            Some(WbEntry::Fetched(down_id)) => {
                self.staging_evict.is_some()
                    || self
                        .mshr
                        .peek_line(*down_id)
                        .is_some_and(|line| matches!(self.dir.peek_victim(line), Victim::Dirty(_)))
            }
            _ => false,
        }
    }

    fn dram(&self) -> PortId {
        self.dram_dst
            .unwrap_or_else(|| panic!("L2 {}: DRAM not wired", self.base.name))
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

    /// Pulls DRAM responses into the write buffer (fills) or retires
    /// eviction acknowledgments.
    fn collect_responses(&mut self, ctx: &mut Ctx) -> bool {
        let mut progress = false;
        while let Some(is_fill) = self
            .bottom
            .peek(|m| m.downcast_ref::<DataReadyRsp>().is_some())
        {
            if is_fill && self.write_buffer.len() >= self.cfg.write_buffer_cap {
                // Fetched data must pass through the write buffer; full
                // buffer backpressures DRAM.
                break;
            }
            let msg = self.bottom.retrieve(ctx).expect("peeked above");
            if let Some(d) = (*msg).downcast_ref::<DataReadyRsp>() {
                self.write_buffer.push_back(WbEntry::Fetched(d.respond_to));
            } else if let Some(wd) = (*msg).downcast_ref::<WriteDoneRsp>() {
                assert!(
                    self.wb_writes.remove(&wd.respond_to),
                    "L2 {}: write-done {} matches no eviction",
                    self.name(),
                    wd.respond_to
                );
            } else {
                panic!("L2 {}: unexpected message from below", self.name());
            }
            progress = true;
        }
        progress
    }

    fn queue_response(
        &mut self,
        now: VTime,
        kind: RspKind,
        up_id: MsgId,
        requester: PortId,
        task: TaskId,
        accepted_at: VTime,
    ) {
        self.rsp_pipeline.push_back(RspInFlight {
            ready: now + self.base.freq.cycles(self.cfg.hit_latency),
            kind,
            up_id,
            requester,
            task,
            accepted_at,
        });
    }

    fn drain_rsp_pipeline(&mut self, ctx: &mut Ctx) -> bool {
        let now = ctx.now();
        let mut progress = false;
        while self.up_queue.can_push() {
            let Some(head) = self.rsp_pipeline.front() else {
                break;
            };
            if head.ready > now {
                let id = self.base.id;
                let t = head.ready;
                ctx.schedule_tick(id, t);
                break;
            }
            let h = self.rsp_pipeline.pop_front().expect("front checked");
            let (mut rsp, label): (Box<dyn Msg>, _) = match h.kind {
                RspKind::Data(size) => (
                    Box::new(DataReadyRsp::new(h.requester, h.up_id, size)),
                    "read",
                ),
                RspKind::WriteDone => (Box::new(WriteDoneRsp::new(h.requester, h.up_id)), "write"),
            };
            rsp.meta_mut().inherit_task(h.task, label);
            trace::complete(
                h.task,
                self.site,
                label,
                trace::Phase::Service,
                h.accepted_at,
                now,
            );
            self.up_queue.push(rsp);
            progress = true;
        }
        progress
    }

    /// Moves the staged eviction into the write buffer when space allows.
    fn destage(&mut self) -> bool {
        if let Some(addr) = self.staging_evict {
            if self.write_buffer.len() < self.cfg.write_buffer_cap {
                self.write_buffer.push_back(WbEntry::Evict(addr));
                self.staging_evict = None;
                return true;
            }
        }
        false
    }

    /// Drains the write buffer: evictions to DRAM, fetched fills to local
    /// storage. This is where the Case Study 2 bug lives.
    fn drain_write_buffer(&mut self, ctx: &mut Ctx) -> bool {
        let mut progress = self.destage();
        for _ in 0..self.cfg.width {
            match self.write_buffer.front().copied() {
                Some(WbEntry::Evict(addr)) => {
                    if self.pending_down.len() >= 4 {
                        break;
                    }
                    self.write_buffer.pop_front();
                    let down = WriteReq::new(self.dram(), addr, CACHE_LINE as u32);
                    self.wb_writes.insert(down.meta.id);
                    self.pending_down.push_back(Box::new(down));
                    self.evictions += 1;
                    progress = true;
                }
                Some(WbEntry::Fetched(down_id)) => {
                    if self.cfg.inject_writeback_deadlock {
                        // THE BUG: local storage insists on pushing the
                        // fill's dirty victim into the write buffer *before*
                        // consuming the fetched entry — ignoring that
                        // consuming it would free the very slot the eviction
                        // needs. With the buffer full of fetched data, the
                        // write buffer waits on local storage and local
                        // storage waits on the write buffer: circular wait.
                        let line = self.mshr.peek_line(down_id).unwrap_or_else(|| {
                            panic!("L2 {}: fill {down_id} matches no MSHR entry", self.name())
                        });
                        let needs_evict_slot = self.staging_evict.is_some()
                            || matches!(self.dir.peek_victim(line), Victim::Dirty(_));
                        if needs_evict_slot && self.write_buffer.len() >= self.cfg.write_buffer_cap
                        {
                            break;
                        }
                    }
                    self.write_buffer.pop_front();
                    let entry = self.mshr.complete(down_id).unwrap_or_else(|| {
                        panic!("L2 {}: fill {down_id} matches no MSHR entry", self.name())
                    });
                    self.fills += 1;
                    match self.dir.allocate(entry.line) {
                        Victim::Dirty(vaddr) => {
                            // The fixed path: the pop above freed a slot, so
                            // the eviction (via staging) makes progress.
                            self.staging_evict = Some(vaddr);
                            self.destage();
                        }
                        Victim::Clean(_) | Victim::None => {}
                    }
                    let now = ctx.now();
                    for w in entry.waiters {
                        self.queue_response(
                            now,
                            RspKind::Data(w.size),
                            w.req_id,
                            w.requester,
                            w.task,
                            w.accepted_at,
                        );
                    }
                    progress = true;
                }
                None => break,
            }
        }
        progress |= self.destage();
        progress
    }

    /// Handles flush control traffic: dirty lines drain through the write
    /// buffer to DRAM, then the directory is empty and the flush acks.
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
                    .unwrap_or_else(|| panic!("L2 {}: unexpected control message", self.name()));
                self.flushing = Some((req.meta.id, req.meta.src));
                self.flush_queue = self.dir.drain_all().into();
                progress = true;
            }
        }
        if self.flushing.is_some() {
            // Feed dirty lines into the write buffer as space allows.
            while self.write_buffer.len() < self.cfg.write_buffer_cap {
                let Some(addr) = self.flush_queue.pop_front() else {
                    break;
                };
                self.write_buffer.push_back(WbEntry::Evict(addr));
                progress = true;
            }
            let drained = self.flush_queue.is_empty()
                && self.staging_evict.is_none()
                && self.write_buffer.is_empty()
                && self.wb_writes.is_empty()
                && self.mshr.is_empty();
            if drained {
                let (req_id, requester) = self.flushing.take().expect("checked");
                self.flushes += 1;
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
            // No new work while draining.
            return false;
        }
        for _ in 0..self.cfg.width {
            if self.pending_down.len() >= 4 {
                break;
            }
            enum Action {
                ReadHit,
                ReadCoalesce,
                ReadMiss,
                WriteHit,
                WriteAllocate,
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
                    head.unwrap_or_else(|| panic!("L2 {}: unexpected message kind", self.name()));
                if is_read {
                    if self.dir.contains(addr) {
                        Action::ReadHit
                    } else if self.mshr.lookup(addr).is_some() {
                        Action::ReadCoalesce
                    } else if self.mshr.is_full() {
                        break;
                    } else {
                        Action::ReadMiss
                    }
                } else if self.dir.contains(addr) {
                    Action::WriteHit
                } else {
                    // Write-allocate needs room for a potential dirty victim.
                    if matches!(self.dir.peek_victim(addr), Victim::Dirty(_))
                        && (self.staging_evict.is_some()
                            || self.write_buffer.len() >= self.cfg.write_buffer_cap)
                    {
                        break;
                    }
                    Action::WriteAllocate
                }
            };
            let msg = self.top.retrieve(ctx).expect("peeked above");
            match action {
                Action::ReadHit => {
                    let r = (*msg).downcast_ref::<ReadReq>().expect("peeked read");
                    self.hits += 1;
                    trace::begin(r.meta.task, self.site, "read", now);
                    self.queue_response(
                        now,
                        RspKind::Data(r.size),
                        r.meta.id,
                        r.meta.src,
                        r.meta.task,
                        now,
                    );
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
                    let mut down = ReadReq::new(self.dram(), line, CACHE_LINE as u32);
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
                Action::WriteHit => {
                    let w = (*msg).downcast_ref::<WriteReq>().expect("peeked write");
                    self.hits += 1;
                    trace::begin(w.meta.task, self.site, "write", now);
                    self.dir.mark_dirty(w.addr);
                    self.queue_response(
                        now,
                        RspKind::WriteDone,
                        w.meta.id,
                        w.meta.src,
                        w.meta.task,
                        now,
                    );
                }
                Action::WriteAllocate => {
                    let w = (*msg).downcast_ref::<WriteReq>().expect("peeked write");
                    self.misses += 1;
                    trace::begin(w.meta.task, self.site, "write", now);
                    // Full-line write allocation: install without fetching.
                    match self.dir.allocate(w.addr) {
                        Victim::Dirty(vaddr) => {
                            if self.write_buffer.len() < self.cfg.write_buffer_cap {
                                self.write_buffer.push_back(WbEntry::Evict(vaddr));
                            } else {
                                self.staging_evict = Some(vaddr);
                            }
                        }
                        Victim::Clean(_) | Victim::None => {}
                    }
                    self.dir.mark_dirty(w.addr);
                    self.queue_response(
                        now,
                        RspKind::WriteDone,
                        w.meta.id,
                        w.meta.src,
                        w.meta.task,
                        now,
                    );
                }
            }
            progress = true;
        }
        progress
    }
}

impl Component for L2Cache {
    fn base(&self) -> &CompBase {
        &self.base
    }

    fn base_mut(&mut self) -> &mut CompBase {
        &mut self.base
    }

    fn tick(&mut self, ctx: &mut Ctx) -> bool {
        let _prof = akita::profile::scope("L2Cache::tick");
        let mut progress = false;
        progress |= self.up_queue.flush(ctx);
        progress |= self.flush_down(ctx);
        progress |= self.collect_responses(ctx);
        progress |= self.drain_write_buffer(ctx);
        progress |= self.drain_rsp_pipeline(ctx);
        progress |= self.handle_ctrl(ctx);
        progress |= self.accept_requests(ctx);
        progress |= self.up_queue.flush(ctx);
        progress |= self.flush_down(ctx);
        progress
    }

    fn state(&self) -> ComponentState {
        ComponentState::new()
            .container(
                "transactions",
                self.transactions(),
                Some(self.cfg.mshr_entries + self.cfg.write_buffer_cap * 2),
            )
            .container("mshr", self.mshr.len(), Some(self.cfg.mshr_entries))
            .container(
                "write_buffer",
                self.write_buffer.len(),
                Some(self.cfg.write_buffer_cap),
            )
            .field("staging_evict_busy", self.staging_evict.is_some())
            .field("hits", self.hits)
            .field("misses", self.misses)
            .field("evictions", self.evictions)
            .field("fills", self.fills)
            .field("flushes", self.flushes)
            .field("flushing", self.flushing.is_some())
            .field("wedged", self.is_wedged())
    }
}

impl std::fmt::Debug for L2Cache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "L2Cache({} {} transactions, wb {}/{})",
            self.name(),
            self.transactions(),
            self.write_buffer.len(),
            self.cfg.write_buffer_cap
        )
    }
}
