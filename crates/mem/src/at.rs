//! Address translation: page table, TLB, and the L1VAddrTranslator
//! component that sits between the ROB and the L1 cache.
//!
//! In Case Study 1 the address translator is ruled out as a bottleneck
//! because its transaction count shows "high peaks turning flat within a
//! short duration" — it drains quickly. This component reproduces that
//! behaviour: translations cost one cycle on a TLB hit and a fixed walk
//! latency on a miss, and in-flight transactions are exposed via `state()`.

use std::collections::{HashMap, VecDeque};
use std::rc::Rc;
use std::sync::{Mutex, PoisonError};

use serde::{Deserialize, Serialize};

use akita::{
    trace, BufferRegistry, CompBase, Component, ComponentState, Ctx, IdBuildHasher, Msg, MsgExt,
    MsgId, Port, PortId, Simulation, TaskId, VTime,
};

use crate::msg::{as_response, AccessKind, Addr, DataReadyRsp, ReadReq, WriteDoneRsp, WriteReq};
use crate::plumbing::SendQueue;
use crate::routing::LowModuleFinder;
use crate::tlb2::{TranslationReq, TranslationRsp};

/// A shared virtual→physical page table, filled by the driver at allocation
/// time.
///
/// Unmapped addresses translate to themselves (identity), so standalone
/// tests can skip the driver entirely.
#[derive(Debug)]
pub struct PageTable {
    page_size: u64,
    map: Mutex<HashMap<u64, u64, IdBuildHasher>>,
}

impl PageTable {
    /// Creates a page table with `page_size`-byte pages.
    ///
    /// # Panics
    ///
    /// Panics if `page_size` is not a power of two.
    pub fn new(page_size: u64) -> Rc<Self> {
        assert!(page_size.is_power_of_two(), "page size must be 2^n");
        Rc::new(PageTable {
            page_size,
            map: Mutex::new(HashMap::default()),
        })
    }

    /// Page size in bytes.
    pub fn page_size(&self) -> u64 {
        self.page_size
    }

    /// Maps virtual page containing `vaddr` to the physical page containing
    /// `paddr`.
    pub fn map_page(&self, vaddr: Addr, paddr: Addr) {
        self.map
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(vaddr / self.page_size, paddr / self.page_size);
    }

    /// Number of mapped pages.
    pub fn mapped_pages(&self) -> usize {
        self.map
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Translates `vaddr`, falling back to identity for unmapped pages.
    pub fn translate(&self, vaddr: Addr) -> Addr {
        let vpage = vaddr / self.page_size;
        let offset = vaddr % self.page_size;
        match self
            .map
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&vpage)
        {
            Some(ppage) => ppage * self.page_size + offset,
            None => vaddr,
        }
    }
}

/// A translation lookaside buffer with LRU replacement.
#[derive(Debug)]
pub struct Tlb {
    capacity: usize,
    entries: HashMap<u64, u64, IdBuildHasher>, // vpage -> last_use
    clock: u64,
    hits: u64,
    misses: u64,
}

impl Tlb {
    /// Creates a TLB holding `capacity` page translations.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "TLB capacity must be positive");
        Tlb {
            capacity,
            entries: HashMap::default(),
            clock: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Looks up `vpage`; records a hit or miss.
    pub fn access(&mut self, vpage: u64) -> bool {
        self.clock += 1;
        if let Some(last) = self.entries.get_mut(&vpage) {
            *last = self.clock;
            self.hits += 1;
            true
        } else {
            self.misses += 1;
            false
        }
    }

    /// Inserts `vpage`, evicting the LRU entry when full.
    pub fn insert(&mut self, vpage: u64) {
        self.clock += 1;
        if self.entries.contains_key(&vpage) {
            return;
        }
        if self.entries.len() >= self.capacity {
            if let Some((&lru, _)) = self.entries.iter().min_by_key(|(_, &last)| last) {
                self.entries.remove(&lru);
            }
        }
        self.entries.insert(vpage, self.clock);
    }

    /// Lifetime hit count.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lifetime miss count.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Entries currently cached.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the TLB caches no translations.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Configuration for an [`AddressTranslator`].
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(default)]
pub struct AtConfig {
    /// TLB entries.
    pub tlb_entries: usize,
    /// Cycles for a TLB hit.
    pub hit_latency: u64,
    /// Cycles for a page walk on TLB miss.
    pub walk_latency: u64,
    /// Requests accepted per cycle.
    pub width: usize,
    /// Maximum translations in flight.
    pub depth: usize,
    /// Top-port buffer depth.
    pub top_buf: usize,
    /// Bottom-port buffer depth.
    pub bottom_buf: usize,
}

impl Default for AtConfig {
    fn default() -> Self {
        AtConfig {
            tlb_entries: 32,
            hit_latency: 1,
            walk_latency: 40,
            width: 4,
            depth: 16,
            top_buf: 4,
            bottom_buf: 8,
        }
    }
}

struct InFlight {
    ready: VTime,
    kind: AccessKind,
    phys: Addr,
    size: u32,
    up_id: MsgId,
    requester: PortId,
    task: TaskId,
    accepted_at: VTime,
}

/// A request parked while the shared L2 TLB translates its page.
struct WaitingOnTlb {
    kind: AccessKind,
    size: u32,
    up_id: MsgId,
    requester: PortId,
    task: TaskId,
    accepted_at: VTime,
}

/// Bookkeeping for a request forwarded downstream, keyed by the
/// downstream request id.
struct DownEntry {
    requester: PortId,
    up_id: MsgId,
    kind: AccessKind,
    size: u32,
    task: TaskId,
    accepted_at: VTime,
}

/// The address-translation stage (L1VAddrTranslator).
pub struct AddressTranslator {
    base: CompBase,
    site: trace::SiteId,
    /// Port facing the ROB.
    pub top: Port,
    /// Port facing the L1 cache.
    pub bottom: Port,
    /// Port facing the shared L2 TLB. Created by
    /// [`AddressTranslator::set_l2_tlb`] — platforms without an L2 TLB
    /// never materialize it, so it cannot sit around unattached.
    pub tlb_port: Option<Port>,
    /// L1-TLB misses go to this L2 TLB instead of paying the fixed walk
    /// latency, when set.
    l2tlb_dst: Option<PortId>,
    /// Requests awaiting an L2 TLB answer, by translation-request id.
    waiting_tlb: HashMap<MsgId, WaitingOnTlb, IdBuildHasher>,
    pending_tlb: Option<Box<dyn Msg>>,
    low: Option<Box<dyn LowModuleFinder>>,
    page_table: Rc<PageTable>,
    tlb: Tlb,
    cfg: AtConfig,
    pipeline: VecDeque<InFlight>,
    /// Bookkeeping for forwarded requests, by downstream request id.
    down_map: HashMap<MsgId, DownEntry, IdBuildHasher>,
    pending_down: Option<Box<dyn Msg>>,
    up_queue: SendQueue,
    translated: u64,
    /// Pipeline entries still inside their translation-latency window at
    /// the last tick — the AT's *active* work, which drains within a walk
    /// latency of the input stopping (the paper's Fig 5d signature).
    active_translations: usize,
}

impl AddressTranslator {
    /// Creates an address translator named `name`.
    pub fn new(sim: &Simulation, name: &str, page_table: Rc<PageTable>, cfg: AtConfig) -> Self {
        let reg = sim.buffer_registry();
        let top = Port::new(&reg, format!("{name}.TopPort"), cfg.top_buf);
        let bottom = Port::new(&reg, format!("{name}.BottomPort"), cfg.bottom_buf);
        let up_queue = SendQueue::new(top.clone(), cfg.width.max(4));
        AddressTranslator {
            base: CompBase::new("AddressTranslator", name),
            site: trace::site(name),
            top,
            bottom,
            tlb_port: None,
            l2tlb_dst: None,
            waiting_tlb: HashMap::default(),
            pending_tlb: None,
            low: None,
            tlb: Tlb::new(cfg.tlb_entries),
            page_table,
            cfg,
            pipeline: VecDeque::new(),
            down_map: HashMap::default(),
            pending_down: None,
            up_queue,
            translated: 0,
            active_translations: 0,
        }
    }

    /// Routes translated requests toward memory.
    pub fn set_low(&mut self, low: Box<dyn LowModuleFinder>) {
        self.low = Some(low);
    }

    /// Routes L1-TLB misses to a shared L2 TLB instead of the fixed
    /// walk-latency model. Creates and returns the TLB-facing port so the
    /// caller can attach it to the TLB's connection.
    pub fn set_l2_tlb(&mut self, reg: &BufferRegistry, dst: PortId) -> Port {
        self.l2tlb_dst = Some(dst);
        let port = Port::new(reg, format!("{}.TlbPort", self.name()), 4);
        self.tlb_port = Some(port.clone());
        port
    }

    /// Translations that were still inside their latency window at the
    /// last tick — the AT's *active* work. Entries already translated but
    /// blocked on downstream backpressure, and requests awaiting responses,
    /// are not the AT's own backlog (see
    /// [`AddressTranslator::awaiting_response`]).
    pub fn transactions(&self) -> usize {
        self.active_translations
    }

    /// Total entries in the translation pipeline, including translated ones
    /// blocked on downstream backpressure.
    pub fn pipeline_len(&self) -> usize {
        self.pipeline.len()
    }

    /// Forwarded requests whose responses have not returned yet.
    pub fn awaiting_response(&self) -> usize {
        self.down_map.len()
    }

    /// TLB statistics `(hits, misses)`.
    pub fn tlb_stats(&self) -> (u64, u64) {
        (self.tlb.hits(), self.tlb.misses())
    }

    fn pass_responses_up(&mut self, ctx: &mut Ctx) -> bool {
        let mut progress = self.up_queue.flush(ctx);
        while self.up_queue.can_push() {
            let Some(msg) = self.bottom.retrieve(ctx) else {
                break;
            };
            let (respond_to, _) = as_response(&*msg)
                .unwrap_or_else(|| panic!("AT {}: unexpected message from below", self.name()));
            let d = self.down_map.remove(&respond_to).unwrap_or_else(|| {
                panic!(
                    "AT {}: response {respond_to} matches no translation",
                    self.name()
                )
            });
            let mut rsp: Box<dyn Msg> = match d.kind {
                AccessKind::Read => Box::new(DataReadyRsp::new(d.requester, d.up_id, d.size)),
                AccessKind::Write => Box::new(WriteDoneRsp::new(d.requester, d.up_id)),
            };
            rsp.meta_mut().inherit_task(d.task, d.kind.label());
            trace::complete(
                d.task,
                self.site,
                d.kind.label(),
                trace::Phase::Service,
                d.accepted_at,
                ctx.now(),
            );
            self.up_queue.push(rsp);
            progress = true;
        }
        progress |= self.up_queue.flush(ctx);
        progress
    }

    fn issue_translated(&mut self, ctx: &mut Ctx) -> bool {
        let mut progress = false;
        if let Some(msg) = self.pending_down.take() {
            if let Err(msg) = self.bottom.send(ctx, msg) {
                self.pending_down = Some(msg);
                return false;
            }
            progress = true;
        }
        let now = ctx.now();
        while self.pending_down.is_none() {
            let Some(head) = self.pipeline.front() else {
                break;
            };
            if head.ready > now {
                let id = self.base.id;
                let t = head.ready;
                ctx.schedule_tick(id, t);
                break;
            }
            let head = self.pipeline.pop_front().expect("front checked");
            let low = self
                .low
                .as_ref()
                .unwrap_or_else(|| panic!("AT {}: low module not wired", self.base.name));
            let dst = low.find(head.phys);
            let mut down: Box<dyn Msg> = match head.kind {
                AccessKind::Read => Box::new(ReadReq::new(dst, head.phys, head.size)),
                AccessKind::Write => Box::new(WriteReq::new(dst, head.phys, head.size)),
            };
            down.meta_mut().inherit_task(head.task, head.kind.label());
            self.down_map.insert(
                down.meta().id,
                DownEntry {
                    requester: head.requester,
                    up_id: head.up_id,
                    kind: head.kind,
                    size: head.size,
                    task: head.task,
                    accepted_at: head.accepted_at,
                },
            );
            self.translated += 1;
            if let Err(m) = self.bottom.send(ctx, down) {
                self.pending_down = Some(m);
            }
            progress = true;
        }
        progress
    }

    /// Retries a blocked L2 TLB request and admits completed translations
    /// into the issue pipeline.
    fn collect_tlb(&mut self, ctx: &mut Ctx) -> bool {
        let Some(tlb_port) = self.tlb_port.clone() else {
            return false;
        };
        let mut progress = false;
        if let Some(msg) = self.pending_tlb.take() {
            match tlb_port.send(ctx, msg) {
                Ok(()) => progress = true,
                Err(msg) => {
                    self.pending_tlb = Some(msg);
                    return false;
                }
            }
        }
        let now = ctx.now();
        while self.pipeline.len() < self.cfg.depth {
            let Some(msg) = tlb_port.retrieve(ctx) else {
                break;
            };
            let rsp = (*msg)
                .downcast_ref::<TranslationRsp>()
                .unwrap_or_else(|| panic!("AT {}: unexpected TLB message", self.name()));
            let w = self
                .waiting_tlb
                .remove(&rsp.respond_to)
                .unwrap_or_else(|| panic!("AT {}: TLB answer matches nothing", self.name()));
            // Cache the page locally for the next access.
            self.tlb.insert(rsp.paddr / self.page_table.page_size());
            let mut ready = now + self.base.freq.cycles(self.cfg.hit_latency);
            if let Some(last) = self.pipeline.back() {
                ready = ready.max(last.ready);
            }
            self.pipeline.push_back(InFlight {
                ready,
                kind: w.kind,
                phys: rsp.paddr,
                size: w.size,
                up_id: w.up_id,
                requester: w.requester,
                task: w.task,
                accepted_at: w.accepted_at,
            });
            progress = true;
        }
        progress
    }

    fn accept_requests(&mut self, ctx: &mut Ctx) -> bool {
        let mut progress = false;
        let now = ctx.now();
        for _ in 0..self.cfg.width {
            if self.pipeline.len() >= self.cfg.depth {
                break;
            }
            if self.pending_tlb.is_some() {
                break;
            }
            let Some(msg) = self.top.retrieve(ctx) else {
                break;
            };
            let (kind, vaddr, size, up_id, requester, task) =
                if let Some(r) = (*msg).downcast_ref::<ReadReq>() {
                    (
                        AccessKind::Read,
                        r.addr,
                        r.size,
                        r.meta.id,
                        r.meta.src,
                        r.meta.task,
                    )
                } else if let Some(w) = (*msg).downcast_ref::<WriteReq>() {
                    (
                        AccessKind::Write,
                        w.addr,
                        w.size,
                        w.meta.id,
                        w.meta.src,
                        w.meta.task,
                    )
                } else {
                    panic!("AT {}: unexpected message from above", self.name());
                };
            trace::begin(task, self.site, kind.label(), now);
            let vpage = vaddr / self.page_table.page_size();
            let hit = self.tlb.access(vpage);
            if !hit {
                if let Some(tlb_dst) = self.l2tlb_dst {
                    // Park the request and ask the shared L2 TLB.
                    let req = TranslationReq::new(tlb_dst, vaddr);
                    self.waiting_tlb.insert(
                        req.meta.id,
                        WaitingOnTlb {
                            kind,
                            size,
                            up_id,
                            requester,
                            task,
                            accepted_at: now,
                        },
                    );
                    let tlb_port = self
                        .tlb_port
                        .as_ref()
                        .unwrap_or_else(|| {
                            panic!("AT {}: L2 TLB wired without a port", self.name())
                        })
                        .clone();
                    if let Err(m) = tlb_port.send(ctx, Box::new(req)) {
                        self.pending_tlb = Some(m);
                    }
                    progress = true;
                    if self.pending_tlb.is_some() {
                        break;
                    }
                    continue;
                }
            }
            let latency = if hit {
                self.cfg.hit_latency
            } else {
                self.tlb.insert(vpage);
                self.cfg.walk_latency
            };
            // In-order pipeline: never ready before the previous entry.
            let mut ready = now + self.base.freq.cycles(latency);
            if let Some(last) = self.pipeline.back() {
                ready = ready.max(last.ready);
            }
            self.pipeline.push_back(InFlight {
                ready,
                kind,
                phys: self.page_table.translate(vaddr),
                size,
                up_id,
                requester,
                task,
                accepted_at: now,
            });
            progress = true;
        }
        progress
    }
}

impl Component for AddressTranslator {
    fn base(&self) -> &CompBase {
        &self.base
    }

    fn base_mut(&mut self) -> &mut CompBase {
        &mut self.base
    }

    fn tick(&mut self, ctx: &mut Ctx) -> bool {
        let _prof = akita::profile::scope("AddressTranslator::tick");
        let mut progress = false;
        progress |= self.pass_responses_up(ctx);
        progress |= self.collect_tlb(ctx);
        progress |= self.issue_translated(ctx);
        progress |= self.accept_requests(ctx);
        let now = ctx.now();
        self.active_translations = self.pipeline.iter().filter(|e| e.ready > now).count();
        progress
    }

    fn state(&self) -> ComponentState {
        ComponentState::new()
            .container(
                "transactions",
                self.active_translations,
                Some(self.cfg.depth),
            )
            .container("pipeline", self.pipeline.len(), Some(self.cfg.depth))
            .container("awaiting_response", self.down_map.len(), None)
            .container("waiting_on_l2_tlb", self.waiting_tlb.len(), None)
            .field("tlb_hits", self.tlb.hits())
            .field("tlb_misses", self.tlb.misses())
            .field("translated", self.translated)
    }
}

impl std::fmt::Debug for AddressTranslator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "AddressTranslator({} {} in flight)",
            self.name(),
            self.transactions()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_table_identity_fallback_and_mapping() {
        let pt = PageTable::new(4096);
        assert_eq!(pt.translate(0x5000), 0x5000);
        pt.map_page(0x5000, 0x9000);
        assert_eq!(pt.translate(0x5000), 0x9000);
        assert_eq!(pt.translate(0x5123), 0x9123);
        assert_eq!(pt.translate(0x6000), 0x6000);
        assert_eq!(pt.mapped_pages(), 1);
    }

    #[test]
    fn tlb_hits_after_insert() {
        let mut tlb = Tlb::new(2);
        assert!(!tlb.access(1));
        tlb.insert(1);
        assert!(tlb.access(1));
        assert_eq!(tlb.hits(), 1);
        assert_eq!(tlb.misses(), 1);
    }

    #[test]
    fn tlb_evicts_lru() {
        let mut tlb = Tlb::new(2);
        tlb.insert(1);
        tlb.insert(2);
        assert!(tlb.access(1)); // 2 is now LRU
        tlb.insert(3);
        assert!(tlb.access(1));
        assert!(!tlb.access(2));
        assert!(tlb.access(3));
        assert_eq!(tlb.len(), 2);
    }

    #[test]
    fn tlb_reinsert_is_idempotent() {
        let mut tlb = Tlb::new(2);
        tlb.insert(7);
        tlb.insert(7);
        assert_eq!(tlb.len(), 1);
    }
}
