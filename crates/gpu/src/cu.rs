//! The compute unit: executes workgroups' wavefront traces and issues
//! memory accesses into its L1 chain (ROB → AT → L1V).

use serde::{Deserialize, Serialize};
use std::collections::HashMap;

use akita::{
    trace, CompBase, Component, ComponentState, Ctx, IdBuildHasher, Msg, MsgExt, MsgId, Port,
    PortId, Simulation, TaskId, VTime,
};
use akita_mem::{DataReadyRsp, ReadReq, WriteDoneRsp, WriteReq};

use crate::kernel::{Inst, WorkGroupSpec};
use crate::proto::{DispatchWgMsg, WgDoneMsg};

/// Configuration for a [`ComputeUnit`].
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(default)]
pub struct CuConfig {
    /// Concurrent workgroups resident on the CU.
    pub max_wgs: usize,
    /// Outstanding memory accesses per wavefront (memory-level parallelism).
    pub max_outstanding_per_wf: usize,
    /// Memory instructions issued per cycle, CU-wide.
    pub mem_issue_width: usize,
    /// Memory-port buffer depth.
    pub mem_buf: usize,
    /// Enable the front end: instruction fetch through the shader array's
    /// L1I cache and one kernel-argument scalar load per wavefront through
    /// its L1S cache. Enabled by
    /// [`GpuConfig::frontend_caches`](crate::GpuConfig).
    pub frontend: bool,
    /// Instructions decoded per 64-byte fetch line.
    pub insts_per_fetch: u32,
}

impl Default for CuConfig {
    fn default() -> Self {
        CuConfig {
            max_wgs: 4,
            max_outstanding_per_wf: 4,
            mem_issue_width: 1,
            mem_buf: 8,
            frontend: false,
            insts_per_fetch: 16,
        }
    }
}

struct WfExec {
    insts: Vec<Inst>,
    pc: usize,
    compute_left: u32,
    outstanding: usize,
    /// Arrived at a workgroup barrier, waiting for the others.
    at_barrier: bool,
    /// Decoded instructions available before the next ifetch (front end).
    fetch_credits: u32,
    /// An instruction fetch is in flight.
    fetch_outstanding: bool,
    /// Next code offset to fetch, in bytes.
    fetch_offset: u64,
    /// The kernel-argument scalar load completed.
    scalar_done: bool,
    /// The kernel-argument scalar load is in flight.
    scalar_outstanding: bool,
}

impl WfExec {
    fn is_done(&self) -> bool {
        self.pc >= self.insts.len() && self.compute_left == 0 && self.outstanding == 0
    }

    /// Whether this wavefront no longer blocks a barrier release.
    fn barrier_ready(&self) -> bool {
        self.at_barrier || self.is_done()
    }
}

struct WgExec {
    wg_idx: u64,
    wavefronts: Vec<WfExec>,
    code_base: u64,
    args_base: u64,
    task: TaskId,
    accepted_at: VTime,
}

/// A compute unit component.
pub struct ComputeUnit {
    base: CompBase,
    site: trace::SiteId,
    /// Port into the memory hierarchy (to the ROB's top port).
    pub mem_port: Port,
    /// Port to the shader array's L1I cache (instruction fetch). Only
    /// present when the front end is modeled — an unconditional port
    /// would sit unattached on non-frontend builds and trip the
    /// `unattached-port` lint.
    pub ifetch_port: Option<Port>,
    /// Port to the shader array's L1S cache (scalar loads); see
    /// [`ComputeUnit::ifetch_port`].
    pub scalar_port: Option<Port>,
    /// Port to the dispatcher.
    pub dispatch_port: Port,
    rob_dst: Option<PortId>,
    l1i_dst: Option<PortId>,
    l1s_dst: Option<PortId>,
    dispatcher_dst: Option<PortId>,
    cfg: CuConfig,
    wgs: Vec<WgExec>,
    /// Outstanding access → (wg slot, wavefront index).
    outstanding: HashMap<MsgId, (u64, usize), IdBuildHasher>,
    /// Outstanding instruction fetches → (wg, wavefront).
    fetch_outstanding: HashMap<MsgId, (u64, usize), IdBuildHasher>,
    /// Outstanding scalar loads → (wg, wavefront).
    scalar_outstanding: HashMap<MsgId, (u64, usize), IdBuildHasher>,
    done_wgs: Vec<(u64, TaskId)>,
    insts_executed: u64,
    mem_accesses: u64,
    ifetches: u64,
    scalar_loads: u64,
    wgs_completed: u64,
}

impl ComputeUnit {
    /// Creates a compute unit named `name`.
    pub fn new(sim: &Simulation, name: &str, cfg: CuConfig) -> Self {
        let reg = sim.buffer_registry();
        let mem_port = Port::new(&reg, format!("{name}.MemPort"), cfg.mem_buf);
        let (ifetch_port, scalar_port) = if cfg.frontend {
            (
                Some(Port::new(&reg, format!("{name}.IFetchPort"), 4)),
                Some(Port::new(&reg, format!("{name}.ScalarPort"), 4)),
            )
        } else {
            (None, None)
        };
        let dispatch_port = Port::new(&reg, format!("{name}.DispatchPort"), cfg.max_wgs.max(2));
        ComputeUnit {
            base: CompBase::new("ComputeUnit", name),
            site: trace::site(name),
            mem_port,
            ifetch_port,
            scalar_port,
            dispatch_port,
            rob_dst: None,
            l1i_dst: None,
            l1s_dst: None,
            dispatcher_dst: None,
            cfg,
            wgs: Vec::new(),
            outstanding: HashMap::default(),
            fetch_outstanding: HashMap::default(),
            scalar_outstanding: HashMap::default(),
            done_wgs: Vec::new(),
            insts_executed: 0,
            mem_accesses: 0,
            ifetches: 0,
            scalar_loads: 0,
            wgs_completed: 0,
        }
    }

    /// Points memory accesses at the ROB's top port.
    pub fn set_rob(&mut self, dst: PortId) {
        self.rob_dst = Some(dst);
    }

    /// Points instruction fetches at the shader array's L1I cache.
    pub fn set_l1i(&mut self, dst: PortId) {
        self.l1i_dst = Some(dst);
    }

    /// Points scalar loads at the shader array's L1S cache.
    pub fn set_l1s(&mut self, dst: PortId) {
        self.l1s_dst = Some(dst);
    }

    /// Points completion notices at the dispatcher.
    pub fn set_dispatcher(&mut self, dst: PortId) {
        self.dispatcher_dst = Some(dst);
    }

    /// Workgroups currently resident.
    pub fn resident_wgs(&self) -> usize {
        self.wgs.len()
    }

    /// Lifetime statistics `(instructions, memory accesses, workgroups)`.
    pub fn stats(&self) -> (u64, u64, u64) {
        (self.insts_executed, self.mem_accesses, self.wgs_completed)
    }

    /// Front-end statistics `(instruction fetches, scalar loads)`.
    pub fn frontend_stats(&self) -> (u64, u64) {
        (self.ifetches, self.scalar_loads)
    }

    fn notify_done(&mut self, ctx: &mut Ctx) -> bool {
        let Some(dst) = self.dispatcher_dst else {
            return false;
        };
        let mut progress = false;
        while let Some(&(wg_idx, task)) = self.done_wgs.first() {
            let mut msg = Box::new(WgDoneMsg::new(dst, wg_idx));
            msg.meta.inherit_task(task, "workgroup");
            match self.dispatch_port.send(ctx, msg) {
                Ok(()) => {
                    self.done_wgs.remove(0);
                    progress = true;
                }
                Err(_) => break,
            }
        }
        progress
    }

    fn collect_mem_responses(&mut self, ctx: &mut Ctx) -> bool {
        let mut progress = false;
        while let Some(msg) = self.mem_port.retrieve(ctx) {
            let respond_to = if let Some(d) = (*msg).downcast_ref::<DataReadyRsp>() {
                d.respond_to
            } else if let Some(w) = (*msg).downcast_ref::<WriteDoneRsp>() {
                w.respond_to
            } else {
                panic!("CU {}: unexpected memory response", self.name());
            };
            let (wg_idx, wf) = self
                .outstanding
                .remove(&respond_to)
                .unwrap_or_else(|| panic!("CU {}: response matches no access", self.name()));
            if let Some(wg) = self.wgs.iter_mut().find(|w| w.wg_idx == wg_idx) {
                wg.wavefronts[wf].outstanding -= 1;
            }
            progress = true;
        }
        progress
    }

    fn collect_frontend_responses(&mut self, ctx: &mut Ctx) -> bool {
        let (Some(ifetch_port), Some(scalar_port)) =
            (self.ifetch_port.clone(), self.scalar_port.clone())
        else {
            return false;
        };
        let mut progress = false;
        while let Some(msg) = ifetch_port.retrieve(ctx) {
            let d = (*msg)
                .downcast_ref::<DataReadyRsp>()
                .unwrap_or_else(|| panic!("CU {}: unexpected ifetch response", self.name()));
            let (wg_idx, wf) = self
                .fetch_outstanding
                .remove(&d.respond_to)
                .unwrap_or_else(|| panic!("CU {}: ifetch matches nothing", self.name()));
            if let Some(wg) = self.wgs.iter_mut().find(|w| w.wg_idx == wg_idx) {
                let wf = &mut wg.wavefronts[wf];
                wf.fetch_outstanding = false;
                wf.fetch_credits += self.cfg.insts_per_fetch;
            }
            progress = true;
        }
        while let Some(msg) = scalar_port.retrieve(ctx) {
            let d = (*msg)
                .downcast_ref::<DataReadyRsp>()
                .unwrap_or_else(|| panic!("CU {}: unexpected scalar response", self.name()));
            let (wg_idx, wf) = self
                .scalar_outstanding
                .remove(&d.respond_to)
                .unwrap_or_else(|| panic!("CU {}: scalar load matches nothing", self.name()));
            if let Some(wg) = self.wgs.iter_mut().find(|w| w.wg_idx == wg_idx) {
                let wf = &mut wg.wavefronts[wf];
                wf.scalar_outstanding = false;
                wf.scalar_done = true;
            }
            progress = true;
        }
        progress
    }

    /// Issues pending front-end requests (ifetches, scalar loads) for
    /// wavefronts that are stalled on them.
    fn issue_frontend(&mut self, ctx: &mut Ctx) -> bool {
        if !self.cfg.frontend {
            return false;
        }
        let l1i = self
            .l1i_dst
            .unwrap_or_else(|| panic!("CU {}: front end enabled but L1I not wired", self.name()));
        let l1s = self
            .l1s_dst
            .unwrap_or_else(|| panic!("CU {}: front end enabled but L1S not wired", self.name()));
        let (Some(ifetch_port), Some(scalar_port)) =
            (self.ifetch_port.clone(), self.scalar_port.clone())
        else {
            panic!("CU {}: front end enabled but ports missing", self.name());
        };
        let mut progress = false;
        for wg in &mut self.wgs {
            for (wf_idx, wf) in wg.wavefronts.iter_mut().enumerate() {
                if wf.is_done() {
                    continue;
                }
                if !wf.scalar_done && !wf.scalar_outstanding {
                    // One kernarg read per wavefront, 16 bytes.
                    let req = ReadReq::new(l1s, wg.args_base, 16);
                    let id = req.meta.id;
                    match scalar_port.send(ctx, Box::new(req)) {
                        Ok(()) => {
                            self.scalar_outstanding.insert(id, (wg.wg_idx, wf_idx));
                            wf.scalar_outstanding = true;
                            self.scalar_loads += 1;
                            progress = true;
                        }
                        Err(_) => return progress,
                    }
                }
                if wf.scalar_done
                    && wf.fetch_credits == 0
                    && !wf.fetch_outstanding
                    && wf.pc < wf.insts.len()
                {
                    let req = ReadReq::new(l1i, wg.code_base + wf.fetch_offset, 64);
                    let id = req.meta.id;
                    match ifetch_port.send(ctx, Box::new(req)) {
                        Ok(()) => {
                            self.fetch_outstanding.insert(id, (wg.wg_idx, wf_idx));
                            wf.fetch_outstanding = true;
                            wf.fetch_offset += 64;
                            self.ifetches += 1;
                            progress = true;
                        }
                        Err(_) => return progress,
                    }
                }
            }
        }
        progress
    }

    fn accept_dispatches(&mut self, ctx: &mut Ctx) -> bool {
        let mut progress = false;
        while self.wgs.len() < self.cfg.max_wgs {
            let Some(msg) = self.dispatch_port.retrieve(ctx) else {
                break;
            };
            let d = akita::downcast_msg::<DispatchWgMsg>(msg)
                .unwrap_or_else(|_| panic!("CU {}: unexpected dispatch message", self.name()));
            let task = d.meta.task;
            let DispatchWgMsg {
                wg_idx,
                spec,
                code_base,
                args_base,
                ..
            } = *d;
            let now = ctx.now();
            trace::begin(task, self.site, "workgroup", now);
            self.start_wg(wg_idx, spec, code_base, args_base, task, now);
            progress = true;
        }
        progress
    }

    fn start_wg(
        &mut self,
        wg_idx: u64,
        spec: WorkGroupSpec,
        code_base: u64,
        args_base: u64,
        task: TaskId,
        accepted_at: VTime,
    ) {
        let frontend = self.cfg.frontend;
        let wavefronts = spec
            .wavefronts
            .into_iter()
            .map(|p| WfExec {
                insts: p.insts,
                pc: 0,
                compute_left: 0,
                outstanding: 0,
                at_barrier: false,
                fetch_credits: 0,
                fetch_outstanding: false,
                fetch_offset: 0,
                scalar_done: !frontend,
                scalar_outstanding: false,
            })
            .collect();
        self.wgs.push(WgExec {
            wg_idx,
            wavefronts,
            code_base,
            args_base,
            task,
            accepted_at,
        });
    }

    fn execute(&mut self, ctx: &mut Ctx) -> bool {
        let Some(rob) = self.rob_dst else {
            return false;
        };
        let mut progress = false;
        let mut mem_budget = self.cfg.mem_issue_width;
        let mut mem_port_busy = false;
        for wg in &mut self.wgs {
            for (wf_idx, wf) in wg.wavefronts.iter_mut().enumerate() {
                if wf.compute_left > 0 {
                    wf.compute_left -= 1;
                    progress = true;
                    continue;
                }
                if wf.at_barrier {
                    continue;
                }
                if self.cfg.frontend && (!wf.scalar_done || wf.fetch_credits == 0) {
                    // Stalled on the front end; issue_frontend feeds it.
                    continue;
                }
                // Issue as long as this wavefront can overlap accesses.
                loop {
                    if self.cfg.frontend && wf.fetch_credits == 0 {
                        break;
                    }
                    let Some(&inst) = wf.insts.get(wf.pc) else {
                        break;
                    };
                    match inst {
                        Inst::Barrier => {
                            // A barrier is also a memory fence: wait for
                            // this wavefront's own accesses first.
                            if wf.outstanding == 0 {
                                wf.at_barrier = true;
                                progress = true;
                            }
                            break;
                        }
                        Inst::Compute(c) => {
                            wf.pc += 1;
                            wf.fetch_credits = wf.fetch_credits.saturating_sub(1);
                            self.insts_executed += 1;
                            wf.compute_left = c.saturating_sub(1);
                            progress = true;
                            break; // one compute start per cycle
                        }
                        Inst::Load(addr, size) | Inst::Store(addr, size) => {
                            if mem_port_busy
                                || mem_budget == 0
                                || wf.outstanding >= self.cfg.max_outstanding_per_wf
                            {
                                break;
                            }
                            let msg: Box<dyn Msg> = match inst {
                                Inst::Load(..) => Box::new(ReadReq::new(rob, addr, size)),
                                Inst::Store(..) => Box::new(WriteReq::new(rob, addr, size)),
                                Inst::Compute(_) | Inst::Barrier => unreachable!(),
                            };
                            let id = msg.meta().id;
                            match self.mem_port.send(ctx, msg) {
                                Ok(()) => {
                                    self.outstanding.insert(id, (wg.wg_idx, wf_idx));
                                    wf.pc += 1;
                                    wf.fetch_credits = wf.fetch_credits.saturating_sub(1);
                                    wf.outstanding += 1;
                                    self.insts_executed += 1;
                                    self.mem_accesses += 1;
                                    mem_budget -= 1;
                                    progress = true;
                                }
                                Err(_) => {
                                    mem_port_busy = true;
                                    break;
                                }
                            }
                        }
                    }
                }
            }
        }
        // Release barriers once every wavefront of a workgroup arrived
        // (finished wavefronts count as arrived).
        for wg in &mut self.wgs {
            let all_arrived = wg.wavefronts.iter().all(WfExec::barrier_ready);
            let any_waiting = wg.wavefronts.iter().any(|w| w.at_barrier);
            if all_arrived && any_waiting {
                for wf in wg.wavefronts.iter_mut().filter(|w| w.at_barrier) {
                    wf.at_barrier = false;
                    wf.pc += 1;
                    wf.fetch_credits = wf.fetch_credits.saturating_sub(1);
                    self.insts_executed += 1;
                }
                progress = true;
            }
        }

        // Retire finished workgroups.
        let done_wgs = &mut self.done_wgs;
        let completed = &mut self.wgs_completed;
        let site = self.site;
        let now = ctx.now();
        self.wgs.retain(|wg| {
            if wg.wavefronts.iter().all(WfExec::is_done) {
                trace::complete(
                    wg.task,
                    site,
                    "workgroup",
                    trace::Phase::Service,
                    wg.accepted_at,
                    now,
                );
                done_wgs.push((wg.wg_idx, wg.task));
                *completed += 1;
                progress = true;
                false
            } else {
                true
            }
        });
        progress
    }
}

impl Component for ComputeUnit {
    fn base(&self) -> &CompBase {
        &self.base
    }

    fn base_mut(&mut self) -> &mut CompBase {
        &mut self.base
    }

    fn tick(&mut self, ctx: &mut Ctx) -> bool {
        let _prof = akita::profile::scope("ComputeUnit::tick");
        let mut progress = false;
        progress |= self.notify_done(ctx);
        progress |= self.collect_mem_responses(ctx);
        progress |= self.collect_frontend_responses(ctx);
        progress |= self.accept_dispatches(ctx);
        progress |= self.issue_frontend(ctx);
        progress |= self.execute(ctx);
        progress
    }

    fn state(&self) -> ComponentState {
        let active_wfs: usize = self
            .wgs
            .iter()
            .map(|wg| wg.wavefronts.iter().filter(|w| !w.is_done()).count())
            .sum();
        let at_barrier: usize = self
            .wgs
            .iter()
            .map(|wg| wg.wavefronts.iter().filter(|w| w.at_barrier).count())
            .sum();
        ComponentState::new()
            .container("resident_wgs", self.wgs.len(), Some(self.cfg.max_wgs))
            .field("active_wavefronts", active_wfs)
            .field("wavefronts_at_barrier", at_barrier)
            .container("outstanding_mem", self.outstanding.len(), None)
            .field("insts_executed", self.insts_executed)
            .field("mem_accesses", self.mem_accesses)
            .field("ifetches", self.ifetches)
            .field("scalar_loads", self.scalar_loads)
            .field("wgs_completed", self.wgs_completed)
    }
}

impl std::fmt::Debug for ComputeUnit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ComputeUnit({} {} wgs, {} outstanding)",
            self.name(),
            self.wgs.len(),
            self.outstanding.len()
        )
    }
}
