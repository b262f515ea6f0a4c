//! Platform builder: wires CUs, L1 chains, L2 banks, DRAM, RDMA engines,
//! the inter-chiplet network, a dispatcher, and the driver into one
//! [`Simulation`], with the paper's hierarchical component names
//! (`GPU[1].SA[15].L1VROB[0]` …).

use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::rc::Rc;

use akita::{Component, ComponentId, DirectConnection, Port, ProgressRegistry, Simulation, VTime};
use akita_mem::{
    AddressTranslator, AtConfig, ChipletRouter, Dram, DramConfig, InterleavedLowModules,
    Interleaving, L1Cache, L1Config, L2Cache, L2Config, L2Tlb, L2TlbConfig, PageTable,
    ReorderBuffer, RobConfig, SingleLowModule,
};

use crate::cu::{ComputeUnit, CuConfig};
use crate::dispatcher::{Dispatcher, DispatcherConfig};
use crate::driver::Driver;
use crate::rdma::{RdmaConfig, RdmaEngine};

/// Per-chiplet configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(default)]
pub struct GpuConfig {
    /// Compute units per chiplet (paper: 64 for the R9 Nano).
    pub cus_per_chiplet: usize,
    /// CUs grouped per shader array (paper names suggest 4).
    pub cus_per_sa: usize,
    /// Number of L2 banks per chiplet.
    pub num_l2_banks: usize,
    /// Address interleaving granularity across L2 banks, bytes.
    pub bank_interleave: u64,
    /// Compute unit parameters.
    pub cu: CuConfig,
    /// Reorder buffer parameters.
    pub rob: RobConfig,
    /// Address translator parameters.
    pub at: AtConfig,
    /// L1 cache parameters.
    pub l1: L1Config,
    /// Build the front end: per-shader-array L1I/L1S caches, instruction
    /// fetch, and kernel-argument scalar loads.
    pub frontend_caches: bool,
    /// Back the per-CU L1 TLBs with a chiplet-shared L2 TLB instead of the
    /// fixed-walk-latency model.
    pub shared_l2_tlb: bool,
    /// L2 TLB parameters (per chiplet).
    pub l2tlb: L2TlbConfig,
    /// L1 instruction cache parameters (per shader array).
    pub l1i: L1Config,
    /// L1 scalar cache parameters (per shader array).
    pub l1s: L1Config,
    /// L2 cache parameters (per bank).
    pub l2: L2Config,
    /// DRAM parameters.
    pub dram: DramConfig,
    /// RDMA engine parameters.
    pub rdma: RdmaConfig,
    /// Dispatcher parameters.
    pub dispatcher: DispatcherConfig,
}

impl Default for GpuConfig {
    /// A scaled-down chiplet (8 CUs) suitable for tests and fast benches.
    fn default() -> Self {
        GpuConfig {
            cus_per_chiplet: 8,
            cus_per_sa: 4,
            num_l2_banks: 2,
            bank_interleave: 4096,
            cu: CuConfig::default(),
            rob: RobConfig::default(),
            at: AtConfig::default(),
            l1: L1Config::default(),
            frontend_caches: false,
            shared_l2_tlb: false,
            l2tlb: L2TlbConfig::default(),
            l1i: L1Config {
                size_bytes: 32 * 1024,
                mshr_entries: 8,
                ..L1Config::default()
            },
            l1s: L1Config {
                size_bytes: 16 * 1024,
                mshr_entries: 8,
                ..L1Config::default()
            },
            l2: L2Config {
                size_bytes: 256 * 1024,
                ..L2Config::default()
            },
            dram: DramConfig::default(),
            rdma: RdmaConfig::default(),
            dispatcher: DispatcherConfig::default(),
        }
    }
}

impl GpuConfig {
    /// The paper's default chiplet: an AMD R9 Nano (64 CUs, 16 KiB L1 per
    /// CU, 2 MiB shared L2 in 4 banks).
    pub fn r9_nano() -> Self {
        GpuConfig {
            cus_per_chiplet: 64,
            cus_per_sa: 4,
            num_l2_banks: 4,
            bank_interleave: 4096,
            l1: L1Config {
                size_bytes: 16 * 1024,
                ..L1Config::default()
            },
            l2: L2Config {
                size_bytes: 512 * 1024, // 4 banks × 512 KiB = 2 MiB
                ..L2Config::default()
            },
            ..GpuConfig::default()
        }
    }

    /// A chiplet scaled to `cus` compute units (for fast experiments that
    /// still exercise every component type).
    pub fn scaled(cus: usize) -> Self {
        GpuConfig {
            cus_per_chiplet: cus,
            ..GpuConfig::default()
        }
    }
}

/// Whole-platform configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(default)]
pub struct PlatformConfig {
    /// Number of GPU chiplets (paper Case Study 1: 4).
    pub chiplets: usize,
    /// Per-chiplet configuration.
    pub gpu: GpuConfig,
    /// Address interleaving granularity across chiplets, bytes.
    pub chiplet_interleave: u64,
    /// Inter-chiplet network latency.
    pub net_latency: VTime,
    /// Inter-chiplet per-link bandwidth in bytes/sec; `None` = unlimited.
    /// Lowering this recreates the Case Study 1 RDMA bottleneck.
    pub net_bandwidth: Option<u64>,
    /// Page size for the shared page table.
    pub page_size: u64,
}

impl Default for PlatformConfig {
    fn default() -> Self {
        PlatformConfig {
            chiplets: 1,
            gpu: GpuConfig::default(),
            chiplet_interleave: 4096,
            net_latency: VTime::from_ns(50),
            net_bandwidth: Some(32_000_000_000), // 32 GB/s links
            page_size: 4096,
        }
    }
}

impl PlatformConfig {
    /// The paper's Case Study 1 machine: a 4-chiplet MCM-GPU.
    pub fn mcm(gpu: GpuConfig) -> Self {
        PlatformConfig {
            chiplets: 4,
            gpu,
            ..PlatformConfig::default()
        }
    }
}

/// One shader array's front-end fabric: the connection plus the L1I and
/// L1S top ports its CUs attach to.
type SaFrontend = (Rc<RefCell<DirectConnection>>, Port, Port);

/// Handles into one chiplet's components.
///
/// The handles are `Rc<RefCell<_>>` aliases of components owned by the
/// simulation, so `Debug` prints a shape summary rather than borrowing
/// every component.
pub struct ChipletHandles {
    /// Compute units.
    pub cus: Vec<Rc<RefCell<ComputeUnit>>>,
    /// Reorder buffers, one per CU.
    pub robs: Vec<Rc<RefCell<ReorderBuffer>>>,
    /// Address translators, one per CU.
    pub ats: Vec<Rc<RefCell<AddressTranslator>>>,
    /// L1 caches, one per CU.
    pub l1s: Vec<Rc<RefCell<L1Cache>>>,
    /// L2 banks.
    pub l2s: Vec<Rc<RefCell<L2Cache>>>,
    /// The chiplet's DRAM controller.
    pub dram: Rc<RefCell<Dram>>,
    /// The RDMA engine (absent on single-chiplet platforms).
    pub rdma: Option<Rc<RefCell<RdmaEngine>>>,
}

impl std::fmt::Debug for ChipletHandles {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChipletHandles")
            .field("cus", &self.cus.len())
            .field("robs", &self.robs.len())
            .field("ats", &self.ats.len())
            .field("l1s", &self.l1s.len())
            .field("l2s", &self.l2s.len())
            .field("rdma", &self.rdma.is_some())
            .finish()
    }
}

/// A fully wired simulation platform.
pub struct Platform {
    /// The simulation holding every component.
    pub sim: Simulation,
    /// The host driver.
    pub driver: Rc<RefCell<Driver>>,
    /// The global kernel dispatcher.
    pub dispatcher: Rc<RefCell<Dispatcher>>,
    /// Per-chiplet component handles.
    pub chiplets: Vec<ChipletHandles>,
    /// The shared page table.
    pub page_table: Rc<PageTable>,
    /// Progress bars (kernel blocks, memcpy bytes).
    pub progress: ProgressRegistry,
    driver_id: ComponentId,
}

impl Platform {
    /// Builds a platform from `cfg`.
    ///
    /// # Panics
    ///
    /// Panics on inconsistent configuration (zero chiplets/CUs/banks).
    // By-value `cfg` keeps the `Platform::build(PlatformConfig { .. })`
    // call sites struct-literal friendly.
    #[allow(clippy::needless_pass_by_value)]
    pub fn build(cfg: PlatformConfig) -> Platform {
        assert!(cfg.chiplets > 0, "need at least one chiplet");
        assert!(cfg.gpu.cus_per_chiplet > 0, "need at least one CU");
        assert!(cfg.gpu.num_l2_banks > 0, "need at least one L2 bank");

        let mut sim = Simulation::new();
        let page_table = PageTable::new(cfg.page_size);
        let progress = ProgressRegistry::new();
        let chiplet_il = Interleaving::new(cfg.chiplets as u64, cfg.chiplet_interleave);
        let multi = cfg.chiplets > 1;

        // Global dispatcher and driver.
        let dispatcher = Dispatcher::new(&sim, "GPU.Dispatcher", cfg.gpu.dispatcher.clone());
        let dispatch_cu_port = dispatcher.cu_port.clone();
        let dispatch_driver_port = dispatcher.driver_port.clone();
        let (dispatcher_id, dispatcher) = sim.register(dispatcher);
        dispatcher.borrow_mut().set_progress(progress.clone());

        let driver = Driver::new(&sim, "Driver", Rc::clone(&page_table));
        let driver_gpu_port = driver.gpu_port.clone();
        let (driver_id, driver) = sim.register(driver);
        driver.borrow_mut().set_progress(progress.clone());
        driver
            .borrow_mut()
            .set_dispatcher(dispatch_driver_port.id());
        dispatcher.borrow_mut().set_driver(driver_gpu_port.id());

        let (_, driver_conn) = sim.register(DirectConnection::new(
            "DriverConn",
            VTime::from_ns(100), // host↔device hop
        ));
        sim.connect(&driver_conn, &driver_gpu_port, driver_id);
        sim.connect(&driver_conn, &dispatch_driver_port, dispatcher_id);

        // Control network: the dispatcher flushes caches between kernels
        // over this fabric (when enabled).
        let (_, ctrl_conn) = sim.register(DirectConnection::new("GPU.CtrlConn", VTime::from_ns(5)));
        let dispatch_ctrl_port = dispatcher.borrow().ctrl_port.clone();
        sim.connect(&ctrl_conn, &dispatch_ctrl_port, dispatcher_id);

        // Dispatch network reaching every CU on every chiplet.
        let (_, dispatch_conn) =
            sim.register(DirectConnection::new("GPU.DispatchConn", VTime::from_ns(5)));
        sim.connect(&dispatch_conn, &dispatch_cu_port, dispatcher_id);

        let mut chiplets = Vec::with_capacity(cfg.chiplets);
        let mut rdma_net_ports: Vec<Port> = Vec::new();
        let mut rdma_handles: Vec<Rc<RefCell<RdmaEngine>>> = Vec::new();

        for c in 0..cfg.chiplets {
            let mut handles = ChipletHandles {
                cus: Vec::new(),
                robs: Vec::new(),
                ats: Vec::new(),
                l1s: Vec::new(),
                l2s: Vec::new(),
                dram: {
                    let dram = Dram::new(&sim, &format!("GPU[{c}].DRAM"), cfg.gpu.dram.clone());
                    let (_, dram) = sim.register(dram);
                    dram
                },
                rdma: None,
            };

            // L2 banks and the L2↔DRAM link.
            let dram_top = handles.dram.borrow().top.clone();
            let dram_id = handles.dram.borrow().id();
            let (_, l2_dram_conn) = sim.register(DirectConnection::new(
                format!("GPU[{c}].L2ToDramConn"),
                VTime::from_ns(2),
            ));
            sim.connect(&l2_dram_conn, &dram_top, dram_id);

            let mut l2_tops = Vec::new();
            for b in 0..cfg.gpu.num_l2_banks {
                let l2 = L2Cache::new(&sim, &format!("GPU[{c}].L2[{b}]"), cfg.gpu.l2.clone());
                let top = l2.top.clone();
                let bottom = l2.bottom.clone();
                let ctrl = l2.ctrl.clone();
                let (l2_id, l2) = sim.register(l2);
                l2.borrow_mut().set_dram(dram_top.id());
                sim.connect(&l2_dram_conn, &bottom, l2_id);
                sim.connect(&ctrl_conn, &ctrl, l2_id);
                dispatcher.borrow_mut().add_cache(ctrl.id());
                l2_tops.push((top, l2_id));
                handles.l2s.push(l2);
            }

            // The L1↔L2 crossbar for this chiplet.
            let (_, xbar) = sim.register(DirectConnection::new(
                format!("GPU[{c}].L1ToL2Conn"),
                VTime::from_ns(3),
            ));
            for (top, l2_id) in &l2_tops {
                sim.connect(&xbar, top, *l2_id);
            }
            let bank_ports: Vec<_> = l2_tops.iter().map(|(p, _)| p.id()).collect();
            let bank_finder = InterleavedLowModules::new(cfg.gpu.bank_interleave, bank_ports);

            // RDMA engine (multi-chiplet only).
            let rdma_l1_port_id = if multi {
                let rdma = RdmaEngine::new(
                    &sim,
                    &format!("GPU[{c}].RDMA"),
                    c as u64,
                    chiplet_il,
                    cfg.gpu.rdma.clone(),
                );
                let l1_port = rdma.l1_port.clone();
                let l2_port = rdma.l2_port.clone();
                let net_port = rdma.net_port.clone();
                let (rdma_id, rdma) = sim.register(rdma);
                rdma.borrow_mut().set_local_l2(bank_finder.clone());
                sim.connect(&xbar, &l1_port, rdma_id);
                sim.connect(&xbar, &l2_port, rdma_id);
                rdma_net_ports.push(net_port);
                rdma_handles.push(Rc::clone(&rdma));
                handles.rdma = Some(rdma);
                Some(l1_port.id())
            } else {
                None
            };

            // Shared L2 TLB: one per chiplet, reached by every AT.
            let l2tlb_top = if cfg.gpu.shared_l2_tlb {
                let tlb = L2Tlb::new(
                    &sim,
                    &format!("GPU[{c}].L2TLB"),
                    Rc::clone(&page_table),
                    cfg.gpu.l2tlb.clone(),
                );
                let top = tlb.top.clone();
                let (tlb_id, _tlb) = sim.register(tlb);
                let (_, tlb_conn) = sim.register(DirectConnection::new(
                    format!("GPU[{c}].TlbConn"),
                    VTime::from_ns(2),
                ));
                sim.connect(&tlb_conn, &top, tlb_id);
                Some((tlb_conn, top))
            } else {
                None
            };

            // Front-end caches: one L1I + L1S per shader array, shared by
            // its CUs, reaching memory through the chiplet crossbar.
            let num_sas = cfg.gpu.cus_per_chiplet.div_ceil(cfg.gpu.cus_per_sa);
            let mut sa_frontends: Vec<Option<SaFrontend>> = Vec::new();
            if cfg.gpu.frontend_caches {
                for s in 0..num_sas {
                    let prefix = format!("GPU[{c}].SA[{s}]");
                    let (_, fe_conn) = sim.register(DirectConnection::new(
                        format!("{prefix}.FrontendConn"),
                        VTime::from_ps(1_000),
                    ));
                    let mut fe_tops = Vec::new();
                    for (label, fe_cfg) in [("L1ICache", &cfg.gpu.l1i), ("L1SCache", &cfg.gpu.l1s)]
                    {
                        let cache =
                            L1Cache::new(&sim, &format!("{prefix}.{label}"), fe_cfg.clone());
                        let top = cache.top.clone();
                        let bottom = cache.bottom.clone();
                        let (cache_id, cache) = sim.register(cache);
                        match rdma_l1_port_id {
                            Some(rdma_port) => {
                                cache.borrow_mut().set_low(Box::new(ChipletRouter::new(
                                    chiplet_il,
                                    c as u64,
                                    bank_finder.clone(),
                                    rdma_port,
                                )));
                            }
                            None => cache.borrow_mut().set_low(Box::new(bank_finder.clone())),
                        }
                        sim.connect(&fe_conn, &top, cache_id);
                        sim.connect(&xbar, &bottom, cache_id);
                        let ctrl = cache.borrow().ctrl.clone();
                        sim.connect(&ctrl_conn, &ctrl, cache_id);
                        dispatcher.borrow_mut().add_cache(ctrl.id());
                        fe_tops.push(top);
                    }
                    let l1s_top = fe_tops.pop().expect("two tops");
                    let l1i_top = fe_tops.pop().expect("two tops");
                    sa_frontends.push(Some((fe_conn, l1i_top, l1s_top)));
                }
            } else {
                sa_frontends.resize_with(num_sas, || None);
            }

            // CU chains, grouped into shader arrays.
            for i in 0..cfg.gpu.cus_per_chiplet {
                let s = i / cfg.gpu.cus_per_sa;
                let k = i % cfg.gpu.cus_per_sa;
                let prefix = format!("GPU[{c}].SA[{s}]");

                let mut cu_cfg = cfg.gpu.cu.clone();
                cu_cfg.frontend = cfg.gpu.frontend_caches;
                let cu = ComputeUnit::new(&sim, &format!("{prefix}.CU[{k}]"), cu_cfg);
                let rob =
                    ReorderBuffer::new(&sim, &format!("{prefix}.L1VROB[{k}]"), cfg.gpu.rob.clone());
                let at = AddressTranslator::new(
                    &sim,
                    &format!("{prefix}.L1VAddrTrans[{k}]"),
                    Rc::clone(&page_table),
                    cfg.gpu.at.clone(),
                );
                let l1 = L1Cache::new(&sim, &format!("{prefix}.L1VCache[{k}]"), cfg.gpu.l1.clone());

                let cu_mem = cu.mem_port.clone();
                let cu_frontend = cu.ifetch_port.clone().zip(cu.scalar_port.clone());
                let cu_dispatch = cu.dispatch_port.clone();
                let rob_top = rob.top.clone();
                let rob_bottom = rob.bottom.clone();
                let at_top = at.top.clone();
                let at_bottom = at.bottom.clone();
                let l1_top = l1.top.clone();
                let l1_bottom = l1.bottom.clone();

                let (cu_id, cu) = sim.register(cu);
                let (rob_id, rob) = sim.register(rob);
                let (at_id, at) = sim.register(at);
                let (l1_id, l1) = sim.register(l1);

                cu.borrow_mut().set_rob(rob_top.id());
                cu.borrow_mut().set_dispatcher(dispatch_cu_port.id());
                rob.borrow_mut().set_bottom_dst(at_top.id());
                at.borrow_mut()
                    .set_low(Box::new(SingleLowModule(l1_top.id())));
                if let Some((tlb_conn, tlb_top)) = &l2tlb_top {
                    let at_tlb_port = at
                        .borrow_mut()
                        .set_l2_tlb(&sim.buffer_registry(), tlb_top.id());
                    sim.connect(tlb_conn, &at_tlb_port, at_id);
                }
                match rdma_l1_port_id {
                    Some(rdma_port) => {
                        l1.borrow_mut().set_low(Box::new(ChipletRouter::new(
                            chiplet_il,
                            c as u64,
                            bank_finder.clone(),
                            rdma_port,
                        )));
                    }
                    None => {
                        l1.borrow_mut().set_low(Box::new(bank_finder.clone()));
                    }
                }

                // One connection for the whole CU-local pipeline.
                let (_, chain_conn) = sim.register(DirectConnection::new(
                    format!("{prefix}.ChainConn[{k}]"),
                    VTime::from_ps(1_000),
                ));
                sim.connect(&chain_conn, &cu_mem, cu_id);
                sim.connect(&chain_conn, &rob_top, rob_id);
                sim.connect(&chain_conn, &rob_bottom, rob_id);
                sim.connect(&chain_conn, &at_top, at_id);
                sim.connect(&chain_conn, &at_bottom, at_id);
                sim.connect(&chain_conn, &l1_top, l1_id);
                // L1 bottom joins the chiplet crossbar; its control port
                // joins the flush network.
                sim.connect(&xbar, &l1_bottom, l1_id);
                let l1_ctrl = l1.borrow().ctrl.clone();
                sim.connect(&ctrl_conn, &l1_ctrl, l1_id);
                dispatcher.borrow_mut().add_cache(l1_ctrl.id());
                // The CU's dispatch port joins the dispatch network.
                sim.connect(&dispatch_conn, &cu_dispatch, cu_id);
                dispatcher.borrow_mut().add_cu(cu_dispatch.id());
                // Front-end ports join the shader array's frontend fabric.
                if let Some((fe_conn, l1i_top, l1s_top)) = &sa_frontends[s] {
                    cu.borrow_mut().set_l1i(l1i_top.id());
                    cu.borrow_mut().set_l1s(l1s_top.id());
                    let (cu_ifetch, cu_scalar) = cu_frontend
                        .as_ref()
                        .expect("front-end caches imply front-end CU ports");
                    sim.connect(fe_conn, cu_ifetch, cu_id);
                    sim.connect(fe_conn, cu_scalar, cu_id);
                }

                handles.cus.push(cu);
                handles.robs.push(rob);
                handles.ats.push(at);
                handles.l1s.push(l1);
            }

            chiplets.push(handles);
        }

        // Inter-chiplet network.
        if multi {
            let mut net = DirectConnection::new("ChipletNetConn", cfg.net_latency);
            if let Some(bw) = cfg.net_bandwidth {
                net = net.with_bandwidth(bw).with_link_cap(64);
            }
            let (_, net) = sim.register(net);
            let net_port_ids: Vec<_> = rdma_net_ports.iter().map(Port::id).collect();
            for (rdma, port) in rdma_handles.iter().zip(&rdma_net_ports) {
                sim.connect(&net, port, rdma.borrow().id());
                rdma.borrow_mut().set_remote_rdma(net_port_ids.clone());
            }
        }

        Platform {
            sim,
            driver,
            dispatcher,
            chiplets,
            page_table,
            progress,
            driver_id,
        }
    }

    /// Wakes the driver so queued tasks start executing; call after
    /// enqueueing work (and again if more work is enqueued between runs).
    pub fn start(&mut self) {
        let t = self.sim.now();
        self.sim.wake_at(self.driver_id, t);
    }

    /// Total compute units across all chiplets.
    pub fn num_cus(&self) -> usize {
        self.chiplets.iter().map(|c| c.cus.len()).sum()
    }
}

impl std::fmt::Debug for Platform {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Platform({} chiplets, {} CUs, {} components)",
            self.chiplets.len(),
            self.num_cus(),
            self.sim.component_count()
        )
    }
}
