//! The RDMA engine: forwards memory requests between chiplets.
//!
//! Each chiplet's RDMA engine receives requests from local L1 caches whose
//! address lives on a *remote* chiplet, ships them over the inter-chiplet
//! network to the owning chiplet's RDMA, which replays them into its local
//! L2 banks; responses retrace the path. The paper's Case Study 1 root
//! cause is this component: "the number of transactions is at an alarmingly
//! high level (about 1000 transactions) … waiting for a remote GPU chiplet
//! to provide the data", limited by the slow inter-chiplet network.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use akita::{
    CompBase, Component, ComponentState, Ctx, IdBuildHasher, Msg, MsgExt, MsgId, Port, PortId,
    Simulation,
};
use akita_mem::{
    msg::{as_response, AccessKind},
    DataReadyRsp, InterleavedLowModules, Interleaving, LowModuleFinder, ReadReq, WriteDoneRsp,
    WriteReq,
};

/// Configuration for an [`RdmaEngine`].
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(default)]
pub struct RdmaConfig {
    /// Maximum transactions in flight, both directions combined.
    pub max_transactions: usize,
    /// Requests moved per cycle in each direction.
    pub width: usize,
    /// Port buffer depths.
    pub buf: usize,
}

impl Default for RdmaConfig {
    fn default() -> Self {
        RdmaConfig {
            max_transactions: 2048,
            width: 4,
            buf: 16,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Route {
    /// A local L1's request forwarded to a remote chiplet.
    Outbound,
    /// A remote chiplet's request replayed into local L2.
    Inbound,
}

struct Trans {
    requester: PortId,
    up_id: MsgId,
    kind: AccessKind,
    size: u32,
    route: Route,
}

/// An RDMA engine component.
pub struct RdmaEngine {
    base: CompBase,
    /// Port facing the local L1 caches (request side).
    pub l1_port: Port,
    /// Port facing the local L2 banks (replay side).
    pub l2_port: Port,
    /// Port facing the inter-chiplet network.
    pub net_port: Port,
    cfg: RdmaConfig,
    my_chiplet: u64,
    chiplets: Interleaving,
    /// Remote RDMA net ports, indexed by chiplet.
    remote_rdma: Vec<PortId>,
    local_l2: Option<InterleavedLowModules>,
    trans: HashMap<MsgId, Trans, IdBuildHasher>,
    pending_net: Option<Box<dyn Msg>>,
    pending_l2: Option<Box<dyn Msg>>,
    pending_l1: Option<Box<dyn Msg>>,
    forwarded_out: u64,
    served_in: u64,
}

impl RdmaEngine {
    /// Creates the RDMA engine of chiplet `my_chiplet`.
    pub fn new(
        sim: &Simulation,
        name: &str,
        my_chiplet: u64,
        chiplets: Interleaving,
        cfg: RdmaConfig,
    ) -> Self {
        let reg = sim.buffer_registry();
        let l1_port = Port::new(&reg, format!("{name}.ToL1Port"), cfg.buf);
        let l2_port = Port::new(&reg, format!("{name}.ToL2Port"), cfg.buf);
        let net_port = Port::new(&reg, format!("{name}.NetPort"), cfg.buf);
        RdmaEngine {
            base: CompBase::new("RdmaEngine", name),
            l1_port,
            l2_port,
            net_port,
            cfg,
            my_chiplet,
            chiplets,
            remote_rdma: Vec::new(),
            local_l2: None,
            trans: HashMap::default(),
            pending_net: None,
            pending_l2: None,
            pending_l1: None,
            forwarded_out: 0,
            served_in: 0,
        }
    }

    /// Registers every chiplet's RDMA net port (including this one's own
    /// slot, which is never used).
    pub fn set_remote_rdma(&mut self, ports: Vec<PortId>) {
        assert_eq!(
            ports.len() as u64,
            self.chiplets.units(),
            "one RDMA net port per chiplet"
        );
        self.remote_rdma = ports;
    }

    /// Routes replayed inbound requests into the local L2 banks.
    pub fn set_local_l2(&mut self, l2: InterleavedLowModules) {
        self.local_l2 = Some(l2);
    }

    /// Transactions currently in flight (the Case Study 1 signal).
    pub fn transactions(&self) -> usize {
        self.trans.len()
    }

    /// Lifetime `(outbound forwarded, inbound served)`.
    pub fn traffic(&self) -> (u64, u64) {
        (self.forwarded_out, self.served_in)
    }

    fn flush(&mut self, ctx: &mut Ctx) -> bool {
        let mut progress = false;
        for (slot, port) in [
            (&mut self.pending_net, &self.net_port),
            (&mut self.pending_l2, &self.l2_port),
            (&mut self.pending_l1, &self.l1_port),
        ] {
            if let Some(msg) = slot.take() {
                match port.send(ctx, msg) {
                    Ok(()) => progress = true,
                    Err(msg) => *slot = Some(msg),
                }
            }
        }
        progress
    }

    /// Local L1 requests destined for remote chiplets → network.
    fn forward_outbound(&mut self, ctx: &mut Ctx) -> bool {
        let mut progress = false;
        for _ in 0..self.cfg.width {
            if self.pending_net.is_some() || self.trans.len() >= self.cfg.max_transactions {
                break;
            }
            let Some(msg) = self.l1_port.retrieve(ctx) else {
                break;
            };
            let (kind, addr, size, up_id, requester) = request_parts(&*msg, self.name());
            let owner = self.chiplets.owner_of(addr);
            assert_ne!(
                owner,
                self.my_chiplet,
                "RDMA {}: received a local-address request",
                self.name()
            );
            let dst = *self
                .remote_rdma
                .get(owner as usize)
                .unwrap_or_else(|| panic!("RDMA {}: remote peers not wired", self.name()));
            let down: Box<dyn Msg> = match kind {
                AccessKind::Read => Box::new(ReadReq::new(dst, addr, size)),
                AccessKind::Write => Box::new(WriteReq::new(dst, addr, size)),
            };
            self.trans.insert(
                down.meta().id,
                Trans {
                    requester,
                    up_id,
                    kind,
                    size,
                    route: Route::Outbound,
                },
            );
            self.forwarded_out += 1;
            if let Err(m) = self.net_port.send(ctx, down) {
                self.pending_net = Some(m);
            }
            progress = true;
        }
        progress
    }

    /// Network traffic: remote requests to replay locally, and responses to
    /// our outbound requests.
    fn handle_network(&mut self, ctx: &mut Ctx) -> bool {
        let mut progress = false;
        for _ in 0..self.cfg.width {
            if self.pending_l2.is_some() || self.pending_l1.is_some() {
                break;
            }
            // Inbound requests also occupy a transaction slot.
            let Some(is_req) = self.net_port.peek(|m| {
                m.downcast_ref::<ReadReq>().is_some() || m.downcast_ref::<WriteReq>().is_some()
            }) else {
                break;
            };
            if is_req && self.trans.len() >= self.cfg.max_transactions {
                break;
            }
            let msg = self.net_port.retrieve(ctx).expect("peeked above");
            if is_req {
                let (kind, addr, size, up_id, requester) = request_parts(&*msg, self.name());
                let l2 = self
                    .local_l2
                    .as_ref()
                    .unwrap_or_else(|| panic!("RDMA {}: local L2 not wired", self.name()));
                let dst = l2.find(addr);
                let down: Box<dyn Msg> = match kind {
                    AccessKind::Read => Box::new(ReadReq::new(dst, addr, size)),
                    AccessKind::Write => Box::new(WriteReq::new(dst, addr, size)),
                };
                self.trans.insert(
                    down.meta().id,
                    Trans {
                        requester,
                        up_id,
                        kind,
                        size,
                        route: Route::Inbound,
                    },
                );
                self.served_in += 1;
                if let Err(m) = self.l2_port.send(ctx, down) {
                    self.pending_l2 = Some(m);
                }
            } else {
                // A response from the remote chiplet: complete an outbound
                // transaction toward the local L1.
                let (respond_to, _) = as_response(&*msg)
                    .unwrap_or_else(|| panic!("RDMA {}: unexpected network msg", self.name()));
                let t = self.remove_trans(respond_to, Route::Outbound);
                let rsp = make_response(&t);
                if let Err(m) = self.l1_port.send(ctx, rsp) {
                    self.pending_l1 = Some(m);
                }
            }
            progress = true;
        }
        progress
    }

    /// Responses from local L2 completing inbound (replayed) requests →
    /// back over the network.
    fn handle_l2_responses(&mut self, ctx: &mut Ctx) -> bool {
        let mut progress = false;
        for _ in 0..self.cfg.width {
            if self.pending_net.is_some() {
                break;
            }
            let Some(msg) = self.l2_port.retrieve(ctx) else {
                break;
            };
            let (respond_to, _) = as_response(&*msg)
                .unwrap_or_else(|| panic!("RDMA {}: unexpected L2 msg", self.name()));
            let t = self.remove_trans(respond_to, Route::Inbound);
            let rsp = make_response(&t);
            if let Err(m) = self.net_port.send(ctx, rsp) {
                self.pending_net = Some(m);
            }
            progress = true;
        }
        progress
    }

    fn remove_trans(&mut self, id: MsgId, expect: Route) -> Trans {
        let t = self
            .trans
            .remove(&id)
            .unwrap_or_else(|| panic!("RDMA {}: response {id} matches nothing", self.name()));
        assert_eq!(t.route, expect, "RDMA {}: route confusion", self.name());
        t
    }
}

fn request_parts(msg: &dyn Msg, name: &str) -> (AccessKind, u64, u32, MsgId, PortId) {
    akita_mem::msg::as_request(msg)
        .unwrap_or_else(|| panic!("RDMA {name}: expected a memory request"))
}

fn make_response(t: &Trans) -> Box<dyn Msg> {
    match t.kind {
        AccessKind::Read => Box::new(DataReadyRsp::new(t.requester, t.up_id, t.size)),
        AccessKind::Write => Box::new(WriteDoneRsp::new(t.requester, t.up_id)),
    }
}

impl Component for RdmaEngine {
    fn base(&self) -> &CompBase {
        &self.base
    }

    fn base_mut(&mut self) -> &mut CompBase {
        &mut self.base
    }

    fn tick(&mut self, ctx: &mut Ctx) -> bool {
        let _prof = akita::profile::scope("RdmaEngine::tick");
        let mut progress = false;
        progress |= self.flush(ctx);
        progress |= self.handle_l2_responses(ctx);
        progress |= self.handle_network(ctx);
        progress |= self.forward_outbound(ctx);
        progress |= self.flush(ctx);
        progress
    }

    fn state(&self) -> ComponentState {
        let outbound = self
            .trans
            .values()
            .filter(|t| t.route == Route::Outbound)
            .count();
        ComponentState::new()
            .container(
                "transactions",
                self.trans.len(),
                Some(self.cfg.max_transactions),
            )
            .field("outbound", outbound)
            .field("inbound", self.trans.len() - outbound)
            .field("forwarded_out", self.forwarded_out)
            .field("served_in", self.served_in)
    }
}

impl std::fmt::Debug for RdmaEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "RdmaEngine({} chiplet {}, {} in flight)",
            self.name(),
            self.my_chiplet,
            self.trans.len()
        )
    }
}
