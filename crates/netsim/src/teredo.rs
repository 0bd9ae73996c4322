//! Teredo: IPv6 connectivity over UDP/IPv4 (RFC 4380).
//!
//! The paper measures HIP-over-Teredo because the HIP implementations of
//! the day lacked native NAT traversal (§VII): "we used Teredo in this
//! paper because the native support was not available". Teredo gives a
//! v4-only VM (EC2 has no native IPv6) an IPv6 address whose bits embed
//! the client's public IPv4 and UDP port, so relays can reach it through
//! NATs without per-peer state.
//!
//! Three components:
//! - [`TeredoClient`]: lives inside a [`crate::host::Host`], qualifies
//!   against a server (RS/RA over UDP), then tunnels IPv6 packets in UDP
//!   via a relay.
//! - [`TeredoServer`]: answers router solicitations with the observed
//!   external address/port ("origin indication").
//! - [`TeredoRelay`]: decapsulates client traffic, forwards it (to a
//!   native v6 network or straight back to another Teredo client), and
//!   encapsulates return traffic toward the address embedded in the
//!   Teredo destination.

use crate::addr::{is_teredo, teredo_address, teredo_decode};
use crate::engine::{Ctx, Node};
use crate::link::LinkId;
use crate::packet::{Packet, Payload, UdpData, UdpDatagram};
use crate::time::SimDuration;
use bytes::Bytes;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};

/// The Teredo UDP service port.
pub const TEREDO_PORT: u16 = 3544;

/// Router-solicitation magic (simulator wire format).
const RS_MAGIC: &[u8; 4] = b"TRS1";
/// Router-advertisement magic, followed by 4 addr + 2 port bytes.
const RA_MAGIC: &[u8; 4] = b"TRA1";

/// Timer token used by the client's qualification retry.
pub const TIMER_QUALIFY: u64 = 1;

#[derive(Clone, Debug, PartialEq, Eq)]
enum ClientState {
    Unqualified,
    Qualified { addr: Ipv6Addr },
}

/// The host-side Teredo tunneling component.
pub struct TeredoClient {
    server: Ipv4Addr,
    relay: Ipv4Addr,
    /// Our local (pre-NAT) IPv4 address.
    local_v4: Ipv4Addr,
    state: ClientState,
    /// IPv6 packets queued while unqualified.
    pending: Vec<Packet>,
    /// Ready-to-route packets the host must flush after each client call.
    out: Vec<Packet>,
    attempts: u32,
}

impl TeredoClient {
    /// Creates a client that will qualify against `server` and tunnel
    /// through `relay`.
    pub fn new(local_v4: Ipv4Addr, server: Ipv4Addr, relay: Ipv4Addr) -> Self {
        TeredoClient {
            server,
            relay,
            local_v4,
            state: ClientState::Unqualified,
            pending: Vec::new(),
            out: Vec::new(),
            attempts: 0,
        }
    }

    /// Our Teredo IPv6 address once qualified.
    pub fn address(&self) -> Option<Ipv6Addr> {
        match &self.state {
            ClientState::Qualified { addr } => Some(*addr),
            ClientState::Unqualified => None,
        }
    }

    /// Begins qualification (called by the host at simulation start).
    pub fn start(&mut self, ctx: &mut Ctx) {
        self.send_rs();
        ctx.set_timer(
            SimDuration::from_millis(500),
            crate::engine::TimerHandle { owner: crate::engine::TimerOwner::Node, token: TIMER_QUALIFY },
        );
    }

    /// Node-owned timer: retry qualification until it succeeds.
    pub fn on_timer(&mut self, token: u64, ctx: &mut Ctx) {
        if token == TIMER_QUALIFY && self.state == ClientState::Unqualified {
            self.attempts += 1;
            if self.attempts < 10 {
                self.send_rs();
                ctx.set_timer(
                    SimDuration::from_millis(500),
                    crate::engine::TimerHandle {
                        owner: crate::engine::TimerOwner::Node,
                        token: TIMER_QUALIFY,
                    },
                );
            }
        }
    }

    fn send_rs(&mut self) {
        self.out.push(Packet::new(
            IpAddr::V4(self.local_v4),
            IpAddr::V4(self.server),
            Payload::Udp(UdpDatagram {
                src_port: TEREDO_PORT,
                dst_port: TEREDO_PORT,
                data: UdpData::Raw(Bytes::copy_from_slice(RS_MAGIC)),
            }),
        ));
    }

    /// Examines a wire packet. Returns the (possibly decapsulated) packet
    /// to keep processing, or `None` if the client consumed it.
    pub fn wire_in(&mut self, pkt: Packet, ctx: &mut Ctx) -> Option<Packet> {
        let Payload::Udp(udp) = &pkt.payload else { return Some(pkt) };
        if udp.dst_port != TEREDO_PORT {
            return Some(pkt);
        }
        match &udp.data {
            UdpData::Teredo(inner) => Some((**inner).clone()),
            UdpData::Raw(b) if b.len() >= 10 && &b[..4] == RA_MAGIC => {
                let ext = Ipv4Addr::new(b[4], b[5], b[6], b[7]);
                let port = u16::from_be_bytes([b[8], b[9]]);
                let addr = teredo_address(self.server, ext, port);
                if self.state == ClientState::Unqualified {
                    ctx.trace_state(|| format!("teredo qualified: {addr}"));
                }
                self.state = ClientState::Qualified { addr };
                None
            }
            _ => Some(pkt),
        }
    }

    /// Wraps an IPv6 packet for the relay. Returns `None` (and queues the
    /// packet) while unqualified.
    pub fn encapsulate(&mut self, inner: Packet) -> Option<Packet> {
        match &self.state {
            ClientState::Unqualified => {
                self.pending.push(inner);
                None
            }
            ClientState::Qualified { .. } => Some(Packet::new(
                IpAddr::V4(self.local_v4),
                IpAddr::V4(self.relay),
                Payload::Udp(UdpDatagram {
                    src_port: TEREDO_PORT,
                    dst_port: TEREDO_PORT,
                    data: UdpData::Teredo(Box::new(inner)),
                }),
            )),
        }
    }

    /// Takes all packets ready to (re-)enter the host's wire path:
    /// control messages plus any queued IPv6 packets once qualified.
    pub fn drain_ready(&mut self) -> Vec<Packet> {
        let mut out = std::mem::take(&mut self.out);
        if matches!(self.state, ClientState::Qualified { .. }) {
            out.append(&mut self.pending);
        }
        out
    }
}

/// The Teredo server: answers RS with the observed source address/port.
pub struct TeredoServer {
    /// The server's own IPv4 address.
    pub addr: Ipv4Addr,
    link: LinkId,
    /// Qualifications served (diagnostics).
    pub served: u64,
}

impl TeredoServer {
    /// Creates a server reachable at `addr` on `link`.
    pub fn new(addr: Ipv4Addr, link: LinkId) -> Self {
        TeredoServer { addr, link, served: 0 }
    }

    /// Rebinds the uplink (topology builders learn the link id late).
    pub fn set_link(&mut self, link: LinkId) {
        self.link = link;
    }
}

impl Node for TeredoServer {
    fn handle_packet(&mut self, _iface: usize, pkt: Packet, ctx: &mut Ctx) {
        let Payload::Udp(udp) = &pkt.payload else { return };
        let UdpData::Raw(b) = &udp.data else { return };
        if udp.dst_port != TEREDO_PORT || &b[..] != RS_MAGIC {
            return;
        }
        let IpAddr::V4(observed) = pkt.src else { return };
        self.served += 1;
        // Origin indication: the source address and port *we* observed —
        // after any NAT rewriting, which is the whole point.
        let mut ra = Vec::with_capacity(10);
        ra.extend_from_slice(RA_MAGIC);
        ra.extend_from_slice(&observed.octets());
        ra.extend_from_slice(&udp.src_port.to_be_bytes());
        let reply = Packet::new(
            IpAddr::V4(self.addr),
            pkt.src,
            Payload::Udp(UdpDatagram {
                src_port: TEREDO_PORT,
                dst_port: udp.src_port,
                data: UdpData::Raw(Bytes::from(ra)),
            }),
        );
        ctx.transmit(self.link, reply);
    }
}

/// The Teredo relay: bridges the UDP/IPv4 world and IPv6.
///
/// It faces the IPv4 network (clients) only: it hairpins client to
/// client and drops traffic for native IPv6 destinations.
pub struct TeredoRelay {
    /// The relay's IPv4 address.
    pub addr: Ipv4Addr,
    v4_link: LinkId,
    /// Packets relayed client→client or client→v6 (diagnostics).
    pub relayed: u64,
}

impl TeredoRelay {
    /// Creates a relay with its IPv4-facing link.
    pub fn new(addr: Ipv4Addr, v4_link: LinkId) -> Self {
        TeredoRelay { addr, v4_link, relayed: 0 }
    }

    /// Rebinds the IPv4 uplink (topology builders learn the id late).
    pub fn set_v4_link(&mut self, link: LinkId) {
        self.v4_link = link;
    }

    fn encap_toward(&self, inner: Packet, dst_v6: &Ipv6Addr) -> Option<Packet> {
        let (_server, client_v4, client_port) = teredo_decode(dst_v6)?;
        Some(Packet::new(
            IpAddr::V4(self.addr),
            IpAddr::V4(client_v4),
            Payload::Udp(UdpDatagram {
                src_port: TEREDO_PORT,
                dst_port: client_port,
                data: UdpData::Teredo(Box::new(inner)),
            }),
        ))
    }
}

impl Node for TeredoRelay {
    fn handle_packet(&mut self, _iface: usize, pkt: Packet, ctx: &mut Ctx) {
        match &pkt.payload {
            // From a client: decapsulate and forward the inner packet.
            Payload::Udp(udp) if udp.dst_port == TEREDO_PORT => {
                let UdpData::Teredo(inner) = &udp.data else { return };
                let inner = (**inner).clone();
                match inner.dst {
                    IpAddr::V6(v6) if is_teredo(&inner.dst) => {
                        // Hairpin: client → relay → other client.
                        if let Some(out) = self.encap_toward(inner.clone(), &v6) {
                            self.relayed += 1;
                            ctx.transmit(self.v4_link, out);
                        }
                    }
                    IpAddr::V6(_) => {
                        ctx.trace_drop(|| "relay: no v6 uplink".to_owned());
                    }
                    IpAddr::V4(_) => {
                        ctx.trace_drop(|| "relay: v4 inside teredo".to_owned());
                    }
                }
            }
            // From the v6 network toward a Teredo client.
            _ if pkt.dst.is_ipv6() && is_teredo(&pkt.dst) => {
                let IpAddr::V6(v6) = pkt.dst else { return };
                if let Some(out) = self.encap_toward(pkt, &v6) {
                    self.relayed += 1;
                    ctx.transmit(self.v4_link, out);
                }
            }
            _ => {
                ctx.trace_drop(|| format!("relay: unhandled {} -> {}", pkt.src, pkt.dst));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Sim;
    use crate::host::{App, AppEvent, Host, HostApi};
    use crate::link::{Endpoint, LinkParams};
    use crate::packet::v4;
    use crate::tcp::TcpEvent;
    use crate::time::SimTime;

    /// Builds: clientA — switch(router) — {server, relay, clientB}.
    /// All nodes IPv4; A and B are Teredo clients.
    struct Net {
        sim: Sim,
        a: crate::link::NodeId,
        b: crate::link::NodeId,
    }

    fn build(apps_a: Vec<Box<dyn App>>, apps_b: Vec<Box<dyn App>>) -> Net {
        let mut sim = Sim::new(7);
        let server_v4 = Ipv4Addr::new(198, 51, 100, 1);
        let relay_v4 = Ipv4Addr::new(198, 51, 100, 2);

        let mut ha = Host::new("a");
        ha.core.teredo = Some(TeredoClient::new(Ipv4Addr::new(10, 0, 0, 1), server_v4, relay_v4));
        for app in apps_a {
            ha.add_app(app);
        }
        let mut hb = Host::new("b");
        hb.core.teredo = Some(TeredoClient::new(Ipv4Addr::new(10, 0, 0, 2), server_v4, relay_v4));
        for app in apps_b {
            hb.add_app(app);
        }

        let a = sim.world.add_node(Box::new(ha));
        let b = sim.world.add_node(Box::new(hb));
        let r = sim.world.add_node(Box::new(crate::router::Router::new("sw")));
        let la = sim.world.connect(
            Endpoint { node: a, iface: 0 },
            Endpoint { node: r, iface: 0 },
            LinkParams::datacenter(),
        );
        let lb = sim.world.connect(
            Endpoint { node: b, iface: 0 },
            Endpoint { node: r, iface: 1 },
            LinkParams::datacenter(),
        );
        // Server and relay hang off the same switch.
        let sv_tmp = TeredoServer::new(server_v4, LinkId(0));
        let sv = sim.world.add_node(Box::new(sv_tmp));
        let ls = sim.world.connect(
            Endpoint { node: sv, iface: 0 },
            Endpoint { node: r, iface: 2 },
            LinkParams::datacenter(),
        );
        sim.world.node_mut::<TeredoServer>(sv).unwrap().link = ls;
        let rl_tmp = TeredoRelay::new(relay_v4, LinkId(0));
        let rl = sim.world.add_node(Box::new(rl_tmp));
        let lr = sim.world.connect(
            Endpoint { node: rl, iface: 0 },
            Endpoint { node: r, iface: 3 },
            LinkParams::datacenter(),
        );
        sim.world.node_mut::<TeredoRelay>(rl).unwrap().v4_link = lr;

        {
            let h = sim.world.node_mut::<Host>(a).unwrap();
            h.core.add_iface(la, vec![v4(10, 0, 0, 1)]);
        }
        {
            let h = sim.world.node_mut::<Host>(b).unwrap();
            h.core.add_iface(lb, vec![v4(10, 0, 0, 2)]);
        }
        {
            let r = sim.world.node_mut::<crate::router::Router>(r).unwrap();
            r.add_iface(la);
            r.add_iface(lb);
            r.add_iface(ls);
            r.add_iface(lr);
            r.add_route(v4(10, 0, 0, 1), 32, 0);
            r.add_route(v4(10, 0, 0, 2), 32, 1);
            r.add_route(IpAddr::V4(server_v4), 32, 2);
            r.add_route(IpAddr::V4(relay_v4), 32, 3);
        }
        Net { sim, a, b }
    }

    #[test]
    fn clients_qualify() {
        let mut net = build(vec![], vec![]);
        net.sim.run_until(SimTime(3_000_000_000));
        let ha = net.sim.world.node::<Host>(net.a).unwrap();
        let addr = ha.core.teredo.as_ref().unwrap().address().expect("qualified");
        assert!(is_teredo(&IpAddr::V6(addr)));
        let (_s, client, port) = teredo_decode(&addr).unwrap();
        assert_eq!(client, Ipv4Addr::new(10, 0, 0, 1), "no NAT: external == internal");
        assert_eq!(port, TEREDO_PORT);
    }

    /// TCP between two Teredo clients, through the relay hairpin.
    struct V6Server;
    impl App for V6Server {
        fn start(&mut self, api: &mut HostApi) {
            api.tcp_listen(80);
        }
        fn on_event(&mut self, ev: AppEvent, api: &mut HostApi) {
            if let AppEvent::Tcp(TcpEvent::Data(s)) = ev {
                let d = api.tcp_recv(s);
                api.tcp_send(s, &d);
            }
        }
    }

    struct V6Client {
        peer: Option<Ipv6Addr>,
        reply: Vec<u8>,
    }
    impl App for V6Client {
        fn start(&mut self, api: &mut HostApi) {
            // Wait for qualification, then connect (poll via timer).
            api.set_timer(SimDuration::from_millis(1200), 1);
        }
        fn on_event(&mut self, ev: AppEvent, api: &mut HostApi) {
            match ev {
                AppEvent::Timer { token: 1 } => {
                    let peer = self.peer.expect("peer set by test");
                    let sock = api.tcp_connect(IpAddr::V6(peer), 80);
                    assert!(sock.is_some(), "teredo address available as source");
                }
                AppEvent::Tcp(TcpEvent::Connected(s)) => {
                    api.tcp_send(s, b"over teredo");
                }
                AppEvent::Tcp(TcpEvent::Data(s)) => {
                    self.reply.extend(api.tcp_recv(s));
                }
                _ => {}
            }
        }
    }

    #[test]
    fn tcp_over_teredo_relay_hairpin() {
        let mut net = build(
            vec![Box::new(V6Client { peer: None, reply: vec![] })],
            vec![Box::new(V6Server)],
        );
        // Let qualification finish, then learn B's address and set it on A.
        net.sim.run_until(SimTime(1_000_000_000));
        let b_addr = net
            .sim
            .world
            .node::<Host>(net.b)
            .unwrap()
            .core
            .teredo
            .as_ref()
            .unwrap()
            .address()
            .expect("b qualified");
        net.sim
            .world
            .node_mut::<Host>(net.a)
            .unwrap()
            .app_mut::<V6Client>(0)
            .unwrap()
            .peer = Some(b_addr);
        net.sim.run_until(SimTime(10_000_000_000));
        let reply =
            net.sim.world.node::<Host>(net.a).unwrap().app::<V6Client>(0).unwrap().reply.clone();
        assert_eq!(reply, b"over teredo");
    }
}
