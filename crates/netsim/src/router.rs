//! IP routers: longest-prefix forwarding between interfaces.
//!
//! Data-center topologies in the experiments are small (a rack switch, a
//! gateway, a WAN router) but real: packets hop through these nodes,
//! paying each link's latency and serialization, so multi-hop paths cost
//! what they should.

use crate::engine::{Ctx, Node};
use crate::link::LinkId;
use crate::packet::Packet;
use std::net::IpAddr;

/// A forwarding table entry.
#[derive(Clone, Debug)]
pub struct Route {
    /// Destination prefix.
    pub prefix: IpAddr,
    /// Prefix length in bits.
    pub prefix_len: u8,
    /// Interface to forward out of.
    pub out_iface: usize,
}

/// A router node.
pub struct Router {
    /// Diagnostics name.
    pub name: String,
    ifaces: Vec<LinkId>,
    routes: Vec<Route>,
    /// Packets forwarded (diagnostics).
    pub forwarded: u64,
    /// Packets dropped for lack of a route or TTL expiry.
    pub dropped: u64,
}

impl Router {
    /// Creates a router with no interfaces.
    pub fn new(name: &str) -> Self {
        Router { name: name.to_owned(), ifaces: Vec::new(), routes: Vec::new(), forwarded: 0, dropped: 0 }
    }

    /// Attaches an interface; returns its index.
    pub fn add_iface(&mut self, link: LinkId) -> usize {
        self.ifaces.push(link);
        self.ifaces.len() - 1
    }

    /// Adds a forwarding entry.
    pub fn add_route(&mut self, prefix: IpAddr, prefix_len: u8, out_iface: usize) {
        self.routes.push(Route { prefix, prefix_len, out_iface });
    }

    /// Longest-prefix lookup.
    pub fn lookup(&self, dst: &IpAddr) -> Option<usize> {
        let mut best: Option<(u8, usize)> = None;
        for r in &self.routes {
            if prefix_match(dst, &r.prefix, r.prefix_len)
                && best.is_none_or(|(len, _)| r.prefix_len > len)
            {
                best = Some((r.prefix_len, r.out_iface));
            }
        }
        best.map(|(_, i)| i)
    }
}

/// Bit-prefix comparison shared with the host's static routes.
pub(crate) fn prefix_match(addr: &IpAddr, prefix: &IpAddr, len: u8) -> bool {
    fn match_bits(a: &[u8], p: &[u8], len: u8) -> bool {
        let full = (len / 8) as usize;
        if a[..full] != p[..full] {
            return false;
        }
        let rem = len % 8;
        if rem == 0 {
            return true;
        }
        let mask = 0xffu8 << (8 - rem);
        (a[full] & mask) == (p[full] & mask)
    }
    match (addr, prefix) {
        (IpAddr::V4(a), IpAddr::V4(p)) => match_bits(&a.octets(), &p.octets(), len),
        (IpAddr::V6(a), IpAddr::V6(p)) => match_bits(&a.octets(), &p.octets(), len),
        _ => false,
    }
}

impl Node for Router {
    fn handle_packet(&mut self, in_iface: usize, mut pkt: Packet, ctx: &mut Ctx) {
        if pkt.ttl <= 1 {
            self.dropped += 1;
            ctx.trace_drop(|| format!("{}: ttl expired for {}", self.name, pkt.dst));
            return;
        }
        pkt.ttl -= 1;
        match self.lookup(&pkt.dst) {
            Some(out) if out != in_iface => {
                self.forwarded += 1;
                ctx.transmit(self.ifaces[out], pkt);
            }
            Some(_) => {
                // Route points back where it came from: drop to avoid loops.
                self.dropped += 1;
                ctx.trace_drop(|| format!("{}: hairpin to {}", self.name, pkt.dst));
            }
            None => {
                self.dropped += 1;
                ctx.trace_drop(|| format!("{}: no route to {}", self.name, pkt.dst));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{v4, v6};

    #[test]
    fn longest_prefix_wins() {
        let mut r = Router::new("r");
        r.add_iface(LinkId(0));
        r.add_iface(LinkId(1));
        r.add_iface(LinkId(2));
        r.add_route(v4(10, 0, 0, 0), 8, 0);
        r.add_route(v4(10, 1, 0, 0), 16, 1);
        r.add_route(v4(0, 0, 0, 0), 0, 2);
        assert_eq!(r.lookup(&v4(10, 2, 3, 4)), Some(0));
        assert_eq!(r.lookup(&v4(10, 1, 3, 4)), Some(1));
        assert_eq!(r.lookup(&v4(192, 168, 0, 1)), Some(2));
    }

    #[test]
    fn families_do_not_cross() {
        let mut r = Router::new("r");
        r.add_iface(LinkId(0));
        r.add_route(v4(0, 0, 0, 0), 0, 0);
        assert_eq!(r.lookup(&v6([0x2001, 0, 0, 0, 0, 0, 0, 1])), None);
    }
}
